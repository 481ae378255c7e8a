#!/usr/bin/env python3
"""Regression gate for two output trees of scripts/run_experiments.py.

Both trees must hold the same set of files.  A file passes if it is
byte-identical; otherwise it is split into numeric and other tokens, the
other tokens must match exactly, and each pair of numbers a, b must satisfy

    |a - b| <= 1e-11 * max(|a|, |b|, 1)

which is about one unit in the 12th significant digit.  The numbers are
read as the decimals they are written as and the bound is evaluated in
exact decimal arithmetic, so no float rounding moves a pair across it.
Each file's largest scaled deviation |a - b| / max(|a|, |b|, 1) is printed;
the exit code is 1 if any file fails, else 0.  Standard library only.

Usage: python scripts/compare_outputs.py A B
"""

import argparse
import decimal
import re
import sys
from decimal import Decimal
from pathlib import Path

RTOL = Decimal("1e-11")
# a context in which subtraction, abs and multiplication never round and no
# exponent overflows; the printed deviation is divided to 28 digits instead
EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
ROUNDED = decimal.Context(Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)

# a number: optional sign, digits with an optional fraction (or a bare
# fraction), optional exponent; inf and nan stay words and match exactly
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def tokens(text: str) -> tuple:
    """(the text between numbers, the numbers), in order."""
    return NUMBER.split(text), NUMBER.findall(text)


def compare_text(a: str, b: str) -> tuple:
    """(ok, worst scaled deviation or None, first mismatch description)."""
    words_a, nums_a = tokens(a)
    words_b, nums_b = tokens(b)
    if len(nums_a) != len(nums_b):
        return False, None, f"{len(nums_a)} vs {len(nums_b)} numbers"
    for wa, wb in zip(words_a, words_b):
        if wa != wb:
            return False, None, f"text differs: {wa[:40]!r} vs {wb[:40]!r}"
    ok, worst, where = True, Decimal(0), ""
    with decimal.localcontext(EXACT):
        for sa, sb in zip(nums_a, nums_b):
            if sa == sb:
                continue
            x, y = Decimal(sa), Decimal(sb)
            diff, scale = abs(x - y), max(abs(x), abs(y), Decimal(1))
            ok &= diff <= RTOL * scale
            dev = ROUNDED.divide(diff, scale)
            if dev > worst:
                worst, where = dev, f"{sa} vs {sb}"
    return ok, worst, where


def files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    fa, fb = files(args.a), files(args.b)
    failed = 0
    for name in sorted(fa ^ fb):
        print(f"FAIL {name}: only in {args.a if name in fa else args.b}")
        failed += 1
    for name in sorted(fa & fb):
        ba, bb = (args.a / name).read_bytes(), (args.b / name).read_bytes()
        if ba == bb:
            print(f"ok   {name}: identical")
            continue
        try:
            ok, worst, where = compare_text(ba.decode(), bb.decode())
        except UnicodeDecodeError:
            ok, worst, where = False, None, "not text"
        dev = "n/a" if worst is None else f"{float(worst):.3g}"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: largest deviation {dev} ({where})")
        failed += not ok
    print(f"{failed} file(s) failed" if failed else "all files pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
