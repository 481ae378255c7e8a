#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, and the verdicts on a gain
and on a regression.

Runs the benchmark command of BENCHMARK.json (perfbench/run.py) for one
workload in the PARENT checkout and in the CHANGE checkout, pair after pair.
Both runs of a pair use the same seed (pair i uses seed i, from 1), the side
that runs first alternates, and the run length is BENCHMARK.json's
run_seconds.  For every metric the runs report it then prints each side's
median and quartiles, how many pairs the change won (ties count for
neither), and whether a gain claimed on that metric passes: the change wins
at least nine tenths of the pairs, and its median is better than the
parent's, in the metric's better direction, by more than the distance
between the parent's quartiles.  For every end-to-end metric, whose bound
BENCHMARK.json gives as a share of the parent's median, it also prints the
no-regression verdict:

    unresolved  the parent's Q3 - Q1 is wider than the bound, and not every
                change run beats every parent run: the runs cannot tell;
    regressed   the change's median is worse than the parent's by more
                than the bound;
    within      otherwise.

With --workload all it runs every workload of the CHANGE checkout's
BENCHMARK.json in turn, all pairs of one before the next, and prints one
table per workload.  Exits 1 if any run fails to print a result, reports
"correct": false or reports failed operations, or if a metric regressed on
any workload; else 0.  Standard library only.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W|all [--pairs 10] [--trace 0|1]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: share of the pairs the change must win for a claimed gain
WIN_SHARE = 0.9


def parse_result(stdout: str) -> dict:
    """The result object: the last line of the benchmark's standard output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"not a result line: {lines[-1][:200]}")
    return result


def run_problems(result: dict) -> list:
    """Why a run cannot be counted: a wrong output or failed operations."""
    problems = []
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed", 1) != 0:
        problems.append(f"{result.get('failed')} of {result.get('attempted')} operations failed")
    return problems


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def regression_verdict(a: list, b: list, sign: float, bound: float) -> str:
    """The no-regression verdict, within, regressed or unresolved (see the
    module docstring), on parent values a and change values b of a metric
    whose better direction is lower when sign is 1 and higher when it is -1."""
    qa, qb = quartiles(a), quartiles(b)
    tol = bound * abs(qa[1])
    if qa[2] - qa[0] > tol and not max(sign * y for y in b) < min(sign * x for x in a):
        return "unresolved"
    return "regressed" if sign * (qb[1] - qa[1]) > tol else "within"


def summarize(parent: list, change: list, better: dict, bounds: dict | None = None) -> list:
    """One row per metric reported by every run of both sides.

    parent and change are the result objects of the runs, pair i being
    (parent[i], change[i]); better maps a metric name to "lower" or
    "higher", bounds an end-to-end metric's name to its bound.  A row holds
    the metric's unit, each side's quartiles, the change's wins, the verdict
    on a gain claimed on it and, for a metric with a bound, the
    no-regression verdict (else None).
    """
    bounds = bounds or {}
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    names = set(parent[0]["metrics"])
    for result in parent + change:
        names &= set(result["metrics"])
    rows = []
    for name in sorted(names):
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        wins = sum(sign * (y - x) < 0.0 for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        spread = qa[2] - qa[0]
        gain = sign * (qa[1] - qb[1])
        rows.append({
            "metric": name,
            "unit": parent[0]["metrics"][name].get("unit", ""),
            "parent": qa,
            "change": qb,
            "wins": wins,
            "pairs": len(a),
            "claim_passes": wins >= WIN_SHARE * len(a) and gain > spread,
            "regression": (regression_verdict(a, b, sign, bounds[name])
                           if name in bounds else None),
        })
    return rows


def format_rows(rows: list) -> str:
    def q(t):
        return f"{t[1]:.4g} [{t[0]:.4g}, {t[2]:.4g}]"

    lines = [f"{'metric':40s} {'unit':6s} {'parent median [Q1, Q3]':28s} "
             f"{'change median [Q1, Q3]':28s} wins   gain claim  regression"]
    for r in rows:
        lines.append(f"{r['metric']:40s} {r['unit']:6s} {q(r['parent']):28s} {q(r['change']):28s} "
                     f"{r['wins']:2d}/{r['pairs']:<2d}  "
                     f"{'passes' if r['claim_passes'] else 'fails':11s} {r['regression'] or '-'}")
    return "\n".join(lines)


def _spec(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text())


def _run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    spec = _spec(checkout)
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return parse_result(proc.stdout)


def workload_names(spec: dict, workload: str) -> list:
    """The workloads to run: every one BENCHMARK.json lists for "all", else
    the one named."""
    return [w["name"] for w in spec["workloads"]] if workload == "all" else [workload]


def run_workload(sides: dict, workload: str, pairs: int, trace: int,
                 better: dict, bounds: dict) -> list | None:
    """Run the pairs of one workload and print its table; return what fails
    it (wrong or failed runs, regressed metrics), or None when a run printed
    no result."""
    results = {"parent": [], "change": []}
    problems = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            t0 = time.perf_counter()
            try:
                result = _run(sides[side], workload, i + 1, trace)
            except (RuntimeError, ValueError) as exc:
                print(f"{workload} pair {i + 1}: {side}: {exc}", file=sys.stderr)
                return None
            problems += [f"pair {i + 1}: {side}: {msg}" for msg in run_problems(result)]
            results[side].append(result)
            print(f"{workload} pair {i + 1}/{pairs}: {side} ran in "
                  f"{time.perf_counter() - t0:.0f} s", file=sys.stderr)
    print(f"{workload}, {pairs} pairs, trace {trace}")
    rows = summarize(results["parent"], results["change"], better, bounds)
    print(format_rows(rows))
    problems += [f"{r['metric']} regressed" for r in rows if r["regression"] == "regressed"]
    for msg in problems:
        print(f"FAIL {workload}: {msg}")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True, help='a workload name, or "all"')
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = _spec(args.change)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    failed = False
    for workload in workload_names(spec, args.workload):
        problems = run_workload(sides, workload, args.pairs, args.trace, better, bounds)
        if problems is None:
            return 1
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
