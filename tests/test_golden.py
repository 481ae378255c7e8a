"""The battery's outputs against the golden files under tests/golden/battery,
compared by scripts/compare_outputs.py's exact-decimal gate, not byte for
byte: the last digits of an output may differ between BLAS kernels.

One run of scripts/run_experiments.py feeds every comparison.  Its small
files are checked in verbatim.  Of the trajectory, some 58 MB, only an
excerpt is: its two header lines, every 1,000th row and its last line.  Its
standard output is checked in as stdout.txt, with the output directory
written as OUTDIR, and each verify line's worst=..., the largest error its
check measured, as worst=WORST: that is rounding error, which the BLAS
kernel sets (the formation-mapping check measures 4.29e-08 on SkylakeX and
6.05e-08 on Haswell), and the line's "ok" already holds it to its bound.

Run as a script, this module regenerates the golden files (README "Golden
files")."""

import contextlib
import hashlib
import importlib.util
import io
import re
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "battery"

VERBATIM = (
    "report/report.json", "report/report.txt", "report/freq_velocity.csv",
    "report/freq_formation.csv", "delay_grid/delay_grid.csv", "sweeps/sweep_remove.csv",
    "sweeps/sweep_add.csv", "scaling/scaling.csv", "scaling/scaling.json",
    "sim_offdiag/verdict.txt",
)
TRAJECTORY = "sim_offdiag/trajectory.csv"
EXCERPT = "sim_offdiag/trajectory_excerpt.csv"
STDOUT = "stdout.txt"
OUTDIR = "OUTDIR"


def load(script: str):
    spec = importlib.util.spec_from_file_location(script, ROOT / "scripts" / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = load("compare_outputs")
run_experiments = load("run_experiments")


def excerpt(path: Path) -> tuple:
    """(the two header lines, every 1,000th row and the last line of the CSV
    file `path`, as text; the sha256 of the whole file)."""
    digest, kept = hashlib.sha256(), []
    with open(path, "rb") as fh:
        for i, line in enumerate(fh):
            digest.update(line)
            if i < 2 or (i - 2) % 1000 == 0:
                kept.append(line)
    if (i - 2) % 1000:
        kept.append(line)
    return b"".join(kept).decode(), digest.hexdigest()


def battery(outdir: Path) -> tuple:
    """({golden file name: its text} from one battery run into `outdir`,
    the trajectory's sha256)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_experiments.run(str(outdir)) == 0
    texts = {name: (outdir / name).read_text() for name in VERBATIM}
    texts[EXCERPT], sha256 = excerpt(outdir / TRAJECTORY)
    stdout = out.getvalue().replace(str(outdir), OUTDIR)
    texts[STDOUT] = re.sub(r"worst=[^)]*", "worst=WORST", stdout)
    return texts, sha256


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return battery(tmp_path_factory.mktemp("battery"))


def assert_matches_golden(texts: dict, name: str) -> None:
    ok, worst, where = compare_outputs.compare_text((GOLDEN / name).read_text(), texts[name])
    assert ok, f"{name}: {where} (largest deviation {worst})"


def test_golden_tree_is_what_the_battery_writes():
    names = sorted(p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*") if p.is_file())
    assert names == sorted((*VERBATIM, EXCERPT, STDOUT))


@pytest.mark.parametrize("name", (*VERBATIM, STDOUT))
def test_battery_output_matches_the_golden_file(outputs, name):
    assert_matches_golden(outputs[0], name)


def test_trajectory_excerpt_matches_the_golden_file(outputs, capsys):
    texts, sha256 = outputs
    # reported, not asserted: the last digits may differ between BLAS kernels
    with capsys.disabled():
        print(f"\n{TRAJECTORY} sha256 {sha256}")
    assert_matches_golden(texts, EXCERPT)


def test_one_flipped_digit_fails_the_gate():
    # the last printed digit of a formation gain: 1e-10 apart, past 1e-11 * 6.3
    text = (GOLDEN / "sweeps" / "sweep_remove.csv").read_text()
    flipped = text.replace("6.3151454096", "6.3151454097", 1)
    assert flipped != text
    ok, _, where = compare_outputs.compare_text(text, flipped)
    assert not ok and where == "6.3151454096 vs 6.3151454097"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        texts, sha256 = battery(Path(tmp))
    for name, text in texts.items():
        (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
        (GOLDEN / name).write_text(text)
        print(f"wrote {GOLDEN / name}")
    print(f"{TRAJECTORY} sha256 {sha256}")
