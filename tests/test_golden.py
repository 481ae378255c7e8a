"""The battery's outputs against the golden files under tests/golden/battery,
compared by scripts/compare_outputs.py's exact-decimal gate, not byte for
byte: the last digits of an output may differ between BLAS kernels.

See README "Golden files" for the command that regenerates them."""

import importlib.util
from pathlib import Path

import pytest

from platoonkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "battery"


def load(script: str):
    spec = importlib.util.spec_from_file_location(script, ROOT / "scripts" / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = load("compare_outputs")
run_experiments = load("run_experiments")


@pytest.mark.parametrize("mode", ["remove", "add"])
def test_sweeps_match_the_golden_files(tmp_path, mode):
    # the battery's command line for this sweep
    assert main([f"sweep-{mode}", *run_experiments.BASE, "--out", str(tmp_path)]) == 0
    name = f"sweeps/sweep_{mode}.csv"
    ok, worst, where = compare_outputs.compare_text(
        (GOLDEN / name).read_text(), (tmp_path / f"sweep_{mode}.csv").read_text())
    assert ok, f"{name}: {where} (largest deviation {worst})"


def test_one_flipped_digit_fails_the_gate():
    # the last printed digit of a formation gain: 1e-10 apart, past 1e-11 * 6.3
    text = (GOLDEN / "sweeps" / "sweep_remove.csv").read_text()
    flipped = text.replace("6.3151454096", "6.3151454097", 1)
    assert flipped != text
    ok, _, where = compare_outputs.compare_text(text, flipped)
    assert not ok and where == "6.3151454096 vs 6.3151454097"
