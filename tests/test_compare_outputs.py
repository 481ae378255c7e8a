import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

REPORT = '{\n  "lambda1": 0.9999999999999997,\n  "margin": 1.25e-3,\n  "kind": "md"\n}\n'
CSV = "# n=36, k=4\ntau,stable,decay_ratio\n0.05,true,5.3e-06\n0.4,false,inf\n"


def tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


@pytest.fixture
def base(tmp_path):
    return tree(tmp_path / "a", {"report/report.json": REPORT, "grid/delay_grid.csv": CSV})


def run(base, tmp_path, files, capsys):
    other = tree(tmp_path / "b", files)
    code = compare_outputs.main([str(base), str(other)])
    return code, capsys.readouterr().out


def test_identical_trees_pass(base, tmp_path, capsys):
    code, out = run(base, tmp_path, {"report/report.json": REPORT, "grid/delay_grid.csv": CSV}, capsys)
    assert code == 0
    assert "report/report.json: identical" in out


def test_last_bit_change_passes_and_is_reported(base, tmp_path, capsys):
    moved = REPORT.replace("0.9999999999999997", "1.0000000000000097")
    code, out = run(base, tmp_path, {"report/report.json": moved, "grid/delay_grid.csv": CSV}, capsys)
    assert code == 0
    assert "ok   report/report.json: largest deviation 1e-14" in out


@pytest.mark.parametrize("a, b, code", [
    # one unit in the 12th digit just above 1: a float difference of
    # 1.0000000827e-11 would fail it
    ("1.00000000504", "1.00000000505", 0),
    ("1.00000000504", "1.0000000050500000001", 1),  # 4.95e-20 above the bound
    ("0.5", "0.50000000001", 0),                    # on the bound
    ("0.5", "0.500000000010000001", 1),             # 1e-18 above it
])
def test_bound_is_evaluated_exactly(tmp_path, capsys, a, b, code):
    base = tree(tmp_path / "a", {"report/x.csv": a + "\n"})
    assert run(base, tmp_path, {"report/x.csv": b + "\n"}, capsys)[0] == code


@pytest.mark.parametrize("report, csv", [
    (REPORT.replace("0.9999999999999997", "1.0000000010000000"), CSV),  # 1e-9
    (REPORT.replace('"md"', '"single"'), CSV),                          # a word
    (REPORT, CSV.replace("false", "true")),                             # a verdict
    (REPORT, CSV.replace("5.3e-06", "5.3e-06,0")),                      # an extra number
])
def test_real_change_fails(base, tmp_path, capsys, report, csv):
    code, out = run(base, tmp_path, {"report/report.json": report, "grid/delay_grid.csv": csv}, capsys)
    assert code == 1
    assert "FAIL" in out


def test_missing_file_fails(base, tmp_path, capsys):
    code, out = run(base, tmp_path, {"report/report.json": REPORT}, capsys)
    assert code == 1
    assert "FAIL grid/delay_grid.csv: only in" in out


def test_overflowed_number_fails(base, tmp_path, capsys):
    overflowed = REPORT.replace("1.25e-3", "1e999")
    code, out = run(base, tmp_path, {"report/report.json": overflowed, "grid/delay_grid.csv": CSV}, capsys)
    assert code == 1
