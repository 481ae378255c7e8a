import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"scan_median_s": "lower", "trace.self_coverage": "higher"}


def line(scan, coverage=0.9, correct=True, failed=0):
    """A result line as perfbench/run.py prints it, after its comment line."""
    result = {
        "correct": correct, "attempted": 40, "failed": failed,
        "metrics": {"scan_median_s": {"value": scan, "unit": "s"},
                    "trace.self_coverage": {"value": coverage, "unit": "ratio"}},
    }
    return "# platoonkit at abc123; 3 round(s)\n" + json.dumps(result) + "\n"


def runs(values, **kw):
    return [bench_pairs.parse_result(line(v, **kw)) for v in values]


PARENT = [0.28, 0.30, 0.27, 0.29, 0.31, 0.28, 0.26, 0.29, 0.30, 0.28]


def row(rows, name):
    return next(r for r in rows if r["metric"] == name)


def test_clear_gain_passes():
    change = [0.20, 0.21, 0.19, 0.20, 0.22, 0.20, 0.19, 0.21, 0.20, 0.20]
    r = row(bench_pairs.summarize(runs(PARENT), runs(change), BETTER), "scan_median_s")
    assert r["unit"] == "s" and r["pairs"] == 10 and r["wins"] == 10
    assert r["parent"] == pytest.approx((0.28, 0.285, 0.2975))
    assert r["change"][1] == pytest.approx(0.20)
    assert r["claim_passes"]


def test_eight_wins_of_ten_fail():
    change = [0.20] * 8 + [0.35, 0.35]
    r = row(bench_pairs.summarize(runs(PARENT), runs(change), BETTER), "scan_median_s")
    assert r["wins"] == 8 and not r["claim_passes"]


def test_gain_within_the_parents_spread_fails():
    # every pair won, but by less than the parent's Q3 - Q1 (0.0175)
    change = [v - 0.01 for v in PARENT]
    r = row(bench_pairs.summarize(runs(PARENT), runs(change), BETTER), "scan_median_s")
    assert r["wins"] == 10 and not r["claim_passes"]


def test_ties_count_for_neither_side():
    r = row(bench_pairs.summarize(runs(PARENT), runs(PARENT), BETTER), "scan_median_s")
    assert r["wins"] == 0 and not r["claim_passes"]


def test_higher_is_better_metric():
    parent = runs(PARENT, coverage=0.80)
    change = runs(PARENT, coverage=0.95)
    r = row(bench_pairs.summarize(parent, change, BETTER), "trace.self_coverage")
    assert r["wins"] == 10 and r["claim_passes"]
    assert "trace.self_coverage" in bench_pairs.format_rows([r])


BOUNDS = {"scan_median_s": 0.25}


def verdict(parent, change, coverage=(0.9, 0.9)):
    rows = bench_pairs.summarize(runs(parent, coverage=coverage[0]),
                                 runs(change, coverage=coverage[1]), BETTER, BOUNDS)
    assert row(rows, "trace.self_coverage")["regression"] is None  # no bound: no verdict
    return row(rows, "scan_median_s")["regression"]


def test_slower_within_the_bound():
    # median 0.285 -> 0.335 (+18%), under the 25% bound; parent spread 6%
    assert verdict(PARENT, [v + 0.05 for v in PARENT]) == "within"
    assert verdict(PARENT, PARENT) == "within"


def test_slower_beyond_the_bound_regresses():
    # median 0.285 -> 0.385 (+35%)
    r = row(bench_pairs.summarize(runs(PARENT), runs([v + 0.1 for v in PARENT]),
                                  BETTER, BOUNDS), "scan_median_s")
    assert r["regression"] == "regressed"
    assert "regressed" in bench_pairs.format_rows([r])


def test_wide_parent_spread_is_unresolved():
    # parent Q3 - Q1 = 0.145, 51% of its median 0.285: wider than the bound
    parent = [0.20, 0.40, 0.22, 0.38, 0.25, 0.35, 0.21, 0.39, 0.30, 0.27]
    assert verdict(parent, [v + 0.01 for v in parent]) == "unresolved"
    # unless every change run beats every parent run
    assert verdict(parent, [0.15] * 10) == "within"


@pytest.mark.parametrize("kw, problem", [
    (dict(correct=False), "correct is not true"),
    (dict(failed=2), "2 of 40 operations failed"),
])
def test_wrong_or_failed_run_is_a_problem(kw, problem):
    assert bench_pairs.run_problems(runs([0.3], **kw)[0]) == [problem]
    assert bench_pairs.run_problems(runs([0.3])[0]) == []


def test_line_without_a_result_is_refused():
    with pytest.raises(ValueError):
        bench_pairs.parse_result("perfbench: metrics not measured\n")
    with pytest.raises(ValueError):
        bench_pairs.parse_result("")
