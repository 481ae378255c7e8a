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


def checkout(tmp_path, workloads=("light", "heavy")):
    """A directory holding a BENCHMARK.json with the given workloads."""
    spec = {
        "command": ["true"], "run_seconds": 1,
        "workloads": [{"name": w} for w in workloads],
        "end_to_end": [{"name": "scan_median_s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "trace.self_coverage", "better": "higher"}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    return tmp_path


def test_all_names_every_workload_in_order(tmp_path):
    spec = bench_pairs._spec(checkout(tmp_path, ("a", "b", "c")))
    assert bench_pairs.workload_names(spec, "all") == ["a", "b", "c"]
    assert bench_pairs.workload_names(spec, "b") == ["b"]


def fake_runs(monkeypatch, tmp_path, slower=None, broken=None):
    """Serve canned result lines instead of running the benchmark: the change
    is 0.1 s slower on workload `slower`, and `broken` prints no result."""
    calls = []

    def run(side, workload, seed, trace):
        calls.append((side.name, workload, seed))
        if workload == broken:
            raise ValueError("no output")
        scan = PARENT[seed - 1] + (0.1 if side.name == "change" and workload == slower else 0.0)
        return bench_pairs.parse_result(line(scan))

    monkeypatch.setattr(bench_pairs, "_run", run)
    sides = [tmp_path / "parent", tmp_path / "change"]
    for side in sides:
        side.mkdir()
        checkout(side)
    return calls, [str(side) for side in sides]


def test_all_runs_every_workload_with_a_table_each(monkeypatch, tmp_path, capsys):
    calls, sides = fake_runs(monkeypatch, tmp_path)
    assert bench_pairs.main([*sides, "--workload", "all"]) == 0
    out = capsys.readouterr().out
    assert "light, 10 pairs, trace 0" in out and "heavy, 10 pairs, trace 0" in out
    assert out.count("scan_median_s") == 2 and "FAIL" not in out
    assert len(calls) == 40
    # every pair alternates which side runs first, on the pair's seed
    assert calls[:4] == [("parent", "light", 1), ("change", "light", 1),
                         ("change", "light", 2), ("parent", "light", 2)]
    assert {w for _, w, _ in calls[20:]} == {"heavy"}


def test_all_fails_when_one_workload_regresses(monkeypatch, tmp_path, capsys):
    _, sides = fake_runs(monkeypatch, tmp_path, slower="heavy")
    assert bench_pairs.main([*sides, "--workload", "all"]) == 1
    out = capsys.readouterr().out
    assert "FAIL heavy: scan_median_s regressed" in out
    assert "FAIL light" not in out and "light, 10 pairs" in out


def test_one_named_workload_runs_alone(monkeypatch, tmp_path, capsys):
    calls, sides = fake_runs(monkeypatch, tmp_path, slower="heavy")
    assert bench_pairs.main([*sides, "--workload", "light", "--pairs", "3"]) == 0
    assert {w for _, w, _ in calls} == {"light"} and len(calls) == 6


def test_a_run_without_a_result_stops_with_exit_1(monkeypatch, tmp_path, capsys):
    calls, sides = fake_runs(monkeypatch, tmp_path, broken="heavy")
    assert bench_pairs.main([*sides, "--workload", "all"]) == 1
    assert "heavy pair 1: parent: no output" in capsys.readouterr().err
    assert calls[-1] == ("parent", "heavy", 1)
