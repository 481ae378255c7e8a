"""The tracer's self-time arithmetic, its wrapping of platoonkit, and the
runner's refusal to time a platoonkit other than the checkout's."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import spans
import speed
from platoonkit import robustness, spectral, topology

HERE = Path(spans.__file__).resolve().parent


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs, 0]


def test_layer_metrics_self_times():
    s = 1_000_000_000  # ns per second
    recorded = [
        span("cli.main", 0, 100 * s, attrs={"command": "report"}),  # 0
        span("experiments.run_report", 10 * s, 90 * s, 0),                      # 1
        span("spectral.eig_sym", 20 * s, 50 * s, 1),                            # 2
        span("robustness.build_report", 50 * s, 80 * s, 1),                     # 3
        span("spectral.eig_sym", 55 * s, 70 * s, 3),                            # 4
        span("robustness.sweep_hinf", 70 * s, 78 * s, 3),                       # 5
    ]
    m = spans.layer_metrics(recorded, rounds=1, traced_s=100.0)
    assert m["cli.self_s"] == pytest.approx(20.0)
    assert m["experiments.self_s"] == pytest.approx(20.0)
    assert m["spectral.self_s"] == pytest.approx(45.0)
    assert m["robustness.self_s"] == pytest.approx(15.0)
    assert m["robustness.report_self_s"] == pytest.approx(7.0)
    assert m["robustness.sweep_hinf_s"] == pytest.approx(8.0)
    assert m["spectral.eig_sym_s"] == pytest.approx(45.0)
    assert m["spectral.eig_sym_calls"] == 2
    assert m["spectral.eig_sym_max_ms"] == pytest.approx(30_000.0)
    assert m["cli.report_s"] == pytest.approx(100.0)
    assert m["cli.verify_s"] == 0.0
    assert m["trace.self_coverage"] == pytest.approx(1.0)
    halved = spans.layer_metrics(recorded, rounds=2, traced_s=100.0)
    assert halved["spectral.eig_sym_s"] == pytest.approx(22.5)
    assert halved["spectral.eig_sym_calls"] == 1
    scaled = spans.layer_metrics(recorded, rounds=1, traced_s=125.0, scale=0.5)
    assert scaled["spectral.eig_sym_s"] == pytest.approx(22.5)
    assert scaled["spectral.eig_sym_max_ms"] == pytest.approx(15_000.0)
    assert scaled["trace.self_coverage"] == pytest.approx(0.8)


def test_layer_metrics_steps_per_mode_and_scan():
    s = 1_000_000_000
    recorded = [
        span("dde_sim.threshold_scan", 0, 10 * s),
        span("dde_sim.simulate", 0, 4 * s, 0, {"mode": "full", "steps": 2_000_000}),
        span("dde_sim.simulate", 4 * s, 10 * s, 0, {"mode": "full", "steps": 2_000_000}),
        span("dde_sim.simulate", 10 * s, 13 * s, -1, {"mode": "none", "steps": 100_000}),
    ]
    m = spans.layer_metrics(recorded, rounds=1, traced_s=13.0)
    assert m["dde_sim.us_per_step.full"] == pytest.approx(2.5)
    assert m["dde_sim.us_per_step.none"] == pytest.approx(30.0)
    assert m["dde_sim.us_per_step.self-undelayed"] == 0.0
    assert m["dde_sim.runs_per_scan"] == 2
    assert m["dde_sim.steps"] == 4_100_000
    assert m["dde_sim.simulate_calls"] == 3


def test_tracer_wraps_every_binding_and_restores_it():
    originals = (spectral.eig_sym, robustness.eig_sym, topology.PlatoonTopology.laplacian)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert robustness.eig_sym is spectral.eig_sym is not originals[0]
        top = topology.build_platoon(9, 2)
        robustness.build_report(top, topology.md_arrangement(9, 2), with_sweep=True)
    finally:
        tracer.uninstall()
    assert (spectral.eig_sym, robustness.eig_sym, topology.PlatoonTopology.laplacian) == originals
    names = [s[spans.NAME] for s in tracer.spans]
    report = names.index("robustness.build_report")
    eig = names.index("spectral.eig_sym")
    assert tracer.spans[eig][spans.PARENT] == report
    assert "topology.PlatoonTopology.laplacian" in names
    assert "robustness.sweep_hinf" in names
    assert all(s[spans.END] >= s[spans.START] for s in tracer.spans)


def test_git_sha_outside_a_repository(tmp_path):
    assert bench.git_sha(tmp_path) is None
    (tmp_path / ".git" / "refs" / "heads").mkdir(parents=True)
    (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
    (tmp_path / ".git" / "refs" / "heads" / "main").write_text("abc123\n")
    assert bench.git_sha(tmp_path) == "abc123"


def test_runner_refuses_a_checkout_without_its_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-p36", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "platoonkit" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_ref_clock_divides_each_stretch_by_the_speed_factor(monkeypatch):
    clock = speed.RefClock()
    clock.factor = {"py": 2.0, "blas": 1.0}
    factors = iter([{"py": 2.0, "blas": 9.0}, {"py": 4.0, "blas": 9.0}])
    monkeypatch.setattr(clock, "_sample", lambda: next(factors))
    monkeypatch.setattr(speed, "INTERVAL", 0.045)
    clock._clock = iter([0.0, 0.01, 0.02, 0.06, 0.08, 0.13, 0.14]).__next__
    clock._since = 0.0
    clock.start("py")       # 0.00
    clock.checkpoint()      # 0.01: stretch 0.01 at factor 2, too soon to sample
    clock.checkpoint()      # 0.06: stretch 0.04; sample -> 2, mean factor 2
    raw, ref = clock.stop()  # 0.13: stretch 0.05 from 0.08 (kernel time left out); 4 -> mean 3
    assert raw == pytest.approx(0.01 + 0.04 + 0.05)
    assert ref == pytest.approx(0.01 / 2 + 0.04 / 2 + 0.05 / 3)


def test_py_factor_is_the_mean_over_all_samples():
    clock = speed.RefClock()
    ref = speed.REFERENCE_S["py"]
    clock.samples = [(2 * ref, 1.0), (4 * ref, 1.0)]
    assert clock.py_factor() == pytest.approx(3.0)
