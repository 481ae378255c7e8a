"""Each output check of the benchmark accepts what the program really writes
and rejects a deliberately wrong input, so none of them passes vacuously.

Run with:  python3 -m pytest perfbench/tests
"""

import copy
import json
import math

import numpy as np
import pytest

import checks
from platoonkit import dde_sim, experiments, robustness, topology

P36 = (36, 4, checks.md_refs(36, 4))


def report_dict(n, k, refs):
    top = topology.build_platoon(n, k)
    return robustness.build_report(top, topology.make_reference_set(n, refs),
                                   with_sweep=True).to_json_dict()


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def test_oracle_desk_values():
    lams = checks.spectrum(*P36)
    assert checks.md_refs(36, 4) == (5, 14, 23, 32)
    assert lams[0] == pytest.approx(1.0, abs=1e-12)
    assert checks.velocity_delay_margin(lams) == pytest.approx(0.144681, abs=1e-6)
    # the modal margin of the P(36,4) formation dynamics, confirmed apart
    # by a Lambert-W root computation
    assert checks.formation_delay_margin(lams) == pytest.approx(0.161230, abs=1e-6)
    assert checks.critical_mode_is_real(lams)
    # P(8,1) with reference {1}: the critical formation mode is complex
    lams8 = checks.spectrum(8, 1, (1,))
    assert checks.formation_delay_margin(lams8) == pytest.approx(0.500915, abs=1e-6)
    assert not checks.critical_mode_is_real(lams8)


def test_oracle_single_end_closed_form():
    assert np.allclose(checks.spectrum(9, 1, (1,)), checks.single_end_spectrum(9), atol=1e-12)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,k,refs", [P36, (13, 3, (2, 9)), (10, 1, (1,)), (40, 2, (7, 8, 30))])
def test_report_accepts_program_output(n, k, refs):
    assert checks.check_report(report_dict(n, k, refs), n, k, refs) == []


def _perturbed(rep, path, value):
    rep = copy.deepcopy(rep)
    *keys, last = path
    target = rep
    for key in keys:
        target = target[key]
    target[last] = value(target[last])
    return rep


@pytest.mark.parametrize("path,value", [
    (("lg_spectrum", 3), lambda v: v + 1e-6),
    (("lg_spectrum", 0), lambda v: v * (1 + 1e-8)),
    (("lambda1",), lambda v: v + 1e-7),
    (("lambda_max",), lambda v: v - 1e-7),
    (("hinf_velocity",), lambda v: v * 1.001),
    (("hinf_formation",), lambda v: v * 0.999),
    (("delay_velocity_max",), lambda v: v * 1.0001),
    (("swept", "velocity_peak"), lambda v: v * 1.01),
    (("swept", "formation_peak"), lambda v: v * 0.99),
    (("beta_min",), lambda v: v + 1),
    (("dmax_f",), lambda v: v - 1),
    (("certificates", "lambda_min", "holds"), lambda v: False),
    (("certificates", "lambda_max", "chain", 0, 1), lambda v: v - 1.0),
    (("refs",), lambda v: [r + 1 for r in v]),
])
def test_report_rejects_wrong_values(path, value):
    rep = report_dict(*P36)
    assert checks.check_report(_perturbed(rep, path, value), *P36) != []


def test_single_end_rejects_a_spectrum_with_the_right_trace():
    n = 10
    rep = report_dict(n, 1, (1,))
    # move two eigenvalues apart: the trace stays, the closed form does not
    rep["lg_spectrum"][2] += 1e-6
    rep["lg_spectrum"][5] -= 1e-6
    problems = checks.check_report(rep, n, 1, (1,))
    assert any("single-end" in p for p in problems)


def test_certificate_chain_rejects_a_lambda1_outside_the_beta_bracket():
    n, k, refs = P36
    rep = report_dict(n, k, refs)
    lams = checks.spectrum(n, k, refs).copy()
    lams[0] = 0.5  # below min beta = 1
    assert any("lambda_min chain" in p for p in checks.check_certificates(rep, n, k, refs, lams))


def test_desk_report_rejects_other_references():
    rep = report_dict(36, 4, (4, 14, 23, 32))
    assert checks.check_desk_report(rep, 36, 4) != []
    assert checks.check_desk_report(report_dict(*P36), 36, 4) == []


@pytest.mark.parametrize("dynamics", ["velocity", "formation"])
def test_frequency_response(dynamics):
    n, k, refs = P36
    gs = topology.ground(topology.build_platoon(n, k), topology.make_reference_set(n, refs))
    fr = robustness.sweep_hinf(gs, dynamics)
    lams = checks.spectrum(*P36)
    assert checks.check_frequency_response(fr.omegas, fr.gains, lams, dynamics) == []
    bad = fr.gains.copy()
    bad[0] *= 1.001
    assert checks.check_frequency_response(fr.omegas, bad, lams, dynamics) != []
    other = "formation" if dynamics == "velocity" else "velocity"
    assert checks.check_frequency_response(fr.omegas, fr.gains, lams, other) != []


# ---------------------------------------------------------------------------
# desk battery files
# ---------------------------------------------------------------------------

DESK_GRID = [(tau, dyn, tau < {"velocity": 0.1447, "formation": 0.1612}[dyn])
             for tau in (0.0, 0.05, 0.09, 0.1, 0.4) for dyn in ("velocity", "formation")]


def test_delay_grid():
    lams = checks.spectrum(*P36)
    assert checks.check_delay_grid(DESK_GRID, lams) == []
    for i in range(len(DESK_GRID)):
        tau, dyn, stable = DESK_GRID[i]
        flipped = DESK_GRID[:i] + [(tau, dyn, not stable)] + DESK_GRID[i + 1:]
        assert checks.check_delay_grid(flipped, lams) != [], (tau, dyn)
    near = DESK_GRID + [(0.15, "velocity", False), (0.15, "formation", True)]
    assert any("within" in p for p in checks.check_delay_grid(near, lams))
    assert checks.check_delay_grid([r for r in DESK_GRID if r[1] == "velocity"], lams) != []


def _sweep_rows(tmp_path, n, k, mode):
    cfg = experiments.ScenarioConfig(n=n, k=k, experiment="add-remove")
    path = experiments.run_remove_add_sweep(cfg, mode, tmp_path)[0]
    rows = [line.split(",") for line in open(path).read().splitlines()[2:]]
    return [(int(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in rows]


@pytest.mark.parametrize("mode", ["remove", "add"])
def test_sweep(tmp_path, mode):
    n, k = 20, 2
    rows = _sweep_rows(tmp_path, n, k, mode)
    assert checks.check_sweep(rows, mode, n, k) == []
    pos, lam1, hv, hf = rows[1]
    for wrong in ((pos, lam1 + 1e-6, hv, hf), (pos, lam1, hv * 1.001, hf),
                  (pos, lam1, hv, hf * 0.999)):
        assert checks.check_sweep(rows[:1] + [wrong] + rows[2:], mode, n, k) != []
    assert checks.check_sweep(rows[:-1], mode, n, k) != []


def test_md_minimal(tmp_path):
    remove = _sweep_rows(tmp_path, 36, 4, "remove")
    add = _sweep_rows(tmp_path, 36, 4, "add")
    assert checks.check_md_minimal(remove, add) == []
    pos, lam1, _, hf = remove[0]
    assert checks.check_md_minimal([(pos, lam1, 1.0, hf)] + remove[1:], add) != []
    pos, lam1, hv, _ = remove[0]
    assert checks.check_md_minimal([(pos, lam1, hv, 1.1)] + remove[1:], add) != []
    pos, lam1, _, hf = add[0]
    assert checks.check_md_minimal(remove, [(pos, lam1, 1.0, hf)] + add[1:]) != []


def test_scaling(tmp_path):
    ns = (8, 16, 32, 64, 128)
    cfg = experiments.ScenarioConfig(n=8, k=1, experiment="scaling", ns=ns)
    csv_path, json_path = experiments.run_scaling(cfg, tmp_path)
    rows = [r.split(",") for r in open(csv_path).read().splitlines()[2:]]
    rows = [(int(r[0]), r[1], float(r[2]), float(r[3]), float(r[4])) for r in rows]
    summary = json.loads(open(json_path).read())
    assert checks.check_scaling(rows, summary, k=1) == []
    n, arr, lam1, hv, hf = rows[0]
    assert arr == "single"
    wrong = (n, arr, lam1 * 1.001, hv / 1.001, checks.peak(lam1 * 1.001))
    assert checks.check_scaling([wrong] + rows[1:], summary, k=1) != []
    steep = copy.deepcopy(summary)
    steep["single"]["velocity"]["slope"] = 2.4
    assert checks.check_scaling(rows, steep, k=1) != []
    steep = copy.deepcopy(summary)
    steep["single"]["formation"]["slope"] = 2.6
    assert checks.check_scaling(rows, steep, k=1) != []


@pytest.fixture(scope="module")
def trajectory():
    gs = topology.ground(topology.build_platoon(5, 2), topology.make_reference_set(5, [3]))
    x0 = np.random.default_rng(0).uniform(-1.0, 1.0, 4)
    traj = dde_sim.simulate_offdiagonal(dde_sim.velocity_system(gs), 0.5, x0, 20.0, 0.01)
    return np.column_stack([traj.times, traj.norms, traj.states])


def test_trajectory(trajectory):
    assert checks.check_trajectory(trajectory, 20.0, 0.01, True) == []
    assert checks.check_trajectory(trajectory[:-1], 20.0, 0.01, True) != []
    assert checks.check_trajectory(trajectory, 20.0, 0.01, False) != []
    bad = trajectory.copy()
    bad[1234, 1] *= 1.0001
    assert any("norm column" in p for p in checks.check_trajectory(bad, 20.0, 0.01, True))
    bad = trajectory.copy()
    bad[-1, 0] += 0.01
    assert any("time column" in p for p in checks.check_trajectory(bad, 20.0, 0.01, True))
    flat = trajectory.copy()
    flat[:, 2:] = 1.0
    flat[:, 1] = 2.0
    assert any("decay" in p for p in checks.check_trajectory(flat, 20.0, 0.01, True))


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def test_velocity_scan():
    lams = checks.spectrum(12, 3, (2, 7, 11))
    true = checks.velocity_delay_margin(lams)
    assert checks.check_velocity_scan(true * 0.98, lams) == []
    assert checks.check_velocity_scan(true * 1.02, lams) == []
    assert checks.check_velocity_scan(true * 0.96, lams) != []
    assert checks.check_velocity_scan(true * 1.04, lams) != []
    assert checks.check_velocity_scan(math.nan, lams) != []


def test_formation_scan():
    lams = checks.spectrum(12, 3, (2, 7, 11))
    true = checks.formation_delay_margin(lams)
    width = 0.005 * true
    assert checks.check_formation_scan(true * 0.97, lams, width) == []
    assert checks.check_formation_scan(true + 0.9 * width, lams, width) == []
    # above the exact margin by more than the bracket width
    assert checks.check_formation_scan(true + 1.1 * width, lams, width) != []
    # below it by more than the slack
    assert checks.check_formation_scan(true * (1 - checks.FORMATION_SCAN_SLACK) * 0.999,
                                       lams, width) != []
