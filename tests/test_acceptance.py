"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with pytest -s; the test verdict
itself mirrors it).  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from conftest import expm_oracle, formation_modal_delay_margin, random_grounded
from platoonkit import (
    DelaySpec,
    build_formation_matrix,
    build_platoon,
    certify_lambda_max,
    certify_lambda_min,
    classify,
    delay_margin_formation,
    eig_sym,
    formation_modes,
    formation_system,
    ground,
    hinf_formation,
    hinf_velocity,
    make_reference_set,
    md_arrangement,
    simulate,
    simulate_offdiagonal,
    stochasticity_defect,
    sweep_hinf,
    threshold_scan,
    velocity_system,
)
from platoonkit.experiments import fit_loglog
from platoonkit.spectral import spectrum_mismatch

TWO_OVER_SQRT3 = 2.0 / math.sqrt(3.0)


def report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def p36_grounded():
    top = build_platoon(36, 4)
    refset = md_arrangement(36, 4)
    return top, refset, ground(top, refset)


def test_criterion_01_bound_certificates():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(500):
        _, _, gs = random_grounded(rng, n_hi=60, k_hi=6)
        spec = eig_sym(gs.lg)
        lo = certify_lambda_min(gs, spec)
        hi = certify_lambda_max(gs, spec)
        links = [v for _, v in lo.chain]
        chain_ok = all(a <= b + 1e-9 for a, b in zip(links, links[1:]))
        if not (lo.holds and hi.holds and chain_ok):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    assert report(1, "bound certificates on 500 instances", ok,
                  f"violations={violations}, {elapsed:.1f}s")


def test_criterion_02_spectrum_mapping_oracle():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        _, _, gs = random_grounded(rng, n_hi=30, f_max=20)
        mapped = formation_modes(eig_sym(gs.lg).values)
        dense = np.linalg.eigvals(build_formation_matrix(gs))
        worst = max(worst, spectrum_mismatch(mapped, dense))
    ok = worst <= 1e-7
    assert report(2, "formation mapping vs dense eigenvalues (100 instances)", ok,
                  f"worst={worst:.2e}")


def test_criterion_03_hinf_sweep_oracle():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(200):
        _, _, gs = random_grounded(rng, n_hi=40, k_hi=5)
        spec = eig_sym(gs.lg)
        for dyn, analytic in (
            ("velocity", hinf_velocity(spec)),
            ("formation", hinf_formation(spec)),
        ):
            peak = sweep_hinf(gs, dyn, spec=spec).peak_gain
            worst = max(worst, abs(peak - analytic) / analytic)
    ok = worst <= 1e-12
    assert report(3, "swept peaks vs analytic gains (200 instances)", ok,
                  f"worst rel dev={worst:.2e}")


def test_criterion_04_exact_desk_values():
    _, _, gs = p36_grounded()
    spec = eig_sym(gs.lg)
    errs = (
        abs(spec.lambda1 - 1.0),
        abs(hinf_velocity(spec) - 1.0),
        abs(hinf_formation(spec) - TWO_OVER_SQRT3),
    )
    ok = all(e <= 1e-9 for e in errs)
    assert report(4, "P(36,4) MD exact values", ok,
                  f"lambda1 err={errs[0]:.1e}, gains err={errs[1]:.1e}/{errs[2]:.1e}")


def test_criterion_05_remove_add_reference():
    top, refset, _ = p36_grounded()
    base = set(refset.refs)

    def gains(refs):
        spec = eig_sym(ground(top, make_reference_set(36, sorted(refs))).lg)
        return hinf_velocity(spec), hinf_formation(spec)

    remove_ok = True
    for r in base:
        hv, hf = gains(base - {r})
        remove_ok &= hv > 1.0 + 1e-9 and hf > TWO_OVER_SQRT3 + 1e-9
    add_ok = True
    for p in set(range(1, 37)) - base:
        hv, _ = gains(base | {p})
        add_ok &= hv < 1.0 - 1e-9
    ok = remove_ok and add_ok
    assert report(5, "P(36,4) reference removal/addition strictness", ok,
                  f"remove_ok={remove_ok}, add_ok={add_ok}")


def test_criterion_06_delay_grid_p36():
    # each dynamics must classify stable below its exact delay margin and
    # unstable above it: velocity pi/(2 lambda_max) ~= 0.145, formation the
    # modal margin ~= 0.161 computed here from the spectrum
    _, _, gs = p36_grounded()
    spec = eig_sym(gs.lg)
    margin_f = formation_modal_delay_margin(spec.values)
    fdm = delay_margin_formation(spec, 4)
    closed_form = math.pi / 2.0 * fdm.rho_bound
    tau_f_unstable = 0.20
    problems = []
    if not (abs(margin_f - fdm.exact) <= 1e-12 * margin_f
            and abs(margin_f - closed_form) <= 1e-9 * margin_f
            and 0.10 < margin_f < tau_f_unstable):
        problems.append(
            f"formation modal margin {margin_f:.6g} should equal the exact margin "
            f"{fdm.exact:.6g} and pi/(2 rho(B)) = {closed_form:.6g}, and lie in "
            f"(0.10, {tau_f_unstable})"
        )
    rng = np.random.default_rng(1006)
    sys_v = velocity_system(gs)
    sys_f = formation_system(gs)
    x0_v = rng.uniform(-1.0, 1.0, sys_v.dim)
    x0_f = rng.uniform(-1.0, 1.0, sys_f.dim)
    t0 = time.perf_counter()
    runs = {
        ("velocity", 0.09, True): (sys_v, x0_v),
        ("velocity", 0.40, False): (sys_v, x0_v),
        ("formation", 0.05, True): (sys_f, x0_f),
        ("formation", 0.10, True): (sys_f, x0_f),
        ("formation", tau_f_unstable, False): (sys_f, x0_f),
    }
    for (kind, tau, want_stable), (sysm, x0) in runs.items():
        verdict = classify(
            simulate(sysm, DelaySpec(tau, "full"), x0, horizon=100.0, step=1e-3)
        )
        leg_ok = verdict.stable == want_stable
        leg = (
            f"{kind} tau={tau}: expected {'stable' if want_stable else 'unstable'}, "
            f"observed {'stable' if verdict.stable else 'unstable'} "
            f"(decay_ratio={verdict.decay_ratio:.3g})"
        )
        print(f"  criterion 06 leg {leg} -> {'ok' if leg_ok else 'MISMATCH'}")
        if not leg_ok:
            problems.append(leg)
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        problems.append(f"grid took {elapsed:.0f}s, budget 120s")
    ok = not problems
    report(6, "P(36,4) delay-grid verdicts", ok,
           f"formation margin={margin_f:.4f}, {elapsed:.0f}s")
    assert ok, "criterion 06 failed: " + "; ".join(problems)


def test_criterion_07_velocity_delay_threshold_sharpness():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(20):
        _, _, gs = random_grounded(rng, n_lo=4, n_hi=14, k_hi=3, f_min=2, f_max=10)
        spec = eig_sym(gs.lg)
        true = math.pi / (2.0 * spec.lambda_max)
        est = threshold_scan(
            velocity_system(gs), 0.6 * true, 1.4 * true, tolerance=0.005 * true,
            x0=rng.uniform(-1.0, 1.0, gs.n_followers),
            horizon=max(80.0, 1000.0 / spec.lambda_max),
        )
        worst = max(worst, abs(est - true) / true)
    ok = worst <= 0.03
    assert report(7, "empirical critical delay vs pi/(2 lambda_max) (20 instances)",
                  ok, f"worst rel err={worst:.3f}")


def test_criterion_08_scaling_slopes():
    ns = (8, 16, 32, 64, 128)
    single_v, single_f = [], []
    md_v, md_f = [], []
    for n in ns:
        top = build_platoon(n, 1)
        spec = eig_sym(ground(top, make_reference_set(n, [1])).lg)
        single_v.append(hinf_velocity(spec))
        single_f.append(hinf_formation(spec))
        spec = eig_sym(ground(top, md_arrangement(n, 1)).lg)
        md_v.append(hinf_velocity(spec))
        md_f.append(hinf_formation(spec))
    slope_v = fit_loglog(ns, single_v)["slope"]
    slope_f = fit_loglog(ns, single_f)["slope"]
    md_ok = max(md_v) <= 1.0 + 1e-12 and max(md_f) <= TWO_OVER_SQRT3 + 1e-12
    ok = abs(slope_v - 2.0) <= 0.3 and abs(slope_f - 3.0) <= 0.3 and md_ok
    assert report(8, "single-reference scaling slopes and MD bounds", ok,
                  f"slopes velocity={slope_v:.3f}, formation={slope_f:.3f}, md_ok={md_ok}")


def test_criterion_09_row_stochasticity():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(200):
        _, _, gs = random_grounded(rng, n_hi=50)
        worst = max(worst, stochasticity_defect(gs))
    ok = worst <= 1e-9
    assert report(9, "steady-state row stochasticity (200 instances)", ok,
                  f"worst defect={worst:.2e}")


def test_criterion_10_offdiagonal_delay_large_tau():
    _, _, gs = p36_grounded()
    x0 = np.random.default_rng(1010).uniform(-1.0, 1.0, 32)
    # tau = 5 decays slowly (rate ~ 1/tau); the 500-unit default horizon cap
    # gives the trailing window enough time to show it
    traj = simulate_offdiagonal(velocity_system(gs), 5.0, x0, horizon=500.0, step=5e-3)
    verdict = classify(traj)
    ok = verdict.stable
    assert report(10, "P(36,4) off-diagonal delay tau=5 stable", ok,
                  f"decay_ratio={verdict.decay_ratio:.3g}")


def test_criterion_11_integrator_validity():
    rng = np.random.default_rng(1011)
    worst = 0.0
    for _ in range(10):
        _, _, gs = random_grounded(rng, n_hi=12, f_max=8)
        for make, a in (
            (velocity_system, -np.asarray(gs.lg, dtype=float)),
            (formation_system, build_formation_matrix(gs)),
        ):
            sysm = make(gs)
            x0 = rng.uniform(-1.0, 1.0, sysm.dim)
            final = simulate(sysm, DelaySpec(0.0), x0, 1.0, 1e-2).states[-1]
            exact = expm_oracle(a) @ x0
            worst = max(worst, float(np.linalg.norm(final - exact) / np.linalg.norm(exact)))
    # observed convergence order on a fresh instance
    _, _, gs = random_grounded(rng, n_hi=10, f_max=6)
    sysm = velocity_system(gs)
    x0 = rng.uniform(-1.0, 1.0, sysm.dim)
    exact = expm_oracle(-np.asarray(gs.lg, dtype=float)) @ x0
    errs = [
        float(np.linalg.norm(simulate(sysm, DelaySpec(0.0), x0, 1.0, h).states[-1] - exact))
        for h in (2e-2, 1e-2)
    ]
    order = math.log2(errs[0] / errs[1])
    ok = worst <= 1e-6 and order >= 3.5
    assert report(11, "zero-delay integrator vs matrix exponential", ok,
                  f"worst rel err={worst:.2e}, observed order={order:.2f}")
