import io
import math
import os
import re
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    expm_oracle,
    random_grounded,
    reference_verdict,
    trajectory_csv,
    whole_run_samples,
)
from platoonkit import (
    DelaySpec,
    NoiseDisturbance,
    ParameterError,
    SinusoidDisturbance,
    build_formation_matrix,
    build_platoon,
    delay_margin_formation,
    delay_margin_velocity,
    eig_sym,
    formation_system,
    ground,
    make_reference_set,
    md_arrangement,
    simulate,
    simulate_offdiagonal,
    threshold_scan,
    velocity_system,
    verdict,
)
from platoonkit import dde_sim
from platoonkit.dde_sim import (
    SimSystem,
    StabilityVerdict,
    Trajectory,
    default_horizon,
    default_step,
)

UNDELAYED = DelaySpec(0.0)  # tau = 0 runs undelayed in any mode


def grounded(n, k, refs):
    return ground(build_platoon(n, k), make_reference_set(n, refs))


def scalar_system():
    return velocity_system(grounded(2, 1, [1]))  # lg = [1]


class TestSimulateBasics:
    def test_p36_zero_delay_decays_monotonically(self):
        gs = ground(build_platoon(36, 4), md_arrangement(36, 4))
        sysm = velocity_system(gs)
        x0 = np.random.default_rng(0).uniform(-1.0, 1.0, 32)
        traj = simulate(sysm, UNDELAYED, x0, 30.0, 1e-3)
        assert np.all(np.diff(traj.norms) < 0.0)
        assert traj.norms[-1] < 1e-6 * traj.norms[0]

    def test_equilibrium_stays_zero(self):
        sysm = velocity_system(grounded(5, 2, [3]))
        traj = simulate(sysm, UNDELAYED, np.zeros(4), 5.0, 1e-2)
        assert np.all(traj.states == 0.0)
        assert np.all(traj.norms == 0.0)

    def test_scalar_delay_beyond_pi_half_grows(self):
        traj = simulate(scalar_system(), DelaySpec(2.0, "full"), np.ones(1), 60.0, 0.01)
        assert not traj.verdict.stable
        # oscillatory growth: sign changes and increasing envelope
        x = traj.states[:, 0]
        assert np.any(x < 0) and np.any(x > 0)
        assert traj.norms[-1] > traj.norms[0]

    def test_delay_rounding_is_reported(self):
        sysm = velocity_system(grounded(5, 2, [3]))
        traj = simulate(sysm, DelaySpec(0.0503, "full"), np.ones(4), 2.0, 0.002)
        assert traj.meta["tau"] == 0.0503
        assert traj.meta["tau_effective"] == pytest.approx(0.050, abs=1e-12)

    def test_preconditions(self):
        sysm = velocity_system(grounded(5, 2, [3]))
        with pytest.raises(ParameterError):
            simulate(sysm, UNDELAYED, np.ones(4), 1.0, 0.0)
        with pytest.raises(ParameterError):
            simulate(sysm, UNDELAYED, np.ones(4), 0.05, 0.01)  # horizon < 10 steps
        with pytest.raises(ParameterError):
            simulate(sysm, UNDELAYED, np.ones(3), 1.0, 0.01)  # wrong dimension
        with pytest.raises(ParameterError):
            simulate(formation_system(grounded(5, 2, [3])),
                     DelaySpec(0.1, "self-undelayed"), np.ones(8), 1.0, 0.01)
        # an undelayed run is tau = 0, in either mode; there is no mode "none"
        with pytest.raises(ParameterError, match="delay mode must be one of"):
            DelaySpec(0.0, "none")
        formation = formation_system(grounded(5, 2, [3]))
        assert np.array_equal(
            simulate(formation, DelaySpec(0.0, "self-undelayed"), np.ones(8), 1.0, 0.01).states,
            simulate(formation, UNDELAYED, np.ones(8), 1.0, 0.01).states)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError):
                DelaySpec(bad, "full")
            with pytest.raises(ParameterError):
                simulate(sysm, DelaySpec(0.1, "full"), np.ones(4), 1.0, bad)  # step
            with pytest.raises(ParameterError):
                simulate(sysm, DelaySpec(0.1, "full"), np.ones(4), bad, 0.01)  # horizon

    @pytest.mark.parametrize("run, limit", [
        (simulate, 20_001),  # the whole run's states; the sliding buffer fits
        (simulate, dde_sim._CHUNK_ROWS),  # the sliding buffer
        (verdict, dde_sim._CHUNK_ROWS),
    ])
    def test_failed_allocation_is_a_parameter_error(self, monkeypatch, run, limit):
        # buffers that fit physical memory but not the process's limits
        real_empty = np.empty

        def refuse(shape, *args, **kwargs):
            if np.atleast_1d(shape)[0] >= limit:
                raise MemoryError
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr("platoonkit.dde_sim.np.empty", refuse)
        with pytest.raises(ParameterError, match="cannot allocate"):
            run(scalar_system(), DelaySpec(0.1, "full"), np.ones(1), 20.0, 1e-3)

    def test_only_simulate_is_charged_for_the_whole_run(self, monkeypatch, tmp_path):
        # 100,000 steps of 4 states: 3.2 MB of states, and a buffer of
        # m + 5 + _CHUNK_ROWS rows (0.13 MB)
        sysm = velocity_system(grounded(5, 2, [3]))
        delay, x0, horizon, h = DelaySpec(0.05, "full"), np.ones(4), 100.0, 1e-3
        want = simulate(sysm, delay, x0, horizon, h).verdict
        monkeypatch.setattr("platoonkit.errors._physical_memory", lambda: 2.0**20)
        with pytest.raises(ParameterError, match="a run of 100000 steps held whole needs"):
            simulate(sysm, delay, x0, horizon, h)
        assert verdict(sysm, delay, x0, horizon, h) == want
        got, _ = dde_sim.simulate_to_csv(tmp_path / "t.csv", sysm, delay, x0, horizon, h)
        assert got == want

    @pytest.mark.parametrize("kind, delay, refused", [
        # undelayed formation, dim 342: 11.2 MB of buffer and 59 MB of
        # stacked powers of P besides
        ("formation", UNDELAYED, True),
        # own state undelayed, dim 171: batches of 99 steps take no powers,
        # but the 16 dim x dim operators are 3.7 MB beside 5.8 MB of buffer
        ("velocity", DelaySpec(0.1, "self-undelayed"), True),
        # every term delayed: beside the buffer, two batches' products and
        # two dim x dim operators, 14.2 MB of the 17.2 MB allowed
        ("formation", DelaySpec(0.1, "full"), False),
    ], ids=["undelayed-formation", "self-undelayed-velocity", "full-formation"])
    def test_operators_and_powers_are_charged(self, monkeypatch, kind, delay, refused):
        gs = ground(build_platoon(200, 3), md_arrangement(200, 3))
        sysm = velocity_system(gs) if kind == "velocity" else formation_system(gs)
        m = round(delay.tau / 1e-3)
        buffer = 8.0 * dde_sim._window_rows(m, 5000) * sysm.dim
        monkeypatch.setattr("platoonkit.errors._physical_memory", lambda: 1.5 * buffer)
        if not refused:
            assert verdict(sysm, delay, np.ones(sysm.dim), 5.0, 1e-3).diverged is False
            return

        def no_buffer(*args):
            raise AssertionError("a buffer was allocated before the run was refused")

        monkeypatch.setattr(dde_sim, "_allocate", no_buffer)
        with pytest.raises(ParameterError, match="a run of 5000 steps needs"):
            verdict(sysm, delay, np.ones(sysm.dim), 5.0, 1e-3)

    def test_steps_and_delay_window_bounded_together(self):
        sysm = scalar_system()
        h = 0.5  # exact in binary, as is MAX_STEPS * h
        horizon = dde_sim.MAX_STEPS * h
        assert dde_sim.check_run(sysm, UNDELAYED, horizon, h) == (h, dde_sim.MAX_STEPS, 0)
        for delay, horizon, step, steps in [
            (DelaySpec(h, "full"), horizon, h, "1e+07 steps, with 1 more"),
            (UNDELAYED, 1e300, 1e-10, "inf steps, with 0 more"),  # beyond a float
        ]:
            with pytest.raises(ParameterError, match=re.escape(f"a run of {steps} for its delay")):
                simulate(sysm, delay, np.ones(1), horizon, step)

    def test_divergence_truncates_with_marker(self):
        traj = simulate(scalar_system(), DelaySpec(3.0, "full"), np.ones(1), 400.0, 0.02)
        assert traj.verdict.diverged
        assert traj.times[-1] < 400.0
        assert np.all(np.isfinite(traj.norms))
        assert not traj.verdict.stable

    def test_formation_dimension_and_decay(self):
        gs = grounded(5, 2, [3])
        sysm = formation_system(gs)
        x0 = np.random.default_rng(1).uniform(-1, 1, 8)
        traj = simulate(sysm, UNDELAYED, x0, 40.0, 1e-2)
        assert traj.states.shape[1] == 8
        assert traj.verdict.stable

    def test_norms_match_states(self, tmp_path):
        # the norms are computed on read, in chunks of 4096 rows; each must
        # equal the norm of its row, bit for bit, and so must the two rows
        # the verdict compares and the streamed CSV's norm column
        gs = grounded(5, 2, [3])
        velocity, formation = velocity_system(gs), formation_system(gs)
        rng = np.random.default_rng(6)
        cases = [
            (velocity, DelaySpec(0.05, "full"), 5.0, 1e-2, False),
            (formation, DelaySpec(0.3, "full"), 50.0, 2e-3, False),  # 25,000 steps
            (velocity, UNDELAYED, 45.0, 5e-3, False),  # 9000 = 2 * 4096 + 808 steps
            (velocity, DelaySpec(2.0, "self-undelayed"), 60.0, 1e-2, False),
            (scalar_system(), DelaySpec(3.0, "full"), 400.0, 0.02, True),
            (velocity, UNDELAYED, 200.0, 1.0, True),  # far beyond RK4's step bound
        ]
        for sysm, delay, horizon, step, diverged in cases:
            x0 = rng.uniform(-1, 1, sysm.dim)
            traj = simulate(sysm, delay, x0, horizon, step)
            assert traj.verdict.diverged == diverged
            norms = traj.norms
            assert np.array_equal(norms, np.linalg.norm(traj.states, axis=1))
            assert np.allclose(np.diff(traj.times), step)
            if not diverged:
                w0 = round(0.75 * (len(norms) - 1))
                assert traj.verdict.decay_ratio == norms[-1] / norms[w0]
            # the rows follow the two header lines; a diverged run's marker
            # follows them
            path = tmp_path / "trajectory.csv"
            got, meta = dde_sim.simulate_to_csv(path, sysm, delay, x0, horizon, step)
            assert got == traj.verdict == verdict(sysm, delay, x0, horizon, step)
            assert got == reference_verdict(traj) and meta == traj.meta
            text = path.read_text()
            assert text == trajectory_csv(traj)
            rows = text.splitlines()[2 : 2 + len(norms)]
            assert [row.split(",")[1] for row in rows] == [f"{v:.12g}" for v in norms]
            assert text.endswith("(run truncated at state norm > 1e12)\n") == diverged


class TestZeroDelayOracle:
    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            _, _, gs = random_grounded(rng, n_hi=12, f_max=8)
            for make, mat in (
                (velocity_system, -np.asarray(gs.lg, float)),
                (formation_system, None),
            ):
                sysm = make(gs)
                a = mat if mat is not None else build_formation_matrix(gs)
                x0 = rng.uniform(-1, 1, sysm.dim)
                traj = simulate(sysm, UNDELAYED, x0, 1.0, 1e-2)
                exact = expm_oracle(a) @ x0
                err = np.linalg.norm(traj.states[-1] - exact) / np.linalg.norm(exact)
                assert err <= 1e-6

    def test_convergence_order_p52(self):
        gs = grounded(5, 2, [3])
        sysm = velocity_system(gs)
        x0 = np.random.default_rng(3).uniform(-1, 1, 4)
        finals = {}
        for h in (1e-2, 5e-3, 2.5e-3):
            finals[h] = simulate(sysm, UNDELAYED, x0, 2.0, h).states[-1]
        d1 = np.linalg.norm(finals[1e-2] - finals[5e-3])
        d2 = np.linalg.norm(finals[5e-3] - finals[2.5e-3])
        assert 12.0 <= d1 / d2 <= 20.0

    def test_observed_order_at_least_3_5(self):
        gs = grounded(5, 2, [3])
        sysm = velocity_system(gs)
        x0 = np.random.default_rng(4).uniform(-1, 1, 4)
        exact = expm_oracle(-np.asarray(gs.lg, float) * 1.0) @ x0
        errs = []
        for h in (2e-2, 1e-2):
            final = simulate(sysm, UNDELAYED, x0, 1.0, h).states[-1]
            errs.append(np.linalg.norm(final - exact))
        order = math.log2(errs[0] / errs[1])
        assert order >= 3.5

    def test_linearity(self):
        gs = grounded(5, 2, [3])
        sysm = velocity_system(gs)
        rng = np.random.default_rng(5)
        a, b = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        for delay in (UNDELAYED, DelaySpec(0.1, "full")):
            ta = simulate(sysm, delay, a, 5.0, 1e-2).states
            tb = simulate(sysm, delay, b, 5.0, 1e-2).states
            tab = simulate(sysm, delay, a + b, 5.0, 1e-2).states
            assert np.max(np.abs(tab - (ta + tb))) <= 1e-9


def _cubic_midpoint_weights(nodes):
    # Lagrange basis on four consecutive integer nodes, evaluated at 1/2
    return [math.prod((0.5 - o) / (p - o) for o in nodes if o != p) for p in nodes]


def reference_rk4(a0, atau, jmat, x0, m, h, nsteps, disturbance=None):
    """Plain per-step RK4 for xdot = a0 x(t) + atau x(t - m h) + jmat w(t),
    with x(t) = x0 for t <= 0; a0 or atau may be None (term absent).  The
    half-step stage interpolates the history with the cubic through the
    samples j-1 .. j+2 (j = i - m), or j-2 .. j+1 when m = 1, since sample
    j+2 is then not yet computed.  Written apart from simulate on purpose:
    it is the oracle for the batched propagator.

    Returns (states, norms, diverged), stopping at the first state whose norm
    is non-finite or above 1e12.
    """
    dim = len(x0)
    if disturbance is None:
        w_grid, w_mid = np.zeros((nsteps + 1, dim)), np.zeros((nsteps, dim))
    else:
        grid, mid = whole_run_samples(disturbance, jmat.shape[1], h, nsteps)
        w_grid, w_mid = grid @ jmat.T, mid @ jmat.T
    first = -2 if m == 1 else -1
    weights = _cubic_midpoint_weights(range(first, first + 4))
    xs = [np.asarray(x0, dtype=float)]
    norms = [float(np.linalg.norm(xs[0]))]

    def past(j):
        return xs[max(j, 0)]

    def rate(x, delayed, w):
        out = w.copy()
        if a0 is not None:
            out += a0 @ x
        if atau is not None:
            out += atau @ delayed
        return out

    for i in range(nsteps):
        j = i - m
        if atau is None:
            d0 = mid = d1 = None
        else:
            d0, d1 = past(j), past(j + 1)
            mid = sum(w * past(j + first + q) for q, w in enumerate(weights))
        x = xs[-1]
        k1 = rate(x, d0, w_grid[i])
        k2 = rate(x + 0.5 * h * k1, mid, w_mid[i])
        k3 = rate(x + 0.5 * h * k2, mid, w_mid[i])
        k4 = rate(x + h * k3, d1, w_grid[i + 1])
        xs.append(x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        norms.append(float(np.linalg.norm(xs[-1])))
        if not norms[-1] <= 1e12:
            return np.array(xs), np.array(norms), True
    return np.array(xs), np.array(norms), False


def dense_system(gs, kind):
    """(the SimSystem of kind, its matrix A, its input matrix J), with A and
    J built here, apart from the package's formation builder."""
    lg = np.asarray(gs.lg, float)
    f = len(lg)
    if kind == "velocity":
        return velocity_system(gs), -lg, np.eye(f)
    a = np.block([[np.zeros((f, f)), np.eye(f)], [-lg, -lg]])
    jmat = np.vstack([np.zeros((f, f)), np.eye(f)])
    return formation_system(gs), a, jmat


DISTURBANCES = {
    None: lambda rng: None,
    "sin": lambda rng: SinusoidDisturbance(amplitude=0.3, omega=1.7),
    "noise": lambda rng: NoiseDisturbance(amplitude=0.2, seed=int(rng.integers(1000))),
}


class TestFullDelayMatchesPerStepReference:
    """simulate against reference_rk4 in every delay mode: the fully delayed
    path, the undelayed run (one batch) and the self-undelayed run (own state
    instantaneous, neighbor states delayed)."""

    def _instance(self, seed, kind):
        rng = np.random.default_rng(seed)
        _, _, gs = random_grounded(rng, n_lo=4, n_hi=12, k_hi=3, f_min=2, f_max=10)
        return rng, gs, *dense_system(gs, kind)

    def _check(self, sysm, mode, a0, atau, jmat, tau, h, m, nsteps, x0, dist):
        traj = simulate(sysm, DelaySpec(tau, mode), x0, (nsteps + 0.3) * h, h,
                        disturbance=dist)
        states, norms, diverged = reference_rk4(a0, atau, jmat, x0, m, h, nsteps, dist)
        assert len(traj.times) == len(states)
        assert traj.meta == {
            "n": sysm.n, "k": sysm.k, "kind": sysm.kind, "mode": mode, "tau": tau,
            "tau_effective": m * h, "step": h, "seed": getattr(dist, "seed", None),
        }
        # relative to the trajectory's maximum: near-zero norms of a growing
        # run carry the absolute rounding of its largest states
        assert np.max(np.abs(traj.states - states)) <= 1e-12 * np.max(np.abs(states))
        assert np.max(np.abs(traj.norms - norms)) <= 1e-12 * np.max(norms)
        assert traj.verdict == reference_verdict(traj)
        assert traj.verdict.diverged == diverged
        ref = SimpleNamespace(times=traj.times, norms=np.asarray(norms))
        assert traj.verdict.stable == reference_verdict(ref).stable
        return traj

    @pytest.mark.parametrize("kind", ["velocity", "formation"])
    @pytest.mark.parametrize("m, nsteps, dist", [
        (2, 700, None),  # batches of one step: each reads the state it updates
        (3, 1001, "sin"),
        (4, 1202, "noise"),
        (150, 2000, "sin"),  # 2000 = 13 * 149 + 63: the last batch is partial
        (150, 1700, "noise"),
        (1, 600, "sin"),  # the backward stencil reads the current state
    ])
    def test_random_instances(self, kind, m, nsteps, dist):
        rng, gs, sysm, a, jmat = self._instance([m, nsteps, kind == "formation"], kind)
        dist = DISTURBANCES[dist](rng)
        tau = float(rng.uniform(0.05, 0.5))
        self._check(sysm, "full", None, a, jmat, tau, tau / m, m, nsteps,
                    rng.uniform(-1, 1, sysm.dim), dist)

    @pytest.mark.parametrize("kind", ["velocity", "formation"])
    @pytest.mark.parametrize("m", [3, 150])
    def test_diverging_run_truncates_at_the_same_step(self, kind, m):
        rng, gs, sysm, a, jmat = self._instance([m, 99, kind == "formation"], kind)
        # three times the velocity margin pi / (2 lambda_max); on these
        # seeded instances both dynamics diverge within 200 delays
        tau = 3.0 * math.pi / (2.0 * eig_sym(gs.lg).lambda_max)
        traj = self._check(sysm, "full", None, a, jmat, tau, tau / m, m, 200 * m,
                           rng.uniform(-1, 1, sysm.dim), None)
        cut = len(traj.times) - 1
        assert traj.verdict.diverged and cut < 200 * m
        # batches of m - 1 = 149 steps: the cut falls inside a batch
        assert m != 150 or cut % (m - 1) != 0

    @pytest.mark.parametrize("mode, m", [
        ("full", 150),
        pytest.param("full", 0, id="none-0"),  # tau = 0: undelayed
        ("self-undelayed", 150),
    ])
    def test_screen_false_alarm_does_not_truncate(self, mode, m):
        # one entry above (cutoff / 2) / sqrt(dim) fails every batch's cheap
        # screen, but the state's norm stays below the cutoff: the per-row
        # test must keep every step
        gs = grounded(5, 2, [3])
        sysm, a, jmat = dense_system(gs, "velocity")
        x0 = np.array([9e11, 0.0, 0.0, 0.0])
        assert x0[0] > 0.5 * dde_sim.DIVERGENCE_CUTOFF / math.sqrt(len(x0))
        h, nsteps = 2e-3, 1000
        if m == 0:
            a0, atau = a, None
        elif mode == "full":
            a0, atau = None, a
        else:
            lg = np.asarray(gs.lg, float)
            dg = np.diag(np.diag(lg))
            a0, atau = -dg, dg - lg
        traj = self._check(sysm, mode, a0, atau, jmat, m * h, h, m, nsteps, x0, None)
        assert not traj.verdict.diverged and len(traj.times) == nsteps + 1

    def test_filter_taps_fold_the_stencils(self):
        # x_d0 + 4 x_dh + x_d1 on the window of four delayed samples, times 4:
        # the taps are derived from the weights, so pin both to their values
        assert np.array_equal(16.0 * dde_sim._W_CENTERED, [-1, 9, 9, -1])
        assert np.array_equal(16.0 * dde_sim._W_BACKWARD, [1, -5, 15, 5])
        assert np.array_equal(dde_sim._TAPS_CENTERED, [-1, 13, 13, -1])
        assert np.array_equal(dde_sim._TAPS_BACKWARD, [1, -5, 19, 9])

    @pytest.mark.parametrize("kind", ["velocity", "formation"])
    @pytest.mark.parametrize("dist", [None, "sin", "noise"])
    def test_undelayed(self, kind, dist):
        seed = [7, kind == "formation", list(DISTURBANCES).index(dist)]
        rng, gs, sysm, a, jmat = self._instance(seed, kind)
        h = float(rng.uniform(0.002, 0.005))
        # 9000 = 2 * 4096 + 808 steps: undelayed batches hold 4096 steps
        self._check(sysm, "full", a, None, jmat, 0.0, h, 0, 9000,
                    rng.uniform(-1, 1, sysm.dim), DISTURBANCES[dist](rng))

    @pytest.mark.parametrize("kind", ["velocity", "formation"])
    def test_undelayed_diverging_run_truncates_at_the_same_step(self, kind):
        rng, gs, sysm, a, jmat = self._instance([8, kind == "formation"], kind)
        # |h mu| = 4 for the largest eigenvalue mu of a: beyond the RK4
        # stability region, which reaches 2.79 on the negative real axis
        h = 4.0 / float(np.max(np.abs(np.linalg.eigvals(a))))
        traj = self._check(sysm, "full", a, None, jmat, 0.0, h, 0, 2000,
                           rng.uniform(-1, 1, sysm.dim), None)
        assert traj.verdict.diverged and len(traj.times) < 2001

    @pytest.mark.parametrize("kind", ["velocity", "formation"])
    def test_undelayed_divergence_inside_a_chunk(self, kind):
        rng, gs, sysm, a, jmat = self._instance([9, kind == "formation"], kind)
        # |h mu| = 2.85, just beyond RK4's bound of 2.79: the norm grows
        # slowly enough to pass the cutoff after several 64-step chunks
        h = 2.85 / float(np.max(np.abs(np.linalg.eigvals(a))))
        traj = self._check(sysm, "full", a, None, jmat, 0.0, h, 0, 2000,
                           rng.uniform(-1, 1, sysm.dim), None)
        cut = len(traj.times) - 1
        # steps 283 (velocity) and 295 (formation): neither a chunk start
        assert traj.verdict.diverged and cut > 2 * 64 and cut % 64 != 0

    @pytest.mark.parametrize("kind", ["velocity", "formation"])
    def test_undelayed_zero_state_with_overflowing_step_powers(self, kind):
        rng, gs, sysm, a, jmat = self._instance([10, kind == "formation"], kind)
        # |h mu| = 50: P^64 overflows, but the zero state stays zero and the
        # run does not diverge
        h = 50.0 / float(np.max(np.abs(np.linalg.eigvals(a))))
        traj = self._check(sysm, "full", a, None, jmat, 0.0, h, 0, 300,
                           np.zeros(sysm.dim), None)
        assert not traj.verdict.diverged and not traj.states.any()

    @pytest.mark.parametrize("m, nsteps, dist", [
        (1, 600, None),
        (2, 701, "noise"),
        (3, 1001, "sin"),
        (150, 2000, None),  # the last batch is partial
        (150, 1700, "noise"),
        # batches of 999 = 15 * 64 + 39 steps, then 502 = 7 * 64 + 54
        (1000, 2500, "sin"),
        (100, 1000, None),  # batches of 99 steps: a single 64-step chunk
    ])
    def test_self_undelayed(self, m, nsteps, dist):
        rng, gs, sysm, _, jmat = self._instance([m, nsteps, 5], "velocity")
        lg = np.asarray(gs.lg, float)
        dg = np.diag(np.diag(lg))
        tau = float(rng.uniform(0.05, 0.5))
        self._check(sysm, "self-undelayed", -dg, dg - lg, jmat,
                    tau, tau / m, m, nsteps, rng.uniform(-1, 1, sysm.dim),
                    DISTURBANCES[dist](rng))

    def test_self_undelayed_diverging_run_truncates_at_the_same_step(self):
        rng, gs, sysm, _, jmat = self._instance([300, 11], "velocity")
        lg = np.asarray(gs.lg, float)
        dg = np.diag(np.diag(lg))
        # own-state step h max diag(lg) = 3, beyond RK4's bound of 2.79;
        # batches of 299 = 4 * 64 + 43 steps
        h = 3.0 / float(np.max(np.diag(lg)))
        traj = self._check(sysm, "self-undelayed", -dg, dg - lg, jmat, 300 * h, h, 300, 1500,
                           rng.uniform(-1, 1, sysm.dim), None)
        cut = len(traj.times) - 1
        assert traj.verdict.diverged and 64 < cut < 4 * 64 and cut % 64 != 0


class TestVerdicts:
    def test_zero_trajectory_is_stable(self):
        sysm = velocity_system(grounded(5, 2, [3]))
        got = simulate(sysm, UNDELAYED, np.zeros(4), 2.0, 1e-2).verdict
        assert got.stable and got.decay_ratio == 0.0
        assert verdict(sysm, UNDELAYED, np.zeros(4), 2.0, 1e-2) == got

    def test_p36_velocity_grid_verdicts(self):
        gs = ground(build_platoon(36, 4), md_arrangement(36, 4))
        sysm = velocity_system(gs)
        x0 = np.random.default_rng(0).uniform(-1.0, 1.0, 32)
        stable = simulate(sysm, DelaySpec(0.09, "full"), x0, 100.0, 1e-3).verdict
        unstable = simulate(sysm, DelaySpec(0.4, "full"), x0, 100.0, 1e-3).verdict
        assert stable.stable
        assert not unstable.stable


class TestVerdictMatchesReference:
    """verdict, simulate's verdict and simulate_to_csv's against
    reference_verdict on simulate's norms: the rows that the run's verdict
    compares are captured as the buffer slides, and the sliding buffer fills
    every row as the whole-run buffer does, so every field agrees and the
    decay ratio is bit-equal.  A run's buffer holds the delay window and
    max(batch, _CHUNK_ROWS) steps, so a run longer than that slides."""

    GS = grounded(5, 2, [3])

    def _system(self, kind):
        if kind == "velocity":
            return velocity_system(self.GS), delay_margin_velocity(eig_sym(self.GS.lg))
        return formation_system(self.GS), delay_margin_formation(eig_sym(self.GS.lg), 2).exact

    def _check(self, sysm, delay, h, nsteps, x0):
        horizon = (nsteps + 0.3) * h
        traj = simulate(sysm, delay, x0, horizon, h)
        want = reference_verdict(traj)
        for got in (verdict(sysm, delay, x0, horizon, h), traj.verdict,
                    dde_sim.simulate_to_csv(os.devnull, sysm, delay, x0, horizon, h)[0]):
            assert got == want
            assert np.float64(got.decay_ratio).tobytes() == np.float64(want.decay_ratio).tobytes()
        return got

    @pytest.mark.parametrize("mode, kind, m, nsteps", [
        # tau = 0, undelayed; shorter than the window
        pytest.param("full", "velocity", 0, 3000, id="none-velocity-0-3000"),
        # three batches of 4096; the start row 8192 = round(0.75 * 10923)
        # ends the second, on a batch boundary
        pytest.param("full", "formation", 0, 10923, id="none-formation-0-10923"),
        ("full", "velocity", 1, 9000),
        ("full", "formation", 2, 9000),
        ("full", "velocity", 3, 41000),  # slides ten times
        ("full", "formation", 150, 2384),  # start row 1788 = 12 * 149, no slide
        ("full", "velocity", 150, 11920),  # start row 8940 = 60 * 149, two slides
        ("full", "velocity", 5000, 30000),  # batches of 4999 > _CHUNK_ROWS
        ("self-undelayed", "velocity", 1, 600),
        ("self-undelayed", "velocity", 2, 5000),
        ("self-undelayed", "velocity", 3, 9000),
        ("self-undelayed", "velocity", 150, 11920),
        ("self-undelayed", "velocity", 5000, 23000),
    ])
    def test_every_mode_and_window(self, mode, kind, m, nsteps):
        sysm, margin = self._system(kind)
        # a horizon of 40, or a quarter of the margin in the fully delayed
        # runs: the runs decay without reaching zero, and do not diverge
        h = 40.0 / nsteps if m == 0 else min(40.0 / nsteps, 0.25 * margin / m)
        x0 = np.random.default_rng(m).uniform(-1.0, 1.0, sysm.dim)
        got = self._check(sysm, DelaySpec(m * h, mode), h, nsteps, x0)
        assert not got.diverged and 0.0 < got.decay_ratio < math.inf

    @pytest.mark.parametrize("m, nsteps", [(0, 10923), (150, 2384), (150, 11920)])
    def test_start_row_on_a_batch_boundary(self, m, nsteps):
        # the cases above whose start row ends a batch
        assert dde_sim._window_start(nsteps) % dde_sim._batch_steps(m) == 0

    @pytest.mark.parametrize("kind", ["velocity", "formation"])
    def test_diverged_run_cut_after_a_slide(self, kind):
        sysm, margin = self._system(kind)
        m = 150
        tau = 3.0 * margin
        h = tau / m
        got = self._check(sysm, DelaySpec(tau, "full"), h, 200 * m,
                          np.random.default_rng(1).uniform(-1.0, 1.0, sysm.dim))
        cut = round(got.horizon / h)
        assert got.diverged and not got.stable and got.decay_ratio == math.inf
        # the window holds m + 5 + _CHUNK_ROWS rows: the cut is past a slide
        assert dde_sim._CHUNK_ROWS < cut < 200 * m

    @pytest.mark.parametrize("kind", ["velocity", "formation"])
    def test_diverged_before_the_window_start(self, tmp_path, kind):
        # cut near step 3,000 of 6,000, before the first slide (at step
        # 4,023) and the window start (4,500): the verdict is the marker's,
        # through verdict and through the streamed CSV
        sysm, margin = self._system(kind)
        m, nsteps = 150, 6000
        delay, h = DelaySpec(6.0 * margin, "full"), 6.0 * margin / m
        x0 = np.random.default_rng(1).uniform(-1.0, 1.0, sysm.dim)
        got = self._check(sysm, delay, h, nsteps, x0)
        assert got.diverged and round(got.horizon / h) < 4023 < dde_sim._window_start(nsteps)
        streamed, meta = dde_sim.simulate_to_csv(tmp_path / "t.csv", sysm, delay, x0,
                                                 (nsteps + 0.3) * h, h)
        assert streamed == got and "diverged" not in meta

    @pytest.mark.parametrize("nsteps, edge", [
        (10728, "last"),  # the start row 8046 is the last the second slide hands on
        (21457, "first"),  # the start row 16093 is the first the fifth hands on
    ])
    def test_start_row_at_a_slides_edge(self, nsteps, edge):
        # batches of 149 steps: the buffer slides every 4,023 steps, handing
        # on rows 0 .. 4023, 4024 .. 8046, 8047 .. 12069, ...
        sysm, margin = self._system("velocity")
        m = 150
        h = min(40.0 / nsteps, 0.25 * margin / m)
        delay, x0 = DelaySpec(m * h, "full"), np.random.default_rng(m).uniform(-1.0, 1.0, 4)
        handed = []
        run = dde_sim._prepare(sysm, delay, x0, (nsteps + 0.3) * h, h, None)
        dde_sim._advance(run, lambda first, rows: handed.append((first, first + len(rows) - 1)))
        slides = handed[:-1]  # the last call ends the run
        assert dde_sim._window_start(nsteps) in [
            first if edge == "first" else last for first, last in slides]
        got = self._check(sysm, delay, h, nsteps, x0)
        assert not got.diverged and 0.0 < got.decay_ratio < math.inf

    @pytest.mark.parametrize("marked", [False, True])
    def test_diverged_is_the_runs_marker_not_the_ratio(self, marked):
        # a start norm of 1e-160 under an end norm of 1e150: the ratio
        # overflows to inf, and only the marker says whether the run diverged
        rows = np.zeros((2, 4))
        rows[0, 0], rows[1, 0] = 1e-160, 1e150
        got = dde_sim._judge(rows, 4.0, marked)
        assert got.decay_ratio == math.inf and not got.stable
        assert got.diverged == marked and got.horizon == 4.0

    def test_memory_does_not_grow_with_the_run(self):
        # a run four times longer peaks where the shorter one does, below
        # the longer run's whole history
        sysm, margin = self._system("formation")
        m, h = 150, 0.25 * margin / 150
        x0 = np.random.default_rng(2).uniform(-1.0, 1.0, sysm.dim)
        peaks = []
        for nsteps in (40_000, 160_000):
            tracemalloc.start()
            try:
                verdict(sysm, DelaySpec(m * h, "full"), x0, nsteps * h, h)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0]
        assert max(peaks) < 8 * (m + 5 + 160_000) * sysm.dim


class TestDivergenceCutAtASlide:
    """The rows are screened for divergence at each slide and at the run's
    end, so batches may run on past the first divergent row before it is
    found.  A run whose norm grows monotonically, scaled so that its first
    row past the cutoff falls on a chosen step, puts that row at the last
    row a slide hands on, at the first row after it, and at the run's last
    row, in its final batch: verdict, simulate and simulate_to_csv all cut
    at reference_rk4's row."""

    # xdot = GROW x(t - tau) from a positive state: every entry, and so the
    # norm, grows at every step
    GROW = np.array([[1.0, 0.2], [0.2, 0.8]])
    NSTEPS, H = 5000, 1e-3

    def _operators(self, mode, m):
        if m == 0:
            return self.GROW, None
        if mode == "full":
            return None, self.GROW
        own = np.diag(np.diag(self.GROW))
        return own, self.GROW - own

    @pytest.mark.parametrize("where", ["last-handed-on", "first-after", "final-batch"])
    @pytest.mark.parametrize("mode, m", [
        ("full", 1), ("full", 2), ("full", 150), ("self-undelayed", 150),
        pytest.param("full", 0, id="none-0"),
    ])
    def test_cut_at_the_reference_row(self, tmp_path, mode, m, where):
        sysm = SimSystem(kind="velocity", lg=-self.GROW, n=3, k=1)
        h, nsteps = self.H, self.NSTEPS
        delay, horizon, x0 = DelaySpec(m * h, mode), (nsteps + 0.3) * h, np.ones(2)
        handed = []
        run = dde_sim._prepare(sysm, delay, x0, horizon, h, None)
        dde_sim._advance(run, lambda first, rows: handed.append(first + len(rows) - 1))
        # one slide, which hands on rows 0 .. handed[0], then the run's end
        assert len(handed) == 2
        cut = {"last-handed-on": handed[0], "first-after": handed[0] + 1,
               "final-batch": nsteps}[where]
        norms = simulate(sysm, delay, x0, horizon, h).norms
        assert np.all(np.diff(norms) > 1e-6 * norms[1:])
        # the cutoff halfway, in ratio, between the norms of rows cut - 1 and cut
        x0 = x0 * dde_sim.DIVERGENCE_CUTOFF / math.sqrt(norms[cut - 1] * norms[cut])
        _, norms, diverged = reference_rk4(*self._operators(mode, m), None, x0, m, h, nsteps)
        assert diverged and len(norms) - 1 == cut

        got = verdict(sysm, delay, x0, horizon, h)
        assert got.diverged and round(got.horizon / h) == cut
        traj = simulate(sysm, delay, x0, horizon, h)
        assert traj.verdict.diverged and len(traj.states) == cut + 1
        streamed, _ = dde_sim.simulate_to_csv(tmp_path / "t.csv", sysm, delay, x0, horizon, h)
        assert streamed == got == traj.verdict == reference_verdict(traj)
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert len(lines) == 2 + cut + 1 + 1
        assert lines[-1] == "# diverged=true (run truncated at state norm > 1e12)"


class TestCharacteristicEquation:
    """Mode "full" against the integrator's own characteristic equation,
    which shares no code with it (Bellen & Zennaro 2003).  Each mode mu of
    A follows its own scalar recurrence
    x_{i+1} = x_i + (h mu / 24) (-x_{i-m-1} + 13 x_{i-m} + 13 x_{i-m+1} - x_{i-m+2}),
    whose roots z solve z^(m+2) - z^(m+1) - (h mu / 24)(-1 + 13 z + 13 z^2 - z^3);
    for m = 1 the backward taps (1, -5, 19, 9) read x_{i-3} .. x_i, and
    z^4 - z^3 - (h mu / 24)(1 - 5 z + 19 z^2 + 9 z^3) = 0.  A run's norm
    decays as the largest |z| over every mode, at ln|z| / h per unit time.
    The modes come from np.linalg.eigvals of dense_system's matrices."""

    GS = grounded(6, 2, [1])  # five followers

    @pytest.mark.parametrize("kind", ["velocity", "formation"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 10, 100])
    def test_tail_slope_is_the_rightmost_root(self, kind, m):
        sysm, a, _ = dense_system(self.GS, kind)
        # tau = 0.1, a third of the velocity margin pi / (2 lambda_max) =
        # 0.303: the rightmost root is the slowest mode's, real for the
        # velocity dynamics and a complex pair for the formation dynamics
        tau, horizon = 0.1, 100.0
        h = tau / m
        taps = np.array([1.0, -5.0, 19.0, 9.0] if m == 1 else [-1.0, 13.0, 13.0, -1.0])
        roots = []
        for mu in np.linalg.eigvals(a):
            poly = np.zeros(max(m, 2) + 3, complex)  # highest power first
            poly[:2] = 1.0, -1.0
            poly[-4:] -= (h * mu / 24.0) * taps[::-1]
            roots.append(np.roots(poly))
        s = np.log(np.concatenate(roots)) / h
        right = s[np.argmax(s.real)]
        # isolated: every other root, but the pair's conjugate, lies at least
        # 0.5 to its left, so by mid-run its share of the norm is below e^-25
        rest = s[(np.abs(s - right) > 1e-9) & (np.abs(s - np.conj(right)) > 1e-9)]
        assert np.max(rest.real) < right.real - 0.5

        x0 = np.random.default_rng(m).uniform(-1.0, 1.0, sysm.dim)
        traj = simulate(sysm, DelaySpec(tau, "full"), x0, horizon, h)
        tail = len(traj.times) // 2
        t, log_norm = traj.times[tail:], np.log(traj.norms[tail:])
        # a complex pair's norm oscillates at twice its frequency: fit the
        # slope beside the first four harmonics of that oscillation
        cols = [np.ones_like(t), t]
        if abs(right.imag) > 1e-9:
            cols += [fn(2.0 * q * right.imag * t) for q in range(1, 5) for fn in (np.cos, np.sin)]
        slope = np.linalg.lstsq(np.column_stack(cols), log_norm, rcond=None)[0][1]
        # a delay one step longer would move it by 3e-4 (velocity) and 2e-3
        # (formation) of itself at m = 100
        assert abs(slope - right.real) <= 1e-5 * abs(right.real)


class TestPairedPrefixSum:
    """Mode "full" sums an even number of columns as complex pairs: a complex
    add is the two float adds of its parts, in the same order, so the sums
    are those of np.add.accumulate over the floats, bit for bit."""

    @pytest.mark.parametrize("width", [2, 4, 8, 34, 64])
    def test_pairs_sum_as_the_floats_do(self, width):
        rng = np.random.default_rng(width)
        for b in (1, 2, 3, 64, 99, 149):
            x = rng.standard_normal((b + 1, width)) * 10.0 ** rng.integers(-300, 300, (b + 1, width))
            special = rng.choice([np.inf, -np.inf, np.nan, -np.nan, -0.0], size=x.shape)
            x = np.where(rng.random(x.shape) < 0.15, special, x)
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.add.accumulate(x, axis=0)
                pairs = x.view(np.complex128)
                np.add.accumulate(pairs, axis=0, out=pairs)
            assert np.array_equal(x.view(np.uint64), want.view(np.uint64)), b

    @pytest.mark.parametrize("m, nsteps", [(1, 9000), (2, 9000), (150, 11920)])
    def test_odd_dimension_keeps_the_float_sum(self, m, nsteps):
        # three followers: the velocity run's three columns cannot pair
        sysm = velocity_system(grounded(4, 1, [1]))
        assert sysm.dim == 3
        h = min(40.0 / nsteps, 0.25 * delay_margin_velocity(eig_sym(sysm.lg)) / m)
        x0 = np.random.default_rng(m).uniform(-1.0, 1.0, sysm.dim)
        delay, horizon = DelaySpec(m * h, "full"), (nsteps + 0.3) * h
        traj = simulate(sysm, delay, x0, horizon, h)
        got = verdict(sysm, delay, x0, horizon, h)
        assert got == traj.verdict == reference_verdict(traj)
        assert dde_sim.simulate_to_csv(os.devnull, sysm, delay, x0, horizon, h)[0] == got
        assert not got.diverged and 0.0 < got.decay_ratio < math.inf


class TestThresholdScan:
    def test_scalar_boundary(self):
        est = threshold_scan(
            scalar_system(), 1.0, 2.2, tolerance=0.01, horizon=1800.0
        )
        assert abs(est - math.pi / 2) <= 0.02

    def test_p52_matches_exact_margin(self):
        gs = grounded(5, 2, [3])
        spec = eig_sym(gs.lg)
        true = math.pi / (2.0 * spec.lambda_max)
        est = threshold_scan(velocity_system(gs), 0.6 * true, 1.4 * true, 0.005 * true)
        assert abs(est - true) <= 0.01
        assert abs(est - 0.356) <= 0.01

    def test_p36_formation_flip_matches_modal_threshold(self):
        # the exact delay margin of the fully delayed formation dynamics on
        # P(36,4) MD is ~0.1612 (= pi / (2 rho(B)), since rho(B) >= pi),
        # notably above 1/rho(B) ~ 0.1026 (a sufficient bound whenever
        # lambda_max >= 4, as here)
        gs = ground(build_platoon(36, 4), md_arrangement(36, 4))
        fdm = delay_margin_formation(eig_sym(gs.lg), 4)
        est = threshold_scan(
            formation_system(gs), 0.10, 0.22, tolerance=0.004, horizon=100.0,
        )
        assert abs(est - fdm.exact) / fdm.exact <= 0.06
        assert fdm.rho_bound < est  # the sufficient bound is conservative here

    def test_bracket_validation(self):
        sysm = scalar_system()
        with pytest.raises(ParameterError):
            threshold_scan(sysm, 1.0, 0.5, 0.01)
        with pytest.raises(ParameterError, match="does not classify stable"):
            threshold_scan(sysm, 2.0, 2.5, 0.01, horizon=120.0)
        with pytest.raises(ParameterError, match="does not classify unstable"):
            threshold_scan(sysm, 0.5, 0.9, 0.01, horizon=120.0)


    @pytest.mark.parametrize("arg", ["tau_lo", "tau_hi", "tolerance"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_arguments_rejected_before_any_run(self, monkeypatch, arg, bad):
        # a NaN or inf tolerance used to return the unrefined midpoint 0.55
        # after simulating both ends of the bracket
        def no_run(*args, **kwargs):
            pytest.fail("threshold_scan simulated before rejecting its arguments")

        monkeypatch.setattr(dde_sim, "simulate", no_run)
        monkeypatch.setattr(dde_sim, "verdict", no_run)
        args = {"tau_lo": 0.1, "tau_hi": 1.0, "tolerance": 0.01, arg: bad}
        with pytest.raises(ParameterError, match="finite"):
            threshold_scan(velocity_system(grounded(5, 2, [3])), horizon=20.0, **args)



class TestMisreadVerdicts:
    """Runs whose verdict is silently wrong (ROADMAP item 3): the trailing
    quarter of a run must see the norm fall below 20%, which the slowest
    root of a stable system need not do within the horizon.  Each test
    asserts the right answer, and fails until the verdict can tell."""

    P36 = ground(build_platoon(36, 4), md_arrangement(36, 4))

    @pytest.mark.xfail(strict=True, reason="reads unstable, decay ratio 0.257")
    def test_self_undelayed_p36_is_stable(self):
        # own state undelayed: stable for every tau (0.703 at tau = 20)
        x0 = np.random.default_rng(0).uniform(-1.0, 1.0, 32)
        got = verdict(velocity_system(self.P36), DelaySpec(5.0, "self-undelayed"), x0,
                      200.0, 1e-3)
        assert got.stable

    @pytest.mark.xfail(strict=True, reason="returns 0.2694 against the exact 0.5009")
    def test_slow_formation_scan_finds_the_exact_margin(self):
        # lambda_1 = 0.0437: the slowest mode decays slowly even at tau = 0
        gs = grounded(8, 1, [1])
        exact = delay_margin_formation(eig_sym(gs.lg), 1).exact
        est = threshold_scan(formation_system(gs), 0.05, 1.0, 1e-3)
        assert abs(est - exact) <= 0.05 * exact

    @pytest.mark.xfail(strict=True, reason="reads unstable, decay ratio 0.467")
    def test_p36_velocity_just_inside_the_margin_is_stable(self):
        # tau = 0.1446 < pi / (2 lambda_max) = 0.14468
        margin = delay_margin_velocity(eig_sym(self.P36.lg))
        tau = 0.1446
        assert tau < margin < 0.1447
        x0 = np.random.default_rng(0).uniform(-1.0, 1.0, 32)
        assert verdict(velocity_system(self.P36), DelaySpec(tau, "full"), x0, 200.0,
                       tau / 150).stable


class TestOffDiagonalDelay:
    def test_p36_large_delay_stays_stable(self):
        gs = ground(build_platoon(36, 4), md_arrangement(36, 4))
        sysm = velocity_system(gs)
        x0 = np.random.default_rng(0).uniform(-1.0, 1.0, 32)
        traj = simulate_offdiagonal(sysm, 5.0, x0, 500.0, 5e-3)
        assert traj.verdict.stable

    def test_zero_delay_equals_plain_mode(self):
        gs = grounded(5, 2, [3])
        sysm = velocity_system(gs)
        x0 = np.random.default_rng(2).uniform(-1, 1, 4)
        t1 = simulate(sysm, UNDELAYED, x0, 5.0, 1e-2)
        t2 = simulate_offdiagonal(sysm, 0.0, x0, 5.0, 1e-2)
        assert np.array_equal(t1.states, t2.states)

    def test_p52_delay_ten(self):
        gs = grounded(5, 2, [3])
        sysm = velocity_system(gs)
        x0 = np.random.default_rng(3).uniform(-1, 1, 4)
        traj = simulate_offdiagonal(sysm, 10.0, x0, 500.0, 1e-2)
        assert traj.verdict.stable

    def test_velocity_only(self):
        gs = grounded(5, 2, [3])
        with pytest.raises(ParameterError):
            simulate_offdiagonal(formation_system(gs), 1.0, np.ones(8), 10.0, 1e-2)


class TestSteadyStateMatchesTransferFunction:
    # single-follower system lg = [2]: drives the full chain of input matrix,
    # integrator, and dynamics against the closed-form frequency response

    def _tail_amplitude(self, series, period, step):
        window = int(round(period / step)) + 1
        return float(np.max(np.abs(series[-window:])))

    def test_velocity_gain_at_frequency(self):
        gs = grounded(3, 1, [1, 3])
        sysm = velocity_system(gs)
        amp, omega = 0.7, 1.3
        traj = simulate(sysm, UNDELAYED, np.zeros(1), 40.0, 1e-3,
                        disturbance=SinusoidDisturbance(amp, omega))
        predicted = amp / abs(1j * omega + 2.0)
        measured = self._tail_amplitude(traj.states[:, 0], 2 * math.pi / omega, 1e-3)
        assert measured == pytest.approx(predicted, rel=1e-3)

    def test_formation_position_gain_at_frequency(self):
        # position response of 1/(s^2 + lam s + lam): disturbance must enter
        # through the velocity-error row for this to hold
        gs = grounded(3, 1, [1, 3])
        sysm = formation_system(gs)
        amp, omega = 0.7, 1.3
        traj = simulate(sysm, UNDELAYED, np.zeros(2), 60.0, 1e-3,
                        disturbance=SinusoidDisturbance(amp, omega))
        predicted = amp / abs(-omega ** 2 + 2.0 * (1.0 + 1j * omega))
        measured = self._tail_amplitude(traj.states[:, 0], 2 * math.pi / omega, 1e-3)
        assert measured == pytest.approx(predicted, rel=1e-3)


class TestDisturbances:
    def test_sinusoid_drives_bounded_response(self):
        gs = grounded(5, 2, [3])
        sysm = velocity_system(gs)
        dist = SinusoidDisturbance(amplitude=0.5, omega=1.3)
        traj = simulate(sysm, UNDELAYED, np.zeros(4), 60.0, 1e-2, disturbance=dist)
        tail = traj.norms[len(traj.norms) // 2:]
        assert 0.0 < tail.min() and tail.max() < 10.0

    def test_noise_reproducible_from_seed(self):
        gs = grounded(5, 2, [3])
        sysm = velocity_system(gs)
        dist1 = NoiseDisturbance(amplitude=0.2, seed=11)
        dist2 = NoiseDisturbance(amplitude=0.2, seed=11)
        t1 = simulate(sysm, UNDELAYED, np.zeros(4), 5.0, 1e-2, disturbance=dist1)
        t2 = simulate(sysm, UNDELAYED, np.zeros(4), 5.0, 1e-2, disturbance=dist2)
        assert np.array_equal(t1.states, t2.states)
        assert t1.meta["seed"] == 11

    def test_disturbance_with_delay(self):
        gs = grounded(5, 2, [3])
        sysm = velocity_system(gs)
        dist = SinusoidDisturbance(amplitude=0.1, omega=0.7)
        traj = simulate(sysm, DelaySpec(0.05, "full"), np.zeros(4), 20.0, 1e-3,
                        disturbance=dist)
        assert traj.norms[-1] > 0.0 and not traj.verdict.diverged

    # windows that move forward: overlapping, adjacent, of one step and of none
    WINDOWS = [(0, 4096), (4096, 8192), (5000, 5001), (5000, 5000), (7000, 20_000)]

    def test_noise_samples_by_step_are_rows_of_one_table(self):
        # step i's grid time and midpoint both read row i of the table that a
        # fresh generator of the seed draws whole, whichever windows came
        # before: the last one moves back
        nsteps, dim = 20_000, 3
        table = np.random.default_rng(4).uniform(-0.2, 0.2, (nsteps + 1, dim))
        sample = NoiseDisturbance(amplitude=0.2, seed=4).sampler(dim, 1e-3)
        for lo, hi in self.WINDOWS + [(6999, 7000)]:
            grid, mid = sample(lo, hi)
            assert np.array_equal(grid, table[lo : hi + 1])
            assert np.array_equal(mid, table[lo:hi])

    @pytest.mark.parametrize("h", [1e-3, 0.1])
    def test_sinusoid_samples_by_step_are_sin_at_their_times(self, h):
        dim, amp, omega = 2, 0.3, 1.7
        sample = SinusoidDisturbance(amplitude=amp, omega=omega).sampler(dim, h)
        for lo, hi in self.WINDOWS:
            grid, mid = sample(lo, hi)
            assert grid.shape == (hi - lo + 1, dim) and mid.shape == (hi - lo, dim)
            # the same value on every channel; libm's sin may round apart
            # from numpy's in the last bit, a sample a step off by amp*omega*h
            assert (grid == grid[:, :1]).all() and (mid == mid[:, :1]).all()
            want = [amp * math.sin(omega * (i * h)) for i in range(lo, hi + 1)]
            want_mid = [amp * math.sin(omega * (i * h + h / 2.0)) for i in range(lo, hi)]
            assert np.allclose(grid[:, 0], want, rtol=0.0, atol=1e-15)
            assert np.allclose(mid[:, 0], want_mid, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        for kwargs in ({"amplitude": bad, "omega": 1.0}, {"amplitude": 1.0, "omega": bad}):
            with pytest.raises(ParameterError):
                SinusoidDisturbance(**kwargs)
        with pytest.raises(ParameterError):
            NoiseDisturbance(amplitude=bad, seed=0)


class TestTrajectoryCsv:
    def test_metadata_and_columns(self, tmp_path):
        gs = grounded(5, 2, [3])
        sysm = velocity_system(gs)
        path = tmp_path / "trajectory.csv"
        dde_sim.simulate_to_csv(path, sysm, DelaySpec(0.1, "full"), np.ones(4), 1.0, 1e-2)
        traj = simulate(sysm, DelaySpec(0.1, "full"), np.ones(4), 1.0, 1e-2)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# n=5, k=2, kind=velocity, mode=full, tau=0.1")
        assert "step=0.01" in lines[0]
        assert lines[1] == "t,norm,x_1,x_2,x_3,x_4"
        assert len(lines) == 2 + len(traj.times)

    def test_missing_directories_are_made(self, tmp_path):
        run = (velocity_system(grounded(5, 2, [3])), DelaySpec(0.1, "full"), np.ones(4), 1.0,
               1e-2)
        dde_sim.simulate_to_csv(tmp_path / "t.csv", *run)
        nested = tmp_path / "a" / "b" / "t.csv"
        dde_sim.simulate_to_csv(nested, *run)
        assert nested.read_bytes() == (tmp_path / "t.csv").read_bytes()

    def test_rows_match_per_value_format(self):
        # more rows than one formatting chunk, with negative zeros, values
        # across the exponent switch of %g, and a tail past the cutoff
        rng = np.random.default_rng(12)
        rows = 9000
        states = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-20, 20, (rows, 3))
        states[::7, 0] = -0.0
        states[::5, 1] = 0.0
        states[-3:] = [[1e13, -math.inf, 2.5], [math.inf, math.nan, -0.0],
                       [-math.inf, 1e300, 1e-300]]
        times = np.arange(rows) * 1e-3
        buf = io.StringIO()
        dde_sim._csv_rows(buf, times, states)
        # rows only: no metadata, and an undiverged verdict adds no marker
        undiverged = StabilityVerdict(False, math.inf, times[-1], False)
        want = trajectory_csv(Trajectory(times, states, undiverged, meta={}))
        assert buf.getvalue() == want.split("\n", 2)[2]  # below the two header lines
        lines = buf.getvalue().split("\n")
        assert "-0" in lines[0].split(",") and "inf" in lines[-2] and "nan" in lines[-3]

    def test_memory_does_not_grow_with_the_run(self):
        # the text is written a piece at a time: writing 32,768 rows peaks
        # where writing 8,192 does, below the longer run's own states
        rng = np.random.default_rng(3)
        peaks = []
        for rows in (8192, 32768):
            times, states = np.arange(rows) * 1e-3, rng.standard_normal((rows, 4))
            with open(os.devnull, "w") as fh:
                tracemalloc.start()
                try:
                    dde_sim._csv_rows(fh, times, states)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0]
        assert max(peaks) < states.nbytes


class TestWorkingSetIsTheRunsBuffers:
    """A run holds its sliding buffer, its operators, a batch's temporaries,
    one window of its disturbance's samples and one piece of CSV text, and
    nothing else that grows with _CHUNK_ROWS or with the blocked
    recurrence's _SCAN_CHUNK powers.  Each bound is summed from those sizes
    for the run's own dim, m and batch."""

    GS = ground(build_platoon(36, 4), md_arrangement(36, 4))

    @staticmethod
    def _traced_peak(run):
        run()  # untraced: a first run also loads what later runs reuse
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def _held(dim, m):
        """Bytes of the sliding buffer and of fill, the stacked powers
        P^1 .. P^(c-1) of a run with an undelayed term."""
        rows = m + 5 + max(dde_sim._batch_steps(m), dde_sim._CHUNK_ROWS)
        return 8 * dim * (rows + (dde_sim._SCAN_CHUNK - 1) * dim)

    def test_simulate_to_csv_self_undelayed(self):
        # the battery's off-diagonal run over a tenth of its horizon, which
        # slides twice
        sysm = velocity_system(self.GS)
        dim, m, h = sysm.dim, 1000, 0.005
        peak = self._traced_peak(lambda: dde_sim.simulate_to_csv(
            os.devnull, sysm, DelaySpec(m * h, "self-undelayed"), np.ones(dim), 50.0, h))
        batch = 8 * dim * dde_sim._batch_steps(m)
        # six rows of temporaries per batch step (the forcing's products and
        # pass 3's), and 64 bytes a CSV value: a Python float, its pointer
        # and its text
        piece = 64 * (dim + 2) * dde_sim._CSV_ROWS
        assert peak < self._held(dim, m) + 6 * batch + piece

    def test_verdict_undelayed_formation(self):
        sysm = formation_system(self.GS)
        dim = sysm.dim
        peak = self._traced_peak(lambda: verdict(
            sysm, DelaySpec(0.0, "full"), np.ones(dim), 20.0, 1e-3))
        # pass 3's product of the chunk starts with fill, and 32 dim x dim
        # operators and their temporaries
        s = dde_sim._batch_steps(0) // dde_sim._SCAN_CHUNK
        pass3 = 8 * s * (dde_sim._SCAN_CHUNK - 1) * dim
        assert peak < self._held(dim, 0) + pass3 + 32 * 8 * dim * dim

    @pytest.mark.parametrize("disturbance", [
        None, NoiseDisturbance(0.3, 5), SinusoidDisturbance(0.3, 1.7)], ids=["none", "noise", "sin"])
    @pytest.mark.parametrize("kind, mode, m, keep", [
        ("velocity", "full", 0, None),
        ("formation", "full", 0, None),
        ("velocity", "full", 100, None),
        ("formation", "full", 100, None),
        ("velocity", "self-undelayed", 100, None),
        ("velocity", "full", 5000, None),  # batches of 4,999 steps > _CHUNK_ROWS
        ("formation", "full", 5000, None),
        ("velocity", "self-undelayed", 5000, None),
        # the CSV text is written at each slide, beside each mode's leftovers
        # of the last batch; formatting a run takes a second or more
        ("velocity", "full", 0, "csv"),
        ("velocity", "full", 100, "csv"),
        ("velocity", "self-undelayed", 100, "csv"),
    ], ids=lambda value: "verdict" if value is None else None)
    def test_peak_within_the_charge(self, kind, mode, m, keep, disturbance):
        # a run long enough to slide twice peaks at most at what check_run
        # charges it, and above half of that: a verdict's run (with its
        # disturbance, which verdict itself does not take) or a streamed one.
        # A delay of at most 0.025, below a fifth of either fully delayed
        # margin (0.145 and 0.161): the run does not diverge
        h = 1e-3 if m == 0 else min(1e-3, 0.025 / m)
        diverged, peak, charge = self._charged_run(kind, mode, m, keep, disturbance, h)
        assert not diverged and charge / 2 < peak <= charge

    @pytest.mark.parametrize("kind, mode, m, keep", [
        ("velocity", "full", 0, None),
        ("formation", "full", 2, None),
        ("velocity", "full", 100, None),
        ("formation", "full", 150, None),
        ("velocity", "self-undelayed", 100, None),
        ("velocity", "full", 100, "csv"),
    ], ids=lambda value: "verdict" if value is None else None)
    def test_peak_within_the_charge_of_a_diverging_run(self, kind, mode, m, keep):
        # a screen at a slide finds the divergence, taking per-row norms of
        # a batch's rows at a time: a fully delayed run at tau = 0.5, about
        # three times its margin, and the others at a step beyond RK4's bound
        lg = np.asarray(self.GS.lg, float)
        if mode == "self-undelayed":
            h = 3.0 / float(np.max(np.diag(lg)))
        elif m == 0:
            h = 4.0 / float(np.max(np.linalg.eigvalsh(lg)))
        else:
            h = 0.5 / m
        diverged, peak, charge = self._charged_run(kind, mode, m, keep, None, h)
        assert diverged and charge / 2 < peak <= charge

    def _charged_run(self, kind, mode, m, keep, disturbance, h):
        """(whether it diverged, its traced peak, its charge) of a run of
        step h that would slide twice."""
        sysm = velocity_system(self.GS) if kind == "velocity" else formation_system(self.GS)
        nsteps = m + 2 * max(dde_sim._batch_steps(m), dde_sim._CHUNK_ROWS)
        delay = DelaySpec(m * h, mode)
        x0 = np.random.default_rng(m).uniform(-1.0, 1.0, sysm.dim)
        if keep is None:
            def run():
                prepared = dde_sim._prepare(sysm, delay, x0, nsteps * h, h, disturbance)
                return dde_sim._advance(prepared, lambda first, rows: None)[1]
        else:
            def run():
                return dde_sim.simulate_to_csv(os.devnull, sysm, delay, x0, nsteps * h, h,
                                               disturbance)[0]
        diverged = run().diverged
        charge = dde_sim._held_bytes(sysm, delay, m, nsteps, disturbance is not None, keep)
        return diverged, self._traced_peak(run), charge


class TestSimSystemValidation:
    def test_bad_kind_and_gains(self):
        lg = np.array([[1.0]])
        with pytest.raises(ParameterError):
            SimSystem(kind="position", lg=lg, n=2, k=1)

    def test_defaults(self):
        assert default_step(0.0) == 1e-3
        assert default_step(0.02) == pytest.approx(5e-4)
        smallest = 40.0 * sys.float_info.min
        assert default_step(smallest) == sys.float_info.min
        # tau / 40 underflows to zero, or to a subnormal step
        for tiny in (5e-324, 1e-320, smallest / 2.0):
            with pytest.raises(ParameterError, match="taus value .* is too small"):
                default_step(tiny, "taus")
        assert default_horizon(1.0) == 200.0
        assert default_horizon(0.1) == 500.0
        # an ungrounded lambda1 takes the cap, not a division by zero
        assert default_horizon(0.0) == 500.0


class TestEmpiricalMarginMatchesTheory:
    def test_small_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            _, _, gs = random_grounded(rng, n_lo=4, n_hi=12, k_hi=3, f_min=2, f_max=10)
            spec = eig_sym(gs.lg)
            true = math.pi / (2.0 * spec.lambda_max)
            est = threshold_scan(
                velocity_system(gs), 0.6 * true, 1.4 * true, 0.005 * true,
                x0=rng.uniform(-1, 1, gs.n_followers),
            )
            assert abs(est - true) / true <= 0.03
