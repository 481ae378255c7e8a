import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import formation_modal_delay_margin, random_grounded
from platoonkit import (
    DelaySpec,
    ParameterError,
    build_formation_matrix,
    build_platoon,
    build_report,
    delay_bounds_k,
    delay_margin_formation,
    delay_margin_velocity,
    eig_sym,
    formation_modes,
    formation_system,
    gamma_conditions,
    ground,
    hinf_formation,
    hinf_velocity,
    make_reference_set,
    margin_formation,
    md_arrangement,
    min_refs_nonexpansive,
    peak_amplitude,
    simulate,
    sweep_hinf,
    velocity_system,
)
from platoonkit.experiments import ScenarioConfig, run_report
from platoonkit.robustness import DYNAMICS, SWEEP_OMEGAS, _extreme_modes
from platoonkit.spectral import Spectrum

SQRT2 = math.sqrt(2.0)
TWO_OVER_SQRT3 = 2.0 / math.sqrt(3.0)


def grounded(n, k, refs):
    return ground(build_platoon(n, k), make_reference_set(n, refs))


def spec_of(values):
    return Spectrum(values=np.asarray(values, dtype=float))


class TestHinfVelocity:
    def test_p36_md_is_one(self):
        gs = grounded(36, 4, list(md_arrangement(36, 4).refs))
        assert abs(hinf_velocity(eig_sym(gs.lg)) - 1.0) <= 1e-9

    def test_p52_is_one(self):
        gs = grounded(5, 2, [3])
        assert abs(hinf_velocity(eig_sym(gs.lg)) - 1.0) <= 1e-9

    def test_reciprocal(self):
        assert hinf_velocity(spec_of([0.25, 3.0])) == 4.0

    def test_ungrounded_marker(self):
        assert math.isinf(hinf_velocity(spec_of([0.0, 1.0])))


@pytest.mark.parametrize("call", [
    hinf_velocity,
    hinf_formation,
    margin_formation,
    delay_margin_velocity,
    lambda spec: delay_margin_formation(spec, 2),
    lambda spec: sweep_hinf(grounded(5, 2, [3]), "velocity", spec=spec),
], ids=["hinf_velocity", "hinf_formation", "margin_formation", "delay_margin_velocity",
        "delay_margin_formation", "sweep_hinf"])
def test_empty_spectrum_rejected(call):
    # the eigensolver returns it; Spectrum.lambda1 / lambda_max refuse it,
    # where every entry point reads it
    empty = eig_sym(np.zeros((0, 0)))
    assert len(empty) == 0
    with pytest.raises(ParameterError, match="empty spectrum"):
        call(empty)


@pytest.mark.parametrize("call, values, message", [
    (hinf_formation, [0.0, 1.0], "formation gain needs a strictly positive spectrum"),
    (lambda spec: sweep_hinf(grounded(3, 1, [1]), "formation", spec=spec), [1e-12, 1.0],
     "sweep needs a grounded system"),
    (delay_margin_velocity, [0.0, 1e-12], "delay margin needs lambda_max > 0"),
], ids=["hinf_formation", "sweep_hinf", "delay_margin_velocity"])
def test_ungrounded_spectrum_rejected(call, values, message):
    # an eigenvalue at or below the grounding tolerance 1e-12 has no gain
    # or margin; hinf_velocity marks it unbounded instead
    with pytest.raises(ParameterError, match=message):
        call(spec_of(values))


@pytest.mark.parametrize("values", [[np.nan, 2.0], [0.5, np.inf], [2.0, 0.5], [np.inf]])
def test_non_finite_or_unsorted_spectrum_rejected(values):
    # the first three once gave hinf_velocity nan, 2.0 and 0.5, silently
    with pytest.raises(ParameterError, match="finite and ascending"):
        spec_of(values)


class TestPeakAmplitude:
    def test_branches_agree_at_two(self):
        inner = 2.0 / (2.0 ** 1.5 * math.sqrt(2.0))
        assert abs(inner - 0.5) < 1e-15
        assert abs(peak_amplitude(2.0) - 0.5) < 1e-15

    def test_extreme_value_at_one(self):
        assert abs(peak_amplitude(1.0) - TWO_OVER_SQRT3) < 1e-15

    def test_dc_branch(self):
        assert peak_amplitude(4.0) == 0.25

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            peak_amplitude(0.0)

    def test_continuous_and_decreasing_on_1_4(self):
        lams = np.linspace(1.0, 4.0, 1000)
        vals = np.array([peak_amplitude(float(l)) for l in lams])
        assert np.all(np.diff(vals) < 0.0)
        lo, hi = peak_amplitude(2.0 - 1e-9), peak_amplitude(2.0 + 1e-9)
        assert abs(lo - hi) < 1e-8


class TestHinfFormation:
    def test_p36_md(self):
        gs = grounded(36, 4, list(md_arrangement(36, 4).refs))
        assert abs(hinf_formation(eig_sym(gs.lg)) - TWO_OVER_SQRT3) <= 1e-9

    def test_p52_smallest_eigenvalue_dominates(self):
        gs = grounded(5, 2, [3])
        spec = eig_sym(gs.lg)
        others = sorted(peak_amplitude(float(l)) for l in spec.values[1:])
        assert others == pytest.approx([0.22654091966098644, 1 / 3, 0.644577444229143], abs=1e-9)
        assert abs(hinf_formation(spec) - TWO_OVER_SQRT3) <= 1e-9

    def test_single_eigenvalue(self):
        assert hinf_formation(spec_of([4.0])) == 0.25


class TestSweep:
    def test_velocity_peak_at_dc(self):
        gs = grounded(5, 2, [3])
        fr = sweep_hinf(gs, "velocity")
        assert fr.peak_omega == 0.0
        assert abs(fr.peak_gain - 1.0) <= 1e-4

    def test_formation_peak_location_p36(self):
        gs = grounded(36, 4, list(md_arrangement(36, 4).refs))
        fr = sweep_hinf(gs, "formation")
        assert abs(fr.peak_gain - TWO_OVER_SQRT3) <= 1e-3
        assert abs(fr.peak_omega - math.sqrt(0.5)) <= 1e-9

    def test_dc_entry_gain_is_exact(self):
        gs = grounded(5, 2, [3])
        spec = eig_sym(gs.lg)
        fr = sweep_hinf(gs, "velocity", spec=spec)
        assert 0.0 in fr.omegas
        assert abs(fr.peak_gain - 1.0 / spec.lambda1) <= 1e-12

    def test_formation_peak_at_dc_above_two(self):
        # lambda_1 = 2.938 > 2: no eigenvalue has a stationary frequency, and
        # the peak 1/lambda_1 sits at omega = 0, which the grid must hold
        gs = grounded(10, 4, [1, 3, 5, 7, 9])
        spec = eig_sym(gs.lg)
        assert spec.lambda1 > 2.0
        fr = sweep_hinf(gs, "formation", spec=spec)
        assert fr.peak_omega == 0.0
        assert fr.peak_gain == hinf_formation(spec)

    def test_gains_ascending_grid_and_csv(self, tmp_path):
        gs = grounded(5, 2, [3])
        fr = sweep_hinf(gs, "formation")
        assert np.all(np.diff(fr.omegas) > 0)
        # the report writes the sweep's CSV: one row per frequency, 12 digits
        run_report(ScenarioConfig(n=5, k=2, arrangement="explicit", refs=(3,), sweep_csv=True),
                   tmp_path)
        lines = (tmp_path / "freq_formation.csv").read_text().splitlines()
        assert lines[0] == "omega,gain"
        assert len(lines) == len(fr.omegas) + 1
        assert lines[1:] == [f"{w:.12g},{g:.12g}" for w, g in zip(fr.omegas, fr.gains)]

    def test_rejects_bad_dynamics_and_grid(self):
        gs = grounded(5, 2, [3])
        with pytest.raises(ParameterError):
            sweep_hinf(gs, "both")

    def test_matches_analytic_on_random_instances(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            _, _, gs = random_grounded(rng, n_hi=30)
            spec = eig_sym(gs.lg)
            for dyn, analytic in (
                ("velocity", hinf_velocity(spec)),
                ("formation", hinf_formation(spec)),
            ):
                peak = sweep_hinf(gs, dyn, spec=spec).peak_gain
                assert abs(peak - analytic) <= 1e-12 * analytic


def all_mode_gains(omegas, values, dynamics):
    """The largest modal gain at each omega, taken over every eigenvalue."""
    w = omegas[:, None]
    lam = np.asarray(values, dtype=float)[None, :]
    if dynamics == "velocity":
        denom = np.abs(1j * w + lam)
    else:
        denom = np.abs(-(w ** 2) + lam * (1.0 + 1j * w))
    return (1.0 / denom).max(axis=1)


def sized(m):
    """A grounded system of m followers, P(m + 1, 1) with reference {1}, for
    a sweep of a given spectrum of that size: the sweep reads only its size."""
    return grounded(m + 1, 1, [1])


def reference_sweep(values, dynamics):
    """A direct form of the sweep, kept as its bit-for-bit reference: the
    grid from np.unique, a search into the spectrum at every frequency, and
    both bracketing denominators at every frequency."""
    lams = np.asarray(values, dtype=float)
    low = lams[lams <= 2.0] if dynamics == "formation" else lams[:0]
    extra = np.sqrt(low * (1.0 - low / 2.0)) if len(low) else np.zeros(1)
    omegas = np.unique(np.concatenate([SWEEP_OMEGAS, extra]))
    if dynamics == "velocity":
        denom = np.abs(1j * omegas + lams[0])
    else:
        above = np.searchsorted(lams, omegas ** 2 / (1.0 + omegas ** 2))
        pair = lams[np.maximum(above - 1, 0)], lams[np.minimum(above, len(lams) - 1)]
        denom = np.minimum(*(np.abs(-(omegas ** 2) + lam * (1.0 + 1j * omegas)) for lam in pair))
    return omegas, 1.0 / denom


def assert_matches_all_modes(values, gs=None):
    """The sweep, which reads at most two modes per omega, equals the all-mode
    maximum to 1e-15 relative at every frequency of its strictly increasing
    grid, and reference_sweep bit for bit: the same grid, gains and peak."""
    spec = spec_of(values)
    for dyn in DYNAMICS:
        fr = sweep_hinf(gs or sized(len(values)), dyn, spec=spec)
        assert np.all(np.diff(fr.omegas) > 0), (dyn, values)
        ref = all_mode_gains(fr.omegas, values, dyn)
        assert np.max(np.abs(fr.gains - ref) / ref) <= 1e-15, (dyn, values)
        assert fr.peak_gain == fr.gains.max()
        omegas, gains = reference_sweep(spec.values, dyn)
        assert np.array_equal(fr.omegas.view(np.uint64), omegas.view(np.uint64)), (dyn, values)
        assert np.array_equal(fr.gains.view(np.uint64), gains.view(np.uint64)), (dyn, values)
        ipeak = int(np.argmax(gains))
        assert (fr.peak_omega, fr.peak_gain) == (omegas[ipeak], gains[ipeak]), (dyn, values)


# lam*(omega) = omega^2 / (1 + omega^2) at a grid frequency, where the formation
# denominator is least: the bracketing pair then holds that eigenvalue itself
OMEGA_GRID = float(SWEEP_OMEGAS[2800])
LAM_STAR = OMEGA_GRID ** 2 / (1.0 + OMEGA_GRID ** 2)

# four eigenvalues an ulp apart near 0.2766, whose stationary frequencies are
# so close that rounding puts their lam* out of order along the grid; five
# more lie within ulps of those lam*, near 0.1925, where the order matters
OUT_OF_ORDER = [0.1924634033090109, 0.19246340330901093, 0.19246340330901096,
                0.192463403309011, 0.19246340330901102, 0.27658306678749345,
                0.2765830667874935, 0.27658306678749356, 0.2765830667874936, 1.7824585190346847]

ADVERSARIAL = [
    [4.0, 4.0],
    [0.7],
    [LAM_STAR],
    [0.5 * LAM_STAR, LAM_STAR, LAM_STAR, 1.5],
    [np.nextafter(LAM_STAR, 0.0), np.nextafter(LAM_STAR, 1.0)],
    [2.5, 3.0, 7.0, 40.0],
    [0.3, 1.9, 2.0, 2.1, 5.0],
    [1e-6, 1e-3, 0.999, 1.0, 1.001],
    # every lam* lies below lambda_1: the bracketing index is 0 throughout
    [1e3],
    # lam* lies above it from omega = 1e-3 on: the index is len(values) there
    [1e-6],
    # three equal stationary frequencies, all omega = 0
    [2.0, 2.0, 2.0],
    # lambda_max < 1: on the top of the grid the pair is lambda_max twice
    [0.05, 0.3, 0.6, 0.9],
    # lambda_1 >= 1, above every lam*: the pair is lambda_1 twice on the whole grid
    [1.0, 2.5, 7.0],
    [1.0],
    # lambda_1 < 1 < lambda_max: two eigenvalues from the bottom of the grid up
    [0.2, 0.5, 3.0, 11.0],
    # repeated eigenvalues on both sides of a lam*
    [0.5 * LAM_STAR] + [np.nextafter(LAM_STAR, 0.0)] * 2 + [np.nextafter(LAM_STAR, 1.0)] * 2
    + [1.5],
    OUT_OF_ORDER,
]
ADVERSARIAL_IDS = ["repeated", "single", "at-lam-star", "lam-star-repeated", "around-lam-star",
                   "all-above-two", "both-sides-of-two", "crowded-below-one",
                   "above-every-lam-star", "below-most-lam-stars", "three-at-two",
                   "top-collapses", "all-collapses", "one-at-one", "split", "repeated-straddle",
                   "out-of-order"]


class TestSweepOracle:
    def test_random_platoons_up_to_219_followers(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            _, _, gs = random_grounded(rng, n_lo=2, n_hi=220, f_max=219)
            assert_matches_all_modes(eig_sym(gs.lg).values, gs)

    def test_p256_md(self):
        gs = ground(build_platoon(256, 3), md_arrangement(256, 3))
        assert gs.n_followers == 219
        assert_matches_all_modes(eig_sym(gs.lg).values, gs)

    def test_p36_md(self):
        gs = ground(build_platoon(36, 4), md_arrangement(36, 4))
        assert_matches_all_modes(eig_sym(gs.lg).values, gs)

    def test_out_of_order_grid_is_what_it_says(self):
        omegas, _ = reference_sweep(OUT_OF_ORDER, "formation")
        star = omegas ** 2 / (1.0 + omegas ** 2)
        assert (np.diff(star) < 0).any()

    def test_velocity_grid_is_read_only(self):
        fr = sweep_hinf(grounded(5, 2, [3]), "velocity")
        with pytest.raises(ValueError):
            fr.omegas[0] = 1.0

    @pytest.mark.parametrize("values", ADVERSARIAL, ids=ADVERSARIAL_IDS)
    def test_adversarial_spectra(self, values):
        assert_matches_all_modes(values)

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=40))
    def test_random_ascending_spectra(self, values):
        assert_matches_all_modes(sorted(values))


def transfer_inverse(lg, omega, dynamics):
    """The inverse of the disturbance transfer matrix at omega: j omega I + lg
    (velocity), or -omega^2 I + (1 + j omega) lg (formation, to the position
    errors)."""
    eye = np.eye(len(lg))
    if dynamics == "velocity":
        return 1j * omega * eye + lg
    return -(omega ** 2) * eye + (1.0 + 1j * omega) * lg


def svd_gain(lg, omega, dynamics):
    """The largest singular value of the disturbance transfer matrix at
    omega, 1 / sigma_min of its inverse, from an SVD of the dense matrix:
    no eigensolver and no modal formula."""
    return 1.0 / np.linalg.svd(transfer_inverse(lg, omega, dynamics), compute_uv=False).min()


class TestSweepSvdOracle:
    """The sweep's gains against singular values of the transfer matrices
    themselves, at 16 grid frequencies and at the sweep's peak."""

    @pytest.mark.parametrize("n, k, refs", [
        (36, 4, None),  # MD
        (8, 1, [1]),
        (2, 1, [1]),
        (10, 4, [1, 3, 5, 7, 9]),  # lambda_1 > 2: the formation peak at omega = 0
    ])
    @pytest.mark.parametrize("dynamics", ["velocity", "formation"])
    def test_gains_match_singular_values(self, n, k, refs, dynamics):
        gs = grounded(n, k, list(md_arrangement(n, k).refs) if refs is None else refs)
        fr = sweep_hinf(gs, dynamics)
        picks = list(np.linspace(0, len(fr.omegas) - 1, 16).astype(int))
        picks.append(int(np.argmax(fr.gains)))
        for i in picks:
            want = svd_gain(gs.lg, fr.omegas[i], dynamics)
            assert abs(fr.gains[i] - want) <= 1e-10 * want, (fr.omegas[i], fr.gains[i], want)
        assert fr.peak_gain == fr.gains[picks[-1]]


class DirectedCosine:
    """The test-side disturbance v cos(omega t) on the velocity-error channels."""

    def __init__(self, v, omega):
        self.v, self.omega = v, omega

    def sampler(self, dim, step):
        assert dim == len(self.v)

        def sample(lo, hi):
            grid = np.arange(lo, hi + 1) * step
            return tuple(np.cos(self.omega * t)[:, None] * self.v
                         for t in (grid, grid[:-1] + step / 2.0))

        return sample


def worst_input(lg, dynamics):
    """(omega*, v): the argmin of sigma_min of the transfer's inverse over 0
    and 2,000 log-spaced frequencies in [1e-4, 10], refined by golden
    section, and its right singular vector, phase-aligned to be real."""
    def sigma_min(omega):
        return np.linalg.svd(transfer_inverse(lg, omega, dynamics), compute_uv=False)[-1]

    grid = np.concatenate(([0.0], np.logspace(-4.0, 1.0, 2000)))
    i = int(np.argmin([sigma_min(w) for w in grid]))
    if i > 0:
        lo, hi = grid[i - 1], grid[min(i + 1, len(grid) - 1)]
        ratio = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(100):
            a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
            if sigma_min(a) < sigma_min(b):
                hi = b
            else:
                lo = a
        grid[i] = (lo + hi) / 2.0
    v = np.linalg.svd(transfer_inverse(lg, grid[i], dynamics))[2][-1].conj()
    v *= np.exp(-1j * np.angle(v[np.argmax(np.abs(v))]))
    assert np.max(np.abs(v.imag)) <= 1e-12
    return grid[i], v.real


class TestGainsInTheTimeDomain:
    """Each closed-form gain against the steady amplitude of an undelayed run
    driven at its worst frequency and direction, both found from SVDs of
    the transfer's inverse alone: no eigensolver and no mode map."""

    @pytest.mark.parametrize("n, k, refs", [
        (36, 4, None),  # MD
        (12, 3, None),  # MD
        (8, 1, [1]),    # formation gain 110
        (20, 2, [1, 20]),
    ])
    @pytest.mark.parametrize("dynamics", ["velocity", "formation"])
    def test_steady_amplitude_is_the_gain(self, n, k, refs, dynamics):
        gs = grounded(n, k, list(md_arrangement(n, k).refs) if refs is None else refs)
        omega, v = worst_input(gs.lg, dynamics)
        sysm = velocity_system(gs) if dynamics == "velocity" else formation_system(gs)
        # the transients decay as exp(-lambda_1 t / 2) at the slowest
        periods = 5.0 * 2.0 * math.pi / omega if omega > 0.0 else 0.0
        sigma0 = np.linalg.svd(gs.lg, compute_uv=False)[-1]
        traj = simulate(sysm, DelaySpec(), np.zeros(sysm.dim), max(60.0, 40.0 / sigma0) + periods,
                        1e-2, DirectedCosine(v, omega))
        # the output: every state (velocity), the position errors (formation)
        out = traj.states[:, :len(v)]
        if omega == 0.0:
            amplitude = np.linalg.norm(out[-1])
        else:
            tail = traj.times >= traj.times[-1] - periods
            t = traj.times[tail]
            basis = np.column_stack((np.cos(omega * t), np.sin(omega * t)))
            pair = np.linalg.lstsq(basis, out[tail], rcond=None)[0]
            amplitude = np.linalg.svd(pair, compute_uv=False)[0]
        gain = {"velocity": hinf_velocity, "formation": hinf_formation}[dynamics](eig_sym(gs.lg))
        assert abs(amplitude - gain) <= 1e-9 * gain, (omega, amplitude, gain)


class TestGammaConditions:
    def test_p36_md_near_one(self):
        gs = grounded(36, 4, list(md_arrangement(36, 4).refs))
        cond = gamma_conditions(gs, 1.01)
        assert cond.necessary_ok  # max beta = 1 > floor(1/1.01) = 0
        assert not cond.boundary_case

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            _, _, gs = random_grounded(rng, n_hi=25)
            gammas = [0.2, 0.5, 1.0, 1.5, 3.0]
            nec = [gamma_conditions(gs, g).necessary_ok for g in gammas]
            suf = [gamma_conditions(gs, g).sufficient_ok for g in gammas]
            assert nec == sorted(nec)
            assert suf == sorted(suf)

    def test_tight_threshold_fails_necessary(self):
        gs = grounded(4, 1, [1])
        cond = gamma_conditions(gs, 0.5)
        assert not cond.necessary_ok  # needs max beta > 2, have 1

    def test_integral_reciprocal_flagged(self):
        gs = grounded(5, 2, [3])
        assert gamma_conditions(gs, 1.0).boundary_case
        assert gamma_conditions(gs, 0.5).boundary_case
        assert not gamma_conditions(gs, 0.75).boundary_case


class TestMinRefs:
    @pytest.mark.parametrize("n,k,expected", [(36, 4, 4), (5, 2, 1), (37, 4, 5)])
    def test_values(self, n, k, expected):
        assert min_refs_nonexpansive(n, k) == expected


class TestDelayMargins:
    def test_p52_velocity(self):
        gs = grounded(5, 2, [3])
        margin = delay_margin_velocity(eig_sym(gs.lg))
        assert abs(margin - math.pi / (2 * (3 + SQRT2))) < 1e-12

    def test_reciprocal_case(self):
        assert abs(delay_margin_velocity(spec_of([0.1, math.pi / 2])) - 1.0) < 1e-15

    def test_p36_bracket(self):
        gs = grounded(36, 4, list(md_arrangement(36, 4).refs))
        margin = delay_margin_velocity(eig_sym(gs.lg))
        assert math.pi / 32 <= margin <= math.pi / 16

    @pytest.mark.parametrize(
        "k,expected",
        [(4, (math.pi / 32, math.pi / 8)), (1, (math.pi / 8, math.pi / 2)),
         (2, (math.pi / 16, math.pi / 4))],
    )
    def test_k_bounds(self, k, expected):
        suff, nec = delay_bounds_k(k)
        assert (suff, nec) == pytest.approx(expected, abs=1e-15)

    def test_formation_margins_p36(self):
        gs = grounded(36, 4, list(md_arrangement(36, 4).refs))
        fdm = delay_margin_formation(eig_sym(gs.lg), 4)
        assert fdm.k_bound == 1.0 / 16.0
        assert fdm.rho_bound >= fdm.k_bound

    def test_formation_margins_p52(self):
        gs = grounded(5, 2, [3])
        fdm = delay_margin_formation(eig_sym(gs.lg), 2)
        assert abs(fdm.rho_bound - 0.34683642620056965) < 1e-9

    def test_formation_margins_branch_point(self):
        fdm = delay_margin_formation(spec_of([4.0]), 1)
        assert fdm.rho_bound == 0.5
        assert fdm.k_bound == 0.25

    def test_md_rho_bound_dominates_k_bound(self):
        # 1/rho(B) >= 1/(4k): rho(B) <= lambda_max <= 2 dmax_f <= 4k
        rng = np.random.default_rng(71)
        for _ in range(40):
            n = int(rng.integers(2, 80))
            k = int(rng.integers(1, 7))
            refset = md_arrangement(n, k)
            if not refset.followers:
                continue
            gs = ground(build_platoon(n, k), refset)
            fdm = delay_margin_formation(eig_sym(gs.lg), k)
            assert fdm.rho_bound >= fdm.k_bound - 1e-12

    def test_velocity_margin_degree_bracket_random(self):
        rng = np.random.default_rng(55)
        for _ in range(60):
            _, _, gs = random_grounded(rng, n_hi=40)
            margin = delay_margin_velocity(eig_sym(gs.lg))
            assert math.pi / (4 * gs.dmax_f) - 1e-12 <= margin
            assert margin <= math.pi / (2 * gs.dmax_f) + 1e-12


def closed_form_cases():
    """(k, Lg) of 500 seeded random platoons, the spectra [4], [4, 4] and [1]
    as diagonal Lg, and P(8,1) with reference {1}."""
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(500):
        top, _, gs = random_grounded(rng, n_hi=59, k_hi=7, f_max=30)
        cases.append((top.k, gs.lg))
    cases += [(1, np.diag(values)) for values in ([4.0], [4.0, 4.0], [1.0])]
    return cases + [(1, grounded(8, 1, [1]).lg)]


class TestFormationClosedForms:
    """Each formation metric reads only the modes of lambda_1 and lambda_max;
    each is checked here against a value taken over every mode."""

    def test_matches_all_mode_oracles(self):
        for k, lg in closed_form_cases():
            spec = eig_sym(lg)
            fdm = delay_margin_formation(spec, k)
            every_peak = max(peak_amplitude(float(lam)) for lam in spec.values)
            assert hinf_formation(spec) == pytest.approx(every_peak, rel=1e-12), lg
            every_re = np.min(np.abs(formation_modes(spec.values).real))
            assert margin_formation(spec) == pytest.approx(every_re, rel=1e-12), lg
            # defective double roots at lam = 4 put dense eigenvalues off by ~1e-8
            dense = np.linalg.eigvals(build_formation_matrix(SimpleNamespace(lg=lg)))
            assert 1.0 / fdm.rho_bound == pytest.approx(np.max(np.abs(dense)), rel=1e-7), lg
            assert fdm.exact == pytest.approx(formation_modal_delay_margin(spec.values), rel=1e-12), lg

    def test_rho_bound_not_sufficient_below_four(self):
        # P(8,1) ref {1}: lambda_max ~= 3.83 < 4, and 1/rho(B) exceeds the margin
        spec = eig_sym(grounded(8, 1, [1]).lg)
        fdm = delay_margin_formation(spec, 1)
        assert abs(fdm.exact - 0.500915022789) < 1e-12
        assert fdm.rho_bound > 0.511 > fdm.exact


class TestReportModesOnce:
    """A report maps lambda_1 and lambda_max once and reads its formation
    stability and delay margins from those four modes."""

    def test_extreme_modes_equal_two_eigenvalue_map(self):
        for _, lg in closed_form_cases():
            spec = eig_sym(lg)
            two = formation_modes([spec.lambda1, spec.lambda_max])
            assert np.array_equal(_extreme_modes(spec).view(np.uint64), two.view(np.uint64)), lg

    def test_report_margins_equal_public_functions(self):
        rng = np.random.default_rng(404)
        cases = [random_grounded(rng, n_hi=60, k_hi=6) for _ in range(60)]
        for n, k, refs in [(36, 4, None), (12, 3, None), (10, 4, [1, 3, 5, 7, 9]), (8, 1, [1]),
                           (2, 1, [1])]:
            refset = md_arrangement(n, k) if refs is None else make_reference_set(n, refs)
            cases.append((build_platoon(n, k), refset, ground(build_platoon(n, k), refset)))
        for top, refset, gs in cases:
            spec = eig_sym(gs.lg)
            report = build_report(top, refset, gs=gs, spec=spec)
            fdm = delay_margin_formation(spec, top.k)
            assert report.margin_formation == margin_formation(spec)
            assert report.delay_formation_exact == fdm.exact
            assert report.delay_formation_k_sufficient == fdm.k_bound


class TestMismatchRefused:
    """A grounded system or a spectrum of another platoon is refused, not
    mixed into the report of this one."""

    TOP, REFSET = build_platoon(36, 4), md_arrangement(36, 4)
    SPEC12 = eig_sym(ground(build_platoon(12, 3), md_arrangement(12, 3)).lg)

    @pytest.mark.parametrize("other", [
        ground(build_platoon(12, 3), md_arrangement(12, 3)),
        ground(build_platoon(36, 3), md_arrangement(36, 4)),
        ground(build_platoon(36, 4), make_reference_set(36, [5, 14, 23, 33])),
    ], ids=["n", "k", "refs"])
    def test_report_refuses_grounded_system_of_another_platoon(self, other):
        with pytest.raises(ParameterError, match=r"grounded system has \(n, k, refs\)"):
            build_report(self.TOP, self.REFSET, gs=other)

    def test_report_refuses_spectrum_of_another_size(self):
        with pytest.raises(ParameterError, match="10 eigenvalues for 32 followers"):
            build_report(self.TOP, self.REFSET, spec=self.SPEC12)

    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_sweep_refuses_spectrum_of_another_size(self, dynamics):
        gs = ground(self.TOP, self.REFSET)
        with pytest.raises(ParameterError, match="10 eigenvalues for 32 followers"):
            sweep_hinf(gs, dynamics, spec=self.SPEC12)


class TestGainBoundsChain:
    def test_eq16_chain_on_random_instances(self):
        rng = np.random.default_rng(61)
        for _ in range(120):
            _, _, gs = random_grounded(rng, n_hi=40)
            spec = eig_sym(gs.lg)
            gain = hinf_velocity(spec)
            lower1 = 1.0 / gs.betas.max()
            lower2 = gs.n_followers / gs.boundary_size
            assert lower1 <= lower2 + 1e-12
            assert lower2 <= gain + 1e-9
            if gs.betas.min() > 0:
                assert gain <= 1.0 / gs.betas.min() + 1e-9

    def test_md_keeps_velocity_gain_nonexpansive(self):
        for n, k in [(12, 1), (50, 2), (120, 3), (300, 10), (37, 4), (299, 6)]:
            refset = md_arrangement(n, k)
            gs = ground(build_platoon(n, k), refset)
            assert hinf_velocity(eig_sym(gs.lg)) <= 1.0 + 1e-9
            assert len(refset.refs) == min_refs_nonexpansive(n, k)


class TestReport:
    def test_p36_report_fields(self):
        top = build_platoon(36, 4)
        refset = md_arrangement(36, 4)
        report = build_report(top, refset, gamma=1.01, with_sweep=True)
        doc = json.loads(report.to_json())
        assert doc["n"] == 36 and doc["k"] == 4
        assert doc["refs"] == [5, 14, 23, 32]
        assert doc["min_refs_nonexpansive"] == 4
        assert abs(doc["lambda1"] - 1.0) <= 1e-9
        assert abs(doc["hinf_velocity"] - 1.0) <= 1e-9
        assert abs(doc["hinf_formation"] - TWO_OVER_SQRT3) <= 1e-9
        assert abs(doc["margin_formation_lb"] - 0.5) <= 1e-9
        assert abs(doc["delay_velocity_max"] - math.pi / (2 * doc["lambda_max"])) <= 1e-12
        assert doc["delay_k_sufficient"] == pytest.approx(math.pi / 32)
        assert doc["delay_formation_k_sufficient"] == 0.0625
        assert doc["certificates"]["lambda_min"]["holds"] is True
        assert doc["certificates"]["lambda_max"]["holds"] is True
        assert doc["gamma"]["necessary_ok"] is True
        assert len(doc["lg_spectrum"]) == 32
        assert abs(doc["swept"]["velocity_peak"] - 1.0) <= 1e-4

    def test_unbounded_marker_for_zero_beta(self):
        top = build_platoon(4, 1)
        report = build_report(top, make_reference_set(4, [1]))
        doc = report.to_json_dict()
        assert doc["hinf_velocity_upper"] == "unbounded"
        assert doc["hinf_velocity"] != "unbounded"  # the true gain stays finite

    def test_report_invariants(self):
        rng = np.random.default_rng(90)
        for _ in range(15):
            top, refset, gs = random_grounded(rng, n_hi=30)
            report = build_report(top, refset, gs=gs)
            assert report.hinf_velocity == pytest.approx(1.0 / report.lambda1)
            assert report.delay_velocity_max == pytest.approx(
                math.pi / (2.0 * report.lambda_max)
            )
            assert report.min_refs_nonexpansive == math.ceil(top.n / (2 * top.k + 1))
