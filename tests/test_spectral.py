import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_grounded
from platoonkit import (
    NumericalError,
    ParameterError,
    build_formation_matrix,
    build_platoon,
    certify_lambda_max,
    certify_lambda_min,
    delay_margin_formation,
    eig_sym,
    eig_sym_bisection,
    formation_modes,
    ground,
    make_reference_set,
    md_arrangement,
    stochasticity_defect,
)
from platoonkit.spectral import (
    Spectrum,
    householder_tridiagonalize,
    spectrum_mismatch,
)

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


def grounded(n, k, refs):
    return ground(build_platoon(n, k), make_reference_set(n, refs))


def sym(rng, n, scale=5.0):
    a = rng.uniform(-scale, scale, (n, n))
    return 0.5 * (a + a.T)


class TestEigSym:
    def test_2x2_hand_values(self):
        spec = eig_sym(np.array([[2.0, -1.0], [-1.0, 1.0]]))
        expected = np.array([(3 - SQRT5) / 2, (3 + SQRT5) / 2])
        assert np.max(np.abs(spec.values - expected)) < 1e-12

    def test_identity(self):
        spec = eig_sym(np.eye(4))
        assert np.max(np.abs(spec.values - 1.0)) < 1e-14

    def test_p52_grounded_spectrum(self):
        gs = grounded(5, 2, [3])
        spec = eig_sym(gs.lg)
        expected = np.array([1.0, 3 - SQRT2, 3.0, 3 + SQRT2])
        assert np.max(np.abs(spec.values - expected)) < 1e-10
        # independent oracle agrees
        assert np.max(np.abs(eig_sym_bisection(gs.lg) - expected)) < 1e-10

    def test_rejects_non_symmetric(self):
        with pytest.raises(ParameterError, match="not symmetric"):
            eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # symmetric in the NaN sense too: both off-diagonal entries are bad
        with pytest.raises(ParameterError, match="non-finite"):
            eig_sym(np.array([[1.0, bad], [bad, 2.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_oracle_rejects_non_finite(self, bad):
        # the bisection's max(hi - lo) > tol is false for NaN, so without
        # the check it would return NaN eigenvalues at once
        with pytest.raises(ParameterError, match="non-finite"):
            eig_sym_bisection(np.array([[1.0, bad], [bad, 2.0]]))
        with pytest.raises(ParameterError, match="non-finite"):
            eig_sym_bisection(np.array([[bad, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 3.0]]))

    @pytest.mark.parametrize("solver", [eig_sym, eig_sym_bisection, householder_tridiagonalize])
    def test_every_entry_point_rejects_a_non_square_matrix(self, solver):
        with pytest.raises(ParameterError, match="square"):
            solver(np.ones((2, 3)))
        with pytest.raises(ParameterError, match="square"):
            solver(np.ones(3))

    def test_empty_matrix_has_no_eigenvalues(self):
        assert len(eig_sym(np.zeros((0, 0)))) == 0
        assert len(eig_sym_bisection(np.zeros((0, 0)))) == 0

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        with pytest.raises(NumericalError, match="did not converge"):
            eig_sym(np.array([[2.0, -1.0], [-1.0, 1.0]]))

    def test_values_sorted_ascending(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            spec = eig_sym(sym(rng, int(rng.integers(1, 20))))
            assert np.all(np.diff(spec.values) >= 0.0)

    def test_oracle_equivalence_random(self):
        # LAPACK vs Householder+Sturm-bisection on random symmetric matrices
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(200):
            a = sym(rng, int(rng.integers(1, 31)))
            diff = np.abs(eig_sym(a).values - eig_sym_bisection(a))
            worst = max(worst, float(diff.max()))
        assert worst <= 1e-9

    def test_trace_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            _, _, gs = random_grounded(rng, n_hi=40)
            spec = eig_sym(gs.lg)
            tr = float(np.trace(gs.lg))
            assert abs(tr - spec.values.sum()) <= 1e-8 * max(1.0, abs(tr))


class TestCertificates:
    def test_p52_all_links_tight(self):
        gs = grounded(5, 2, [3])
        cert = certify_lambda_min(gs, eig_sym(gs.lg))
        assert cert.holds
        assert cert.lower == 1.0 and cert.upper == 1.0
        assert abs(cert.witnessed - 1.0) < 1e-10
        names = [name for name, _ in cert.chain]
        assert names == [
            "min_beta", "lambda1", "boundary_over_followers", "max_beta", "refs_count",
        ]
        values = [v for _, v in cert.chain]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_p36_md_pinches_lambda1_to_one(self):
        gs = grounded(36, 4, list(md_arrangement(36, 4).refs))
        cert = certify_lambda_min(gs, eig_sym(gs.lg))
        assert cert.holds
        assert cert.lower == 1.0 and cert.upper == 1.0
        assert abs(cert.witnessed - 1.0) <= 1e-9

    def test_zero_beta_lower_bound_still_holds(self):
        gs = grounded(4, 1, [1])
        cert = certify_lambda_min(gs, eig_sym(gs.lg))
        assert cert.lower == 0.0
        assert cert.witnessed > 0.0
        assert cert.holds

    def test_p52_lambda_max_bracket(self):
        gs = grounded(5, 2, [3])
        cert = certify_lambda_max(gs, eig_sym(gs.lg))
        assert cert.lower == 3.0 and cert.upper == 6.0
        assert abs(cert.witnessed - (3 + SQRT2)) < 1e-10
        assert cert.holds

    def test_single_follower(self):
        gs = grounded(2, 1, [1])
        cert = certify_lambda_max(gs, eig_sym(gs.lg))
        assert cert.lower == 1.0 and cert.upper == 2.0 and cert.holds

    def test_both_chains_hold_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(150):
            _, _, gs = random_grounded(rng)
            spec = eig_sym(gs.lg)
            lo = certify_lambda_min(gs, spec)
            hi = certify_lambda_max(gs, spec)
            assert lo.holds and hi.holds
            # every link of the min chain, in order
            vals = [v for _, v in lo.chain]
            assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))


class TestFormationSpectrum:
    def test_branch_point_double_root(self):
        fs = formation_modes([4.0])
        assert np.array_equal(fs, np.array([-2.0 + 0j, -2.0 + 0j]))

    def test_unit_eigenvalue_complex_pair(self):
        fs = formation_modes([1.0])
        expected = np.array([complex(-0.5, -math.sqrt(3) / 2), complex(-0.5, math.sqrt(3) / 2)])
        assert np.max(np.abs(fs - expected)) < 1e-15
        assert np.max(np.abs(np.abs(fs) - 1.0)) < 1e-15

    def test_real_branch(self):
        fs = formation_modes([5.0])
        expected = np.array([(-5 - SQRT5) / 2, (-5 + SQRT5) / 2])
        assert np.max(np.abs(fs - expected)) < 1e-14

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            formation_modes([0.0, 1.0])
        with pytest.raises(ParameterError):
            formation_modes([-1.0])

    def test_rejects_empty(self):
        with pytest.raises(ParameterError, match="empty spectrum"):
            formation_modes([])

    def test_closed_under_conjugation_and_strictly_stable(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            _, _, gs = random_grounded(rng, n_hi=30)
            fs = formation_modes(eig_sym(gs.lg).values)
            a = np.sort_complex(fs)
            b = np.sort_complex(np.conj(fs))
            assert np.max(np.abs(a - b)) < 1e-12
            assert np.all(fs.real < 0.0)

    def test_real_parts_bounded_by_half_lambda1(self):
        # valid for lambda1 <= 2 (every minimally dense arrangement qualifies);
        # densely referenced systems with lambda1 > 2 can have a real-branch
        # root from lambda_max closer to the axis than -lambda1/2
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 50:
            _, _, gs = random_grounded(rng, n_hi=40)
            spec = eig_sym(gs.lg)
            if spec.lambda1 > 2.0:
                continue
            fs = formation_modes(spec.values)
            assert np.all(fs.real <= -spec.lambda1 / 2.0 + 1e-9)
            checked += 1

    def test_real_parts_md_arrangements(self):
        for n, k in [(36, 4), (50, 2), (17, 1)]:
            gs = ground(build_platoon(n, k), md_arrangement(n, k))
            spec = eig_sym(gs.lg)
            fs = formation_modes(spec.values)
            assert np.all(fs.real <= -spec.lambda1 / 2.0 + 1e-9)
            assert np.all(fs.real < 0.0)


def formation_radius(values) -> float:
    """rho(B), as the reciprocal of the rho_bound read from lambda_max."""
    spec = Spectrum(values=np.asarray(values, dtype=float))
    return 1.0 / delay_margin_formation(spec, 1).rho_bound


class TestSpectralRadius:
    def test_p52_matches_closed_form(self):
        gs = grounded(5, 2, [3])
        rho = formation_radius(eig_sym(gs.lg).values)
        # the dominant real root (lam/2)(1 + sqrt(1 - 4/lam)) of lambda_max >= 4
        lam = 3 + SQRT2
        assert abs(rho - lam / 2.0 * (1.0 + (1.0 - 4.0 / lam) ** 0.5)) < 1e-10
        assert abs(rho - 2.8832035059135253) < 1e-9

    def test_all_fours(self):
        assert formation_radius([4.0, 4.0]) == 2.0

    def test_single_unit_eigenvalue(self):
        assert abs(formation_radius([1.0]) - 1.0) < 1e-15


class TestFormationMatrix:
    def test_single_follower_blocks(self):
        gs = grounded(3, 1, [1, 3])  # one follower with two reference neighbors
        assert np.array_equal(gs.lg, [[2]])
        b = build_formation_matrix(gs)
        assert np.array_equal(b, [[0.0, 1.0], [-2.0, -2.0]])
        eig = np.sort_complex(np.linalg.eigvals(b))
        assert np.max(np.abs(eig - np.array([-1 - 1j, -1 + 1j]))) < 1e-12

    def test_double_root_case(self):
        gs = grounded(5, 4, [1, 2, 4, 5])  # K5 center follower: lg = [4]
        assert np.array_equal(gs.lg, [[4]])
        eig = np.linalg.eigvals(build_formation_matrix(gs))
        assert np.max(np.abs(eig - (-2.0))) < 1e-6  # defective double root

    def test_p52_multiset_matches_mapping(self):
        gs = grounded(5, 2, [3])
        mapped = formation_modes(eig_sym(gs.lg).values)
        dense = np.linalg.eigvals(build_formation_matrix(gs))
        assert dense.shape == (8,)
        assert spectrum_mismatch(mapped, dense) < 1e-7

    def test_mapping_oracle_on_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            _, _, gs = random_grounded(rng, n_hi=30, f_max=20)
            mapped = formation_modes(eig_sym(gs.lg).values)
            dense = np.linalg.eigvals(build_formation_matrix(gs))
            assert spectrum_mismatch(mapped, dense) < 1e-7

    def test_spectrum_mismatch_rejects_size_mismatch(self):
        with pytest.raises(ParameterError):
            spectrum_mismatch([1.0], [1.0, 2.0])


class TestStochasticity:
    def test_p52(self):
        assert stochasticity_defect(grounded(5, 2, [3])) <= 1e-10

    def test_p31_exact(self):
        assert stochasticity_defect(grounded(3, 1, [1])) == 0.0

    def test_scalar_case(self):
        assert stochasticity_defect(grounded(3, 1, [1, 2])) == 0.0

    def test_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            _, _, gs = random_grounded(rng, n_hi=40)
            assert stochasticity_defect(gs) <= 1e-9

    def test_singular_grounded_laplacian_is_numerical_error(self):
        # an ungrounded follower block: a zero row, so no solve
        gs = SimpleNamespace(lg=np.zeros((2, 2)), l12=np.ones((2, 1)))
        with pytest.raises(NumericalError, match="grounded Laplacian is singular"):
            stochasticity_defect(gs)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=6))
@settings(max_examples=60)
def test_md_certificates_hold(n, k):
    refset = md_arrangement(n, k)
    if not refset.followers:
        return
    gs = ground(build_platoon(n, k), refset)
    spec = eig_sym(gs.lg)
    assert certify_lambda_min(gs, spec).holds
    assert certify_lambda_max(gs, spec).holds
