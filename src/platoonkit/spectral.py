"""Symmetric eigensolvers and the spectral machinery built on them.

Two genuinely independent eigenvalue paths are provided on purpose:

* ``eig_sym`` — the primary solver, LAPACK's symmetric eigensolver through
  ``numpy.linalg.eigvalsh``.
* ``eig_sym_bisection`` — the oracle, Householder tridiagonalization followed
  by Sturm-sequence bisection, written here from numpy array arithmetic and
  matrix products.  It calls no LAPACK routine and is used to cross-check
  ``eig_sym`` in the test suite.

On top of these sit the grounded-spectrum certificates (degree and
reference-count brackets for the extreme eigenvalues), the quadratic map from
grounded-Laplacian eigenvalues to the second-order formation spectrum, the
dense formation matrix used as an oracle for that map, and the
row-stochasticity check of the steady-state matrix -lg^{-1} l12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .topology import GroundedSystem

#: absolute slack used by certificate bracket checks
CERT_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues, finite and ascending.

    Every metric reads the extremes through lambda1 and lambda_max, which
    refuse an empty spectrum with ParameterError; non-finite or unsorted
    values are refused at construction, since those extremes and the
    frequency sweep rely on the order.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        # a NaN fails both tests, as every comparison with it is false
        if not (np.isfinite(v).all() and (v[1:] >= v[:-1]).all()):
            raise ParameterError(f"spectrum values must be finite and ascending, got {v}")

    def __len__(self) -> int:
        return len(self.values)

    def _extreme(self, i: int) -> float:
        if len(self.values) == 0:
            raise ParameterError("empty spectrum: no grounded follower")
        return float(self.values[i])

    @property
    def lambda1(self) -> float:
        return self._extreme(0)

    @property
    def lambda_max(self) -> float:
        return self._extreme(-1)


def _check_symmetric(a: np.ndarray) -> None:
    """Refuse anything but a finite square matrix, symmetric to 1e-12
    relative tolerance."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {a.shape}")
    # NaN would pass the tolerance test below, since nan > tol is false
    if not np.isfinite(a).all():
        raise ParameterError("matrix has non-finite entries")
    asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if asym > 1e-12 * scale:
        raise ParameterError(
            f"matrix is not symmetric: max |a - a.T| = {asym:.3e} exceeds "
            f"1e-12 relative tolerance"
        )


def eig_sym(m) -> Spectrum:
    """Full spectrum of a symmetric real matrix via LAPACK
    (``numpy.linalg.eigvalsh``).

    Args:
        m: symmetric real matrix (to 1e-12 relative tolerance), finite.

    Returns:
        Spectrum with ascending values.

    Raises:
        ParameterError: on a non-square, non-finite or non-symmetric matrix.
        NumericalError: if LAPACK does not converge.
    """
    a = np.array(m, dtype=float)
    _check_symmetric(a)
    try:
        return Spectrum(values=np.linalg.eigvalsh(a))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK eigensolver did not converge: {exc}") from exc


# ---------------------------------------------------------------------------
# Oracle path: Householder tridiagonalization + Sturm-sequence bisection
# ---------------------------------------------------------------------------

def householder_tridiagonalize(m) -> tuple:
    """Reduce a symmetric matrix to tridiagonal form; returns (diag, offdiag).

    Raises:
        ParameterError: on a non-square, non-finite or non-symmetric matrix.
    """
    a = np.array(m, dtype=float)
    _check_symmetric(a)
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    for kk in range(n - 2):
        x = a[kk + 1:, kk].copy()
        alpha = float(np.linalg.norm(x))
        if alpha == 0.0:
            continue
        if x[0] > 0:
            alpha = -alpha
        v = x
        v[0] -= alpha
        vnorm = float(np.linalg.norm(v))
        if vnorm == 0.0:
            continue
        v /= vnorm
        sub = a[kk + 1:, kk + 1:]
        w = sub @ v
        coef = float(v @ w)
        sub -= 2.0 * (np.outer(v, w) + np.outer(w, v)) - 4.0 * coef * np.outer(v, v)
        a[kk + 1:, kk + 1:] = sub
        a[kk + 1, kk] = alpha
        a[kk, kk + 1] = alpha
        a[kk + 2:, kk] = 0.0
        a[kk, kk + 2:] = 0.0
    d = np.diag(a).copy()
    e = np.diag(a, 1).copy() if n > 1 else np.zeros(0)
    return d, e


def sturm_count(d: np.ndarray, e: np.ndarray, xs) -> np.ndarray:
    """Number of eigenvalues of tridiag(d, e) below each shift in xs.

    Counts negative pivots of the LDL^T factorization of T - x*I; a vanishing
    pivot is replaced by a tiny negative value (and counted) before it feeds
    the next pivot, else the count goes wrong exactly when a shift hits an
    eigenvalue of a leading principal minor.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    n = len(d)
    tiny = 1e-280
    with np.errstate(over="ignore", divide="ignore"):
        q = d[0] - xs
        q = np.where(np.abs(q) < tiny, -tiny, q)
        count = (q < 0.0).astype(np.int64)
        for i in range(1, n):
            q = d[i] - xs - e[i - 1] * e[i - 1] / q
            q = np.where(np.abs(q) < tiny, -tiny, q)
            count += q < 0.0
    return count


def eig_sym_bisection(m) -> np.ndarray:
    """Ascending eigenvalues via the tridiagonalize-and-bisect oracle path,
    bisected to 1e-14 of the Gershgorin bound.

    Raises:
        ParameterError: on a non-square, non-finite or non-symmetric matrix.
    """
    d, e = householder_tridiagonalize(m)
    n = len(d)
    if n <= 1:
        return d.copy()
    rad = np.zeros(n)
    rad[0] = abs(e[0])
    rad[-1] = abs(e[-1])
    if n > 2:
        rad[1:-1] = np.abs(e[:-1]) + np.abs(e[1:])
    glo = float(np.min(d - rad))
    ghi = float(np.max(d + rad))
    tol = 1e-14 * max(abs(glo), abs(ghi), 1.0)
    lo = np.full(n, glo)
    hi = np.full(n, ghi)
    idx = np.arange(n)
    while float(np.max(hi - lo)) > tol:
        mid = 0.5 * (lo + hi)
        above = sturm_count(d, e, mid) > idx
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Extreme-eigenvalue certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCertificate:
    """A two-sided bracket for a computed eigenvalue, plus the full chain of
    graph quantities it was derived from.

    holds is exactly ``lower <= witnessed + tol and witnessed <= upper + tol``
    with tol = 1e-9; the chain records every intermediate link for reporting.
    """

    lower: float
    upper: float
    witnessed: float
    holds: bool
    chain: tuple


def _certificate(lower: float, upper: float, witnessed: float, chain) -> BoundCertificate:
    holds = (lower <= witnessed + CERT_TOL) and (witnessed <= upper + CERT_TOL)
    return BoundCertificate(
        lower=float(lower),
        upper=float(upper),
        witnessed=float(witnessed),
        holds=bool(holds),
        chain=tuple(chain),
    )


def certify_lambda_min(gs: GroundedSystem, spec: Spectrum) -> BoundCertificate:
    """Bracket the smallest grounded eigenvalue by reference-neighbor counts.

    Chain, every link of which must hold for a valid grounding:

        min beta <= lambda_1 <= |boundary| / |followers| <= max beta <= |refs|
    """
    min_beta = float(gs.betas.min())
    max_beta = float(gs.betas.max())
    ratio = gs.boundary_size / gs.n_followers
    lam1 = spec.lambda1
    chain = (
        ("min_beta", min_beta),
        ("lambda1", lam1),
        ("boundary_over_followers", ratio),
        ("max_beta", max_beta),
        ("refs_count", float(len(gs.refs))),
    )
    return _certificate(min_beta, ratio, lam1, chain)


def certify_lambda_max(gs: GroundedSystem, spec: Spectrum) -> BoundCertificate:
    """Bracket the largest grounded eigenvalue by the max follower degree:
    dmax_f <= lambda_max <= 2 dmax_f."""
    d = float(gs.dmax_f)
    lam = spec.lambda_max
    chain = (("dmax_f", d), ("lambda_max", lam), ("two_dmax_f", 2.0 * d))
    return _certificate(d, 2.0 * d, lam, chain)


# ---------------------------------------------------------------------------
# Second-order (formation) spectrum
# ---------------------------------------------------------------------------

def formation_modes(values) -> np.ndarray:
    """Map each grounded eigenvalue lam > 0 to both roots of
    mu^2 + lam*mu + lam, the eigenvalues of the formation matrix.

    Returns 2 len(values) complex numbers, a pair per eigenvalue in order,
    closed under conjugation: lam < 4 gives a complex pair of magnitude
    sqrt(lam); lam > 4 two real roots; |lam - 4| < 1e-12 the exact double
    root -2.

    Raises:
        ParameterError: if there is no eigenvalue, or any is <= 0 (grounding
            assumption violated).
    """
    lam = np.asarray(values, dtype=float)
    if lam.size == 0:
        raise ParameterError("empty spectrum")
    if lam.min() <= 0.0:
        raise ParameterError(
            f"formation mapping needs a positive spectrum, got lambda_1 = {lam.min()}"
        )
    # half the discriminant's root: imaginary on the complex branch
    half = np.sqrt(np.abs(lam * (lam - 4.0))) / 2.0
    half = np.where(lam < 4.0, 1j * half, half)
    pairs = np.column_stack((-lam / 2.0 - half, -lam / 2.0 + half))
    pairs[np.abs(lam - 4.0) < 1e-12] = -2.0
    return pairs.ravel()


def spectrum_mismatch(a, b) -> float:
    """Greedy nearest-neighbor matching distance between two complex
    multisets of equal size.

    Robust against the degenerate-eigenvalue case where lexicographic
    sorting interleaves conjugate pairs on floating-point noise.
    """
    rest = [complex(z) for z in b]
    if len(a) != len(rest):
        raise ParameterError(f"multisets differ in size: {len(a)} vs {len(rest)}")
    worst = 0.0
    for z in a:
        z = complex(z)
        i = min(range(len(rest)), key=lambda j: abs(rest[j] - z))
        worst = max(worst, abs(rest[i] - z))
        rest.pop(i)
    return worst


def build_formation_matrix(gs: GroundedSystem) -> np.ndarray:
    """Dense 2|F| x 2|F| formation error matrix, positions stacked above
    velocities:  [[0, I], [-lg, -lg]].  Reads only ``gs.lg``, so a
    ``dde_sim.SimSystem`` serves as well as a GroundedSystem."""
    lg = np.asarray(gs.lg, dtype=float)
    f = lg.shape[0]
    b = np.zeros((2 * f, 2 * f))
    b[:f, f:] = np.eye(f)
    b[f:, :f] = -lg
    b[f:, f:] = -lg
    return b


def stochasticity_defect(gs: GroundedSystem) -> float:
    """Max row-sum deviation of -lg^{-1} l12 from 1 (it is row stochastic
    whenever the platoon is connected and grounded)."""
    lg = np.asarray(gs.lg, dtype=float)
    l12 = np.asarray(gs.l12, dtype=float)
    try:
        w = np.linalg.solve(lg, -l12)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"grounded Laplacian is singular: {exc}") from exc
    return float(np.max(np.abs(w.sum(axis=1) - 1.0)))
