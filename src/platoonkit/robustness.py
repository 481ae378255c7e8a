"""Closed-form robustness metrics and their frequency-sweep cross-checks.

Everything here is a pure function of the grounded spectrum and the graph
statistics: worst-case disturbance gains for the velocity-tracking and
formation dynamics, stability margins, exact delay margins for both (one
modal formula, delay_margin_exact) and bounds on the formation one, the
reference-count threshold for a non-expansive velocity gain, and the
gamma-threshold predicates on the beta statistics.  Every formation metric
reads the modes of lambda_1 and lambda_max only, mapped once per report.

Unbounded gains are represented as ``math.inf`` in memory and serialized as
the explicit string marker ``"unbounded"`` in JSON reports.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import errors
from .errors import ParameterError
from .spectral import (
    BoundCertificate,
    Spectrum,
    certify_lambda_max,
    certify_lambda_min,
    eig_sym,
    formation_modes,
)
from .topology import GroundedSystem, PlatoonTopology, ReferenceSet, ground

#: eigenvalues at or below this are treated as an ungrounded (singular) system
GROUNDING_TOL = 1e-12

#: JSON marker for unbounded gains / vacuous upper bounds
UNBOUNDED = "unbounded"

#: the two error dynamics, in the order reports list them
DYNAMICS = ("velocity", "formation")

#: gamma must lie above this, the largest gamma whose 1/gamma overflows
GAMMA_MIN = 1.0 / sys.float_info.max


def hinf_velocity(spec: Spectrum) -> float:
    """Worst-case disturbance-to-velocity-error gain: exactly 1 / lambda_1.

    Returns math.inf when lambda_1 <= 1e-12 (no grounding, unbounded gain).
    """
    lam1 = spec.lambda1
    if lam1 <= GROUNDING_TOL:
        return math.inf
    return 1.0 / lam1


def peak_amplitude(lam: float) -> float:
    """Peak frequency-response magnitude of the scalar mode
    1 / (s^2 + lam*s + lam):

        2 / (lam^{3/2} sqrt(4 - lam))   if lam <= 2   (interior peak)
        1 / lam                          otherwise     (peak at omega = 0)

    Both branches agree at lam = 2 (value 1/2).  It decreases on (0, inf), as
    d/dlam log(lam^{3/2} sqrt(4 - lam)) = 3/(2 lam) - 1/(2 (4 - lam)) > 0 for lam < 3.
    """
    if errors.check("eigenvalue lam", lam, 0.0, strict=True) <= 2.0:
        return 2.0 / (lam ** 1.5 * math.sqrt(4.0 - lam))
    return 1.0 / lam


def hinf_formation(spec: Spectrum) -> float:
    """Worst-case disturbance-to-position-error gain of the formation dynamics:
    the max of peak_amplitude over the spectrum, at lambda_1 as it decreases."""
    if spec.lambda1 <= GROUNDING_TOL:
        raise ParameterError("formation gain needs a strictly positive spectrum")
    return peak_amplitude(spec.lambda1)


def _extreme_modes(spec: Spectrum) -> np.ndarray:
    """Formation modes mu (roots of mu^2 + lam*mu + lam) of lambda_1 and
    lambda_max.  While lam < 4 (complex pair, |mu| = sqrt(lam)) the per-mode
    delay margin arcsin(sqrt(lam)/2)/sqrt(lam) and |Re mu| = lam/2 rise; for
    lam >= 4 (real pair, |mu_+-| = (lam -+ sqrt(lam^2 - 4 lam))/2) the
    margin pi/(2|mu_-|) and the smaller |Re mu| = |mu_+| fall.  So both are
    least at lambda_1 or lambda_max, and rho(B) = |mu|max, which increases
    in lam, is reached at lambda_max."""
    return formation_modes([spec.lambda1, spec.lambda_max])


def margin_formation(spec: Spectrum) -> float:
    """Stability margin of the formation dynamics: min |Re mu| (see _extreme_modes)."""
    return float(np.min(np.abs(_extreme_modes(spec).real)))


# ---------------------------------------------------------------------------
# Frequency sweep: the modal reduction sampled over frequency.  It reads the
# same spectrum as the closed forms above, so it checks where in omega the
# peak lies and how high it is, but not the eigenvalues themselves.
# ---------------------------------------------------------------------------

#: base frequency grid of every sweep, rad/s: 4000 log-spaced points over [1e-4, 1e3]
SWEEP_OMEGAS = np.logspace(math.log10(1e-4), math.log10(1e3), 4000)
#: the velocity sweep's fixed grid, omega = 0 then SWEEP_OMEGAS, and j*omega on it
_VELOCITY_OMEGAS = np.concatenate([[0.0], SWEEP_OMEGAS])
_VELOCITY_JW = 1j * _VELOCITY_OMEGAS
_VELOCITY_OMEGAS.flags.writeable = _VELOCITY_JW.flags.writeable = False


@dataclass(frozen=True)
class FrequencyResponse:
    """Sampled largest singular value of the disturbance transfer matrix."""

    omegas: np.ndarray
    gains: np.ndarray
    peak_omega: float
    peak_gain: float


def sweep_hinf(
    gs: GroundedSystem,
    dynamics: str,
    spec: Spectrum | None = None,
) -> FrequencyResponse:
    """Sweep the largest singular value of the disturbance transfer matrix
    over SWEEP_OMEGAS, augmented with the analytic stationary frequencies so
    the sampled peak touches the true peak: omega = 0 for the velocity
    dynamics, omega^2 = lam(1 - lam/2) for every formation eigenvalue lam <= 2,
    and omega = 0 for the formation dynamics when lambda_1 > 2 (the peak
    1/lambda_1 of peak_amplitude's DC branch).

    Because lg is symmetric, both transfer matrices diagonalize in its
    eigenbasis, so the largest singular value at each frequency reduces to a
    max over scalar modes:

        velocity:   max_i 1 / |j*omega + lam_i|
        formation:  max_i 1 / |-omega^2 + lam_i * (1 + j*omega)|

    Each max is taken over at most two modes of the ascending spectrum, which
    is exact: |lam + j*omega|^2 = lam^2 + omega^2 increases for lam >= 0, so
    lambda_1 holds every velocity maximum, on a grid built once (read-only);
    |lam(1 + j*omega) - omega^2|^2 = (1 + omega^2) lam^2 - 2 omega^2 lam + omega^4
    is convex in lam with its minimum at lam* = omega^2 / (1 + omega^2), so
    the smallest formation denominator sits on one of the two eigenvalues
    that bracket lam*.  While lam* ascends along the grid, lams[i] < lam*[j]
    exactly when j >= q[i] = searchsorted(lam*, lams[i], "right"): a summed
    bincount of q counts the eigenvalues below every lam*.  Before q[0] and
    from q[-1] on the pair is one eigenvalue, so its second denominator is
    skipped (a grid rounding leaves out of order takes a search per omega).
    1/x is correctly rounded and monotone: 1/min(a, b) == max(1/a, 1/b).

    Args:
        gs: grounded system (lambda_1 must be > 0).
        dynamics: "velocity" or "formation".
        spec: optionally a precomputed spectrum of gs.lg.

    Returns:
        FrequencyResponse over the augmented, ascending grid.
    """
    if dynamics not in DYNAMICS:
        raise ParameterError(f"dynamics must be one of {DYNAMICS}, got {dynamics!r}")
    spec = eig_sym(gs.lg) if spec is None else spec
    if spec.lambda1 <= GROUNDING_TOL:
        raise ParameterError("sweep needs a grounded system (lambda_1 > 0)")
    if len(spec) != gs.n_followers:
        raise ParameterError(f"spectrum of {len(spec)} eigenvalues for {gs.n_followers} followers")
    lams = np.asarray(spec.values, dtype=float)
    if dynamics == "velocity":  # omega = 0 holds the velocity peak
        omegas, denom = _VELOCITY_OMEGAS, np.abs(_VELOCITY_JW + lams[0])
    else:
        # omega = 0 holds the formation peak if lambda_1 > 2
        low = lams[lams <= 2.0]
        extra = np.sqrt(low * (1.0 - low / 2.0)) if len(low) else np.zeros(1)
        omegas = np.unique(np.concatenate([SWEEP_OMEGAS, extra]))
        w2, jw = omegas ** 2, 1.0 + 1j * omegas
        star = w2 / (1.0 + w2)
        if (star[1:] >= star[:-1]).all():
            q = np.searchsorted(star, lams, side="right")
            above, two = np.cumsum(np.bincount(q, minlength=len(star) + 1)[:-1]), slice(q[0], q[-1])
        else:
            above, two = np.searchsorted(lams, star), slice(None)
        denom = np.abs(-w2 + lams.take(above, mode="clip") * jw)
        lo = lams.take(above[two] - 1, mode="clip")
        np.minimum(denom[two], np.abs(-w2[two] + lo * jw[two]), out=denom[two])
    gains = 1.0 / denom
    ipeak = int(np.argmax(gains))
    return FrequencyResponse(
        omegas=omegas,
        gains=gains,
        peak_omega=float(omegas[ipeak]),
        peak_gain=float(gains[ipeak]),
    )


def swept_peaks(responses: dict) -> dict:
    """A report's `swept` entries from {dynamics: FrequencyResponse}: each
    dynamics' sampled peak gain and the frequency it is reached at."""
    swept = {}
    for dyn, fr in responses.items():
        swept[f"{dyn}_peak"] = fr.peak_gain
        swept[f"{dyn}_peak_omega"] = fr.peak_omega
    return swept


# ---------------------------------------------------------------------------
# Threshold predicates and margins
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaConditions:
    """Literal floor/ceiling predicates for a gain threshold gamma.

    necessary_ok:  max beta > floor(1/gamma)  (necessary for gain < gamma)
    sufficient_ok: min beta > ceil(1/gamma)   (sufficient for gain < gamma)

    boundary_case flags gammas with 1/gamma integral, where the strict
    ceiling reading is conservative: min beta >= 1/gamma already suffices for
    gain <= gamma at such thresholds.
    """

    gamma: float
    necessary_ok: bool
    sufficient_ok: bool
    boundary_case: bool


def gamma_conditions(gs: GroundedSystem, gamma: float) -> GammaConditions:
    inv = 1.0 / errors.check("gamma", gamma, GAMMA_MIN, strict=True)
    boundary = abs(inv - round(inv)) < 1e-12
    return GammaConditions(
        gamma=gamma,
        necessary_ok=bool(gs.betas.max() > math.floor(inv)),
        sufficient_ok=bool(gs.betas.min() > math.ceil(inv)),
        boundary_case=boundary,
    )


def min_refs_nonexpansive(n: int, k: int) -> int:
    """Fewest references for which some arrangement achieves a velocity gain
    of at most one: ceil(n / (2k + 1)); fewer references make it impossible."""
    n = errors.check("vehicle count n", n, 1, integer=True)
    return math.ceil(n / (2 * errors.check("connectivity index k", k, 1, integer=True) + 1))


def delay_margin_exact(mu) -> float:
    """Exact delay margin of x' = M x(t - tau), M diagonalizable with
    eigenvalues mu: the min over modes of (|arg mu| - pi/2)/|mu|, the delay
    at which a root of the mode x' = mu x(t - tau) reaches s = i|mu|.

    Raises:
        ParameterError: on no mode, or on a mode that is zero or not finite.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=complex))
    errors.check("number of modes", mu.size, 1)
    size = np.abs(mu)
    # min and max pass NaN on, so every mode is checked
    errors.check("largest mode magnitude |mu|", float(size.max()))
    errors.check("smallest mode magnitude |mu|", float(size.min()), 0.0, strict=True)
    return float(np.min((np.abs(np.angle(mu)) - math.pi / 2.0) / size))


def delay_margin_velocity(spec: Spectrum) -> float:
    """Exact critical constant delay of the fully delayed velocity dynamics:
    its modes are -lam, so delay_margin_exact reads only mu = -lambda_max,
    giving pi / (2 lambda_max).  Stability holds iff tau is strictly below it."""
    lam = spec.lambda_max
    if lam <= GROUNDING_TOL:
        raise ParameterError("delay margin needs lambda_max > 0")
    return delay_margin_exact(-lam)


def delay_bounds_k(k: int) -> tuple:
    """Connectivity-only delay brackets for the velocity dynamics:
    stable if tau <= pi/(8k), unstable if tau > pi/(2k)."""
    k = errors.check("connectivity index k", k, 1, integer=True)
    return math.pi / (8.0 * k), math.pi / (2.0 * k)


@dataclass(frozen=True)
class FormationDelayMargin:
    """The exact delay margin of the fully delayed formation dynamics
    xdot = B x(t - tau), delay_margin_exact of the modes mu of B (see
    _extreme_modes), and two bounds on it.  Real modes (lam >= 4) give
    pi / (2|mu|); complex ones (lam < 4) a value in [1/2, pi/4).  Hence:

    * rho_bound = 1/rho(B) is sufficient whenever lambda_max >= 4 (then
      rho(B) >= 2, so 1/rho(B) <= 1/2), but not in general: on P(8,1) with
      reference {1} (lambda_max ~= 3.83) it is 0.5112 against 0.5009.
    * pi / (2 rho(B)) is exact whenever rho(B) >= pi (the largest mode is
      then real, and pi / (2 rho(B)) <= 1/2).
    * k_bound = 1/(4k) is always sufficient: it is <= 1/4, below every
      complex-mode margin, and lambda_max <= 4k keeps it below every
      real-mode margin pi / (2|mu|), since |mu| <= lam there.
    """

    exact: float
    rho_bound: float
    k_bound: float


def delay_margin_formation(spec: Spectrum, k: int) -> FormationDelayMargin:
    k = errors.check("connectivity index k", k, 1, integer=True)
    modes = _extreme_modes(spec)
    rho = float(np.max(np.abs(modes)))
    return FormationDelayMargin(delay_margin_exact(modes), 1.0 / rho, 1.0 / (4.0 * k))


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------

def _jsonable(x):
    """x with arrays and tuples as lists, and inf as UNBOUNDED, at any depth."""
    if isinstance(x, dict):
        return {key: _jsonable(value) for key, value in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in (x.tolist() if isinstance(x, np.ndarray) else x)]
    return UNBOUNDED if isinstance(x, float) and math.isinf(x) else x


@dataclass(frozen=True)
class RobustnessReport:
    """All robustness quantities of one grounded platoon, with provenance."""

    n: int
    k: int
    refs: tuple
    lambda1: float
    lambda_max: float
    hinf_velocity: float
    hinf_formation: float
    margin_velocity: float
    # lambda1/2 lower-bounds margin_formation whenever lambda1 <= 2 (always under MD)
    margin_formation_lb: float
    margin_formation: float
    delay_velocity_max: float
    delay_formation_exact: float
    delay_formation_k_sufficient: float
    delay_k_sufficient: float
    delay_k_necessary: float
    min_refs_nonexpansive: int
    beta_min: int
    beta_max: int
    boundary_size: int
    dmax_f: int
    hinf_velocity_lower: float
    hinf_velocity_upper: float  # math.inf when min beta = 0
    lg_spectrum: np.ndarray  # ascending, as the eigensolver returned it
    lambda_min_certificate: BoundCertificate
    lambda_max_certificate: BoundCertificate
    gamma: GammaConditions | None = None
    swept: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = _jsonable(asdict(self))
        out["followers_count"] = self.n - len(self.refs)
        out["certificates"] = {"lambda_min": out.pop("lambda_min_certificate"),
                               "lambda_max": out.pop("lambda_max_certificate")}
        for key in ("gamma", "swept"):  # written only when asked for
            if not out[key]:
                del out[key]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def build_report(
    topology: PlatoonTopology,
    refset: ReferenceSet,
    gs: GroundedSystem | None = None,
    spec: Spectrum | None = None,
    gamma: float | None = None,
    with_sweep: bool = False,
) -> RobustnessReport:
    """Compute every robustness quantity for one platoon + reference set."""
    if gs is None:
        gs = ground(topology, refset)
    elif (have := (gs.n, gs.k, gs.refs)) != (want := (topology.n, topology.k, refset.refs)):
        raise ParameterError(f"grounded system has (n, k, refs) = {have}, the platoon {want}")
    spec = eig_sym(gs.lg) if spec is None else spec
    lam1, lam_max = spec.lambda1, spec.lambda_max
    if len(spec) != gs.n_followers:
        raise ParameterError(f"spectrum of {len(spec)} eigenvalues for {gs.n_followers} followers")
    beta_min = int(gs.betas.min())
    beta_max = int(gs.betas.max())
    ksuff, kness = delay_bounds_k(topology.k)
    modes = _extreme_modes(spec)
    sweeps = {dyn: sweep_hinf(gs, dyn, spec=spec) for dyn in DYNAMICS} if with_sweep else {}
    return RobustnessReport(
        n=topology.n,
        k=topology.k,
        refs=refset.refs,
        lambda1=lam1,
        lambda_max=lam_max,
        hinf_velocity=hinf_velocity(spec),
        hinf_formation=hinf_formation(spec),
        margin_velocity=lam1,
        margin_formation_lb=lam1 / 2.0,
        margin_formation=float(np.min(np.abs(modes.real))),
        delay_velocity_max=delay_margin_velocity(spec),
        delay_formation_exact=delay_margin_exact(modes),
        delay_formation_k_sufficient=1.0 / (4.0 * topology.k),
        delay_k_sufficient=ksuff,
        delay_k_necessary=kness,
        min_refs_nonexpansive=min_refs_nonexpansive(topology.n, topology.k),
        beta_min=beta_min,
        beta_max=beta_max,
        boundary_size=gs.boundary_size,
        dmax_f=gs.dmax_f,
        hinf_velocity_lower=gs.n_followers / gs.boundary_size,
        hinf_velocity_upper=(1.0 / beta_min) if beta_min > 0 else math.inf,
        lg_spectrum=spec.values,
        lambda_min_certificate=certify_lambda_min(gs, spec),
        lambda_max_certificate=certify_lambda_max(gs, spec),
        gamma=(gamma_conditions(gs, gamma) if gamma is not None else None),
        swept=swept_peaks(sweeps),
    )
