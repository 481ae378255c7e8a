"""Output checks of the benchmark, each against a computation made apart from
platoonkit or against a property the method must have.

Nothing here imports platoonkit.  Spectra come from a grounded Laplacian built
here from the |i - j| <= k rule and from ``numpy.linalg.eigvalsh``; the modal
formation delay margin comes from the roots of mu^2 + lam*mu + lam found with
``numpy.roots``.  Every check returns a list of problems, empty when the
output is right, so tests can show that each one rejects a wrong input.
"""

from __future__ import annotations

import math

import numpy as np

#: absolute tolerance on eigenvalues and on values derived from them
EIG_TOL = 1e-9
#: relative tolerance on sums of the spectrum against trace and Frobenius norm
TRACE_RTOL = 1e-10
#: relative gap allowed between a swept peak and the closed-form gain
SWEEP_RTOL = 5e-3
#: a delay-grid tau closer than this share to a margin makes its verdict moot
GRID_CLEARANCE = 0.10
#: largest relative error of a velocity delay-margin scan
VELOCITY_SCAN_RTOL = 0.03
#: largest share by which a formation scan may read below the modal margin;
#: see README "Formation scan slack"
FORMATION_SCAN_SLACK = 0.05
TWO_OVER_SQRT3 = 2.0 / math.sqrt(3.0)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def laplacian(n: int, k: int) -> np.ndarray:
    idx = np.arange(n)
    adj = (np.abs(idx[:, None] - idx[None, :]) <= k).astype(float)
    np.fill_diagonal(adj, 0.0)
    return np.diag(adj.sum(axis=1)) - adj


def followers(n: int, refs) -> np.ndarray:
    """0-based indices of the non-reference vehicles (refs are 1-based)."""
    return np.array([i for i in range(n) if i + 1 not in set(refs)])


def grounded_laplacian(n: int, k: int, refs) -> np.ndarray:
    f = followers(n, refs)
    return laplacian(n, k)[np.ix_(f, f)]


def md_refs(n: int, k: int) -> tuple:
    """Middle vehicle of each consecutive segment of 2k + 1 vehicles."""
    seg = 2 * k + 1
    return tuple(s + (min(seg, n - s + 1) + 1) // 2 - 1 for s in range(1, n + 1, seg))


def spectrum(n: int, k: int, refs) -> np.ndarray:
    return np.linalg.eigvalsh(grounded_laplacian(n, k, refs))


def peak(lam: float) -> float:
    """Peak magnitude of 1 / (s^2 + lam*s + lam) over real frequencies."""
    if lam <= 2.0:
        return 2.0 / (lam ** 1.5 * math.sqrt(4.0 - lam))
    return 1.0 / lam


def formation_gain(lams) -> float:
    return max(peak(float(lam)) for lam in lams)


def velocity_delay_margin(lams) -> float:
    return math.pi / (2.0 * float(np.max(lams)))


def formation_modes(lams) -> list:
    """(tau, mu) per mode of xdot = B x(t - tau): mu solves
    mu^2 + lam*mu + lam = 0 and the mode first reaches the imaginary axis at
    tau = (|arg mu| - pi/2) / |mu|."""
    return [
        ((abs(np.angle(mu)) - math.pi / 2.0) / abs(mu), complex(mu))
        for lam in lams
        for mu in np.roots([1.0, float(lam), float(lam)])
    ]


def formation_delay_margin(lams) -> float:
    return min(tau for tau, _ in formation_modes(lams))


def critical_mode_is_real(lams) -> bool:
    _, mu = min(formation_modes(lams), key=lambda m: m[0])
    return abs(mu.imag) < 1e-12


def single_end_spectrum(n: int) -> np.ndarray:
    """Grounded spectrum of P(n, 1) with reference {1}: a path grounded at one
    end, eigenvalues 2 - 2 cos((2j - 1) pi / (2n - 1)), j = 1..n-1."""
    j = np.arange(1, n)
    return 2.0 - 2.0 * np.cos((2 * j - 1) * math.pi / (2 * n - 1))


def velocity_response(omegas, lams) -> np.ndarray:
    w = np.asarray(omegas, dtype=float)[:, None]
    return (1.0 / np.abs(1j * w + np.asarray(lams)[None, :])).max(axis=1)


def formation_response(omegas, lams) -> np.ndarray:
    w = np.asarray(omegas, dtype=float)[:, None]
    lam = np.asarray(lams)[None, :]
    return (1.0 / np.abs(-(w ** 2) + lam * (1.0 + 1j * w))).max(axis=1)


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def _close(label: str, got, want, atol: float = 0.0, rtol: float = 0.0) -> list:
    got, want = float(got), float(want)
    if not math.isfinite(got) or abs(got - want) > atol + rtol * abs(want):
        return [f"{label} = {got!r}, expected {want!r}"]
    return []


def _rows_close(label: str, got, want, rtol: float) -> list:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: {got.shape[0]} values, expected {want.shape[0]}"]
    err = np.nan_to_num(np.abs(got - want) / np.abs(want), nan=np.inf)
    bad = err > rtol
    if bad.any():
        i = int(np.argmax(err))
        return [f"{label}: {int(bad.sum())} values off, worst at index {i}: "
                f"{got[i]!r} vs {want[i]!r}"]
    return []


# ---------------------------------------------------------------------------
# Robustness reports
# ---------------------------------------------------------------------------

def check_report(rep: dict, n: int, k: int, refs) -> list:
    """A report (RobustnessReport.to_json_dict layout) against the spectrum,
    trace and Frobenius norm of the grounded Laplacian, the beta statistics
    and the closed-form gains."""
    refs = tuple(refs)
    lg = grounded_laplacian(n, k, refs)
    lams = np.linalg.eigvalsh(lg)
    got = np.asarray(rep["lg_spectrum"], dtype=float)
    if got.shape != lams.shape:
        return [f"spectrum has {got.size} values, expected {lams.size}"]
    out = []
    if tuple(rep["refs"]) != refs:
        out.append(f"refs {rep['refs']} != {list(refs)}")
    out += _close("sum of eigenvalues", got.sum(), np.trace(lg), rtol=TRACE_RTOL)
    out += _close("sum of squared eigenvalues", (got ** 2).sum(), (lg ** 2).sum(), rtol=TRACE_RTOL)
    out += _close("lambda1", rep["lambda1"], lams[0], atol=EIG_TOL)
    out += _close("lambda_max", rep["lambda_max"], lams[-1], atol=EIG_TOL)
    out += _close("spectrum", np.max(np.abs(np.sort(got) - lams)), 0.0, atol=EIG_TOL)
    out += _close("hinf_velocity", rep["hinf_velocity"], 1.0 / min(got), rtol=1e-12)
    out += _close("hinf_formation", rep["hinf_formation"], formation_gain(got), rtol=1e-12)
    out += _close("delay_velocity_max", rep["delay_velocity_max"],
                  velocity_delay_margin(lams), rtol=EIG_TOL)
    out += check_certificates(rep, n, k, refs, lams)
    if k == 1 and refs == (1,):
        out += _close("single-end spectrum", np.max(np.abs(np.sort(got) - single_end_spectrum(n))),
                      0.0, atol=EIG_TOL)
    if "swept" in rep:
        out += _close("swept velocity peak", rep["swept"]["velocity_peak"], rep["hinf_velocity"],
                      rtol=SWEEP_RTOL)
        out += _close("swept formation peak", rep["swept"]["formation_peak"],
                      rep["hinf_formation"], rtol=SWEEP_RTOL)
    return out


def check_certificates(rep: dict, n: int, k: int, refs, lams) -> list:
    """Both bound chains, recomputed from the reference-neighbor counts and
    the maximum follower degree of the platoon:

        min beta <= lambda1 <= |boundary|/|F| <= max beta <= |refs|
        dmax_f <= lambda_max <= 2 dmax_f
    """
    lap = laplacian(n, k)
    f = followers(n, refs)
    r = np.array(sorted(refs)) - 1
    betas = -lap[np.ix_(f, r)].sum(axis=1)
    dmax = float(np.diag(lap)[f].max())
    ratio = betas.sum() / len(f)
    t = EIG_TOL
    out = []
    chain_min = (betas.min(), lams[0], ratio, betas.max(), float(len(r)))
    if not all(a <= b + t for a, b in zip(chain_min, chain_min[1:])):
        out.append(f"lambda_min chain fails: {chain_min}")
    if not dmax <= lams[-1] + t <= 2.0 * dmax + 2 * t:
        out.append(f"lambda_max chain fails: {dmax} <= {lams[-1]} <= {2 * dmax}")
    for key, want in (("beta_min", betas.min()), ("beta_max", betas.max()),
                      ("boundary_size", betas.sum()), ("dmax_f", dmax)):
        if rep[key] != want:
            out.append(f"{key} = {rep[key]}, expected {want}")
    certs = rep["certificates"]
    for name, want in (("lambda_min", chain_min), ("lambda_max", (dmax, lams[-1], 2.0 * dmax))):
        cert = certs[name]
        if cert["holds"] is not True:
            out.append(f"{name} certificate reported as not holding")
        values = [value for _, value in cert["chain"]]
        if len(values) != len(want) or np.max(np.abs(np.subtract(values, want))) > t:
            out.append(f"{name} certificate chain {values} != {list(want)}")
    return out


def check_desk_report(rep: dict, n: int, k: int) -> list:
    """The P(36,4) report: the full report check on the minimally dense
    references, and the desk values lambda1 = 1 and formation gain 2/sqrt(3)."""
    out = check_report(rep, n, k, md_refs(n, k))
    out += _close("desk lambda1", rep["lambda1"], 1.0, atol=EIG_TOL)
    out += _close("desk formation gain", rep["hinf_formation"], TWO_OVER_SQRT3, atol=EIG_TOL)
    return out


def check_frequency_response(omegas, gains, lams, dynamics: str) -> list:
    """Every 40th row, the last row and the peak of a frequency-response CSV
    against the modal formulas max_i 1/|j w + lam_i| and
    max_i 1/|-w^2 + lam_i (1 + j w)|."""
    omegas, gains = np.asarray(omegas, dtype=float), np.asarray(gains, dtype=float)
    if omegas.size < 1000:
        return [f"{dynamics} response has only {omegas.size} rows"]
    pick = np.unique(np.r_[np.arange(0, omegas.size, 40), omegas.size - 1, np.argmax(gains)])
    model = velocity_response if dynamics == "velocity" else formation_response
    return _rows_close(f"{dynamics} response", gains[pick], model(omegas[pick], lams), rtol=1e-9)


# ---------------------------------------------------------------------------
# Desk battery files
# ---------------------------------------------------------------------------

def check_delay_grid(rows: list, lams) -> list:
    """rows: (tau, dynamics, stable).  Velocity must be stable exactly below
    pi/(2 lambda_max), formation exactly below the modal margin, and no tau
    may sit within GRID_CLEARANCE of either margin."""
    margins = {"velocity": velocity_delay_margin(lams), "formation": formation_delay_margin(lams)}
    out = []
    seen = set()
    for tau, dyn, stable in rows:
        seen.add(dyn)
        for name, margin in margins.items():
            if abs(tau - margin) < GRID_CLEARANCE * margin:
                out.append(f"tau={tau} within {GRID_CLEARANCE:.0%} of the {name} margin {margin:.6g}")
        if stable != (tau < margins[dyn]):
            out.append(f"{dyn} at tau={tau} classified {'stable' if stable else 'unstable'}, "
                       f"margin {margins[dyn]:.6g}")
    if seen != set(margins):
        out.append(f"grid covers dynamics {sorted(seen)}")
    return out


def check_sweep(rows: list, mode: str, n: int, k: int) -> list:
    """rows: (position, lambda1, hinf_velocity, hinf_formation) for the
    minimally dense arrangement with one reference removed or added."""
    base = set(md_refs(n, k))
    want = sorted(base) if mode == "remove" else [p for p in range(1, n + 1) if p not in base]
    if [int(r[0]) for r in rows] != want:
        return [f"{mode} sweep covers positions {[r[0] for r in rows]}, expected {want}"]
    out = []
    for pos, lam1, hv, hf in rows:
        refs = base - {pos} if mode == "remove" else base | {pos}
        out += _close(f"{mode} {pos}: lambda1", lam1, spectrum(n, k, refs)[0], atol=EIG_TOL)
        out += _close(f"{mode} {pos}: hinf_velocity", hv, 1.0 / lam1, rtol=1e-9)
        out += _close(f"{mode} {pos}: hinf_formation", hf, peak(lam1), rtol=1e-9)
    return out


def check_md_minimal(remove_rows: list, add_rows: list) -> list:
    """Removing any minimally dense reference breaks both gain bounds; adding
    any reference keeps the velocity gain below one."""
    out = []
    for pos, _, hv, hf in remove_rows:
        if not (hv > 1.0 + EIG_TOL and hf > TWO_OVER_SQRT3 + EIG_TOL):
            out.append(f"removing {pos} keeps a bound: gains {hv}, {hf}")
    for pos, _, hv, _ in add_rows:
        if not hv < 1.0 - EIG_TOL:
            out.append(f"adding {pos} gives velocity gain {hv}")
    return out


def check_scaling(rows: list, summary: dict, k: int) -> list:
    """rows: (n, arrangement, lambda1, hinf_velocity, hinf_formation).  For
    k = 1 the single-end lambda1 follows the closed form; the log-log slopes
    of the single-end gains are 2 (velocity) and 3 (formation) within 0.3."""
    out = []
    for n, arr, lam1, hv, hf in rows:
        refs = (1,) if arr == "single" else md_refs(n, k)
        want = single_end_spectrum(n)[0] if arr == "single" and k == 1 else spectrum(n, k, refs)[0]
        out += _close(f"scaling n={n} {arr}: lambda1", lam1, want, atol=EIG_TOL)
        out += _close(f"scaling n={n} {arr}: hinf_velocity", hv, 1.0 / lam1, rtol=1e-9)
        out += _close(f"scaling n={n} {arr}: hinf_formation", hf, peak(lam1), rtol=1e-9)
    slopes = summary["single"]
    out += _close("velocity slope", slopes["velocity"]["slope"], 2.0, atol=0.3)
    out += _close("formation slope", slopes["formation"]["slope"], 3.0, atol=0.3)
    return out


def check_trajectory(data: np.ndarray, horizon: float, step: float, stable_reported: bool) -> list:
    """data: the t, norm, x_1.. columns of a trajectory CSV.  It must hold
    horizon/step + 1 rows, its norm column must be the row norms of its
    states, and both the reported verdict and the norms must read stable
    (decay below 20% over the trailing quarter)."""
    out = []
    rows = int(round(horizon / step)) + 1
    if data.ndim != 2 or data.shape[0] != rows:
        return [f"trajectory has {data.shape[0] if data.ndim else 0} rows, expected {rows}"]
    out += _rows_close("norm column", data[:, 1], np.linalg.norm(data[:, 2:], axis=1), rtol=1e-9)
    out += _close("time column", np.max(np.abs(data[:, 0] - np.arange(rows) * step)), 0.0,
                  atol=1e-9 * horizon)
    norms = data[:, 1]
    ratio = norms[-1] / norms[int(round(0.75 * (rows - 1)))]
    if not ratio < 0.2:
        out.append(f"trajectory does not decay: trailing ratio {ratio:.3g}")
    if stable_reported is not True:
        out.append("verdict reports unstable")
    return out


# ---------------------------------------------------------------------------
# Delay-margin scans
# ---------------------------------------------------------------------------

def check_velocity_scan(estimate: float, lams) -> list:
    return _close("velocity delay-margin scan", estimate, velocity_delay_margin(lams),
                  rtol=VELOCITY_SCAN_RTOL)


def check_formation_scan(estimate: float, lams, width: float) -> list:
    """The estimate may exceed the modal margin by at most the final bracket
    width and fall below it by at most FORMATION_SCAN_SLACK."""
    margin = formation_delay_margin(lams)
    if not (margin * (1.0 - FORMATION_SCAN_SLACK) <= estimate <= margin + width):
        return [f"formation delay-margin scan {estimate!r} outside "
                f"[{margin * (1.0 - FORMATION_SCAN_SLACK)!r}, {margin + width!r}]"]
    return []
