import math

import numpy as np
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

from platoonkit import SinusoidDisturbance, build_platoon, ground, make_reference_set  # noqa: E402


def random_grounded(rng, n_lo=2, n_hi=60, k_hi=6, f_min=1, f_max=None):
    """One random platoon instance: (topology, refset, grounded system)."""
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        k = int(rng.integers(1, k_hi + 1))
        n_refs = int(rng.integers(1, n))
        n_fol = n - n_refs
        if n_fol < f_min or (f_max is not None and n_fol > f_max):
            continue
        refs = sorted(int(r) for r in rng.choice(np.arange(1, n + 1), size=n_refs, replace=False))
        top = build_platoon(n, k)
        refset = make_reference_set(n, refs)
        return top, refset, ground(top, refset)


def expm_oracle(a):
    """Matrix exponential by scaling-and-squaring with a Taylor core.

    Independent of the time-stepping integrator on purpose: it is the oracle
    for zero-delay runs.
    """
    a = np.asarray(a, dtype=float)
    nrm = float(np.linalg.norm(a, np.inf))
    s = 0
    if nrm > 0.5:
        s = int(np.ceil(np.log2(nrm / 0.5)))
    b = a / (2.0 ** s)
    out = np.eye(len(a))
    term = np.eye(len(a))
    for k in range(1, 30):
        term = term @ b / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def formation_modal_delay_margin(lg_values) -> float:
    """Exact delay margin of the fully delayed formation dynamics xdot = B x(t - tau).

    Each mode of B is the scalar DDE x' = mu x(t - tau), with mu a root of
    mu^2 + lam*mu + lam = 0 for an eigenvalue lam of Lg.  Its rightmost
    characteristic root first reaches the imaginary axis (at s = i|mu|) when
    tau = (|arg mu| - pi/2) / |mu|; the margin is the smallest such tau.
    Built from numpy's polynomial roots only, independent of the integrator
    and of the package's own spectrum mapping.
    """
    mus = np.concatenate([np.roots([1.0, lam, lam]) for lam in lg_values])
    return float(np.min((np.abs(np.angle(mus)) - math.pi / 2.0) / np.abs(mus)))


def whole_run_samples(dist, dim, h, nsteps) -> tuple:
    """A disturbance's samples over a run of nsteps steps of h, drawn whole
    and apart from its sampler: (grid, mid), at the grid times i * h of
    steps 0 .. nsteps and at the midpoints of steps 0 .. nsteps - 1.  A
    sinusoid is evaluated there; noise is one table that a fresh generator
    of its seed draws whole, whose row i is both of step i's samples."""
    grid = np.arange(nsteps + 1) * h
    if isinstance(dist, SinusoidDisturbance):
        return tuple(np.repeat((dist.amplitude * np.sin(dist.omega * t))[:, None], dim, axis=1)
                     for t in (grid, grid[:-1] + h / 2.0))
    table = np.random.default_rng(dist.seed).uniform(
        -dist.amplitude, dist.amplitude, size=(nsteps + 1, dim))
    return table, table[:-1]


def trajectory_csv(traj) -> str:
    """The trajectory CSV that dde_sim.simulate_to_csv must write for the run
    `traj`, formatted here one value at a time with `%.12g`: the metadata
    and column lines, one `t,norm,x_1,..` row per state, then a diverged
    run's marker."""
    keys = ("n", "k", "kind", "mode", "tau", "tau_effective", "step", "seed")
    meta = traj.meta
    head = "# " + ", ".join(
        f"{key}={'none' if meta[key] is None else meta[key]}" for key in keys if key in meta)
    cols = "t,norm," + ",".join(f"x_{i + 1}" for i in range(traj.states.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(traj.states, axis=1)
    rows = ["%.12g,%.12g," % (t, nrm) + ",".join("%.12g" % v for v in row)
            for t, nrm, row in zip(traj.times.tolist(), norms.tolist(), traj.states.tolist())]
    marker = ["# diverged=true (run truncated at state norm > 1e12)"] if traj.diverged else []
    return "\n".join([head, cols, *rows, *marker]) + "\n"
