"""Fixed-step time-domain integration of the platoon dynamics with constant
communication delay, each run's stable/unstable verdict, and the threshold
scan.

The integrator is the classic explicit 4th-order Runge-Kutta scheme (RK4)
over a stored uniform-step history buffer.  The requested delay is rounded to
the nearest multiple m of the step, so delayed reads at whole-step stage times
land exactly on stored samples; the half-step stage reads the history through
a cubic interpolation of the four nearest stored samples.  Pre-history is the
constant initial state: x(t) = x0 for t <= 0.

Every mode below is xdot = A0 x(t) + Atau x(t - tau) + J w(t), where A0 or
Atau may be absent.  With Z = h A0 and the forcing f = Atau x(t - tau) + J w
known at the stage times t_i, t_i + h/2, t_i + h, one RK4 step is

    x_{i+1} = P x_i + C1 f0 + Ch fh + C4 f1,  P = I + Z + Z^2/2 + Z^3/6 + Z^4/24,
    C1 = (h/6)(I + Z + Z^2/2 + Z^3/4),  Ch = (h/6)(4I + 2Z + Z^2/2),  C4 = (h/6) I.

Step i's forcing reads stored samples no newer than x_i, so the forcings g of
m-1 steps (one step when m <= 2; any number when nothing is delayed) come
from a few bulk products: the method of steps (Bellen & Zennaro, Numerical
Methods for Delay Differential Equations, 2003).  In mode "full", P = I and
the recurrence x = P x + g is a cumulative sum.  There every stage reads only
delayed samples, so a batch's forcings take one product with A over its
window of b + 3 samples, y = xd (h/24) A^T, and a four-tap filter: with the
cubic's weights folded in, (h/6)(f0 + 4 fh + f1) of step j is
sum_q c_q y[j + q] with c = (-1, 13, 13, -1) (centered) or (1, -5, 19, 9)
(backward, m = 1).  The cumulative sum takes an even dim's columns as
complex pairs, two per add and bit for bit; an odd dim's one at a time.

Where A0 is present, a batch of at least two chunks of c = 64 steps is
solved as a chunked scan (Kogge & Stone 1973; Blelloch, "Prefix sums and
their applications", 1990): pass 1 sums each chunk's forcings from a zero
start, all chunks at once (c-1 products); pass 2 carries the chunk starts
x_{k+1} = P^c x_k + (chunk k's last sum), one small product per chunk; pass
3 adds P^j x_k to every row with one product against the stacked powers of
P, each written into its place as the product of the one before with P.
Left-over steps, and batches of fewer than two chunks, take one product per
step.  The polynomial form, the filter and the chunked sums round
differently from evaluating the four stages one by one: by a few 1e-14 of
the trajectory's maximum on a decaying run, by more as a growing run goes
on (1.1e-12 after 5,000 undelayed steps of 1e-3 on xdot = [[1, 0.2], [0.2,
0.8]] x, 4.2e-12 after 20,000).

Two delay modes are supported for the linear dynamics xdot = A x:

    full            xdot(t) = A x(t - tau)            (every term delayed)
    self-undelayed  xdot(t) = -Dg x(t) + Ag x(t-tau)  (velocity only: own
                    state instantaneous, neighbor states delayed)

A delay of tau = 0, or one that rounds to zero steps, runs the undelayed
dynamics xdot(t) = A x(t) in either mode and for either dynamics.

Every run has one verdict, _judge's: unstable, decay ratio inf, if it
diverged; else stable iff its decay ratio, the norm of its last state over
that of row _window_start(last) (the trailing quarter's start), is below
STABILITY_THRESHOLD.  Divergence (state norm beyond 1e12 or non-finite)
truncates the run at its first such step and marks its verdict rather than
raising.  The rows since the last screen are screened
at each slide and at the run's end, by their sum of squares, one dot
product; rows past (1e12 / 2)^2 are screened again a batch at a time, and a
failing batch takes per-row norms to find the first divergent row.  No
norms are stored: Trajectory.norms takes every row's, _CHUNK_ROWS at a
time, when it is read; _judge takes the two rows it compares, and the CSV
writer each piece's as it formats it.  The CSV writer formats _CSV_ROWS rows
at a time and writes each piece to its file before it formats the next, so it
holds no more than one piece's values and text at a time.  A diverged run's
CSV ends with its divergence marker, which is known only when the run ends.

Every run integrates in one buffer of the delay window plus one batch or
_CHUNK_ROWS rows: when a batch would run past its end, the rows accepted
since the last slide go to the run's sink, the window that the batch reads
is copied to the front, and the run goes on from there, so every row is
computed as in a buffer of the whole run.  simulate's sink copies the rows
into the whole run's states and simulate_to_csv's writes them to the CSV
file; every run returns its verdict, for which it copies the trailing
window's first row as it is handed on.  A disturbance is sampled for the
steps the buffer holds, at the start and at each slide:
sample(lo, hi) gives its values on the f velocity errors at the grid times
of steps lo .. hi and the midpoints of steps lo .. hi - 1.  Beside the
buffer a run holds its operators, the powers of P, one batch's temporaries,
that window of samples and one piece of CSV text (mode "full" writes each
batch's product into one buffer per run): nothing else grows with
_CHUNK_ROWS or with the number of powers.  Before anything is allocated,
check_run bounds a run's steps and delay together by MAX_STEPS and charges
it for all of that; simulate is charged for its states besides.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import errors
from .errors import ParameterError
from .robustness import DYNAMICS
from .spectral import build_formation_matrix
from .topology import GroundedSystem

#: the terms a delay applies to (see the module docstring)
DELAY_MODES = ("full", "self-undelayed")

#: state-norm cutoff beyond which a run is truncated and marked divergent
DIVERGENCE_CUTOFF = 1e12

#: decay_ratio below this, over the trailing window, classifies as stable
STABILITY_THRESHOLD = 0.2

#: fraction of the horizon used as the trailing classification window
TRAILING_WINDOW = 0.25

#: the most steps, horizon and delay together, of one run: 37 times the
#: longest run of the tests, the battery and the benchmark (270,150)
MAX_STEPS = 10_000_000

# rows handled at a time where whole-run temporaries would double a run's
# memory: undelayed integration batches, the sliding buffer and the norms
_CHUNK_ROWS = 4096

# rows formatted and written at a time by the CSV writer: a piece's Python
# floats and text take several times its states, and formatting costs the
# same per row in pieces of this size as in whole chunks
_CSV_ROWS = 256

# steps per delay in each run of threshold_scan
_SCAN_STEPS_PER_TAU = 150

# steps per chunk of the blocked recurrence x = P x + g: a batch of b steps
# takes about c + b/c Python-level products instead of b
_SCAN_CHUNK = 64

# cubic Lagrange weights on four consecutive samples:
# centered stencil (nodes -1,0,1,2) evaluated at 1/2
_W_CENTERED = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
# backward stencil (nodes -3..0) evaluated at -1/2
_W_BACKWARD = np.array([1.0, -5.0, 15.0, 5.0]) / 16.0
# the same windows folded into the fully delayed forcing x_d0 + 4 x_dh + x_d1,
# times 4 (16 w plus 4 on the two whole-step samples): taps summing to 24
_TAPS_CENTERED = 16.0 * _W_CENTERED + [0.0, 4.0, 4.0, 0.0]
_TAPS_BACKWARD = 16.0 * _W_BACKWARD + [0.0, 0.0, 4.0, 4.0]


# ---------------------------------------------------------------------------
# Systems, delays, disturbances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimSystem:
    """A simulatable platoon error system.

    kind "velocity" integrates the |F|-dimensional velocity-error dynamics
    xdot = -lg x; kind "formation" the 2|F|-dimensional stacked (position
    errors, velocity errors) dynamics, whose matrix is [[0, I], [-lg, -lg]].
    Both controller gains are one, as in every closed form of the
    robustness module.  The error coordinates eliminate the reference
    velocity and the desired spacings, so neither appears here; n and k
    only label the trajectory's metadata.
    """

    kind: str
    lg: np.ndarray
    n: int
    k: int

    def __post_init__(self):
        if self.kind not in DYNAMICS:
            raise ParameterError(f"kind must be one of {DYNAMICS}, got {self.kind!r}")

    @property
    def dim(self) -> int:
        f = self.lg.shape[0]
        return f if self.kind == "velocity" else 2 * f


def velocity_system(gs: GroundedSystem) -> SimSystem:
    return SimSystem(kind="velocity", lg=np.asarray(gs.lg, dtype=float), n=gs.n, k=gs.k)


def formation_system(gs: GroundedSystem) -> SimSystem:
    return SimSystem(kind="formation", lg=np.asarray(gs.lg, dtype=float), n=gs.n, k=gs.k)


@dataclass(frozen=True)
class DelaySpec:
    """Constant communication delay and which terms it applies to."""

    tau: float = 0.0
    mode: str = "full"  # one of DELAY_MODES; tau = 0 runs undelayed in either

    def __post_init__(self):
        errors.check("delay tau", self.tau, 0.0)
        if self.mode not in DELAY_MODES:
            raise ParameterError(f"delay mode must be one of {DELAY_MODES}, got {self.mode!r}")


class SinusoidDisturbance:
    """The same sinusoid amplitude * sin(omega t) on every channel."""

    def __init__(self, amplitude: float, omega: float):
        self.amplitude = errors.check("sinusoid amplitude", amplitude)
        self.omega = errors.check("sinusoid omega", omega)

    def sampler(self, dim: int, step: float):
        """The run's sampler: sample(lo, hi) -> the (hi - lo + 1, dim)
        samples at the grid times i * step of steps lo .. hi, and the
        (hi - lo, dim) samples at the midpoints of steps lo .. hi - 1."""
        def sample(lo, hi):
            grid = np.arange(lo, hi + 1) * step
            return tuple(np.repeat((self.amplitude * np.sin(self.omega * t))[:, None], dim, axis=1)
                         for t in (grid, grid[:-1] + step / 2.0))

        return sample


class NoiseDisturbance:
    """Seeded uniform noise in [-amplitude, amplitude], one value per
    channel at each grid time, held from there through the step's midpoint
    (so runs are reproducible given the seed)."""

    def __init__(self, amplitude: float, seed: int):
        self.amplitude = errors.check("noise amplitude", amplitude, 0.0)
        # the draws span 2 * amplitude, which must be finite too
        errors.check("twice the noise amplitude", 2.0 * self.amplitude)
        self.seed = errors.check("noise seed", seed, 0, integer=True)

    def sampler(self, dim: int, step: float):
        """The run's sampler: sample(lo, hi) -> rows lo .. hi of one table
        as the samples at the grid times of steps lo .. hi, and rows
        lo .. hi - 1 as those at their midpoints: step i's first three
        stages read row i and its last stage row i + 1.  The table is what
        one generator of the seed draws row by row; sample draws rows
        lo .. hi alone, from a generator of the seed advanced past the
        lo * dim values before them, so it keeps nothing between calls and
        any window reads the same rows."""
        def sample(lo, hi):
            rng = np.random.Generator(np.random.PCG64(self.seed).advance(lo * dim))
            table = rng.uniform(-self.amplitude, self.amplitude, size=(hi + 1 - lo, dim))
            return table, table[:-1]

        return sample


# ---------------------------------------------------------------------------
# Trajectories and verdicts
# ---------------------------------------------------------------------------

def _row_norms(states: np.ndarray) -> np.ndarray:
    # a diverged run's last row may hold inf or NaN, or values whose squares
    # overflow; its norm is then inf or NaN, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(states, axis=1)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled state history, with its run's verdict and metadata."""

    times: np.ndarray
    states: np.ndarray
    verdict: StabilityVerdict
    meta: dict

    @property
    def norms(self) -> np.ndarray:
        """Each sample's Euclidean norm, computed on every read, _CHUNK_ROWS
        rows at a time: the squares of a whole run at once would add a
        run-sized temporary.  A row's norm does not depend on the rows taken
        with it."""
        out = np.empty(len(self.states))
        for lo in range(0, len(out), _CHUNK_ROWS):
            out[lo : lo + _CHUNK_ROWS] = _row_norms(self.states[lo : lo + _CHUNK_ROWS])
        return out


def _csv_rows(fh, times: np.ndarray, states: np.ndarray) -> None:
    """Write one CSV row per state, `t,norm,x_1,..`, each piece of _CSV_ROWS
    rows as soon as it is formatted, so only one piece's values and text are
    held at a time.  A row's text depends on that row alone, so rows written
    in any pieces read as rows written at once."""
    fmt = ",".join(["%.12g"] * (states.shape[1] + 2)) + "\n"
    for lo in range(0, len(times), _CSV_ROWS):
        hi = lo + _CSV_ROWS
        piece = np.column_stack((times[lo:hi], _row_norms(states[lo:hi]), states[lo:hi]))
        fh.write("".join(fmt % tuple(row) for row in piece.tolist()))


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    decay_ratio: float
    horizon: float
    diverged: bool


def default_step(tau: float, name: str = "tau") -> float:
    """Default integration step: min(1e-3, tau/40) for delayed runs.

    Raises:
        ParameterError: naming the delay `name`, for a tau > 0 so small that
            tau/40 underflows (is not a normal float); no run could store
            the steps it would take.
    """
    if not tau > 0.0:
        return 1e-3
    step = min(1e-3, tau / 40.0)
    if step < sys.float_info.min:
        raise ParameterError(
            f"{name} value {tau!r} is too small: its default step, tau/40, "
            f"underflows to {step!r}; give a step, or a delay of 0 or at least "
            f"{40.0 * sys.float_info.min!r}"
        )
    return step


def default_horizon(lambda1: float) -> float:
    """Default horizon 200 / lambda1, capped at 500 time units."""
    if lambda1 <= 0.0:
        return 500.0
    return min(500.0, 200.0 / lambda1)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

def check_run(sys: SimSystem, delay: DelaySpec, horizon: float, step: float,
              disturbance=None, keep: str | None = None) -> tuple:
    """Check a run of `simulate`, `simulate_to_csv` or `verdict` before
    anything is allocated, and return its (step h, steps, delay in whole
    steps m).

    A run's steps and its delay window together may number at most
    MAX_STEPS, whatever it holds: a delay of 1e-10 at its default step,
    2.5e-12, takes 8e12 steps over a horizon of 20, whose buffer would fit
    and which would take days.  The memory charged is what the run holds
    (_held_bytes), with `disturbance`'s samples and `keep` "states"
    (simulate), "csv" (simulate_to_csv) or None (verdict).

    Raises:
        ParameterError: on a step not finite and > 0, a horizon shorter than
            10 steps, more than MAX_STEPS steps, a sinusoid whose omega t
            overflows within the run, or buffers larger than physical
            memory.
    """
    h = float(errors.check("step", step, 0.0, strict=True))
    errors.check("horizon (at least 10 steps)", horizon, 10.0 * h)
    steps, lag = horizon / h, delay.tau / h
    # compared as floats: a horizon of 1e300 in steps of 1e-10 is inf steps
    if not steps + lag <= MAX_STEPS:
        raise ParameterError(
            f"a run of {steps:.4g} steps, with {lag:.4g} more for its delay, is "
            f"longer than the {MAX_STEPS:,} steps one run may take")
    nsteps, m = int(round(steps)), int(round(lag))
    if isinstance(disturbance, SinusoidDisturbance):
        # sin(omega t) of an omega t that overflows is NaN, not a divergence
        errors.check("sinusoid omega times the horizon", disturbance.omega * (nsteps * h))
    errors.check_memory(f"a run of {nsteps} steps{' held whole' if keep == 'states' else ''}",
                        _held_bytes(sys, delay, m, nsteps, disturbance is not None, keep))
    return h, nsteps, m


def _held_bytes(sys: SimSystem, delay: DelaySpec, m: int, nsteps: int,
                disturbed: bool, keep: str | None) -> float:
    """Bytes a run holds at its peak: its sliding buffer, its operators
    (a and (h/24) a^T in mode "full", else 16 dim x dim), the powers of P
    where _blocked, and a batch's temporaries, in blocks of max(b + 3, m + 5)
    rows (a batch's product, or the window a slide copies before it moves
    it): undelayed one (pass 3's product), mode "full" two (its product
    buffer beside a slide's copy), mode "self-undelayed" three (two products
    beside the last batch's half-step samples); the screen's norms of a
    batch's rows take a block and two values a row.  A disturbed run holds
    one block more (its forcing's products, which numpy sums into the first
    as it elides temporaries) and two f-wide windows of samples for the
    steps the buffer holds; keep "csv" one piece of CSV text, 64 bytes a
    value (a Python float, its pointer and its text), and keep "states" the
    whole run's states.  256 KiB cover ufunc buffers and Python objects."""
    rows = max(min(_batch_steps(m), nsteps) + 3, m + 5)
    if m > 0 and delay.mode == "full":
        temps, ops = 2 * rows, 2
    else:
        temps = rows if m == 0 else 3 * rows
        ops = 16 + (_SCAN_CHUNK - 1) * _blocked(m, nsteps)
    held = (_window_rows(m, nsteps) + temps + ops * sys.dim) * sys.dim + 2 * rows
    if disturbed:
        held += rows * sys.dim + 2 * (_window_rows(m, nsteps) - m - 4) * sys.lg.shape[0]
    if keep == "csv":
        held += 8 * (sys.dim + 2) * _CSV_ROWS
    elif keep == "states":
        held += (nsteps + 1) * sys.dim
    return 8.0 * held + 2.0**18


def simulate(
    sys: SimSystem,
    delay: DelaySpec,
    x0,
    horizon: float,
    step: float,
    disturbance=None,
) -> Trajectory:
    """Integrate the (possibly delayed, possibly disturbed) error dynamics.

    The delay is rounded to the nearest multiple of the step and the rounded
    value is reported in the trajectory metadata as ``tau_effective``.  A
    delay that rounds to zero steps degenerates to the undelayed dynamics.
    Every mode goes through one propagator, _advance, and the accepted rows
    are copied into the run's states as its buffer slides.

    Args:
        sys: system to integrate.
        delay: DelaySpec; mode "self-undelayed" with tau > 0 is velocity-only.
        x0: initial state, finite, length sys.dim (also the constant pre-history).
        horizon: final time, at least 10 steps; see check_run.
        step: integration step, finite and > 0.
        disturbance: optional bounded input, added through the system's
            input matrix and sampled at the integration stage times.

    Returns:
        Trajectory, with its verdict; truncated at a first divergent step.
    """
    run = _prepare(sys, delay, x0, horizon, step, disturbance, "states")
    states = _allocate(run.nsteps + 1, sys.dim, run.nsteps)

    def keep(first, rows):
        states[first : first + len(rows)] = rows

    last, judged = _advance(run, keep)
    # a view, not a copy: the rows past a diverged run's last are not kept
    return Trajectory(times=np.arange(last + 1) * run.h, states=states[: last + 1],
                      verdict=judged, meta=run.meta)


def simulate_to_csv(path, sys: SimSystem, delay: DelaySpec, x0, horizon: float,
                    step: float, disturbance=None) -> tuple:
    """Write the run of simulate(sys, delay, x0, horizon, step, disturbance)
    to the CSV file `path`, and return its (verdict, meta), without holding
    the run: each stretch of accepted rows is written as the buffer slides,
    and _judge's two rows are copied as they pass.  The file is opened once
    the buffer is allocated, and its missing parents made then, so a run
    refused, or whose buffer cannot be allocated, makes no file or
    directory.  Inputs are checked as by simulate; the run is charged for a
    piece of CSV text, not for its states (check_run).
    """
    run = _prepare(sys, delay, x0, horizon, step, disturbance, "csv")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("# " + ", ".join(f"{key}={'none' if value is None else value}"
                                  for key, value in run.meta.items()) + "\n")
        fh.write("t,norm," + ",".join(f"x_{i + 1}" for i in range(sys.dim)) + "\n")
        _, judged = _advance(run, lambda first, rows: _csv_rows(
            fh, np.arange(first, first + len(rows)) * run.h, rows))
        if judged.diverged:  # known only once the run ends
            fh.write("# diverged=true (run truncated at state norm > 1e12)\n")
    return judged, run.meta


def verdict(sys: SimSystem, delay: DelaySpec, x0, horizon: float, step: float) -> StabilityVerdict:
    """The verdict (_judge) of simulate(sys, delay, x0, horizon, step),
    without holding the run (see _advance).  Inputs are checked as by
    simulate, and the run is not charged for its states (check_run).
    """
    return _advance(_prepare(sys, delay, x0, horizon, step, None), lambda first, rows: None)[1]


@dataclass(frozen=True)
class _Run:
    """A checked run: xdot = a0 x(t) + atau x(t - m h) + w(t), with a0 or
    atau None where absent, over nsteps steps of h; hist is its sliding
    buffer with the pre-history filled, sample its disturbance's sampler
    (or None), whose samples enter the last f states, the velocity errors,
    and meta the trajectory metadata."""

    h: float
    nsteps: int
    m: int
    a0: np.ndarray | None
    atau: np.ndarray | None
    hist: np.ndarray
    sample: object
    f: int
    meta: dict


def _prepare(sys: SimSystem, delay: DelaySpec, x0, horizon: float, step: float,
             disturbance, keep: str | None = None) -> _Run:
    """The checks, operators and buffer of a run of simulate,
    simulate_to_csv or verdict, which keeps its rows as `keep` says
    (check_run), and whose buffer is _window_rows(m, nsteps) rows."""
    h, nsteps, m = check_run(sys, delay, horizon, step, disturbance, keep)
    x0 = errors.check_array("x0", x0).reshape(-1)
    if len(x0) != sys.dim:
        raise ParameterError(f"x0 has length {len(x0)}, system dimension is {sys.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        errors.check("the norm of x0", float(np.linalg.norm(x0)))
    # as finalize_config: tau = 0 runs undelayed in any mode
    if delay.mode == "self-undelayed" and sys.kind != "velocity" and delay.tau > 0:
        raise ParameterError("self-undelayed mode applies to the velocity dynamics only")

    lg = np.asarray(sys.lg, dtype=float)
    a = -lg if sys.kind == "velocity" else build_formation_matrix(sys)
    if m == 0:
        # tau = 0, or a delay that rounds to zero steps: the plain dynamics
        a0, atau = a, None
    elif delay.mode == "full":
        a0, atau = None, a
    else:
        # lg = Dg - Ag: own state instantaneous, neighbor states delayed
        dg = np.diag(np.diag(lg))
        a0, atau = -dg, dg - lg
    hist = _allocate(_window_rows(m, nsteps), sys.dim, nsteps)
    hist[: m + 5] = x0
    meta = {
        "n": sys.n,
        "k": sys.k,
        "kind": sys.kind,
        "mode": delay.mode,
        "tau": delay.tau,
        "tau_effective": m * h,
        "step": h,
        "seed": getattr(disturbance, "seed", None),
    }
    f = sys.lg.shape[0]
    sample = None if disturbance is None else disturbance.sampler(f, h)
    return _Run(h, nsteps, m, a0, atau, hist, sample, f, meta)


def _allocate(rows: int, dim: int, nsteps: int) -> np.ndarray:
    """An empty (rows, dim) buffer of a run of nsteps steps.

    Raises:
        ParameterError: when it fits physical memory (check_run) but not
            the process's limits.
    """
    try:
        return np.empty((rows, dim))
    except MemoryError as exc:
        raise ParameterError(
            f"cannot allocate the {8.0 * rows * dim / 2**30:.4g} GiB of buffers "
            f"for a run of {nsteps} steps"
        ) from exc


def _batch_steps(m: int) -> int:
    """Steps per batch for a delay of m steps (see _advance)."""
    return _CHUNK_ROWS if m == 0 else max(m - 1, 1)


def _window_rows(m: int, nsteps: int) -> int:
    """Rows of the sliding buffer (see _advance) of a run of nsteps steps."""
    return m + 5 + min(nsteps, max(_batch_steps(m), _CHUNK_ROWS))


def _blocked(m: int, nsteps: int) -> bool:
    """Whether a run with an undelayed term takes the powers of P (_recur)."""
    return min(_batch_steps(m), nsteps) >= 2 * _SCAN_CHUNK


# a batch past the cutoff, or the powers of P for a step far beyond RK4's
# bound, may overflow before the run is cut back
@np.errstate(over="ignore", invalid="ignore")
def _advance(run: _Run, sink) -> tuple:
    """RK4 for xdot = a0 x(t) + atau x(t - m h) + w(t) (see the module
    docstring), a batch of steps at a time: step i's state goes to row
    base + i of hist, whose rows base - m - 4 .. base hold the pre-history.
    Step i's delayed stages read hist rows base+i-m-1 .. base+i-m+2, or
    base+i-3 .. base+i when m = 1, so a batch of at most max(m-1, 1) steps
    starting at i reads rows up to base+i, the last accepted state.  Without
    a delayed term (m = 0) any batch size works; _CHUNK_ROWS bounds the
    batch's temporaries.  A batch's forcings are written into its rows and
    the recurrence runs over them in place (_recur, or a cumulative sum in
    mode "full").

    When a batch would run past the end of hist, the accepted rows not yet
    handed on go to sink(first step, rows); then the accepted state and the
    m + 4 rows before it, which hold every row the batch reads, are copied
    to the front, and base moves back so that the state is row base + i
    again.  hist holds m + 5 rows and one batch.  Batches and products are
    the same wherever the rows lie, so a run that slides fills its rows bit
    for bit as one that does not.  The run's last rows go to the sink when
    it ends, so the sink sees every row from step 0 to the last, once and
    in order.  The rows it gets are a view of hist, valid until it returns;
    the row at _window_start(nsteps) is copied when a slide hands it on.

    A disturbance is sampled f values wide for the steps hist holds, at the
    start and after each slide, one window at a time; step i's samples are
    row base + i - pad.  They add into the last f columns of g in mode
    "full", and meet the last f columns of C1, Ch and C4 otherwise.

    In mode "full" the b + 3 delayed samples of a batch of b steps take one
    product y = xd (h/24) atau^T, into one buffer whose four filter views
    are made once (the run's last, shorter batch slices it), and step j's
    forcing is the four-tap filter sum_q c_q y[j + q], with c =
    _TAPS_CENTERED or, when m = 1, _TAPS_BACKWARD.  Batches of one step
    (m <= 2, or the last step of a run) take the taps as one dot product;
    longer ones use the centered taps' symmetry, 13 (y1 + y2) - (y0 + y3).
    The cumulative sum is a chain of adds down each column; an even dim's
    rows are viewed as complex pairs, whose add is the float adds of both
    parts in the same order, so each add advances two chains bit for bit.
    An odd dim sums the floats.

    The run is cut back to its first row whose norm is non-finite or beyond
    DIVERGENCE_CUTOFF (_first_bad), screened at each slide, before any row
    goes to the sink or the window moves, and at the run's end.  Batches
    between screens may run on from inf or NaN past that row, and are
    dropped: every row, and each chunk start of the blocked recurrence, is
    computed from the rows before it alone, so the rows before it are those
    of a run cut at once.  No other norm is taken here.

    Returns (last, verdict): the steps kept and their verdict (_judge).
    """
    hist, nsteps, m, a0, atau, h, sample, f = (
        run.hist, run.nsteps, run.m, run.a0, run.atau, run.h, run.sample, run.f)
    batch = _batch_steps(m)
    (w0, w1, w2, w3), taps, s0 = (
        (_W_BACKWARD, _TAPS_BACKWARD, -2) if m == 1 else (_W_CENTERED, _TAPS_CENTERED, -1))
    if a0 is None:
        # every term delayed: P = I and C1 = Ch/4 = C4 = (h/6) I
        kt = (h / 24.0) * atau.T
        y = np.empty((min(batch, nsteps) + 3, hist.shape[1]))
        y0, y1, y2, y3 = y[:-3], y[1:-2], y[2:-1], y[3:]
        acc = hist.view(np.complex128) if hist.shape[1] % 2 == 0 else hist
    else:
        z = h * a0
        z2 = z @ z
        eye = np.eye(len(z))
        p = eye + z + z2 / 2.0 + z2 @ z / 6.0 + z2 @ z2 / 24.0
        c1 = (h / 6.0) * (eye + z + z2 / 2.0 + z2 @ z / 4.0)
        ch = (h / 6.0) * (4.0 * eye + 2.0 * z + z2 / 2.0)
        c4 = (h / 6.0) * eye
        if atau is not None:
            c1a, cha, c4a = (c @ atau for c in (c1, ch, c4))
        pc = fill = None
        if _blocked(m, nsteps):
            # P^1 .. P^(c-1) go straight into their blocks of fill, each the
            # product of the one before with P; only the last power is kept
            fill = np.empty((len(p), (_SCAN_CHUNK - 1) * len(p)))
            blocks = fill.reshape(len(p), _SCAN_CHUNK - 1, len(p))
            pc = p
            for j in range(_SCAN_CHUNK - 1):
                blocks[:, j] = pc.T
                pc = pc @ p
            # a step so far beyond RK4's bound that P^c overflows would fill
            # a zero state with inf * 0 = NaN; such runs keep the plain loop
            if not np.all(np.isfinite(pc)):
                pc = fill = None
        if sample is not None:
            c1f, chf, c4f = (c[:, -f:].T for c in (c1, ch, c4))
        forced = atau is not None or sample is not None
    last, diverged = nsteps, False
    pad = base = m + 4
    i = sent = 0  # steps taken, rows handed to the sink
    start, kept = _window_start(nsteps), None
    while True:
        b = min(batch, nsteps - i)
        if b == 0 or base + i + b + 1 > len(hist):
            # screen the rows since the last screen (row 0 is x0, not a step)
            first = max(sent, 1)
            cut = _first_bad(hist[base + first : base + i + 1], batch)
            if cut is not None:
                last, diverged = first + cut, True
            if cut is not None or b == 0:
                break
            sink(sent, hist[base + sent : base + i + 1])
            if sent <= start <= i:
                kept = hist[base + start].copy()
            sent = i + 1
            hist[: pad + 1] = hist[base + i - pad : base + i + 1]
            base = pad - i
        r = base + i  # the accepted state's row; the batch fills the b after it
        g = hist[r + 1 : r + b + 1]
        if sample is not None:
            j = r - pad  # 0 at the start and after each slide
            if j == 0:
                grid = mid = None  # the last window goes before the next
                grid, mid = sample(i, min(nsteps, len(hist) - 1 - base))
        if a0 is None:
            if b + 3 < len(y):  # the run's last, shorter batch
                y = y[: b + 3]
                y0, y1, y2, y3 = y[:-3], y[1:-2], y[2:-1], y[3:]
            lo = r - m + s0
            np.matmul(hist[lo : lo + b + 3], kt, out=y)
            if b == 1:
                np.dot(taps, y, out=g[0])
            else:
                np.add(y1, y2, out=g)
                g *= 13.0
                g -= y0
                g -= y3
            if sample is not None:
                g[:, -f:] += (h / 6.0) * (grid[j : j + b] + 4.0 * mid[j : j + b]
                                          + grid[j + 1 : j + b + 1])
            sums = acc[r : r + b + 1]
            np.add.accumulate(sums, axis=0, out=sums)
        else:
            if atau is None:
                g[:] = 0.0
            else:
                lo = r - m
                xd = hist[lo + s0 : lo + s0 + b + 3]
                xdh = w0 * xd[:b] + w1 * xd[1 : b + 1] + w2 * xd[2 : b + 2] + w3 * xd[3 : b + 3]
                g[:] = hist[lo : lo + b] @ c1a.T + xdh @ cha.T + hist[lo + 1 : lo + b + 1] @ c4a.T
            if sample is not None:
                g += grid[j : j + b] @ c1f + mid[j : j + b] @ chf + grid[j + 1 : j + b + 1] @ c4f
            _recur(hist[r : r + b + 1], p, pc, fill, forced)
        i += b
    sink(sent, hist[base + sent : base + last + 1])
    # last * h is the verdict's horizon, the last of simulate's times
    rows = None if diverged else np.stack(
        [kept if start < sent else hist[base + start], hist[base + last]])
    return last, _judge(rows, last * h, diverged)


def _first_bad(rows, piece: int):
    """The index of the first of rows whose norm is non-finite or beyond
    DIVERGENCE_CUTOFF, or None.  A sum of squares (one dot product) within
    (DIVERGENCE_CUTOFF / 2)^2 leaves a factor of 2 that no rounding closes;
    rows past it (NaN and overflow are) are screened again `piece` rows at
    a time, and only a failing piece takes per-row norms."""
    flat = rows.ravel()
    if np.dot(flat, flat) <= (0.5 * DIVERGENCE_CUTOFF) ** 2:
        return None
    if len(rows) > piece:
        for lo in range(0, len(rows), piece):
            cut = _first_bad(rows[lo : lo + piece], piece)
            if cut is not None:
                return lo + cut
        return None
    bad = ~(np.linalg.norm(rows, axis=1) <= DIVERGENCE_CUTOFF)
    return int(np.argmax(bad)) if bad.any() else None


def _recur(rows, p, pc, fill, forced) -> None:
    """Solve x_j = P x_{j-1} + g_j in place over rows = [x_0, g_1, .., g_b].

    With pc = P^c and fill = [P^T, (P^2)^T, .., (P^{c-1})^T] side by side
    (c = _SCAN_CHUNK), the first s = floor(b / c) >= 2 chunks of c steps go
    through the three passes of the module docstring.  Pass 1 is skipped
    when the forcings are zero by construction (forced false).  The row at
    each chunk boundary is the start its chunk is filled from.  The rest,
    and every batch when fill is None, takes one product per step.
    """
    c = _SCAN_CHUNK
    s = (len(rows) - 1) // c
    if fill is not None and s >= 2:
        dim = rows.shape[1]
        sums = rows[1 : s * c + 1].reshape(s, c, dim)
        if forced:
            for j in range(1, c):
                sums[:, j] += sums[:, j - 1] @ p.T
        starts = rows[: s * c + 1 : c]
        for x, nxt in zip(starts[:-1], starts[1:]):
            nxt += np.dot(pc, x)
        sums[:, :-1] += (starts[:-1] @ fill).reshape(s, c - 1, dim)
        rows = rows[s * c :]
    for x, nxt in zip(rows[:-1], rows[1:]):
        nxt += np.dot(p, x)


def simulate_offdiagonal(sys: SimSystem, tau: float, x0, horizon: float, step: float) -> Trajectory:
    """Velocity dynamics with instantaneous own state and delayed neighbor
    states: xdot = -Dg x(t) + Ag x(t - tau); stable for any tau."""
    return simulate(sys, DelaySpec(tau=tau, mode="self-undelayed"), x0, horizon, step)


# ---------------------------------------------------------------------------
# Verdicts and threshold scan
# ---------------------------------------------------------------------------

def _window_start(last: int) -> int:
    """The row that starts the trailing window of a run of last steps."""
    return int(round((1.0 - TRAILING_WINDOW) * last))


def _judge(rows, horizon: float, diverged: bool) -> StabilityVerdict:
    """The verdict (see the module docstring) on a run of `horizon` whose
    trailing window starts at rows[0] and ends at rows[1].  A start norm of
    0 gives ratio 0; a ratio that overflows is inf without any divergence."""
    if diverged:
        ratio = math.inf
    else:
        start, end = _row_norms(rows).tolist()
        ratio = 0.0 if start == 0.0 else end / start
    return StabilityVerdict(bool(ratio < STABILITY_THRESHOLD), ratio, horizon, diverged)


def threshold_scan(
    sys: SimSystem,
    tau_lo: float,
    tau_hi: float,
    tolerance: float,
    x0=None,
    horizon: float | None = None,
) -> float:
    """Bisect the empirical critical delay between a stable and an unstable run.

    Args:
        sys: system to scan.
        tau_lo: delay that must classify stable.
        tau_hi: delay that must classify unstable (> tau_lo).
        tolerance: final bracket width; the midpoint is returned.
        x0: initial state; defaults to a uniform(-1, 1) vector of seed 0,
            which excites every mode (structured states can miss the
            critical one).
        horizon: simulation horizon; defaults to max(80, 1000 / max diag(lg)),
            too short where the slowest mode cannot fall below 20% over the
            trailing quarter: the scan then reads low (formation P(8,1) with
            reference {1}: 0.2694, exact margin 0.5009; ROADMAP item 3).

    Each run uses step = tau / _SCAN_STEPS_PER_TAU, so the delay is resolved
    identically across the bracket.

    Raises:
        ParameterError: on a non-finite or unordered bracket, a non-finite
            or non-positive tolerance, or endpoints that do not classify as
            (stable, unstable).
    """
    # before any run: with a NaN or inf tolerance the loop below would stop
    # at once and return the unrefined midpoint
    errors.check("tau_lo", tau_lo, 0.0, strict=True)
    errors.check("tau_hi (above tau_lo)", tau_hi, tau_lo, strict=True)
    errors.check("tolerance", tolerance, 0.0, strict=True)
    if x0 is None:
        x0 = np.random.default_rng(0).uniform(-1.0, 1.0, sys.dim)
    if horizon is None:
        horizon = max(80.0, 1000.0 / float(np.max(np.diag(sys.lg))))

    def is_stable(tau: float) -> bool:
        step = tau / _SCAN_STEPS_PER_TAU
        return verdict(sys, DelaySpec(tau=tau, mode="full"), x0, horizon, step).stable

    if not is_stable(tau_lo):
        raise ParameterError(f"lower bracket tau={tau_lo} does not classify stable")
    if is_stable(tau_hi):
        raise ParameterError(f"upper bracket tau={tau_hi} does not classify unstable")
    lo, hi = float(tau_lo), float(tau_hi)
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if is_stable(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
