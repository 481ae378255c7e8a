"""The benchmark's workloads: inputs made from the seed, the operations of one
round, and the check of each operation's output.

Every call into platoonkit goes through a module attribute looked up at call
time (``robustness.build_report``, not a name bound at import), so the tracer
in spans.py sees it.  Each operation returns its output; its check returns a
list of problems.  Oracles are computed in checks.py and cached here, outside
any timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from functools import cached_property
from pathlib import Path

import numpy as np

import checks
from platoonkit import cli, dde_sim, experiments, robustness, spectral, topology



class Op:
    """One operation: `run()` returns an output that `check(output)` turns
    into a list of problems.  `kind` tags the operations an end-to-end metric
    is the median of ("scan", "report_largest"); `speed` names the kernel of
    speed.py its time is corrected with: "blas" where large dense matrix
    products dominate, else "py"."""

    __slots__ = ("name", "kind", "run", "check", "speed")

    def __init__(self, name, run, check, kind=None, speed="py"):
        self.name, self.run, self.check, self.kind, self.speed = name, run, check, kind, speed


def read_csv(path) -> tuple:
    """(header, rows of strings) of a platoonkit CSV, without its # lines."""
    with open(path, newline="") as fh:
        body = list(csv.reader(line for line in fh if not line.startswith("#")))
    return body[0], body[1:]


def read_trajectory(path) -> np.ndarray:
    with open(path) as fh:
        line = fh.readline()
        while line.startswith("#"):
            line = fh.readline()  # ends on the column header
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def sweep_rows(path) -> list:
    _, rows = read_csv(path)
    return [(int(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in rows]


def scaling_rows(path) -> list:
    _, rows = read_csv(path)
    return [(int(r[0]), r[1], float(r[2]), float(r[3]), float(r[4])) for r in rows]


def warm_up(outdir: Path) -> None:
    """One small call into each layer: a report through the CLI (topology,
    spectral, robustness, experiments, cli) and a short delayed simulation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["report", "--n", "8", "--k", "2", "--out", str(outdir)])
    if code != 0:
        raise RuntimeError(f"warm-up report exited {code}: {out.getvalue()}")
    gs = topology.ground(topology.build_platoon(8, 2), topology.md_arrangement(8, 2))
    dde_sim.simulate(dde_sim.velocity_system(gs), dde_sim.DelaySpec(0.1, "full"),
                     np.ones(gs.n_followers), horizon=1.0, step=0.01)


def _report_op(name: str, n: int, k: int, refs, kind=None, md=False, speed="py") -> Op:
    """build_report with frequency sweep (and its eigensolve) on P(n, k)."""
    refs = tuple(refs)

    def run():
        top = topology.build_platoon(n, k)
        refset = topology.md_arrangement(n, k) if md else topology.make_reference_set(n, refs)
        return robustness.build_report(top, refset, with_sweep=True)

    def check(report):
        return checks.check_report(report.to_json_dict(), n, k, refs)

    return Op(name, run, check, kind, speed)


def files_written(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def round_ops(self, outdir: Path) -> list:
        """The operations of one round, writing their files under `outdir`."""
        raise NotImplementedError

    def probe_ops(self) -> list:
        """A block of operations timed after every operation of an untraced
        round but left out of the round's time (none by default)."""
        return []


# ---------------------------------------------------------------------------
# desk-p36: the seven subcommands of scripts/run_experiments.py
# ---------------------------------------------------------------------------

class DeskP36(Workload):
    """The P(36,4) battery with minimally dense references, through cli.main.
    The seed sets the CLI --seed, i.e. the initial states of delay-grid and
    simulate; verify keeps its default seed, as in the script."""

    name = "desk-p36"
    N, K = 36, 4
    HORIZON, STEP = 500.0, 0.005  # the off-diagonal run

    def __init__(self, seed):
        super().__init__(seed)
        self.base = ["--n", "36", "--k", "4", "--arrangement", "md", "--seed", str(seed)]

    @cached_property
    def lams(self):
        return checks.spectrum(self.N, self.K, checks.md_refs(self.N, self.K))

    def _cli_op(self, name: str, argv: list, check, speed="py") -> Op:
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        def check_exit(result):
            code, text = result
            if code != 0:
                return [f"{name} exited {code}"]
            return check(text)

        return Op(name, run, check_exit, "scan" if name == "delay-grid" else None, speed)

    def round_ops(self, outdir):
        def d(sub):
            return outdir / sub

        b = self.base
        return [
            self._cli_op("report", ["report", *b, "--gamma", "1.0", "--sweep-csv",
                                    "--out", str(d("report"))], lambda _: self._check_report(d("report"))),
            self._cli_op("delay-grid", ["delay-grid", *b, "--taus", "0,0.05,0.09,0.1,0.4",
                                        "--horizon", "100", "--step", "0.001",
                                        "--out", str(d("delay_grid"))],
                         lambda _: self._check_grid(d("delay_grid"))),
            self._cli_op("sweep-remove", ["sweep-remove", *b, "--out", str(d("sweeps"))],
                         lambda _: self._check_sweep(d("sweeps"), "remove")),
            self._cli_op("sweep-add", ["sweep-add", *b, "--out", str(d("sweeps"))],
                         lambda _: self._check_sweeps_minimal(d("sweeps"))),
            self._cli_op("scaling", ["scaling", "--n", "8", "--k", "1", "--ns", "8,16,32,64,128",
                                     "--out", str(d("scaling"))],
                         lambda _: self._check_scaling(d("scaling")), "blas"),
            self._cli_op("simulate", ["simulate", *b, "--dynamics", "velocity", "--tau", "5",
                                      "--delay-mode", "self-undelayed",
                                      "--horizon", str(self.HORIZON), "--step", str(self.STEP),
                                      "--out", str(d("sim_offdiag"))],
                         lambda _: self._check_trajectory(d("sim_offdiag"))),
            self._cli_op("verify", ["verify"],
                         lambda text: [] if "verification passed" in text else ["verify did not pass"]),
        ]

    def probe_ops(self):
        """The battery reports on no platoon larger than P(36,4): eight
        build_report calls on it after each of the seven subcommands."""
        return [_report_op(f"report-probe-{i}", self.N, self.K, checks.md_refs(self.N, self.K),
                           "report_largest", md=True) for i in range(8)]

    def _check_report(self, d):
        out = checks.check_desk_report(json.loads((d / "report.json").read_text()), self.N, self.K)
        for dyn in ("velocity", "formation"):
            _, rows = read_csv(d / f"freq_{dyn}.csv")
            data = np.array(rows, dtype=float)
            out += checks.check_frequency_response(data[:, 0], data[:, 1], self.lams, dyn)
        return out

    def _check_grid(self, d):
        header, rows = read_csv(d / "delay_grid.csv")
        cols = {name: i for i, name in enumerate(header)}
        grid = [(float(r[cols["tau"]]), r[cols["dynamics"]], r[cols["stable"]] == "true")
                for r in rows]
        return checks.check_delay_grid(grid, self.lams)

    def _check_sweep(self, d, mode):
        return checks.check_sweep(sweep_rows(d / f"sweep_{mode}.csv"), mode, self.N, self.K)

    def _check_sweeps_minimal(self, d):
        return self._check_sweep(d, "add") + checks.check_md_minimal(
            sweep_rows(d / "sweep_remove.csv"), sweep_rows(d / "sweep_add.csv"))

    def _check_scaling(self, d):
        summary = json.loads((d / "scaling.json").read_text())
        return checks.check_scaling(scaling_rows(d / "scaling.csv"), summary, k=1)

    def _check_trajectory(self, d):
        verdict = (d / "verdict.txt").read_text()
        data = read_trajectory(d / "trajectory.csv")
        return checks.check_trajectory(data, self.HORIZON, self.STEP, "stable=true" in verdict)


# ---------------------------------------------------------------------------
# delay-scan: bisection of the critical delay of a small random platoon
# ---------------------------------------------------------------------------

class DelayScan(Workload):
    """P(12,3) with four references at random positions (eight followers),
    drawn from the seed; a round scans its velocity and its formation delay
    margin.

    The references are redrawn until the critical mode of the formation
    dynamics is real (then pi / (2 rho(B)) is the exact formation margin; see
    the README for why complex critical modes are left out).  Each scan
    brackets the margin by BRACKET, stops at a bracket width of WIDTH times the
    margin, steps at tau/150 and runs HORIZON_PER_TAU times the margin, which
    is the 1000 / lambda_max horizon of criterion 07 for the velocity
    dynamics.  Every simulation so has about the same number of steps, and a
    scan costs about the same on every seed.
    """

    name = "delay-scan"
    N, K, REFS = 12, 3, 4
    BRACKET = (0.85, 1.15)
    WIDTH = 0.005
    HORIZON_PER_TAU = 2000.0 / math.pi

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        while True:
            refs = sorted(int(r) for r in rng.choice(np.arange(1, self.N + 1), self.REFS,
                                                     replace=False))
            if checks.critical_mode_is_real(checks.spectrum(self.N, self.K, refs)):
                break
        self.refs = tuple(refs)
        followers = self.N - self.REFS
        self.x0 = {"velocity": rng.uniform(-1.0, 1.0, followers),
                   "formation": rng.uniform(-1.0, 1.0, 2 * followers)}

    @cached_property
    def lams(self):
        return checks.spectrum(self.N, self.K, self.refs)

    def _scan_op(self, dynamics: str) -> Op:
        def run():
            top = topology.build_platoon(self.N, self.K)
            gs = topology.ground(top, topology.make_reference_set(self.N, self.refs))
            spec = spectral.eig_sym(gs.lg)
            if dynamics == "velocity":
                sysm, margin = dde_sim.velocity_system(gs), robustness.delay_margin_velocity(spec)
            else:
                sysm = dde_sim.formation_system(gs)
                margin = math.pi / 2.0 * robustness.delay_margin_formation(spec, self.K).rho_bound
            lo, hi = self.BRACKET
            est = dde_sim.threshold_scan(
                sysm, lo * margin, hi * margin, tolerance=self.WIDTH * margin,
                x0=self.x0[dynamics], horizon=self.HORIZON_PER_TAU * margin,
            )
            return est, self.WIDTH * margin

        def check(result):
            est, width = result
            if dynamics == "velocity":
                return checks.check_velocity_scan(est, self.lams)
            return checks.check_formation_scan(est, self.lams, width)

        return Op(f"scan-{dynamics}", run, check, "scan")

    def round_ops(self, outdir):
        return [self._scan_op("velocity"), self._scan_op("formation")]

    def probe_ops(self):
        """build_report on the scanned platoon: thirty calls after each
        scan."""
        return [_report_op(f"report-probe-{i}", self.N, self.K, self.refs, "report_largest")
                for i in range(30)]


# ---------------------------------------------------------------------------
# spectral-scale: eigensolves from a few to a few hundred vehicles
# ---------------------------------------------------------------------------

class SpectralScale(Workload):
    """Reports with frequency sweeps on P(256,3) (minimally dense) and on a
    batch of small random platoons, the reference add/remove sweeps of
    P(48,2) and a k = 1 scaling study up to n = 192.  The seed draws the
    small batch: one platoon per size in SMALL_SIZES with random k and
    references, and the single-end k = 1 platoons of SINGLE_END_SIZES, whose
    spectra have a closed form.  No simulation runs."""

    name = "spectral-scale"
    LARGEST = (256, 3)
    SWEEP = (48, 2)
    SCALING_NS = (12, 24, 48, 96, 192)
    SMALL_SIZES = tuple(range(8, 41, 2))
    SINGLE_END_SIZES = (10, 20, 30, 40)

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        self.small = []
        for n in self.SMALL_SIZES:
            k = int(rng.integers(1, 5))
            count = int(rng.integers(1, n // 4 + 1))
            refs = sorted(int(r) for r in rng.choice(np.arange(1, n + 1), count, replace=False))
            self.small.append((n, k, tuple(refs)))
        self.small += [(n, 1, (1,)) for n in self.SINGLE_END_SIZES]

    def _sweeps_op(self, outdir) -> Op:
        """Both reference sweeps of P(48,2), removal then addition: the scan
        of this workload."""
        n, k = self.SWEEP
        cfg = experiments.ScenarioConfig(n=n, k=k, experiment="add-remove")

        def run():
            return [experiments.run_remove_add_sweep(cfg, mode, outdir)[0]
                    for mode in ("remove", "add")]

        def check(paths):
            return [p for mode, path in zip(("remove", "add"), paths)
                    for p in checks.check_sweep(sweep_rows(path), mode, n, k)]

        return Op("sweeps", run, check, "scan")

    def _scaling_op(self, outdir) -> Op:
        cfg = experiments.ScenarioConfig(n=self.SCALING_NS[0], k=1, experiment="scaling",
                                         ns=self.SCALING_NS)

        def check(paths):
            summary = json.loads(Path(paths[1]).read_text())
            return checks.check_scaling(scaling_rows(paths[0]), summary, k=1)

        return Op("scaling", lambda: experiments.run_scaling(cfg, outdir), check, speed="blas")

    def round_ops(self, outdir):
        n, k = self.LARGEST
        return [
            _report_op("report-largest", n, k, checks.md_refs(n, k), "report_largest", md=True,
                       speed="blas"),
            self._sweeps_op(outdir),
            self._scaling_op(outdir),
            *(_report_op(f"report-{n}-{k}-{i}", n, k, refs)
              for i, (n, k, refs) in enumerate(self.small)),
        ]


WORKLOADS = {w.name: w for w in (DeskP36, DelayScan, SpectralScale)}


def prepare_outdir(path: Path) -> Path:
    """An empty directory at `path`."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
