"""Scenario runner: config parsing, experiment batteries, and file emission.

Experiments are thin orchestration over the library modules — every number
written to a report comes from a module operation; the only CLI-side
arithmetic is output formatting and the log-log least-squares fits of the
scaling study.  Outputs are deterministic: identical config + seed produce
byte-identical files.
"""

from __future__ import annotations

import configparser
import io
import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import dde_sim, errors, robustness, spectral, topology
from .errors import ParameterError

ARRANGEMENTS = ("md", "explicit")
DISTURBANCES = ("none", "sin", "noise")

TWO_OVER_SQRT3 = 2.0 / math.sqrt(3.0)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """One fully validated experiment scenario."""

    n: int
    k: int
    arrangement: str = "md"
    refs: tuple = ()
    experiment: str = "report"
    taus: tuple = ()
    ns: tuple = ()
    gamma: float | None = None
    horizon: float | None = None
    step: float | None = None
    seed: int = 0
    dynamics: str = "velocity"
    tau: float = 0.0
    delay_mode: str = "full"
    disturbance: str = "none"
    amplitude: float = 0.0
    omega: float = 1.0
    sweep_csv: bool = False
    outdir: str = "results"

    def reference_set(self) -> topology.ReferenceSet:
        if self.arrangement == "md":
            return topology.md_arrangement(self.n, self.k)
        return topology.make_reference_set(self.n, self.refs)


class Key(NamedTuple):
    """How a config file and the command line spell one ScenarioConfig key,
    how its text parses, and what each of its values is held to."""

    section: str        # the config-file section emit_config writes it in
    parse: object       # int, float, str, bool, or the tuple of its choices
    help: str | None    # its flag's help; None: a config file is the only way in
    bounds: dict = {}   # errors.check's bounds, for an int (held whole) or float key
    many: bool = False  # a list, its values split at commas and spaces
    name: str = ""      # its config-file spelling, when not the key itself
    flag: str = ""      # its flag, when not --key with "-" for "_"


#: one row per ScenarioConfig field, in field order
KEYS = {
    "n": Key("platoon", int, "vehicle count", dict(low=2)),
    "k": Key("platoon", int, "connectivity index", dict(low=1)),
    "arrangement": Key("platoon", ARRANGEMENTS, "reference arrangement (default md)"),
    "refs": Key("platoon", int, "reference indices for arrangement=explicit, e.g. '5,14,23,32'",
                dict(low=1), many=True),
    "experiment": Key("experiment", str, None, name="name"),
    "taus": Key("experiment", float, "delay list, e.g. '0.05,0.09,0.1,0.4'",
                dict(low=0.0), many=True),
    "ns": Key("experiment", int, "platoon sizes, e.g. '8,16,32,64,128' (>= 5 distinct values)",
              dict(low=2), many=True),
    "gamma": Key("experiment", float, "also evaluate the gain-threshold predicates",
                 dict(low=robustness.GAMMA_MIN, strict=True)),
    "horizon": Key("experiment", float, "simulation horizon", dict(low=0.0, strict=True)),
    "step": Key("experiment", float, "integration step", dict(low=0.0, strict=True)),
    "seed": Key("experiment", int, "seed for initial states and noise (default 0)", dict(low=0)),
    "dynamics": Key("experiment", robustness.DYNAMICS, "dynamics (default velocity)"),
    "tau": Key("experiment", float,
               "constant communication delay (default 0: undelayed in either mode)",
               dict(low=0.0)),
    "delay_mode": Key("experiment", dde_sim.DELAY_MODES, "delayed terms (default full)"),
    "disturbance": Key("experiment", DISTURBANCES, "disturbance (default none)"),
    "amplitude": Key("experiment", float, "disturbance amplitude (default 0)"),
    "omega": Key("experiment", float, "sinusoid frequency in rad/s (default 1)"),
    "sweep_csv": Key("experiment", bool, "also write the frequency-response CSVs"),
    "outdir": Key("output", str, "output directory (default results)", name="dir", flag="--out"),
}

#: the key that each config-file spelling sets
_SPELLED = {row.name or key: key for key, row in KEYS.items()}


class Command(NamedTuple):
    """One platoon subcommand: its help, the one experiment a config file
    may name for it, the runner in this module that it calls as
    runner(cfg, *args, outdir), and every key it reads."""

    help: str
    experiment: str
    runner: str
    args: tuple
    keys: tuple


# every subcommand takes these (report draws nothing from the seed); all but
# scaling, which compares a single end reference with MD, also take _PLACED
_SHARED = ("n", "k", "seed", "outdir", "experiment")
_PLACED = ("arrangement", "refs")

COMMANDS = {
    "report": Command("robustness report (JSON + text summary)", "report", "run_report", (),
                      (*_SHARED, *_PLACED, "gamma", "sweep_csv")),
    "sweep-remove": Command("drop each minimally-dense reference in turn", "add-remove",
                            "run_remove_add_sweep", ("remove",), (*_SHARED, *_PLACED)),
    "sweep-add": Command("promote each non-reference position in turn", "add-remove",
                         "run_remove_add_sweep", ("add",), (*_SHARED, *_PLACED)),
    "delay-grid": Command("simulate both dynamics over a list of delays", "delay-grid",
                          "run_delay_grid", (), (*_SHARED, *_PLACED, "taus", "horizon", "step")),
    "scaling": Command("gain growth with n: single end reference vs MD", "scaling",
                       "run_scaling", (), (*_SHARED, "ns")),
    "simulate": Command("one time-domain run, exported as CSV", "simulate", "run_simulate", (),
                        (*_SHARED, *_PLACED, "dynamics", "tau", "delay_mode", "horizon",
                         "step", "disturbance", "amplitude", "omega")),
}


def _parse(key: str, value):
    """A raw value of `key` parsed as its row says, when it is a number's,
    a list's or a bool's text; any other value as given."""
    row = KEYS[key]
    if not isinstance(value, str) or row.parse not in (int, float, bool):
        return value
    try:
        if row.parse is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]
        if row.many:
            return tuple(row.parse(v) for v in value.replace(",", " ").split())
        return row.parse(value)
    except (KeyError, ValueError) as exc:
        raise ParameterError(f"bad value for {key}: {exc}") from exc


def load_config_file(path: str) -> dict:
    """Read a key = value sections file into a flat {key: raw string} dict.
    A key may sit in any section; one the table does not spell is refused."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    raw = {}
    for section in parser.sections():
        for spelling, value in parser.items(section):
            spelling = spelling.replace("-", "_")
            if spelling not in _SPELLED:
                raise ParameterError(f"config file {path}: unknown key {spelling!r}")
            raw[_SPELLED[spelling]] = value
    return raw


def finalize_config(raw: dict, command: str) -> ScenarioConfig:
    """Parse, default and validate a raw key/value mapping for `command`,
    refusing any key that the command does not read."""
    cmd = COMMANDS[command]
    unread = [key for key in raw if key not in cmd.keys]
    if unread:
        raise ParameterError(f"the {command} subcommand does not read {', '.join(unread)}")
    parsed = {key: _parse(key, value) for key, value in raw.items() if value is not None}
    if "n" not in parsed or "k" not in parsed:
        raise ParameterError("config must supply n and k")
    if parsed.setdefault("experiment", cmd.experiment) != cmd.experiment:
        raise ParameterError(f"the {command} subcommand runs name = {cmd.experiment}, "
                             f"not {parsed['experiment']!r}")
    for key, value in parsed.items():
        row = KEYS[key]
        if isinstance(row.parse, tuple) and value not in row.parse:
            raise ParameterError(f"{key} must be one of {row.parse}, got {value!r}")
        if row.parse in (int, float):
            for v in value if row.many else (value,):
                errors.check(key, v, integer=row.parse is int, **row.bounds)
    cfg = ScenarioConfig(**parsed)
    for key, readers in (("amplitude", ("sin", "noise")), ("omega", ("sin",))):
        if key in parsed and cfg.disturbance not in readers:
            raise ParameterError(f"disturbance {cfg.disturbance} does not read {key}")
    # before any platoon is built (check_run checks omega t on a default horizon)
    _make_disturbance(cfg)
    if cfg.disturbance == "sin" and cfg.horizon is not None:
        errors.check("sinusoid omega times the horizon", cfg.omega * cfg.horizon)
    if cfg.step is None:
        # before any run: a delay whose default step underflows fails its run
        dde_sim.default_step(cfg.tau, "tau")
        for tau in cfg.taus:
            dde_sim.default_step(tau, "taus")

    if cfg.arrangement == "explicit" and not cfg.refs:
        raise ParameterError("arrangement=explicit requires refs")
    if cfg.refs and cfg.arrangement != "explicit":
        raise ParameterError(f"refs require arrangement=explicit, got {cfg.arrangement!r}")
    if command == "delay-grid" and not cfg.taus:
        raise ParameterError("delay-grid requires a nonempty taus list")
    if command == "scaling" and len(set(cfg.ns)) < 5:
        raise ParameterError(f"scaling requires at least 5 distinct n values, "
                             f"got {len(set(cfg.ns))}")
    # only simulate reads these keys; tau = 0 runs undelayed, in any mode
    if cfg.delay_mode == "self-undelayed" and cfg.dynamics == "formation" and cfg.tau > 0:
        raise ParameterError("self-undelayed mode applies to the velocity dynamics only")
    cfg.reference_set()  # validates refs against n, and n against memory
    return cfg


def emit_config(cfg: ScenarioConfig) -> str:
    """Render the effective merged config as a sections file."""
    parser = configparser.ConfigParser()
    for section in dict.fromkeys(row.section for row in KEYS.values()):
        parser.add_section(section)
    defaults = ScenarioConfig(n=cfg.n, k=cfg.k)
    for key, row in KEYS.items():
        value = getattr(cfg, key)
        if value is None or (key not in ("n", "k") and value == getattr(defaults, key)):
            continue
        rendered = " ".join(_fmt(v) for v in value) if row.many else _fmt(value)
        parser.set(row.section, row.name or key, rendered)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _analysis(cfg: ScenarioConfig, refset=None):
    top = topology.build_platoon(cfg.n, cfg.k)
    refset = refset or cfg.reference_set()
    gs = topology.ground(top, refset)
    spec = spectral.eig_sym(gs.lg)
    return top, refset, gs, spec


def _write(path, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def _csv(metadata: dict | None, header: list, rows) -> str:
    lines = [] if metadata is None else [
        "# " + ", ".join(f"{key}={value}" for key, value in metadata.items())]
    lines.append(",".join(header))
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def _meta(cfg: ScenarioConfig, refset) -> dict:
    return {
        "n": cfg.n,
        "k": cfg.k,
        "refs": " ".join(str(r) for r in refset.refs),
        "seed": cfg.seed,
    }


def _make_disturbance(cfg: ScenarioConfig):
    if cfg.disturbance == "none":
        return None
    if cfg.disturbance == "sin":
        return dde_sim.SinusoidDisturbance(cfg.amplitude, cfg.omega)
    return dde_sim.NoiseDisturbance(cfg.amplitude, cfg.seed)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def run_report(cfg: ScenarioConfig, outdir) -> list:
    top, refset, gs, spec = _analysis(cfg)
    report = robustness.build_report(top, refset, gs=gs, spec=spec, gamma=cfg.gamma)
    responses = {}
    if cfg.sweep_csv:
        # one sweep per dynamics feeds both the report's peaks and its CSV
        responses = {dyn: robustness.sweep_hinf(gs, dyn, spec=spec)
                     for dyn in robustness.DYNAMICS}
        report = replace(report, swept=robustness.swept_peaks(responses))
    paths = [_write(outdir / "report.json", report.to_json())]
    paths.append(_write(outdir / "report.txt", _report_summary(report)))
    for dyn, fr in responses.items():
        rows = zip(fr.omegas.tolist(), fr.gains.tolist())
        paths.append(_write(outdir / f"freq_{dyn}.csv", _csv(None, ["omega", "gain"], rows)))
    return paths


def _report_summary(r: robustness.RobustnessReport) -> str:
    up = "unbounded" if math.isinf(r.hinf_velocity_upper) else _fmt(r.hinf_velocity_upper)
    lines = [
        f"Platoon P({r.n},{r.k}) with references {list(r.refs)} "
        f"({r.n - len(r.refs)} followers)",
        f"beta min/max = {r.beta_min}/{r.beta_max}, boundary = {r.boundary_size}, "
        f"max follower degree = {r.dmax_f}",
        f"lambda_1 = {_fmt(r.lambda1)}, lambda_max = {_fmt(r.lambda_max)}",
        f"velocity disturbance gain = {_fmt(r.hinf_velocity)} "
        f"(bounds {_fmt(r.hinf_velocity_lower)} .. {up})",
        f"formation disturbance gain = {_fmt(r.hinf_formation)}",
        f"stability margin: velocity = {_fmt(r.margin_velocity)}, "
        f"formation = {_fmt(r.margin_formation)} (bound {_fmt(r.margin_formation_lb)})",
        f"velocity delay margin (exact) = {_fmt(r.delay_velocity_max)}",
        f"velocity delay bounds from k: stable <= {_fmt(r.delay_k_sufficient)}, "
        f"unstable > {_fmt(r.delay_k_necessary)}",
        f"formation delay margin (exact) = {_fmt(r.delay_formation_exact)}, "
        f"sufficient from k: 1/(4k) = {_fmt(r.delay_formation_k_sufficient)}",
        f"min references for non-expansive velocity gain = {r.min_refs_nonexpansive}",
        f"certificate lambda_min holds = {_fmt(r.lambda_min_certificate.holds)}",
        f"certificate lambda_max holds = {_fmt(r.lambda_max_certificate.holds)}",
    ]
    if r.gamma is not None:
        lines.append(
            f"gamma = {_fmt(r.gamma.gamma)}: necessary_ok = {_fmt(r.gamma.necessary_ok)}, "
            f"sufficient_ok = {_fmt(r.gamma.sufficient_ok)}, "
            f"boundary_case = {_fmt(r.gamma.boundary_case)}"
        )
    if r.swept:
        lines.append(
            f"swept peaks: velocity = {_fmt(r.swept['velocity_peak'])} "
            f"at omega = {_fmt(r.swept['velocity_peak_omega'])}, "
            f"formation = {_fmt(r.swept['formation_peak'])} "
            f"at omega = {_fmt(r.swept['formation_peak_omega'])}"
        )
    return "\n".join(lines) + "\n"


def _norms_for(refs, cfg: ScenarioConfig):
    spec = _analysis(cfg, topology.make_reference_set(cfg.n, refs))[3]
    return spec.lambda1, robustness.hinf_velocity(spec), robustness.hinf_formation(spec)


def _sweep_rows(cfg: ScenarioConfig, mode: str) -> list:
    """[position, lambda1, hinf_velocity, hinf_formation] with the reference
    at each position removed from (mode "remove") or added to ("add") the
    minimally dense arrangement."""
    if cfg.arrangement != "md":
        raise ParameterError(f"{mode} sweep requires arrangement=md")
    if mode not in ("remove", "add"):
        raise ParameterError(f"mode must be remove|add, got {mode!r}")
    base = set(cfg.reference_set().refs)
    positions = sorted(base) if mode == "remove" else [
        p for p in range(1, cfg.n + 1) if p not in base
    ]
    rows = []
    for pos in positions:
        refs = sorted(base - {pos}) if mode == "remove" else sorted(base | {pos})
        # removing the only reference leaves no grounding: unbounded gains
        rows.append([pos, *(_norms_for(refs, cfg) if refs else (0.0, math.inf, math.inf))])
    return rows


def run_remove_add_sweep(cfg: ScenarioConfig, mode: str, outdir) -> list:
    """Recompute both disturbance gains with one reference removed from (or
    one extra added to) the minimally dense arrangement, per position."""
    rows = _sweep_rows(cfg, mode)
    meta = _meta(cfg, cfg.reference_set())
    meta["mode"] = mode
    text = _csv(meta, ["position", "lambda1", "hinf_velocity", "hinf_formation"], rows)
    return [_write(outdir / f"sweep_{mode}.csv", text)]


def run_delay_grid(cfg: ScenarioConfig, outdir) -> list:
    """Classify both dynamics at every tau, and annotate each tau against the
    analytic thresholds pi/(8k), pi/(2k), 1/(4k), pi/(2 lambda_max) and the
    exact formation margin.  Every run is checked before the first, and each
    is classified by dde_sim.verdict, which holds the delay window and one
    chunk of rows rather than the run."""
    top, refset, gs, spec = _analysis(cfg)
    ksuff, kness = robustness.delay_bounds_k(cfg.k)
    fdm = robustness.delay_margin_formation(spec, cfg.k)
    exact_v = robustness.delay_margin_velocity(spec)
    horizon = cfg.horizon if cfg.horizon is not None else dde_sim.default_horizon(spec.lambda1)
    rng = np.random.default_rng(cfg.seed)
    systems = {
        "velocity": dde_sim.velocity_system(gs),
        "formation": dde_sim.formation_system(gs),
    }
    x0s = {name: rng.uniform(-1.0, 1.0, sysm.dim) for name, sysm in systems.items()}
    runs = [(tau, cfg.step if cfg.step is not None else dde_sim.default_step(tau),
             dde_sim.DelaySpec(tau), name)
            for tau in cfg.taus for name in systems]
    for tau, step, delay, name in runs:
        dde_sim.check_run(systems[name], delay, horizon, step)
    rows = []
    for tau, step, delay, name in runs:
        verdict = dde_sim.verdict(systems[name], delay, x0s[name], horizon, step)
        rows.append([
            tau, name, verdict.stable, verdict.decay_ratio, verdict.diverged, step,
            tau < ksuff, tau < kness, tau < fdm.k_bound, tau < exact_v, tau < fdm.exact,
        ])
    meta = _meta(cfg, refset)
    meta.update(horizon=_fmt(horizon), lambda_max=_fmt(spec.lambda_max))
    text = _csv(
        meta,
        ["tau", "dynamics", "stable", "decay_ratio", "diverged", "step",
         "below_pi_8k", "below_pi_2k", "below_inv_4k", "below_pi_2lmax",
         "below_formation_exact"],
        rows,
    )
    return [_write(outdir / "delay_grid.csv", text)]


def fit_loglog(ns, values) -> dict:
    """Least-squares slope of log(value) vs log(n), dropping the smallest n
    when its residual exceeds 3x the median residual (boundary effects)."""
    lx = np.log(np.asarray(ns, dtype=float))
    ly = np.log(np.asarray(values, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = np.abs(ly - (slope * lx + intercept))
    excluded = False
    if len(ns) > 2 and resid[0] > 3.0 * float(np.median(resid)):
        slope, intercept = np.polyfit(lx[1:], ly[1:], 1)
        excluded = True
    return {"slope": float(slope), "intercept": float(intercept), "excluded_smallest": excluded}


def run_scaling(cfg: ScenarioConfig, outdir) -> list:
    """Gain growth with platoon size: single end reference vs minimally dense."""
    ns = tuple(sorted(cfg.ns))
    # each row label's references at platoon size n
    arrangements = dict(single=lambda n: [1], md=lambda n: topology.md_arrangement(n, cfg.k).refs)
    rows, gains = [], {name: [] for name in arrangements}
    for n in ns:
        sub = replace(cfg, n=n)
        for name, refs in arrangements.items():
            lam1, hv, hf = _norms_for(refs(n), sub)
            rows.append([n, name, lam1, hv, hf])
            gains[name].append((hv, hf))
    (single_v, single_f), (md_v, md_f) = (zip(*g) for g in gains.values())
    fit_md = fit_loglog(ns, md_v)
    summary = dict(
        k=cfg.k,
        ns=list(ns),
        single=dict(velocity=fit_loglog(ns, single_v), formation=fit_loglog(ns, single_f)),
        md={
            "velocity_max": max(md_v),
            "formation_max": max(md_f),
            "velocity_bound_ok": max(md_v) <= 1.0 + 1e-12,
            "formation_bound_ok": max(md_f) <= TWO_OVER_SQRT3 + 1e-12,
            "velocity_slope": fit_md["slope"],
        },
    )
    meta = {"n_list": " ".join(str(n) for n in ns), "k": cfg.k, "seed": cfg.seed}
    paths = [
        _write(outdir / "scaling.csv",
               _csv(meta, ["n", "arrangement", "lambda1", "hinf_velocity", "hinf_formation"], rows)),
        _write(outdir / "scaling.json", json.dumps(summary, indent=2, sort_keys=True) + "\n"),
    ]
    return paths


def run_simulate(cfg: ScenarioConfig, outdir) -> list:
    top, refset, gs, spec = _analysis(cfg)
    sysm = (
        dde_sim.velocity_system(gs)
        if cfg.dynamics == "velocity"
        else dde_sim.formation_system(gs)
    )
    delay = dde_sim.DelaySpec(tau=cfg.tau, mode=cfg.delay_mode)
    horizon = cfg.horizon if cfg.horizon is not None else dde_sim.default_horizon(spec.lambda1)
    step = cfg.step if cfg.step is not None else dde_sim.default_step(cfg.tau)
    x0 = np.random.default_rng(cfg.seed).uniform(-1.0, 1.0, sysm.dim)
    path = outdir / "trajectory.csv"
    verdict, meta = dde_sim.simulate_to_csv(path, sysm, delay, x0, horizon, step,
                                            disturbance=_make_disturbance(cfg))
    verdict_text = (
        f"stable={_fmt(verdict.stable)}, decay_ratio={_fmt(verdict.decay_ratio)}, "
        f"horizon={_fmt(verdict.horizon)}, tau_effective={_fmt(meta['tau_effective'])}\n"
    )
    return [str(path), _write(outdir / "verdict.txt", verdict_text)]


# ---------------------------------------------------------------------------
# Verification battery (fast correctness checks; CLI exit code 4 on failure)
# ---------------------------------------------------------------------------

def _random_instance(rng, n_max=40, k_max=5, f_max=None):
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(1, k_max + 1))
    while True:
        n_refs = int(rng.integers(1, n))
        refs = sorted(int(r) for r in rng.choice(np.arange(1, n + 1), size=n_refs, replace=False))
        if f_max is None or n - n_refs <= f_max:
            break
    top = topology.build_platoon(n, k)
    refset = topology.make_reference_set(n, refs)
    return top, refset, topology.ground(top, refset)


def run_verify(seed: int = 0) -> tuple:
    """Fast desk-value and oracle checks.  Returns (failures, log lines)."""
    seed = errors.check("seed", seed, 0, integer=True)
    failures = []
    lines = []

    def check(name: str, ok: bool, detail: str = ""):
        tag = "ok" if ok else "FAIL"
        lines.append(f"verify {tag}: {name}" + (f" ({detail})" if detail else ""))
        if not ok:
            failures.append(name)

    top = topology.build_platoon(36, 4)
    refset = topology.md_arrangement(36, 4)
    gs = topology.ground(top, refset)
    spec = spectral.eig_sym(gs.lg)
    check("P(36,4) lambda1 = 1", abs(spec.lambda1 - 1.0) <= 1e-9, f"lambda1={spec.lambda1!r}")
    check("P(36,4) velocity gain = 1", abs(robustness.hinf_velocity(spec) - 1.0) <= 1e-9)
    check(
        "P(36,4) formation gain = 2/sqrt(3)",
        abs(robustness.hinf_formation(spec) - TWO_OVER_SQRT3) <= 1e-9,
    )
    check("P(36,4) min refs = 4", robustness.min_refs_nonexpansive(36, 4) == 4)

    top5 = topology.build_platoon(5, 2)
    gs5 = topology.ground(top5, topology.make_reference_set(5, [3]))
    spec5 = spectral.eig_sym(gs5.lg)
    hand = np.array([1.0, 3.0 - math.sqrt(2.0), 3.0, 3.0 + math.sqrt(2.0)])
    check("P(5,2)/refs={3} hand spectrum", float(np.max(np.abs(spec5.values - hand))) <= 1e-9)

    desk = ScenarioConfig(n=36, k=4)
    check("P(36,4) removing any reference breaks both gain bounds",
          all(hv > 1.0 + 1e-9 and hf > TWO_OVER_SQRT3 + 1e-9
              for _, _, hv, hf in _sweep_rows(desk, "remove")))
    check("P(36,4) adding any reference keeps velocity gain < 1",
          all(hv < 1.0 - 1e-9 for _, _, hv, _ in _sweep_rows(desk, "add")))

    rng = np.random.default_rng(seed)
    worst_cert = True
    for _ in range(60):
        _, _, g = _random_instance(rng)
        s = spectral.eig_sym(g.lg)
        worst_cert &= spectral.certify_lambda_min(g, s).holds
        worst_cert &= spectral.certify_lambda_max(g, s).holds
    check("certificates hold on 60 random instances", worst_cert)

    worst = worst_closed = 0.0
    for _ in range(20):
        t, _, g = _random_instance(rng, n_max=18, f_max=12)
        s = spectral.eig_sym(g.lg)
        mapped = spectral.formation_modes(s.values)
        dense = np.linalg.eigvals(spectral.build_formation_matrix(g))
        worst = max(worst, spectral.spectrum_mismatch(mapped, dense))
        # the closed forms in lambda_1 and lambda_max against every mode
        worst_closed = max(
            worst_closed,
            abs(robustness.hinf_formation(s) - max(map(robustness.peak_amplitude, s.values))),
            abs(robustness.delay_margin_formation(s, t.k).exact
                - robustness.delay_margin_exact(mapped)),
        )
    check("formation mapping matches dense eigenvalues", worst <= 1e-7, f"worst={worst:.2e}")
    check("formation gain and delay margin match their all-mode values",
          worst_closed <= 1e-12, f"worst={worst_closed:.2e}")

    worst = 0.0
    for _ in range(30):
        _, _, g = _random_instance(rng)
        worst = max(worst, spectral.stochasticity_defect(g))
    check("steady-state matrix row stochastic", worst <= 1e-9, f"worst={worst:.2e}")

    worst = 0.0
    for _ in range(25):
        _, _, g = _random_instance(rng, n_max=25)
        s = spectral.eig_sym(g.lg)
        for dyn, analytic in (
            ("velocity", robustness.hinf_velocity(s)),
            ("formation", robustness.hinf_formation(s)),
        ):
            peak = robustness.sweep_hinf(g, dyn, spec=s).peak_gain
            worst = max(worst, abs(peak - analytic) / analytic)
    check("swept peaks match analytic gains to 1e-12", worst <= 1e-12, f"worst={worst:.2e}")

    return failures, lines
