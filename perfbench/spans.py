"""Span tracing of platoonkit's layers, recorded from outside the package.

`Tracer.install` replaces every public function of the layer modules, and
every public plain method of the classes they define, with a wrapper that
records one span per call: name, start, end and parent.  A function is
replaced in every namespace that binds it, so ``robustness.eig_sym`` (imported
from ``spectral``) and ``platoonkit.eig_sym`` are traced like
``spectral.eig_sym``.  A span is named after the module that defines the
function, which is the layer it belongs to.  Spans stay in memory until
`write` dumps them; `uninstall` restores the original functions.

`patch` does the replacing for the tracer and for the speed hooks of
speed.py.  `layer_metrics` turns the spans of one or more traced rounds into
the per-layer metrics of BENCHMARK.json.  A span's self time is its duration minus
the durations of its child spans; calls are nested and single-threaded, so
the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("topology", "spectral", "robustness", "dde_sim", "experiments", "cli")
SUBCOMMANDS = ("report", "delay-grid", "sweep-remove", "sweep-add", "scaling", "simulate", "verify")
DELAY_MODES = ("full", "none", "self-undelayed")

# span fields, stored as lists to keep the wrapper cheap
NAME, START, END, PARENT, ATTRS, ROUND = range(6)


def _simulate_attrs(args, kwargs, result) -> dict:
    delay = args[1] if len(args) > 1 else kwargs["delay"]
    return {"mode": delay.mode, "steps": len(result.norms) - 1}


def _cli_attrs(args, kwargs, result) -> dict:
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


_ATTRS = {"dde_sim.simulate": _simulate_attrs, "cli.main": _cli_attrs}


def patch(make_wrapper, only=None) -> list:
    """Replace the public functions of the layer modules, and the public plain
    methods of the classes they define, by ``make_wrapper(func, name)`` in
    every namespace that binds them; with `only`, just the functions whose
    span name is in it.  Returns what `restore` needs to undo it."""
    package = "platoonkit"
    modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
    namespaces = [importlib.import_module(package), *modules]
    wrappers: dict = {}
    saved: list = []

    def replace(owner, attr, func):
        name = f"{func.__module__.removeprefix(package + '.')}.{func.__qualname__}"
        if only is not None and name not in only:
            return
        if id(func) not in wrappers:
            wrappers[id(func)] = make_wrapper(func, name)
        saved.append((owner, attr, func))
        setattr(owner, attr, wrappers[id(func)])

    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if not attr.startswith("_") and inspect.isfunction(obj) \
                    and obj.__module__.startswith(package + "."):
                replace(ns, attr, obj)
    for mod in modules:
        for obj in list(vars(mod).values()):
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(member):
                        replace(obj, attr, member)
    return saved


def restore(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
    saved.clear()


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.round = -1
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, func, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        attrs = _ATTRS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None, self.round]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._saved = patch(self._wrap)

    def uninstall(self) -> None:
        restore(self._saved)

    def write(self, path) -> None:
        """Dump every span as one JSON document (times in ns, relative to the
        first span)."""
        t0 = self.spans[0][START] if self.spans else 0
        doc = [
            {"id": i, "name": s[NAME], "start_ns": s[START] - t0, "end_ns": s[END] - t0,
             "parent": s[PARENT], "round": s[ROUND], "attrs": s[ATTRS]}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def layer_metrics(spans: list, rounds: int, traced_s: float, scale: float = 1.0) -> dict:
    """Per-layer metrics, per traced round, from the spans of `rounds` rounds
    that took `traced_s` measured seconds in all.  Times are multiplied by
    `scale`, the ratio of reference to measured seconds of those rounds."""
    dur = [s[END] - s[START] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_t = defaultdict(int)
    total = defaultdict(int)
    calls = defaultdict(int)
    longest = defaultdict(int)
    steps = defaultdict(int)
    mode_t = defaultdict(int)
    cmd_t = defaultdict(int)
    scan_runs = 0
    report_self = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        self_t[name.split(".", 1)[0]] += dur[i] - child[i]
        total[name] += dur[i]
        calls[name] += 1
        longest[name] = max(longest[name], dur[i])
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if name == "dde_sim.simulate":
            steps[s[ATTRS]["mode"]] += s[ATTRS]["steps"]
            mode_t[s[ATTRS]["mode"]] += dur[i]
            scan_runs += parent == "dde_sim.threshold_scan"
        elif name == "cli.main":
            cmd_t[s[ATTRS]["command"]] += dur[i]
        elif name == "robustness.build_report":
            report_self += dur[i]
        if parent == "robustness.build_report" and name in ("spectral.eig_sym", "robustness.sweep_hinf"):
            report_self -= dur[i]

    sec = 1e-9 * scale / rounds  # ns summed over all rounds -> seconds per round
    per = 1.0 / rounds
    m = {
        "topology.build_s": self_t["topology"] * sec,
        "spectral.eig_sym_s": total["spectral.eig_sym"] * sec,
        "spectral.eig_sym_max_ms": longest["spectral.eig_sym"] * 1e-6 * scale,
        "spectral.eig_sym_calls": calls["spectral.eig_sym"] * per,
        "spectral.self_s": self_t["spectral"] * sec,
        "robustness.sweep_hinf_s": total["robustness.sweep_hinf"] * sec,
        "robustness.report_self_s": report_self * sec,
        "robustness.self_s": self_t["robustness"] * sec,
        "dde_sim.simulate_s": total["dde_sim.simulate"] * sec,
        "dde_sim.simulate_calls": calls["dde_sim.simulate"] * per,
        "dde_sim.steps": sum(steps.values()) * per,
        "dde_sim.runs_per_scan": (
            scan_runs / calls["dde_sim.threshold_scan"] if calls["dde_sim.threshold_scan"] else 0.0
        ),
        "dde_sim.to_csv_s": total["dde_sim.Trajectory.to_csv"] * sec,
        "dde_sim.self_s": self_t["dde_sim"] * sec,
        "experiments.self_s": self_t["experiments"] * sec,
        "cli.self_s": self_t["cli"] * sec,
        "trace.self_coverage": sum(self_t[layer] for layer in LAYERS) * 1e-9 / traced_s,
    }
    for mode in DELAY_MODES:
        m[f"dde_sim.us_per_step.{mode}"] = (
            mode_t[mode] * 1e-3 * scale / steps[mode] if steps[mode] else 0.0
        )
    for cmd in SUBCOMMANDS:
        m[f"cli.{cmd}_s"] = cmd_t[cmd] * sec
    return m
