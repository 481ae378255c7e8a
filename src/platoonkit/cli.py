"""Command-line interface.

Subcommands: report, sweep-remove, sweep-add, delay-grid, scaling, simulate,
verify.  Scenario parameters come from an optional sections-style config file
(--config) with CLI flags taking precedence; --emit-config prints the merged
effective configuration and exits without running.

Exit codes: 0 success (and --help), 2 malformed command line, config or
parameter error, or out of memory, 3 numerical failure, 4 verification
violation.  main() returns the code; it does not raise SystemExit.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import dde_sim, experiments, robustness
from .errors import NumericalError, ParameterError
from .topology import scenario_from_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


def _add_platoon_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="sections-style config file; flags override its keys")
    p.add_argument("--scenario",
                   help='JSON scenario fragment {"n":…, "k":…, "refs":[…]}')
    p.add_argument("--n", help="vehicle count")
    p.add_argument("--k", help="connectivity index")
    p.add_argument("--arrangement", help="reference arrangement: "
                   f"{' | '.join(experiments.ARRANGEMENTS)} (default md)")
    p.add_argument("--refs",
                   help="reference indices for arrangement=explicit, e.g. '5,14,23,32'")
    p.add_argument("--seed", help="seed for initial states and noise (default 0)")
    p.add_argument("--out", dest="outdir", help="output directory (default results)")
    p.add_argument("--emit-config", action="store_true",
                   help="print the effective merged config and exit")


# subcommand: (help, the experiment it pins, its runner in experiments, the
# runner's arguments between the config and outdir, and its own flags).
# Flags pass their values on as strings: finalize_config parses them, as it
# does a config file's.
_COMMANDS = {
    "report": ("robustness report (JSON + text summary)", "report", "run_report", (), (
        ("--gamma", "also evaluate the gain-threshold predicates"),
        ("--sweep-csv", "also write the frequency-response CSVs"),
    )),
    "sweep-remove": ("drop each minimally-dense reference in turn", "add-remove",
                     "run_remove_add_sweep", ("remove",), ()),
    "sweep-add": ("promote each non-reference position in turn", "add-remove",
                  "run_remove_add_sweep", ("add",), ()),
    "delay-grid": ("simulate both dynamics over a list of delays", "delay-grid",
                   "run_delay_grid", (), (
        ("--taus", "delay list, e.g. '0.05,0.09,0.1,0.4'"),
        ("--horizon", "simulation horizon"),
        ("--step", "integration step"),
    )),
    "scaling": ("gain growth with n: single end reference vs MD", "scaling", "run_scaling", (), (
        ("--ns", "platoon sizes, e.g. '8,16,32,64,128' (>= 5 distinct values)"),
    )),
    "simulate": ("one time-domain run, exported as CSV", "simulate", "run_simulate", (), (
        ("--dynamics", f"{' | '.join(robustness.DYNAMICS)} (default velocity)"),
        ("--tau", "constant communication delay (default 0: undelayed in either mode)"),
        ("--delay-mode", f"{' | '.join(dde_sim.DELAY_MODES)} (default full)"),
        ("--horizon", "simulation horizon"),
        ("--step", "integration step"),
        ("--disturbance", f"{' | '.join(experiments.DISTURBANCES)} (default none)"),
        ("--amplitude", "disturbance amplitude (default 0)"),
        ("--omega", "sinusoid frequency in rad/s (default 1)"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoonkit",
        description="Robustness analysis and delay simulation of k-nearest-neighbor platoons",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (title, _, _, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=title)
        _add_platoon_flags(p)
        for flag, text in flags:
            p.add_argument(flag, help=text,
                           action="store_true" if flag == "--sweep-csv" else None)
    p = sub.add_parser("verify", help="fast correctness battery (exit 4 on violation)")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _merge_config(args: argparse.Namespace) -> experiments.ScenarioConfig:
    raw = {}
    if getattr(args, "config", None):
        raw.update(experiments.load_config_file(args.config))
    if getattr(args, "scenario", None):
        try:
            with open(args.scenario) as fh:
                doc = fh.read()
        except OSError as exc:
            raise ParameterError(f"cannot read scenario file {args.scenario}: {exc}")
        top, refset = scenario_from_json(doc)
        raw.update(n=str(top.n), k=str(top.k), arrangement="explicit",
                   refs=" ".join(str(r) for r in refset.refs))
    # every flag's dest is the ScenarioConfig field it sets; the experiment
    # is not a flag and is decided below
    for f in fields(experiments.ScenarioConfig):
        value = getattr(args, f.name, None)
        if f.name != "experiment" and value is not None and value is not False:
            raw[f.name] = value if not isinstance(value, bool) else "true"
    # the report subcommand honors a hinf-sweep experiment from the config
    # file; every other subcommand pins its own experiment
    if not (args.command == "report" and raw.get("experiment") == "hinf-sweep"):
        raw["experiment"] = _COMMANDS[args.command][1]
    if args.command == "report" and raw.get("sweep_csv") == "true":
        raw["experiment"] = "hinf-sweep"
    return experiments.finalize_config(raw)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (code 0) or its usage error (code 2)
        return exc.code
    try:
        if args.command == "verify":
            failures, lines = experiments.run_verify(seed=args.seed)
            print("\n".join(lines))
            if failures:
                print(f"verification FAILED: {len(failures)} check(s)", file=sys.stderr)
                return EXIT_VERIFY
            print("verification passed")
            return EXIT_OK

        cfg = _merge_config(args)
        if args.emit_config:
            print(experiments.emit_config(cfg), end="")
            return EXIT_OK
        outdir = Path(cfg.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        _, _, runner, extra, _ = _COMMANDS[args.command]
        # looked up at the call: a runner replaced on experiments is the one run
        for path in getattr(experiments, runner)(cfg, *extra, outdir):
            print(f"wrote {path}")
        return EXIT_OK
    except (ParameterError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
