"""Command-line interface.

Subcommands: report, sweep-remove, sweep-add, delay-grid, scaling, simulate,
verify.  Each platoon subcommand reads the keys its row of
experiments.COMMANDS names, and each key is described once, in
experiments.KEYS: its flag, its config-file section and spelling, its parse,
its bounds and its help.  The keys come from an optional sections-style
config file (--config), with flags taking precedence; --emit-config prints
the merged effective configuration and exits without running.  A key that
the subcommand does not read exits 2, as an unrecognized flag or as a config
key, and the error line names the key and the subcommand.

Exit codes: 0 success (and --help), 2 malformed command line, config or
parameter error, out of memory, or an output path that cannot be made or
written, 3 numerical failure, 4 verification violation.  main() returns the
code; it does not raise SystemExit.  A directory is made only when its first
file is written, after every row is computed: a refused run makes none.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiments
from .errors import NumericalError, ParameterError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser refuses the arguments it does not read itself,
    so that the error line names the subcommand."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoonkit",
        description="Robustness analysis and delay simulation of k-nearest-neighbor platoons",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for name, cmd in experiments.COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--config", help="sections-style config file; flags override its keys")
        # a flag's dest is its key; its value goes on as a string, which
        # finalize_config parses as it does a config file's
        for key in cmd.keys:
            row = experiments.KEYS[key]
            if row.help is None:  # a config file is its only way in
                continue
            choices = f"{' | '.join(row.parse)}: " if isinstance(row.parse, tuple) else ""
            p.add_argument(row.flag or "--" + key.replace("_", "-"), dest=key,
                           help=choices + row.help,
                           action="store_true" if row.parse is bool else None)
        p.add_argument("--emit-config", action="store_true",
                       help="print the effective merged config and exit")
    sub.add_parser("verify", help="fast correctness battery (exit 4 on violation)")
    return parser


def _merge_config(args: argparse.Namespace) -> experiments.ScenarioConfig:
    raw = experiments.load_config_file(args.config) if args.config else {}
    for key in experiments.COMMANDS[args.command].keys:
        # an unset flag is None, or False for a store_true one
        value = getattr(args, key, None)
        if value is not None and value is not False:
            raw[key] = "true" if value is True else value
    return experiments.finalize_config(raw, args.command)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (code 0) or its usage error (code 2)
        return exc.code
    try:
        if args.command == "verify":
            failures, lines = experiments.run_verify()
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
        cmd = experiments.COMMANDS[args.command]
        # looked up at the call: a runner replaced on experiments is the one run
        for path in getattr(experiments, cmd.runner)(cfg, *cmd.args, Path(cfg.outdir)):
            print(f"wrote {path}")
        return EXIT_OK
    except (ParameterError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
