#!/usr/bin/env python3
"""Run the full desk-scale experiment battery for the P(36,4) case study.

Produces, under the output directory (default ./results):

    report/        robustness report + frequency-response CSVs
    delay_grid/    stability verdicts over tau in {0, 0.05, 0.09, 0.1, 0.4}
    sweeps/        gains with one reference removed / one added, per position
    scaling/       gain growth for k=1, n in {8,...,128}: single ref vs MD
    sim_offdiag/   off-diagonal-delay run at tau=5 (stable for any tau)

Each subcommand's wall time, and the process's peak resident memory so far,
go to stderr, so stdout and the output files stay deterministic.

Usage: python scripts/run_experiments.py [outdir]
"""

import resource
import sys
import time

from platoonkit.cli import main

BASE = ["--n", "36", "--k", "4", "--arrangement", "md", "--seed", "0"]


def run(outdir: str) -> int:
    jobs = [
        ["report", *BASE, "--gamma", "1.0", "--sweep-csv", "--out", f"{outdir}/report"],
        ["delay-grid", *BASE, "--taus", "0,0.05,0.09,0.1,0.4",
         "--horizon", "100", "--step", "0.001", "--out", f"{outdir}/delay_grid"],
        ["sweep-remove", *BASE, "--out", f"{outdir}/sweeps"],
        ["sweep-add", *BASE, "--out", f"{outdir}/sweeps"],
        ["scaling", "--n", "8", "--k", "1", "--ns", "8,16,32,64,128",
         "--out", f"{outdir}/scaling"],
        ["simulate", *BASE, "--dynamics", "velocity", "--tau", "5",
         "--delay-mode", "self-undelayed", "--horizon", "500", "--step", "0.005",
         "--out", f"{outdir}/sim_offdiag"],
        ["verify"],
    ]
    for argv in jobs:
        print(f"$ platoonkit {' '.join(argv)}")
        start = time.perf_counter()
        code = main(argv)
        # ru_maxrss is in KiB on Linux
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{argv[0]}: {time.perf_counter() - start:.2f} s, peak RSS {peak_mb:.0f} MB",
              file=sys.stderr)
        if code != 0:
            print(f"command failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1] if len(sys.argv) > 1 else "results"))
