#!/usr/bin/env python3
"""platoonkit benchmark: run one workload in one process and print its metrics.

    python3 perfbench/run.py --workload desk-p36 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the benchmark times the platoonkit in
that checkout's src/ and stops with exit code 2 if the package resolves
anywhere else.  It sets up (imports, draws the inputs from --seed, makes one
warm-up call into each layer), then repeats whole rounds of the workload's
operations while the next round is expected to end within --seconds, at least
once.  Every operation's output is checked after the measurement.  With
--trace 0 the last line of stdout is a JSON object holding the end-to-end
metrics of BENCHMARK.json; with --trace 1 untraced and traced rounds
alternate and it holds the per-layer metrics.  Times are in reference
seconds (speed.py).  Run outputs, per-run records and span files go under
perfbench/out/; README.md has the details.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

#: OpenBLAS / OpenMP threads: one, so that timings do not depend on how busy
#: the other cores are
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: set-up is measured this many times per run (this process and fresh
#: interpreters), and setup_s is the median, in reference seconds
SETUP_SAMPLES = 5
EXIT_PROVENANCE = 2


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(EXIT_PROVENANCE)


def import_checkout_platoonkit():
    """Import platoonkit from ROOT/src and refuse to time any other copy."""
    src = ROOT / "src"
    expected = (src / "platoonkit").resolve()
    if not (expected / "__init__.py").is_file():
        fail(f"no platoonkit sources at {expected}")
    sys.path.insert(0, str(src))
    import platoonkit

    where = Path(platoonkit.__file__).resolve().parent
    if where != expected:
        fail(f"platoonkit resolves to {where}, not to this checkout's {expected}")
    return platoonkit


def git_sha(root: Path):
    """Commit of the checkout, read from .git without running git (None when
    the checkout is not a git repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


#: functions before whose calls the speed may also be sampled inside an
#: operation (rounds without tracing only)
SPEED_HOOKS = {"dde_sim.simulate", "dde_sim.Trajectory.to_csv", "spectral.eig_sym"}


def _hooked(clock):
    def make(func, _name):
        @functools.wraps(func)
        def hooked(*args, **kwargs):
            clock.checkpoint()
            return func(*args, **kwargs)

        return hooked

    return make


def run_round(ops: list, clock, tracer=None, probes=()) -> tuple:
    """Run the operations of one round, each followed by the block of
    `probes`; return (measured seconds, reference seconds, [(op, measured s,
    reference s, output or exception)]).  The round's times leave the probes
    out; outputs are checked after the measurement."""
    import spans

    block = [(probe, True) for probe in probes]
    sequence = [entry for op in ops for entry in ((op, False), *block)]
    saved = tracer.install() if tracer is not None else spans.patch(_hooked(clock), SPEED_HOOKS)
    results = []
    raw_total = ref_total = 0.0
    try:
        for op, is_probe in sequence:
            clock.start(op.speed)
            try:
                out = op.run()
            except Exception as exc:  # a raising operation is a failed one
                out = exc
            raw, ref = clock.stop()
            results.append((op, raw, ref, out))
            if not is_probe:
                raw_total += raw
                ref_total += ref
    finally:
        if tracer is not None:
            tracer.uninstall()
        else:
            spans.restore(saved)
    return raw_total, ref_total, results


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list = []
        self.times: dict = {}
        self.raw_times: dict = {}
        self.values: dict = {}

    def add(self, results: list) -> None:
        for op, raw, ref, out in results:
            self.attempted += 1
            if op.kind:
                self.times.setdefault(op.kind, []).append(ref)
                self.raw_times.setdefault(op.kind, []).append(raw)
            if isinstance(out, Exception):
                self.failed += 1
                self.problems.append(f"{op.name}: {type(out).__name__}: {out}")
                continue
            if isinstance(out, tuple) and all(isinstance(v, float) for v in out):
                self.values.setdefault(op.name, []).append(out)
            problems = op.check(out)
            if problems:
                self.failed += 1
                self.wrong += 1
                self.problems += [f"{op.name}: {p}" for p in problems]


def measure_setup(args) -> list:
    """Set-up times of SETUP_SAMPLES - 1 fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            fail(f"set-up in a fresh interpreter failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy as np

    platoonkit = import_checkout_platoonkit()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    base = OUT / args.workload
    if not args.setup_only:
        workloads.prepare_outdir(base)
    workload = workloads.WORKLOADS[args.workload](args.seed % 2**32)
    workloads.warm_up(workloads.prepare_outdir(base / "warm-up"))
    for probe in workload.probe_ops()[:1]:
        probe.run()  # the first call at a new size is slow
    setup = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0

    setups = [setup, *measure_setup(args)]
    import speed
    import spans

    clock = speed.RefClock()
    tracer = spans.Tracer() if args.trace else None
    runs = []  # (output directory, results) of every round, checked after the measurement
    rounds, traced = [], []  # (measured s, reference s) per round
    begin = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        outdir = workloads.prepare_outdir(base / f"round-{len(runs)}")
        probes = workload.probe_ops() if tracer is None else ()
        raw, ref, results = run_round(workload.round_ops(outdir), clock, probes=probes)
        rounds.append((raw, ref))
        runs.append((outdir, results))
        if tracer is not None:
            outdir = workloads.prepare_outdir(base / f"round-{len(runs)}")
            tracer.round = len(traced)
            raw, ref, results = run_round(workload.round_ops(outdir), clock, tracer)
            traced.append((raw, ref))
            runs.append((outdir, results))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - begin + longest > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bytes_written = workloads.files_written(runs[-1][0])

    tally = Tally()
    for i, (outdir, results) in enumerate(runs):
        tally.add(results)
        if i < len(runs) - 1:
            shutil.rmtree(outdir)  # the last round's files stay for inspection

    median = statistics.median
    wall_s = median(ref for _, ref in rounds)
    if tracer is None:
        metrics = {
            "setup_s": median(setups) / clock.py_factor(),
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "scan_median_s": median(tally.times["scan"]),
            "report_largest_s": median(tally.times["report_largest"]),
        }
        section = "end_to_end"
    else:
        traced_raw = sum(raw for raw, _ in traced)
        traced_ref = sum(ref for _, ref in traced)
        metrics = spans.layer_metrics(tracer.spans, len(traced), traced_raw, traced_ref / traced_raw)
        metrics["trace.wall_s"] = median(ref for _, ref in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_s
        metrics["experiments.bytes_written"] = float(bytes_written)
        section = "per_layer"

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        fail(f"metrics not measured: {missing}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }

    records = OUT / "runs"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "platoonkit": str(Path(platoonkit.__file__).resolve().parent),
        "git_sha": git_sha(ROOT), "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": BLAS_THREADS,
        "setup_samples_s": setups, "round_s": rounds, "traced_round_s": traced,
        "op_times_ref_s": tally.times, "op_times_s": tally.raw_times,
        "speed_kernel_s": clock.samples, "op_values": tally.values, "problems": tally.problems,
        "result": result,
    }
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(records / f"{stem}.spans.json")
    for problem in tally.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"# platoonkit {record['platoonkit']} at {record['git_sha'] or 'unknown commit'}; "
          f"{len(rounds)} round(s), {len(traced)} traced; record {records / stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
