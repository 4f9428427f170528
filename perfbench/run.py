"""Certified-trace benchmark of tsteer: one workload, one seed, one run.

    python3 perfbench/run.py --workload exchange_tsw --seed 0 --seconds 25 --trace 0

A run measures set-up in fresh interpreters, makes one untraced warm-up
pass on a short grid, then repeats untraced passes until --seconds have
elapsed and reports their median. With --trace 1 it adds one traced pass
(and a traced output check) and reports per-layer metrics instead of
end-to-end ones. The output of every timed and traced pass is checked after
the timed region. The last line of standard
output is the JSON result; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # first: pins BLAS to one thread, exits if tsteer is missing
import tracing

SETUP_REPEATS = 7
# The warm-up pass runs every curve on a short grid: same models, horizons and
# code paths as a full pass, at a fraction of its cost.
WARMUP_POINTS = 9

# Import plus a first call, in a fresh interpreter. The call covers only the
# first grid interval of each curve, so it pays lazy set-up, not the pass.
SETUP_CODE = """\
import dataclasses, sys, time
t0 = time.perf_counter()
sys.path.insert(0, {bench_dir!r})
import workloads
kind, curves = workloads.make_curves({workload!r}, {seed!r})
workloads.run_pass(kind, [dataclasses.replace(c, t_max=c.t_max / (c.n_points - 1), n_points=2)
                          for c in curves])
print(time.perf_counter() - t0)
"""


def measure_setup(workload, seed):
    """Median set-up time over SETUP_REPEATS fresh interpreters."""
    code = SETUP_CODE.format(bench_dir=str(Path(__file__).resolve().parent),
                             workload=workload, seed=seed)
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def rebuild_all(kind, curves):
    return [workloads.rebuild_problems(c) if kind == "tsw" else None for c in curves]


def check_passes(kind, curves, passes, problems, reference):
    """Check every pass; returns (points attempted, points failed, reasons)."""
    refs = reference or [None] * len(curves)
    attempted = failed = 0
    reasons = []
    for results in passes:
        for curve, result, probs, ref in zip(curves, results, problems, refs):
            bad, curve_reasons = workloads.check_curve(kind, result, probs, ref)
            attempted += curve.n_points
            failed += len(bad)
            reasons += [f"{curve.model} point {i}: {why}" for i, why in bad.items()]
            reasons += [f"{curve.model}: {why}" for why in curve_reasons]
    return attempted, failed, reasons


def timed_passes(kind, curves, seconds):
    """Warm-up pass, then passes until `seconds` have elapsed; (walls, outputs)."""
    workloads.run_pass(kind, [dataclasses.replace(c, n_points=WARMUP_POINTS) for c in curves])
    outputs = []
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        gc.collect()
        t0 = time.perf_counter()
        outputs.append(workloads.run_pass(kind, curves))
        walls.append(time.perf_counter() - t0)
    return walls, outputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    kind, curves = workloads.make_curves(args.workload, args.seed)
    reference = workloads.load_reference(args.workload, args.seed, curves)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    walls, outputs = timed_passes(kind, curves, args.seconds)
    wall_s = statistics.median(walls)
    problems = rebuild_all(kind, curves)

    attempted, failed, reasons = check_passes(kind, curves, outputs, problems, reference)
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            with tracer.span("pass") as pass_root:
                traced = workloads.run_pass(kind, curves)
            with tracer.span("check") as check_root:
                traced_check = check_passes(kind, curves, [traced], problems, reference)
        attempted += traced_check[0]
        failed += traced_check[1]
        reasons += traced_check[2]
        metrics = tracing.layer_metrics(args.workload, tracer, pass_root, check_root,
                                        traced, wall_s)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_share": (1.0 - failed / attempted, "fraction"),
        }
    for why in reasons[:20]:
        print(f"rejected: {why}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(walls)} timed passes, wall "
          f"{', '.join(f'{w:.3f}' for w in walls)} s", file=sys.stderr)
    print(json.dumps({
        "correct": not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
