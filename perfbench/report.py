"""Print every end-to-end and per-layer metric of every workload, with units.

    python3 perfbench/report.py [--seed 0] [--seconds 25]

Runs perfbench/run.py once untraced and once traced per workload, each in
its own process, and prints one table row per metric.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args()
    ok = True
    print(f"{'workload':<14} {'metric':<28} {'value':>14}  unit")
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            ok &= result["correct"]
            rows = [("correct", result["correct"], ""), ("attempted", result["attempted"], "points"),
                    ("failed", result["failed"], "points")] if trace == 0 else []
            rows += [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
            for name, value, unit in rows:
                shown = f"{value:.6g}" if isinstance(value, float) else str(value)
                print(f"{workload:<14} {name:<28} {shown:>14}  {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
