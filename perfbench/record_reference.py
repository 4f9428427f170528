"""Record the default-seed curves that the output check compares against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json. Run it only on a commit whose outputs are
trusted: the benchmark then requires every later commit to reproduce these
values within workloads.REFERENCE_TOL.
"""

import json

import workloads


def main():
    recorded = {}
    for name in workloads.WORKLOADS:
        kind, curves = workloads.make_curves(name, workloads.DEFAULT_SEED)
        results = workloads.run_pass(kind, curves)
        recorded[name] = [
            dict(workloads.curve_spec(c), values=[float(v) for v in r.series.values],
                 **({"n_tsw": r.n_tsw} if kind == "tsw" else {}))
            for c, r in zip(curves, results)
        ]
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
