"""Collect benchmark records into one baseline file (BENCH_<n>.json).

Reads every record that `bench.py` left in benchmarks/out/ for the workloads
as defined and measured for BENCHMARK.json's run_seconds (runs with
overrides or another --seconds are skipped) and writes, per workload, the
median, quartiles and spread of each end-to-end metric over the seeds run,
whether each seed's metrics.csv was byte-identical to the reference, and the
per-layer metrics of the traced runs.

    python3 benchmarks/summarize.py benchmarks/results/BENCH_1.json
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402


def spread(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "n": len(values), "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "n": len(values), "values": values}


def main(argv):
    (target,) = argv
    declared, run_seconds = bench.declared_metrics(trace=0)
    records = [bench.load_json(p) for p in sorted(glob.glob(os.path.join(bench.OUT_DIR, "*.json")))]
    records = [r for r in records if not r["overrides"] and r["seconds"] == run_seconds]
    workloads = {}
    for name in bench.WORKLOADS:
        plain = sorted((r for r in records if r["workload"] == name and not r["trace"]),
                       key=lambda r: r["seed"])
        traced = [r for r in records if r["workload"] == name and r["trace"]]
        if not plain:
            continue
        workloads[name] = {
            "seeds": [r["seed"] for r in plain],
            "attempted": sum(r["attempted"] for r in plain),
            "runs_failed": sum(r["failed"] for r in plain),
            "bytes_identical": {str(r["seed"]): r["bytes_identical"] for r in plain},
            "end_to_end": {
                spec["name"]: dict(spread([r["metrics"][spec["name"]] for r in plain]),
                                   unit=spec["unit"])
                for spec in declared
            },
            "inner_iterations": spread([r["metrics"]["inner_iterations"] for r in plain]),
            "traced": {str(r["seed"]): r["metrics"] for r in traced},
        }
    os.makedirs(os.path.dirname(os.path.abspath(target)), exist_ok=True)
    with open(target, "w") as fh:
        json.dump({"machine": records[0]["machine"] if records else None,
                   "run_seconds": run_seconds,
                   "workloads": workloads}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
