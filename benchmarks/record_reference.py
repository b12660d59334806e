"""Record the correctness references the benchmark gate compares against.

For every workload and seed this runs the workload once, untimed and without
a reference, and stores its final rel_error, its work counts and the sha256
of its metrics.csv in benchmarks/reference.json, which it rewrites whole.
The runs are not timed and leave no record in benchmarks/out/.  Re-record
only when a change is meant to alter results, and say so with the change.

    python3 benchmarks/record_reference.py
"""

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402

# a recorded seed must reproduce its rel_error to this relative tolerance,
# which admits rounding differences between BLAS builds and nothing more
RTOL = 1e-3
# an unrecorded seed must land within the recorded seeds' range, widened by this
BAND_RTOL = 0.1
SEEDS = range(1, 11)
# runs side by side, which is harmless: only counts and results are recorded
JOBS = 2


def main():
    jobs = [(name, seed) for name in bench.WORKLOADS for seed in SEEDS]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        records = list(pool.map(
            lambda job: bench.run_workload(job[0], job[1], 0, 0, reference=False, save=False),
            jobs))
    workloads = {}
    for (name, seed), record in zip(jobs, records):
        if record["failed"] or len(record["metrics_sha256"]) != 1:
            raise SystemExit(f"{name} seed {seed} failed: {record['problems']}")
        entry = workloads.setdefault(name, {"rtol": RTOL, "band_rtol": BAND_RTOL, "seeds": {}})
        entry["seeds"][str(seed)] = {
            "rel_error": record["metrics"]["rel_error"],
            "outer_steps": record["metrics"]["outer_steps"],
            "inner_iterations": record["metrics"]["inner_iterations"],
            "metrics_sha256": record["metrics_sha256"][0],
        }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"machine": records[0]["machine"], "workloads": workloads}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
