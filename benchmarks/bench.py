"""The lkreg benchmark: end-to-end and per-layer metrics of four workloads.

Run from the root of a checkout:

    python3 benchmarks/bench.py                       # BENCHMARK.json's workloads, seed 1
    python3 benchmarks/bench.py --workload ct-desk --seed 3 --seconds 25 --trace 0

Each workload runs in a fresh child process (`worker.py`) with BLAS and
OpenMP pinned to one thread, importing `lkreg` from this checkout's `src`.
`--trace 0` reports the end-to-end metrics named in BENCHMARK.json, as
medians over the repetitions that fit in `--seconds`, with times in
reference seconds: wall time rescaled by the host's speed, which a
calibration kernel that interrupts the workload every 50 ms measures (see
`hostclock.py`); `--trace 1` reports the per-layer metrics of one traced
repetition, in wall seconds.  Every repetition passes a
correctness gate (see `worker.check`); the ones that fail are counted in
`failed`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

Besides that line the benchmark prints the machine, the seed, the sha256 of
`metrics.csv` and whether it is byte-identical to the recorded reference,
and writes the whole record to `benchmarks/out/`.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0
OUT_DIR = os.path.join(HERE, "out")
WORK_ROOT = os.path.join(HERE, "_work")


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "threads": dict(PINNED)}


def run_child(name, args, env, deadline):
    """Run `python3 ARGS...` from the checkout root; raise BenchError unless it succeeds."""
    script = os.path.basename(args[0])
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: {script} did not finish in {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{name}: {script} exited with code {proc.returncode}")


def run_workload(name, seed, seconds, trace, overrides=None, reference=True,
                 deadline=None, save=True):
    """Run one workload in a child process and return its record.

    `overrides` change the workload's config (the smoke test shrinks the
    workloads with them); a run with overrides is not compared with the
    recorded reference, which holds only for the workload as defined.
    With `save` the record is also written to benchmarks/out/.
    """
    if deadline is None:
        deadline = monotonic() + TIME_LIMIT_S
    ref = None
    if reference and not overrides:
        ref = load_json(os.path.join(HERE, "reference.json"))["workloads"].get(name)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=WORK_ROOT)
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}{'-overrides' if overrides else ''}")
    try:
        spec_path = os.path.join(work_dir, "spec.json")
        result_path = os.path.join(work_dir, "result.json")
        spec = {
            "root": ROOT, "workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "overrides": overrides or {}, "reference": ref,
            "work_dir": work_dir,
            "spans_path": f"{stem}-spans.npz" if trace and save else None,
        }
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        env = dict(os.environ, **PINNED)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
        )
        if save:
            os.makedirs(OUT_DIR, exist_ok=True)
        if WORKLOADS[name].get("inputs"):
            # input files come from a child of their own, so that the
            # worker's peak RSS covers only the experiment it measures
            run_child(name, [os.path.join(HERE, "workloads.py"), name, work_dir], env, deadline)
        run_child(name, [os.path.join(HERE, "worker.py"), spec_path, result_path], env, deadline)
        result = load_json(result_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    reps = result["reps"]
    shas = sorted({r["metrics_sha256"] for r in reps if "metrics_sha256" in r})
    if len(shas) > 1:
        for r in reps[1:]:
            r["problems"].append("metrics.csv differs between repetitions")
    known = (ref or {}).get("seeds", {}).get(str(seed))
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "overrides": overrides or {},
        "attempted": len(reps),
        "failed": sum(1 for r in reps if r["problems"]),
        "problems": sorted({p for r in reps for p in r["problems"]}),
        "terminated_by": sorted({r.get("terminated_by", "exception") for r in reps}),
        "metrics_sha256": shas,
        "bytes_identical": None if known is None else shas == [known["metrics_sha256"]],
        "metrics": result["metrics"],
        "extra": result["extra"],
        "machine": {**machine(), **result["versions"]},
        "reps": reps,
    }
    if save:
        with open(f"{stem}-trace{trace}.json", "w") as fh:
            json.dump(record, fh, indent=1)
    return record


def declared_metrics(trace):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return bench["per_layer" if trace else "end_to_end"], bench["run_seconds"]


def declared_workloads():
    """The workloads BENCHMARK.json lists; the others run only by name."""
    return [w["name"] for w in load_json(os.path.join(ROOT, "BENCHMARK.json"))["workloads"]]


def report(record, declared):
    """Print a record for people; return its metrics as name -> value/unit."""
    m = record["machine"]
    print(f"# machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']} "
          f"pinned={','.join(f'{k}={v}' for k, v in m['threads'].items())}")
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={record['attempted']} runs_failed={record['failed']} "
          f"terminated_by={','.join(record['terminated_by'])}")
    print(f"  metrics.csv sha256={','.join(record['metrics_sha256']) or '-'} "
          f"bytes_identical={record['bytes_identical']}")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    metrics = {}
    for spec in declared:
        value = record["metrics"].get(spec["name"], 0.0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<30} {value:>16.6g} {spec['unit']}")
    if not record["trace"]:
        for name, unit in (("inner_iterations", "count"), ("inner_iters_per_s", "1/s")):
            print(f"  {name:<30} {record['metrics'].get(name, 0.0):>16.6g} {unit}")
        # the times above are in reference seconds; these are wall seconds
        for name in ("wall_solve_s", "wall_total_s"):
            print(f"  {name:<30} {record['extra'].get(name, 0.0):>16.6g} s (wall)")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: those BENCHMARK.json lists)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    deadline = monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "lkreg", "__init__.py")):
        print(f"no lkreg sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        declared, run_seconds = declared_metrics(args.trace)
        seconds = run_seconds if args.seconds is None else args.seconds
        names = [args.workload] if args.workload else declared_workloads()
        records = [
            run_workload(name, args.seed, seconds, args.trace,
                         deadline=deadline if args.workload else None)
            for name in names
        ]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for record in records:
        shown = report(record, declared)
        if args.workload:
            metrics = shown
        else:
            metrics.update({f"{record['workload']}.{k}": v for k, v in shown.items()})
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
