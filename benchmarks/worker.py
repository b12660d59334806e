"""One benchmark run of one workload, in a fresh process.

`bench.py` starts this script with BLAS and OpenMP pinned to one thread and
`PYTHONPATH` pointing at the checkout's `src`.  It reads a JSON spec, runs
the workload and writes a JSON result.  Usage:

    python3 benchmarks/worker.py SPEC.json RESULT.json

An untraced run (trace = 0) repeats `harness.run_experiment` until the next
repetition would pass the spec's `seconds`, then times extra calls of
`harness.build_problem` until it has SETUP_SAMPLES set-up times (or for at
most SETUP_EXTRA_S); it reports the medians of the set-up, solve and total
times, in reference seconds (see `hostclock`).  A traced run (trace = 1) makes one untraced repetition and
one with every layer wrapped, and reports per-layer metrics from the traced
one; the difference of their wall solve times is the tracing overhead.
Every repetition goes through the correctness gate in `check`.
"""

import hashlib
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from hostclock import HostClock  # noqa: E402
from workloads import WORKLOADS, input_keys  # noqa: E402

SETUP_SAMPLES = 15
SETUP_EXTRA_S = 5.0
MAX_REPS = 500
OUT_FILES = ("metrics.csv", "trace.csv", "recon.pgm", "summary.json")

# bytes each TV primitive reads and writes per call, in grid-sized float64
# arrays of 8 bytes per cell: gradient 1 in, 2 out; divergence 2 in, 1 out;
# projection 2 in, 2 out; l21 norm 2 in; field dot product 4 in
TV_ARRAYS_PER_CALL = {"tv.gradient": 3, "tv.divergence": 3, "tv.project": 4,
                      "tv.l21": 2, "tv.dot": 4}


class InnerProbe:
    """Stands in for `engine.inner_solver`; keeps the last solve's report.

    With `stats` set it also records (iterations, converged, gap_rel /
    gap_target) for every PDHG solve.
    """

    def __init__(self, solver):
        self.solver = solver
        self.last = None
        self.stats = None

    def __call__(self, *args, **kwargs):
        pair, info = self.solver(*args, **kwargs)
        self.last = info
        if self.stats is not None and info.report is not None:
            self.stats.append((info.iterations, info.converged,
                               info.report.gap_rel / kwargs["gap_target"]))
        return pair, info


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check(lkreg, cfg, expect, pair, trace, probe, reference, seed):
    """Correctness gate for one repetition; returns a list of problems."""
    problems = []
    if trace.terminated_by != expect:
        problems.append(f"terminated_by {trace.terminated_by!r}, expected {expect!r}")
    if not all(math.isfinite(r.eps_n) and r.eps_n >= 0.0 for r in trace.records):
        problems.append("some eps_n is non-finite or negative")
    pen = cfg.penalty_object()
    if pen.kind == "quadratic":
        lower = pen.dual_bound(pair.xi)
    elif probe.last is not None:
        # the TV certificate: the last inner solve's dual value, moved from the
        # denoising objective to Theta - <xi, .>
        lower = probe.last.report.dual_value - 0.5 * pen.mu * float(np.vdot(pair.xi, pair.xi))
    else:  # no inner solve ran: the exact starting pair x = xi = 0
        lower = 0.0
    if not lkreg.penalty.check_eps_subgradient(pair, pen, lower):
        problems.append("final pair fails check_eps_subgradient")
    rel = trace.records[-1].rel_error if trace.records else None
    if reference is not None:
        problems += check_rel_error(rel, reference, seed)
    return problems


def check_rel_error(rel, reference, seed):
    """Final relative error against the workload's recorded reference.

    A recorded seed must match its own reference to `rtol`; another seed
    must land inside the band the recorded seeds span, widened by `band_rtol`.
    """
    if rel is None or not math.isfinite(rel):
        return [f"final rel_error is {rel}"]
    known = reference["seeds"].get(str(seed))
    if known is not None:
        ref = known["rel_error"]
        if abs(rel - ref) > reference["rtol"] * ref:
            return [f"rel_error {rel!r} differs from seed {seed}'s reference {ref!r} "
                    f"by more than {reference['rtol']:g} relative"]
        return []
    refs = [v["rel_error"] for v in reference["seeds"].values()]
    lo = min(refs) * (1.0 - reference["band_rtol"])
    hi = max(refs) * (1.0 + reference["band_rtol"])
    if not lo <= rel <= hi:
        return [f"rel_error {rel!r} outside the reference band [{lo!r}, {hi!r}]"]
    return []


def one_rep(lkreg, cfg, spec, probe, out_dir):
    """Run the experiment once and gate it; returns the repetition's record."""
    workload = WORKLOADS[spec["workload"]]
    probe.last = None
    started = perf_counter()
    try:
        pair, trace, _ = lkreg.harness.run_experiment(cfg, out_dir)
    except Exception as exc:  # a raising run is a failed run, not a crash
        return {"total_s": perf_counter() - started,
                "problems": [f"raised {type(exc).__name__}: {exc}"]}
    total = perf_counter() - started
    return {
        "total_s": total,
        "terminated_by": trace.terminated_by,
        "outer_steps": len(trace.records),
        "inner_iterations": sum(r.inner_iterations for r in trace.records),
        "rel_error": trace.records[-1].rel_error if trace.records else None,
        "cells": int(pair.x.size),
        "metrics_sha256": sha256_file(os.path.join(out_dir, "metrics.csv")),
        "write_bytes": sum(os.path.getsize(os.path.join(out_dir, f)) for f in OUT_FILES),
        "problems": check(lkreg, cfg, workload["expect"], pair, trace, probe,
                          spec.get("reference"), spec["seed"]),
    }


def timed_rep(lkreg, cfg, spec, probe, out_dir, timers):
    """`one_rep` plus the wall-time spans of its experiment, set-up and solve."""
    first = len(timers.start)
    t0 = perf_counter()
    rep = one_rep(lkreg, cfg, spec, probe, out_dir)
    rep["spans"] = {"total_s": (t0, perf_counter())}
    for key, name in (("setup_s", "harness.build_problem"), ("solve_s", "engine.run")):
        spans = timers.intervals(name, since=first)
        if spans:
            rep["spans"][key] = spans[0]
    return rep


def add_times(rep, clock):
    """Each span of `rep` in reference seconds (see `hostclock`), and the
    program's own wall seconds in it, without the kernel runs, as `wall_*`."""
    for key, span in rep.pop("spans").items():
        rep[key], rep["wall_" + key] = clock.scale(*span), clock.own(*span)


def untraced_run(lkreg, cfg, spec, probe, out_dir):
    timers, clock = tracing.Tracer(), HostClock()
    tracing.install_timers(timers, lkreg)
    reps, began = [], perf_counter()
    with clock.running():
        while True:
            reps.append(timed_rep(lkreg, cfg, spec, probe, out_dir, timers))
            if len(reps) == 1:
                # the memory one experiment takes; later repetitions only add
                # the allocator's fragmentation, which varies from run to run
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # one_rep's total_s is still the wall time the repetition took
            next_end = perf_counter() - began + statistics.median(r["total_s"] for r in reps)
            if len(reps) >= MAX_REPS or next_end > spec["seconds"]:
                break
        measured_s = perf_counter() - began
        # every repetition builds its problem once; workloads with few
        # repetitions build it again until there are SETUP_SAMPLES times or
        # the extra builds have taken SETUP_EXTRA_S
        extra_began = perf_counter()
        for _ in range(SETUP_SAMPLES - len(reps)):
            if perf_counter() - extra_began > SETUP_EXTRA_S:
                break
            lkreg.harness.build_problem(cfg)
    timers.restore()
    for rep in reps:
        add_times(rep, clock)
    setups = [clock.scale(*span) for span in timers.intervals("harness.build_problem")]
    solves = [r["solve_s"] for r in reps if "solve_s" in r]
    done = [r for r in reps if "outer_steps" in r]
    # Times are in reference seconds, which take out the host's changes of
    # speed (see hostclock); what is left varies little from repetition to
    # repetition, and the median drops the odd one that a burst of the
    # host's noise hit between two kernel runs.
    solve_s = statistics.median(solves) if solves else 0.0
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": solve_s,
        "total_s": statistics.median(r["total_s"] for r in reps),
        "peak_rss_mb": peak_rss_mb,
    }
    if done:
        steps = statistics.median(r["outer_steps"] for r in done)
        iters = statistics.median(r["inner_iterations"] for r in done)
        metrics.update({
            "outer_steps": steps,
            "steps_per_s": steps / solve_s,
            "rel_error": statistics.median(r["rel_error"] for r in done),
            "inner_iterations": iters,
            "inner_iters_per_s": iters / solve_s,
        })
    wall = {key: statistics.median(r[key] for r in reps if key in r)
            for key in ("wall_solve_s", "wall_total_s")}
    return reps, metrics, {"measured_s": measured_s, "setup_calls": len(setups),
                           "kernel_runs": len(clock.start), **wall}


def traced_run(lkreg, cfg, spec, probe, out_dir, spans_path):
    timers, clock = tracing.Tracer(), HostClock()
    tracing.install_timers(timers, lkreg)
    with clock.running():
        plain = timed_rep(lkreg, cfg, spec, probe, out_dir, timers)
    timers.restore()
    add_times(plain, clock)

    tracer, seen = tracing.Tracer(), {}
    tracing.install_timers(tracer, lkreg, seen)
    tracing.install_layers(tracer, lkreg, seen)
    probe.stats = []
    try:
        traced = one_rep(lkreg, cfg, spec, probe, out_dir)
    finally:
        tracer.restore()
    reps = [plain, traced]
    if "metrics_sha256" in plain and "metrics_sha256" in traced \
            and plain["metrics_sha256"] != traced["metrics_sha256"]:
        traced["problems"].append("traced run changed metrics.csv")
    if spans_path:
        tracer.save(spans_path)
    if "outer_steps" not in traced or "solve_s" not in plain:
        return reps, {}, {}
    metrics = layer_metrics(tracer.totals(), seen, probe.stats, traced, plain)
    return reps, metrics, {"spans": len(tracer.start)}


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(totals, seen, stats, rep, plain):
    """Per-layer metrics of one traced repetition and its untraced twin."""
    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    def own(name):
        return totals.get(name, {}).get("self_s", 0.0)

    outer, iters, cells = rep["outer_steps"], rep["inner_iterations"], rep["cells"]
    solve = total("engine.run")
    forward_bytes = 0
    problem = seen.get("problem")
    if calls("tomo.forward"):
        blocks, (rows, cols) = problem.num_blocks, problem.matrix.shape
        per_call = 12 * problem.matrix.nnz / blocks + 8 * (cols + rows / blocks)
        forward_bytes = calls("tomo.forward") * per_call
    tv_bytes = sum(calls(n) * k * 8 * cells for n, k in TV_ARRAYS_PER_CALL.items())
    pdhg_tv_self = sum(v["self_s"] for n, v in totals.items() if n.startswith(("pdhg.", "tv.")))
    solves = [s[0] for s in stats]
    ratios = [s[2] for s in stats]

    return {
        "tomo.build.s": total("tomo.build"),
        "tomo.build.nnz": seen.get("tomo.build.nnz", 0),
        "tomo.load.s": total("tomo.load"),
        "tomo.noise.s": total("tomo.noise"),
        "tomo.forward.calls": calls("tomo.forward"),
        "tomo.forward.s": total("tomo.forward"),
        "tomo.adjoint.calls": calls("tomo.adjoint"),
        "tomo.adjoint.s": total("tomo.adjoint"),
        "tomo.forward.bytes_computed": forward_bytes,
        "rng.normals.count": seen.get("rng.normals.count", 0),
        "rng.normals.s": total("rng.normals"),
        "harness.forward.calls": calls("harness.forward"),
        "harness.forward.s": total("harness.forward"),
        "harness.adjoint.calls": calls("harness.adjoint"),
        "harness.adjoint.s": total("harness.adjoint"),
        "harness.grid_load.s": total("harness.grid_load"),
        "harness.write.s": sum(total("harness." + w) for w in
                               ("write_metrics", "write_trace", "write_pgm", "write_summary")),
        "harness.write.bytes": rep["write_bytes"],
        "elliptic.factor.calls": calls("elliptic.factor"),
        "elliptic.factor.s": total("elliptic.factor"),
        "elliptic.factor_per_step": calls("elliptic.factor") / outer,
        "elliptic.forward.s": own("elliptic.forward"),
        "elliptic.adjoint.s": own("elliptic.adjoint"),
        "elliptic.setup.s": total("elliptic.setup"),
        "engine.self.s": own("engine.run"),
        "engine.diag.calls": calls("engine.diag"),
        "engine.diag.s": total("engine.diag"),
        "engine.duality_map.s": total("engine.duality_map"),
        "pdhg.solve.calls": calls("pdhg.solve"),
        "pdhg.solve.self_s": own("pdhg.solve"),
        "pdhg.iters_per_solve.p50": _median(solves),
        "pdhg.iters_per_solve.max": max(solves, default=0),
        "pdhg.iter_us": 1e6 * total("pdhg.solve") / iters if iters else 0.0,
        "pdhg.gap_eval.s": total("pdhg.primal_value") + total("pdhg.dual_value"),
        "pdhg.gap_ratio.p50": _median(ratios),
        "pdhg.gap_ratio.max": max(ratios, default=0.0),
        "pdhg.converged_ratio": sum(s[1] for s in stats) / len(stats) if stats else 0.0,
        "tv.gradient.calls": calls("tv.gradient"),
        "tv.gradient.s": total("tv.gradient"),
        "tv.divergence.calls": calls("tv.divergence"),
        "tv.divergence.s": total("tv.divergence"),
        "tv.project.calls": calls("tv.project"),
        "tv.project.s": total("tv.project"),
        "tv.l21.calls": calls("tv.l21"),
        "tv.l21.s": total("tv.l21"),
        "tv.dot.s": total("tv.dot"),
        "tv.gradient_per_iter": calls("tv.gradient") / iters if iters else 0.0,
        "tv.bytes_per_iter_computed": tv_bytes / iters if iters else 0.0,
        "penalty.tv_value.calls": calls("penalty.tv_value"),
        "penalty.tv_value.s": total("penalty.tv_value"),
        "inner_iterations": iters,
        "inner_iters_per_s": iters / plain["solve_s"],
        "trace.solve_s": solve,
        "trace.overhead_s": solve - plain["wall_solve_s"],
        "trace.pdhg_tv_self_share": pdhg_tv_self / solve,
    }


def main(argv):
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    import lkreg
    import lkreg.elliptic
    import lkreg.harness
    import lkreg.tomo
    import scipy

    source = os.path.join(spec["root"], "src", "lkreg")
    if os.path.dirname(os.path.abspath(lkreg.__file__)) != os.path.abspath(source):
        raise SystemExit(f"imported lkreg from {lkreg.__file__}, not from {source}")
    workload = WORKLOADS[spec["workload"]]
    out_dir = os.path.join(spec["work_dir"], "out")
    keys = input_keys(spec["workload"], spec["work_dir"])
    settings = {**workload["overrides"], **spec.get("overrides", {}), **keys,
                "seed": spec["seed"], "out_dir": out_dir}
    cfg = lkreg.harness.make_config(preset=workload["preset"], **settings)

    probe = InnerProbe(lkreg.engine.inner_solver)
    lkreg.engine.inner_solver = probe
    if spec["trace"]:
        reps, metrics, extra = traced_run(lkreg, cfg, spec, probe, out_dir,
                                          spec.get("spans_path"))
    else:
        reps, metrics, extra = untraced_run(lkreg, cfg, spec, probe, out_dir)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "reps": reps,
        "metrics": metrics,
        "extra": extra,
        "versions": {
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
