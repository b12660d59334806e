"""Smoke test of the benchmark itself, on shrunken workloads.

Runs every workload at a tiny size through the same child-process path as a
real run, and checks that every end-to-end metric of BENCHMARK.json comes
back with its unit, that a traced run reports every per-layer metric, and
that a run whose inner solver fails is counted in `runs_failed` instead of
crashing the benchmark.  Takes about fifteen seconds:

    python3 benchmarks/smoke.py
    python3 -m pytest -q benchmarks/smoke.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402

TINY = {
    "ct-desk": {"ct_q": 16, "ct_angles": 8, "ct_angle_step": 22.5, "noise_rel": 0.05},
    "ct-paper-slice": {"ct_q": 16, "ct_angles": 6, "ct_rays": 23, "n_max": 2},
    "pde-paper-slice": {"pde_m": 10, "n_max": 2},
    "custom-kaczmarz": {"noise_rel": 0.01},
}


def _run(name, trace=0, **extra):
    return bench.run_workload(name, seed=1, seconds=0, trace=trace,
                              overrides={**TINY[name], **extra})


def test_every_workload_reports_every_end_to_end_metric():
    declared, _ = bench.declared_metrics(trace=0)
    for name in bench.WORKLOADS:
        record = _run(name)
        assert record["attempted"] >= 1 and record["failed"] == 0, (name, record["problems"])
        shown = bench.report(record, declared)
        for spec in declared:
            assert spec["name"] in record["metrics"], (name, spec["name"])
            assert shown[spec["name"]]["unit"] == spec["unit"]
            assert shown[spec["name"]]["value"] > 0, (name, spec["name"])


def test_traced_run_reports_every_per_layer_metric():
    declared, _ = bench.declared_metrics(trace=1)
    record = _run("pde-paper-slice", trace=1)
    assert record["failed"] == 0, record["problems"]
    assert sorted(record["metrics"]) == sorted(spec["name"] for spec in declared)
    assert record["metrics"]["elliptic.factor.calls"] > 0
    assert record["metrics"]["pdhg.solve.calls"] > 0


def test_inner_failure_is_counted_not_raised():
    record = _run("ct-desk", inner_max_iter=1)
    assert record["attempted"] == 1
    assert record["failed"] == 1
    assert record["terminated_by"] == ["inner-failure"]


if __name__ == "__main__":
    for test in (test_every_workload_reports_every_end_to_end_metric,
                 test_traced_run_reports_every_per_layer_metric,
                 test_inner_failure_is_counted_not_raised):
        test()
        print(f"ok {test.__name__}")
