"""One CSV writer: trace.csv extends metrics.csv column for column."""

import json
import math

import numpy as np
import pytest

from lkreg import harness
from lkreg.engine import RunTrace
from lkreg.harness import ExperimentConfig, run_experiment


def test_trace_rows_start_with_the_metrics_rows(tmp_path):
    cfg = ExperimentConfig(problem="ct", ct_q=8, ct_angles=4, n_blocks=2, penalty="quadratic",
                           constraint="none", noise_rel=0.01, n_max=6, metric_every=4)
    run_experiment(cfg, out_dir=tmp_path)
    metrics = (tmp_path / "metrics.csv").read_bytes().split(b"\n")
    trace = (tmp_path / "trace.csv").read_bytes().split(b"\n")
    assert len(trace) == len(metrics) == 6 + 3  # header, seven rows, final newline
    assert metrics[-1] == trace[-1] == b""
    for m_row, t_row in zip(metrics[:-1], trace[:-1]):
        cells = t_row.split(b",")
        assert len(cells) == 10
        assert b",".join(cells[:9]) == m_row
    assert trace[0].endswith(b",bregman_to_truth")
    assert metrics[2].split(b",")[7] == b""  # rel_error skipped off the cadence


def _reference_cell(value):
    """The cell formatter before its fast paths, kept as the oracle."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))  # inf, -inf and nan included


@pytest.mark.parametrize("value", [
    0.1, 1e300, np.float64(0.1), np.float64(-2.5e-310), 7, -3, np.int64(2**40), np.int32(-5),
    True, None, math.inf, -math.inf, math.nan, -0.0, 5e-324, np.float64(math.nan),
])
def test_csv_cell_matches_the_reference_formatter(value):
    assert harness._csv_cell(value) == _reference_cell(value)


def test_trace_refuses_the_rows_of_another_trace(tmp_path):
    cfg = ExperimentConfig(problem="ct", ct_q=8, ct_angles=4, n_blocks=2, penalty="quadratic",
                           constraint="none", noise_rel=0.01, n_max=6, metric_every=4)
    _, trace, _ = run_experiment(cfg, out_dir=tmp_path)
    short = harness.write_metrics(tmp_path / "short.csv", RunTrace(records=trace.records[:-1]))
    with pytest.raises(ValueError):
        harness.write_trace(tmp_path / "t.csv", trace, short)


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def test_a_non_finite_run_writes_strict_json(tmp_path):
    cfg = ExperimentConfig(problem="ct", ct_q=8, ct_angles=4, n_max=2, noise_rel=0.01, mu=1e300)
    _, trace, summary = run_experiment(cfg, out_dir=tmp_path)
    assert trace.terminated_by == "non-finite"
    written = json.loads((tmp_path / "summary.json").read_text(), parse_constant=_refuse)
    assert written["residual_final"] == written["rel_error_final"] == "inf"
    assert written["eps_final"] == summary["eps_final"]  # a finite float stays a number
    assert summary["residual_final"] == math.inf  # the returned summary keeps its floats
