"""One CSV writer: trace.csv extends metrics.csv column for column."""

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
