"""Config parsing, presets, problem assembly, output files, CLI."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import lkreg
from lkreg.cli import main
from lkreg.engine import run, validate_config
from lkreg.harness import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    MatrixProblem,
    build_problem,
    ct_geometry,
    load_grid,
    make_config,
    parse_config_text,
    run_experiment,
    save_grid,
    validation_lines,
    write_metrics,
    write_pgm,
    write_trace,
)
from lkreg.penalty import QuadraticPenalty
from lkreg.tomo import TomoProblem, default_ray_count, load_matrix_coo

from conftest import tiny_linear_problem


def small_ct_kwargs(**extra):
    kw = dict(
        problem="ct", ct_q=8, ct_angles=4, penalty="quadratic",
        constraint="none", noise_rel=0.0, n_max=3, metric_every=1,
    )
    kw.update(extra)
    return kw


def test_parse_config_text():
    raw = parse_config_text("# top\n\nct_q = 16  # trailing\nseed=9\n")
    assert raw == {"ct_q": "16", "seed": "9"}
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_text("ct_q = 1\nct_q = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text("= 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("ct_q =\n")


def test_config_field_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(problem="sonar")
    with pytest.raises(ConfigError):
        ExperimentConfig(mu=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(noise_rel=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(n_blocks=0)
    assert ExperimentConfig(ct_rays=0).ct_rays == 0  # 0 = automatic


def test_make_config_precedence(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("ct_q = 16\nseed = 9\n")
    cfg = make_config(preset="ct-desk", config_path=path)
    assert cfg.ct_q == 16 and cfg.seed == 9
    assert cfg.ct_angles == 30  # untouched preset value survives
    cfg = make_config(preset="ct-desk", config_path=path, ct_q=8, seed=None)
    assert cfg.ct_q == 8 and cfg.seed == 9  # None overrides are ignored


def test_make_config_rejects_bad_input(tmp_path):
    with pytest.raises(ConfigError):
        make_config(preset="nope")
    with pytest.raises(ConfigError):
        make_config(ct_qq=3)
    path = tmp_path / "bad.cfg"
    path.write_text("unknown_key = 1\n")
    with pytest.raises(ConfigError):
        make_config(config_path=path)
    path.write_text("ct_q = many\n")
    with pytest.raises(ConfigError):
        make_config(config_path=path)
    with pytest.raises(ConfigError):
        make_config(config_path=tmp_path / "missing.cfg")


def test_presets_construct():
    for name in PRESETS:
        cfg = make_config(preset=name)
        cfg.penalty_object()
    assert make_config(preset="ct-paper").ct_rays == 367
    assert make_config(preset="pde-paper").gap_exponent == 1.5


def test_accelerated_pde_desk_keeps_the_coefficient_nonnegative(tmp_path):
    # Unconstrained, the extrapolated coefficient goes below 0, where the
    # forward map clamps it but its derivative does not: rel_error 2.45 here.
    cfg = make_config(preset="pde-desk", mode="accelerated", n_max=400, seed=1)
    pair, trace, _ = run_experiment(cfg, out_dir=tmp_path)
    assert trace.n_final == 400 and float(np.min(pair.x)) >= 0.0
    assert trace.records[-1].rel_error < 1.0


def test_ct_geometry_auto_rays():
    cfg = ExperimentConfig(**small_ct_kwargs(ct_rays=0))
    geom = ct_geometry(cfg)
    assert geom.n_rays == default_ray_count(8)
    cfg = ExperimentConfig(**small_ct_kwargs(ct_rays=5))
    assert ct_geometry(cfg).n_rays == 5
    bad = ExperimentConfig(**small_ct_kwargs(ct_angles=30, ct_angle_start=10.0,
                                             ct_angle_step=6.0))
    with pytest.raises(ConfigError):
        ct_geometry(bad)  # last angle lands past 180 degrees


def test_matrix_problem_validation():
    problem, matrix, truth = tiny_linear_problem(301)
    with pytest.raises(ValueError):
        MatrixProblem(matrix, np.zeros(matrix.shape[0]), (3, 5))
    with pytest.raises(ValueError):
        MatrixProblem(matrix, np.zeros(3), (3, 4))
    with pytest.raises(ValueError):
        MatrixProblem(matrix, np.zeros(matrix.shape[0]), (3, 4), n_blocks=9)


def test_grid_io_roundtrip(tmp_path):
    grid = np.array([[1.0, 2.5e-17, -3.0], [4.0, 5.0, 6.0]])
    path = tmp_path / "grid.txt"
    save_grid(path, grid)
    assert np.array_equal(load_grid(path), grid)
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 2\n")
    with pytest.raises(ConfigError):
        load_grid(bad)
    bad.write_text("2 2\n1 2 3\n")
    with pytest.raises(ConfigError):
        load_grid(bad)


def test_build_problem_ct_and_pde():
    problem, truth = build_problem(ExperimentConfig(**small_ct_kwargs()))
    assert isinstance(problem, TomoProblem)
    assert truth.shape == (8, 8) and problem.noise_level == 0.0
    pde_cfg = ExperimentConfig(problem="pde", pde_m=6, penalty="quadratic",
                               constraint="none")
    problem, truth = build_problem(pde_cfg)
    assert truth.shape == (6, 6)
    with pytest.raises(ConfigError):  # a config rule: the constructor refuses it
        ExperimentConfig(problem="pde", pde_m=6, n_blocks=2,
                         penalty="quadratic", constraint="none")


def test_build_problem_custom_linear(tmp_path):
    from lkreg.tomo import save_matrix_coo

    _, matrix, truth = tiny_linear_problem(302)
    mpath, tpath = tmp_path / "mat.txt", tmp_path / "truth.txt"
    save_matrix_coo(mpath, matrix)
    save_grid(tpath, truth)
    cfg = ExperimentConfig(problem="custom-linear", matrix_path=str(mpath),
                           truth_path=str(tpath), n_blocks=2,
                           penalty="quadratic", constraint="none")
    problem, loaded = build_problem(cfg)
    assert np.array_equal(loaded, truth)
    data = np.concatenate([problem.data(i) for i in range(2)])
    assert np.allclose(data, matrix @ truth.ravel(), atol=1e-15)
    with pytest.raises(ConfigError):  # a config rule: the constructor refuses it
        ExperimentConfig(problem="custom-linear", penalty="quadratic", constraint="none")


def test_summary_delta_abs_is_the_noise_level_of_the_run_problem(monkeypatch, tmp_path):
    from lkreg import harness

    cfg = ExperimentConfig(**small_ct_kwargs(noise_rel=0.01))
    seen = []

    def recording_run(problem, *args, **kwargs):
        seen.append(problem)
        return run(problem, *args, **kwargs)

    monkeypatch.setattr(harness, "run", recording_run)
    _, _, summary = run_experiment(cfg, out_dir=tmp_path)
    written = json.loads((tmp_path / "summary.json").read_text())
    level = seen[0].noise_level
    assert level > 0.0 and summary["delta_abs"] == written["delta_abs"] == level
    clean = seen[0].matrix @ build_problem(cfg)[1].ravel()
    assert level == pytest.approx(0.01 * np.linalg.norm(clean), rel=1e-15)


def test_write_pgm_bytes(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.array([[0.0, 0.5], [1.0, 0.25]]))
    blob = path.read_bytes()
    assert blob == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])
    write_pgm(path, np.ones((2, 3)))
    blob = path.read_bytes()
    assert blob == b"P5\n3 2\n255\n" + bytes(6)  # constant grid maps to zeros


def test_write_pgm_scales_finite_cells_and_clamps_the_rest(tmp_path):
    path = tmp_path / "img.pgm"
    inf, nan = np.inf, np.nan
    write_pgm(path, np.array([[0.0, inf], [-inf, 1.0], [nan, 0.5]]))
    assert path.read_bytes() == b"P5\n2 3\n255\n" + bytes([0, 255, 0, 255, 0, 128])
    write_pgm(path, np.array([[inf, 2.0, nan]]))
    assert path.read_bytes() == b"P5\n3 1\n255\n" + bytes([255, 0, 0])
    write_pgm(path, np.array([[-1e308, 1e308, 0.0]]))  # a span past the float range
    assert path.read_bytes() == b"P5\n3 1\n255\n" + bytes([0, 255, 128])


def test_metrics_files(tmp_path):
    problem, _, _ = tiny_linear_problem(303)
    _, trace = run(problem, QuadraticPenalty(mu=1.0),
                   ExperimentConfig(**small_ct_kwargs()))
    mpath, tpath = tmp_path / "metrics.csv", tmp_path / "trace.csv"
    rows = write_metrics(mpath, trace)
    write_trace(tpath, trace, rows)
    lines = mpath.read_text().splitlines()
    assert lines[0] == "n,i_n,residual_norm,mu_tilde,mu,eps_n,inner_iterations,rel_error,q_n"
    assert len(lines) == len(trace.records) + 1
    # no ground truth passed to run(): the rel_error cells stay empty
    assert all(line.split(",")[7] == "" for line in lines[1:])
    assert float(lines[1].split(",")[2]) == trace.records[0].residual_norm
    tlines = tpath.read_text().splitlines()
    assert tlines[0].endswith(",bregman_to_truth")


def test_run_experiment_artifacts(tmp_path):
    cfg = ExperimentConfig(**small_ct_kwargs(noise_rel=0.01, seed=5))
    pair, trace, summary = run_experiment(cfg, out_dir=tmp_path / "a")
    for name in ("metrics.csv", "trace.csv", "recon.pgm", "summary.json"):
        assert (tmp_path / "a" / name).exists()
    assert summary["records"] == len(trace.records) == trace.n_final + 1
    assert summary["terminated_by"] == trace.terminated_by
    with open(tmp_path / "a" / "summary.json") as fh:
        assert json.load(fh)["seed"] == 5

    run_experiment(cfg, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b  # same config and seed reproduce byte for byte

    other = ExperimentConfig(**small_ct_kwargs(noise_rel=0.01, seed=6))
    run_experiment(other, out_dir=tmp_path / "c")
    assert a != (tmp_path / "c" / "metrics.csv").read_bytes()


def test_summary_counts_the_runs_gap_evaluations_as_value_kernel_calls(tmp_path, monkeypatch):
    from lkreg import pdhg

    calls = {"primal": 0, "dual": 0}

    def counting(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pdhg, "_primal_value_at", counting("primal", pdhg._primal_value_at))
    monkeypatch.setattr(pdhg, "_dual_value_at", counting("dual", pdhg._dual_value_at))
    cfg = ExperimentConfig(**small_ct_kwargs(penalty="quadratic+TV", noise_rel=0.01, seed=5, n_max=100))
    _, trace, summary = run_experiment(cfg, out_dir=tmp_path)
    total = summary["inner_gap_evaluations"]
    assert calls == {"primal": total, "dual": total}
    assert total == sum(r.inner_gap_evaluations for r in trace.records)
    # fewer than one per iteration, and at least one per solve
    assert summary["inner_iterations"] > total >= sum(r.inner_iterations > 0 for r in trace.records)
    with open(tmp_path / "summary.json") as fh:
        assert json.load(fh)["inner_gap_evaluations"] == total


def test_summary_counts_the_runs_inner_iterations(tmp_path):
    cfg = ExperimentConfig(**small_ct_kwargs(penalty="quadratic+TV", noise_rel=0.01, seed=5, n_max=100))
    _, trace, summary = run_experiment(cfg, out_dir=tmp_path)
    total = sum(r.inner_iterations for r in trace.records)
    assert total > 0 and summary["inner_iterations"] == total
    with open(tmp_path / "summary.json") as fh:
        assert json.load(fh)["inner_iterations"] == total


def test_run_experiment_zero_iterations(tmp_path):
    cfg = ExperimentConfig(**small_ct_kwargs(n_max=0))
    _, trace, summary = run_experiment(cfg, out_dir=tmp_path)
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2 and summary["n_final"] == 0


def test_validation_lines_content():
    lines = validation_lines(make_config(preset="ct-desk"))
    text = "\n".join(lines)
    assert "kappa = 1" in text and "0.01 (ok)" in text
    lines = validation_lines(make_config(preset="pde-desk"))
    text = "\n".join(lines)
    assert "VIOLATED" in text and "warning:" in text


@pytest.mark.parametrize("name, line, positive_below", [
    ("ct-desk", "c1 <= -0.0901 for every beta > 1", None),
    ("ct-paper", "c1 <= -0.0901 for every beta > 1", None),
    ("pde-desk", "c1 > 0 for 1 < beta < 1.0097", 1.0097),
    ("pde-paper", "c1 > 0 for 1 < beta < 1.0097", 1.0097),
])
def test_validate_says_where_c1_turns_positive(name, line, positive_below):
    cfg = make_config(preset=name)
    lines = validation_lines(cfg)
    assert line in lines
    # the beta = 2 report and its warning stay
    assert any(text.startswith("c1 = ") and text.endswith("(not positive)") for text in lines)
    assert any(text.startswith("warning: descent margin c1") for text in lines)
    c0 = cfg.penalty_object().c0
    if positive_below is None:
        assert validate_config(cfg, beta=1.0 + 1e-9, c0=c0).c1 < 0.0
    else:
        assert validate_config(cfg, beta=positive_below - 1e-4, c0=c0).c1 > 0.0
        assert validate_config(cfg, beta=positive_below + 1e-4, c0=c0).c1 < 0.0


_CT_REPORT = """\
problem = ct, penalty = quadratic+TV, mode = plain
kappa = 1
kappa * beta1 * sigma = 0.01 (ok)
c1 = -0.590099 (not positive)
c1 <= -0.0901 for every beta > 1
warning: descent margin c1 = -0.590099 is not positive for beta = 2
"""
_PDE_REPORT = """\
problem = pde, penalty = quadratic+TV, mode = plain
kappa = 1
kappa * beta1 * sigma = 20 (VIOLATED)
c1 = -0.490392 (not positive)
c1 > 0 for 1 < beta < 1.0097
warning: kappa * beta1 * sigma = 20 exceeds 1; the step-size cap is outside the admissible range
warning: descent margin c1 = -0.490392 is not positive for beta = 2
"""


@pytest.mark.parametrize("name", ["ct-desk", "ct-paper", "pde-desk", "pde-paper"])
def test_validate_prints_each_presets_report_line_for_line(name, capsys):
    assert main(["validate", "--preset", name]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (_CT_REPORT if name.startswith("ct") else _PDE_REPORT, "")


def test_cli_run_and_validate(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "problem = ct\nct_q = 8\nct_angles = 4\npenalty = quadratic\n"
        "constraint = none\nn_max = 2\n"
    )
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "terminated_by=cap n_final=2" in capsys.readouterr().out
    assert (tmp_path / "out" / "recon.pgm").exists()

    rc = main(["validate", "--preset", "pde-desk"])
    assert rc == 0
    assert "VIOLATED" in capsys.readouterr().out


def test_cli_config_errors(tmp_path, capsys):
    assert main(["run"]) == 2  # neither --config nor --preset
    assert main(["validate", "--preset", "nope"]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem = sonar\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["export-matrix", "--preset", "pde-desk"]) == 2
    capsys.readouterr()


def test_cli_inner_failure_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "fail.cfg"
    cfg_path.write_text(
        "problem = ct\nct_q = 16\nct_angles = 5\npenalty = quadratic+TV\n"
        "constraint = nonneg\nn_max = 5\ninner_max_iter = 1\neta0 = 0.001\n"
        "beta0 = 10.0\n"  # a first step long enough to leave the constant regime
    )
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 3
    capsys.readouterr()


def test_cli_export_matrix(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("problem = ct\nct_q = 6\nct_angles = 3\n")
    out = tmp_path / "mat.txt"
    rc = main(["export-matrix", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    mat = load_matrix_coo(out)
    assert mat.shape == (3 * default_ray_count(6), 36)
    capsys.readouterr()


def test_cli_rejects_ct_block_count_past_the_angles(tmp_path, capsys):
    cfg_path = tmp_path / "blocks.cfg"
    cfg_path.write_text(
        "problem = ct\nct_q = 8\nct_angles = 4\nn_blocks = 9\npenalty = quadratic\n"
        "constraint = none\nn_max = 2\n"
    )
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "n_blocks" in capsys.readouterr().err


def custom_linear_run(tmp_path, matrix_text=None, truth_text=None, **extra):
    """CLI exit code of a custom-linear run on the tiny problem's files.

    `matrix_text` and `truth_text` replace the saved files' contents.
    """
    from lkreg.tomo import save_matrix_coo

    _, matrix, truth = tiny_linear_problem(304)
    mpath, tpath = tmp_path / "mat.txt", tmp_path / "truth.txt"
    save_matrix_coo(mpath, matrix)
    save_grid(tpath, truth)
    if matrix_text is not None:
        mpath.write_text(matrix_text(mpath.read_text()))
    if truth_text is not None:
        tpath.write_text(truth_text(tpath.read_text()))
    lines = ["problem = custom-linear", f"matrix_path = {mpath}", f"truth_path = {tpath}",
             "penalty = quadratic", "constraint = none", "n_max = 2"]
    lines += [f"{key} = {value}" for key, value in extra.items()]
    cfg_path = tmp_path / "custom.cfg"
    cfg_path.write_text("\n".join(lines) + "\n")
    return main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])


def test_cli_custom_linear_accepts_its_own_files(tmp_path, capsys):
    assert custom_linear_run(tmp_path, n_blocks=8) == 0
    assert "terminated_by=cap" in capsys.readouterr().out


def last_cell_of_first_row(text, new):
    """Saved grid or matrix text with the last cell after the header set to `new`."""
    head, first, rest = text.split("\n", 2)
    cells = first.split()
    cells[-1] = new
    return "\n".join([head, " ".join(cells), rest])


@pytest.mark.parametrize("case", [
    "blocks-past-rows", "width-mismatch", "nan-in-truth", "nan-in-matrix",
    "inf-in-matrix", "unparsable-truth",
])
def test_cli_rejects_bad_custom_linear_input(tmp_path, capsys, case):
    kwargs = {
        "blocks-past-rows": dict(n_blocks=9),
        "width-mismatch": dict(truth_text=lambda t: "4 4\n" + " ".join(["1.0"] * 16) + "\n"),
        "nan-in-truth": dict(truth_text=lambda t: last_cell_of_first_row(t, "nan")),
        "nan-in-matrix": dict(matrix_text=lambda t: last_cell_of_first_row(t, "nan")),
        "inf-in-matrix": dict(matrix_text=lambda t: last_cell_of_first_row(t, "-inf")),
        "unparsable-truth": dict(truth_text=lambda t: last_cell_of_first_row(t, "x1")),
    }[case]
    assert custom_linear_run(tmp_path, **kwargs) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_non_finite_exit_code(tmp_path, capsys):
    # a truth cell of 1e300 puts data near 1e300, so the first residual norm overflows
    with np.errstate(over="ignore", invalid="ignore"):
        rc = custom_linear_run(tmp_path, truth_text=lambda t: last_cell_of_first_row(t, "1e300"))
    assert rc == 3
    out, err = capsys.readouterr()
    assert "terminated_by=non-finite n_final=0" in out and "non-finite" in err


IDENTITY_4X4 = "4 4 4\n0 0 1\n1 1 1\n2 2 1\n3 3 1\n"


@pytest.mark.parametrize("case", ["zero-data-with-noise", "entries-past-the-count"])
def test_cli_rejects_zero_data_noise_and_extra_matrix_entries(tmp_path, capsys, case):
    kwargs = {
        "zero-data-with-noise": dict(matrix_text=lambda t: IDENTITY_4X4,
                                     truth_text=lambda t: "2 2\n0 0\n0 0\n", noise_rel=0.01),
        "entries-past-the-count": dict(matrix_text=lambda t: t + "0 0 1.0\n"),
    }[case]
    assert custom_linear_run(tmp_path, **kwargs) == 2
    assert "config error" in capsys.readouterr().err


def test_pde_zero_data_with_noise_is_a_config_error(monkeypatch):
    from lkreg import elliptic

    monkeypatch.setattr(elliptic, "solve_state", lambda a, mesh, f, g: np.zeros(mesh.m * mesh.m))
    cfg = ExperimentConfig(problem="pde", pde_m=6, penalty="quadratic", constraint="none",
                           noise_rel=0.01)
    with pytest.raises(ConfigError, match="zero data"):
        build_problem(cfg)


def test_cli_scalar_power_overflow_exits_non_finite(tmp_path, capsys):
    cfg_path = tmp_path / "p400.cfg"
    cfg_path.write_text("problem = ct\nct_q = 16\nct_angles = 4\nnoise_rel = 0.01\np = 400\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    assert "terminated_by=non-finite" in capsys.readouterr().out


def test_cli_overflowing_discrepancy_bound_is_a_config_error(tmp_path, capsys):
    # noise_rel = 0.5 gives tau * delta of about 9.6 here, and 9.6 ** 400 overflows
    cfg_path = tmp_path / "p400.cfg"
    cfg_path.write_text("problem = ct\nct_q = 16\nct_angles = 4\nnoise_rel = 0.5\np = 400\n")
    for args in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*args, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "(tau * delta)^p" in err and "p = 400" in err and "noise_rel = 0.5" in err, err
    assert not (tmp_path / "out").exists()


def test_validate_warns_about_an_unconstrained_pde(tmp_path, capsys):
    for name in PRESETS:
        assert not any("constraint = none" in line
                       for line in validation_lines(make_config(preset=name)))
    cfg_path = tmp_path / "pde.cfg"
    cfg_path.write_text("problem = pde\npde_m = 6\nconstraint = none\n")
    assert main(["validate", "--config", str(cfg_path)]) == 0
    assert "warning: problem = pde with constraint = none" in capsys.readouterr().out


@pytest.mark.parametrize("case", ["run-out-is-a-file", "export-into-missing-dir"])
def test_cli_unwritable_output_path_exits_2_without_traceback(tmp_path, case):
    if case == "run-out-is-a-file":
        target = tmp_path / "taken"
        target.write_text("not a directory\n")
        args = ["run", "--preset", "ct-desk"]
    else:
        target = tmp_path / "missing_dir" / "m.txt"
        args = ["export-matrix", "--preset", "ct-desk"]
    # a fresh interpreter, so that an uncaught error shows as a traceback and exit 1
    src = str(pathlib.Path(lkreg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "lkreg.cli", *args, "--out", str(target)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert len(done.stderr.strip().splitlines()) == 1 and str(target) in done.stderr


def test_config_error_leaves_no_output_directory(tmp_path, capsys):
    _, _, truth = tiny_linear_problem(304)
    save_grid(tmp_path / "truth.txt", truth)
    cfg_path = tmp_path / "custom.cfg"
    cfg_path.write_text(
        f"problem = custom-linear\nmatrix_path = {tmp_path / 'missing.txt'}\n"
        f"truth_path = {tmp_path / 'truth.txt'}\npenalty = quadratic\nn_max = 2\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "cannot load matrix" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body, kappa, warned", [
    ("p = 1\ns = 1.0001\n", "kappa = 0.5", False),
    ("s = 1e308\n", "kappa = inf", True),
])
def test_validate_reports_kappa_at_extreme_exponents(tmp_path, capsys, body, kappa, warned):
    cfg_path = tmp_path / "extreme.cfg"
    cfg_path.write_text(body)
    assert main(["validate", "--preset", "ct-desk", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert kappa in out
    assert any("exceeds 1" in line for line in out) == warned


def test_validate_warns_about_accelerated_runs_with_several_blocks(tmp_path, capsys):
    for name in PRESETS:
        assert not any("n_blocks" in line
                       for line in validation_lines(make_config(preset=name)))
    cfg_path = tmp_path / "accel.cfg"
    cfg_path.write_text("problem = ct\nct_q = 8\nct_angles = 6\nmode = accelerated\n"
                        "n_blocks = 3\n")
    assert main(["validate", "--config", str(cfg_path)]) == 0
    assert "warning: mode = accelerated with n_blocks = 3" in capsys.readouterr().out
    cfg_path.write_text("problem = ct\nct_q = 8\nct_angles = 6\nmode = accelerated\n")
    assert main(["validate", "--config", str(cfg_path)]) == 0
    assert "n_blocks" not in capsys.readouterr().out
