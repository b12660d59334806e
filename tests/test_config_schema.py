"""One config schema: solver settings are checked when the config is made."""

import dataclasses
import itertools
import math
import pathlib

import pytest

from lkreg import engine, harness
from lkreg.cli import main
from lkreg.engine import SolverConfig
from lkreg.harness import _FIELD_TYPES, PRESETS, ConfigError, ExperimentConfig, make_config


@pytest.mark.parametrize("bad", [
    dict(tau=1.0), dict(alpha=2.0), dict(s=1.0), dict(p=0.5),
    dict(beta0=0.0), dict(n_max=-1), dict(gap_exponent=0.0),
    dict(problem="pde", n_blocks=2), dict(problem="custom-linear", matrix_path="m.txt"),
])
def test_invalid_solver_settings_are_rejected_at_construction(bad):
    with pytest.raises(ConfigError):
        ExperimentConfig(**bad)


def test_solver_config_carries_every_shared_field(monkeypatch, tmp_path):
    cfg = make_config(preset="pde-desk", p=1.5, s=3.0, n_blocks=1, inner_max_iter=77, n_max=0)
    seen = []

    def recording_run(problem, penalty, solver, **kwargs):
        seen.append(solver)
        return engine.run(problem, penalty, solver, **kwargs)

    monkeypatch.setattr(harness, "run", recording_run)
    harness.run_experiment(cfg, out_dir=tmp_path)
    for f in dataclasses.fields(SolverConfig):
        assert getattr(seen[0], f.name) == getattr(cfg, f.name), f.name


@pytest.mark.parametrize("command", ["validate", "export-matrix"])
def test_cli_rejects_invalid_solver_settings(tmp_path, capsys, command):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("problem = ct\nct_q = 6\nct_angles = 3\ntau = 1.0\n")
    assert main([command, "--config", str(cfg_path)]) == 2
    assert "tau" in capsys.readouterr().err


def test_experiment_config_is_a_solver_config_without_a_delta_key():
    cfg = make_config(preset="ct-desk")
    assert isinstance(cfg, SolverConfig)
    assert "delta" not in _FIELD_TYPES
    with pytest.raises(ConfigError, match="unknown config key"):
        make_config(delta=1.0)


FLOAT_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig) if f.type is float]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_every_float_key_must_be_finite(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        ExperimentConfig(**{key: value})


@pytest.mark.parametrize("make, error, message", [
    (lambda: make_config(n_max=2.5), ConfigError, "n_max must be an integer; got 2.5"),
    (lambda: make_config(ct_q=8.5), ConfigError, "ct_q must be an integer; got 8.5"),
    (lambda: SolverConfig(inner_max_iter=3.0), ValueError,
     "inner_max_iter must be an integer; got 3.0"),
    (lambda: make_config(seed=True), ConfigError, "seed must be an integer; got True"),
], ids=["n_max", "ct_q", "inner_max_iter", "bool"])
def test_every_int_key_must_hold_an_integer(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message


def test_solver_config_owns_the_inner_iteration_floor():
    with pytest.raises(ValueError, match="inner_max_iter"):
        SolverConfig(inner_max_iter=0)


@pytest.mark.parametrize("setting", ["mu = inf", "noise_rel = nan", "tau = inf"])
def test_cli_rejects_non_finite_settings(tmp_path, capsys, setting):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("problem = ct\nct_q = 8\nct_angles = 4\npenalty = quadratic\n"
                        f"constraint = none\nn_max = 2\n{setting}\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_config_table():
    """{key: default cell} of README's config-file table, backticks stripped."""
    lines = README.read_text().splitlines()
    start = lines.index("| key | default | meaning |") + 2  # skip the rule row
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    cells = (row.split("|")[1:3] for row in rows)
    return {key.strip().strip("`"): default.strip().strip("`") for key, default in cells}


def test_readme_config_table_lists_every_key_with_its_default():
    table = readme_config_table()
    assert sorted(table) == sorted(_FIELD_TYPES)
    for f in dataclasses.fields(ExperimentConfig):
        assert _FIELD_TYPES[f.name](table[f.name]) == f.default, f.name


# Every preset spelled out in full, as it read before the presets were cut to
# their departures from the defaults: reference data for what each must build.
FULL_PRESETS = {
    "ct-paper": {
        "problem": "ct", "ct_q": 256, "ct_angles": 45, "ct_angle_start": 1.0,
        "ct_angle_step": 4.0, "ct_rays": 367, "mu": 1.0, "constraint": "nonneg",
        "beta0": 0.1, "beta1": 10.0, "sigma": 1e-3, "tau": 1.01, "alpha": 5.0,
        "gap_exponent": 2.2, "noise_rel": 0.01, "n_max": 10000,
    },
    "ct-desk": {
        "problem": "ct", "ct_q": 64, "ct_angles": 30, "ct_angle_start": 0.0,
        "ct_angle_step": 6.0, "ct_rays": 0, "mu": 1.0, "constraint": "nonneg",
        "beta0": 0.1, "beta1": 10.0, "sigma": 1e-3, "tau": 1.01, "alpha": 5.0,
        "gap_exponent": 2.2, "noise_rel": 0.01, "n_max": 5000,
    },
    "pde-paper": {
        "problem": "pde", "pde_m": 100, "mu": 20.0, "constraint": "nonneg",
        "beta0": 5e-4, "beta1": 2e4, "sigma": 1e-3, "tau": 1.02, "alpha": 5.0,
        "gap_exponent": 1.5, "noise_rel": 0.00046, "n_max": 10000,
    },
    "pde-desk": {
        "problem": "pde", "pde_m": 40, "mu": 20.0, "constraint": "nonneg",
        "beta0": 5e-4, "beta1": 2e4, "sigma": 1e-3, "tau": 1.02, "alpha": 5.0,
        "gap_exponent": 1.5, "noise_rel": 0.0, "n_max": 100,
    },
}


def test_presets_list_only_departures_from_the_defaults():
    assert sorted(PRESETS) == sorted(FULL_PRESETS)
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    for name, preset in PRESETS.items():
        for key, value in preset.items():
            assert value != defaults[key], (name, key)


@pytest.mark.parametrize("name", sorted(FULL_PRESETS))
def test_each_preset_builds_its_full_reference_config(name):
    assert make_config(preset=name) == ExperimentConfig(**FULL_PRESETS[name])


def readme_preset_table():
    """{name: (size, noise, constraint, budget)} of README's presets table."""
    lines = README.read_text().splitlines()
    start = lines.index("| name | problem | size | noise | constraint | iteration budget |") + 2
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    cells = ([cell.strip().strip("`") for cell in row.split("|")[1:-1]] for row in rows)
    return {name: (size, noise, constraint, budget)
            for name, _, size, noise, constraint, budget in cells}


def test_readme_preset_table_matches_each_preset():
    table = readme_preset_table()
    assert sorted(table) == sorted(PRESETS)
    for name, row in table.items():
        cfg = make_config(preset=name)
        if cfg.problem == "ct":
            size = f"{cfg.ct_q} x {cfg.ct_q}, {cfg.ct_angles} angles"
            size += f", {cfg.ct_rays} rays" if cfg.ct_rays else ""
        else:
            size = f"{cfg.pde_m} x {cfg.pde_m} mesh"
        noise = f"{cfg.noise_rel * 100:g}% relative" if cfg.noise_rel else "none"
        assert row == (size, noise, cfg.constraint, str(cfg.n_max)), name


def test_configs_are_frozen_and_replace_checks_again():
    for cfg, error in ((SolverConfig(), ValueError), (make_config(preset="ct-desk"), ConfigError)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.mode = "accelerated"
        assert dataclasses.replace(cfg, mode="accelerated").mode == "accelerated"
        for bad, message in ((dict(mode="x"), "mode must be one of plain, accelerated; got 'x'"),
                             (dict(metric_every=0), "metric_every is out of range"),
                             (dict(gap_exponent=-1.0, eta0=0.1, n_max=20),
                              r"gap target at n = n_max = 20 must lie in \(0, 1\)")):
            with pytest.raises(error, match=message):
                dataclasses.replace(cfg, **bad)


@pytest.mark.parametrize("settings, field", [
    (dict(ct_q=10**9), "ct_q"),
    (dict(problem="pde", pde_m=10**9), "pde_m"),
    (dict(ct_rays=10**15), "ct_angles x ct_rays"),
    (dict(ct_angles=10**14), "ct_angles x ct_rays"),  # with the automatic ray count
])
def test_grids_beyond_physical_memory_are_refused_by_the_config(settings, field):
    # 8 bytes a cell puts each of these past an exabyte or a petabyte
    with pytest.raises(ConfigError, match=f"^{field} needs .* float64 cells; physical memory"):
        make_config(**settings)
