"""One config schema: solver settings are checked when the config is made."""

import dataclasses

import pytest

from lkreg.cli import main
from lkreg.engine import SolverConfig
from lkreg.harness import ConfigError, ExperimentConfig, make_config


@pytest.mark.parametrize("bad", [
    dict(tau=1.0), dict(alpha=2.0), dict(s=1.0), dict(p=0.5),
    dict(beta0=0.0), dict(n_max=-1), dict(gap_exponent=0.0),
])
def test_invalid_solver_settings_are_rejected_at_construction(bad):
    with pytest.raises(ConfigError):
        ExperimentConfig(**bad)


def test_solver_config_carries_every_shared_field():
    cfg = make_config(preset="pde-paper", p=1.5, s=3.0, n_blocks=1, inner_max_iter=77)
    solver = cfg.solver_config(delta=0.25)
    assert solver.delta == 0.25
    for f in dataclasses.fields(SolverConfig):
        if f.name != "delta":
            assert getattr(solver, f.name) == getattr(cfg, f.name), f.name


@pytest.mark.parametrize("command", ["validate", "export-matrix"])
def test_cli_rejects_invalid_solver_settings(tmp_path, capsys, command):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("problem = ct\nct_q = 6\nct_angles = 3\ntau = 1.0\n")
    assert main([command, "--config", str(cfg_path)]) == 2
    assert "tau" in capsys.readouterr().err
