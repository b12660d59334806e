"""`lkreg validate` and `lkreg run` reject the same configs, with exit 2."""

import contextlib
import dataclasses
import io
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from lkreg import harness
from lkreg.cli import main

CT = "problem = ct\nct_q = 8\nct_angles = 30\nn_max = 10\n"
CUSTOM = "problem = custom-linear\nmatrix_path = {tmp}/matrix.txt\ntruth_path = {tmp}/truth.txt\n"

CASES = {
    # gap targets that leave (0, 1): underflow at n = 1, or growth past 1 by n_max
    "eta0-underflows": CT + "eta0 = 5e-324\n",
    "gap-exponent-underflows": CT + "gap_exponent = 1100\n",
    "gap-target-grows-past-1": CT + "gap_exponent = -1\neta0 = 0.1\n",
    # problems that `build_problem` refuses
    "angles-past-180": CT + "ct_angle_step = 10\n",
    "negative-angle-step": "problem = ct\nct_q = 8\nct_angles = 4\nct_angle_step = -4\n",
    "blocks-past-the-angles": CT + "n_blocks = 1000\n",
    "zero-detector-spacing": CT + "ct_detector_spacing = 0\n",
    "noise-level-overflows": CT + "noise_rel = 1e308\n",
    # angles or ray offsets past the float range, with no numpy warning on stderr
    "angle-step-overflows": CT + "ct_angle_step = 1e308\n",
    "every-ray-misses-the-grid": CT + "noise_rel = 0.01\nct_detector_spacing = 1e308\n",
    "pde-with-two-blocks": "problem = pde\npde_m = 6\nn_blocks = 2\n",
    "custom-with-missing-files": CUSTOM,
    "custom-with-header-only-truth": CUSTOM,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_validate_and_run_both_exit_2_with_one_stderr_line(tmp_path, capsys, case):
    if case == "custom-with-header-only-truth":
        (tmp_path / "matrix.txt").write_text("1 2 1\n0 0 1.0\n")
        (tmp_path / "truth.txt").write_text("1 2\n")
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(CASES[case].format(tmp=tmp_path))
    out = tmp_path / "out"
    for args in (["validate"], ["run", "--out", str(out)]):
        assert main([*args, "--config", str(cfg_path)]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1, err
    assert not out.exists()


ROWS_1E15 = 10**15  # 7.11 PiB of int64 or float64: the allocation fails at once

# inputs that cannot be read or held: (config bytes, input files by name)
INPUT_CASES = {
    "non-utf8-config": (b"\xff\xfe\x00bad = 1\n", {}),
    "zero-cell-truth": (CUSTOM + "penalty = quadratic\n",
                        {"matrix.txt": "1 0 0\n", "truth.txt": "0 5\n"}),
    "negative-truth-header": (CUSTOM + "penalty = quadratic\n",
                              {"matrix.txt": "1 6 0\n", "truth.txt": "-2 -3\n1 2 3 4 5 6\n"}),
    "matrix-with-1e15-rows": (CUSTOM + "penalty = quadratic\n",
                              {"matrix.txt": f"{ROWS_1E15} 4 0\n", "truth.txt": "2 2\n1 2\n3 4\n"}),
    "ct-with-1e15-rays": (CT + f"ct_rays = {ROWS_1E15}\n", {}),
}


@pytest.mark.parametrize("case", sorted(INPUT_CASES))
def test_unreadable_or_oversized_inputs_exit_2_with_one_stderr_line(tmp_path, capsys, case):
    text, files = INPUT_CASES[case]
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_bytes(text if isinstance(text, bytes) else text.format(tmp=tmp_path).encode())
    out = tmp_path / "out"
    commands = [["validate"], ["run", "--out", str(out)]]
    if case.startswith("ct-"):
        commands.append(["export-matrix", "--out", str(out)])
    for args in commands:
        assert main([*args, "--config", str(cfg_path)]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1, err
        assert "truth-" not in case or str(tmp_path / "truth.txt") in err, err
    assert not out.exists()


def test_memory_running_out_in_a_run_exits_2_and_says_so(tmp_path, capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError("Unable to allocate 7.11 PiB")

    monkeypatch.setattr(harness, "run_experiment", exhausted)
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(CT)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "out of memory: Unable to allocate 7.11 PiB\n", err


@settings(max_examples=50, deadline=None)
@given(st.binary())
def test_any_config_bytes_validate_to_0_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.cfg")
        with open(path, "wb") as fh:
            fh.write(data)
        assert main(["validate", "--config", path]) in (0, 2)


CT_TINY = "problem = ct\nct_q = 8\nct_angles = 4\nn_max = 2\n"


def test_far_rays_miss_the_grid_with_nothing_on_stderr(tmp_path, capsys):
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(CT_TINY + "noise_rel = 0.01\nct_detector_spacing = 3e307\nct_rays = 11\n")
    for args in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*args, "--config", str(cfg_path)]) == 0, args
        assert capsys.readouterr().err == ""


FLOAT_FIELDS = [f.name for f in dataclasses.fields(harness.ExperimentConfig) if f.type is float]
EXTREMES = (0.0, 5e-324, 1e-300, 1e300, 1e308, -1e308)
TINY_BASES = {"ct": CT_TINY, "pde": "problem = pde\npde_m = 4\nn_max = 2\n"}


def _main_with_stderr(args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    return code, err.getvalue()


def _assert_cli_contract(base, fields):
    """Exit 0, 2 or 3; `validate` exits 2 exactly when `run` does, with one stderr line.

    Overflow warnings of a run that then stops `non-finite` (exit 3) are
    ignored: the arithmetic that raises them is on the per-step path.
    """
    text = TINY_BASES[base] + "".join(f"{key} = {value!r}\n" for key, value in fields.items())
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        path = os.path.join(tmp, "case.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        results = [_main_with_stderr(["validate", "--config", path]),
                   _main_with_stderr(["run", "--config", path, "--out", os.path.join(tmp, "out")])]
    (validate_code, _), (run_code, _) = results
    assert validate_code in (0, 2) and run_code in (0, 2, 3), (text, results)
    assert (validate_code == 2) == (run_code == 2), (text, results)
    for code, err in results:
        assert code != 2 or len(err.strip().splitlines()) == 1, (text, results)


def test_each_float_field_at_each_extreme_keeps_the_cli_contract():
    assert {"mu", "noise_rel", "ct_detector_spacing"} <= set(FLOAT_FIELDS)
    for base in TINY_BASES:
        for key in FLOAT_FIELDS:
            for value in EXTREMES:
                _assert_cli_contract(base, {key: value})


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(TINY_BASES)),
       st.dictionaries(st.sampled_from(FLOAT_FIELDS), st.sampled_from(EXTREMES), min_size=2))
def test_float_fields_at_extremes_together_keep_the_cli_contract(base, fields):
    _assert_cli_contract(base, fields)
