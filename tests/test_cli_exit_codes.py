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
    # an n_max past the float range: its gap target is 0, not an OverflowError
    "n-max-past-the-float-range": "problem = ct\nct_q = 8\nct_angles = 30\nn_max = 1" + "0" * 400 + "\n",
    # a grid whose cell count has too many digits for a decimal string
    "ct-q-with-2201-digits": "problem = ct\nct_q = 1" + "0" * 2200 + "\n",
    # problems that `build_problem` refuses
    "angles-past-180": CT + "ct_angle_step = 10\n",
    "negative-angle-step": "problem = ct\nct_q = 8\nct_angles = 4\nct_angle_step = -4\n",
    "blocks-past-the-angles": CT + "n_blocks = 1000\n",
    "zero-detector-spacing": CT + "ct_detector_spacing = 0\n",
    "noise-level-overflows": CT + "noise_rel = 1e308\n",
    # a discrepancy threshold (tau delta)^p that is inf before step 0
    "discrepancy-threshold-overflows-by-noise": CT + "noise_rel = 1e170\n",
    "discrepancy-threshold-overflows-by-tau": CT + "noise_rel = 0.01\ntau = 1e200\n",
    "discrepancy-threshold-overflows-by-p": CT + "noise_rel = 0.1\np = 1e6\n",
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


@pytest.mark.parametrize("extra", [
    "noise_rel = 0.01\nmu = 1e300\n", "noise_rel = 0.01\np = 1e6\n",
    "noise_rel = 0.01\nbeta0 = 1e308\nbeta1 = 1e308\npenalty = quadratic\nct_rays = 1\n",
], ids=["mu-1e300", "threshold-underflows", "final-iterate-mixes-inf-and-finite-cells"])
def test_a_run_that_goes_non_finite_after_a_finite_threshold_exits_3(tmp_path, capsys, extra):
    # mu = 1e300 overflows at step 1; with p = 1e6, tau * delta < 1 and the
    # threshold underflows to 0: neither is a config error.  With beta = 1e308
    # the final iterate holds inf and finite cells, which recon.pgm must write
    # without a warning
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(CT + extra)
    assert main(["validate", "--config", str(cfg_path)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    assert "terminated_by=non-finite" in capsys.readouterr().out


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
    """Exit 0, 2 or 3; `validate` exits 2 exactly when `run` does.

    Exits 2 and 3 print one stderr line.  Every warning is raised as an
    error, since a printed one would add lines to stderr.
    """
    text = TINY_BASES[base] + "".join(f"{key} = {value!r}\n" for key, value in fields.items())
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = os.path.join(tmp, "case.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        results = [_main_with_stderr(["validate", "--config", path]),
                   _main_with_stderr(["run", "--config", path, "--out", os.path.join(tmp, "out")])]
    (validate_code, _), (run_code, _) = results
    assert validate_code in (0, 2) and run_code in (0, 2, 3), (text, results)
    assert (validate_code == 2) == (run_code == 2), (text, results)
    for code, err in results:
        assert code not in (2, 3) or len(err.strip().splitlines()) == 1, (text, results)


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


INT_FIELDS = [f.name for f in dataclasses.fields(harness.ExperimentConfig) if f.type is int]
INT_EXTREMES = (0, -1, 2**63, 10**400)


def test_each_int_field_at_each_extreme_keeps_the_cli_contract():
    """`validate` exits 0, or 2 with one stderr line; a cheap run keeps the contract too.

    Each integer field alone takes each extreme on the tiny bases, with noisy
    data so that the seed is used.  Where `validate` exits 0 and the run
    stays tiny (n_max <= 2, grid sides <= 8), `run` exits 0 or 3, with one
    stderr line on 3.  Every warning is raised as an error.
    """
    assert set(INT_FIELDS) == {"n_max", "inner_max_iter", "metric_every", "n_blocks", "seed",
                               "ct_q", "ct_angles", "ct_rays", "pde_m"}
    for base, text in TINY_BASES.items():
        for key in INT_FIELDS:
            for value in INT_EXTREMES:
                fields = {**harness.parse_config_text(text), "noise_rel": "0.01", key: value}
                with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
                    warnings.simplefilter("error")
                    path = os.path.join(tmp, "case.cfg")
                    with open(path, "w") as fh:
                        fh.write("".join(f"{k} = {v}\n" for k, v in fields.items()))
                    code, err = _main_with_stderr(["validate", "--config", path])
                    assert code in (0, 2), (base, key, value, code, err)
                    assert code == 0 or len(err.strip().splitlines()) == 1, (base, key, value, err)
                    cheap = int(fields["n_max"]) <= 2 and all(
                        int(fields.get(side, 8)) <= 8 for side in ("ct_q", "pde_m"))
                    if code == 0 and cheap:
                        run = _main_with_stderr(["run", "--config", path,
                                                 "--out", os.path.join(tmp, "out")])
                        assert run[0] in (0, 3), (base, key, value, run)
                        assert run[0] == 0 or len(run[1].strip().splitlines()) == 1, run
