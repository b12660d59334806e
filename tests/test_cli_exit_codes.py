"""`lkreg validate` and `lkreg run` reject the same configs, with exit 2."""

import pytest

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
    "blocks-past-the-angles": CT + "n_blocks = 1000\n",
    "zero-detector-spacing": CT + "ct_detector_spacing = 0\n",
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
