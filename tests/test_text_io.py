"""Text formats: the sparse-matrix and grid loaders and writers.

The suite runs with warnings as errors, so every case here also checks that
numpy's loader stays silent on empty input.
"""

import warnings

import numpy as np
import pytest

from lkreg.cli import main
from lkreg.harness import ConfigError, ct_geometry, load_grid, make_config, save_grid
from lkreg.tomo import build_parallel_tomo, load_matrix_coo, save_matrix_coo


def test_ct_desk_matrix_round_trips_bit_for_bit(tmp_path):
    mat = build_parallel_tomo(ct_geometry(make_config(preset="ct-desk")))
    path = tmp_path / "ct-desk.txt"
    save_matrix_coo(path, mat)
    back = load_matrix_coo(path)
    assert back.shape == mat.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(back, name), getattr(mat, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("body", [
    "0 1.5 1.0\n1 1 2.0\n",  # non-integer column index
    "0 1\n1 1 2.0\n",  # two columns
    "0 1 1.0 7\n1 1 2.0\n",  # four columns
    "0 1 1.0\n",  # fewer entries than the header's count
    "",  # no entries at all
    "\n\n",  # blank lines in place of the entries
    "0 1 nan\n1 1 2.0\n",  # non-finite value
], ids=["float-index", "two-columns", "four-columns", "too-few", "none", "blank", "nan"])
def test_matrix_loader_rejects_malformed_entries(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text("2 2 2\n" + body)
    with pytest.raises(ValueError):
        load_matrix_coo(path)


@pytest.mark.parametrize("index", ["1.5", "1.0"])
def test_float_index_is_rejected_under_default_warning_filters(tmp_path, capsys, index):
    # numpy truncates a float in an integer field and only warns, which the
    # default filters print rather than raise; the loader must still refuse it
    (tmp_path / "matrix.txt").write_text(f"2 2 1\n0 {index} 1.0\n")
    (tmp_path / "truth.txt").write_text("2 1\n1.0\n2.0\n")
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(f"problem = custom-linear\nmatrix_path = {tmp_path}/matrix.txt\n"
                        f"truth_path = {tmp_path}/truth.txt\n")
    with warnings.catch_warnings():
        warnings.resetwarnings()
        warnings.simplefilter("default")
        with pytest.raises(ValueError, match=index):
            load_matrix_coo(tmp_path / "matrix.txt")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot load matrix") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("header", ["2 2 -1", "-2 2 0", "2 -2 0"])
def test_matrix_loader_rejects_a_negative_header_value(tmp_path, header):
    path = tmp_path / "bad.txt"
    path.write_text(header + "\n0 0 1.0\n")
    with pytest.raises(ValueError, match=f"malformed matrix header '{header}'"):
        load_matrix_coo(path)


def test_cli_run_rejects_a_negative_entry_count(tmp_path, capsys):
    (tmp_path / "matrix.txt").write_text("2 2 -1\n")
    (tmp_path / "truth.txt").write_text("2 1\n1.0\n2.0\n")
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(f"problem = custom-linear\nmatrix_path = {tmp_path}/matrix.txt\n"
                        f"truth_path = {tmp_path}/truth.txt\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("config error: cannot load matrix: malformed matrix header '2 2 -1'")


def test_matrix_loader_reads_an_empty_matrix(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("3 4 0\n")
    mat = load_matrix_coo(path)
    assert mat.shape == (3, 4) and mat.nnz == 0


def test_save_grid_keeps_the_per_row_repr_format(tmp_path):
    grid = np.array([[-0.0, 2.5e-17, 1e300], [np.inf, 1.0 / 3.0, -7.0]])
    path = tmp_path / "grid.txt"
    save_grid(path, grid)
    want = "2 3\n" + "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in grid)
    assert path.read_text() == want


def test_grid_with_a_header_only_is_a_config_error(tmp_path):
    path = tmp_path / "header-only.txt"
    path.write_text("1 2\n")
    with pytest.raises(ConfigError, match="expected 2 values, found 0"):
        load_grid(path)
