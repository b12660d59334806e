"""The one block-CSR operator: its row split, checks and CT subclass."""

import numpy as np
import pytest

from lkreg.harness import MatrixProblem
from lkreg.rng import normals
from lkreg.tomo import TomoGeometry, TomoProblem, build_parallel_tomo, evenly_spaced_angles

from conftest import tiny_linear_problem


def ct_case(n_angles, q=6):
    geom = TomoGeometry(q=q, angles=evenly_spaced_angles(n_angles, start=3.0))
    mat = build_parallel_tomo(geom)
    return geom, mat, normals(51, mat.shape[0]), normals(52, q * q).reshape(q, q)


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_even_row_split_of_a_ct_matrix_matches_the_angle_split(k):
    geom, mat, sino, x = ct_case(6)
    plain = MatrixProblem(mat, sino, (geom.q, geom.q), n_blocks=k)
    ct = TomoProblem(mat, sino, geom, n_blocks=k)
    assert plain.num_blocks == ct.num_blocks == k
    for i in range(k):
        assert np.array_equal(plain.data(i), ct.data(i))
        assert np.array_equal(plain.apply(i, x), ct.apply(i, x))
        w = normals(60 + i, ct.data(i).size)
        assert np.array_equal(plain.adjoint(i, x, w), ct.adjoint(i, x, w))


def test_ct_blocks_never_cut_an_angle():
    geom, mat, sino, x = ct_case(5)
    ct = TomoProblem(mat, sino, geom, n_blocks=2)
    sizes = [ct.data(i).size for i in range(2)]
    assert sizes == [3 * geom.n_rays, 2 * geom.n_rays]
    plain = MatrixProblem(mat, sino, (geom.q, geom.q), n_blocks=2)
    assert [plain.data(i).size for i in range(2)] == [(mat.shape[0] + 1) // 2, mat.shape[0] // 2]


@pytest.mark.parametrize("k", [1, 4, 6])
def test_adjoint_of_every_block_is_the_transpose_product_byte_for_byte(k):
    geom, mat, sino, x = ct_case(6)
    problem = MatrixProblem(mat, sino, (geom.q, geom.q), n_blocks=k)
    start = 0
    for i in range(k):
        stop = start + problem.data(i).size
        w = normals(70 + i, stop - start)
        want = (mat.tocsr()[start:stop].T @ w).reshape(geom.q, geom.q)
        got = problem.adjoint(i, x, w)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), i
        start = stop
    assert start == mat.shape[0]


def test_matrix_problem_adjoint_rejects_a_wrong_length():
    problem, _, _ = tiny_linear_problem(305, rows=8, n_blocks=2)
    x = np.zeros(problem.domain_shape)
    assert problem.adjoint(0, x, np.ones(4)).shape == problem.domain_shape
    for bad in (3, 5, 8):
        with pytest.raises(ValueError):
            problem.adjoint(0, x, np.ones(bad))


def test_block_count_error_names_n_blocks():
    _, matrix, _ = tiny_linear_problem(306, rows=8)
    with pytest.raises(ValueError, match="n_blocks"):
        MatrixProblem(matrix, np.zeros(8), (3, 4), n_blocks=9)
    with pytest.raises(ValueError, match="n_blocks"):
        MatrixProblem(matrix, np.zeros(8), (3, 4), n_blocks=5, group_rows=2)
    with pytest.raises(ValueError):
        MatrixProblem(matrix, np.zeros(8), (3, 4), group_rows=3)  # 8 rows, groups of 3
