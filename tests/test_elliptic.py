"""Elliptic parameter identification: discretization, solver, derivatives."""

import math

import numpy as np
import pytest

from lkreg import elliptic
from lkreg.elliptic import (
    EllipticProblem,
    Mesh,
    assemble_operator,
    boundary_contribution,
    default_coefficient,
    default_problem,
    default_source,
    manufactured_error,
    solve_state,
)
from lkreg.rng import normals

from conftest import kron_operator


def test_mesh_basics():
    mesh = Mesh(3)
    assert mesh.h == 0.25
    assert np.allclose(mesh.coords(), [0.25, 0.5, 0.75])
    x, y = mesh.grids()
    assert x[2, 0] == 0.75 and y[0, 2] == 0.75  # first index along x
    with pytest.raises(ValueError):
        Mesh(0)


def test_operator_small_hand_matrix():
    mesh = Mesh(2)  # h = 1/3
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    dense = assemble_operator(c, mesh).toarray()
    s = 9.0  # 1 / h^2
    want = s * np.array(
        [
            [4.0, -1.0, -1.0, 0.0],
            [-1.0, 4.0, 0.0, -1.0],
            [-1.0, 0.0, 4.0, -1.0],
            [0.0, -1.0, -1.0, 4.0],
        ]
    ) + np.diag([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(dense, want, atol=1e-12)


def test_operator_symmetry_and_clamping():
    mesh = Mesh(5)
    c = normals(3, 25).reshape(5, 5)  # mixed signs
    op = assemble_operator(c, mesh)
    assert abs(op - op.T).max() == 0.0
    clamped = assemble_operator(np.maximum(c, 0.0), mesh)
    assert abs(op - clamped).max() == 0.0
    with pytest.raises(ValueError):
        assemble_operator(np.zeros(24), mesh)


def test_boundary_contribution_pattern():
    mesh = Mesh(3)
    out = boundary_contribution(mesh, 2.0) * mesh.h ** 2
    want = np.array([[4.0, 2.0, 4.0], [2.0, 0.0, 2.0], [4.0, 2.0, 4.0]])
    assert np.array_equal(out, want)  # corners touch two boundary edges


def test_boundary_contribution_callable():
    mesh = Mesh(3)
    out = boundary_contribution(mesh, lambda x, y: x + 10.0 * y) * mesh.h ** 2
    # corner (0, 0) cell: edge x = 0 gives 10 y = 2.5, edge y = 0 gives x = 0.25
    assert out[0, 0] == pytest.approx(2.75)
    assert out[1, 1] == 0.0


def test_constant_state_reproduced():
    # c = 4, u = 1: f = -Laplace(1) + 4 = 4 with boundary data 1
    mesh = Mesh(7)
    u = solve_state(4.0 * np.ones((7, 7)), mesh, 4.0 * np.ones((7, 7)), g=1.0)
    assert np.max(np.abs(u - 1.0)) <= 1e-10
    # pure Laplace with constant boundary data stays constant too
    u = solve_state(np.zeros((7, 7)), mesh, np.zeros((7, 7)), g=1.0)
    assert np.max(np.abs(u - 1.0)) <= 1e-10


def test_maximum_principle_nonnegative_state():
    mesh, f, g, c = default_problem(12)
    u = solve_state(c, mesh, f, g)
    assert u.min() >= -1e-12


def test_manufactured_second_order_convergence():
    ratio = manufactured_error(10) / manufactured_error(21)
    assert 3.6 <= ratio <= 4.4  # h halves, error should quarter


def test_default_source_frozen_values():
    assert default_source(0.5, 0.5) == 200.0
    assert default_source(0.0, 0.0) == pytest.approx(1.3475893998170934, rel=1e-15)


def test_default_problem_structure():
    mesh, f, g, c = default_problem(9)
    assert f.shape == (9, 9) and c.shape == (9, 9) and g == 1.0
    assert set(np.unique(c)) <= {0.0, 1.0, 2.0}
    assert np.any(c == 1.0) and np.any(c == 2.0)
    assert np.array_equal(c, default_coefficient(mesh))


def test_problem_adjoint_identity():
    mesh, f, g, c_true = default_problem(12)
    prob = EllipticProblem(mesh, f, g, solve_state(c_true, mesh, f, g))
    c = np.abs(normals(9, 144)).reshape(12, 12)
    for trial in range(100):
        h = normals(100 + trial, 144).reshape(12, 12)
        w = normals(300 + trial, 144).reshape(12, 12)
        lhs = float(np.vdot(prob.derivative(0, c, h), w))
        rhs = float(np.vdot(h, prob.adjoint(0, c, w)))
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


def test_derivative_matches_finite_differences():
    mesh, f, g, c_true = default_problem(10)
    prob = EllipticProblem(mesh, f, g, solve_state(c_true, mesh, f, g))
    c = 0.5 + np.abs(normals(13, 100)).reshape(10, 10)
    h = normals(14, 100).reshape(10, 10)
    deriv = prob.derivative(0, c, h)
    errs = []
    for t in (1e-1, 1e-2, 1e-3):
        fd = (prob.apply(0, c + t * h) - prob.apply(0, c - t * h)) / (2.0 * t)
        errs.append(float(np.max(np.abs(fd - deriv))))
    assert errs[0] < 1e-3  # already close at the coarsest step
    assert errs[1] < 0.02 * errs[0]  # central difference is second order
    assert errs[2] < 1e-9  # finest step sits near the rounding floor


def test_problem_caching_and_data():
    mesh, f, g, c_true = default_problem(6)
    data = solve_state(c_true, mesh, f, g)
    prob = EllipticProblem(mesh, f, g, data)
    u1 = prob.apply(0, c_true)
    lu_first = prob._lu
    prob.derivative(0, c_true, np.ones((6, 6)))
    assert prob._lu is lu_first  # same coefficient reuses the factorization
    prob.apply(0, c_true + 1.0)
    assert prob._lu is not lu_first
    assert np.array_equal(prob.data(0), data)
    assert np.max(np.abs(u1 - data)) <= 1e-12
    with pytest.raises(ValueError):
        EllipticProblem(mesh, f, g, np.zeros((5, 5)))


def mixed_sign_coefficient(m):
    """Coefficient grid cycling positive, negative and zero entries."""
    c = np.abs(normals(40 + m, m * m))
    c[1::3] *= -1.0
    c[2::3] = 0.0
    return c.reshape(m, m)


@pytest.mark.parametrize("m", [1, 2, 7, 40])
def test_assembly_matches_kron_reference_bytes(m):
    mesh = Mesh(m)
    c = mixed_sign_coefficient(m)
    assert m == 1 or (np.any(c < 0.0) and np.any(c == 0.0) and np.any(c > 0.0))
    for _ in range(2):  # the second call reads the cached Laplacian
        got, want = assemble_operator(c, mesh), kron_operator(c, mesh)
        assert got.format == want.format == "csc"
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("m", [1, 2, 7])
def test_solve_state_matches_a_dense_solve(m):
    mesh = Mesh(m)
    c = mixed_sign_coefficient(m)
    f = normals(60 + m, m * m).reshape(m, m)
    u = solve_state(c, mesh, f, g=1.5)
    rhs = f + boundary_contribution(mesh, 1.5)
    want = np.linalg.solve(kron_operator(c, mesh).toarray(), rhs.ravel())
    assert np.linalg.norm(u.ravel() - want) <= 1e-12 * np.linalg.norm(want)


@pytest.fixture
def factor_count(monkeypatch):
    """Counts calls of `elliptic.splu`, the name the benchmark tracer patches."""
    calls = []
    real = elliptic.splu

    def counting(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return real(*args, **kwargs)

    monkeypatch.setattr(elliptic, "splu", counting)
    return calls


def test_solve_state_factors_once(factor_count):
    mesh, f, g, c = default_problem(6)
    solve_state(c, mesh, f, g)
    assert factor_count == ["MMD_AT_PLUS_A"]


def test_problem_factors_once_per_coefficient(factor_count):
    mesh, f, g, c = default_problem(6)
    prob = EllipticProblem(mesh, f, g, np.zeros((6, 6)))
    prob.apply(0, c)
    prob.adjoint(0, c, np.ones((6, 6)))
    prob.derivative(0, c.copy(), np.ones((6, 6)))
    assert len(factor_count) == 1  # one step: forward, adjoint, derivative
    prob.apply(0, c + 1.0)
    assert len(factor_count) == 2
