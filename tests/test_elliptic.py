"""Elliptic parameter identification: discretization, solver, derivatives."""

import json
import math

import numpy as np
import pytest

from lkreg import elliptic
from lkreg.cli import main
from lkreg.elliptic import (
    EllipticProblem,
    Mesh,
    assemble_operator,
    boundary_contribution,
    default_coefficient,
    default_problem,
    default_source,
    solve_state,
)
from lkreg.rng import normals

from conftest import kron_operator, manufactured_error, textbook_pcg


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
    lu_first = prob._op
    prob.derivative(0, c_true, np.ones((6, 6)))
    assert prob._op is lu_first  # same coefficient reuses the factorization
    prob.apply(0, c_true + 1.0)
    assert prob._op is not lu_first
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


@pytest.fixture
def setup_count(monkeypatch):
    """Counts operator setups, the calls of `elliptic.PcgOperator`."""
    calls = []
    real = elliptic.PcgOperator

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(elliptic, "PcgOperator", counting)
    return calls


def test_problem_factors_once_per_coefficient(setup_count):
    mesh, f, g, c = default_problem(6)
    prob = EllipticProblem(mesh, f, g, np.zeros((6, 6)))
    prob.apply(0, c)
    prob.adjoint(0, c, np.ones((6, 6)))
    prob.derivative(0, c.copy(), np.ones((6, 6)))
    assert len(setup_count) == 1  # one step: forward, adjoint, derivative
    prob.apply(0, c + 1.0)
    assert len(setup_count) == 2


def test_sine_preconditioner_inverts_a_constant_coefficient():
    # -Laplace_h + cbar I is diagonal in the sine basis, so for c = cbar the
    # preconditioner is the exact inverse
    mesh = Mesh(9)
    c = np.full((9, 9), 3.5)
    b = normals(70, 81).reshape(9, 9)
    want = elliptic.factorize(c, mesh).solve(b.ravel()).reshape(9, 9)
    got = elliptic.PcgOperator(c, mesh).precondition(b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("cmax", [None, 1e6], ids=["mixed", "up-to-1e6"])
@pytest.mark.parametrize("rhs", ["smooth", "noise"])
@pytest.mark.parametrize("m", [1, 2, 7, 40, 100])
def test_pcg_matches_the_sparse_lu(m, rhs, cmax):
    mesh = Mesh(m)
    c = mixed_sign_coefficient(m)
    if cmax is not None:
        c *= cmax / np.max(np.abs(c))
    b = default_source(*mesh.grids()) if rhs == "smooth" else normals(80 + m, m * m).reshape(m, m)
    want = elliptic.factorize(c, mesh).solve(b.ravel()).reshape(m, m)
    got = elliptic.PcgOperator(c, mesh).solve(b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("m", [1, 7, 40])
def test_pcg_takes_the_textbook_loops_floats(m, warm, monkeypatch):
    # scipy's cg performs the textbook loop's operations in the same order,
    # and meets the same cap: k updates pass under a cap of k, not of k - 1
    mesh = Mesh(m)
    op = elliptic.PcgOperator(1e3 * mixed_sign_coefficient(m), mesh)
    b = default_source(*mesh.grids())
    x0 = None
    if warm:
        x0, b = op.solve(b), b + 1e-3 * normals(60 + m, m * m).reshape(m, m)
    _, k = textbook_pcg(op, b, x0, elliptic._PCG_RTOL, elliptic._PCG_MAX_ITER)
    for cap in (elliptic._PCG_MAX_ITER, k, k - 1):
        monkeypatch.setattr(elliptic, "_PCG_MAX_ITER", cap)
        want, _ = textbook_pcg(op, b, x0, elliptic._PCG_RTOL, cap)
        got = op.solve(b, x0=x0)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.all(np.isfinite(got)) == (cap >= k)


def test_zero_rhs_gives_a_fresh_zero_grid():
    mesh = Mesh(5)
    op = elliptic.PcgOperator(np.ones((5, 5)), mesh)
    b = np.zeros((5, 5))
    for x0 in (None, np.ones((5, 5))):
        x = op.solve(b, x0=x0)
        assert np.array_equal(x, b) and not np.shares_memory(x, b)


def test_warm_solve_leaves_its_start_unchanged():
    mesh = Mesh(9)
    c = np.abs(normals(61, 81)).reshape(9, 9)
    op = elliptic.PcgOperator(c, mesh)
    b = normals(62, 81).reshape(9, 9)
    x0 = normals(63, 81).reshape(9, 9)
    kept = x0.copy()
    x = op.solve(b, x0=x0)
    assert np.array_equal(x0, kept) and not np.shares_memory(x, x0)
    want = elliptic.factorize(c, mesh).solve(b.ravel()).reshape(9, 9)
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rhs_is_nan_without_a_product(monkeypatch, bad):
    mesh = Mesh(6)
    op = elliptic.PcgOperator(np.ones((6, 6)), mesh)
    calls = []

    def counting(name):
        real = getattr(op, name)

        def wrapper(x):
            calls.append(name)
            return real(x)
        return wrapper

    for name in ("matvec", "precondition"):
        monkeypatch.setattr(op, name, counting(name))
    b = np.ones((6, 6))
    b[2, 3] = bad
    for x0 in (None, np.ones((6, 6))):
        assert np.all(np.isnan(op.solve(b, x0=x0)))
    assert calls == []
    assert np.all(np.isfinite(op.solve(np.ones((6, 6)))))
    assert "matvec" in calls and "precondition" in calls  # the counters count


def test_warm_started_state_equals_a_cold_started_one(monkeypatch):
    mesh, f, g, c_true = default_problem(20)
    prob = EllipticProblem(mesh, f, g, np.zeros((20, 20)))
    c = np.abs(normals(90, 400)).reshape(20, 20)
    prob.apply(0, c_true)
    warm = prob.apply(0, c)  # starts from u(c_true)
    cold = EllipticProblem(mesh, f, g, np.zeros((20, 20))).apply(0, c)
    assert np.linalg.norm(warm - cold) <= 1e-12 * np.linalg.norm(cold)
    # a zero right-hand side gives zero whatever the start
    op = elliptic.PcgOperator(c, mesh)
    assert np.array_equal(op.solve(np.zeros((20, 20)), x0=warm), np.zeros((20, 20)))
    # the warm start is taken: a nearby coefficient converges within a cap
    # that a solve from zero does not meet
    near = c * (1.0 + 1e-6)
    monkeypatch.setattr(elliptic, "_PCG_MAX_ITER", 3)
    assert np.all(np.isfinite(prob.apply(0, near)))
    assert np.all(np.isnan(EllipticProblem(mesh, f, g, np.zeros((20, 20))).apply(0, near)))


def test_a_solve_past_the_iteration_cap_is_nan(monkeypatch):
    mesh, f, g, _ = default_problem(12)
    prob = EllipticProblem(mesh, f, g, np.zeros((12, 12)))
    rough = 1e4 * np.abs(normals(95, 144)).reshape(12, 12)
    monkeypatch.setattr(elliptic, "_PCG_MAX_ITER", 1)
    assert np.all(np.isnan(prob.apply(0, rough)))
    assert np.all(np.isnan(prob.adjoint(0, rough, np.ones((12, 12)))))
    monkeypatch.undo()
    # a failed state is no warm start: the next coefficient solves as from cold
    c = np.ones((12, 12))
    cold = EllipticProblem(mesh, f, g, np.zeros((12, 12))).apply(0, c)
    assert np.linalg.norm(prob.apply(0, c) - cold) <= 1e-12 * np.linalg.norm(cold)


def test_cli_run_stops_non_finite_when_pcg_hits_its_cap(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(elliptic, "_PCG_MAX_ITER", 1)
    cfg_path = tmp_path / "pde.cfg"
    cfg_path.write_text("problem = pde\npde_m = 12\nnoise_rel = 0.01\nn_max = 5\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    out, err = capsys.readouterr()
    assert "terminated_by=non-finite" in out and "non-finite" in err
    assert "Traceback" not in err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["terminated_by"] == "non-finite"
