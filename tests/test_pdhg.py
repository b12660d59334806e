"""PDHG inner solver: values, schedule, convergence, certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lkreg.penalty import (
    BoxConstraint,
    NonnegativityConstraint,
    QuadraticPenalty,
    TotalVariationPenalty,
    check_eps_subgradient,
    PrimalDualPair,
)
from lkreg.pdhg import (
    DenoiseProblem,
    dual_value,
    inner_solver,
    pdhg_solve,
    primal_value,
    step_sizes,
)
from lkreg.tv import GradientField, project_dual_ball

from conftest import (
    rand_field,
    rand_grid,
    reference_norm,
    roll_divergence,
    roll_gradient,
    roll_projection,
    solve_with_histories,
)


def test_step_schedule_values():
    tau0, theta0 = step_sizes(0)
    assert tau0 == 0.2
    assert math.isclose(theta0, 5.0 / 6.0, rel_tol=1e-15)
    tau5, theta5 = step_sizes(5)
    assert math.isclose(tau5, 0.6, rel_tol=1e-15)
    assert math.isclose(theta5, 0.25 / 0.6, rel_tol=1e-15)


def test_step_schedule_monotone_and_bounded():
    k = np.arange(1_000_000, dtype=float)
    tau = 0.2 + 0.08 * k
    theta = (0.5 - 5.0 / (15.0 + k)) / tau
    assert np.all(np.diff(tau) > 0.0)
    assert np.all(theta > 0.0) and np.all(theta < 1.0)


def brute_primal(prob, z):
    q = z - prob.mu * prob.xi
    fid = 0.0
    tv = 0.0
    m, n = z.shape
    for i in range(m):
        for j in range(n):
            fid += q[i, j] ** 2
            du = z[(i + 1) % m, j] - z[i, j]
            dv = z[i, (j + 1) % n] - z[i, j]
            tv += math.sqrt(du * du + dv * dv)
    return fid / (2.0 * prob.mu) + tv


def test_primal_value_against_brute_force():
    prob = DenoiseProblem(xi=rand_grid(21, (4, 4)), mu=1.7)
    z = rand_grid(22, (4, 4))
    assert math.isclose(primal_value(prob, z), brute_primal(prob, z), rel_tol=1e-12)


def test_primal_value_infeasible():
    prob = DenoiseProblem(
        xi=rand_grid(23, (3, 3)), mu=1.0, constraint=NonnegativityConstraint()
    )
    assert math.isinf(primal_value(prob, np.full((3, 3), -1.0)))


def test_dual_value_zero_multiplier_unconstrained():
    prob = DenoiseProblem(xi=rand_grid(24, (5, 5)), mu=2.0)
    assert dual_value(prob, GradientField.zeros((5, 5))) == 0.0


def test_dual_value_outside_ball_is_minus_infinity():
    lam = GradientField(np.full((3, 3), 2.0), np.zeros((3, 3)))
    prob = DenoiseProblem(xi=np.zeros((3, 3)), mu=1.0)
    assert dual_value(prob, lam) == -math.inf


def test_dual_value_against_brute_force():
    mu = 1.3
    prob = DenoiseProblem(
        xi=rand_grid(25, (4, 4)), mu=mu, constraint=NonnegativityConstraint()
    )
    lam = project_dual_ball(rand_field(26, (4, 4)))
    m, n = 4, 4
    div = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            div[i, j] = (
                lam.u[(i - 1) % m, j] - lam.u[i, j] + lam.v[i, (j - 1) % n] - lam.v[i, j]
            )
    zstar = np.maximum(mu * (prob.xi - div), 0.0)
    val = 0.0
    for i in range(m):
        for j in range(n):
            val += (zstar[i, j] - mu * prob.xi[i, j]) ** 2 / (2.0 * mu)
            du = zstar[(i + 1) % m, j] - zstar[i, j]
            dv = zstar[i, (j + 1) % n] - zstar[i, j]
            val += lam.u[i, j] * du + lam.v[i, j] * dv
    assert math.isclose(dual_value(prob, lam), val, rel_tol=1e-12)


def test_weak_duality_on_random_pairs():
    for seed in range(100):
        constraint = NonnegativityConstraint() if seed % 2 else None
        prob = DenoiseProblem(
            xi=rand_grid(70_000 + seed, (5, 5)), mu=0.5 + (seed % 7), constraint=constraint
        )
        z = rand_grid(80_000 + seed, (5, 5))
        if constraint is not None:
            z = constraint.project(z)
        lam = project_dual_ball(rand_field(90_000 + seed, (5, 5)))
        p = primal_value(prob, z)
        d = dual_value(prob, lam)
        assert d <= p + 1e-10 * (1.0 + abs(p))


def test_weight_scaling_is_exact():
    # the weight-mu objective is mu times the unit-weight objective at z = mu w
    xi = rand_grid(27, (6, 6))
    w = np.abs(rand_grid(28, (6, 6)))
    lam = project_dual_ball(rand_field(29, (6, 6)))
    for mu in (0.25, 4.0, 20.0):
        for c, cs in (
            (None, None),
            (NonnegativityConstraint(), NonnegativityConstraint()),
            (BoxConstraint(-2.0, 8.0), BoxConstraint(-2.0 / mu, 8.0 / mu)),
        ):
            prob = DenoiseProblem(xi=xi, mu=mu, constraint=c)
            unit = DenoiseProblem(xi=xi, mu=1.0, constraint=cs)
            assert math.isclose(
                primal_value(prob, mu * w), mu * primal_value(unit, w), rel_tol=1e-12
            )
            assert math.isclose(
                dual_value(prob, lam), mu * dual_value(unit, lam), rel_tol=1e-12
            )


def test_solver_requires_valid_target():
    prob = DenoiseProblem(xi=np.zeros((3, 3)), mu=1.0)
    with pytest.raises(ValueError):
        pdhg_solve(prob, eta=0.0)
    with pytest.raises(ValueError):
        pdhg_solve(prob, eta=1.0)
    with pytest.raises(ValueError):
        DenoiseProblem(xi=np.zeros((2, 2)), mu=0.0)


def test_constant_data_solved_in_few_iterations():
    # constant xi: TV vanishes at the solution z = mu xi
    prob = DenoiseProblem(xi=np.full((8, 8), 0.6), mu=1.5)
    rep = pdhg_solve(prob, eta=1e-8)
    assert rep.converged and rep.iterations < 200
    assert np.allclose(rep.x, 0.9, atol=1e-4)
    # gap bounds the true suboptimality (minimum is 0 here)
    assert primal_value(prob, rep.x) <= rep.gap_abs + 1e-12


def test_report_is_consistent_in_original_variables():
    for mu in (0.2, 1.0, 5.0):
        prob = DenoiseProblem(
            xi=rand_grid(31, (8, 8)), mu=mu, constraint=NonnegativityConstraint()
        )
        rep, p_hist, d_hist = solve_with_histories(prob, eta=1e-6)
        assert rep.converged
        p = primal_value(prob, rep.x)
        d = dual_value(prob, rep.lam)
        assert abs(p - rep.primal_value) <= 1e-9 * (1.0 + abs(p))
        assert abs(d - rep.dual_value) <= 1e-9 * (1.0 + abs(d))
        assert rep.eps_certificate == max(rep.gap_abs, 0.0)
        assert rep.gap_abs >= -1e-9 * (1.0 + abs(p))
        assert len(p_hist) == len(d_hist) == rep.iterations + 1


def test_tight_solution_self_consistency():
    prob = DenoiseProblem(xi=rand_grid(32, (8, 8)), mu=1.0)
    loose = pdhg_solve(prob, eta=1e-6)
    tight = pdhg_solve(prob, eta=1e-10, max_iter=200_000)
    assert loose.converged and tight.converged
    assert np.max(np.abs(loose.x - tight.x)) <= 1e-3


def test_iteration_cap_reported_as_not_converged():
    prob = DenoiseProblem(xi=rand_grid(33, (8, 8)), mu=1.0)
    rep = pdhg_solve(prob, eta=1e-12, max_iter=3)
    assert not rep.converged and rep.iterations == 3


def test_warm_start_at_solution_is_instant():
    prob = DenoiseProblem(xi=rand_grid(34, (6, 6)), mu=1.0)
    first = pdhg_solve(prob, eta=1e-8)
    again = pdhg_solve(prob, z0=first.x, lam0=first.lam, eta=1e-6)
    assert again.converged and again.iterations == 0


def test_inner_solver_quadratic_path():
    pen = QuadraticPenalty(mu=2.0)
    xi = rand_grid(35, (4, 4))
    pair, info = inner_solver(xi, pen)
    assert info.iterations == 0 and info.converged
    assert pair.eps == 0.0
    assert np.array_equal(pair.x, 2.0 * xi)


def test_inner_solver_zero_point():
    pen = TotalVariationPenalty(mu=1.0, constraint=NonnegativityConstraint())
    pair, info = inner_solver(np.zeros((5, 5)), pen, gap_target=1e-6)
    assert info.converged
    assert not np.any(pair.x) and pair.eps <= 1e-12


def test_inner_solver_requires_target_for_tv():
    pen = TotalVariationPenalty(mu=1.0)
    with pytest.raises(ValueError):
        inner_solver(np.ones((3, 3)), pen)

    class Odd:
        kind = "other"

    with pytest.raises(ValueError):
        inner_solver(np.ones((3, 3)), Odd())


def test_nan_gap_certifies_nothing():
    pen = TotalVariationPenalty(mu=2.0, constraint=NonnegativityConstraint())
    with np.errstate(invalid="ignore"):
        pair, info = inner_solver(np.full((4, 4), np.nan), pen, gap_target=1e-3)
    assert pair.eps == math.inf and info.report.eps_certificate == math.inf


def test_inner_certificate_within_relative_gap_budget():
    # converged solve at gap eta: eps <= 2 eta / (1 - eta) * Psi_P(x)
    eta = 1e-4
    pen = TotalVariationPenalty(mu=1.0, constraint=NonnegativityConstraint())
    xi = rand_grid(36, (8, 8))
    pair, info = inner_solver(xi, pen, gap_target=eta)
    assert info.converged
    p = primal_value(DenoiseProblem(xi=xi, mu=1.0, constraint=pen.constraint), pair.x)
    assert pair.eps <= 2.0 * eta / (1.0 - eta) * p


def test_inner_pair_passes_its_own_certificate():
    pen = TotalVariationPenalty(mu=2.5)
    xi = rand_grid(37, (6, 6))
    pair, info = inner_solver(xi, pen, gap_target=1e-7)
    assert info.converged
    bound = info.report.dual_value - pen.mu * float(np.vdot(xi, xi)) / 2.0
    assert check_eps_subgradient(pair, pen, bound)
    off = PrimalDualPair(x=pair.x + 1.0, xi=pair.xi, eps=pair.eps)
    assert not check_eps_subgradient(off, pen, bound)


def oracle_pdhg(prob, z0=None, lam0=None, eta=1e-6, max_iter=5000):
    """The solver loop as first written, over the np.roll reference primitives.

    Every iterate is a fresh array and the primal value differentiates z
    again; the dual value's linear term is <div_lam, z*>, as in the solver.
    Returns (x, lam, iterations, primal_history, dual_history).
    """
    mu, xi, c = prob.mu, prob.xi, prob.constraint
    if mu != 1.0:
        unit = DenoiseProblem(xi=xi, mu=1.0, constraint=None if c is None else c.scaled(1.0 / mu))
        w0 = None if z0 is None else np.asarray(z0, dtype=float) / mu
        x, lam, iters, p_hist, d_hist = oracle_pdhg(unit, w0, lam0, eta, max_iter)
        return mu * x, lam, iters, [mu * v for v in p_hist], [mu * v for v in d_hist]

    def primal(z):
        if c is not None and not c.contains(z):
            return math.inf
        d = z - mu * xi
        g = roll_gradient(z)
        return float(np.vdot(d, d)) / (2.0 * mu) + float(np.sum(reference_norm(g)))

    def dual(lam, div_lam):
        zstar = mu * (xi - div_lam)
        if c is not None:
            zstar = c.project(zstar)
        d = zstar - mu * xi
        return float(np.vdot(d, d)) / (2.0 * mu) + float(np.vdot(div_lam, zstar))

    def rel_gap(gap, p_val, d_val):
        if gap <= gap_floor:
            return 0.0
        denom = abs(p_val) + abs(d_val)
        return gap / denom if denom > 0.0 else 0.0

    z = np.zeros_like(xi) if z0 is None else np.array(z0, dtype=float, copy=True)
    if c is not None:
        z = c.project(z)
    lam = GradientField.zeros(z.shape) if lam0 is None else roll_projection(lam0)
    gap_floor = 16.0 * np.finfo(float).eps * (1.0 + 0.5 * mu * float(np.vdot(xi, xi)))
    p_val, d_val = primal(z), dual(lam, roll_divergence(lam))
    p_hist, d_hist = [p_val], [d_val]
    best = (p_val - d_val, z, lam)
    iters = 0
    converged = rel_gap(p_val - d_val, p_val, d_val) <= eta
    while not converged and iters < max_iter:
        tau, theta = step_sizes(iters)
        grad_z = roll_gradient(z)
        lam = roll_projection(
            GradientField(lam.u + mu * tau * grad_z.u, lam.v + mu * tau * grad_z.v)
        )
        div_lam = roll_divergence(lam)
        z = (1.0 - theta) * z + mu * theta * (xi - div_lam)
        if c is not None:
            z = c.project(z)
        iters += 1
        p_val, d_val = primal(z), dual(lam, div_lam)
        p_hist.append(p_val)
        d_hist.append(d_val)
        if p_val - d_val < best[0]:
            best = (p_val - d_val, z, lam)
        converged = rel_gap(p_val - d_val, p_val, d_val) <= eta
    return best[1], best[2], iters, p_hist, d_hist


def solve_like_the_oracle(prob, **kwargs):
    """Solve, assert the report and every iterate's values equal the oracle's.

    Returns (report, primal values, dual values).
    """
    rep, got_p, got_d = solve_with_histories(prob, **kwargs)
    x, lam, iters, p_hist, d_hist = oracle_pdhg(prob, **kwargs)
    assert np.array_equal(rep.x, x)
    assert np.array_equal(rep.lam.u, lam.u) and np.array_equal(rep.lam.v, lam.v)
    assert rep.iterations == iters
    assert got_p == p_hist and got_d == d_hist
    return rep, got_p, got_d


@pytest.mark.parametrize("mu", [1.0, 20.0])
@pytest.mark.parametrize(
    "constraint", [None, NonnegativityConstraint(), BoxConstraint(-0.5, 2.0)],
    ids=["none", "nonneg", "box"],
)
def test_solver_reproduces_reference_loop_exactly(mu, constraint):
    xi = rand_grid(40, (12, 9))
    prob = DenoiseProblem(xi=xi, mu=mu, constraint=constraint)
    cold, _, _ = solve_like_the_oracle(prob, eta=1e-7)
    # warm start at a moved xi, as the outer iteration does
    moved = DenoiseProblem(xi=xi + 0.5 * rand_grid(41, (12, 9)), mu=mu, constraint=constraint)
    solve_like_the_oracle(moved, z0=cold.x, lam0=cold.lam, eta=1e-7)
    # a capped run whose best iterate is not the last
    capped, p_hist, d_hist = solve_like_the_oracle(
        moved, z0=cold.x, lam0=cold.lam, eta=1e-12, max_iter=82
    )
    gaps = np.subtract(p_hist, d_hist)
    assert not capped.converged and gaps[-1] > gaps.min()


@pytest.mark.parametrize("mu", [1.0, 20.0])
def test_reports_own_their_arrays(mu):
    constraint = NonnegativityConstraint()
    prob = DenoiseProblem(xi=rand_grid(42, (10, 10)), mu=mu, constraint=constraint)
    first = pdhg_solve(prob, eta=1e-6)
    kept = [a.copy() for a in (first.x, first.lam.u, first.lam.v)]
    moved = DenoiseProblem(xi=prob.xi + rand_grid(43, (10, 10)), mu=mu, constraint=constraint)
    second = pdhg_solve(moved, z0=first.x, lam0=first.lam, eta=1e-8)
    assert second.iterations > 0
    for old, saved in zip((first.x, first.lam.u, first.lam.v), kept):
        assert np.array_equal(old, saved)
        for new in (second.x, second.lam.u, second.lam.v, moved.xi):
            assert not np.shares_memory(old, new)
    assert not np.shares_memory(second.x, moved.xi)
    assert not np.shares_memory(second.lam.u, second.lam.v)


@pytest.mark.parametrize("mu", [1.0, 2.0])
def test_nan_xi_stops_unconverged(mu):
    prob = DenoiseProblem(xi=np.full((4, 4), np.nan), mu=mu, constraint=NonnegativityConstraint())
    with np.errstate(invalid="ignore"):
        report = pdhg_solve(prob, eta=1e-3, max_iter=50)
    assert report.converged is False
    assert report.iterations == 0
    assert report.eps_certificate == math.inf


def test_nan_inner_solve_ends_the_run_non_finite(monkeypatch):
    from lkreg import engine
    from lkreg.engine import SolverConfig, run

    from conftest import tiny_linear_problem

    problem, _, _ = tiny_linear_problem(214)
    k = 3
    real_inner_solver = engine.inner_solver
    infos = []

    def nan_at_step_k(xi, penalty, **kw):
        if len(infos) == k:
            xi = np.full_like(xi, np.nan)
        pair, info = real_inner_solver(xi, penalty, **kw)
        infos.append(info)
        return pair, info

    monkeypatch.setattr(engine, "inner_solver", nan_at_step_k)
    pen = TotalVariationPenalty(mu=1.0, constraint=NonnegativityConstraint())
    cfg = SolverConfig(beta0=0.1, beta1=10.0, sigma=1e-3, tau=1.01, n_max=50)
    with np.errstate(invalid="ignore"):
        _, trace = run(problem, pen, cfg, mode="plain")
    assert not infos[k].converged  # an unconverged solve whose certificate is inf
    assert trace.terminated_by == "non-finite" and trace.n_final == k


@pytest.mark.parametrize("mu,eta,max_iter", [(1.0, 1e-4, 5000), (2.5, 1e-4, 5000), (1.0, 1e-12, 4)])
def test_each_iterate_is_evaluated_once(monkeypatch, mu, eta, max_iter):
    from lkreg import pdhg

    calls = {"gradient": 0, "primal": 0, "dual": 0, "primal_value": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pdhg, "discrete_gradient", counting("gradient", pdhg.discrete_gradient))
    monkeypatch.setattr(pdhg, "_primal_value_at", counting("primal", pdhg._primal_value_at))
    monkeypatch.setattr(pdhg, "_dual_value_at", counting("dual", pdhg._dual_value_at))
    monkeypatch.setattr(pdhg, "primal_value", counting("primal_value", pdhg.primal_value))
    prob = DenoiseProblem(xi=rand_grid(41, (8, 8)), mu=mu, constraint=NonnegativityConstraint())
    report = pdhg_solve(prob, z0=np.ones((8, 8)), eta=eta, max_iter=max_iter)
    assert report.iterations > 0 and report.converged == (max_iter == 5000)
    assert calls["primal"] == calls["dual"] == calls["gradient"] == report.iterations + 1
    assert calls["primal_value"] == 0


_mus = st.floats(0.05, 50.0)
_constraints = st.sampled_from([None, NonnegativityConstraint(), BoxConstraint(-0.5, 2.0)])


@st.composite
def denoise_case(draw):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6))
    entries = st.floats(-5.0, 5.0)
    xi, z, u, v = (draw(hnp.arrays(np.float64, shape, elements=entries)) for _ in range(4))
    prob = DenoiseProblem(xi=xi, mu=draw(_mus), constraint=draw(_constraints))
    return prob, z, GradientField(u, v)


@settings(max_examples=60, deadline=None)
@given(denoise_case())
def test_weak_duality_property(case):
    prob, z, lam = case
    if prob.constraint is not None:
        z = prob.constraint.project(z)
    lam = project_dual_ball(lam)
    p_val, d_val = primal_value(prob, z), dual_value(prob, lam)
    assert math.isfinite(p_val) and math.isfinite(d_val)
    assert d_val <= p_val + 1e-12 * (1.0 + abs(p_val) + abs(d_val))


@settings(max_examples=25, deadline=None)
@given(denoise_case())
def test_pdhg_certificate_passes_the_subgradient_check_property(case):
    prob, z0, _ = case
    if prob.constraint is not None:
        z0 = prob.constraint.project(z0)
    report = pdhg_solve(prob, z0=z0, eta=1e-4, max_iter=300)
    assert math.isfinite(report.eps_certificate) and report.eps_certificate >= 0.0
    pen = TotalVariationPenalty(mu=prob.mu, constraint=prob.constraint)
    pair = PrimalDualPair(x=report.x, xi=prob.xi, eps=report.eps_certificate)
    bound = report.dual_value - prob.mu * float(np.vdot(prob.xi, prob.xi)) / 2.0
    assert check_eps_subgradient(pair, pen, bound)


@settings(max_examples=100, deadline=None)
@given(denoise_case())
def test_dual_value_equals_its_gradient_form_property(case):
    # <div_lam, z*> in place of <lam, grad z*>: the same Lagrangian value.
    # Both linear terms weigh each entry of z* by at most four entries of
    # lam, all of length <= 1, so they round relative to sum |z*|.
    prob, _, lam = case
    lam = project_dual_ball(lam)
    zstar = prob.mu * (prob.xi - roll_divergence(lam))
    if prob.constraint is not None:
        zstar = prob.constraint.project(zstar)
    d = zstar - prob.mu * prob.xi
    g = roll_gradient(zstar)
    quadratic = float(np.vdot(d, d)) / (2.0 * prob.mu)
    want = quadratic + float(np.vdot(lam.u, g.u) + np.vdot(lam.v, g.v))
    scale = quadratic + float(np.sum(np.abs(zstar)))
    assert abs(dual_value(prob, lam) - want) <= 1e-12 * scale


@pytest.mark.parametrize("mu", [1.0, 20.0])
def test_one_gradient_per_iteration(mu, monkeypatch):
    import lkreg.pdhg as pdhg

    calls = {"gradient": 0, "field_dot": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pdhg, "discrete_gradient", counted("gradient", pdhg.discrete_gradient))
    monkeypatch.setattr(pdhg, "field_dot", counted("field_dot", pdhg.field_dot))
    prob = DenoiseProblem(xi=rand_grid(44, (9, 7)), mu=mu, constraint=NonnegativityConstraint())
    report = pdhg_solve(prob, eta=1e-7)
    assert report.iterations > 10
    assert calls == {"gradient": report.iterations + 1, "field_dot": 0}
