"""End-to-end acceptance runs; one verdict line per criterion (visible with -s)."""

import dataclasses
import time

import numpy as np
import pytest

from lkreg.elliptic import (
    EllipticProblem,
    Mesh,
    default_problem,
    solve_state,
)
from lkreg.engine import SolverConfig, run, validate_config
from lkreg.pdhg import DenoiseProblem
from lkreg.penalty import (
    NonnegativityConstraint,
    PrimalDualPair,
    QuadraticPenalty,
    TotalVariationPenalty,
    check_eps_subgradient,
)
from lkreg.rng import normals, uniforms
from lkreg.tomo import (
    TomoGeometry,
    TomoProblem,
    add_relative_gaussian_noise,
    build_parallel_tomo,
    evenly_spaced_angles,
    shepp_logan,
)
from lkreg.tv import discrete_gradient, divergence_adjoint, field_dot

from conftest import (
    elliptic_derivative,
    manufactured_error,
    rand_field,
    solve_with_histories,
    tiny_linear_problem,
)


def verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {label}: {status}{suffix}")
    assert ok, f"criterion {num} ({label}) failed{suffix}"


def ct_config(n_max):
    return SolverConfig(
        p=2.0, s=2.0, beta0=0.1, beta1=10.0, sigma=1e-3, tau=1.01,
        alpha=5.0, eta0=1.0, gap_exponent=2.2, n_max=n_max,
    )


def timed_run(problem, pen, cfg, mode, truth):
    started = time.perf_counter()
    pair, trace = run(problem, pen, dataclasses.replace(cfg, mode=mode), truth=truth)
    return pair, trace, time.perf_counter() - started


@pytest.fixture(scope="module")
def ct32():
    geom = TomoGeometry(q=32, angles=evenly_spaced_angles(20))
    matrix = build_parallel_tomo(geom)
    truth = shepp_logan(32)
    problem = TomoProblem(matrix, matrix @ truth.ravel(), geom)
    pen = TotalVariationPenalty(mu=1.0, constraint=NonnegativityConstraint())
    pair, trace, seconds = timed_run(problem, pen, ct_config(200), "plain", truth)
    return {"trace": trace, "seconds": seconds}


@pytest.fixture(scope="module")
def ct64():
    geom = TomoGeometry(q=64, angles=evenly_spaced_angles(30, step=6.0))
    matrix = build_parallel_tomo(geom)
    truth = shepp_logan(64)
    clean = matrix @ truth.ravel()
    noisy, delta_abs = add_relative_gaussian_noise(clean, 0.01, seed=1)
    pen = TotalVariationPenalty(mu=1.0, constraint=NonnegativityConstraint())
    out = {"delta_abs": delta_abs, "sigma": 1e-3, "tau": 1.01}
    noisy_problem = TomoProblem(matrix, noisy, geom)
    noisy_problem.noise_level = delta_abs
    for mode in ("plain", "accelerated"):
        out["noisy_" + mode] = timed_run(noisy_problem, pen, ct_config(5000), mode, truth)
    exact_problem = TomoProblem(matrix, clean, geom)
    for mode in ("plain", "accelerated"):
        out["exact_" + mode] = timed_run(
            exact_problem, pen, ct_config(400), mode, truth
        )
    return out


@pytest.fixture(scope="module")
def pde40():
    mesh, f, g, c_true = default_problem(40)
    problem = EllipticProblem(mesh, f, g, solve_state(c_true, mesh, f, g))
    pen = TotalVariationPenalty(mu=20.0)
    cfg = SolverConfig(
        p=2.0, s=2.0, beta0=5e-4, beta1=2e4, sigma=1e-3, tau=1.02,
        alpha=5.0, eta0=1.0, gap_exponent=1.5, n_max=100,
    )
    pair, trace, seconds = timed_run(problem, pen, cfg, "plain", c_true)
    return {"trace": trace, "seconds": seconds}


def test_criterion_01_adjoint_identities():
    started = time.perf_counter()
    worst_ops = 0.0
    geom = TomoGeometry(q=16, angles=evenly_spaced_angles(8, start=3.0))
    ct = TomoProblem(build_parallel_tomo(geom), np.zeros(geom.n_rows), geom)
    for trial in range(100):
        h = normals(2000 + trial, 256).reshape(16, 16)
        w = normals(3000 + trial, geom.n_rows)
        lhs = float(ct.apply(0, h) @ w)
        rhs = float(np.vdot(h, ct.adjoint(0, h, w)))
        worst_ops = max(worst_ops, abs(lhs - rhs) / (1.0 + abs(lhs)))
    mesh, f, g, c_true = default_problem(10)
    pde = EllipticProblem(mesh, f, g, solve_state(c_true, mesh, f, g))
    for trial in range(100):
        c = np.abs(normals(4000 + trial // 10, 100)).reshape(10, 10)
        h = normals(5000 + trial, 100).reshape(10, 10)
        w = normals(6000 + trial, 100).reshape(10, 10)
        lhs = float(np.vdot(elliptic_derivative(pde, c, h), w))
        rhs = float(np.vdot(h, pde.adjoint(0, c, w)))
        worst_ops = max(worst_ops, abs(lhs - rhs) / (1.0 + abs(lhs)))
    worst_grad = 0.0
    shapes = ((16, 16), (5, 7), (1, 9), (11, 3))
    for trial in range(100):
        shape = shapes[trial % len(shapes)]
        x = normals(7000 + trial, shape[0] * shape[1]).reshape(shape)
        w = rand_field(8000 + trial, shape)
        lhs = field_dot(discrete_gradient(x), w)
        rhs = float(np.vdot(x, divergence_adjoint(w)))
        worst_grad = max(worst_grad, abs(lhs - rhs) / (1.0 + abs(lhs)))
    seconds = time.perf_counter() - started
    ok = worst_ops <= 1e-9 and worst_grad <= 1e-12 and seconds < 10.0
    verdict(1, "adjoint identities", ok,
            f"operators {worst_ops:.2e}, gradient {worst_grad:.2e}, {seconds:.1f}s")


def test_criterion_02_inner_solver_certificates():
    started = time.perf_counter()
    mus = 10.0 ** (2.0 * uniforms(97, 50) - 1.0)
    ok = True
    worst_gap = 0.0
    max_iters = 0
    for i, mu in enumerate(mus):
        xi = normals(1000 + i, 64).reshape(8, 8)
        constraint = NonnegativityConstraint() if i % 2 == 0 else None
        prob = DenoiseProblem(xi=xi, mu=float(mu), constraint=constraint)
        rep, p_hist, d_hist = solve_with_histories(prob, eta=1e-6, max_iter=5000)
        ok = ok and rep.converged and rep.iterations <= 5000
        worst_gap = max(worst_gap, rep.gap_rel)
        max_iters = max(max_iters, rep.iterations)
        for p_val, d_val in zip(p_hist, d_hist):
            ok = ok and d_val <= p_val + 1e-10 * (1.0 + abs(p_val))
        pen = TotalVariationPenalty(mu=float(mu), constraint=constraint)
        pair = PrimalDualPair(x=rep.x, xi=xi, eps=rep.eps_certificate)
        bound = rep.dual_value - float(mu) * float(np.vdot(xi, xi)) / 2.0
        ok = ok and check_eps_subgradient(pair, pen, bound)
    seconds = time.perf_counter() - started
    ok = ok and seconds < 60.0
    verdict(2, "inner solver certificates", ok,
            f"worst gap {worst_gap:.2e}, max iters {max_iters}, {seconds:.1f}s")


def test_criterion_03_bregman_descent(ct32):
    recs = ct32["trace"].records
    worst = -np.inf
    for prev, cur in zip(recs, recs[1:]):
        slack = 2.0 * prev.eps_n + cur.eps_n + 1e-6 * (1.0 + prev.bregman_to_truth)
        worst = max(worst, cur.bregman_to_truth - prev.bregman_to_truth - slack)
    ok = worst <= 0.0 and ct32["seconds"] < 300.0
    verdict(3, "bregman descent", ok,
            f"worst excess {worst:.3e}, {ct32['seconds']:.1f}s")


def test_criterion_04_residual_reduction(ct32):
    recs = ct32["trace"].records
    ratio = recs[-1].residual_norm / recs[0].residual_norm
    ok = len(recs) == 201 and ratio <= 0.2
    verdict(4, "residual reduction", ok, f"ratio {ratio:.4f}")


def test_criterion_05_discrepancy_stop(ct64):
    _, trace, seconds = ct64["noisy_plain"]
    last = trace.records[-1]
    lhs = last.residual_norm ** 2 + ct64["sigma"] * last.eps_n
    rhs = (ct64["tau"] * ct64["delta_abs"]) ** 2
    ok = (
        trace.terminated_by == "discrepancy"
        and trace.n_final < 5000
        and lhs <= rhs
        and seconds < 600.0
    )
    verdict(5, "discrepancy principle stop", ok,
            f"n {trace.n_final}, test {lhs:.4f} <= {rhs:.4f}, {seconds:.1f}s")


def test_criterion_06_acceleration(ct64):
    _, plain_trace, _ = ct64["noisy_plain"]
    _, accel_trace, _ = ct64["noisy_accelerated"]
    ratio = accel_trace.n_final / plain_trace.n_final
    _, plain_exact, _ = ct64["exact_plain"]
    _, accel_exact, _ = ct64["exact_accelerated"]
    err_plain = plain_exact.records[-1].rel_error
    err_accel = accel_exact.records[-1].rel_error
    ok = (
        accel_trace.terminated_by == "discrepancy"
        and ratio <= 0.5
        and err_accel < err_plain
    )
    verdict(6, "acceleration payoff", ok,
            f"iteration ratio {ratio:.3f}, exact errors {err_accel:.4f} < {err_plain:.4f}")


def test_criterion_07_accelerated_rollout():
    problem, matrix, truth = tiny_linear_problem(77, domain_shape=(2, 5), rows=6)
    a = matrix.toarray()
    y = problem.data(0)
    mu_pen, alpha = 1.3, 5.0
    xi_prev = np.zeros(10)
    xi = np.zeros(10)
    for n in range(2):
        xhat = xi + (n / (n + alpha)) * (xi - xi_prev)
        r = a @ (mu_pen * xhat) - y
        g = a.T @ r
        step = min(0.1 * (r @ r) / (g @ g), 10.0)
        xi_prev, xi = xi, xhat - step * g
    want = (mu_pen * xi).reshape(2, 5)

    cfg = SolverConfig(p=2.0, s=2.0, beta0=0.1, beta1=10.0, sigma=1e-3,
                       tau=1.01, alpha=alpha, n_max=2, mode="accelerated")
    pair, trace = run(problem, QuadraticPenalty(mu=mu_pen), cfg)
    diff = float(np.max(np.abs(pair.x - want)))
    ok = diff <= 1e-10
    verdict(7, "accelerated two-step rollout", ok, f"max deviation {diff:.2e}")


def test_criterion_08_discretization_order():
    started = time.perf_counter()
    ratio = manufactured_error(10) / manufactured_error(21)
    mesh = Mesh(12)
    ones = np.ones((12, 12))
    drift = float(np.max(np.abs(solve_state(4.0 * ones, mesh, 4.0 * ones, 1.0) - 1.0)))
    drift = max(drift, float(np.max(np.abs(
        solve_state(0.0 * ones, mesh, 0.0 * ones, 1.0) - 1.0))))
    seconds = time.perf_counter() - started
    ok = 3.6 <= ratio <= 4.4 and drift <= 1e-10 and seconds < 30.0
    verdict(8, "discretization order", ok,
            f"error ratio {ratio:.3f}, constant drift {drift:.2e}")


def test_criterion_09_pde_error_reduction(pde40):
    recs = pde40["trace"].records
    first, last = recs[0].rel_error, recs[-1].rel_error
    ok = len(recs) == 101 and last < first and pde40["seconds"] < 900.0
    verdict(9, "coefficient error reduction", ok,
            f"rel error {first:.4f} -> {last:.4f}, {pde40['seconds']:.1f}s")


def test_criterion_10_admissibility_checks():
    base = validate_config(SolverConfig(p=2.0, s=2.0, beta0=0.1, beta1=10.0,
                                        sigma=1e-3, tau=1.01))
    ct = validate_config(ct_config(100))
    pde = validate_config(SolverConfig(p=2.0, s=2.0, beta0=5e-4, beta1=2e4,
                                       sigma=1e-3, tau=1.02, gap_exponent=1.5))
    ok = (
        base.kappa == 1.0
        and ct.step_cap_ok
        and abs(ct.kappa_beta1_sigma - 0.01) <= 1e-12
        and not pde.step_cap_ok
        and abs(pde.kappa_beta1_sigma - 20.0) <= 1e-9
        and any("exceeds 1" in w for w in pde.warnings)
    )
    verdict(10, "step size admissibility", ok,
            f"ct product {ct.kappa_beta1_sigma:g}, pde product {pde.kappa_beta1_sigma:g}")
