"""PDHG inner solver: values, schedule, convergence, certificates."""

import dataclasses
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lkreg.penalty import (
    NonnegativityConstraint,
    QuadraticPenalty,
    TotalVariationPenalty,
    check_eps_subgradient,
    PrimalDualPair,
)
from lkreg.pdhg import (
    _GAP_STRIDE,
    DenoiseProblem,
    InnerInfo,
    PdhgReport,
    _constant_regime_field,
    dual_value,
    inner_solver,
    pdhg_solve,
    primal_value,
    step_sizes,
)
from lkreg.rng import normals
from lkreg.tomo import TomoGeometry
from lkreg.tv import divergence_adjoint, pointwise_norm, project_dual_ball

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
    assert dual_value(prob, np.zeros((2, 5, 5))) == 0.0


def test_dual_value_outside_ball_is_minus_infinity():
    lam = np.array((np.full((3, 3), 2.0), np.zeros((3, 3))))
    prob = DenoiseProblem(xi=np.zeros((3, 3)), mu=1.0)
    assert dual_value(prob, lam) == -math.inf


def test_dual_value_with_a_nan_entry_is_minus_infinity():
    prob = DenoiseProblem(xi=np.zeros((3, 3)), mu=1.0)
    lam = np.zeros((2, 3, 3))
    lam[0, 0, 1] = np.nan
    assert dual_value(prob, lam) == -math.inf
    lam[1, 2, 2] = 5.0  # np.max returns the nan, not this length
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
                lam[0][(i - 1) % m, j] - lam[0][i, j] + lam[1][i, (j - 1) % n] - lam[1][i, j]
            )
    zstar = np.maximum(mu * (prob.xi - div), 0.0)
    val = 0.0
    for i in range(m):
        for j in range(n):
            val += (zstar[i, j] - mu * prob.xi[i, j]) ** 2 / (2.0 * mu)
            du = zstar[(i + 1) % m, j] - zstar[i, j]
            dv = zstar[i, (j + 1) % n] - zstar[i, j]
            val += lam[0][i, j] * du + lam[1][i, j] * dv
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


def test_a_dual_field_just_past_the_balls_gives_no_lower_bound():
    # a tight solve leaves lam at the balls' rims; 9e-13 past them, a slack of
    # 1e-12 would let the dual value exceed the primal value by 5.6e-11
    prob = DenoiseProblem(xi=3.0 * np.random.default_rng(3).standard_normal((6, 6)), mu=1.0)
    report = pdhg_solve(prob, eta=1e-13)
    assert report.converged
    past = dual_value(prob, report.lam * (1.0 + 9e-13))
    assert past <= primal_value(prob, report.x)
    assert past == -math.inf


def test_weight_scaling_is_exact():
    # the weight-mu objective is mu times the unit-weight objective at z = mu w
    xi = rand_grid(27, (6, 6))
    w = np.abs(rand_grid(28, (6, 6)))
    lam = project_dual_ball(rand_field(29, (6, 6)))
    for mu in (0.25, 4.0, 20.0):
        for c, cs in (
            (None, None),
            (NonnegativityConstraint(), NonnegativityConstraint()),
        ):
            prob = DenoiseProblem(xi=xi, mu=mu, constraint=c)
            unit = DenoiseProblem(xi=xi, mu=1.0, constraint=cs)
            assert math.isclose(
                primal_value(prob, mu * w), mu * primal_value(unit, w), rel_tol=1e-12
            )
            assert math.isclose(
                dual_value(prob, lam), mu * dual_value(unit, lam), rel_tol=1e-12
            )


def test_an_overflowing_rounding_floor_closes_no_gap():
    # ||xi||^2 overflows, and so would a floor scaled by it
    xi = 3e153 * normals(1, 64).reshape(8, 8)
    with np.errstate(over="ignore"):
        rep = pdhg_solve(DenoiseProblem(xi=xi, mu=1.0), z0=xi, eta=1e-6)
    assert not rep.converged and rep.gap_rel != 0.0


def test_an_infinite_gap_stops_the_solve_within_the_stride():
    # the primal value overflows at iterate 0: a gap of inf certifies nothing
    xi = 3e153 * normals(1, 64).reshape(8, 8)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = pdhg_solve(DenoiseProblem(xi=xi, mu=1.0), z0=xi, eta=1e-6)
    assert rep.iterations < _GAP_STRIDE
    assert rep.eps_certificate == math.inf and rep.converged is False


def test_an_overflowing_dual_value_mid_solve_certifies_nothing():
    # a certified dual value of +inf makes the gap -inf, which must neither
    # close the solve nor displace the best earlier certified pair; the 2nd
    # certificate ends the float32 search, the 3rd is the first check of the
    # float64 loop that a certificate missing 1e-7 goes on with
    from lkreg import pdhg

    real = pdhg._dual_value_at
    prob = DenoiseProblem(xi=rand_grid(52, (7, 7)), mu=2.0)
    for eta, certificate in ((1e-3, 2), (1e-7, 3)):
        certificates, estimates = [], []

        def inf_at_a_certificate(*args, **kwargs):
            value = real(*args, **kwargs)
            if args[1].dtype == np.float32:
                estimates.append(value)
                return value
            certificates.append(value)
            return math.inf if len(certificates) == certificate else value

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pdhg, "_dual_value_at", inf_at_a_certificate)
            rep = pdhg_solve(prob, eta=eta, max_iter=5000)
        assert rep.iterations == _GAP_STRIDE * (len(estimates) + certificate - 2)
        assert rep.converged is False and len(certificates) == certificate
        assert math.isfinite(rep.gap_abs) and rep.eps_certificate == max(rep.gap_abs, 0.0)
        gap = primal_value(prob, rep.x) - dual_value(prob, rep.lam)
        assert abs(rep.gap_abs - gap) <= 1e-12 * (1.0 + abs(rep.primal_value) + abs(rep.dual_value))


def test_solver_requires_valid_target():
    prob = DenoiseProblem(xi=np.zeros((3, 3)), mu=1.0)
    with pytest.raises(ValueError):
        pdhg_solve(prob, eta=0.0)
    with pytest.raises(ValueError):
        pdhg_solve(prob, eta=1.0)
    with pytest.raises(ValueError):
        DenoiseProblem(xi=np.zeros((2, 2)), mu=0.0)
    # TV's gradient is taken on a 2-D grid only
    for shape in ((5,), (2, 3, 4), ()):
        with pytest.raises(ValueError, match="2-D grid"):
            DenoiseProblem(xi=np.zeros(shape), mu=1.0)


@pytest.mark.parametrize("shape", [(4, 5), (2, 5, 4), (3, 4, 5), (2, 4, 5, 1), (1, 4, 5),
                                   (5,), (1, 5), ()])
def test_a_mis_shaped_dual_start_is_refused(shape):
    # np.copyto would broadcast an (n0, n1) grid into both halves of the field,
    # and np.divide a row or a scalar over the whole primal start
    prob = DenoiseProblem(xi=rand_grid(27, (4, 5)), mu=1.0)
    with pytest.raises(ValueError, match="lam0"):
        pdhg_solve(prob, lam0=np.zeros(shape))
    if shape != (4, 5):
        with pytest.raises(ValueError, match="z0"):
            pdhg_solve(prob, z0=np.zeros(shape))
    rep = pdhg_solve(prob, lam0=np.zeros((2, 4, 5)), max_iter=8)
    assert rep.lam.shape == (2, 4, 5)


def _pair(x, lam=None):
    """A start pair: x and lam as given, xi zeros of x's shape (the solver reads only x and lam)."""
    return PrimalDualPair(x=x, xi=np.zeros(np.shape(x)), eps=0.0, lam=lam)


def _start(x=(4, 5), lam=(2, 4, 5)):
    """A start pair of zeros, its x and lam of the given shapes; x=None gives an x of None."""
    return _pair(None if x is None else np.zeros(x), None if lam is None else np.zeros(lam))


# the ids name the last pair "warm" and the one before it "prev"; each case
# gives the shapes of its starts, built inside the test, since a pair
# refuses an x of None or a mis-shaped lam itself, before `inner_solver` sees it
@pytest.mark.parametrize("scale", [1.0, 10.0], ids=["closed-form", "pdhg"])
@pytest.mark.parametrize("starts, message", [
    ({"last": {"x": 5, "lam": (2, 5)}}, "last.x has shape (5,)"),
    ({"last": {"lam": 3}}, "lam has shape (3,)"),
    ({"last": {"lam": (4, 5)}}, "lam has shape (4, 5)"),
    ({"before": {"x": 5, "lam": None}}, "before.x has shape (5,)"),
    ({"before": {"lam": (2, 5, 4)}}, "lam has shape (2, 5, 4)"),
    ({"before": {"x": None, "lam": None}}, "must be arrays of one shape"),
], ids=["warm-pair-flat", "warm_lam-flat", "warm_lam-grid", "prev_x-flat", "prev_lam-transposed",
        "prev_x-none"])
def test_a_mis_shaped_warm_start_is_refused_before_the_closed_form(starts, message, scale):
    # at scale 1 the closed form certifies xi and would drop the starts unchecked
    xi = scale * np.random.default_rng(1).standard_normal((4, 5))
    shapes = {"last": {}, "before": {}, **starts}
    with pytest.raises(ValueError, match=re.escape(message)):
        kwargs = {name: _start(**spec) for name, spec in shapes.items()}
        inner_solver(xi, TotalVariationPenalty(mu=1.0), gap_target=0.1, **kwargs)


@pytest.mark.parametrize("name", ["last", "before"])
def test_a_start_that_is_not_a_pair_is_refused(name):
    # the closed form certifies this xi and would drop the starts unchecked
    xi = np.random.default_rng(1).standard_normal((4, 5))
    kwargs = {"last": _start(), "before": _start(),
              name: SimpleNamespace(x=np.zeros((4, 5)), lam=np.zeros((2, 4, 5)))}
    with pytest.raises(TypeError, match=f"{name} must be a PrimalDualPair, not SimpleNamespace"):
        inner_solver(xi, TotalVariationPenalty(mu=1.0), gap_target=0.1, **kwargs)


def test_a_before_pair_without_a_last_pair_is_refused():
    with pytest.raises(ValueError, match="needs a `last` pair"):
        inner_solver(rand_grid(29, (4, 5)), TotalVariationPenalty(mu=1.0), gap_target=0.1,
                     before=_start())


def test_a_last_pair_without_a_dual_field_is_not_extrapolated():
    # like the engine's second solve, whose last pair is the zero start
    prob = DenoiseProblem(xi=10.0 * rand_grid(30, (4, 5)), mu=1.0)
    last = _pair(rand_grid(31, (4, 5)))
    before = _pair(rand_grid(32, (4, 5)), lam=project_dual_ball(rand_field(33, (4, 5))))
    pair, info = inner_solver(prob.xi, TotalVariationPenalty(mu=1.0), gap_target=1e-3,
                              last=last, before=before)
    want = pdhg_solve(prob, z0=last.x, eta=1e-3)
    assert info.iterations > 0
    _same_report(info.report, want)


def _two_equal_records():
    """Factories of two distinct records with equal contents, per array-holding class."""
    geom = {"q": 4, "angles": np.array([0.0, 90.0])}
    grid = np.zeros((2, 2))
    prob = DenoiseProblem(xi=rand_grid(28, (3, 3)), mu=1.0)
    return {
        "PrimalDualPair": lambda: PrimalDualPair(x=grid.copy(), xi=grid.copy(), eps=0.0,
                                                 lam=np.zeros((2, 2, 2))),
        "DenoiseProblem": lambda: DenoiseProblem(xi=grid.copy(), mu=1.0),
        "TomoGeometry": lambda: TomoGeometry(**geom),
        "PdhgReport": lambda: pdhg_solve(prob, max_iter=8),
        "InnerInfo": lambda: InnerInfo(iterations=0, converged=True),
    }


@pytest.mark.parametrize("cls", sorted(_two_equal_records()))
def test_array_holding_records_compare_and_hash_by_identity(cls):
    make = _two_equal_records()[cls]
    a, b = make(), make()
    assert a == a and not a == b and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


@pytest.mark.parametrize("constraint", [None, NonnegativityConstraint()])
@pytest.mark.parametrize("seed", range(5))
def test_a_tv_pair_carries_the_dual_field_that_certifies_its_eps(seed, constraint):
    xi = rand_grid(900 + seed, (9, 7))
    warm = rand_grid(950 + seed, (9, 7))  # not constant, so PDHG iterates
    pair, info = inner_solver(xi, TotalVariationPenalty(mu=1.0, constraint=constraint),
                              gap_target=1e-3, last=_pair(warm))
    assert info.iterations > 0 and pair.lam is info.report.lam
    # at mu = 1 the report's values are the unit-weight ones, unscaled
    prob = DenoiseProblem(xi=xi, mu=1.0, constraint=constraint)
    assert max(primal_value(prob, pair.x) - dual_value(prob, pair.lam), 0.0) == pair.eps
    quadratic, _ = inner_solver(xi, QuadraticPenalty(mu=1.0, constraint=constraint))
    assert quadratic.lam is None


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
        estimates = []
        rep, p_hist, d_hist = solve_with_histories(prob, estimates=estimates, eta=1e-6)
        assert rep.converged
        p = primal_value(prob, rep.x)
        d = dual_value(prob, rep.lam)
        assert abs(p - rep.primal_value) <= 1e-9 * (1.0 + abs(p))
        assert abs(d - rep.dual_value) <= 1e-9 * (1.0 + abs(d))
        assert rep.eps_certificate == max(rep.gap_abs, 0.0)
        assert rep.gap_abs >= -1e-9 * (1.0 + abs(p))
        # one value pair per checked iterate, and one for the certificate
        # that ends the float32 search
        checked = checked_iterates(rep.iterations, max_iter=5000)
        assert len(p_hist) == len(d_hist)
        assert len(p_hist) + len(estimates) == rep.gap_evaluations == len(checked) + 1


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


def checked_iterates(iterations, max_iter):
    """The iterates 0..iterations whose gap the solver takes: the stride's and the cap."""
    return [k for k in range(iterations + 1) if k % _GAP_STRIDE == 0 or k == max_iter]


def plain_projection(field):
    """Reference plain projection: divide by max(length, 1), in the field's dtype."""
    scale = np.sqrt(np.maximum(field[0] * field[0] + field[1] * field[1], 1.0))
    return np.array((field[0] / scale, field[1] / scale))


def cast(field, dtype):
    return field.astype(dtype)


def oracle_pdhg(prob, z0=None, lam0=None, eta=1e-6, max_iter=5000, search=np.float32):
    """The solver loop as specified, over the np.roll reference primitives.

    Every iterate is a fresh array and each value differentiates its z
    again; the dual value's linear term is <div_lam, z*>, as in the solver.
    Iterate 0 is certified in float64.  Past it the iterates are cast to
    `search` and projected plainly, and at every `_GAP_STRIDE`-th iterate
    and at the cap the gap is estimated in that dtype; the iterate whose
    estimate meets eta, falls to its floor (float32's eps in the floor
    formula), is not finite, is no lower than every estimate before it, or
    reaches the cap is cast back to float64,
    its lam reprojected with `roll_projection`, and certified.  From a
    certificate that misses eta the loop goes on in float64, certifying
    every checked iterate.  With `search=np.float64`, or when ||xi||^2 or
    twice the start's primal value passes float32's range, it runs in
    float64 throughout, as the loop before the float32 search did.  Returns
    (x, lam, iterations, primal_history, dual_history, estimates), the
    histories over the certified pairs and the estimates as (primal, dual).
    """
    mu, xi, c = prob.mu, prob.xi, prob.constraint
    if mu != 1.0:
        unit = DenoiseProblem(xi=xi, mu=1.0, constraint=c)
        w0 = None if z0 is None else np.asarray(z0, dtype=float) / mu
        x, lam, iters, p_hist, d_hist, est = oracle_pdhg(unit, w0, lam0, eta, max_iter, search)
        return (mu * x, lam, iters, [mu * v for v in p_hist], [mu * v for v in d_hist],
                [(mu * p, mu * d) for p, d in est])

    def primal(z, xi):
        if c is not None and not c.contains(z):
            return math.inf
        d = z - xi
        return float(np.vdot(d, d)) / 2.0 + float(np.sum(reference_norm(roll_gradient(z))))

    def dual(div_lam, xi):
        zstar = xi - div_lam
        if c is not None:
            zstar = c.project(zstar)
        d = zstar - xi
        return float(np.vdot(d, d)) / 2.0 + float(np.vdot(div_lam, zstar))

    xi_sq, f32_max = float(np.vdot(xi, xi)), float(np.finfo(np.float32).max)

    def rel_gap(gap, p_val, d_val, eps):
        floor = 16.0 * eps * (1.0 + 0.5 * xi_sq)
        if not math.isfinite(gap):
            return math.nan
        if gap <= (0.0 if math.isinf(floor) else floor):
            return 0.0
        return gap / (abs(p_val) + abs(d_val))

    z = np.zeros_like(xi) if z0 is None else np.array(z0, dtype=float, copy=True)
    if c is not None:
        z = c.project(z)
    lam = np.zeros((2, *z.shape)) if lam0 is None else roll_projection(lam0)
    xi_search = xi.astype(search)
    p_hist, d_hist, estimates = [], [], []
    best, best_estimate = None, math.inf
    searching = False
    iters = 0
    while True:
        grad_z = roll_gradient(z)
        checked = iters % _GAP_STRIDE == 0 or iters == max_iter
        if checked and searching:
            p_val, d_val = primal(z, xi_search), dual(roll_divergence(lam), xi_search)
            estimates.append((p_val, d_val))
            estimate = rel_gap(p_val - d_val, p_val, d_val, 2.0 ** -23)
            if not eta < estimate < best_estimate or iters == max_iter:
                searching = False
                z, lam = z.astype(float), roll_projection(cast(lam, float))
                grad_z = roll_gradient(z)
            else:
                best_estimate = estimate
        if checked and not searching:
            p_val, d_val = primal(z, xi), dual(roll_divergence(lam), xi)
            p_hist.append(p_val)
            d_hist.append(d_val)
            gap = p_val - d_val
            if best is None or -math.inf < gap < best[0]:
                best = (gap, z, lam)
            if (rel_gap(gap, p_val, d_val, np.finfo(float).eps) <= eta or iters == max_iter
                    or not math.isfinite(gap)):
                break
            if iters == 0 and search is np.float32 and max(xi_sq, 2.0 * p_val) < f32_max:
                searching = True
                z, lam, grad_z = z.astype(search), cast(lam, search), cast(grad_z, search)
        tau, theta = step_sizes(iters)
        lam = lam + tau * grad_z
        lam = plain_projection(lam) if searching else roll_projection(lam)
        div_lam = roll_divergence(lam)
        z = (1.0 - theta) * z + theta * ((xi_search if searching else xi) - div_lam)
        if c is not None:
            z = c.project(z)
        iters += 1
    return best[1], best[2], iters, p_hist, d_hist, estimates


def solve_like_the_oracle(prob, **kwargs):
    """Solve, assert the report, every certified value and every estimate equal the oracle's.

    Returns (report, primal values, dual values) of the certified pairs.
    """
    estimates = []
    rep, got_p, got_d = solve_with_histories(prob, estimates=estimates, **kwargs)
    x, lam, iters, p_hist, d_hist, want_estimates = oracle_pdhg(prob, **kwargs)
    assert rep.x.dtype == rep.lam[0].dtype == rep.lam[1].dtype == np.float64
    assert np.array_equal(rep.x, x)
    assert np.array_equal(rep.lam[0], lam[0]) and np.array_equal(rep.lam[1], lam[1])
    assert rep.iterations == iters
    assert got_p == p_hist and got_d == d_hist
    assert estimates == want_estimates
    assert rep.gap_evaluations == len(got_p) + len(estimates)
    return rep, got_p, got_d


@pytest.mark.parametrize("mu", [1.0, 20.0])
@pytest.mark.parametrize(
    "constraint", [None, NonnegativityConstraint()], ids=["none", "nonneg"],
)
def test_solver_reproduces_reference_loop_exactly(mu, constraint):
    xi = rand_grid(40, (12, 9))
    prob = DenoiseProblem(xi=xi, mu=mu, constraint=constraint)
    cold, _, _ = solve_like_the_oracle(prob, eta=1e-7)
    # warm start at a moved xi, as the outer iteration does
    moved = DenoiseProblem(xi=xi + 0.5 * rand_grid(41, (12, 9)), mu=mu, constraint=constraint)
    solve_like_the_oracle(moved, z0=cold.x, lam0=cold.lam, eta=1e-7)
    # a capped run whose best checked iterate is not the last
    capped, p_hist, d_hist = solve_like_the_oracle(
        moved, z0=cold.x, lam0=cold.lam, eta=1e-12, max_iter=205
    )
    gaps = np.subtract(p_hist, d_hist)
    assert not capped.converged and gaps[-1] > gaps.min()


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2)])
@pytest.mark.parametrize(
    "constraint", [None, NonnegativityConstraint()], ids=["none", "nonneg"],
)
def test_solver_matches_the_oracle_where_the_bound_slices_degenerate(shape, constraint):
    # one row or column: a wrap-around slice is the whole grid and a shifted
    # one is empty; both must still be exactly the oracle's arithmetic
    xi = 2.0 * rand_grid(60 + shape[0], shape)
    for mu in (1.0, 20.0):
        prob = DenoiseProblem(xi=xi, mu=mu, constraint=constraint)
        cold, _, _ = solve_like_the_oracle(prob, eta=1e-9, max_iter=200)
        moved = DenoiseProblem(xi=xi + rand_grid(70 + shape[1], shape), mu=mu, constraint=constraint)
        solve_like_the_oracle(moved, z0=cold.x, lam0=cold.lam, eta=1e-9, max_iter=200)


def test_solver_matches_the_oracle_on_a_warm_64x64_solve_that_leaves_the_ball():
    xi = 3.0 * rand_grid(80, (64, 64))
    prob = DenoiseProblem(xi=xi, mu=1.0, constraint=NonnegativityConstraint())
    cold = pdhg_solve(prob, eta=1e-3, max_iter=30)
    moved = DenoiseProblem(xi=xi + rand_grid(81, (64, 64)), mu=1.0, constraint=prob.constraint)
    warm, _, _ = solve_like_the_oracle(moved, z0=cold.x, lam0=cold.lam, eta=1e-9, max_iter=40)
    # entries the projection pulled back sit just inside the unit circle
    assert warm.iterations == 40
    assert np.count_nonzero(pointwise_norm(warm.lam) > 1.0 - 2.0 ** -40) > 100


@pytest.mark.parametrize("mu", [1.0, 20.0])
def test_reports_own_their_arrays(mu):
    constraint = NonnegativityConstraint()
    prob = DenoiseProblem(xi=rand_grid(42, (10, 10)), mu=mu, constraint=constraint)
    first = pdhg_solve(prob, eta=1e-6)
    kept = [a.copy() for a in (first.x, first.lam[0], first.lam[1])]
    moved = DenoiseProblem(xi=prob.xi + rand_grid(43, (10, 10)), mu=mu, constraint=constraint)
    second = pdhg_solve(moved, z0=first.x, lam0=first.lam, eta=1e-8)
    assert second.iterations > 0
    for old, saved in zip((first.x, first.lam[0], first.lam[1]), kept):
        assert np.array_equal(old, saved)
        for new in (second.x, second.lam[0], second.lam[1], moved.xi):
            assert not np.shares_memory(old, new)
    assert not np.shares_memory(second.x, moved.xi)
    assert not np.shares_memory(second.lam[0], second.lam[1])


def huge_xi(kind):
    """A 16 x 16 xi whose float32 squares overflow: everywhere, or at one spike."""
    if kind == "1e25":
        return 1e25 * rand_grid(90, (16, 16))
    xi = rand_grid(90, (16, 16))
    xi[3, 5] = 1.5e19  # ||xi||^2 fits float32; the gradient's squared length there does not
    return xi


@pytest.mark.parametrize("kind", ["1e25", "spike"])
@pytest.mark.parametrize(
    "constraint", [None, NonnegativityConstraint()], ids=["none", "nonneg"],
)
def test_a_solve_past_float32s_range_converges_as_in_float64(kind, constraint):
    # at 1e25 the search never leaves float64, so the solve is the float64
    # loop's to the bit; at the spike the first float32 estimate overflows,
    # and its certificate hands the solve to float64.  Neither may warn.
    prob = DenoiseProblem(xi=huge_xi(kind), mu=2.0, constraint=constraint)
    rep = pdhg_solve(prob, eta=1e-6)
    x, lam, iters, _, _, _ = oracle_pdhg(prob, eta=1e-6, search=np.float64)
    assert rep.converged and iters < 5000
    assert rep.x.dtype == rep.lam[0].dtype == rep.lam[1].dtype == np.float64
    assert math.isfinite(rep.eps_certificate)
    gap = primal_value(prob, rep.x) - dual_value(prob, rep.lam)
    assert abs(rep.gap_abs - gap) <= 1e-12 * (abs(rep.primal_value) + abs(rep.dual_value))
    if kind == "1e25":
        assert np.array_equal(rep.x, x) and rep.iterations == iters
        assert np.array_equal(rep.lam[0], lam[0]) and np.array_equal(rep.lam[1], lam[1])


def test_a_target_below_float32s_reach_converges_in_the_float64_loop():
    # the float32 estimate falls to its rounding floor far above 1e-10; the
    # pair certified there misses the target and the loop goes on in float64
    prob = DenoiseProblem(xi=rand_grid(53, (32, 32)), mu=1.0)
    estimates = []
    rep, p_hist, d_hist = solve_with_histories(prob, estimates=estimates, eta=1e-10,
                                               max_iter=50_000)
    assert rep.converged and rep.iterations < 50_000 and rep.gap_rel <= 1e-10
    # iterate 0, the search's certificate, then every checked float64 iterate
    searched = _GAP_STRIDE * len(estimates)
    assert searched > 0 and len(p_hist) == 2 + (rep.iterations - searched) // _GAP_STRIDE


def test_a_stalled_float32_estimate_hands_the_solve_to_float64(monkeypatch):
    # float32 estimates pinned at a relative gap of 1/3, above eta and above
    # float32's floor: the second is no lower than the first, so the search
    # certifies there, misses eta, and the float64 loop converges
    from lkreg import pdhg

    def pinned(kernel, value):
        def wrapper(*args, **kwargs):
            return value if args[1].dtype == np.float32 else kernel(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pdhg, "_primal_value_at", pinned(pdhg._primal_value_at, 2.0))
    monkeypatch.setattr(pdhg, "_dual_value_at", pinned(pdhg._dual_value_at, 1.0))
    prob = DenoiseProblem(xi=rand_grid(54, (16, 16)), mu=1.0)
    rep = pdhg_solve(prob, eta=1e-6, max_iter=50_000)
    assert rep.converged and rep.gap_rel <= 1e-6 and rep.iterations < 5_000
    # iterate 0 and the certificate in float64, the two estimates in float32
    assert rep.gap_evaluations == 2 + 2 + (rep.iterations - 2 * _GAP_STRIDE) // _GAP_STRIDE
    assert rep.eps_certificate == primal_value(prob, rep.x) - dual_value(prob, rep.lam)


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
        _, trace = run(problem, pen, cfg)
    assert not infos[k].converged  # an unconverged solve whose certificate is inf
    assert trace.terminated_by == "non-finite" and trace.n_final == k


@pytest.mark.parametrize("mu,eta,max_iter", [(1.0, 1e-4, 5000), (2.5, 1e-4, 5000), (1.0, 1e-12, 4)])
def test_each_iterate_is_evaluated_once(monkeypatch, mu, eta, max_iter):
    # each value kernel runs once per checked iterate, in float64 at iterate
    # 0 and in float32 in the search, and once more, with one more gradient,
    # for the float64 certificate of the search's last iterate
    from lkreg import pdhg

    calls = {"gradient": 0, "primal_value": 0, ("primal", np.float32): 0,
             ("primal", np.float64): 0, ("dual", np.float32): 0, ("dual", np.float64): 0}

    def counting(name, fn, typed=False):
        def wrapper(*args, **kwargs):
            calls[(name, args[1].dtype.type) if typed else name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pdhg, "discrete_gradient", counting("gradient", pdhg.discrete_gradient))
    monkeypatch.setattr(pdhg, "_primal_value_at", counting("primal", pdhg._primal_value_at, True))
    monkeypatch.setattr(pdhg, "_dual_value_at", counting("dual", pdhg._dual_value_at, True))
    monkeypatch.setattr(pdhg, "primal_value", counting("primal_value", pdhg.primal_value))
    prob = DenoiseProblem(xi=rand_grid(41, (8, 8)), mu=mu, constraint=NonnegativityConstraint())
    report = pdhg_solve(prob, z0=np.ones((8, 8)), eta=eta, max_iter=max_iter)
    assert report.iterations > 0 and report.converged == (max_iter == 5000)
    assert calls["gradient"] == report.iterations + 2
    checked = checked_iterates(report.iterations, max_iter)
    for kernel in ("primal", "dual"):
        float32, float64 = calls[(kernel, np.float32)], calls[(kernel, np.float64)]
        assert float32 + float64 == report.gap_evaluations == len(checked) + 1
        assert float32 >= 1 and float64 >= 2
    assert calls["primal_value"] == 0


_mus = st.floats(0.05, 50.0)
_constraints = st.sampled_from([None, NonnegativityConstraint()])


@st.composite
def denoise_case(draw):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6))
    entries = st.floats(-5.0, 5.0)
    xi, z, u, v = (draw(hnp.arrays(np.float64, shape, elements=entries)) for _ in range(4))
    prob = DenoiseProblem(xi=xi, mu=draw(_mus), constraint=draw(_constraints))
    return prob, z, np.array((u, v))


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
    want = quadratic + float(np.vdot(lam[0], g[0]) + np.vdot(lam[1], g[1]))
    scale = quadratic + float(np.sum(np.abs(zstar)))
    assert abs(dual_value(prob, lam) - want) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(denoise_case(), st.integers(0, 90))
def test_strided_certificate_is_the_exact_gap_of_the_returned_pair_property(case, max_iter):
    # the report's gap is the one recomputed at its pair, and weak duality
    # holds at every checked iterate, whichever iterates the stride skips
    prob, z0, lam0 = case
    if prob.constraint is not None:
        z0 = prob.constraint.project(z0)
    estimates = []
    rep, p_hist, d_hist = solve_with_histories(prob, estimates=estimates, z0=z0, lam0=lam0,
                                               eta=1e-4, max_iter=max_iter)
    # a solve that iterates ends its float32 search with one more certificate
    checked = len(checked_iterates(rep.iterations, max_iter)) + (rep.iterations > 0)
    assert rep.gap_evaluations == len(p_hist) + len(estimates) == checked
    for p_val, d_val in zip(p_hist, d_hist):
        assert d_val <= p_val + 1e-12 * (1.0 + abs(p_val) + abs(d_val))
    p_val, d_val = primal_value(prob, rep.x), dual_value(prob, rep.lam)
    scale = 1.0 + abs(p_val) + abs(d_val)
    assert abs(rep.gap_abs - (p_val - d_val)) <= 1e-12 * scale
    assert rep.eps_certificate == max(rep.gap_abs, 0.0)


@pytest.mark.parametrize("max_iter", [3, 82])
@pytest.mark.parametrize(
    "constraint", [None, NonnegativityConstraint()], ids=["none", "nonneg"],
)
def test_capped_solve_checks_its_last_iterate_and_returns_the_best_checked_pair(
        max_iter, constraint):
    assert max_iter % _GAP_STRIDE  # a cap the stride does not reach
    xi = rand_grid(45, (10, 8))
    prob = DenoiseProblem(xi=xi, mu=2.0, constraint=constraint)
    rep, p_hist, d_hist = solve_like_the_oracle(prob, eta=1e-12, max_iter=max_iter)
    assert not rep.converged and rep.iterations == max_iter
    # 0, _GAP_STRIDE, ... up to the cap, the cap itself, and the certificate
    # that ends the float32 search
    assert rep.gap_evaluations == max_iter // _GAP_STRIDE + 3
    gaps = np.subtract(p_hist, d_hist)
    best = int(np.argmin(gaps))
    assert (rep.primal_value, rep.dual_value) == (p_hist[best], d_hist[best])
    assert rep.gap_abs == p_hist[best] - d_hist[best]
    # the unchecked iterates left the returned pair alone
    assert abs(primal_value(prob, rep.x) - p_hist[best]) <= 1e-12 * (1.0 + abs(p_hist[best]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_xi_stops_within_the_stride_with_infinite_eps(bad):
    xi = rand_grid(46, (6, 5))
    xi[2, 3] = bad
    prob = DenoiseProblem(xi=xi, mu=1.5, constraint=NonnegativityConstraint())
    warm = np.abs(rand_grid(47, (6, 5)))
    for z0, lam0 in ((None, None), (warm, project_dual_ball(rand_field(48, (6, 5))))):
        with np.errstate(invalid="ignore", over="ignore"):
            rep = pdhg_solve(prob, z0=z0, lam0=lam0, eta=1e-6, max_iter=50)
        assert not rep.converged and rep.iterations < _GAP_STRIDE
        assert rep.eps_certificate == math.inf


def test_a_nan_mid_solve_stops_at_the_next_checked_iterate(monkeypatch):
    # a nan dual step at k = 5 makes iterate 6 nan; the solve stops at the
    # next checked iterate and returns the best earlier checked pair, with
    # its own finite gap
    from lkreg import pdhg

    def nan_at_5(k):
        tau, theta = step_sizes(k)
        return (math.nan, theta) if k == 5 else (tau, theta)

    monkeypatch.setattr(pdhg, "step_sizes", nan_at_5)
    prob = DenoiseProblem(xi=rand_grid(49, (7, 7)), mu=1.0)
    estimates = []
    with np.errstate(invalid="ignore"):
        rep, p_hist, d_hist = solve_with_histories(prob, estimates=estimates, eta=1e-12,
                                                   max_iter=50)
    stop = 6 + (-6) % _GAP_STRIDE
    assert rep.iterations == stop and not rep.converged
    # the nan estimate there is certified, and the certificate is nan too
    assert len(p_hist) + len(estimates) == len(checked_iterates(stop, 50)) + 1
    assert math.isnan(p_hist[-1] - d_hist[-1])
    assert rep.gap_abs == np.subtract(p_hist[:-1], d_hist[:-1]).min()
    assert math.isfinite(rep.eps_certificate)
    assert abs(primal_value(prob, rep.x) - dual_value(prob, rep.lam) - rep.gap_abs) <= 1e-12 * (
        1.0 + abs(rep.primal_value) + abs(rep.dual_value))


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
    # and one more for the float64 certificate of the float32 search's last iterate
    assert calls == {"gradient": report.iterations + 2, "field_dot": 0}


@pytest.mark.parametrize("shape", [(8, 8), (5, 7), (6, 3), (1, 6), (7, 1), (1, 1)])
def test_constant_regime_field_inverts_the_divergence(shape):
    xi = 3.0 + rand_grid(50, shape)
    centered = xi - xi.mean()
    lam = _constant_regime_field(centered)
    assert lam.shape == (2, *shape)
    assert np.allclose(divergence_adjoint(lam), centered, rtol=0.0, atol=1e-13)


@st.composite
def constant_regime_case(draw):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8))
    # small scales stay in the constant regime, large ones leave it
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
    xi = draw(st.floats(-2.0, 2.0)) + scale * rand_grid(draw(st.integers(0, 2**16)), shape)
    pen = TotalVariationPenalty(mu=draw(st.sampled_from([1.0, 2.5, 20.0])),
                                constraint=draw(_constraints))
    warm = draw(st.sampled_from(["none", "constant", "varying"]))
    x = {"none": None, "constant": np.full(shape, 0.25),
         "varying": np.arange(float(np.prod(shape))).reshape(shape)}[warm]
    last = None if warm == "none" else _pair(x, lam=project_dual_ball(rand_field(51, shape)))
    return xi, pen, last


def _same_report(a, b):
    for f in dataclasses.fields(PdhgReport):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


@settings(max_examples=40, deadline=None)
@given(constant_regime_case())
def test_constant_regime_start_property(case):
    xi, pen, last = case
    prob = DenoiseProblem(xi=xi, mu=pen.mu, constraint=pen.constraint)
    tried = last is None or last.x.min() == last.x.max()
    inside = float(np.max(pointwise_norm(_constant_regime_field(xi - xi.mean())))) <= 1.0
    pair, info = inner_solver(xi, pen, gap_target=1e-6, last=last, max_iter=300)
    assert pair.eps == info.report.eps_certificate
    if not (tried and inside):
        want = pdhg_solve(prob, z0=getattr(last, "x", None), lam0=getattr(last, "lam", None),
                          eta=1e-6, max_iter=300)
        _same_report(info.report, want)
        return
    assert info.iterations == 0 and info.converged
    bound = info.report.dual_value - pen.mu * float(np.vdot(xi, xi)) / 2.0
    assert check_eps_subgradient(pair, pen, bound)
    # Psi_P is (1/mu)-strongly convex, so a pair with gap g lies within
    # sqrt(2 mu g) of the minimizer; floor is the gap's rounding floor
    long = pdhg_solve(prob, eta=1e-10, max_iter=5000)
    floor = pen.mu * 16.0 * np.finfo(float).eps * (1.0 + 0.5 * float(np.vdot(xi, xi)))
    tol = sum(math.sqrt(2.0 * pen.mu * (eps + floor)) for eps in (pair.eps, long.eps_certificate))
    assert float(np.linalg.norm(pair.x - long.x)) <= tol


@pytest.mark.parametrize("mode", ["plain", "accelerated"])
def test_each_solve_starts_from_the_extrapolation_of_the_last_two(monkeypatch, mode):
    # a small CT run whose first solves the closed form certifies
    from lkreg import pdhg
    from lkreg.engine import run
    from lkreg.harness import build_problem, make_config

    calls = []
    real = pdhg.pdhg_solve

    def spy(prob, z0=None, lam0=None, **kwargs):
        report = real(prob, z0=z0, lam0=lam0, **kwargs)
        calls.append((prob, z0, lam0, report))
        return report

    monkeypatch.setattr(pdhg, "pdhg_solve", spy)
    cfg = make_config(preset="ct-desk", ct_q=16, ct_angles=10, n_max=40, mode=mode)
    problem, _ = build_problem(cfg)
    run(problem, cfg.penalty_object(), cfg)
    reports = [call[3] for call in calls]
    closed, extrapolated = 0, 0
    for k, (prob, z0, lam0, report) in enumerate(calls):
        last = reports[k - 1] if k else None
        c = prob.xi.mean()
        field = _constant_regime_field(prob.xi - c)
        tried = last is None or last.x.min() == last.x.max()
        if tried and float(np.max(pointwise_norm(field))) <= 1.0:
            assert np.array_equal(z0, np.full(prob.xi.shape, prob.mu * c))
            assert np.array_equal(lam0[0], field[0]) and np.array_equal(lam0[1], field[1])
            assert report.iterations == 0 and report.converged
            closed += 1
        elif k >= 2:
            before = reports[k - 2]
            assert np.array_equal(z0, 2.0 * last.x - before.x)
            assert np.array_equal(lam0[0], 2.0 * last.lam[0] - before.lam[0])
            assert np.array_equal(lam0[1], 2.0 * last.lam[1] - before.lam[1])
            extrapolated += 1
    assert closed >= 2 and extrapolated >= 10
    assert closed + extrapolated == len(calls)


@st.composite
def infeasible_start_case(draw):
    # a start below 0 under nonneg, and a dual field of lengths up to 3
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6))
    xi, z0 = (draw(hnp.arrays(np.float64, shape, elements=st.floats(-5.0, 5.0)))
              for _ in range(2))
    length = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 3.0)))
    angle = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 2.0 * math.pi)))
    prob = DenoiseProblem(xi=xi, mu=draw(_mus), constraint=draw(_constraints))
    return prob, z0, np.array((length * np.cos(angle), length * np.sin(angle)))


@settings(max_examples=60, deadline=None)
@given(infeasible_start_case(), st.integers(0, 90))
def test_a_start_outside_c_and_the_balls_keeps_the_certificate_exact_property(case, max_iter):
    prob, z0, lam0 = case
    rep, p_hist, d_hist = solve_with_histories(prob, z0=z0, lam0=lam0, eta=1e-4,
                                               max_iter=max_iter)
    for p_val, d_val in zip(p_hist, d_hist):
        assert d_val <= p_val + 1e-12 * (1.0 + abs(p_val) + abs(d_val))
    p_val, d_val = primal_value(prob, rep.x), dual_value(prob, rep.lam)
    assert math.isfinite(p_val) and math.isfinite(d_val)
    assert abs(rep.gap_abs - (p_val - d_val)) <= 1e-12 * (1.0 + abs(p_val) + abs(d_val))
    assert rep.eps_certificate == max(rep.gap_abs, 0.0)


@settings(max_examples=60, deadline=None)
@given(denoise_case(), st.sampled_from([1.0, 2.0, 8.0]), st.sampled_from([1e-2, 1e-4, 1e-8]),
       st.integers(0, 120))
def test_the_report_is_a_float64_pair_with_its_exact_gap_property(case, mu, eta, max_iter):
    # mu a power of two, so x / mu is the loop's own iterate and mu scales
    # every value exactly: the report's values are primal_value's and
    # dual_value's at the returned pair, to the bit
    prob, z0, lam0 = case
    prob = DenoiseProblem(xi=prob.xi, mu=mu, constraint=prob.constraint)
    rep = pdhg_solve(prob, z0=z0, lam0=lam0, eta=eta, max_iter=max_iter)
    assert rep.x.dtype == rep.lam[0].dtype == rep.lam[1].dtype == np.float64
    p_val, d_val = primal_value(prob, rep.x), dual_value(prob, rep.lam)
    assert (rep.primal_value, rep.dual_value, rep.gap_abs) == (p_val, d_val, p_val - d_val)
    assert rep.eps_certificate == max(p_val - d_val, 0.0)


def _solve_and_peak(prob, **kwargs):
    """`pdhg_solve(prob, **kwargs)` and tracemalloc's peak during it, in grids of xi's size.

    A grid is a float64 array of xi's shape.  The inputs are made before
    tracing starts, so the peak is the solve's own: numpy's arrays
    (`np.lib.tracemalloc_domain`) plus a few kB of Python objects.
    """
    tracemalloc.start()
    try:
        report = pdhg_solve(prob, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak / (8 * prob.xi.size)


def _xi_128():
    return 0.05 * normals(3, 128 * 128).reshape(128, 128)


def test_a_solve_certified_at_its_start_never_builds_the_float32_iterates():
    # the float64 iterates and the report's x take about 11.2 grids; the
    # float32 iterates would add about 5
    xi = _xi_128()
    prob = DenoiseProblem(xi=xi, mu=2.0)
    z0, lam0 = np.full(xi.shape, prob.mu * xi.mean()), _constant_regime_field(xi - xi.mean())
    report, peak = _solve_and_peak(prob, z0=z0, lam0=lam0, eta=1e-6)
    assert report.iterations == 0 and report.converged
    assert peak < 12.0


def test_a_search_frees_its_float32_iterates_before_its_certificate():
    # float64 iterates (10.1 grids), float32 ones (5) and iterate 0's copied
    # pair (3) peak at about 18.75 grids; float32 iterates kept through the
    # certificate's copies, or a start built in fresh arrays, peak one higher
    report, peak = _solve_and_peak(DenoiseProblem(xi=_xi_128(), mu=2.0), eta=1e-9, max_iter=50)
    assert report.iterations == 50 and not report.converged
    assert peak < 19.25
