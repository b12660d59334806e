"""Duality map, constraints, penalties, certificates, Bregman distances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lkreg.penalty import (
    BoxConstraint,
    NonnegativityConstraint,
    PrimalDualPair,
    QuadraticPenalty,
    TotalVariationPenalty,
    bregman_eps_distance,
    check_eps_subgradient,
    duality_map,
    norm,
    solve_quadratic_exact,
)
from lkreg.pdhg import inner_solver
from lkreg.tv import tv_value

from conftest import rand_grid


def test_duality_map_special_cases():
    r = rand_grid(1, (4, 5))
    assert np.array_equal(duality_map(r, 2.0), r)
    assert not np.any(duality_map(np.zeros((3, 3)), 1.7))
    out = duality_map(np.array([3.0, 4.0]), 3.0)
    assert np.allclose(out, [15.0, 20.0], rtol=1e-14)


def test_duality_map_gauge_identities():
    for seed in range(25):
        r = rand_grid(2000 + seed, (6, 6))
        s = [1.5, 2.0, 3.0, 4.7][seed % 4]
        j = duality_map(r, s)
        nrm = float(np.linalg.norm(r))
        assert abs(float(np.vdot(j, r)) - nrm ** s) <= 1e-10 * (1.0 + nrm ** s)
        assert abs(float(np.linalg.norm(j)) - nrm ** (s - 1.0)) <= 1e-10 * (
            1.0 + nrm ** (s - 1.0)
        )


def test_duality_map_requires_s_above_one():
    with pytest.raises(ValueError):
        duality_map(np.ones(3), 1.0)


def test_nonnegativity_constraint():
    c = NonnegativityConstraint()
    z = np.array([[-1.0, 2.0], [0.0, -0.5]])
    assert np.array_equal(c.project(z), [[0.0, 2.0], [0.0, 0.0]])
    assert not c.contains(z)
    assert c.contains(c.project(z))
    assert c.contains(np.array([-1e-12]), tol=1e-9)
    assert c.scaled(0.25) is c
    with pytest.raises(ValueError):
        c.scaled(0.0)


def test_box_constraint():
    c = BoxConstraint(-1.0, 3.0)
    assert np.array_equal(c.project(np.array([-5.0, 0.5, 9.0])), [-1.0, 0.5, 3.0])
    assert c.contains(np.array([-1.0, 3.0]))
    assert not c.contains(np.array([3.1]))
    s = c.scaled(0.5)
    assert (s.lower, s.upper) == (-0.5, 1.5)
    with pytest.raises(ValueError):
        BoxConstraint(0.5, 2.0)  # must contain 0
    with pytest.raises(ValueError):
        c.scaled(-1.0)


def test_pair_validation():
    with pytest.raises(ValueError):
        PrimalDualPair(np.zeros((2, 2)), np.zeros((2, 3)), 0.0)
    with pytest.raises(ValueError):
        PrimalDualPair(np.zeros((2, 2)), np.zeros((2, 2)), -1e-3)


def test_quadratic_penalty_value_and_bound():
    pen = QuadraticPenalty(mu=2.0)
    z = rand_grid(5, (4, 4))
    assert math.isclose(pen.value(z), float(np.vdot(z, z)) / 4.0, rel_tol=1e-14)
    assert pen.c0 == 0.25
    xi = rand_grid(6, (4, 4))
    # unconstrained conjugate in closed form
    assert math.isclose(
        pen.dual_bound(xi), -pen.mu * float(np.vdot(xi, xi)) / 2.0, rel_tol=1e-12
    )
    with pytest.raises(ValueError):
        QuadraticPenalty(mu=0.0)


def test_constrained_dual_bound_is_a_true_minimum():
    pen = QuadraticPenalty(mu=1.5, constraint=NonnegativityConstraint())
    xi = rand_grid(7, (3, 3))
    bound = pen.dual_bound(xi)
    best = math.inf
    for seed in range(1000):
        z = np.maximum(rand_grid(3000 + seed, (3, 3)), 0.0)
        best = min(best, pen.value(z) - float(np.vdot(xi, z)))
    assert bound <= best + 1e-12
    # the bound is attained at the projected point, not merely below it
    zstar = np.maximum(pen.mu * xi, 0.0)
    assert math.isclose(bound, pen.value(zstar) - float(np.vdot(xi, zstar)), rel_tol=1e-12)


def test_infeasible_value_is_infinite():
    pen = TotalVariationPenalty(mu=1.0, constraint=NonnegativityConstraint())
    assert math.isinf(pen.value(np.array([[-1.0, 0.0], [0.0, 0.0]])))


def test_solve_quadratic_exact_paths():
    xi = np.array([[1.0, -3.0]])
    pair = solve_quadratic_exact(xi, QuadraticPenalty(mu=2.0))
    assert np.array_equal(pair.x, [[2.0, -6.0]])
    assert pair.eps == 0.0
    clipped = solve_quadratic_exact(
        xi, QuadraticPenalty(mu=1.0, constraint=NonnegativityConstraint())
    )
    assert np.array_equal(clipped.x, [[1.0, 0.0]])
    zero = solve_quadratic_exact(np.zeros((2, 2)), QuadraticPenalty(mu=3.0))
    assert not np.any(zero.x)
    with pytest.raises(ValueError):
        solve_quadratic_exact(xi, TotalVariationPenalty(mu=1.0))


def test_exact_solve_is_idempotent_under_its_certificate():
    pen = QuadraticPenalty(mu=0.7, constraint=NonnegativityConstraint())
    pair = solve_quadratic_exact(rand_grid(8, (5, 5)), pen)
    again = solve_quadratic_exact(pair.xi, pen)
    assert np.array_equal(pair.x, again.x)


def test_bregman_quadratic_identity():
    # Theta = ||.||^2/2, xi = gradient at x: distance is half squared distance
    pen = QuadraticPenalty(mu=1.0)
    x = rand_grid(9, (4, 4))
    xbar = rand_grid(10, (4, 4))
    pair = PrimalDualPair(x=x, xi=x.copy(), eps=0.0)
    want = 0.5 * float(np.vdot(xbar - x, xbar - x))
    assert math.isclose(bregman_eps_distance(pen, pair, xbar), want, rel_tol=1e-12)


def test_bregman_at_base_point_returns_eps():
    pen = QuadraticPenalty(mu=1.0)
    x = rand_grid(11, (3, 3))
    pair = PrimalDualPair(x=x, xi=x.copy(), eps=0.0125)
    assert math.isclose(bregman_eps_distance(pen, pair, x), 0.0125, rel_tol=1e-14)


def test_bregman_infeasible_probe_is_infinite():
    pen = QuadraticPenalty(mu=1.0, constraint=NonnegativityConstraint())
    pair = solve_quadratic_exact(np.abs(rand_grid(12, (3, 3))), pen)
    assert math.isinf(bregman_eps_distance(pen, pair, np.full((3, 3), -1.0)))


def test_bregman_nonnegative_for_certified_tv_pairs():
    pen = TotalVariationPenalty(mu=1.0, constraint=NonnegativityConstraint())
    pair, info = inner_solver(rand_grid(13, (4, 4)), pen, gap_target=1e-6)
    assert info.converged
    for seed in range(1000):
        xbar = np.maximum(rand_grid(40_000 + seed, (4, 4)), 0.0)
        assert bregman_eps_distance(pen, pair, xbar) >= -1e-10


def test_bregman_detects_distance_under_the_norm():
    # c0 ||xbar - x||^p <= 2 D + 2 eps (+ slack), quadratic penalty, p = 2
    pen = QuadraticPenalty(mu=2.5, constraint=NonnegativityConstraint())
    for seed in range(200):
        pair = solve_quadratic_exact(rand_grid(50_000 + seed, (3, 4)), pen)
        xbar = np.maximum(rand_grid(60_000 + seed, (3, 4)), 0.0)
        d = bregman_eps_distance(pen, pair, xbar)
        lhs = pen.c0 * float(np.vdot(xbar - pair.x, xbar - pair.x))
        assert lhs <= 2.0 * d + 2.0 * pair.eps + 1e-8


def test_certificate_check_accepts_exact_and_rejects_corrupted():
    pen = QuadraticPenalty(mu=1.3)
    xi = rand_grid(14, (4, 4))
    pair = solve_quadratic_exact(xi, pen)
    bound = pen.dual_bound(xi)
    assert check_eps_subgradient(pair, pen, bound)
    bad = PrimalDualPair(x=pair.x + 0.5, xi=pair.xi, eps=0.0)
    assert not check_eps_subgradient(bad, pen, bound)
    assert not check_eps_subgradient(
        PrimalDualPair(x=np.full((4, 4), -1.0), xi=xi, eps=0.0),
        QuadraticPenalty(mu=1.3, constraint=NonnegativityConstraint()),
        bound,
    )


def _closed_form_tv_value(pen, z):
    # the expression TotalVariationPenalty.value must reproduce bit for bit
    if pen.constraint is not None and not pen.constraint.contains(z):
        return math.inf
    return float(np.vdot(z, z)) / (2.0 * pen.mu) + tv_value(z)


def _closed_form_dual_bound(pen, xi):
    # the expression QuadraticPenalty.dual_bound must reproduce bit for bit
    x = pen.mu * np.asarray(xi, dtype=float)
    if pen.constraint is not None:
        x = pen.constraint.project(x)
    return float(np.vdot(x, x)) / (2.0 * pen.mu) - float(np.vdot(xi, x))


@pytest.mark.parametrize("constraint", [None, NonnegativityConstraint()])
@pytest.mark.parametrize("mu", [1.0, 0.37, 20.0])
def test_penalties_keep_their_closed_forms_bit_for_bit(constraint, mu):
    tv = TotalVariationPenalty(mu=mu, constraint=constraint)
    quad = QuadraticPenalty(mu=mu, constraint=constraint)
    for seed in range(40, 46):
        z = rand_grid(seed, (7, 9))
        for grid in (z, np.abs(z), np.zeros_like(z)):  # z is infeasible under nonneg
            assert tv.value(grid) == _closed_form_tv_value(tv, grid)
            assert quad.dual_bound(grid) == _closed_form_dual_bound(quad, grid)
    assert tv.value(-np.ones((3, 3))) == (math.inf if constraint else 9.0 / (2.0 * mu))


def test_only_the_quadratic_penalty_has_a_dual_bound():
    assert not hasattr(TotalVariationPenalty(mu=1.0), "dual_bound")
    tv, quad = TotalVariationPenalty(mu=2.0), QuadraticPenalty(mu=2.0)
    assert tv.c0 == quad.c0 == 0.25 and tv != quad and repr(tv).startswith("TotalVariationPenalty(")
    for cls in (QuadraticPenalty, TotalVariationPenalty):
        with pytest.raises(ValueError, match="mu"):
            cls(mu=0.0)


# Any float64, plus magnitudes from 1e155 up, whose squares overflow.
_norm_entries = st.one_of(
    st.floats(width=64),
    st.builds(lambda sign, x: sign * x, st.sampled_from([-1.0, 1.0]), st.floats(1e155, 1.7e308)),
)
_views = {
    "C": lambda a: a,
    "F": np.asfortranarray,
    "transposed": lambda a: a.T,
    "every other row": lambda a: a[::2],
    "reversed last axis": lambda a: a[..., ::-1],
    "every third entry": lambda a: a.ravel()[::3],
}


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=9),
                  elements=_norm_entries),
       st.sampled_from(sorted(_views)))
def test_norm_has_the_bits_of_numpy_norm(a, view):
    a = _views[view](a)
    with np.errstate(over="ignore", invalid="ignore"):  # both warn alike on overflow
        got, want = norm(a), float(np.linalg.norm(a))
    assert type(got) is float
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), (got, want)


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_norm_special_values():
    assert norm(np.zeros((0, 3))) == 0.0
    assert norm(np.array([-0.0])) == 0.0
    assert norm(np.array([3.0, -4.0])) == 5.0
    assert norm(np.array([5e-324, 5e-324])) == 0.0  # the squares underflow, as numpy's do
    assert norm(np.array([1e155, 1.0])) == math.inf
    assert norm(np.array([-math.inf, 1.0])) == math.inf
    assert math.isnan(norm(np.array([math.nan, math.inf])))
