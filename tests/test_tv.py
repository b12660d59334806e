"""Discrete gradient, divergence transpose, TV value, dual-ball projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lkreg.pdhg import DenoiseProblem, dual_value
from lkreg.penalty import NonnegativityConstraint
from lkreg.tv import (
    discrete_gradient,
    divergence_adjoint,
    divergence_into,
    field_dot,
    in_unit_balls,
    l21_norm,
    pointwise_norm,
    project_dual_ball,
    projection_into,
    tv_value,
)

from conftest import (
    rand_field,
    rand_grid,
    reference_norm,
    roll_divergence,
    roll_gradient,
    roll_projection,
)


def test_gradient_of_constant_is_zero():
    g = discrete_gradient(np.full((5, 7), 3.25))
    assert not np.any(g[0]) and not np.any(g[1])


def test_gradient_hand_example_2x2():
    g = discrete_gradient(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(g[0], [[2.0, 2.0], [-2.0, -2.0]])
    assert np.array_equal(g[1], [[1.0, -1.0], [1.0, -1.0]])


def test_gradient_single_pixel_wraps_to_zero():
    g = discrete_gradient(np.array([[4.2]]))
    assert g[0][0, 0] == 0.0 and g[1][0, 0] == 0.0


def test_divergence_is_exact_transpose():
    # adjoint identity <Dz, w> = <z, D^T w> on assorted grid shapes
    for trial, shape in enumerate([(5, 7), (1, 1), (2, 2), (16, 16), (9, 4)]):
        for rep in range(10):
            z = rand_grid(100 + 20 * trial + rep, shape)
            w = rand_field(500 + 20 * trial + rep, shape)
            lhs = field_dot(discrete_gradient(z), w)
            rhs = float(np.vdot(z, divergence_adjoint(w)))
            scale = 1.0 + float(np.linalg.norm(z)) * math.sqrt(field_dot(w, w))
            assert abs(lhs - rhs) <= 1e-12 * scale


def test_divergence_of_constant_gradient_is_zero():
    z = np.full((6, 6), 2.0)
    out = divergence_adjoint(discrete_gradient(z))
    assert np.allclose(out, 0.0, atol=1e-14)


def test_tv_values():
    assert tv_value(np.full((4, 4), 1.5)) == 0.0
    assert math.isclose(tv_value(np.array([[1.0, 2.0], [3.0, 4.0]])), 4.0 * math.sqrt(5.0),
                        rel_tol=1e-14)
    # single bump of height c: one sqrt(2) corner and two unit edges
    z = np.zeros((6, 6))
    z[2, 3] = -1.75
    assert math.isclose(tv_value(z), 1.75 * (2.0 + math.sqrt(2.0)), rel_tol=1e-14)


def test_l21_norm_matches_loop():
    f = rand_field(9, (5, 5))
    want = sum(
        math.hypot(f[0][i, j], f[1][i, j]) for i in range(5) for j in range(5)
    )
    assert math.isclose(l21_norm(f), want, rel_tol=1e-13)


def test_projection_leaves_interior_points_alone():
    f = np.array(([[0.3]], [[0.4]]))
    p = project_dual_ball(f)
    assert p[0][0, 0] == 0.3 and p[1][0, 0] == 0.4


def test_projection_radial_example():
    p = project_dual_ball(np.array(([[3.0]], [[4.0]])))
    assert math.isclose(p[0][0, 0], 0.6, rel_tol=1e-12)
    assert math.isclose(p[1][0, 0], 0.8, rel_tol=1e-12)


def test_projection_lands_inside_and_is_idempotent():
    for seed in range(20):
        f = rand_field(700 + seed, (8, 8))
        big = 10.0 * f
        once = project_dual_ball(big)
        assert float(np.max(np.hypot(once[0], once[1]))) <= 1.0
        twice = project_dual_ball(once)
        assert np.array_equal(once[0], twice[0]) and np.array_equal(once[1], twice[1])


def test_field_dot_is_bilinear():
    a = rand_field(41, (4, 6))
    b = rand_field(42, (4, 6))
    c = rand_field(43, (4, 6))
    ab_c = field_dot(a + b, c)
    assert math.isclose(ab_c, field_dot(a, c) + field_dot(b, c), rel_tol=1e-12)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 7), (64, 64)])
def test_primitives_match_roll_reference_bit_for_bit(shape):
    z = rand_grid(1100 + shape[0], shape)
    w = rand_field(1200 + shape[1], shape)
    big = 3.0 * w  # some entries inside the ball, most outside
    want = {
        "gradient": roll_gradient(z),
        "divergence": roll_divergence(w),
        "projection": roll_projection(big),
    }

    def junk_field():
        return np.full((2, *shape), np.nan)

    g_out, d_out, p_out = junk_field(), np.full(shape, np.nan), junk_field()
    in_place = big.copy()
    assert discrete_gradient(z, out=g_out) is g_out
    assert divergence_into(w, d_out)() is d_out
    assert projection_into(big, p_out, junk_field())() is p_out
    assert projection_into(in_place, in_place, junk_field())() is in_place
    got = {
        "gradient": [discrete_gradient(z), g_out],
        "divergence": [divergence_adjoint(w), d_out],
        "projection": [project_dual_ball(big), p_out, in_place],
    }
    for name, results in got.items():
        for result in results:
            if name == "divergence":
                assert np.array_equal(result, want[name]), name
            else:
                assert np.array_equal(result[0], want[name][0]), name
                assert np.array_equal(result[1], want[name][1]), name


def _layouts(a):
    """Views of `a`'s values that are not C-contiguous arrays of its shape.

    `a` is a grid or a (2, n0, n1) field; "transposed" swaps the grid axes.
    """
    transposed = np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2)
    strided = np.empty((*a.shape[:-1], 2 * a.shape[-1]))
    strided[..., ::2] = a
    return {"transposed": transposed, "strided": strided[..., ::2], "fortran": np.asfortranarray(a)}


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 7), (64, 64)])
def test_primitives_read_any_memory_layout(shape):
    z = rand_grid(1300 + shape[0], shape)
    w = rand_field(1400 + shape[1], shape)
    lam = project_dual_ball(w)
    grad_ref, div_ref = roll_gradient(z), roll_divergence(w)
    prob = DenoiseProblem(xi=z, mu=1.5, constraint=NonnegativityConstraint())
    # each function of a field gives the bytes it gives on the C-contiguous field
    of_field = {
        "projection": lambda f, g: project_dual_ball(f),
        "norm": lambda f, g: pointwise_norm(f),
        "l21": lambda f, g: l21_norm(f),
        "dot": lambda f, g: field_dot(f, g),
        "dual value": lambda f, g: dual_value(prob, g),
    }
    want = {name: np.asarray(fn(w, lam)).tobytes() for name, fn in of_field.items()}
    w_views, lam_views = _layouts(w), _layouts(lam)
    for name, z_view in _layouts(z).items():
        assert not z_view.flags.c_contiguous or 1 in shape, name
        assert not w_views[name].flags.c_contiguous or 1 in shape, name
        grad = discrete_gradient(z_view)
        assert np.array_equal(grad[0], grad_ref[0]) and np.array_equal(grad[1], grad_ref[1]), name
        assert np.array_equal(divergence_adjoint(w_views[name]), div_ref), name
        for fn_name, fn in of_field.items():
            got = np.asarray(fn(w_views[name], lam_views[name])).tobytes()
            assert got == want[fn_name], (name, fn_name)


@pytest.mark.parametrize("layout", ["transposed", "strided", "fortran"])
def test_non_contiguous_out_is_rejected(layout):
    shape = (4, 6)
    z, w = rand_grid(1500, shape), rand_field(1501, shape)
    bad = _layouts(np.zeros(shape))[layout]
    with pytest.raises(ValueError, match="C-contiguous"):
        divergence_into(w, bad)
    bad_field = _layouts(np.zeros((2, *shape)))[layout]
    with pytest.raises(ValueError, match="C-contiguous"):
        discrete_gradient(z, out=bad_field)


_entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def grid_and_field(draw):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12))
    z, u, v = (draw(hnp.arrays(np.float64, shape, elements=_entries)) for _ in range(3))
    return z, np.array((u, v))


@settings(max_examples=200, deadline=None)
@given(grid_and_field())
def test_adjoint_identity_property(case):
    z, w = case
    grad, div = discrete_gradient(z), divergence_adjoint(w)
    lhs = field_dot(grad, w)
    rhs = float(np.vdot(z, div))
    scale = 1.0 + float(np.linalg.norm(z)) * math.sqrt(field_dot(w, w))
    assert abs(lhs - rhs) <= 1e-12 * scale
    ref = roll_gradient(z)
    assert np.array_equal(grad[0], ref[0]) and np.array_equal(grad[1], ref[1])
    assert np.array_equal(div, roll_divergence(w))


# Entries from 1e-200 to 1e150 in magnitude, plus a dense band around the
# unit circle where the projection's rounding matters.
_magnitudes = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
    st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.999), st.integers(-200, 149),
)
_wide_entries = st.one_of(st.just(0.0), _magnitudes, st.floats(-1.5, 1.5))


@st.composite
def wide_field(draw):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9))
    u, v = (draw(hnp.arrays(np.float64, shape, elements=_wide_entries)) for _ in range(2))
    return np.array((u, v))


def assert_same_field(a, b):
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@settings(max_examples=200, deadline=None)
@given(wide_field())
def test_projection_property_over_wide_magnitudes(field):
    once = project_dual_ball(field)
    assert np.all(np.isfinite(once[0])) and np.all(np.isfinite(once[1]))
    assert float(np.max(pointwise_norm(once))) <= 1.0
    assert_same_field(project_dual_ball(once), once)
    assert_same_field(once, roll_projection(field))

    shape = field.shape
    out, work = np.empty(shape), np.empty(shape)
    assert projection_into(field, out, work)() is out
    assert_same_field(out, once)
    in_place = field.copy()
    assert projection_into(in_place, in_place, work)() is in_place
    assert_same_field(in_place, once)


@settings(max_examples=100, deadline=None)
@given(wide_field())
def test_norm_and_l21_match_plain_expression(field):
    want = reference_norm(field)
    work = np.empty(field.shape)
    got = pointwise_norm(field, work)
    assert got.base is work and got.ctypes.data == work.ctypes.data and got.shape == work.shape[1:]
    assert np.array_equal(work[0], want) and np.array_equal(pointwise_norm(field), want)
    assert l21_norm(field, np.empty(field.shape)) == l21_norm(field)
    assert l21_norm(field) == float(np.sum(want))


def _field(entries):
    u, v = np.array(entries, dtype=float).T
    return np.array((u.reshape(1, -1), v.reshape(1, -1)))


_ULP = 2.0 ** -52
# (u, v) pairs whose squared length is at most 1 + 2^-52, so whose computed
# length is at most 1.0: (1, 2^-26) has squared length exactly 1 + 2^-52
_ON_THE_CIRCLE = [(1.0, 2.0 ** -26), (-1.0, 2.0 ** -26), (1.0, 0.0), (0.0, -1.0),
                  (1.0 - _ULP / 2, 0.0), (0.6, 0.8), (-0.8, 0.6), (0.25, 0.5)]
# just outside: each squared length rounds to 1 + 2^-51
_PAST_THE_CIRCLE = [(1.0 + _ULP, 0.0), (1.0, 1.5 * 2.0 ** -26), (0.0, -(1.0 + _ULP))]
_NAN_ENTRIES = [(np.nan, 0.3), (-0.7, np.nan), (np.nan, np.nan)]


@pytest.mark.parametrize("entries", [
    _ON_THE_CIRCLE,
    _ON_THE_CIRCLE + _PAST_THE_CIRCLE,
    _NAN_ENTRIES + [(0.1, -0.2)],
    _NAN_ENTRIES + _PAST_THE_CIRCLE + [(3.0, 4.0)],
], ids=["on-circle", "across-circle", "nan-inside", "nan-and-outside"])
def test_projection_at_the_unit_circle_matches_reference_bit_for_bit(entries):
    field = _field(entries)
    before = field[0].tobytes(), field[1].tobytes()
    want = roll_projection(field)
    out = np.full(field.shape, 7.0)
    in_place = field.copy()
    fresh = project_dual_ball(field)
    assert projection_into(field, out, np.empty(field.shape))() is out
    assert projection_into(in_place, in_place, np.empty(field.shape))() is in_place
    for got in (fresh, out, in_place):
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    # a new field even where nothing leaves the ball, and the input is only read
    assert not np.shares_memory(fresh[0], field[0]) and not np.shares_memory(fresh[1], field[1])
    assert (field[0].tobytes(), field[1].tobytes()) == before
    # entries that stay in the ball, nan components included, pass unchanged
    kept = [i for i, e in enumerate(entries) if e not in _PAST_THE_CIRCLE and e != (3.0, 4.0)]
    assert fresh[0][0, kept].tobytes() == field[0][0, kept].tobytes()
    assert fresh[1][0, kept].tobytes() == field[1][0, kept].tobytes()


@pytest.mark.parametrize("entries", [
    _ON_THE_CIRCLE,
    _ON_THE_CIRCLE + [(np.nextafter(1.0, 2.0), 0.0)],
    _ON_THE_CIRCLE + [(0.0, -1e200)],
    _ON_THE_CIRCLE + [(np.inf, 0.5)],
    _ON_THE_CIRCLE + [(0.2, np.nan)],
], ids=["on-circle", "next-after-one", "1e200", "inf", "nan"])
def test_in_unit_balls_decides_as_the_largest_computed_length(entries):
    # lengths of exactly 1 pass; one just past 1, one whose square overflows,
    # an infinite one and a nan each fail
    field = _field(entries)
    with np.errstate(over="ignore"):
        want = float(np.max(pointwise_norm(field))) <= 1.0
        assert in_unit_balls(field) is want
        assert in_unit_balls(np.asfortranarray(field)) is want
    assert want is (entries is _ON_THE_CIRCLE)


def test_overflowing_entries_project_to_zero_and_l21_is_inf():
    big = np.array(([[3e154, 0.5]], [[-2e200, 0.5]]))
    with np.errstate(over="ignore"):
        once = project_dual_ball(big)
        assert l21_norm(big) == math.inf
    assert np.array_equal(once[0], [[0.0, 0.5]]) and np.array_equal(once[1], [[0.0, 0.5]])
