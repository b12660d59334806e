"""Discrete gradient, divergence transpose, TV value, dual-ball projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lkreg.tv import (
    GradientField,
    discrete_gradient,
    divergence_adjoint,
    field_dot,
    l21_norm,
    pointwise_norm,
    project_dual_ball,
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
    assert not np.any(g.u) and not np.any(g.v)


def test_gradient_hand_example_2x2():
    g = discrete_gradient(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(g.u, [[2.0, 2.0], [-2.0, -2.0]])
    assert np.array_equal(g.v, [[1.0, -1.0], [1.0, -1.0]])


def test_gradient_single_pixel_wraps_to_zero():
    g = discrete_gradient(np.array([[4.2]]))
    assert g.u[0, 0] == 0.0 and g.v[0, 0] == 0.0


def test_component_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        GradientField(np.zeros((2, 3)), np.zeros((3, 2)))


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
        math.hypot(f.u[i, j], f.v[i, j]) for i in range(5) for j in range(5)
    )
    assert math.isclose(l21_norm(f), want, rel_tol=1e-13)


def test_projection_leaves_interior_points_alone():
    f = GradientField(np.array([[0.3]]), np.array([[0.4]]))
    p = project_dual_ball(f)
    assert p.u[0, 0] == 0.3 and p.v[0, 0] == 0.4


def test_projection_radial_example():
    p = project_dual_ball(GradientField(np.array([[3.0]]), np.array([[4.0]])))
    assert math.isclose(p.u[0, 0], 0.6, rel_tol=1e-12)
    assert math.isclose(p.v[0, 0], 0.8, rel_tol=1e-12)


def test_projection_lands_inside_and_is_idempotent():
    for seed in range(20):
        f = rand_field(700 + seed, (8, 8))
        big = GradientField(10.0 * f.u, 10.0 * f.v)
        once = project_dual_ball(big)
        assert float(np.max(np.hypot(once.u, once.v))) <= 1.0
        twice = project_dual_ball(once)
        assert np.array_equal(once.u, twice.u) and np.array_equal(once.v, twice.v)


def test_field_dot_is_bilinear():
    a = rand_field(41, (4, 6))
    b = rand_field(42, (4, 6))
    c = rand_field(43, (4, 6))
    ab_c = field_dot(GradientField(a.u + b.u, a.v + b.v), c)
    assert math.isclose(ab_c, field_dot(a, c) + field_dot(b, c), rel_tol=1e-12)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 7), (64, 64)])
def test_primitives_match_roll_reference_bit_for_bit(shape):
    z = rand_grid(1100 + shape[0], shape)
    w = rand_field(1200 + shape[1], shape)
    big = GradientField(3.0 * w.u, 3.0 * w.v)  # some entries inside the ball, most outside
    want = {
        "gradient": roll_gradient(z),
        "divergence": roll_divergence(w),
        "projection": roll_projection(big),
    }

    def junk_field():
        return GradientField(np.full(shape, np.nan), np.full(shape, np.nan))

    g_out, d_out, p_out = junk_field(), np.full(shape, np.nan), junk_field()
    in_place = GradientField(big.u.copy(), big.v.copy())
    assert discrete_gradient(z, out=g_out) is g_out
    assert divergence_adjoint(w, out=d_out) is d_out
    assert project_dual_ball(big, out=p_out) is p_out
    assert project_dual_ball(in_place, out=in_place) is in_place
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
                assert np.array_equal(result.u, want[name].u), name
                assert np.array_equal(result.v, want[name].v), name


def _layouts(a):
    """Views of `a`'s values that are not C-contiguous arrays of its shape."""
    m, n = a.shape
    transposed = np.ascontiguousarray(a.T).T
    strided = np.empty((m, 2 * n))
    strided[:, ::2] = a
    return {"transposed": transposed, "strided": strided[:, ::2], "fortran": np.asfortranarray(a)}


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 7), (64, 64)])
def test_primitives_read_any_memory_layout(shape):
    z = rand_grid(1300 + shape[0], shape)
    w = rand_field(1400 + shape[1], shape)
    grad_ref, div_ref = roll_gradient(z), roll_divergence(w)
    z_views, u_views, v_views = _layouts(z), _layouts(w.u), _layouts(w.v)
    for name, z_view in z_views.items():
        assert not z_view.flags.c_contiguous or 1 in shape, name
        grad = discrete_gradient(z_view)
        assert np.array_equal(grad.u, grad_ref.u) and np.array_equal(grad.v, grad_ref.v), name
        div = divergence_adjoint(GradientField(u_views[name], v_views[name]))
        assert np.array_equal(div, div_ref), name


@pytest.mark.parametrize("layout", ["transposed", "strided", "fortran"])
def test_non_contiguous_out_is_rejected(layout):
    shape = (4, 6)
    z, w = rand_grid(1500, shape), rand_field(1501, shape)
    bad = _layouts(np.zeros(shape))[layout]
    with pytest.raises(ValueError, match="C-contiguous"):
        discrete_gradient(z, out=GradientField(np.empty(shape), bad))
    with pytest.raises(ValueError, match="C-contiguous"):
        divergence_adjoint(w, out=bad)


_entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def grid_and_field(draw):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12))
    z, u, v = (draw(hnp.arrays(np.float64, shape, elements=_entries)) for _ in range(3))
    return z, GradientField(u, v)


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
    assert np.array_equal(grad.u, ref.u) and np.array_equal(grad.v, ref.v)
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
    return GradientField(u, v)


def assert_same_field(a, b):
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


@settings(max_examples=200, deadline=None)
@given(wide_field())
def test_projection_property_over_wide_magnitudes(field):
    once = project_dual_ball(field)
    assert np.all(np.isfinite(once.u)) and np.all(np.isfinite(once.v))
    assert float(np.max(pointwise_norm(once))) <= 1.0
    assert_same_field(project_dual_ball(once), once)
    assert_same_field(once, roll_projection(field))

    shape = field.shape
    out, work = GradientField.empty(shape), GradientField.empty(shape)
    assert project_dual_ball(field, out=out, work=work) is out
    assert_same_field(out, once)
    assert_same_field(project_dual_ball(field, work=GradientField.empty(shape)), once)
    in_place = GradientField(field.u.copy(), field.v.copy())
    assert project_dual_ball(in_place, out=in_place, work=work) is in_place
    assert_same_field(in_place, once)


@settings(max_examples=100, deadline=None)
@given(wide_field())
def test_norm_and_l21_match_plain_expression(field):
    want = reference_norm(field)
    work = GradientField.empty(field.shape)
    assert pointwise_norm(field, work) is work.u
    assert np.array_equal(work.u, want) and np.array_equal(pointwise_norm(field), want)
    assert l21_norm(field, GradientField.empty(field.shape)) == l21_norm(field)
    assert l21_norm(field) == float(np.sum(want))


def test_overflowing_entries_project_to_zero_and_l21_is_inf():
    big = GradientField(np.array([[3e154, 0.5]]), np.array([[-2e200, 0.5]]))
    with np.errstate(over="ignore"):
        once = project_dual_ball(big)
        assert l21_norm(big) == math.inf
    assert np.array_equal(once.u, [[0.0, 0.5]]) and np.array_equal(once.v, [[0.0, 0.5]])
