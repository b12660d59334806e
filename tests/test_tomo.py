"""Tomography: geometry, matrix assembly, phantom, noise, matrix I/O."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lkreg.harness import ct_geometry, make_config
from lkreg.rng import normals, uniforms
from lkreg.tomo import (
    PHANTOM_ELLIPSES,
    TomoGeometry,
    TomoProblem,
    add_relative_gaussian_noise,
    build_parallel_tomo,
    default_ray_count,
    evenly_spaced_angles,
    load_matrix_coo,
    save_matrix_coo,
    shepp_logan,
    _entry_bounds,
    _rays,
)

from conftest import coo_parallel_entries, coo_parallel_tomo, loop_parallel_tomo


def chord_length(px, py, dx, dy, q):
    """Slab-clipped length of a unit-speed line inside [0, q]^2."""
    t_lo, t_hi = -math.inf, math.inf
    for p0, d in ((px, dx), (py, dy)):
        if abs(d) < 1e-14:
            if not 0.0 <= p0 <= q:
                return 0.0
            continue
        a, b = (0.0 - p0) / d, (q - p0) / d
        t_lo = max(t_lo, min(a, b))
        t_hi = min(t_hi, max(a, b))
    return max(t_hi - t_lo, 0.0)


def test_default_ray_count_frozen():
    assert default_ray_count(64) == 92
    assert default_ray_count(32) == 46
    assert default_ray_count(256) == 363


def test_geometry_validation():
    with pytest.raises(ValueError):
        TomoGeometry(q=0, angles=np.array([0.0]))
    with pytest.raises(ValueError):
        TomoGeometry(q=4, angles=np.array([]))
    with pytest.raises(ValueError):
        TomoGeometry(q=4, angles=np.array([0.0, 0.0, 10.0]))
    with pytest.raises(ValueError):
        TomoGeometry(q=4, angles=np.array([0.0, 180.0]))
    with pytest.raises(ValueError):
        TomoGeometry(q=4, angles=np.array([-1.0, 10.0]))
    with pytest.raises(ValueError):
        TomoGeometry(q=4, angles=np.array([0.0]), detector_spacing=0.0)


@pytest.mark.parametrize("angles, spacing", [
    ([math.nan], 1.0),
    ([0.0, math.nan], 1.0),
    ([0.0, math.inf], 1.0),
    ([0.0], math.inf),
    ([0.0], math.nan),
], ids=["nan-angle", "second-angle-nan", "inf-angle", "inf-spacing", "nan-spacing"])
def test_geometry_refuses_non_finite_angles_and_spacing(angles, spacing):
    with pytest.raises(ValueError, match="finite"):
        TomoGeometry(q=4, angles=np.array(angles), detector_spacing=spacing)


def test_rays_past_the_float_range_miss_the_grid_without_a_warning():
    # warnings are errors under pytest, so a numpy overflow here fails the test
    angles = evenly_spaced_angles(4)
    centre = build_parallel_tomo(TomoGeometry(q=8, angles=angles, n_rays=1)).toarray()
    far = build_parallel_tomo(
        TomoGeometry(q=8, angles=angles, n_rays=11, detector_spacing=3e307)).toarray()
    assert far.shape == (44, 64)
    rows = far.reshape(4, 11, 64)
    assert np.array_equal(rows[:, 5], centre)
    assert not np.delete(rows, 5, axis=1).any()
    # the outer offsets overflow to inf, and no ray meets the grid
    overflowing = TomoGeometry(q=8, angles=angles, detector_spacing=1e308)
    assert build_parallel_tomo(overflowing).nnz == 0


def test_geometry_defaults_and_offsets():
    geom = TomoGeometry(q=32, angles=evenly_spaced_angles(10))
    assert geom.n_rays == 46 and geom.n_rows == 460
    offs = geom.offsets()
    assert np.array_equal(offs, -offs[::-1])  # symmetric about the center
    assert offs[1] - offs[0] == 1.0
    wide = TomoGeometry(q=4, angles=np.array([0.0]), n_rays=3, detector_spacing=2.0)
    assert np.array_equal(wide.offsets(), [-2.0, 0.0, 2.0])


def test_evenly_spaced_angles():
    assert np.allclose(evenly_spaced_angles(4), [0.0, 45.0, 90.0, 135.0])
    assert np.allclose(evenly_spaced_angles(3, start=5.0, step=6.0), [5.0, 11.0, 17.0])


def test_axis_aligned_rays_exact():
    # two vertical rays through a 2 x 2 grid: one full column each
    geom = TomoGeometry(q=2, angles=np.array([0.0]), n_rays=2)
    dense = build_parallel_tomo(geom).toarray()
    assert np.array_equal(dense, [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    # horizontal rays pick out rows of the image instead
    geom = TomoGeometry(q=2, angles=np.array([90.0]), n_rays=2)
    dense = build_parallel_tomo(geom).toarray()
    assert np.array_equal(dense, [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])


def test_row_sums_equal_chord_lengths():
    q = 13
    angles = np.sort(uniforms(77, 7)) * 179.0
    geom = TomoGeometry(q=q, angles=angles)
    mat = build_parallel_tomo(geom)
    sums = np.asarray(mat.sum(axis=1)).ravel()
    center = q / 2.0
    row = 0
    for angle in angles:
        t = math.radians(angle)
        for rho in geom.offsets():
            want = chord_length(
                center + rho * math.cos(t), center + rho * math.sin(t),
                -math.sin(t), math.cos(t), q,
            )
            assert sums[row] == pytest.approx(want, abs=1e-9)
            row += 1
    assert row == mat.shape[0] >= 100


def test_row_sums_for_degenerate_directions():
    q = 5
    geom = TomoGeometry(q=q, angles=np.array([0.0, 90.0]))
    sums = np.asarray(build_parallel_tomo(geom).sum(axis=1)).ravel()
    offs = geom.offsets()
    for block in range(2):
        for k, rho in enumerate(offs):
            want = float(q) if abs(rho) <= q / 2.0 else 0.0
            assert sums[block * len(offs) + k] == pytest.approx(want, abs=1e-12)


def test_entry_and_sparsity_bounds():
    geom = TomoGeometry(q=16, angles=evenly_spaced_angles(12, start=1.0))
    mat = build_parallel_tomo(geom)
    assert np.all(mat.data > 0.0)
    assert np.all(mat.data <= math.sqrt(2.0) + 1e-12)
    per_row = np.diff(mat.indptr)
    assert per_row.max() <= 2 * 16


def test_matrix_adjoint_identity():
    geom = TomoGeometry(q=9, angles=evenly_spaced_angles(5, start=3.0))
    mat = build_parallel_tomo(geom)
    f = normals(5, 81)
    g = normals(6, mat.shape[0])
    lhs = float((mat @ f) @ g)
    rhs = float(f @ (mat.T @ g))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_phantom_frozen_samples():
    img = shepp_logan(64)
    assert img.shape == (64, 64)
    assert img[0, 0] == 0.0 and img[63, 63] == 0.0
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert img[31, 31] == pytest.approx(0.2, rel=1e-12)
    assert img[24, 31] == 0.0
    assert img[31, 43] == pytest.approx(0.3, rel=1e-12)


def test_phantom_against_pointwise_rasterizer():
    q = 32
    img = shepp_logan(q)
    ref = np.zeros((q, q))
    for i in range(q):
        x = -1.0 + (2 * i + 1) / q
        for j in range(q):
            y = -1.0 + (2 * j + 1) / q
            v = 0.0
            for x0, y0, a, b, phi_deg, value in PHANTOM_ELLIPSES:
                phi = math.radians(phi_deg)
                xr = (x - x0) * math.cos(phi) + (y - y0) * math.sin(phi)
                yr = -(x - x0) * math.sin(phi) + (y - y0) * math.cos(phi)
                if (xr / a) ** 2 + (yr / b) ** 2 <= 1.0:
                    v += value
            ref[i, j] = min(max(v, 0.0), 1.0)
    assert np.allclose(img, ref, atol=1e-14)
    assert np.array_equal(img > 0, ref > 0)


def test_phantom_support_fraction():
    img = shepp_logan(256)
    frac = float(np.mean(img > 0))
    assert 0.3 < frac < 0.7


def test_noise_norm_is_exact():
    g = normals(11, 300) + 3.0
    noisy, delta_abs = add_relative_gaussian_noise(g, 0.05, seed=4)
    assert delta_abs == pytest.approx(0.05 * np.linalg.norm(g), rel=1e-15)
    assert np.linalg.norm(noisy - g) == pytest.approx(delta_abs, rel=1e-12)


def test_noise_edge_cases():
    g = np.ones(10)
    out, delta_abs = add_relative_gaussian_noise(g, 0.0, seed=1)
    assert delta_abs == 0.0 and np.array_equal(out, g) and out is not g
    a, da = add_relative_gaussian_noise(g, 0.1, seed=1)
    b, db = add_relative_gaussian_noise(g, 0.1, seed=2)
    assert da == db and not np.array_equal(a, b)
    with pytest.raises(ValueError):
        add_relative_gaussian_noise(np.zeros(4), 0.1, seed=1)
    with pytest.raises(ValueError):
        add_relative_gaussian_noise(g, -0.1, seed=1)


@pytest.mark.parametrize("g,delta_rel", [
    (np.ones(10), math.nan),
    (np.ones(10), math.inf),
    (np.ones(10), 1e308),  # finite, but delta_abs = 1e308 * ||g|| overflows
    (np.array([1.0, math.inf]), 0.1),
    (np.array([1.0, math.nan]), 0.1),
    (np.full(4, 1e200), 0.1),  # finite entries whose norm overflows
])
def test_noise_refuses_non_finite_levels_and_data(g, delta_rel):
    with pytest.raises(ValueError):
        add_relative_gaussian_noise(g, delta_rel, seed=1)


def test_problem_blocks_partition_the_matrix():
    geom = TomoGeometry(q=8, angles=evenly_spaced_angles(6, start=2.0))
    mat = build_parallel_tomo(geom)
    sino = normals(21, mat.shape[0])
    x = normals(22, 64).reshape(8, 8)
    for n_blocks in (1, 2, 3, 4):
        prob = TomoProblem(mat, sino, geom, n_blocks=n_blocks)
        assert prob.num_blocks == n_blocks
        full = np.concatenate([prob.apply(i, x) for i in range(n_blocks)])
        assert np.allclose(full, mat @ x.ravel(), atol=1e-13)
        assert np.array_equal(np.concatenate([prob.data(i) for i in range(n_blocks)]), sino)
        assert np.array_equal(prob.derivative(0, x, x), prob.apply(0, x))


def test_problem_adjoint_blocks():
    geom = TomoGeometry(q=6, angles=evenly_spaced_angles(4, start=7.0))
    mat = build_parallel_tomo(geom)
    prob = TomoProblem(mat, np.zeros(mat.shape[0]), geom, n_blocks=2)
    x = normals(31, 36).reshape(6, 6)
    for i in range(2):
        w = normals(40 + i, prob.apply(i, x).size)
        lhs = float(prob.apply(i, x) @ w)
        rhs = float(np.vdot(x, prob.adjoint(i, x, w)))
        assert lhs == pytest.approx(rhs, rel=1e-12)
    with pytest.raises(ValueError):
        prob.adjoint(0, x, np.zeros(3))


def test_problem_rejects_mismatched_shapes():
    geom = TomoGeometry(q=4, angles=evenly_spaced_angles(3))
    mat = build_parallel_tomo(geom)
    with pytest.raises(ValueError):
        TomoProblem(mat[:, :15], np.zeros(mat.shape[0]), geom)
    with pytest.raises(ValueError):
        TomoProblem(mat, np.zeros(5), geom)
    with pytest.raises(ValueError):
        TomoProblem(mat, np.zeros(mat.shape[0]), geom, n_blocks=0)
    with pytest.raises(ValueError):
        TomoProblem(mat, np.zeros(mat.shape[0]), geom, n_blocks=4)


def test_matrix_io_roundtrip(tmp_path):
    geom = TomoGeometry(q=5, angles=evenly_spaced_angles(3, start=11.0))
    mat = build_parallel_tomo(geom)
    path = tmp_path / "mat.txt"
    save_matrix_coo(path, mat)
    back = load_matrix_coo(path)
    assert back.shape == mat.shape
    assert (back != mat).nnz == 0


def test_matrix_io_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 3\n")
    with pytest.raises(ValueError):
        load_matrix_coo(bad)
    bad.write_text("2 2 1\n0 1\n")
    with pytest.raises(ValueError):
        load_matrix_coo(bad)


@pytest.mark.parametrize("geom", [
    TomoGeometry(q=1, angles=evenly_spaced_angles(4)),
    TomoGeometry(q=7, angles=np.array([0.0, 90.0])),
    TomoGeometry(q=9, angles=np.array([45.0])),
    ct_geometry(make_config(preset="ct-desk")),
    TomoGeometry(q=3, angles=np.array([0.0, 90.0]), n_rays=5, detector_spacing=1.3),
], ids=["q1", "axis-parallel", "diagonal", "ct-desk", "outer-rays-miss"])
def test_tracer_matches_per_ray_reference_byte_for_byte(geom):
    mat, ref = build_parallel_tomo(geom), loop_parallel_tomo(geom)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(mat, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    if geom.q == 3:
        # the outermost rays at offset +-2.6 pass beside the 3x3 grid
        assert np.count_nonzero(np.diff(mat.indptr) == 0) == 4


def test_matrix_load_rejects_entries_past_the_count(tmp_path):
    path = tmp_path / "extra.txt"
    path.write_text("4 4 2\n0 0 1.0\n1 1 1.0\n2 2 1.0\n3 3 1.0\n")
    with pytest.raises(ValueError, match="line 4"):
        load_matrix_coo(path)
    path.write_text("4 4 2\n0 0 1.0\n1 1 1.0\n\n  \n")
    assert load_matrix_coo(path).nnz == 2


@pytest.mark.parametrize("geom", [
    TomoGeometry(q=1, angles=evenly_spaced_angles(3)),
    TomoGeometry(q=2, angles=evenly_spaced_angles(5, start=3.0)),
    TomoGeometry(q=17, angles=evenly_spaced_angles(12)),
    TomoGeometry(q=64, angles=evenly_spaced_angles(30, start=1.0, step=6.0)),
    TomoGeometry(q=17, angles=np.array([0.0, 90.0]), n_rays=24),
    TomoGeometry(q=17, angles=np.array([0.0, 90.0]), n_rays=25),
    TomoGeometry(q=8, angles=evenly_spaced_angles(6), n_rays=9, detector_spacing=2.5),
    TomoGeometry(q=17, angles=np.array([33.0])),
    TomoGeometry(q=2, angles=np.array([10.0, 100.0]), n_rays=2, detector_spacing=100.0),
], ids=["q1", "q2", "q17", "q64", "axis-even-rays", "axis-odd-rays", "spacing-2.5",
        "one-angle", "all-miss"])
def test_tracer_matches_the_global_coo_assembly_byte_for_byte(geom):
    mat, ref = build_parallel_tomo(geom), coo_parallel_tomo(geom)
    assert mat.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(mat, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    if geom.detector_spacing > 1.0:
        # the outer rays (offsets up to +-10 and +-50) pass beside the grid
        assert np.any(np.diff(mat.indptr) == 0)


def test_tracer_peak_memory_stays_near_the_matrix_it_returns():
    geom = TomoGeometry(q=128, angles=evenly_spaced_angles(30))
    tracemalloc.start()
    try:
        mat = build_parallel_tomo(geom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert peak <= 2.5 * kept, peak / kept


def test_tracer_builds_in_arrays_sized_before_tracing():
    geom = TomoGeometry(q=128, angles=evenly_spaced_angles(30))
    tracemalloc.start()
    try:
        mat = build_parallel_tomo(geom)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert peak <= 1.5 * kept, peak / kept
    # an oversized base kept alive behind a view would still be traced
    assert held <= 1.05 * kept, held / kept


# angles on and near the axes, where one direction component is 0 or tiny
AXIS_ANGLES = [0.0, 1e-9, 45.0, 90.0 - 1e-9, 90.0, 90.0 + 1e-9, 135.0, 180.0 - 1e-9]


@st.composite
def random_geometry(draw):
    q = draw(st.integers(1, 40))
    angle = st.sampled_from(AXIS_ANGLES) | st.floats(0.0, 180.0, exclude_max=True)
    angles = sorted(draw(st.sets(angle, min_size=1, max_size=8)))
    n_rays = draw(st.integers(0, 80))  # 0 picks the default ray count
    spacing = draw(st.sampled_from([0.5, 1.0, 2.5]) | st.floats(1e-3, 50.0))
    return TomoGeometry(q=q, angles=np.array(angles), n_rays=n_rays, detector_spacing=spacing)


@settings(max_examples=150, deadline=None)
@given(random_geometry())
def test_tracer_matches_the_coo_assembly_and_its_entry_bounds_property(geom):
    mat, ref = build_parallel_tomo(geom), coo_parallel_tomo(geom)
    assert mat.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(mat, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    rows, _, _ = coo_parallel_entries(geom)
    traced = np.bincount(rows, minlength=geom.n_rows)
    bounds = _entry_bounds(*_rays(geom)[2:]).ravel()
    assert np.all(traced <= bounds), np.flatnonzero(traced > bounds)


def test_one_block_problem_holds_its_matrix_once():
    geom = TomoGeometry(q=8, angles=evenly_spaced_angles(6, start=2.0))
    mat = build_parallel_tomo(geom)
    prob = TomoProblem(mat, np.zeros(mat.shape[0]), geom)
    block = prob._blocks[0]
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(block, name), getattr(prob.matrix, name)), name
    x = normals(51, 64).reshape(8, 8)
    w = normals(52, mat.shape[0])
    assert prob.apply(0, x).tobytes() == (mat @ x.ravel()).tobytes()
    assert prob.adjoint(0, x, w).tobytes() == (mat.T @ w).reshape(8, 8).tobytes()
