"""Parallel-beam tomography: system matrix, block operator, phantom, noise, I/O.

The image is a q x q grid of unit-side pixels covering [0, q]^2; image array
index [i, j] is the cell [i, i+1] x [j, j+1], flattened in C order.  For a
projection angle of theta degrees the rays run along (-sin t, cos t) and are
offset from the grid center along (cos t, sin t) by uniformly spaced signed
detector positions.  Each matrix entry is the exact length of the segment in
which a ray intersects a pixel, accumulated by walking the sorted parametric
crossings of the pixel grid (Siddon's method); each ray is crossed only with
the grid lines its span inside the square can reach.  Rows of rays that miss
the grid are kept as all-zero rows, and are not traced, so the sinogram
layout stays angle-major with a fixed ray count per angle.
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .engine import ForwardProblem
from .penalty import norm
from .rng import normals


def default_ray_count(q):
    """Detector count covering the grid diagonal at unit spacing."""
    return int(round(math.sqrt(2.0) * q)) + 1


@dataclass(frozen=True, eq=False)
class TomoGeometry:
    """Grid size, projection angles in degrees, and detector layout."""

    q: int
    angles: np.ndarray
    n_rays: int = 0
    detector_spacing: float = 1.0

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("grid size q must be at least 1")
        angles = np.asarray(self.angles, dtype=float)
        if angles.ndim != 1 or angles.size == 0:
            raise ValueError("angles must be a nonempty 1-D array")
        if not np.all(np.isfinite(angles)):
            raise ValueError("angles must be finite")
        if np.any(np.diff(angles) <= 0.0):
            raise ValueError("angles must be strictly increasing")
        if angles[0] < 0.0 or angles[-1] >= 180.0:
            raise ValueError("angles must lie in [0, 180) degrees")
        if not 0.0 < self.detector_spacing < math.inf:
            raise ValueError("detector spacing must be positive and finite")
        object.__setattr__(self, "angles", angles)
        if self.n_rays == 0:
            object.__setattr__(self, "n_rays", default_ray_count(self.q))
        if self.n_rays < 1:
            raise ValueError("ray count must be at least 1")

    @property
    def n_angles(self):
        return len(self.angles)

    @property
    def n_rows(self):
        return self.n_angles * self.n_rays

    def offsets(self):
        """Signed detector offsets, symmetric about the grid center."""
        k = np.arange(self.n_rays, dtype=float)
        return (k - (self.n_rays - 1) / 2.0) * self.detector_spacing


@np.errstate(over="ignore")  # an angle past the float range is refused by TomoGeometry
def evenly_spaced_angles(count, start=0.0, step=None):
    """`count` angles from `start` with spacing `step` (default 180/count)."""
    if step is None:
        step = 180.0 / count
    return start + step * np.arange(count, dtype=float)


def _rays(geom):
    """Every ray's start point, direction and span inside [0, q]^2, angle-major.

    Returns (px, py, dx, dy, t_lo, t_hi, inside): the start points and spans
    have shape (n_angles, n_rays), the direction components one entry per
    angle.  Each axis's span runs between its two boundary lines, 0 and q;
    `inside` marks the rays whose span [t_lo, t_hi] has positive length.
    """
    q = geom.q
    radians = [math.radians(a) for a in geom.angles]
    ct = np.array([math.cos(t) for t in radians])
    st = np.array([math.sin(t) for t in radians])
    dx, dy = -st, ct
    offsets = geom.offsets()
    px = q / 2.0 + offsets * ct[:, None]
    py = q / 2.0 + offsets * st[:, None]
    inside = np.ones(px.shape, dtype=bool)
    t_lo, t_hi = np.full(px.shape, -math.inf), np.full(px.shape, math.inf)
    for p0, d in ((px, dx), (py, dy)):
        # a ray parallel to this axis crosses none of its lines and meets
        # the grid only if it starts on it
        parallel = (np.abs(d) < 1e-14)[:, None]
        inside &= ~parallel | ((0.0 <= p0) & (p0 <= q))
        d = np.where(parallel, 1.0, d[:, None])
        first, last = (0.0 - p0) / d, (q - p0) / d
        t_lo = np.maximum(t_lo, np.where(parallel, -math.inf, np.minimum(first, last)))
        t_hi = np.minimum(t_hi, np.where(parallel, math.inf, np.maximum(first, last)))
    inside &= t_hi > t_lo
    return px, py, dx, dy, t_lo, t_hi, inside


def _entry_bounds(dx, dy, t_lo, t_hi, inside):
    """Most entries each ray can contribute, shape (n_angles, n_rays).

    A span of length L meets at most floor(|d| L) + 1 grid lines of an axis
    strictly inside it, and its segments are one more than the lines it
    meets, so floor(|dx| L) + floor(|dy| L) + 3 bounds the entries; the
    1e-6 inside each floor absorbs the rounding of the crossing parameters.
    Rays that miss the grid contribute nothing.
    """
    span = t_hi - t_lo
    bound = (np.floor(np.abs(dx)[:, None] * span + 1e-6)
             + np.floor(np.abs(dy)[:, None] * span + 1e-6) + 3.0)
    return np.where(inside, bound, 0.0).astype(np.int64)


def _crossings(p0, d, lo, hi, q):
    """Crossing parameters of each ray with the lines of one axis its span can reach.

    `p0` holds the rays' start coordinates along the axis and (lo, hi) their
    spans, all as columns; `d` is the direction component.  A ray's window
    runs over consecutive lines from floor(min coordinate over its span) - 1
    to ceil(max) + 1, clamped to [0, q].  A line left out lies a unit or
    more outside that range, so its parameter lies beyond a span end and
    would clip to it.  Every window takes the widest one's width; the
    planes that pad a narrower one past q have parameters beyond plane q's,
    which lies at or beyond a span end too.  So, once clipped to the span,
    the windows give the same values strictly inside it as all q + 1 lines.
    """
    ends = p0 + np.hstack([lo, hi]) * d
    first = np.clip(np.floor(ends.min(axis=1, keepdims=True)) - 1.0, 0.0, q)
    last = np.clip(np.ceil(ends.max(axis=1, keepdims=True)) + 1.0, 0.0, q)
    ts = first + np.arange(int((last - first).max()) + 1)
    ts -= p0
    ts /= d
    return ts


@np.errstate(over="ignore", invalid="ignore")  # from rays that miss the grid
def build_parallel_tomo(geom):
    """Assemble the sparse system matrix for a parallel-beam geometry.

    Returns a CSR matrix of shape (n_angles * n_rays, q * q); row order is
    angle-major.  Entries are exact intersection lengths, so each row sums to
    the chord length its ray cuts through the square [0, q]^2.  A ray offset so
    far that its start or span overflows misses the grid, so its row is zero.

    A first pass computes every ray's span [t_lo, t_hi] inside the square
    from the two boundary lines of each axis and bounds its entry count
    from the span's length (`_entry_bounds`), so the value and column
    arrays are allocated once, before any ray is traced.

    The rays of one angle that meet the grid are then traced together: each
    row of `ts` holds one ray's span ends and its crossing parameters with
    the grid lines its span can reach (`_crossings`), clipped to the span
    and sorted, so the positive gaps between neighbours are the segments the
    ray cuts.  One flat index picks those gaps; the lengths are written in
    place, and the same index, shifted by one per row above, finds each
    gap's left end for its midpoint's pixel.  The entries arrive row by row
    (angle-major, rays in order), so each angle writes its lengths, columns
    and per-ray counts after the previous angle's.  The arrays are then
    shrunk to the entries written, `indptr` is the running sum of the
    counts, and scipy's `sum_duplicates` canonicalises the matrix once,
    sorting each row's columns and adding up the segments of one ray that
    land in the same pixel.  The build thus peaks at the matrix plus one
    angle's scratch.
    """
    q, n_rays = geom.q, geom.n_rays
    px, py, dx, dy, t_lo, t_hi, inside = _rays(geom)
    capacity = int(_entry_bounds(dx, dy, t_lo, t_hi, inside).sum())
    vals = np.empty(capacity)
    cols = np.empty(capacity, dtype=sp.get_index_dtype(maxval=q * q))
    indptr = np.zeros(geom.n_rows + 1, dtype=np.int64)
    end = 0
    for a in range(geom.n_angles):
        rays = np.flatnonzero(inside[a])
        if not rays.size:
            continue
        x0, y0 = px[a, rays], py[a, rays]
        lo, hi = t_lo[a, rays, None], t_hi[a, rays, None]
        ts = np.hstack([_crossings(p0[:, None], d[a], lo, hi, q)
                        for p0, d in ((x0, dx), (y0, dy)) if abs(d[a]) >= 1e-14] + [lo, hi])
        ts.clip(lo, hi, out=ts)
        ts.sort(axis=1)
        lengths = np.diff(ts, axis=1)
        keep = lengths > 1e-12
        counts = np.count_nonzero(keep, axis=1)
        flat = np.flatnonzero(keep)
        start, end = end, end + flat.size
        seg = np.take(lengths, flat, out=vals[start:end])
        mid = np.take(ts, flat + np.repeat(np.arange(rays.size), counts)) + 0.5 * seg
        ix = np.clip(np.floor(np.repeat(x0, counts) + mid * dx[a]).astype(np.int64), 0, q - 1)
        iy = np.clip(np.floor(np.repeat(y0, counts) + mid * dy[a]).astype(np.int64), 0, q - 1)
        cols[start:end] = ix * q + iy
        indptr[1 + a * n_rays + rays] = counts
    # a view of the oversized arrays would make scipy's prune copy them
    vals.resize(end, refcheck=False)
    cols.resize(end, refcheck=False)
    np.cumsum(indptr, out=indptr)
    mat = sp.csr_matrix((vals, cols, indptr), shape=(geom.n_rows, q * q))
    mat.sum_duplicates()
    return mat


# Ellipses of the standard head phantom in its low-contrast variant:
# (x0, y0, half-axis a, half-axis b, rotation in degrees, additive value)
# on the square [-1, 1]^2.
PHANTOM_ELLIPSES = (
    (0.0, 0.0, 0.69, 0.92, 0.0, 1.0),
    (0.0, -0.0184, 0.6624, 0.874, 0.0, -0.8),
    (0.22, 0.0, 0.11, 0.31, -18.0, -0.2),
    (-0.22, 0.0, 0.16, 0.41, 18.0, -0.2),
    (0.0, 0.35, 0.21, 0.25, 0.0, 0.1),
    (0.0, 0.1, 0.046, 0.046, 0.0, 0.1),
    (0.0, -0.1, 0.046, 0.046, 0.0, 0.1),
    (-0.08, -0.605, 0.046, 0.023, 0.0, 0.1),
    (0.0, -0.606, 0.023, 0.023, 0.0, 0.1),
    (0.06, -0.605, 0.023, 0.046, 0.0, 0.1),
)


def shepp_logan(q):
    """Head phantom on a q x q grid with values clamped to [0, 1].

    Pixel centers sample [-1, 1]^2; the first array index runs along x.
    """
    coords = -1.0 + (2.0 * np.arange(q) + 1.0) / q
    x, y = np.meshgrid(coords, coords, indexing="ij")
    img = np.zeros((q, q))
    for x0, y0, a, b, phi_deg, value in PHANTOM_ELLIPSES:
        phi = math.radians(phi_deg)
        c, s = math.cos(phi), math.sin(phi)
        xr = (x - x0) * c + (y - y0) * s
        yr = -(x - x0) * s + (y - y0) * c
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += value
    return np.clip(img, 0.0, 1.0)


def add_relative_gaussian_noise(g, delta_rel, seed):
    """Perturb `g` so that ||g_noisy - g|| = delta_rel * ||g|| exactly.

    A standard normal vector from the seeded portable stream is rescaled to
    the prescribed length, which makes the absolute noise level
    delta_abs = delta_rel * ||g|| exact rather than merely expected.
    Returns (g_noisy, delta_abs).  ValueError for a negative or non-finite
    delta_rel and, unless delta_rel is 0, for data that is zero, not finite
    or so large that delta_abs overflows.
    """
    g = np.asarray(g, dtype=float)
    if not (math.isfinite(delta_rel) and delta_rel >= 0.0):
        raise ValueError(f"relative noise level must be finite and nonnegative; got {delta_rel!r}")
    if delta_rel == 0.0:
        return g.copy(), 0.0
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        g_norm = norm(g)
    if not math.isfinite(g_norm):
        raise ValueError("cannot scale noise relative to data whose norm is not finite")
    if g_norm == 0.0:
        raise ValueError("cannot scale noise relative to zero data")
    delta_abs = delta_rel * g_norm
    if not math.isfinite(delta_abs):
        raise ValueError(f"the absolute noise level {delta_rel!r} * {g_norm!r} overflows")
    e = normals(seed, g.size).reshape(g.shape)
    e_norm = norm(e)
    if e_norm == 0.0:  # pragma: no cover - measure-zero draw
        raise ValueError("degenerate zero noise draw")
    return g + (delta_abs / e_norm) * e, delta_abs


class MatrixProblem(ForwardProblem):
    """Linear problem A x = y on a grid-shaped unknown, split into row blocks.

    The rows of A form groups of `group_rows` consecutive rows; the blocks
    are `n_blocks` contiguous runs of whole groups, as even as possible.
    """

    def __init__(self, matrix, data, domain_shape, n_blocks=1, group_rows=1):
        rows = matrix.shape[0]
        if matrix.shape[1] != domain_shape[0] * domain_shape[1]:
            raise ValueError("matrix width disagrees with the domain shape")
        if rows % group_rows:
            raise ValueError("matrix rows do not form whole row groups")
        data = np.asarray(data, dtype=float).ravel()
        if data.size != rows:
            raise ValueError("data length disagrees with the matrix")
        groups = rows // group_rows
        if not 1 <= n_blocks <= groups:
            raise ValueError(f"n_blocks = {n_blocks} must lie in [1, {groups}]")
        self.matrix = matrix.tocsr()
        self.num_blocks = n_blocks
        self.domain_shape = domain_shape
        runs = np.array_split(np.arange(groups), n_blocks)
        slices = [slice(r[0] * group_rows, (r[-1] + 1) * group_rows) for r in runs]
        # one block is the whole matrix: a row slice would copy every array
        self._blocks = [self.matrix] if n_blocks == 1 else [self.matrix[s] for s in slices]
        # CSC views kept once: `.T` builds a new matrix object on every call
        self._transposes = [b.T for b in self._blocks]
        self._data = [data[s] for s in slices]

    def apply(self, i, x):
        return self._blocks[i] @ np.asarray(x).ravel()

    def adjoint(self, i, x, w):
        w = np.asarray(w, dtype=float).ravel()
        if w.size != self._blocks[i].shape[0]:
            raise ValueError("adjoint input length disagrees with the block")
        return (self._transposes[i] @ w).reshape(self.domain_shape)

    def data(self, i):
        return self._data[i]


class TomoProblem(MatrixProblem):
    """Tomography forward problem; its blocks are runs of whole angles."""

    def __init__(self, matrix, sinogram, geom, n_blocks=1):
        if matrix.shape != (geom.n_rows, geom.q * geom.q):
            raise ValueError("matrix shape disagrees with the geometry")
        super().__init__(matrix, sinogram, (geom.q, geom.q), n_blocks, group_rows=geom.n_rays)


def save_matrix_coo(path, matrix):
    """Write a sparse matrix as text: header `M Q NNZ`, then `row col value`.

    Indices are zero-based; values carry 17 significant digits so float64
    entries round-trip exactly.
    """
    coo = sp.coo_matrix(matrix)
    coo.sum_duplicates()
    with open(path, "w") as fh:
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v:.17g}\n")


def read_rows(lines, dtype=float, comments="#"):
    """`np.loadtxt` over `lines`, at least 1-D; no data rows give zero rows, not a warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # older numpy truncates `1.5` in an integer field with only a DeprecationWarning
        warnings.filterwarnings("error", category=DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, comments=comments, ndmin=1)


_COO_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


def load_matrix_coo(path):
    """Read a sparse matrix written by `save_matrix_coo`; returns CSR."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError("malformed matrix header")
        m, q, nnz = (int(t) for t in header)
        if min(m, q, nnz) < 0:
            raise ValueError(f"malformed matrix header {' '.join(header)!r}: "
                             "negative size or entry count")
        entries = read_rows(itertools.islice(fh, nnz), dtype=_COO_ENTRY, comments=None)
        if entries.size != nnz:
            raise ValueError(f"expected {nnz} matrix entries, found {entries.size}")
        for line_no, line in enumerate(fh, start=nnz + 2):
            if line.strip():
                raise ValueError(f"entry on line {line_no} past the header's count of {nnz}")
    vals = entries["value"]
    if not np.all(np.isfinite(vals)):
        raise ValueError("matrix entries must be finite")
    return sp.coo_matrix((vals, (entries["row"], entries["col"])), shape=(m, q)).tocsr()
