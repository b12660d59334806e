"""Parallel-beam tomography: system matrix, phantom, noise, matrix I/O.

The image is a q x q grid of unit-side pixels covering [0, q]^2; image array
index [i, j] is the cell [i, i+1] x [j, j+1], flattened in C order.  For a
projection angle of theta degrees the rays run along (-sin t, cos t) and are
offset from the grid center along (cos t, sin t) by uniformly spaced signed
detector positions.  Each matrix entry is the exact length of the segment in
which a ray intersects a pixel, accumulated by walking the sorted parametric
crossings of the pixel grid (Siddon's method).  Rows of rays that miss the
grid are kept as all-zero rows so the sinogram layout stays angle-major with
a fixed ray count per angle.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .engine import ForwardProblem
from .rng import normals


def default_ray_count(q):
    """Detector count covering the grid diagonal at unit spacing."""
    return int(round(math.sqrt(2.0) * q)) + 1


@dataclass(frozen=True)
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
        if np.any(np.diff(angles) <= 0.0):
            raise ValueError("angles must be strictly increasing")
        if angles[0] < 0.0 or angles[-1] >= 180.0:
            raise ValueError("angles must lie in [0, 180) degrees")
        if not self.detector_spacing > 0.0:
            raise ValueError("detector spacing must be positive")
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


def evenly_spaced_angles(count, start=0.0, step=None):
    """`count` angles from `start` with spacing `step` (default 180/count)."""
    if step is None:
        step = 180.0 / count
    return start + step * np.arange(count, dtype=float)


def build_parallel_tomo(geom):
    """Assemble the sparse system matrix for a parallel-beam geometry.

    Returns a CSR matrix of shape (n_angles * n_rays, q * q); row order is
    angle-major.  Entries are exact intersection lengths, so each row sums to
    the chord length its ray cuts through the square [0, q]^2.
    """
    q = geom.q
    center = q / 2.0
    offsets = geom.offsets()
    planes = np.arange(q + 1, dtype=float)
    rows, cols, vals = [], [], []
    for a, angle_deg in enumerate(geom.angles):
        t = math.radians(angle_deg)
        ct, st = math.cos(t), math.sin(t)
        dx, dy = -st, ct
        for k, rho in enumerate(offsets):
            px = center + rho * ct
            py = center + rho * st
            hit = _trace_ray(px, py, dx, dy, q, planes)
            if hit is None:
                continue
            idx, lengths = hit
            row = a * geom.n_rays + k
            rows.append(np.full(idx.shape, row, dtype=np.int64))
            cols.append(idx)
            vals.append(lengths)
    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
    else:  # pragma: no cover - every sane geometry hits the grid
        rows = np.zeros(0, dtype=np.int64)
        cols = np.zeros(0, dtype=np.int64)
        vals = np.zeros(0)
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(geom.n_rows, q * q))
    return mat.tocsr()


def _trace_ray(px, py, dx, dy, q, planes):
    """Crossing parameters of one unit-speed ray with the pixel grid.

    Returns (flat pixel indices, segment lengths) or None for a miss.
    """
    t_lo, t_hi = -math.inf, math.inf
    crossings = []
    for p0, d in ((px, dx), (py, dy)):
        if abs(d) < 1e-14:
            if not 0.0 <= p0 <= q:
                return None
            continue
        ts = (planes - p0) / d
        lo, hi = (ts[0], ts[-1]) if d > 0.0 else (ts[-1], ts[0])
        t_lo, t_hi = max(t_lo, lo), min(t_hi, hi)
        crossings.append(ts)
    if t_hi <= t_lo or not crossings:
        return None
    ts = np.concatenate(crossings)
    ts = ts[(ts > t_lo) & (ts < t_hi)]
    ts = np.unique(np.concatenate((ts, [t_lo, t_hi])))
    lengths = np.diff(ts)
    keep = lengths > 1e-12
    if not np.any(keep):
        return None
    mid = ts[:-1] + 0.5 * lengths
    mx = px + mid[keep] * dx
    my = py + mid[keep] * dy
    ix = np.clip(np.floor(mx).astype(np.int64), 0, q - 1)
    iy = np.clip(np.floor(my).astype(np.int64), 0, q - 1)
    return ix * q + iy, lengths[keep]


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
    Returns (g_noisy, delta_abs).
    """
    g = np.asarray(g, dtype=float)
    if delta_rel < 0.0:
        raise ValueError("relative noise level must be nonnegative")
    if delta_rel == 0.0:
        return g.copy(), 0.0
    g_norm = float(np.linalg.norm(g))
    if g_norm == 0.0:
        raise ValueError("cannot scale noise relative to zero data")
    e = normals(seed, g.size).reshape(g.shape)
    e_norm = float(np.linalg.norm(e))
    if e_norm == 0.0:  # pragma: no cover - measure-zero draw
        raise ValueError("degenerate zero noise draw")
    delta_abs = delta_rel * g_norm
    return g + (delta_abs / e_norm) * e, delta_abs


class TomoProblem(ForwardProblem):
    """Linear tomography forward problem, optionally split into angle blocks.

    The system matrix rows are partitioned into `n_blocks` contiguous groups
    of whole angles; block boundaries never cut through an angle.
    """

    def __init__(self, matrix, sinogram, geom, n_blocks=1):
        if matrix.shape != (geom.n_rows, geom.q * geom.q):
            raise ValueError("matrix shape disagrees with the geometry")
        sinogram = np.asarray(sinogram, dtype=float).ravel()
        if sinogram.size != geom.n_rows:
            raise ValueError("sinogram length disagrees with the geometry")
        if not 1 <= n_blocks <= geom.n_angles:
            raise ValueError("block count must lie in [1, n_angles]")
        self.geom = geom
        self.matrix = matrix.tocsr()
        self.num_blocks = n_blocks
        self.domain_shape = (geom.q, geom.q)
        angle_groups = np.array_split(np.arange(geom.n_angles), n_blocks)
        self._row_slices = [
            slice(g[0] * geom.n_rays, (g[-1] + 1) * geom.n_rays) for g in angle_groups
        ]
        self._blocks = [self.matrix[s] for s in self._row_slices]
        self._data = [sinogram[s] for s in self._row_slices]

    def apply(self, i, x):
        return self._blocks[i] @ np.asarray(x).ravel()

    def derivative(self, i, x, h):
        return self.apply(i, h)

    def adjoint(self, i, x, w):
        w = np.asarray(w, dtype=float).ravel()
        if w.size != self._blocks[i].shape[0]:
            raise ValueError("adjoint input length disagrees with the block")
        return (self._blocks[i].T @ w).reshape(self.domain_shape)

    def data(self, i):
        return self._data[i]


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


def load_matrix_coo(path):
    """Read a sparse matrix written by `save_matrix_coo`; returns CSR."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError("malformed matrix header")
        m, q, nnz = (int(t) for t in header)
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz)
        for k in range(nnz):
            parts = fh.readline().split()
            if len(parts) != 3:
                raise ValueError(f"malformed matrix entry on line {k + 2}")
            rows[k] = int(parts[0])
            cols[k] = int(parts[1])
            vals[k] = float(parts[2])
    if not np.all(np.isfinite(vals)):
        raise ValueError("matrix entries must be finite")
    return sp.coo_matrix((vals, (rows, cols)), shape=(m, q)).tocsr()
