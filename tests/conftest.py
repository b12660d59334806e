"""Shared helpers for the test suite.

Randomized tests draw from the package's own portable stream (lkreg.rng) so
every run sees identical data; no test depends on global RNG state.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from lkreg import pdhg
from lkreg.harness import MatrixProblem
from lkreg.rng import normals
from lkreg.tv import GradientField


def rand_grid(seed, shape):
    """Deterministic standard-normal grid."""
    return normals(seed, int(np.prod(shape))).reshape(shape)


def rand_field(seed, shape):
    """Deterministic gradient field with independent components."""
    n = int(np.prod(shape))
    vals = normals(seed, 2 * n)
    return GradientField(vals[:n].reshape(shape), vals[n:].reshape(shape))


def tiny_linear_problem(seed, domain_shape=(3, 4), rows=8, n_blocks=1, data=None):
    """Small dense linear forward problem wrapped as a MatrixProblem.

    With data=None the right-hand side is A applied to a deterministic truth
    grid; returns (problem, matrix, truth).
    """
    cols = domain_shape[0] * domain_shape[1]
    dense = normals(seed, rows * cols).reshape(rows, cols)
    matrix = sp.csr_matrix(dense)
    truth = rand_grid(seed + 1, domain_shape)
    if data is None:
        data = matrix @ truth.ravel()
    problem = MatrixProblem(matrix, data, domain_shape, n_blocks=n_blocks)
    return problem, matrix, truth


def solve_with_histories(prob, **kwargs):
    """`pdhg_solve(prob, **kwargs)` and the primal and dual value of every iterate.

    Records what the loop's value kernels return, in the order it evaluates
    them, and scales them by mu into the original variables, as the report's
    values are.  Returns (report, primal values, dual values).
    """
    p_hist, d_hist = [], []

    def recording(values, kernel):
        def wrapper(*args, **kw):
            value = kernel(*args, **kw)
            values.append(prob.mu * value)
            return value
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pdhg, "_primal_value_at", recording(p_hist, pdhg._primal_value_at))
        mp.setattr(pdhg, "_dual_value_at", recording(d_hist, pdhg._dual_value_at))
        report = pdhg.pdhg_solve(prob, **kwargs)
    return report, p_hist, d_hist


def roll_gradient(z):
    """Reference periodic forward differences, written with np.roll."""
    return GradientField(np.roll(z, -1, axis=0) - z, np.roll(z, -1, axis=1) - z)


def roll_divergence(field):
    """Reference transpose of `roll_gradient`, written with np.roll."""
    u, v = field.u, field.v
    return np.roll(u, 1, axis=0) - u + np.roll(v, 1, axis=1) - v


def reference_norm(field):
    """Reference pointwise length sqrt(u*u + v*v), as a plain expression."""
    return np.sqrt(field.u * field.u + field.v * field.v)


def roll_projection(field):
    """Reference dual-ball projection: divide by the inward-biased length."""
    norm = reference_norm(field)
    scale = np.where(norm > 1.0, norm * (1.0 + 2.0 ** -48), 1.0)
    return GradientField(field.u / scale, field.v / scale)


def kron_operator(c, mesh):
    """Reference elliptic assembly: the Laplacian rebuilt by `kron` per call."""
    m, h = mesh.m, mesh.h
    main = 2.0 * np.ones(m)
    off = -np.ones(m - 1)
    second = sp.diags((off, main, off), (-1, 0, 1), format="csr")
    eye = sp.identity(m, format="csr")
    lap = (sp.kron(second, eye) + sp.kron(eye, second)) / h ** 2
    cc = np.maximum(np.asarray(c, dtype=float), 0.0).ravel()
    if cc.size != m * m:
        raise ValueError("coefficient grid does not match the mesh")
    return (lap + sp.diags(cc)).tocsc()


def textbook_pcg(op, b, x0, rtol, max_iter):
    """Reference preconditioned CG over `op.matvec` and `op.precondition`.

    Stops once the residual norm is at most rtol ||b||; after max_iter
    updates without that, or for a non-finite b, the grid is NaN.  Returns
    (grid, updates taken).
    """
    tol = rtol * np.linalg.norm(b)
    if x0 is None or tol == 0.0 or not np.all(np.isfinite(x0)):
        x, r = np.zeros(b.shape), b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - op.matvec(x)
    res = np.linalg.norm(r)
    z = op.precondition(r)
    p, rz = z, np.vdot(r, z)
    iters = 0
    while res > tol and iters < max_iter:
        q = op.matvec(p)
        alpha = rz / np.vdot(p, q)
        x += alpha * p
        r -= alpha * q
        z = op.precondition(r)
        rz, rz_old = np.vdot(r, z), rz
        p = z + (rz / rz_old) * p
        res = np.linalg.norm(r)
        iters += 1
    return (x if res <= tol < math.inf else np.full(b.shape, np.nan)), iters


def loop_parallel_tomo(geom):
    """Reference system matrix, traced by one `trace_ray` call per ray.

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
            hit = trace_ray(px, py, dx, dy, q, planes)
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


def coo_parallel_tomo(geom):
    """Reference system matrix, assembled through one global COO matrix.

    Traces each angle's rays together like `build_parallel_tomo`, keeps
    int64 row and column arrays per angle, concatenates them and leaves
    the conversion, duplicate summing included, to `coo_matrix.tocsr`.
    """
    rows, cols, vals = coo_parallel_entries(geom)
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(geom.n_rows, geom.q * geom.q))
    return mat.tocsr()


def coo_parallel_entries(geom):
    """Every traced segment as int64 rows, int64 columns and lengths, duplicates kept."""
    q, n_rays = geom.q, geom.n_rays
    center = q / 2.0
    offsets = geom.offsets()
    planes = np.arange(q + 1, dtype=float)
    rows, cols, vals = [], [], []
    for a, angle_deg in enumerate(geom.angles):
        t = math.radians(angle_deg)
        ct, st = math.cos(t), math.sin(t)
        dx, dy = -st, ct
        px = center + offsets * ct
        py = center + offsets * st
        inside = np.ones(n_rays, dtype=bool)
        t_lo, t_hi = np.full(n_rays, -math.inf), np.full(n_rays, math.inf)
        crossings = []
        for p0, d in ((px, dx), (py, dy)):
            if abs(d) < 1e-14:
                inside &= (0.0 <= p0) & (p0 <= q)
                continue
            ts = (planes - p0[:, None]) / d
            lo, hi = (ts[:, 0], ts[:, -1]) if d > 0.0 else (ts[:, -1], ts[:, 0])
            t_lo, t_hi = np.maximum(t_lo, lo), np.minimum(t_hi, hi)
            crossings.append(ts)
        inside &= t_hi > t_lo
        t_lo, t_hi = t_lo[:, None], t_hi[:, None]
        ts = np.sort(np.clip(np.hstack(crossings + [t_lo, t_hi]), t_lo, t_hi), axis=1)
        lengths = np.diff(ts, axis=1)
        k, j = np.nonzero((lengths > 1e-12) & inside[:, None])
        lengths = lengths[k, j]
        mid = ts[k, j] + 0.5 * lengths
        ix = np.clip(np.floor(px[k] + mid * dx).astype(np.int64), 0, q - 1)
        iy = np.clip(np.floor(py[k] + mid * dy).astype(np.int64), 0, q - 1)
        rows.append(a * n_rays + k)
        cols.append(ix * q + iy)
        vals.append(lengths)
    return tuple(np.concatenate(v) for v in (rows, cols, vals))


def trace_ray(px, py, dx, dy, q, planes):
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
