"""Identification of the zeroth-order coefficient in an elliptic PDE.

The state equation is -Laplace(u) + c u = f on the unit square with
Dirichlet values u = g on the boundary, discretized by the standard 5-point
stencil on an m x m interior grid with spacing h = 1/(m+1); boundary values
are folded into the right-hand side.  The parameter-to-state map F(c) = u(c)
has

    F'(c) h  = -A(c)^{-1} (h . u(c))        (pointwise product)
    F'(c)* w = -u(c) . A(c)^{-1} w

with A(c) = -Laplace_h + diag(c), both solves with zero boundary data, so a
single sparse factorization of A(c) serves the state, the derivative, and
the adjoint.  A is symmetric and, for c >= 0, positive definite; c is
clamped at 0 before assembly to keep that guarantee for stray negative
iterates.

Only the diagonal depends on c: the Laplacian is built once per mesh and
cached, and each assembly adds diag(c) to it.  `factorize` orders the
unknowns by multiple minimum degree on A + A^T, which suits the symmetric
5-point pattern and gives a sparser LU than SuperLU's default COLAMD.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .engine import ForwardProblem


@dataclass(frozen=True)
class Mesh:
    """Interior m x m grid of the unit square, spacing h = 1/(m+1)."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("mesh size m must be at least 1")

    @property
    def h(self):
        return 1.0 / (self.m + 1)

    def coords(self):
        """1-D interior node coordinates (i+1) h, shared by both axes."""
        return (np.arange(self.m) + 1.0) * self.h

    def grids(self):
        """Coordinate grids X, Y with the first array index along x."""
        c = self.coords()
        return np.meshgrid(c, c, indexing="ij")


@lru_cache(maxsize=4)
def _laplacian(mesh):
    """Sparse -Laplace_h on the interior nodes, shared by every assembly.

    Callers only add to it, which builds a new matrix and leaves it intact.
    """
    m, h = mesh.m, mesh.h
    main = 2.0 * np.ones(m)
    off = -np.ones(m - 1)
    second = sp.diags((off, main, off), (-1, 0, 1), format="csr")
    eye = sp.identity(m, format="csr")
    return (sp.kron(second, eye) + sp.kron(eye, second)) / h ** 2


def assemble_operator(c, mesh):
    """Sparse CSC matrix of -Laplace_h + diag(max(c, 0)) on the interior nodes."""
    cc = np.maximum(np.asarray(c, dtype=float), 0.0).ravel()
    if cc.size != mesh.m * mesh.m:
        raise ValueError("coefficient grid does not match the mesh")
    return (_laplacian(mesh) + sp.diags(cc)).tocsc()


def factorize(c, mesh):
    """Sparse LU of A(c), columns ordered by minimum degree on A + A^T."""
    return splu(assemble_operator(c, mesh), permc_spec="MMD_AT_PLUS_A")


def boundary_contribution(mesh, g):
    """Right-hand-side grid carrying the Dirichlet data, scaled by 1/h^2.

    `g` is either a constant or a callable g(x, y) evaluated at boundary
    points.
    """
    m, h = mesh.m, mesh.h
    out = np.zeros((m, m))
    coords = mesh.coords()
    if callable(g):
        out[0, :] += g(0.0, coords)
        out[-1, :] += g(1.0, coords)
        out[:, 0] += g(coords, 0.0)
        out[:, -1] += g(coords, 1.0)
    else:
        out[0, :] += g
        out[-1, :] += g
        out[:, 0] += g
        out[:, -1] += g
    return out / h ** 2


def solve_state(c, mesh, f, g=0.0):
    """Solve -Laplace(u) + c u = f with Dirichlet data g; returns u as a grid."""
    op = factorize(c, mesh)
    rhs = np.asarray(f, dtype=float) + boundary_contribution(mesh, g)
    return op.solve(rhs.ravel()).reshape(mesh.m, mesh.m)


def default_source(x, y):
    """Gaussian load 200 exp(-10 (x-1/2)^2 - 10 (y-1/2)^2)."""
    return 200.0 * np.exp(-10.0 * (x - 0.5) ** 2 - 10.0 * (y - 0.5) ** 2)


def default_coefficient(mesh):
    """Piecewise-constant test coefficient: two disjoint rectangular blobs."""
    x, y = mesh.grids()
    c = np.zeros((mesh.m, mesh.m))
    c[(0.15 <= x) & (x <= 0.4) & (0.15 <= y) & (y <= 0.4)] = 1.0
    c[(0.55 <= x) & (x <= 0.85) & (0.5 <= y) & (y <= 0.8)] = 2.0
    return c


def default_problem(m):
    """Mesh, source grid, boundary constant, and true coefficient at size m."""
    mesh = Mesh(m)
    x, y = mesh.grids()
    return mesh, default_source(x, y), 1.0, default_coefficient(mesh)


class EllipticProblem(ForwardProblem):
    """Single-block forward problem c -> u(c) with cached factorization.

    The factorization, state, and right-hand side belong to the most recent
    coefficient; passing a new grid invalidates them, so one outer iteration
    pays for exactly one assembly and factorization.
    """

    num_blocks = 1

    def __init__(self, mesh, f, g, data):
        self.mesh = mesh
        self.f = np.asarray(f, dtype=float)
        self.g = g
        self.domain_shape = (mesh.m, mesh.m)
        self._data = np.asarray(data, dtype=float)
        if self._data.shape != self.domain_shape:
            raise ValueError("data grid does not match the mesh")
        self._rhs_boundary = boundary_contribution(mesh, g)
        self._key = None
        self._lu = None
        self._state = None

    def _factorize(self, c):
        key = np.asarray(c, dtype=float).tobytes()
        if key != self._key:
            self._lu = factorize(c, self.mesh)
            rhs = self.f + self._rhs_boundary
            self._state = self._lu.solve(rhs.ravel()).reshape(self.domain_shape)
            self._key = key
        return self._lu, self._state

    def apply(self, i, x):
        _, u = self._factorize(x)
        return u

    def derivative(self, i, x, h):
        lu, u = self._factorize(x)
        rhs = (np.asarray(h, dtype=float) * u).ravel()
        return -lu.solve(rhs).reshape(self.domain_shape)

    def adjoint(self, i, x, w):
        lu, u = self._factorize(x)
        v = lu.solve(np.asarray(w, dtype=float).ravel()).reshape(self.domain_shape)
        return -u * v

    def data(self, i):
        return self._data


def manufactured_error(m):
    """Max-norm error of the scheme against u = sin(pi x) sin(pi y), c = 1.

    The exact solution solves -Laplace(u) + u = (2 pi^2 + 1) u with zero
    boundary data; the discrete error decays like h^2.
    """
    mesh = Mesh(m)
    x, y = mesh.grids()
    exact = np.sin(math.pi * x) * np.sin(math.pi * y)
    f = (2.0 * math.pi ** 2 + 1.0) * exact
    u = solve_state(np.ones((m, m)), mesh, f, 0.0)
    return float(np.max(np.abs(u - exact)))
