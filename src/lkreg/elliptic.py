"""Identification of the zeroth-order coefficient in an elliptic PDE.

The state equation is -Laplace(u) + c u = f on the unit square with
Dirichlet values u = g on the boundary, discretized by the standard 5-point
stencil on an m x m interior grid with spacing h = 1/(m+1); boundary values
are folded into the right-hand side.  The parameter-to-state map F(c) = u(c)
has

    F'(c) h  = -A(c)^{-1} (h . u(c))        (pointwise product)
    F'(c)* w = -u(c) . A(c)^{-1} w

with A(c) = -Laplace_h + diag(c), both solves with zero boundary data, so
one operator per coefficient serves the state and the adjoint.  A is
symmetric and, for c >= 0, positive definite; c is clamped at 0 first to
keep that guarantee for stray negative iterates.

`EllipticProblem` solves with A(c) by preconditioned conjugate gradients,
matrix-free: the Laplacian is built once per mesh and A(c) x is
`L @ x + c * x`.  The iteration is `scipy.sparse.linalg.cg`, whose floats
match the textbook loop operation for operation.  The preconditioner is
-Laplace_h + cbar I with cbar the mean of c, which the orthogonal sine
basis diagonalizes (Concus & Golub, SIAM J. Numer. Anal. 10, 1973).  Any
cbar in [min c, max c] bounds the preconditioned condition number by
(lambda_min + max c) / (lambda_min + min c), lambda_min ~ 2 pi^2, so a
handful of iterations reach the fixed relative residual.  A solve that hits
the iteration cap returns NaN, which the outer loop's non-finite stop ends.

`solve_state` stays exact: it factors A(c) with a sparse LU, the unknowns
ordered by multiple minimum degree on A + A^T.  It runs once per experiment,
to make the synthetic data, so the data do not come from the solver that
inverts them.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, cg, splu

from .engine import ForwardProblem
from .penalty import norm


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


@lru_cache(maxsize=4)
def _sine_basis(mesh):
    """Orthogonal sine matrix S and the eigenvalue grid of -Laplace_h.

    S is symmetric with S S = I, and -Laplace_h u = S ((S u S) * lam) S for
    a grid u, where lam[j, k] = lam_j + lam_k sums the 1-D eigenvalues.
    """
    m, h = mesh.m, mesh.h
    j = np.arange(1, m + 1)
    s = math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(j, j) / (m + 1))
    lam = 4.0 / h ** 2 * np.sin(np.pi * j / (2.0 * (m + 1))) ** 2
    return s, lam[:, None] + lam[None, :]


def _clamped(c, mesh):
    cc = np.maximum(np.asarray(c, dtype=float), 0.0)
    if cc.size != mesh.m * mesh.m:
        raise ValueError("coefficient grid does not match the mesh")
    return cc


def assemble_operator(c, mesh):
    """Sparse CSC matrix of -Laplace_h + diag(max(c, 0)) on the interior nodes."""
    return (_laplacian(mesh) + sp.diags(_clamped(c, mesh).ravel())).tocsc()


def factorize(c, mesh):
    """Sparse LU of A(c), columns ordered by minimum degree on A + A^T."""
    return splu(assemble_operator(c, mesh), permc_spec="MMD_AT_PLUS_A")


# PCG stops at this residual norm relative to the right-hand side's, or
# returns NaN after this many iterations (c up to 1e6 takes under 100 at
# m = 100).
_PCG_RTOL = 1e-14
_PCG_MAX_ITER = 1000


class PcgOperator:
    """A(c) = -Laplace_h + diag(max(c, 0)), solved by sine-preconditioned CG."""

    def __init__(self, c, mesh):
        self.shape = (mesh.m, mesh.m)
        self._c = _clamped(c, mesh).reshape(self.shape)
        self._lap = _laplacian(mesh)
        self._sine, lam = _sine_basis(mesh)
        self._inv = 1.0 / (lam + self._c.mean())

    def matvec(self, x):
        return (self._lap @ x.ravel()).reshape(self.shape) + self._c * x

    def precondition(self, r):
        s = self._sine
        return s @ ((s @ r @ s) * self._inv) @ s

    def solve(self, b, x0=None):
        """Grid x with A x = b, started from x0 if it is finite and b is not 0.

        The iteration is scipy's `cg`.  Returns NaN if the residual stays
        above the tolerance after the iteration cap, or if b is not finite.
        """
        b = np.asarray(b, dtype=float).ravel()
        b_norm = norm(b)
        if not math.isfinite(b_norm):
            return np.full(self.shape, np.nan)
        if b_norm == 0.0:
            return np.zeros(self.shape)  # cg would hand back b itself
        if x0 is not None and not np.all(np.isfinite(x0)):
            x0 = None
        # cg tests the residual before each update, so one more pass keeps
        # the cap at _PCG_MAX_ITER updates.
        x, info = cg(
            _on_vectors(self.matvec, self.shape), b,
            x0=None if x0 is None else np.ravel(x0), rtol=_PCG_RTOL, atol=0.0,
            maxiter=_PCG_MAX_ITER + 1, M=_on_vectors(self.precondition, self.shape),
        )
        return x.reshape(self.shape) if info == 0 else np.full(self.shape, np.nan)


def _on_vectors(grid_map, shape):
    """`grid_map` on grids of `shape` as a LinearOperator on flat vectors."""
    n = math.prod(shape)
    return LinearOperator((n, n), matvec=lambda v: grid_map(v.reshape(shape)).ravel(), dtype=float)


def boundary_contribution(mesh, g):
    """Right-hand-side grid carrying the constant Dirichlet value g, scaled by 1/h^2."""
    out = np.zeros((mesh.m, mesh.m))
    out[0, :] += g
    out[-1, :] += g
    out[:, 0] += g
    out[:, -1] += g
    return out / mesh.h ** 2


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
    """Single-block forward problem c -> u(c) with a cached PCG operator.

    The operator, state, and right-hand side belong to the most recent
    coefficient; passing a new grid replaces them, so one outer iteration
    sets up exactly one operator.  The state solve starts from the previous
    state; the adjoint solve starts from zero.
    """

    def __init__(self, mesh, f, g, data):
        self.mesh = mesh
        self.domain_shape = (mesh.m, mesh.m)
        self._data = np.asarray(data, dtype=float)
        if self._data.shape != self.domain_shape:
            raise ValueError("data grid does not match the mesh")
        self._rhs = np.asarray(f, dtype=float) + boundary_contribution(mesh, g)
        self._key = None
        self._op = None
        self._state = None

    def _operator(self, c):
        key = np.asarray(c, dtype=float).tobytes()
        if key != self._key:
            self._op = PcgOperator(c, self.mesh)
            self._state = self._op.solve(self._rhs, x0=self._state)
            self._key = key
        return self._op, self._state

    def apply(self, i, x):
        _, u = self._operator(x)
        return u

    def adjoint(self, i, x, w):
        op, u = self._operator(x)
        return -u * op.solve(w)

    def data(self, i):
        return self._data

