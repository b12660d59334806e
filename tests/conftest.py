"""Shared helpers for the test suite.

Randomized tests draw from the package's own portable stream (lkreg.rng) so
every run sees identical data; no test depends on global RNG state.
"""

import numpy as np
import scipy.sparse as sp

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
