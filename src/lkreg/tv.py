"""Discrete gradient machinery for isotropic total variation on 2-D grids.

Forward differences with periodic wrap-around in both directions; the
divergence below is the exact (negative-free) matrix transpose of the
gradient, so adjoint identities hold to rounding error.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GradientField:
    """Pair of component arrays (u, v), one per grid direction."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.u.shape != self.v.shape:
            raise ValueError("gradient components must share a shape")

    @classmethod
    def zeros(cls, shape):
        return cls(np.zeros(shape), np.zeros(shape))

    @classmethod
    def empty(cls, shape):
        """A field of uninitialized float arrays, to be written into."""
        return cls(np.empty(shape), np.empty(shape))

    @property
    def shape(self):
        return self.u.shape


def discrete_gradient(z, out=None):
    """Periodic forward differences along both axes.

    Component u holds differences along the first index (with the last row
    wrapping to the first), component v along the second index.  With `out`,
    a field of C-contiguous arrays of z's shape not overlapping z, the
    differences are written into its arrays and `out` is returned.
    """
    if out is None:
        out = GradientField.empty(z.shape)
    u, v = out.u, out.v
    v_flat, z_flat = _flat_view(v), z.ravel()
    np.subtract(z[1:], z[:-1], out=u[:-1])
    np.subtract(z[:1], z[-1:], out=u[-1:])
    # one contiguous pass along the rows; at the last column it runs on into
    # the next row, and the wrap-around differences overwrite those entries
    np.subtract(z_flat[1:], z_flat[:-1], out=v_flat[:-1])
    np.subtract(z[:, :1], z[:, -1:], out=v[:, -1:])
    return out


def divergence_adjoint(field, out=None):
    """Apply the exact transpose of `discrete_gradient` to a field.

    Each entry is ((u[i-1, j] - u[i, j]) + v[i, j-1]) - v[i, j], indices
    wrapping around, evaluated in that order.  With `out`, a C-contiguous
    grid of the field's shape not overlapping it, the result is written there.
    """
    u, v = field.u, field.v
    if out is None:
        out = np.empty(u.shape)
    flat = _flat_view(out)
    np.subtract(u[-1:], u[:1], out=out[:1])
    np.subtract(u[:-1], u[1:], out=out[1:])
    # column 0 takes v from the last column; the contiguous pass below
    # would add the previous row's last entry there instead
    first = np.add(out[:, :1], v[:, -1:])
    np.add(flat[1:], v.ravel()[:-1], out=flat[1:])
    out[:, :1] = first
    np.subtract(out, v, out=out)
    return out


def _flat_view(a):
    """A 1-D view of `a` for writing; ValueError unless `a` is C-contiguous."""
    if not a.flags.c_contiguous:
        raise ValueError("out arrays must be C-contiguous")
    return a.reshape(-1)


def pointwise_norm(field, work=None):
    """Pointwise Euclidean length sqrt(u*u + v*v) of a field.

    `work`, an optional field of the same shape, holds the squares: the
    length is written into `work.u`, which is returned, and `work.v` is
    overwritten.  The squares overflow for entries above about 1e154,
    where the length is inf.
    """
    if work is None:
        work = GradientField.empty(field.shape)
    norm, scratch = work.u, work.v
    np.multiply(field.u, field.u, out=norm)
    np.multiply(field.v, field.v, out=scratch)
    np.add(norm, scratch, out=norm)
    return np.sqrt(norm, out=norm)


def l21_norm(field, work=None):
    """Sum over pixels of the pointwise length; inf once a square overflows.

    `work` is passed on to `pointwise_norm`.
    """
    return float(np.sum(pointwise_norm(field, work)))


def tv_value(z):
    """Isotropic total variation of a grid: l21 norm of its gradient."""
    return l21_norm(discrete_gradient(z))


# Dividing by the length times _INWARD instead of the length leaves a
# reprojected entry strictly inside the unit ball, so that a second
# projection passes it through unchanged: the computed length, from two
# rounded squares, a rounded sum and a rounded sqrt, and the two divisions
# err by a few ulp (about 2^-52 each), well inside the 2^-48 margin.  An
# entry above about 1e154 has an infinite computed length and maps to 0,
# which is still inside the ball.
_INWARD = 1.0 + 2.0 ** -48


def project_dual_ball(field, out=None, work=None):
    """Project a field onto pointwise Euclidean unit balls.

    Entries whose length (see `pointwise_norm`) is <= 1 pass through
    unchanged; longer ones are divided by their length times _INWARD, so
    that the projection is idempotent in floating point.  With `out`, a
    field of the same shape (`field` itself is allowed), the result is
    written into its arrays; `work`, a field of the same shape distinct from
    both, is overwritten with scratch values.
    """
    if work is None:
        work = GradientField.empty(field.shape)
    norm = pointwise_norm(field, work)
    scale = np.where(norm > 1.0, np.multiply(norm, _INWARD, out=work.v), 1.0)
    if out is None:
        out = GradientField.empty(field.shape)
    np.divide(field.u, scale, out=out.u)
    np.divide(field.v, scale, out=out.v)
    return out


def field_dot(a, b):
    """Euclidean inner product of two fields."""
    return float(np.vdot(a.u, b.u) + np.vdot(a.v, b.v))
