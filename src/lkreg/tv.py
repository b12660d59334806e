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
    a field of z's shape not overlapping z, the differences are written into
    its arrays and `out` is returned.
    """
    if out is None:
        out = GradientField.empty(z.shape)
    u, v = out.u, out.v
    np.subtract(z[1:], z[:-1], out=u[:-1])
    np.subtract(z[:1], z[-1:], out=u[-1:])
    np.subtract(z[:, 1:], z[:, :-1], out=v[:, :-1])
    np.subtract(z[:, :1], z[:, -1:], out=v[:, -1:])
    return out


def divergence_adjoint(field, out=None):
    """Apply the exact transpose of `discrete_gradient` to a field.

    Each entry is ((u[i-1, j] - u[i, j]) + v[i, j-1]) - v[i, j], indices
    wrapping around, evaluated in that order.  With `out`, a grid of the
    field's shape not overlapping it, the result is written there.
    """
    u, v = field.u, field.v
    if out is None:
        out = np.empty(u.shape)
    np.subtract(u[-1:], u[:1], out=out[:1])
    np.subtract(u[:-1], u[1:], out=out[1:])
    np.add(out[:, :1], v[:, -1:], out=out[:, :1])
    np.add(out[:, 1:], v[:, :-1], out=out[:, 1:])
    np.subtract(out, v, out=out)
    return out


def l21_norm(field):
    """Sum over pixels of the pointwise Euclidean length sqrt(u^2 + v^2)."""
    return float(np.sum(np.hypot(field.u, field.v)))


def tv_value(z):
    """Isotropic total variation of a grid: l21 norm of its gradient."""
    return l21_norm(discrete_gradient(z))


# Shrinking by an extra half ulp or so leaves reprojected points strictly
# inside the unit ball, which makes a second projection an exact no-op.
_INWARD = 1.0 + 2.0 ** -48


def project_dual_ball(field, out=None):
    """Project a field onto pointwise Euclidean unit balls.

    Entries with sqrt(u^2 + v^2) <= 1 pass through unchanged; longer ones are
    divided by their length (biased slightly inward so the projection is
    idempotent in floating point).  With `out`, a field of the same shape
    (`field` itself is allowed), the result is written into its arrays.
    """
    norm = np.hypot(field.u, field.v)
    scale = np.where(norm > 1.0, norm * _INWARD, 1.0)
    if out is None:
        out = GradientField.empty(norm.shape)
    np.divide(field.u, scale, out=out.u)
    np.divide(field.v, scale, out=out.v)
    return out


def field_dot(a, b):
    """Euclidean inner product of two fields."""
    return float(np.vdot(a.u, b.u) + np.vdot(a.v, b.v))
