"""Isotropic total variation machinery on 2-D grids, and the one inner product.

Forward differences with periodic wrap-around in both directions; the
divergence below is the exact (negative-free) matrix transpose of the
gradient, so adjoint identities hold to rounding error.

A field (a gradient, a dual variable, scratch) is a float array of shape
(2, n0, n1) whose halves u = f[0] and v = f[1] hold one component per grid
direction, so one ufunc call treats both.  Fields the package makes are
C-contiguous; the public functions read fields of any layout.
"""

import numpy as np


def discrete_gradient(z, out=None):
    """Periodic forward differences along both axes.

    Component u holds differences along the first index (with the last row
    wrapping to the first), component v along the second index.  With `out`,
    a C-contiguous field of z's shape not overlapping z, the differences are
    written into it and `out` is returned.
    """
    if out is None:
        out = np.empty((2, *z.shape))
    u, v = out
    v_flat, z_flat = _flat_view(v), z.ravel()
    np.subtract(z[1:], z[:-1], out=u[:-1])
    np.subtract(z[:1], z[-1:], out=u[-1:])
    # one contiguous pass along the rows; at the last column it runs on into
    # the next row, and the wrap-around differences overwrite those entries
    np.subtract(z_flat[1:], z_flat[:-1], out=v_flat[:-1])
    np.subtract(z[:, :1], z[:, -1:], out=v[:, -1:])
    return out


def divergence_adjoint(field):
    """Apply the exact transpose of `discrete_gradient` to a field, as a new grid.

    Each entry is ((u[i-1, j] - u[i, j]) + v[i, j-1]) - v[i, j], indices
    wrapping around, evaluated in that order.
    """
    return divergence_into(np.ascontiguousarray(field), np.empty(field.shape[1:]))()


def divergence_into(field, out):
    """Bind `divergence_adjoint(field)` with `out` as its result.

    Returns a function of no arguments that writes the divergence of the
    values `field` holds at the time of the call into `out` and returns
    `out`.  The views it works on and its column scratch are made here,
    once, in `out`'s dtype; the field and `out` must be C-contiguous and
    must not overlap.
    """
    u, v = field
    flat, v_flat = _flat_view(out), _flat_view(v)
    u_last, u_first, u_head, u_tail = u[-1:], u[:1], u[:-1], u[1:]
    out_first_row, out_rest = out[:1], out[1:]
    out_col0, v_col_last = out[:, :1], v[:, -1:]
    flat_tail, v_head = flat[1:], v_flat[:-1]
    first = np.empty(out_col0.shape, out.dtype)

    def divergence():
        np.subtract(u_last, u_first, out=out_first_row)
        np.subtract(u_head, u_tail, out=out_rest)
        # column 0 takes v from the last column; the contiguous pass below
        # would add the previous row's last entry there instead
        np.add(out_col0, v_col_last, out=first)
        np.add(flat_tail, v_head, out=flat_tail)
        out_col0[...] = first
        np.subtract(out, v, out=out)
        return out

    return divergence


def _flat_view(a):
    """A 1-D view of `a`; ValueError unless `a` is C-contiguous."""
    if not a.flags.c_contiguous:
        raise ValueError("fields and out arrays must be C-contiguous")
    return a.reshape(-1)


def _squared_length(field, work):
    """Write u*u + v*v into `work[0]`, with `work[1]` as scratch; return `work[0]`."""
    np.multiply(field, field, out=work)
    return np.add(work[0], work[1], out=work[0])


def pointwise_norm(field, work=None):
    """Pointwise Euclidean length sqrt(u*u + v*v) of a field.

    `work`, an optional C-contiguous field of the same shape, holds the
    squares: the length is written into `work[0]`, which is returned, and
    `work[1]` is overwritten.  The squares overflow for entries above about
    1e154, where the length is inf.
    """
    if work is None:
        work = np.empty(field.shape)
    sq = _squared_length(field, work)
    return np.sqrt(sq, out=sq)


def l21_norm(field, work=None):
    """Sum over pixels of the pointwise length; inf once a square overflows.

    `work` is passed on to `pointwise_norm`.
    """
    return float(pointwise_norm(field, work).sum())


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

# An entry leaves the ball when its computed length sqrt(s) exceeds 1.0,
# s being its squared length.  A correctly rounded sqrt is monotone and
# sqrt(1 + 2^-52) = 1 + 2^-53 - 2^-107 + ..., just below the midpoint
# between 1.0 and the next double, so it rounds to 1.0; sqrt(1 + 2^-51)
# rounds above 1.0.  Hence sqrt(s) > 1.0 exactly when s > 1 + 2^-52, the
# double after 1.0, and comparing s saves the root wherever nothing leaves.
# A nan s fails both compares and an infinite one passes both.
_ONE_UP = np.nextafter(1.0, 2.0)


def project_dual_ball(field):
    """Project a field onto pointwise Euclidean unit balls, as a new field.

    Entries that pass `in_unit_balls`'s test, and nan ones, are kept; the
    others are divided by their length times _INWARD, so that the projection
    is idempotent in floating point.  When no entry leaves its ball the
    field is copied as it is, with no root and no division.
    """
    return projection_into(field, np.empty(field.shape), np.empty(field.shape))()


def projection_into(field, out, work):
    """Bind `project_dual_ball(field)` with `out` as its result.

    Returns a function of no arguments that projects the values `field`
    holds at the time of the call into `out` (a field of the same shape;
    `field` itself is allowed) and returns `out`.  `work`, a field of the
    same shape distinct from both, is overwritten with scratch values.  The
    mask of entries that leave the ball is allocated here, once, so a call
    allocates only the scale of the entries that do.
    """
    scratch = work[1]
    outside = np.empty(field.shape[1:], dtype=bool)
    copy = out is not field

    def projection():
        sq = _squared_length(field, work)
        np.greater(sq, _ONE_UP, out=outside)
        if not np.count_nonzero(outside):
            if copy:
                np.copyto(out, field)
            return out
        norm = np.sqrt(sq, out=sq)
        scale = np.where(outside, np.multiply(norm, _INWARD, out=scratch), 1.0)
        np.divide(field, scale, out=out)
        return out

    return projection


def scaling_into(field, work):
    """Bind the plain projection of a field onto the unit balls, in place.

    Returns a function of no arguments that divides every entry of `field`
    by max(length, 1): squares, `max(., 1)`, a root and one broadcast
    divide, with `work`, a field of the same shape, as scratch.
    Unlike `projection_into` it has no mask and no _INWARD margin, so a
    length may round to just above 1; it serves iterates whose own values
    are never certified.  An entry whose square overflows maps to 0.
    """
    length = work[0]

    def scaling():
        _squared_length(field, work)
        np.maximum(length, 1.0, out=length)
        np.sqrt(length, out=length)
        np.divide(field, length, out=field)
        return field

    return scaling


def in_unit_balls(field):
    """The projection's test for every entry: no squared length above _ONE_UP, and no nan."""
    return bool(np.all(_squared_length(field, np.empty(field.shape)) <= _ONE_UP))


def dot(a, b):
    """The one inner product: `np.vdot`'s bits on a and b in C order, in their dtype, as a float.

    Its bits alone follow the BLAS thread count; + 0.0 makes a one-entry -0.0 the sum's +0.0.
    """
    return float(a.ravel().dot(b.ravel())) + 0.0


field_dot = dot
