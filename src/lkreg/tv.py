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


def discrete_gradient(z):
    """Periodic forward differences along both axes, as a new field.

    Component u holds differences along the first index (with the last row
    wrapping to the first), component v along the second index.
    """
    return gradient_into(np.ascontiguousarray(z), np.empty((2, *z.shape)))()


def gradient_into(z, out):
    """Bind `discrete_gradient(z)` with `out` as its result.

    Returns a function of no arguments that writes the gradient of the
    values `z` holds at the time of the call into `out` and returns `out`.
    The views it works on are made here, once; z and `out` must be
    C-contiguous and must not overlap.
    """
    u, v = out
    v_flat, z_flat = _flat_view(v), _flat_view(z)
    z_tail, z_head, z_first, z_last = z[1:], z[:-1], z[:1], z[-1:]
    z_flat_tail, z_flat_head, z_col0, z_col_last = z_flat[1:], z_flat[:-1], z[:, :1], z[:, -1:]
    u_head, u_last, v_flat_head, v_col_last = u[:-1], u[-1:], v_flat[:-1], v[:, -1:]

    def gradient():
        np.subtract(z_tail, z_head, out=u_head)
        np.subtract(z_first, z_last, out=u_last)
        # one contiguous pass along the rows; at the last column it runs on into
        # the next row, and the wrap-around differences overwrite those entries
        np.subtract(z_flat_tail, z_flat_head, out=v_flat_head)
        np.subtract(z_col0, z_col_last, out=v_col_last)
        return out

    return gradient


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


def l21_norm(field, work=None):
    """Sum over pixels of the pointwise length sqrt(u*u + v*v); inf once a square overflows.

    `work`, an optional C-contiguous field of the same shape, receives the
    squares and is left with the lengths in `work[0]`.  The squares overflow
    for entries above about 1e154.
    """
    if work is None:
        work = np.empty(field.shape)
    sq = _squared_length(field, work)
    return float(np.sqrt(sq, out=sq).sum())


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
    """Project a field onto pointwise Euclidean unit balls, as a new float64 field.

    Entries that pass `in_unit_balls`'s test, and nan ones, are kept; the
    others are divided by their length times _INWARD, so that the projection
    is idempotent in floating point.  The field is copied to float64 first
    and the copy projected in place, so a float32 field's squares are not
    rounded to float32.
    """
    out = np.array(field, dtype=np.float64, order="C")
    return projection_into(out, np.empty(out.shape))()


def projection_into(field, work):
    """Bind the projection `project_dual_ball` makes of `field`, in place.

    Returns a function of no arguments that projects the values `field`
    holds at the time of the call into `field` itself and returns it.
    `work`, a distinct field of the same shape, is overwritten with scratch
    values.  When no entry leaves its ball the field is left alone, with no
    root and no division.  The mask and the component views are made here,
    once, so a call allocates only the scale of the entries that leave the
    ball: numpy would copy a field divided in place by a grid, so each
    component is divided alone.
    """
    scratch = work[1]
    outside = np.empty(field.shape[1:], dtype=bool)
    u, v = field

    def projection():
        sq = _squared_length(field, work)
        np.greater(sq, _ONE_UP, out=outside)
        if not np.count_nonzero(outside):
            return field
        norm = np.sqrt(sq, out=sq)
        scale = np.where(outside, np.multiply(norm, _INWARD, out=scratch), 1.0)
        np.divide(u, scale, out=u)
        np.divide(v, scale, out=v)
        return field

    return projection


def scaling_into(field, work):
    """Bind the plain projection of a field onto the unit balls, in place.

    Returns a function of no arguments that divides every entry of `field`
    by max(length, 1): squares, `max(., 1)`, a root and a divide of each
    component, with `work`, a field of the same shape, as scratch.
    Unlike `projection_into` it has no mask and no _INWARD margin, so a
    length may round to just above 1; it serves iterates whose own values
    are never certified.  An entry whose square overflows maps to 0.
    """
    length, (u, v) = work[0], field

    def scaling():
        _squared_length(field, work)
        np.maximum(length, 1.0, out=length)
        np.sqrt(length, out=length)
        np.divide(u, length, out=u)
        np.divide(v, length, out=v)
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
