"""Convex penalties, approximate subgradient pairs, and Bregman distances.

A penalty here is a 2-convex functional on 2-D grids of one of two kinds:

* ``quadratic``:     Theta(z) = ||z||^2 / (2 mu) + indicator of C
* ``quadratic+TV``:  Theta(z) = ||z||^2 / (2 mu) + TV(z) + indicator of C

with C an optional nonnegativity constraint.  Both have convexity constant
c0 = 1 / (2 mu) with exponent p = 2.

The outer iteration never works with exact minimizers.  Its currency is the
`PrimalDualPair` (x, xi, eps): a certificate that xi is an eps-subgradient of
Theta at x, equivalently that x minimizes Theta - <xi, .> up to eps.  Pairs
come out of `solve_quadratic_exact` (eps = 0) or out of the PDHG inner solver
(eps = certified duality gap, with the dual field lam that certifies it).
"""

import math
from dataclasses import dataclass

import numpy as np

from .tv import dot, tv_value


def power(base, exponent):
    """Float base ** exponent for base >= 0; inf on overflow and for 0 ** negative."""
    try:
        return base ** exponent
    except (OverflowError, ZeroDivisionError):
        return math.inf


def norm(a):
    """Euclidean (Frobenius) norm of a real array, as a float.

    The package's one norm: numpy.linalg's `norm` with its defaults, the root
    of the K-order ravel's `dot` with itself, without that wrapper's checks.
    """
    a = a.ravel(order="K")
    return math.sqrt(dot(a, a))


def duality_map(r, s, r_norm=None):
    """Power-type duality map J_s(r) = ||r||^(s-2) r, with J_s(0) = 0.

    Defined for s > 1 on arrays of any shape; norms are Euclidean
    (Frobenius).  Satisfies <J_s(r), r> = ||r||^s and ||J_s(r)|| = ||r||^(s-1).
    `r_norm`, when given, is `norm(r)` of a float array r, taken by the
    caller; the map then skips taking it again.
    """
    if s <= 1:
        raise ValueError("duality map exponent must satisfy s > 1")
    r = np.asarray(r, dtype=float)
    nrm = norm(r) if r_norm is None else r_norm
    if nrm == 0.0:
        return np.zeros_like(r)
    return power(nrm, s - 2.0) * r


class NonnegativityConstraint:
    """The set {z : z >= 0 everywhere}."""

    def project(self, z, out=None):
        return np.maximum(z, 0.0, out=out)

    def contains(self, z):
        return bool(z.min() >= 0.0)

    def __repr__(self):
        return "NonnegativityConstraint()"


@dataclass(frozen=True, eq=False)
class PrimalDualPair:
    """Certified triple (x, xi, eps): xi lies in the eps-subdifferential at x.

    x and xi are arrays of one shape.  lam is the TV dual field whose gap
    certifies eps, None for a quadratic pair; any other lam must have shape
    (2, *x.shape).  Treat the arrays as immutable; every producer in this
    package allocates fresh ones.
    """

    x: np.ndarray
    xi: np.ndarray
    eps: float
    lam: np.ndarray = None

    def __post_init__(self):
        shape = getattr(self.x, "shape", None)
        if shape is None or shape != getattr(self.xi, "shape", None):
            raise ValueError("primal and dual grids must be arrays of one shape")
        if not (self.eps >= 0.0):
            raise ValueError("certificate eps must be nonnegative")
        if self.lam is not None and np.shape(self.lam) != (2, *shape):
            raise ValueError(f"lam has shape {np.shape(self.lam)}, not {(2, *shape)}")


@dataclass(frozen=True)
class _QuadraticCore:
    """The shared part of both penalties: ||z||^2 / (2 mu) plus the indicator of C."""

    mu: float
    constraint: object = None

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError("penalty weight mu must be positive")

    @property
    def c0(self):
        return 0.5 / self.mu

    def value(self, z):
        if self.constraint is not None and not self.constraint.contains(z):
            return math.inf
        return dot(z, z) / (2.0 * self.mu)


class QuadraticPenalty(_QuadraticCore):
    """Theta(z) = ||z||^2 / (2 mu) plus an optional constraint indicator."""

    kind = "quadratic"

    def dual_bound(self, xi):
        """Exact value of min_z Theta(z) - <xi, z>, at `solve_quadratic_exact`'s minimizer."""
        x = solve_quadratic_exact(xi, self).x
        return self.value(x) - dot(xi, x)


class TotalVariationPenalty(_QuadraticCore):
    """Theta(z) = ||z||^2 / (2 mu) + TV(z) plus an optional constraint."""

    kind = "quadratic+TV"

    def value(self, z):
        val = super().value(z)
        return val if math.isinf(val) else val + tv_value(z)


def solve_quadratic_exact(xi, penalty):
    """Exact minimizer of Theta - <xi, .> for a quadratic penalty.

    The unconstrained minimizer is mu * xi; with a constraint it is the
    projection of mu * xi onto C.  Either way the certificate is eps = 0.
    """
    if penalty.kind != "quadratic":
        raise ValueError("exact solve only applies to the quadratic penalty")
    x = penalty.mu * np.asarray(xi, dtype=float)
    if penalty.constraint is not None:
        penalty.constraint.project(x, out=x)
    return PrimalDualPair(x=x, xi=np.array(xi, dtype=float, copy=True), eps=0.0)


def bregman_eps_distance(theta, pair, xbar, val_bar=None, diff=None):
    """eps-Bregman distance Theta(xbar) - Theta(x) - <xi, xbar - x> + eps.

    Returns inf when xbar is infeasible for theta.  Nonnegative whenever the
    pair really certifies an eps-subgradient.  A caller that already holds
    Theta(xbar) passes it as `val_bar`, and one that holds xbar - x as
    `diff`.  An xbar or diff not of pair.x's shape raises ValueError.
    """
    for name, a in (("xbar", xbar), ("diff", diff)):
        if a is not None and np.shape(a) != pair.x.shape:
            raise ValueError(f"{name} has shape {np.shape(a)}, not the pair's {pair.x.shape}")
    if val_bar is None:
        val_bar = theta.value(xbar)
    if math.isinf(val_bar):
        return math.inf
    val_x = theta.value(pair.x)
    inner = dot(pair.xi, xbar - pair.x if diff is None else diff)
    return val_bar - val_x - inner + pair.eps


def check_eps_subgradient(pair, theta, dual_lower_bound):
    """Fenchel-type certificate test for xi in the eps-subdifferential at x.

    `dual_lower_bound` must be a lower bound on min_z Theta(z) - <xi, z>
    (for the quadratic penalty, `QuadraticPenalty.dual_bound` supplies the
    exact value; for TV pairs use the inner solver's dual value shifted by
    -mu ||xi||^2 / 2).  The pair passes when

        Theta(x) - <xi, x> - dual_lower_bound <= eps + 1e-9 * (1 + |Theta(x)|).
    """
    val = theta.value(pair.x)
    if math.isinf(val):
        return False
    gap = val - dot(pair.xi, pair.x) - dual_lower_bound
    return gap <= pair.eps + 1e-9 * (1.0 + abs(val))
