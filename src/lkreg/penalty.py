"""Convex penalties, approximate subgradient pairs, and Bregman distances.

A penalty here is a 2-convex functional on 2-D grids of one of two kinds:

* ``quadratic``:     Theta(z) = ||z||^2 / (2 mu) + indicator of C
* ``quadratic+TV``:  Theta(z) = ||z||^2 / (2 mu) + TV(z) + indicator of C

with C an optional nonnegativity or box constraint containing 0.  Both have
convexity constant c0 = 1 / (2 mu) with exponent p = 2.

The outer iteration never works with exact minimizers.  Its currency is the
`PrimalDualPair` (x, xi, eps): a certificate that xi is an eps-subgradient of
Theta at x, equivalently that x minimizes Theta - <xi, .> up to eps.  Pairs
come out of `solve_quadratic_exact` (eps = 0) or out of the PDHG inner solver
(eps = certified duality gap).
"""

import math
from dataclasses import dataclass

import numpy as np

from .tv import tv_value


def power(base, exponent):
    """Float base ** exponent for base >= 0; inf on overflow and for 0 ** negative."""
    try:
        return base ** exponent
    except (OverflowError, ZeroDivisionError):
        return math.inf


def norm(a):
    """Euclidean (Frobenius) norm of a real array, as a float.

    The package's one norm.  It is the arithmetic of numpy.linalg's `norm`
    with its defaults, the square root of the K-order ravel's dot with
    itself, so it gives the same bits, without that wrapper's checks and
    dispatch.
    """
    a = a.ravel(order="K")
    return math.sqrt(a.dot(a))


def duality_map(r, s):
    """Power-type duality map J_s(r) = ||r||^(s-2) r, with J_s(0) = 0.

    Defined for s > 1 on arrays of any shape; norms are Euclidean
    (Frobenius).  Satisfies <J_s(r), r> = ||r||^s and ||J_s(r)|| = ||r||^(s-1).
    """
    if s <= 1:
        raise ValueError("duality map exponent must satisfy s > 1")
    r = np.asarray(r, dtype=float)
    nrm = norm(r)
    if nrm == 0.0:
        return np.zeros_like(r)
    return power(nrm, s - 2.0) * r


class NonnegativityConstraint:
    """The set {z : z >= 0 everywhere}."""

    def project(self, z, out=None):
        return np.maximum(z, 0.0, out=out)

    def contains(self, z, tol=0.0):
        return bool(z.min() >= -tol)

    def scaled(self, factor):
        """The set {factor * z : z in C}; a cone, so itself."""
        if not factor > 0.0:
            raise ValueError("scaling factor must be positive")
        return self

    def __repr__(self):
        return "NonnegativityConstraint()"


@dataclass(frozen=True)
class BoxConstraint:
    """The set {z : lower <= z <= upper}; must contain 0."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower <= 0.0 <= self.upper):
            raise ValueError("constraint box must contain 0")

    def project(self, z, out=None):
        return np.clip(z, self.lower, self.upper, out=out)

    def contains(self, z, tol=0.0):
        return bool(z.min() >= self.lower - tol and z.max() <= self.upper + tol)

    def scaled(self, factor):
        """The set {factor * z : z in C}, another box."""
        if not factor > 0.0:
            raise ValueError("scaling factor must be positive")
        return BoxConstraint(self.lower * factor, self.upper * factor)


@dataclass(frozen=True)
class PrimalDualPair:
    """Certified triple (x, xi, eps): xi lies in the eps-subdifferential at x.

    Treat the arrays as immutable; every producer in this package allocates
    fresh ones.
    """

    x: np.ndarray
    xi: np.ndarray
    eps: float

    def __post_init__(self):
        if self.x.shape != self.xi.shape:
            raise ValueError("primal and dual grids must share a shape")
        if not (self.eps >= 0.0):
            raise ValueError("certificate eps must be nonnegative")


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
        return float(np.vdot(z, z)) / (2.0 * self.mu)


class QuadraticPenalty(_QuadraticCore):
    """Theta(z) = ||z||^2 / (2 mu) plus an optional constraint indicator."""

    kind = "quadratic"

    def dual_bound(self, xi):
        """Exact value of min_z Theta(z) - <xi, z>, at `solve_quadratic_exact`'s minimizer."""
        x = solve_quadratic_exact(xi, self).x
        return self.value(x) - float(np.vdot(xi, x))


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
        x = penalty.constraint.project(x)
    return PrimalDualPair(x=x, xi=np.array(xi, dtype=float, copy=True), eps=0.0)


def bregman_eps_distance(theta, pair, xbar, val_bar=None):
    """eps-Bregman distance Theta(xbar) - Theta(x) - <xi, xbar - x> + eps.

    Returns inf when xbar is infeasible for theta.  Nonnegative whenever the
    pair really certifies an eps-subgradient.  A caller that already holds
    Theta(xbar) passes it as `val_bar`.
    """
    if val_bar is None:
        val_bar = theta.value(xbar)
    if math.isinf(val_bar):
        return math.inf
    val_x = theta.value(pair.x)
    inner = float(np.vdot(pair.xi, xbar - pair.x))
    return val_bar - val_x - inner + pair.eps


def check_eps_subgradient(pair, theta, dual_lower_bound, tol=None):
    """Fenchel-type certificate test for xi in the eps-subdifferential at x.

    `dual_lower_bound` must be a lower bound on min_z Theta(z) - <xi, z>
    (for the quadratic penalty, `QuadraticPenalty.dual_bound` supplies the
    exact value; for TV pairs use the inner solver's dual value shifted by
    -mu ||xi||^2 / 2).  The pair passes when

        Theta(x) - <xi, x> - dual_lower_bound <= eps + tol

    with tol defaulting to 1e-9 * (1 + |Theta(x)|).
    """
    val = theta.value(pair.x)
    if math.isinf(val):
        return False
    if tol is None:
        tol = 1e-9 * (1.0 + abs(val))
    gap = val - float(np.vdot(pair.xi, pair.x)) - dual_lower_bound
    return gap <= pair.eps + tol
