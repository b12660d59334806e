"""Primal-dual (PDHG) solver for the TV-regularized denoising subproblem.

Each outer iteration hands the inner solver a dual grid xi and asks for an
approximate minimizer of Theta(z) - <xi, z> with

    Theta(z) = ||z||^2 / (2 mu) + TV(z) + indicator of C.

Completing the square turns that into the denoising objective

    Psi_P(z) = ||z - mu xi||^2 / (2 mu) + TV(z) + indicator of C,

which differs from Theta(z) - <xi, z> only by the constant mu ||xi||^2 / 2.
The saddle formulation dualizes TV over pointwise unit balls Z; running the
primal-dual iteration with growing dual steps tau_k and matching primal
relaxations theta_k gives iterates whose duality gap we can evaluate exactly:
the dual value is obtained constructively by minimizing the Lagrangian over z
at the current dual variable.  Weak duality then holds by construction and
the gap Psi_P - Psi_D is a sound eps certificate for the pair (x, xi),
because the constant shift cancels in the gap.

TV and the constraint indicator are positively homogeneous, so substituting
z = mu w turns the weight-mu objective into mu times the weight-1 objective
with the same xi (boxes scale their bounds; cones are unchanged).  The step
schedule is tuned for that unit-weight regime, so the solver iterates on
this normal form, and the value functions evaluate on it too: no value
kernel sees mu != 1.  Mapping back is exact: x = mu w, values and absolute
gaps pick up a factor mu, and the relative gap is invariant.

The loop evaluates, then steps: each pass first takes the duality gap of
the current iterate, the initial one included, at one site, records it and
tests for a stop, and only then takes the step to the next iterate.  One
inner iteration costs one discrete gradient (of the current iterate, which the
primal value and the dual step share), one divergence, one dual-ball
projection and one l21 norm; the last two share `tv.pointwise_norm`.  The
dual value needs no gradient of its own.  Since the divergence is the
gradient's transpose, the normal form's Lagrangian at lam is

    ||w - xi||^2 / 2 + <div_lam, w> + indicator of C,

separable in w and minimized by w* = P_C(xi - div_lam); the dual value is
this very expression at w*.  The primal step already forms xi - div_lam, so
the dual value reuses it.  The iterates and every temporary of that fixed
sequence live in buffers allocated once per solve, so the loop allocates
little beyond the scale of the projection; the floats are the ones the
plain expressions give, operation for operation.  The TV primitives are
called through this module's names so that a caller can wrap them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .penalty import PrimalDualPair, solve_quadratic_exact
from .tv import (
    GradientField,
    discrete_gradient,
    divergence_adjoint,
    field_dot,  # noqa: F401  unused here; benchmarks/tracer.py wraps it by this name
    l21_norm,
    pointwise_norm,
    project_dual_ball,
)


@dataclass(frozen=True)
class DenoiseProblem:
    """One inner subproblem: dual grid xi, weight mu, optional constraint."""

    xi: np.ndarray
    mu: float
    constraint: object = None

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError("mu must be positive")


def normal_form(prob):
    """The unit-weight problem in w = z / mu: same xi, constraint scaled by 1/mu."""
    if prob.mu == 1.0:
        return prob
    scaled = None if prob.constraint is None else prob.constraint.scaled(1.0 / prob.mu)
    return DenoiseProblem(xi=prob.xi, mu=1.0, constraint=scaled)


def step_sizes(k):
    """Dual step tau_k and primal relaxation theta_k at inner iteration k.

    tau_k = 0.2 + 0.08 k grows without bound; theta_k = (0.5 - 5/(15+k))/tau_k
    starts at 5/6 and decays to zero.
    """
    tau = 0.2 + 0.08 * k
    theta = (0.5 - 5.0 / (15.0 + k)) / tau
    return tau, theta


def primal_value(prob, z):
    """Psi_P(z); infinite when z violates the constraint."""
    if prob.constraint is not None and not prob.constraint.contains(z):
        return math.inf
    w = np.asarray(z, dtype=float) / prob.mu
    return prob.mu * _primal_value_at(prob, w, discrete_gradient(w))


def _primal_value_at(prob, w, grad, work=None):
    """Normal-form Psi_P(w) for a feasible w, given its gradient; reads only `prob.xi`.

    `work`, an optional (grid, field) pair of w's shape, receives w - xi
    and the scratch of the l21 norm instead of fresh arrays.
    """
    d, scratch = (None, None) if work is None else work
    d = np.subtract(w, prob.xi, out=d)
    return float(np.vdot(d, d)) / 2.0 + l21_norm(grad, scratch)


def dual_value(prob, lam, feas_tol=1e-12):
    """Constructive dual value Psi_D(lam); -inf when lam leaves the unit balls.

    For feasible lam the normal form's Lagrangian is minimized in closed form
    (w* = P_{C/mu}(xi - div* lam)), evaluated there and scaled by mu, so the
    value is a true lower bound on min Psi_P regardless of rounding.
    """
    if float(np.max(pointwise_norm(lam))) > 1.0 + feas_tol:
        return -math.inf
    div_lam = divergence_adjoint(lam)
    return prob.mu * _dual_value_at(normal_form(prob), np.subtract(prob.xi, div_lam), div_lam)


def _dual_value_at(prob, xi_minus_div, div_lam, work=None):
    """Normal-form Psi_D(lam) given div_lam = divergence_adjoint(lam) and xi - div_lam.

    The Lagrangian at its minimizer w* = P_C(xi - div_lam), with no gradient
    taken; `work`, an optional grid of lam's shape, receives w* and then
    w* - xi instead of fresh arrays; `xi_minus_div` is only read.
    """
    wstar = xi_minus_div
    if prob.constraint is not None:
        wstar = prob.constraint.project(wstar, out=work)
    linear = float(np.vdot(div_lam, wstar))
    d = np.subtract(wstar, prob.xi, out=work)
    return float(np.vdot(d, d)) / 2.0 + linear


@dataclass
class PdhgReport:
    """Best-gap iterate of a PDHG run plus convergence bookkeeping."""

    x: np.ndarray
    lam: GradientField
    iterations: int
    converged: bool
    gap_abs: float
    gap_rel: float
    eps_certificate: float
    primal_value: float
    dual_value: float


def _rel_gap(gap, p_val, d_val, floor):
    # Gaps at the rounding floor of the objective count as closed; otherwise
    # instances whose optimal value is exactly zero (constant xi, say) would
    # stall at a relative gap of 1 with both values at machine noise.  A nan
    # gap stays nan, so it never counts as converged.  A gap above the floor
    # is p_val - d_val > 0, so |p_val| + |d_val| > 0.
    if math.isnan(gap):
        return gap
    if gap <= floor:
        return 0.0
    return gap / (abs(p_val) + abs(d_val))


def pdhg_solve(prob, z0=None, lam0=None, eta=1e-6, max_iter=5000):
    """Run PDHG until the relative duality gap drops below eta.

    Parameters
    ----------
    prob : DenoiseProblem
    z0 : ndarray, optional
        Feasible warm start for the primal grid (default zeros).
    lam0 : GradientField, optional
        Warm start for the dual field (projected on entry, default zeros).
    eta : float
        Relative gap target in (0, 1).
    max_iter : int
        Iteration cap; on hitting it the report carries converged=False.

    Returns the report for the smallest-absolute-gap iterate seen, including
    the initial point.  A nan gap (non-finite xi, say) certifies nothing:
    the solve stops there, unconverged, and its eps is inf.

    The loop iterates on `normal_form(prob)`; the report is in the original
    variables.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError("relative gap target must lie in (0, 1)")
    mu, xi = prob.mu, prob.xi
    prob = normal_form(prob)  # mu only scales the report from here on
    z = np.zeros(xi.shape) if z0 is None else np.asarray(z0, dtype=float) / mu
    if prob.constraint is not None:
        prob.constraint.project(z, out=z)
    lam = GradientField.zeros(z.shape) if lam0 is None else project_dual_ball(lam0)
    gap_floor = 16.0 * np.finfo(float).eps * (1.0 + 0.5 * float(np.vdot(xi, xi)))

    # Two iterate slots: a step overwrites the current (z, lam) in place
    # unless it is the best pair so far, which must survive for the report.
    slots = [(z, lam), (np.empty(z.shape), GradientField.empty(z.shape))]
    cur = best_slot = 0
    # grad holds the gradient of the current z: the primal value uses it and
    # the next dual step scales it in place.  xi_minus_div holds xi - div_lam:
    # the z step scales it and the dual value projects it.
    grad = GradientField.empty(z.shape)
    div_lam = divergence_adjoint(lam)
    xi_minus_div = np.subtract(xi, div_lam)
    # work is scratch for the primal value, the dual value, the projection
    # and the z step in turn; nothing in it outlives the step that writes it.
    work = (np.empty(z.shape), GradientField.empty(z.shape))
    iters = 0
    while True:
        discrete_gradient(z, out=grad)
        p_val = _primal_value_at(prob, z, grad, work)
        d_val = _dual_value_at(prob, xi_minus_div, div_lam, work[0])
        gap = p_val - d_val
        rel = _rel_gap(gap, p_val, d_val, gap_floor)
        if iters == 0 or gap < best[0]:
            best = (gap, rel, p_val, d_val)
            best_slot = cur
        converged = rel <= eta
        if converged or iters >= max_iter or math.isnan(gap):
            break

        tau, theta = step_sizes(iters)
        nxt = 1 - cur if cur == best_slot else cur
        z_next, lam_next = slots[nxt]
        np.multiply(grad.u, tau, out=grad.u)
        np.multiply(grad.v, tau, out=grad.v)
        np.add(lam.u, grad.u, out=lam_next.u)
        np.add(lam.v, grad.v, out=lam_next.v)
        lam = project_dual_ball(lam_next, out=lam_next, work=work[1])
        divergence_adjoint(lam, out=div_lam)
        np.subtract(xi, div_lam, out=xi_minus_div)
        np.multiply(xi_minus_div, theta, out=work[0])
        np.multiply(z, 1.0 - theta, out=z_next)
        np.add(z_next, work[0], out=z_next)
        z = z_next
        if prob.constraint is not None:
            prob.constraint.project(z, out=z)
        cur = nxt
        iters += 1

    gap_b, rel_b, p_b, d_b = best
    z_b, lam_b = slots[best_slot]
    return PdhgReport(
        x=mu * z_b,
        lam=lam_b,
        iterations=iters,
        converged=converged,
        gap_abs=mu * gap_b,
        gap_rel=rel_b,
        eps_certificate=mu * (math.inf if math.isnan(gap_b) else max(gap_b, 0.0)),
        primal_value=mu * p_b,
        dual_value=mu * d_b,
    )


@dataclass(frozen=True)
class InnerInfo:
    """What the outer iteration needs to know about one inner solve.

    `report` is the full PdhgReport of a TV solve (None for the exact
    quadratic solve).  Nothing in the package reads it; the benchmark in
    `benchmarks/worker.py` reads its `dual_value` and `gap_rel`.
    """

    iterations: int
    converged: bool
    lam: object = None
    report: object = None


def inner_solver(xi, penalty, gap_target=None, warm_x=None, warm_lam=None, max_iter=5000):
    """Produce a certified pair for Theta - <xi, .>, dispatching on penalty kind.

    Quadratic penalties are solved exactly (eps = 0, gap target ignored).
    Quadratic+TV penalties run PDHG to the requested relative gap, warm
    started from (warm_x, warm_lam); the certificate is the achieved absolute
    gap, which transfers from the denoising objective to Theta - <xi, .>
    because the two differ by a constant.
    """
    if penalty.kind == "quadratic":
        return solve_quadratic_exact(xi, penalty), InnerInfo(iterations=0, converged=True)
    if penalty.kind != "quadratic+TV":
        raise ValueError(f"unknown penalty kind: {penalty.kind!r}")
    if gap_target is None:
        raise ValueError("a TV inner solve needs an explicit gap target")
    prob = DenoiseProblem(xi=np.asarray(xi, dtype=float), mu=penalty.mu, constraint=penalty.constraint)
    report = pdhg_solve(prob, z0=warm_x, lam0=warm_lam, eta=gap_target, max_iter=max_iter)
    pair = PrimalDualPair(
        x=report.x, xi=np.array(xi, dtype=float, copy=True), eps=report.eps_certificate
    )
    return pair, InnerInfo(
        iterations=report.iterations, converged=report.converged, lam=report.lam, report=report
    )
