"""Primal-dual (PDHG) solver for the TV-regularized denoising subproblem.

Each outer iteration hands the inner solver a dual grid xi and asks for an
approximate minimizer of Theta(z) - <xi, z> with

    Theta(z) = ||z||^2 / (2 mu) + TV(z) + indicator of C.

Completing the square turns that into the denoising objective

    Psi_P(z) = ||z - mu xi||^2 / (2 mu) + TV(z) + indicator of C,

which differs from Theta(z) - <xi, z> only by the constant mu ||xi||^2 / 2.

The duality gap is a sound certificate.  The saddle formulation dualizes TV
over pointwise unit balls.  Since the divergence is the gradient's
transpose, the unit-weight Lagrangian at a feasible dual field lam is

    ||w - xi||^2 / 2 + <div_lam, w> + indicator of C,

separable in w and minimized by w* = P_C(xi - div_lam).  The dual value is
this very expression at w*, so it is a true lower bound on min Psi_P by
construction, whatever the iterate, and the gap Psi_P - Psi_D bounds the
primal iterate's suboptimality.  The constant shift cancels in the gap, so
the gap is also the eps of the pair (x, xi).

TV is positively homogeneous and C (none, or the nonnegative orthant) is a
cone, so substituting z = mu w turns the weight-mu objective into mu times
the weight-1 objective with the same xi and the same C.  The step schedule
is tuned for unit weight, so the loop and the value kernels work on w: mu
divides the warm start on entry and multiplies x, the values and the
absolute gaps on exit, and the relative gap is invariant.  A constraint
that is not a cone would change under this substitution.

A solve is Chambolle-Pock PDHG (JMIV 40, 2011) plus a certificate, in
three phases: check the start in float64, search in float32, certify in
float64.  The outer method needs a certified eps for each pair, not float64
iterates, so only the certificate is float64:

- Exact.  The start, projected onto C and the unit balls, is checked in
  float64, so a start that meets eta (the closed form's, say) returns with
  every byte of a float64 solve.  A certificate casts the search's pair to
  float64, re-projects lam with `projection_into`, and takes the gap with
  `_primal_value_at` and `_dual_value_at`.  The report holds the best
  certified pair, so its eps is the exact float64 gap of the x and lam it
  returns.
- Not exact.  The search's iterates are float32, its dual step uses the
  plain projection `scaling_into` (a length may round just above 1), and
  each checked iterate's gap is estimated in float32, with float32's eps in
  the rounding floor.  An estimate certifies nothing; it only says when to
  certify: when it meets eta, falls to its floor, is not finite, stalls (is
  no lower than the best estimate before it), or the cap is reached.
- Promotion.  A certificate that misses eta goes on in float64 from the
  certified pair, and every later check is exact.  So a target below
  float32's reach still converges, whether float32's gap falls to its floor
  or stalls above it, with no knob for when.
- Range.  The search is skipped when ||xi||^2 or twice the start's primal
  value exceeds float32's largest value, where its squares would overflow.
  Below that, an overflowing estimate is inf, and its certificate hands the
  solve to float64.

README, "Cost model", gives what each phase costs and allocates.
`step_sizes`, `_primal_value_at` and `_dual_value_at` are looked up through
this module's names at each call, so a caller can wrap them; the loop's
gradient, divergence and projection are bound once per set of iterates.
"""

import math
from dataclasses import dataclass

import numpy as np

from .penalty import PrimalDualPair, solve_quadratic_exact
from .tv import (discrete_gradient, divergence_adjoint, divergence_into, dot, gradient_into,
                 in_unit_balls, l21_norm, projection_into, scaling_into)
from .tv import field_dot, project_dual_ball  # noqa: F401  unused; benchmarks/tracer.py wraps them

# The gap is taken at every _GAP_STRIDE-th iterate and at the cap.  On ct-desk
# 4 calls the value kernels a quarter as often for 1 % more iterations;
# 2 and 8 cost 0.4 % and 2.9 % more.
_GAP_STRIDE = 4


@dataclass(frozen=True, eq=False)
class DenoiseProblem:
    """One inner subproblem: 2-D dual grid xi, weight mu, optional constraint."""

    xi: np.ndarray
    mu: float
    constraint: object = None

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError("mu must be positive")
        if np.ndim(self.xi) != 2:
            raise ValueError(f"xi must be a 2-D grid, not of shape {np.shape(self.xi)}")


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
    """Unit-weight Psi_P(w) for a feasible w, given its gradient; reads only `prob.xi`.

    `work`, an optional (grid, field) pair of w's shape, receives w - xi
    and the scratch of the l21 norm instead of fresh arrays.
    """
    d, scratch = (None, None) if work is None else work
    d = np.subtract(w, prob.xi, out=d)
    return dot(d, d) / 2.0 + l21_norm(grad, scratch)


def dual_value(prob, lam):
    """Constructive dual value Psi_D(lam); -inf unless `in_unit_balls(lam)`.

    For feasible lam the unit-weight Lagrangian is minimized in closed form
    (w* = P_C(xi - div* lam)), evaluated there and scaled by mu, so the
    value is a true lower bound on min Psi_P regardless of rounding.
    """
    if not in_unit_balls(lam):
        return -math.inf
    div_lam = divergence_adjoint(lam)
    return prob.mu * _dual_value_at(prob, np.subtract(prob.xi, div_lam), div_lam)


def _dual_value_at(prob, xi_minus_div, div_lam, work=None):
    """Unit-weight Psi_D(lam) given div_lam = divergence_adjoint(lam) and xi - div_lam.

    The Lagrangian at its minimizer w* = P_C(xi - div_lam), with no gradient
    taken; `work`, an optional grid of lam's shape, receives w* and then
    w* - xi instead of fresh arrays; `xi_minus_div` is only read.
    """
    wstar = xi_minus_div
    if prob.constraint is not None:
        wstar = prob.constraint.project(wstar, out=work)
    linear = dot(div_lam, wstar)
    d = np.subtract(wstar, prob.xi, out=work)
    return dot(d, d) / 2.0 + linear


@dataclass(eq=False)
class PdhgReport:
    """Best certified iterate of a PDHG run plus convergence bookkeeping.

    x and lam are float64 arrays of their own, and the values and gaps are
    that pair's exactly evaluated ones.  `gap_evaluations` counts the calls
    of each value kernel: one per checked iterate, and one more for the
    certificate that ends a float32 search.
    """

    x: np.ndarray
    lam: np.ndarray
    iterations: int
    gap_evaluations: int
    converged: bool
    gap_abs: float
    gap_rel: float
    eps_certificate: float
    primal_value: float
    dual_value: float


def _rel_gap(gap, p_val, d_val, floor):
    # Gaps at the rounding floor of the objective count as closed; otherwise
    # instances whose optimal value is exactly zero (constant xi, say) would
    # stall at a relative gap of 1 with both values at machine noise.  A
    # non-finite gap gives nan, so it never counts as converged.  A gap above
    # the floor is p_val - d_val > 0, so |p_val| + |d_val| > 0.
    if not math.isfinite(gap):
        return math.nan
    if gap <= floor:
        return 0.0
    return gap / (abs(p_val) + abs(d_val))


def _rounding_floor(eps, xi_sq):
    """16 eps (1 + ||xi||^2 / 2); 0 once that overflows, which would close every gap."""
    floor = 16.0 * eps * (1.0 + 0.5 * xi_sq)
    return 0.0 if math.isinf(floor) else floor


class _Iterates:
    """One solve's iterates in one dtype, allocated and bound once; z and lam start at zero.

    `prob` is the problem over xi in that dtype.  `gradient` writes z's into
    grad, xi_minus_div is xi - div_lam, and work is scratch.  `project`
    projects lam in place: `projection_into` in float64, `scaling_into` in float32.
    """

    def __init__(self, prob, dtype):
        xi, shape = prob.xi.astype(dtype, copy=False), prob.xi.shape
        self.prob = DenoiseProblem(xi=xi, mu=prob.mu, constraint=prob.constraint)
        self.z, self.lam = np.zeros(shape, dtype), np.zeros((2, *shape), dtype)
        self.grad, self.div_lam = np.empty((2, *shape), dtype), np.empty(shape, dtype)
        self.xi_minus_div = np.empty(shape, dtype)
        self.work = (np.empty(shape, dtype), np.empty((2, *shape), dtype))
        project_into = projection_into if dtype is np.float64 else scaling_into
        self.project = project_into(self.lam, self.work[1])
        self.divergence = divergence_into(self.lam, self.div_lam)
        self.gradient = gradient_into(self.z, self.grad)

    def load(self, z=None, lam=None):
        """Cast z and lam in, where given, and project them; form xi - div_lam and grad."""
        if z is not None:
            np.copyto(self.z, z)
        if lam is not None:
            np.copyto(self.lam, lam)
        if self.prob.constraint is not None:
            self.prob.constraint.project(self.z, out=self.z)
        self.project()
        np.subtract(self.prob.xi, self.divergence(), out=self.xi_minus_div)
        self.gradient()

    def values(self):
        """The unit-weight primal value at z and dual value at lam."""
        return (_primal_value_at(self.prob, self.z, self.grad, self.work),
                _dual_value_at(self.prob, self.xi_minus_div, self.div_lam, self.work[0]))


def _checked_iterates(it, iters, max_iter):
    """Step `it` in place from iterate `iters` on; yield each iterate to check.

    Those are every `_GAP_STRIDE`-th iterate and the cap.
    """
    xi, z, lam, grad = it.prob.xi, it.z, it.lam, it.grad
    xi_minus_div, scratch, constraint = it.xi_minus_div, it.work[0], it.prob.constraint
    project, divergence, gradient = it.project, it.divergence, it.gradient
    while True:
        tau, theta = step_sizes(iters)
        np.multiply(grad, tau, out=grad)
        np.add(lam, grad, out=lam)
        project()
        np.subtract(xi, divergence(), out=xi_minus_div)
        np.multiply(xi_minus_div, theta, out=scratch)
        np.multiply(z, 1.0 - theta, out=z)
        np.add(z, scratch, out=z)
        if constraint is not None:
            constraint.project(z, out=z)
        iters += 1
        gradient()
        if iters % _GAP_STRIDE == 0 or iters >= max_iter:
            yield iters


def _search(exact, eta, max_iter, floor):
    """Search in float32 from `exact`, then load the pair to certify into `exact`.

    Returns its iterate and the estimates taken; the float32 iterates are freed on return.
    """
    search = _Iterates(exact.prob, np.float32)
    np.copyto(search.z, exact.z)
    np.copyto(search.lam, exact.lam)
    np.copyto(search.grad, exact.grad)
    best_estimate = math.inf
    for estimates, iters in enumerate(_checked_iterates(search, 0, max_iter), 1):
        p_val, d_val = search.values()
        estimate = _rel_gap(p_val - d_val, p_val, d_val, floor)
        if not eta < estimate < best_estimate or iters >= max_iter:
            break
        best_estimate = estimate
    exact.load(search.z, search.lam)
    return iters, estimates


def pdhg_solve(prob, z0=None, lam0=None, eta=1e-6, max_iter=5000):
    """Run PDHG until the certified relative duality gap drops below eta.

    Parameters
    ----------
    prob : DenoiseProblem
    z0 : ndarray, optional
        Warm start for the primal grid, of xi's shape (projected onto C on
        entry, default zeros).
    lam0 : ndarray, optional
        Warm start for the dual field, of shape (2, *xi.shape) (projected on
        entry, default zeros).
    eta : float
        Relative gap target in (0, 1).
    max_iter : int
        Iteration cap; on hitting it the report carries converged=False.

    A start of another shape raises ValueError.  Returns the report of the
    smallest-gap certified pair, whose eps is that pair's exactly evaluated
    gap.  A certified gap that is not finite (nan from a non-finite xi, inf
    from a value that overflows) certifies nothing: the solve stops there,
    unconverged, and reports the best earlier certified pair, or an eps of
    inf when it came at the start.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError("relative gap target must lie in (0, 1)")
    mu, xi = prob.mu, prob.xi
    if z0 is not None and np.shape(z0) != xi.shape:
        raise ValueError(f"z0 has shape {np.shape(z0)}, not {xi.shape}")
    if lam0 is not None and np.shape(lam0) != (2, *xi.shape):
        raise ValueError(f"lam0 has shape {np.shape(lam0)}, not {(2, *xi.shape)}")
    xi_sq = dot(xi, xi)
    floor = _rounding_floor(np.finfo(float).eps, xi_sq)
    exact = _Iterates(prob, np.float64)
    best, evaluations, converged = None, 0, False

    def certify(iters):
        """Take the exact gap, keep the pair if it is the best; return whether the solve is done."""
        nonlocal best, evaluations, converged
        p_val, d_val = exact.values()
        evaluations += 1
        gap = p_val - d_val
        rel = _rel_gap(gap, p_val, d_val, floor)
        converged = rel <= eta
        done = converged or iters >= max_iter or not math.isfinite(gap)
        if best is None or -math.inf < gap < best[0]:
            # the last check's lam is never overwritten, so it needs no copy
            best = (gap, rel, p_val, d_val, mu * exact.z, exact.lam if done else exact.lam.copy())
        return done

    # an overflow gives a non-finite value, which the checks act on, silently
    with np.errstate(over="ignore", invalid="ignore"):
        if z0 is not None:
            np.divide(np.asarray(z0, dtype=float), mu, out=exact.z)
        exact.load(lam=lam0)
        iters, done = 0, certify(0)
        f32_max = float(np.finfo(np.float32).max)
        # best[2] is the start's primal value
        if not done and xi_sq < f32_max and 2.0 * best[2] < f32_max:
            floor32 = _rounding_floor(float(np.finfo(np.float32).eps), xi_sq)
            iters, estimates = _search(exact, eta, max_iter, floor32)
            evaluations += estimates
            done = certify(iters)
        if not done:
            for iters in _checked_iterates(exact, iters, max_iter):
                if certify(iters):
                    break

    gap_b, rel_b, p_b, d_b, x_b, lam_b = best
    return PdhgReport(
        x=x_b,
        lam=lam_b,
        iterations=iters,
        gap_evaluations=evaluations,
        converged=converged,
        gap_abs=mu * gap_b,
        gap_rel=rel_b,
        eps_certificate=mu * (max(gap_b, 0.0) if math.isfinite(gap_b) else math.inf),
        primal_value=mu * p_b,
        dual_value=mu * d_b,
    )


def _constant_regime_field(centered):
    """The dual field D phi, with D^T D phi = `centered`, a grid of zero mean.

    D is `discrete_gradient`, so `divergence_adjoint` of the result is
    `centered` up to rounding.  The periodic D^T D is diagonal under the 2-D
    DFT, with eigenvalues (2 - 2 cos 2 pi k / n0) + (2 - 2 cos 2 pi l / n1);
    only the zero mode's is 0, and that mode is set to 0.  This is the
    least-norm field of Meyer's test (Chambolle, JMIV 20, 2004): w = mean(xi)
    minimizes the unit-weight objective without a constraint exactly when
    some field in the unit balls has divergence xi - mean(xi), and with one
    that field gives P_C(mean(xi)) a zero gap.  Staying in the balls is
    sufficient, not necessary.
    """
    n0, n1 = centered.shape
    spectrum = np.fft.rfft2(centered)
    along0 = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n0) / n0)
    along1 = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(spectrum.shape[1]) / n1)
    eigenvalues = along0[:, None] + along1[None, :]
    eigenvalues[0, 0] = 1.0
    spectrum /= eigenvalues
    spectrum[0, 0] = 0.0
    return discrete_gradient(np.fft.irfft2(spectrum, s=centered.shape))


@dataclass(frozen=True, eq=False)
class InnerInfo:
    """What the outer iteration needs to know about one inner solve, besides its pair.

    `gap_evaluations` is the report's count of duality gaps taken, 0 for
    the exact quadratic solve.  `report` is the full PdhgReport of a TV
    solve (None for the exact quadratic solve); a solve certified by its
    constant-regime start is a report like any other, with 0 iterations and
    1 gap evaluation.  Nothing in the package reads it; the benchmark in
    `benchmarks/worker.py` reads its `dual_value` and `gap_rel`.
    """

    iterations: int
    converged: bool
    gap_evaluations: int = 0
    report: object = None


def inner_solver(xi, penalty, gap_target=None, last=None, before=None, max_iter=5000):
    """Produce a certified pair for Theta - <xi, .>, dispatching on penalty kind.

    Quadratic penalties are solved exactly (eps = 0, gap target ignored).
    Quadratic+TV penalties run PDHG to the requested relative gap; the
    certificate is the achieved absolute gap, which transfers from the
    denoising objective to Theta - <xi, .> because the two differ by a
    constant.

    `last` is the last solve's `PrimalDualPair` and `before` the one before
    it; each pair has checked its own lam.  PDHG starts from their
    extrapolation (2 last.x - before.x, 2 last.lam - before.lam) when both
    carry a lam, else from (last.x, last.lam); `pdhg_solve` projects any
    start, and the eps it returns is the exact gap of the pair it returns.

    While last is None (zeros) or last.x is constant, the solve first tries
    the constant regime: with c = mean(xi) and lam =
    `_constant_regime_field(xi - c)`, `in_unit_balls(lam)` makes (c, lam), c
    projected onto C, an exact primal-dual pair of the unit-weight problem,
    so PDHG starts from (mu c, lam), not extrapolated, and normally returns
    after 0 iterations.  A non-finite xi fails the test.

    A start that is not a `PrimalDualPair` raises TypeError, and a `before`
    without a `last` or an x not of xi's shape ValueError, before that test.
    """
    if penalty.kind == "quadratic":
        return solve_quadratic_exact(xi, penalty), InnerInfo(iterations=0, converged=True)
    if penalty.kind != "quadratic+TV":
        raise ValueError(f"unknown penalty kind: {penalty.kind!r}")
    if gap_target is None:
        raise ValueError("a TV inner solve needs an explicit gap target")
    if before is not None and last is None:
        raise ValueError("a `before` pair needs a `last` pair")
    prob = DenoiseProblem(xi=np.asarray(xi, dtype=float), mu=penalty.mu, constraint=penalty.constraint)
    for name, start in (("last", last), ("before", before)):
        if start is None:
            continue
        if not isinstance(start, PrimalDualPair):
            raise TypeError(f"{name} must be a PrimalDualPair, not {type(start).__name__}")
        if start.x.shape != prob.xi.shape:
            raise ValueError(f"{name}.x has shape {start.x.shape}, not {prob.xi.shape}")
    z0, lam0 = (None, None) if last is None else (last.x, last.lam)
    certified = False
    if z0 is None or z0.min() == z0.max():
        # non-finite or huge xi overflows here, and its field fails the test
        with np.errstate(over="ignore", invalid="ignore"):
            c = prob.xi.mean()
            lam = _constant_regime_field(prob.xi - c)
            certified = in_unit_balls(lam)
    if certified:
        z0, lam0 = np.full(prob.xi.shape, prob.mu * c), lam
    elif lam0 is not None and before is not None and before.lam is not None:
        z0, lam0 = 2.0 * z0 - before.x, 2.0 * lam0 - before.lam
    report = pdhg_solve(prob, z0=z0, lam0=lam0, eta=gap_target, max_iter=max_iter)
    pair = PrimalDualPair(x=report.x, xi=np.array(xi, dtype=float, copy=True),
                          eps=report.eps_certificate, lam=report.lam)
    return pair, InnerInfo(iterations=report.iterations, converged=report.converged,
                           gap_evaluations=report.gap_evaluations, report=report)
