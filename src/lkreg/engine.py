"""Outer Landweber-Kaczmarz iteration with inexact inner solves.

The engine minimizes data misfit for a block-structured forward operator
F_0..F_{N-1} by dual ascent on a convex penalty Theta.  Starting from
x_0 = xi_0 = 0 it cycles through the blocks; at outer step n with block
i = n mod N it

1. evaluates the residual r = F_i(x) - y_i (at the Nesterov extrapolant
   in accelerated mode),
2. with noisy data (the problem's noise_level delta > 0) checks the
   discrepancy test ||r||^p + sigma eps_n <= (tau delta)^p, counting
   consecutive passes in q and stopping at q = N,
3. otherwise takes the dual step xi <- xi - mu L_i(x)* J_s(r) with the
   capped adaptive step size mu from `step_size`,
4. recovers the next primal iterate from xi through the inner solver,
   driven to a summable relative-gap target, which certifies the new eps.
   The run hands the solver its last two pairs, each with its TV dual
   field lam; a TV solve starts from their extrapolation 2 (x, lam)_n -
   (x, lam)_{n-1}, or from the last pair when the one before has no lam.

Every iterate visited, including the final one, contributes one StepRecord
to the trace; runs end by `discrepancy`, by the iteration `cap`, by
`inner-failure` when the inner solver cannot reach its gap target, or by
`non-finite` as soon as a residual norm, the discrepancy bound
(tau delta)^p, an update norm, a step size or a certificate is inf or nan.
"""

import math
import sys
from dataclasses import dataclass, field, fields
from numbers import Integral

import numpy as np

from .pdhg import inner_solver
from .penalty import PrimalDualPair, bregman_eps_distance, duality_map, norm, power


class ForwardProblem:
    """Block-structured forward map with attached data.

    Subclasses define `num_blocks`, `domain_shape`, the block maps
    `apply(i, x)`, the adjoints `adjoint(i, x, w)` of their linearizations,
    and per-block data vectors `data(i)`; the engine calls nothing else, so
    a `derivative(i, x, h)` is optional.  noise_level
    is the absolute noise level delta of the whole data; 0 means exact data
    (no discrepancy test, run to n_max).
    """

    num_blocks = 1
    domain_shape = None
    noise_level = 0.0

    def apply(self, i, x):
        raise NotImplementedError

    def adjoint(self, i, x, w):
        raise NotImplementedError

    def data(self, i):
        raise NotImplementedError

    def residual(self, i, x):
        return self.apply(i, x) - self.data(i)


MODES = ("plain", "accelerated")


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the outer iteration, checked once, when the config is made.

    mode, one of `MODES`, picks plain or Nesterov-accelerated steps, and
    metric_every >= 1 is the cadence of the distances to the truth.  Inner
    gap targets follow eta0 * (n+1)^(-gap_exponent) for the solve that
    produces iterate n and must lie in (0, 1) at n = 1 and at n = n_max;
    certified eps values are floored at eps_floor wherever the step size or
    the discrepancy test consumes them.  Every float field, a subclass's
    included, must be finite, and every int field must hold an integer.
    The config is frozen, so one that exists has passed these rules.  The
    block count and the noise level belong to the problem; neither is a
    field.
    """

    p: float = 2.0
    s: float = 2.0
    beta0: float = 0.1
    beta1: float = 10.0
    sigma: float = 1e-3
    tau: float = 1.01
    alpha: float = 5.0
    eta0: float = 1.0
    gap_exponent: float = 2.2
    eps_floor: float = 1e-14
    n_max: int = 10000
    inner_max_iter: int = 5000
    mode: str = "plain"
    metric_every: int = 1

    _error = ValueError  # the exception type `__post_init__` raises

    def __post_init__(self):
        for ok, message in self._rules():
            if not ok:
                raise self._error(message)

    def _rules(self):
        """(holds, message) pairs in checking order; a subclass yields from these first."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                yield False, f"{f.name} must be finite; got {value!r}"
            if f.type is int and (isinstance(value, bool) or not isinstance(value, Integral)):
                yield False, f"{f.name} must be an integer; got {value!r}"
        yield self.p >= 1.0, "residual exponent p must satisfy p >= 1"
        yield self.s > 1.0, "duality-map exponent s must satisfy s > 1"
        yield self.beta0 > 0.0, "beta0 must be positive"
        yield self.beta1 > 0.0, "beta1 must be positive"
        yield self.sigma > 0.0, "sigma must be positive"
        yield self.tau > 1.0, "tau must exceed 1"
        yield self.alpha >= 3.0, "alpha must be at least 3"
        yield self.eta0 > 0.0, "eta0 must be positive"
        yield self.eps_floor > 0.0, "eps_floor must be positive"
        yield self.n_max >= 0, "n_max must be nonnegative"
        yield self.inner_max_iter >= 1, "inner_max_iter must be at least 1"
        yield self.mode in MODES, f"mode must be one of {', '.join(MODES)}; got {self.mode!r}"
        yield self.metric_every >= 1, "metric_every is out of range"
        # the target is monotone in n, so its ends bound every target a run hands out
        for n, where in ((1, "n = 1"), (max(self.n_max, 1), f"n = n_max = {self.n_max}")):
            yield 0.0 < self.gap_target(n) < 1.0, f"gap target at {where} must lie in (0, 1)"

    def gap_target(self, n):
        """Relative duality-gap target for the inner solve producing iterate n.

        An n past the float range counts as inf, so the target's rules see
        its limit instead of an OverflowError.
        """
        base = float(n + 1) if n < sys.float_info.max else math.inf
        return self.eta0 * power(base, -self.gap_exponent)


def _discrepancy(r_norm, eps_n, cfg):
    """The left side of the discrepancy test, ||r||^p + sigma eps_n."""
    return power(r_norm, cfg.p) + cfg.sigma * eps_n


def step_size(r_norm, ljr_norm, eps_n, cfg):
    """Capped adaptive step size (mu_tilde, mu) for one outer step.

    mu_tilde = min(beta0 ||r||^(p(s-1)) / ||L* J_s(r)||^p, beta1), with the
    degenerate ||L* J_s(r)|| = 0 case falling back to beta1.  The applied
    step is mu = mu_tilde (||r||^p + sigma eps_n)^(1 - s/p); `run` takes no
    step where the discrepancy test holds.  A power that overflows gives a
    non-finite step instead of raising; where ||L* J_s(r)||^p underflows to
    0 the quotient is formed first, as (||r||^(s-1) / ||L* J_s(r)||)^p.
    """
    p, s = cfg.p, cfg.s
    denominator = power(ljr_norm, p)
    if ljr_norm == 0.0:
        mu_tilde = cfg.beta1
    elif denominator == 0.0:
        mu_tilde = min(cfg.beta0 * power(power(r_norm, s - 1.0) / ljr_norm, p), cfg.beta1)
    else:
        mu_tilde = min(cfg.beta0 * power(r_norm, p * (s - 1.0)) / denominator, cfg.beta1)
    return mu_tilde, mu_tilde * power(_discrepancy(r_norm, eps_n, cfg), 1.0 - s / p)


@dataclass
class StepRecord:
    """Quantities observed at one outer iterate."""

    n: int
    i_n: int
    residual_norm: float
    mu_tilde: float
    mu: float
    eps_n: float
    inner_iterations: int
    q_n: int
    rel_error: float = None
    bregman_to_truth: float = None
    inner_gap_evaluations: int = 0  # duality gaps the inner solve took; not a metrics.csv column


@dataclass
class RunTrace:
    records: list = field(default_factory=list)
    terminated_by: str = "cap"

    @property
    def n_final(self):
        """Index of the last iterate; `run` records at least one."""
        return self.records[-1].n


@np.errstate(over="ignore", invalid="ignore")  # overflow ends the run `non-finite`, silently
def run(problem, penalty, cfg, truth=None):
    """Drive the outer iteration to termination.

    Parameters
    ----------
    problem : ForwardProblem
        Its num_blocks is the Kaczmarz block count and its noise_level the
        delta of the discrepancy test; no config repeats either.
    penalty : QuadraticPenalty or TotalVariationPenalty
    cfg : SolverConfig
        Already checked when made.  cfg.mode "accelerated" applies Nesterov
        extrapolation with weight n / (n + alpha) to both x and xi before
        each step; at n = 0 the two modes coincide.
    truth : ndarray, optional
        Ground-truth grid; when given, records carry the relative error and
        the eps-Bregman distance from the iterate to the truth, evaluated
        every cfg.metric_every outer steps (and always at the final iterate).

    Returns (pair, trace) with the final certified PrimalDualPair.  A
    negative or non-finite noise level, and a truth not of the problem's
    domain_shape, are refused with ValueError before step 0.  Float overflow
    and invalid operations raise no warning: the run stops `non-finite`
    where they show.
    """
    n_blocks = problem.num_blocks
    if n_blocks < 1:
        raise ValueError("forward problem must expose at least one block")
    delta = problem.noise_level
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"noise_level must be finite and nonnegative; got {delta!r}")
    shape = tuple(problem.domain_shape)
    if truth is not None and np.shape(truth) != shape:
        raise ValueError(f"truth has shape {np.shape(truth)}, not the domain's {shape}")
    accel = cfg.mode == "accelerated"
    noisy = delta > 0.0
    threshold = power(cfg.tau * delta, cfg.p)  # inf on overflow, which stops step 0

    distances = None if truth is None else _Distances(penalty, truth)

    pair = PrimalDualPair(x=np.zeros(shape), xi=np.zeros(shape), eps=0.0)
    prev = before = pair  # before: the pair before `pair`; idle steps move only prev

    trace = RunTrace()
    q = 0
    for n in range(cfg.n_max + 1):
        i = n % n_blocks
        if accel and n > 0:
            w = n / (n + cfg.alpha)
            x_eval = pair.x + w * (pair.x - prev.x)
            xi_eval = pair.xi + w * (pair.xi - prev.xi)
        else:
            x_eval, xi_eval = pair.x, pair.xi

        r = problem.residual(i, x_eval)
        r_norm = norm(r)
        eps_n = max(pair.eps, cfg.eps_floor)
        held = noisy and _discrepancy(r_norm, eps_n, cfg) <= threshold
        q = q + 1 if held else 0

        rec = StepRecord(
            n=n, i_n=i, residual_norm=r_norm, mu_tilde=0.0, mu=0.0,
            eps_n=eps_n, inner_iterations=0, q_n=q,
        )
        if distances is not None and n % cfg.metric_every == 0:
            distances.fill(rec, pair)
        trace.records.append(rec)
        if not (math.isfinite(r_norm) and math.isfinite(threshold)):
            trace.terminated_by = "non-finite"
            break

        if held:
            if q == n_blocks:
                trace.terminated_by = "discrepancy"
                break
            prev = pair  # idle step: iterate frozen, momentum collapses
            continue

        jr = duality_map(r, cfg.s, r_norm)
        g = problem.adjoint(i, x_eval, jr)
        g_norm = norm(g)
        rec.mu_tilde, rec.mu = step_size(r_norm, g_norm, eps_n, cfg)
        if not (math.isfinite(g_norm) and math.isfinite(rec.mu)):
            trace.terminated_by = "non-finite"
            break

        if n == cfg.n_max:
            break  # cap: final iterate recorded, no further update
        if not accel and g_norm == 0.0:
            continue  # zero update direction: nothing would change

        xi_next = xi_eval - rec.mu * g
        new_pair, info = inner_solver(xi_next, penalty, gap_target=cfg.gap_target(n + 1),
                                      last=pair, before=before, max_iter=cfg.inner_max_iter)
        rec.inner_iterations, rec.inner_gap_evaluations = info.iterations, info.gap_evaluations
        if not math.isfinite(new_pair.eps):
            trace.terminated_by = "non-finite"
            break
        if not info.converged:
            trace.terminated_by = "inner-failure"
            break
        prev = before = pair
        pair = new_pair

    # Every stop, the cap included, leaves the pair as it was at the last
    # record, so an off-cadence final iterate gets its diagnostics here.
    last = trace.records[-1]
    if distances is not None and last.rel_error is None:
        distances.fill(last, pair)
    return pair, trace


class _Distances:
    """A run's distances to the truth, and the values of the last pair measured.

    A record on that same pair, after an idle step say, copies them, which is
    exact because its eps_n = max(pair.eps, eps_floor) depends on the pair alone.
    """

    def __init__(self, penalty, truth):
        self.penalty, self.truth = penalty, truth
        self.truth_norm, self.truth_value = norm(truth), penalty.value(truth)  # run constants
        self.pair = self.values = None

    def fill(self, rec, pair):
        """Set rec's ||x - truth|| / ||truth|| (||x|| for a zero truth) and eps-Bregman distance."""
        if pair is not self.pair:
            diff = self.truth - pair.x  # one difference serves both
            rel_error = norm(diff) / self.truth_norm if self.truth_norm != 0.0 else norm(pair.x)
            inflated = PrimalDualPair(x=pair.x, xi=pair.xi, eps=rec.eps_n)
            bregman = bregman_eps_distance(self.penalty, inflated, self.truth, self.truth_value, diff)
            self.pair, self.values = pair, (rel_error, bregman)
        rec.rel_error, rec.bregman_to_truth = self.values


@dataclass
class ValidationReport:
    """Admissibility summary for a configuration; advisory, never blocking."""

    kappa: float
    kappa_beta1_sigma: float
    step_cap_ok: bool
    c1: float = None
    c1_ok: bool = None
    c1_offset: float = None  # C in c1 = 1/beta - C, the part of c1 that beta leaves alone
    warnings: list = field(default_factory=list)


def validate_config(cfg, beta=2.0, c0=None):
    """Check the step-size admissibility conditions and collect warnings.

    kappa is 1 for p >= s and (beta^a - 1)^(-1/a) = (1 - beta^(-a))^(-1/a) / beta
    with a = p/(s-p) otherwise, for an auxiliary constant beta > 1; the second
    form, evaluated here, tends to 1/beta as p -> s.  The report states whether
    kappa * beta1 * sigma <= 1 and, when c0 is given, whether

        c1 = 1/beta - 1/tau - (2/p*) (beta0 / (2 c0))^(p*-1)

    is positive, p* being the conjugate exponent of p.  This is the paper's
    margin with the nonlinearity constant gamma taken as 0, exact for the
    linear CT problems.
    """
    if not beta > 1.0:
        raise ValueError("auxiliary constant beta must exceed 1")
    p, s = cfg.p, cfg.s
    if p >= s:
        kappa = 1.0
    else:
        a = p / (s - p)
        kappa = power(1.0 - power(beta, -a), -1.0 / a) / beta
    product = kappa * cfg.beta1 * cfg.sigma
    report = ValidationReport(kappa=kappa, kappa_beta1_sigma=product, step_cap_ok=product <= 1.0)
    if not report.step_cap_ok:
        report.warnings.append(
            f"kappa * beta1 * sigma = {product:g} exceeds 1; "
            "the step-size cap is outside the admissible range"
        )
    if c0 is not None:
        if p > 1.0:
            p_conj = p / (p - 1.0)
            slope_term = (2.0 / p_conj) * power(cfg.beta0 / (2.0 * c0), p_conj - 1.0)
        else:
            # conjugate exponent is infinite: the term survives only above ratio 1
            slope_term = 0.0 if cfg.beta0 <= 2.0 * c0 else math.inf
        report.c1_offset = 1.0 / cfg.tau + slope_term
        report.c1 = 1.0 / beta - report.c1_offset
        report.c1_ok = report.c1 > 0.0
        if not report.c1_ok:
            report.warnings.append(
                f"descent margin c1 = {report.c1:g} is not positive for beta = {beta:g}"
            )
    if cfg.gap_exponent <= 1.0:
        report.warnings.append(
            f"gap_exponent = {cfg.gap_exponent:g} makes the inner gap targets "
            "non-summable"
        )
    return report
