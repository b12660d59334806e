"""Outer iteration: step size, termination, traces, config validation."""

import math

import numpy as np
import pytest

from lkreg import engine
from lkreg.engine import ForwardProblem, SolverConfig, run, step_size, validate_config
from lkreg.harness import ConfigError, make_config
from lkreg.pdhg import InnerInfo
from lkreg.penalty import (
    NonnegativityConstraint,
    PrimalDualPair,
    QuadraticPenalty,
    TotalVariationPenalty,
    bregman_eps_distance,
    duality_map,
    norm,
)

from conftest import idling_linear_problem, rand_grid, tiny_linear_problem


def relative_error(x, truth):
    """The reference formula for a record's rel_error."""
    return norm(x - truth) / norm(truth)


def cfg_with(**kw):
    base = dict(beta0=0.1, beta1=10.0, sigma=1e-3, tau=1.01, n_max=50)
    base.update(kw)
    return SolverConfig(**base)


def test_config_validation_rejects_bad_scalars():
    for bad in (
        dict(p=0.5),
        dict(s=1.0),
        dict(beta0=0.0),
        dict(beta1=-1.0),
        dict(sigma=0.0),
        dict(tau=1.0),
        dict(alpha=2.9),
        dict(n_max=-1),
        dict(gap_exponent=0.0),  # gap target at n = 1 would be 1
    ):
        with pytest.raises(ValueError):
            cfg_with(**bad)


def test_gap_targets_decay_and_are_summable():
    cfg = cfg_with(n_max=10_000)
    targets = np.array([cfg.gap_target(n) for n in range(10_001)])
    assert np.all(np.diff(targets) < 0.0)
    assert math.isclose(targets[1], 2.0 ** -2.2, rel_tol=1e-15)
    head = float(np.sum(targets[:5000]))
    tail = float(np.sum(targets[5000:]))
    assert tail / head < 1e-3


def test_step_size_plain_cases():
    cfg = cfg_with()
    # ||L* J r|| = ||r||: the quotient collapses to beta0
    mu_t, mu = step_size(2.0, 2.0, 1e-14, cfg)
    assert mu_t == pytest.approx(0.1, rel=1e-12)
    assert mu == pytest.approx(mu_t, rel=1e-12)  # exponent 1 - s/p = 0
    # degenerate direction falls back to the cap
    mu_t, mu = step_size(3.0, 0.0, 1e-14, cfg)
    assert mu_t == 10.0
    # zero residual in exact mode: cap again, scaled by the eps term
    mu_t, mu = step_size(0.0, 0.0, 1e-6, cfg)
    assert mu_t == 10.0 and mu == pytest.approx(10.0, rel=1e-12)


def test_step_size_fractional_exponent():
    cfg = cfg_with(p=2.0, s=1.5)
    r, ljr, eps = 2.0, 3.0, 1e-3
    mu_t, mu = step_size(r, ljr, eps, cfg)
    want_t = min(0.1 * r ** (2.0 * 0.5) / ljr ** 2.0, 10.0)
    assert mu_t == pytest.approx(want_t, rel=1e-12)
    assert mu == pytest.approx(want_t * (r ** 2 + 1e-3 * eps) ** 0.25, rel=1e-12)


def test_step_size_survives_an_underflowing_denominator():
    # ||L* J r||^p and ||r||^(p(s-1)) both underflow to 0, their quotient is 1
    mu_t, mu = step_size(0.1, 1e-199, 1e-14, SolverConfig(s=200.0))
    assert mu_t == pytest.approx(0.1, rel=1e-12)
    assert math.isfinite(mu) and mu > 0.0
    # a denominator that stays positive keeps the plain expression, bit for bit
    cfg = cfg_with(p=2.0, s=1.5)
    assert step_size(2.0, 3.0, 1e-3, cfg)[0] == 0.1 * 2.0 ** 1.0 / 3.0 ** 2.0


def test_two_plain_steps_match_hand_rollout():
    problem, matrix, truth = tiny_linear_problem(201)
    a = matrix.toarray()
    y = problem.data(0)
    pen = QuadraticPenalty(mu=1.3)
    cfg = cfg_with(n_max=2)

    x = np.zeros(truth.shape)
    for _ in range(2):
        r = a @ x.ravel() - y
        g = (a.T @ r).reshape(truth.shape)
        mu_t = min(0.1 * np.linalg.norm(r) ** 2 / np.linalg.norm(g) ** 2, 10.0)
        x = x - pen.mu * mu_t * g  # xi-space step mapped through x = mu xi

    pair, trace = run(problem, pen, cfg)
    assert trace.terminated_by == "cap"
    assert np.max(np.abs(pair.x - x)) <= 1e-12 * (1.0 + np.max(np.abs(x)))


def test_the_eps_floor_is_an_engine_constant_not_a_config_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        make_config(eps_floor=1e-14)
    # every quadratic pair, the zero start's included, certifies eps 0
    problem, _, _ = tiny_linear_problem(203)
    pair, trace = run(problem, QuadraticPenalty(mu=1.0), cfg_with(n_max=3))
    assert pair.eps == 0.0 and len(trace.records) == 4
    assert all(rec.eps_n == engine.EPS_FLOOR == 1e-14 for rec in trace.records)


def test_first_accelerated_step_equals_plain():
    problem, _, truth = tiny_linear_problem(202)
    pen = QuadraticPenalty(mu=1.0)
    cfg = cfg_with(n_max=1)
    plain, tp = run(problem, pen, cfg)
    accel, ta = run(problem, pen, cfg_with(n_max=1, mode="accelerated"))
    assert np.array_equal(plain.x, accel.x)
    assert tp.records[0].residual_norm == ta.records[0].residual_norm


def test_zero_data_keeps_iterate_at_zero():
    problem, _, truth = tiny_linear_problem(203, data=np.zeros(8))
    pair, trace = run(problem, QuadraticPenalty(mu=1.0), cfg_with(n_max=10))
    assert not np.any(pair.x)
    assert all(rec.residual_norm == 0.0 for rec in trace.records)
    # degenerate direction: the cap shows up in mu_tilde but nothing moves
    assert trace.records[0].mu_tilde == 10.0


def test_trace_structure_under_cap():
    problem, _, _ = tiny_linear_problem(204)
    pair, trace = run(problem, QuadraticPenalty(mu=1.0), cfg_with(n_max=5))
    assert trace.terminated_by == "cap" and trace.n_final == 5
    assert [rec.n for rec in trace.records] == list(range(6))
    assert trace.records[-1].inner_iterations == 0
    assert all(rec.mu_tilde <= 10.0 + 1e-12 for rec in trace.records)
    assert all(rec.mu >= 0.0 for rec in trace.records)


def test_single_record_run():
    problem, _, _ = tiny_linear_problem(205)
    pair, trace = run(problem, QuadraticPenalty(mu=1.0), cfg_with(n_max=0))
    assert len(trace.records) == 1 and trace.n_final == 0


def test_immediate_discrepancy_stop():
    problem, _, _ = tiny_linear_problem(206)
    problem.noise_level = 1e6
    pair, trace = run(problem, QuadraticPenalty(mu=1.0), cfg_with(n_max=50))
    assert trace.terminated_by == "discrepancy" and trace.n_final == 0
    assert not np.any(pair.x)
    rec = trace.records[0]
    assert rec.mu == 0.0 and rec.q_n == 1


def test_kaczmarz_cycling_and_block_residuals():
    problem, matrix, truth = tiny_linear_problem(207, rows=9, n_blocks=3)
    pen = QuadraticPenalty(mu=1.0)
    pair, trace = run(problem, pen, cfg_with(n_max=7))
    assert [rec.i_n for rec in trace.records] == [0, 1, 2, 0, 1, 2, 0, 1]
    # first record sees block 0's data with x = 0
    want = float(np.linalg.norm(problem.data(0)))
    assert trace.records[0].residual_norm == pytest.approx(want, rel=1e-12)


def test_partial_discrepancy_resets_counter():
    # block 0 starts satisfied (zero data), block 1 never satisfies
    data = np.concatenate([np.zeros(4), 50.0 * np.ones(4)])
    problem, _, _ = tiny_linear_problem(208, rows=8, n_blocks=2, data=data)
    problem.noise_level = 1.0
    pair, trace = run(problem, QuadraticPenalty(mu=1.0), cfg_with(n_max=6))
    qs = [rec.q_n for rec in trace.records]
    assert qs[0] == 1 and qs[1] == 0  # held on block 0, reset on block 1
    assert trace.records[0].mu == 0.0 and trace.records[1].mu > 0.0


def test_mu_zero_exactly_when_test_holds():
    problem, matrix, truth = tiny_linear_problem(209, rows=8)
    problem.noise_level = 0.4 * float(np.linalg.norm(problem.data(0)))
    cfg = cfg_with(n_max=200)
    pair, trace = run(problem, QuadraticPenalty(mu=1.0), cfg)
    assert trace.terminated_by == "discrepancy"
    thr = (cfg.tau * problem.noise_level) ** cfg.p
    for rec in trace.records:
        held = rec.residual_norm ** cfg.p + cfg.sigma * rec.eps_n <= thr
        assert (rec.mu == 0.0) == held


def test_inner_failure_terminates_run():
    # data large enough that the first subproblem leaves the constant regime,
    # which the closed form would certify with 0 iterations
    _, A, truth = tiny_linear_problem(210)
    problem, _, _ = tiny_linear_problem(210, data=100 * (A @ truth.ravel()))
    pen = TotalVariationPenalty(mu=1.0, constraint=NonnegativityConstraint())
    cfg = cfg_with(n_max=50, eta0=1e-3, inner_max_iter=1)
    pair, trace = run(problem, pen, cfg)
    assert trace.terminated_by == "inner-failure"
    assert trace.n_final == 0 and len(trace.records) == 1


@pytest.mark.parametrize("s", [1.5, 2.0, 3.7])
def test_duality_map_given_the_residual_norm_keeps_its_bits(s):
    # `run` hands duality_map the norm it took for the discrepancy test
    for r in (rand_grid(61, (5, 3)), np.zeros(4), 1e-160 * rand_grid(62, (92,))):
        assert np.array_equal(duality_map(r, s, norm(r)), duality_map(r, s))


class PoisonedProblem(ForwardProblem):
    """A tiny linear problem whose residual or update turns `value` at outer step k."""

    def __init__(self, base, k, where, value):
        self.base, self.k, self.where, self.value = base, k, where, value
        self.num_blocks, self.domain_shape = base.num_blocks, base.domain_shape
        self.step = -1  # the engine takes one residual per outer step
        self.adjoint_steps = []

    def residual(self, i, x):
        self.step += 1
        return self._poison(self.base.residual(i, x), "residual")

    def adjoint(self, i, x, w):
        self.adjoint_steps.append(self.step)
        return self._poison(self.base.adjoint(i, x, w), "adjoint")

    def _poison(self, arr, where):
        if self.where == where and self.step == self.k:
            arr = arr.copy()
            arr[0] = self.value
        return arr


def assert_stopped_non_finite_at(trace, k):
    assert trace.terminated_by == "non-finite"
    assert trace.n_final == k and len(trace.records) == k + 1
    assert all(math.isfinite(rec.residual_norm) for rec in trace.records[:k])


@pytest.mark.parametrize("mode", ["plain", "accelerated"])
@pytest.mark.parametrize("where,value", [
    ("residual", math.nan), ("residual", math.inf), ("adjoint", math.nan), ("adjoint", -math.inf),
])
def test_non_finite_residual_or_update_stops_run(where, value, mode):
    base, _, _ = tiny_linear_problem(212)
    k = 6
    problem = PoisonedProblem(base, k, where, value)
    pair, trace = run(problem, QuadraticPenalty(mu=1.0), cfg_with(n_max=500, mode=mode))
    assert_stopped_non_finite_at(trace, k)
    assert problem.step == k  # no residual evaluated after the stop
    # a non-finite residual stops the run before its adjoint is spent
    assert problem.adjoint_steps[-1] == (k if where == "adjoint" else k - 1)
    assert np.all(np.isfinite(pair.x)) and np.all(np.isfinite(pair.xi))


def test_non_finite_certificate_stops_run(monkeypatch):
    problem, _, _ = tiny_linear_problem(213)
    k = 4
    real_inner_solver = engine.inner_solver
    calls = []

    def poisoned_inner_solver(xi, penalty, **kw):
        pair, info = real_inner_solver(xi, penalty, **kw)
        if len(calls) == k:
            pair = PrimalDualPair(x=pair.x, xi=pair.xi, eps=math.inf)
        calls.append(pair)
        return pair, info

    monkeypatch.setattr(engine, "inner_solver", poisoned_inner_solver)
    pen = TotalVariationPenalty(mu=1.0, constraint=NonnegativityConstraint())
    pair, trace = run(problem, pen, cfg_with(n_max=500))
    assert_stopped_non_finite_at(trace, k)
    assert len(calls) == k + 1 and pair is calls[k - 1]


def test_truth_diagnostics_and_cadence():
    problem, _, truth = tiny_linear_problem(211)
    pair, trace = run(
        problem, QuadraticPenalty(mu=1.0), cfg_with(n_max=7, metric_every=3),
        truth=truth,
    )
    recs = trace.records
    assert recs[0].rel_error == pytest.approx(1.0)  # x0 = 0
    assert recs[1].rel_error is None and recs[2].rel_error is None
    assert recs[3].rel_error is not None
    assert recs[-1].rel_error is not None  # final record always diagnosed
    assert recs[-1].bregman_to_truth >= -1e-10


@pytest.mark.parametrize("stop,n_final", [("cap", 7), ("discrepancy", 4), ("inner-failure", 5)])
def test_final_record_diagnosed_off_cadence(monkeypatch, stop, n_final):
    problem, _, truth = tiny_linear_problem(211)
    pen = QuadraticPenalty(mu=1.0)
    cfg = cfg_with(n_max=7, metric_every=3)
    if stop == "discrepancy":
        # a noise level whose test first holds at step 4 of the noiseless run
        _, free = run(problem, pen, cfg)
        problem.noise_level = 1.001 * free.records[n_final].residual_norm / 1.01
    if stop == "inner-failure":
        real_inner_solver = engine.inner_solver
        solves = []

        def failing_at_n_final(xi, penalty, **kw):
            pair, info = real_inner_solver(xi, penalty, **kw)
            solves.append(info)
            if len(solves) == n_final + 1:
                info = InnerInfo(iterations=info.iterations, converged=False)
            return pair, info

        monkeypatch.setattr(engine, "inner_solver", failing_at_n_final)
    pair, trace = run(problem, pen, cfg, truth=truth)
    assert trace.terminated_by == stop and trace.n_final == n_final
    last = trace.records[-1]
    assert last.rel_error == relative_error(pair.x, truth)
    inflated = PrimalDualPair(x=pair.x, xi=pair.xi, eps=last.eps_n)
    assert last.bregman_to_truth == bregman_eps_distance(pen, inflated, truth)
    for rec in trace.records[:-1]:
        diagnosed = rec.n % 3 == 0
        assert (rec.rel_error is not None) == diagnosed
        assert (rec.bregman_to_truth is not None) == diagnosed


def test_run_rejects_bad_inputs():
    problem, _, _ = tiny_linear_problem(212)
    with pytest.raises(ValueError):
        run(problem, QuadraticPenalty(mu=1.0), cfg_with(mode="sideways"))


def test_validate_kappa_values():
    assert validate_config(cfg_with()).kappa == 1.0  # p = s = 2
    rep = validate_config(cfg_with(p=2.0, s=3.0), beta=2.0)
    assert rep.kappa == pytest.approx(3.0 ** -0.5, rel=1e-12)


def test_validate_step_cap_product():
    ok = validate_config(cfg_with(beta1=10.0, sigma=1e-3))
    assert ok.step_cap_ok and ok.kappa_beta1_sigma == pytest.approx(0.01)
    bad = validate_config(cfg_with(beta1=2e4, sigma=1e-3))
    assert not bad.step_cap_ok and bad.kappa_beta1_sigma == pytest.approx(20.0)
    assert any("exceeds 1" in w for w in bad.warnings)


def test_validate_descent_margin():
    rep = validate_config(cfg_with(tau=1.01, beta0=0.1), c0=0.5)
    assert rep.c1 == pytest.approx(-0.5900990099009901, rel=1e-12)
    assert rep.c1_ok is False
    roomy = validate_config(cfg_with(tau=8.0, beta0=0.01), c0=0.5)
    assert roomy.c1_ok is True and not roomy.warnings


def test_validate_auto_beta_respects_gamma():
    # gamma is taken as 0, so the default beta = 2 meets beta * gamma < 1
    rep = validate_config(cfg_with(), c0=0.5)
    assert rep == validate_config(cfg_with(), beta=2.0, c0=0.5)
    assert not any("beta * gamma" in w for w in rep.warnings)
    with pytest.raises(ValueError):
        validate_config(cfg_with(), beta=1.0)


def test_validate_warns_on_a_non_summable_gap_schedule():
    flat = validate_config(cfg_with(gap_exponent=0.9))
    assert any("non-summable" in w for w in flat.warnings)


def test_validate_p_one_edge():
    quiet = validate_config(cfg_with(p=1.0, s=1.5, beta0=0.5, tau=8.0), c0=0.5)
    assert quiet.c1 is not None and math.isfinite(quiet.c1)
    steep = validate_config(cfg_with(p=1.0, s=1.5, beta0=5.0, tau=8.0), c0=0.5)
    assert steep.c1 == -math.inf and steep.c1_ok is False


def test_scalar_power_overflow_gives_inf_not_an_exception():
    from lkreg.penalty import duality_map, power

    assert power(1e10, 400.0) == math.inf and power(2.0, 3.0) == 8.0
    assert not math.isfinite(step_size(10.0, 10.0, 1e-14, cfg_with(p=400.0))[1])
    assert cfg_with(gap_exponent=-100.0, eta0=1e-40, n_max=0).gap_target(10**4) == math.inf
    assert np.all(np.isinf(duality_map(np.array([1e10, 1.0]), 400.0)))


def test_p_400_run_stops_non_finite():
    problem, _, _ = tiny_linear_problem(213)
    problem.noise_level = 1e-3
    pair, trace = run(problem, QuadraticPenalty(mu=1.0), cfg_with(p=400.0))
    assert trace.terminated_by == "non-finite" and trace.n_final == len(trace.records) - 1


def test_overflowing_discrepancy_bound_stops_non_finite():
    # (tau delta)^p = inf would let every residual, even an infinite one, pass the test
    problem, _, _ = tiny_linear_problem(214)
    problem.noise_level = 10.0
    pair, trace = run(problem, QuadraticPenalty(mu=1.0), cfg_with(p=400.0))
    assert trace.terminated_by == "non-finite" and trace.n_final == 0
    assert not np.any(pair.x)


def test_power_of_zero_to_a_negative_exponent_is_inf():
    from lkreg.penalty import power

    assert power(0.0, -1.0) == math.inf and power(0.0, -5e307) == math.inf
    assert power(0.0, 2.0) == 0.0


@pytest.mark.parametrize("p, s", [(1.0, 1.0001), (1.0, 1.0 + 2.0 ** -52), (1.5, 40.0)])
def test_kappa_form_matches_the_direct_formula_and_tends_to_one_over_beta(p, s):
    rep = validate_config(cfg_with(p=p, s=s), beta=2.0)
    a = p / (s - p)
    direct = (2.0 ** a - 1.0) ** (-1.0 / a) if a < 1000.0 else 0.5
    assert rep.kappa == pytest.approx(direct, rel=1e-12)


def test_kappa_for_a_huge_s_is_inf_with_a_warning():
    rep = validate_config(cfg_with(s=1e308))
    assert rep.kappa == math.inf and not rep.step_cap_ok
    assert any("exceeds 1" in w for w in rep.warnings)


def test_run_rejects_a_diagnostic_stride_below_one():
    problem, _, truth = tiny_linear_problem(215)
    with pytest.raises(ValueError, match="metric_every"):
        run(problem, QuadraticPenalty(mu=1.0), cfg_with(metric_every=0), truth=truth)


def test_block_count_and_modes_have_one_owner():
    from lkreg import harness

    with pytest.raises(TypeError):
        SolverConfig(n_blocks=2)
    with pytest.raises(ValueError, match="mode must be one of plain, accelerated; got 'x'"):
        SolverConfig(mode="x")
    assert "mode" not in harness._CHOICES


def test_the_noise_level_belongs_to_the_problem():
    with pytest.raises(TypeError):
        SolverConfig(delta=0.1)
    with pytest.raises(TypeError):
        step_size(1.0, 1.0, 1e-14, cfg_with(), noisy=True)


@pytest.mark.parametrize("level", [-0.1, math.inf, math.nan])
def test_run_refuses_a_bad_noise_level_before_step_0(monkeypatch, level):
    problem, _, _ = tiny_linear_problem(216)
    problem.noise_level = level
    monkeypatch.setattr(problem, "residual", lambda i, x: pytest.fail("step 0 was taken"))
    with pytest.raises(ValueError, match="noise_level must be finite and nonnegative"):
        run(problem, QuadraticPenalty(mu=1.0), cfg_with())


@pytest.mark.parametrize("shape", [(4,), (1, 4), (12,), (4, 3), (3, 4, 1)])
def test_run_refuses_a_truth_of_another_shape_before_step_0(monkeypatch, shape):
    # a (4,) or (1, 4) truth would broadcast against the 3 x 4 iterate
    problem, _, truth = tiny_linear_problem(216)
    monkeypatch.setattr(problem, "residual", lambda i, x: pytest.fail("step 0 was taken"))
    with pytest.raises(ValueError, match="truth has shape"):
        run(problem, QuadraticPenalty(mu=1.0), cfg_with(), truth=np.resize(truth, shape))


@pytest.mark.parametrize("pen", [
    TotalVariationPenalty(mu=1.0), QuadraticPenalty(mu=1.0),
], ids=["tv", "quadratic"])
def test_run_refuses_a_gap_schedule_leaving_the_unit_interval_before_step_0(monkeypatch, pen):
    # 0.1 * (n + 1) reaches 1 at n = 9, inside the cap of 20
    real_inner_solver = engine.inner_solver
    calls = []

    def counting_inner_solver(*args, **kw):
        calls.append(kw.get("gap_target"))
        return real_inner_solver(*args, **kw)

    monkeypatch.setattr(engine, "inner_solver", counting_inner_solver)
    problem, _, _ = tiny_linear_problem(215)
    with pytest.raises(ValueError, match=r"gap target at n = n_max = 20 must lie in \(0, 1\)"):
        run(problem, pen, SolverConfig(gap_exponent=-1.0, eta0=0.1, n_max=20))
    assert calls == []


# id -> (penalty, mode, metric_every, noisy): the noiseless 2-block runs take
# a new pair at every step, the noisy 4-block ones hold 19 steps idle
_DIAGNOSED_RUNS = {
    "QuadraticPenalty-plain": (QuadraticPenalty, "plain", 1, False),
    "QuadraticPenalty-accelerated": (QuadraticPenalty, "accelerated", 1, False),
    "TotalVariationPenalty-plain": (TotalVariationPenalty, "plain", 1, False),
    "TotalVariationPenalty-accelerated": (TotalVariationPenalty, "accelerated", 1, False),
    "QuadraticPenalty-idle-steps-every-1": (QuadraticPenalty, "plain", 1, True),
    "QuadraticPenalty-idle-steps-every-3": (QuadraticPenalty, "plain", 3, True),
}


@pytest.mark.parametrize("kind,mode,every,noisy", _DIAGNOSED_RUNS.values(),
                         ids=_DIAGNOSED_RUNS.keys())
def test_every_record_matches_the_reference_diagnostics(monkeypatch, kind, mode, every, noisy):
    if noisy:
        problem, truth = idling_linear_problem()
        n_max = 200
    else:
        problem, _, truth = tiny_linear_problem(233, n_blocks=2)
        n_max = 9
    truth_values = []

    class CountingPenalty(kind):
        def value(self, z):
            if z is truth:
                truth_values.append(z)
            return super().value(z)

    # each step's residual comes first, at the pair the last solve returned
    solved = [PrimalDualPair(x=np.zeros(truth.shape), xi=np.zeros(truth.shape), eps=0.0)]
    at_record, measured = [], []
    real_inner_solver, real_residual = engine.inner_solver, problem.residual
    real_bregman = engine.bregman_eps_distance

    def recording(xi, penalty, **kw):
        pair, info = real_inner_solver(xi, penalty, **kw)
        solved.append(pair)
        return pair, info

    def residual(i, x):
        at_record.append(solved[-1])
        return real_residual(i, x)

    def counting_bregman(*args):
        measured.append(args)
        return real_bregman(*args)

    monkeypatch.setattr(engine, "inner_solver", recording)
    monkeypatch.setattr(problem, "residual", residual)
    monkeypatch.setattr(engine, "bregman_eps_distance", counting_bregman)
    pen = CountingPenalty(mu=1.0)
    _, trace = run(problem, pen, cfg_with(n_max=n_max, mode=mode, metric_every=every),
                   truth=truth)
    assert len(truth_values) == 1  # Theta(truth) is a run constant
    assert len(at_record) == len(trace.records)
    if not noisy:
        assert len(solved) == len(trace.records)  # one solve per step but the capped last
    reference = kind(mu=1.0)
    diagnosed = []
    for rec, pair in zip(trace.records, at_record):
        if rec.n % every and rec is not trace.records[-1]:
            assert rec.rel_error is None and rec.bregman_to_truth is None
            continue
        diagnosed.append(pair)
        assert rec.rel_error == relative_error(pair.x, truth)
        inflated = PrimalDualPair(x=pair.x, xi=pair.xi, eps=rec.eps_n)
        assert rec.bregman_to_truth == bregman_eps_distance(reference, inflated, truth)
    # one distance per pair: a record on a pair that did not move copies the last one's
    distinct = len({id(pair) for pair in diagnosed})
    assert len(measured) == distinct
    assert (distinct < len(diagnosed)) == noisy


def test_the_discrepancy_stop_nears_the_truth_as_the_noise_falls():
    # The paper's regularization property on a CT config its theory covers:
    # the ct-desk preset at 24 x 24, 16 angles and tau = 1.5, where c1 > 0
    # for 1 < beta < 1.3043.  Accelerated at three noise levels, plain at the
    # coarser two (the finest takes it 2,761 steps); 1.4 s in all on a
    # 2-vCPU Xeon.
    # The paper proves the plain mode, so only its runs must descend in the
    # Bregman distance; the accelerated one is as measured.
    from lkreg.harness import build_problem, make_config

    base = dict(preset="ct-desk", ct_q=24, ct_angles=16, tau=1.5)
    cfg = make_config(**base)
    assert validate_config(cfg, beta=1.2, c0=cfg.penalty_object().c0).c1 > 0.0
    for mode, levels in (("accelerated", (0.04, 0.01, 0.0025)), ("plain", (0.04, 0.01))):
        stops, errors = [], []
        for noise_rel in levels:
            cfg = make_config(**base, noise_rel=noise_rel, mode=mode)
            problem, truth = build_problem(cfg)
            _, trace = run(problem, cfg.penalty_object(), cfg, truth=truth)
            assert trace.terminated_by == "discrepancy", (mode, noise_rel)
            if mode == "plain":
                # criterion 3's eps-Bregman descent to the truth, inexact solves included
                for prev, cur in zip(trace.records, trace.records[1:]):
                    slack = 2.0 * prev.eps_n + cur.eps_n + 1e-6 * (1.0 + prev.bregman_to_truth)
                    assert cur.bregman_to_truth - prev.bregman_to_truth <= slack, (noise_rel, cur.n)
            stops.append(trace.n_final)
            errors.append(trace.records[-1].rel_error)
        assert stops == sorted(stops), mode
        assert all(coarse > fine for coarse, fine in zip(errors, errors[1:])), (mode, errors)


def test_the_pde_discrepancy_stop_nears_the_truth_as_the_noise_falls(monkeypatch):
    # The PDE analogue: pde-desk (40 x 40 mesh) at seed 1, plain at 1 % and
    # 0.3 % noise, accelerated also at 0.1 %; 5.4 s in all on a 2-vCPU Xeon.
    # `validate` flags this config (kappa * beta1 * sigma = 20), so only the
    # measured facts are asserted: plain stops at 506 / 1,678 with rel_error
    # 0.531 / 0.396, accelerated at 276 / 444 / 627 with 0.462 / 0.410 / 0.325.
    # Under `nonneg` plain runs keep every adjoint's coefficient in the cone;
    # accelerated ones take it at the extrapolant, which leaves it: at 1 %,
    # 128 of 276 calls see a negative cell.
    from lkreg.elliptic import EllipticProblem
    from lkreg.harness import build_problem, make_config

    real_adjoint, negative = EllipticProblem.adjoint, []

    def counting_adjoint(self, i, x, w):
        negative.append(bool((x < 0.0).any()))
        return real_adjoint(self, i, x, w)

    monkeypatch.setattr(EllipticProblem, "adjoint", counting_adjoint)
    for mode, levels in (("plain", (0.01, 0.003)), ("accelerated", (0.01, 0.003, 0.001))):
        stops, errors = [], []
        for noise_rel in levels:
            cfg = make_config(preset="pde-desk", n_max=20000, noise_rel=noise_rel, mode=mode)
            problem, truth = build_problem(cfg)
            negative.clear()
            _, trace = run(problem, cfg.penalty_object(), cfg, truth=truth)
            assert trace.terminated_by == "discrepancy", (mode, noise_rel)
            if mode == "plain":
                assert not any(negative), noise_rel
            elif noise_rel == 0.01:
                assert (sum(negative), len(negative)) == (128, 276)
            stops.append(trace.n_final)
            errors.append(trace.records[-1].rel_error)
        assert stops == sorted(stops), mode
        assert all(coarse > fine for coarse, fine in zip(errors, errors[1:])), (mode, errors)


def test_the_warm_start_outlives_idle_steps(tmp_path):
    # An idle step (the discrepancy test holds) resets the momentum's prev but
    # not the pair the last inner solve started from, so the next TV solve
    # still extrapolates from the last two solves.  This accelerated 4-block
    # run has 11 idle steps before its discrepancy stop at step 111; starting
    # from prev instead gives metrics.csv a digest beginning a8ebaf3c.
    # ROADMAP item 3 (extrapolating between whole sweeps) will move this
    # digest on purpose.
    import hashlib

    from lkreg.harness import make_config, run_experiment

    cfg = make_config(ct_q=16, ct_angles=8, ct_angle_step=22.5, n_blocks=4, noise_rel=0.05,
                      n_max=3000, mode="accelerated", seed=1)
    _, trace, _ = run_experiment(cfg, out_dir=tmp_path)
    assert trace.terminated_by == "discrepancy" and trace.n_final == 111
    assert sum(rec.q_n > 0 for rec in trace.records[:-1]) == 11
    digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    assert digest == "45abf71dd12305250db8e1dcc2e694775f8745a1c0ad49dfbec63531edca002a"


def test_a_plain_tv_run_keeps_its_bytes(tmp_path, monkeypatch):
    # ct-desk for 400 steps at seed 1, to the cap, pinned byte for byte.  Its
    # solves reach all three PDHG phases: 12 are certified at their start,
    # 388 search in float32, and 4 of those go on in float64.  Every inner
    # product has 4,096 entries, too few for the BLAS to split by thread, so
    # the digest holds under any thread count.
    import hashlib

    from lkreg import pdhg
    from lkreg.harness import make_config, run_experiment

    real_checked_iterates, float64_runs = pdhg._checked_iterates, []

    def counting_checked_iterates(it, iters, max_iter):
        float64_runs.append(it.z.dtype == np.float64)
        return real_checked_iterates(it, iters, max_iter)

    monkeypatch.setattr(pdhg, "_checked_iterates", counting_checked_iterates)
    _, trace, _ = run_experiment(make_config(preset="ct-desk", n_max=400, seed=1),
                                 out_dir=tmp_path)
    assert trace.terminated_by == "cap" and trace.n_final == 400
    iterations = [rec.inner_iterations for rec in trace.records[:-1]]
    assert iterations.count(0) == 12 and sum(iterations) == 8596
    assert (len(float64_runs), sum(float64_runs)) == (388 + 4, 4)
    digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    assert digest == "9033a2c411c6dc565c555bc7bfaf39ec74a56659a033fd8c6e04aecb47840cfd"


def test_the_engine_hands_the_solver_the_pairs_it_holds(monkeypatch):
    # The benchmark's probe stands in for `engine.inner_solver` and reads
    # `gap_target` from the keywords, so every call passes it by name.  An
    # accelerated 4-block run with idle steps: `last` is the pair the last
    # solve returned, and `before` the one that solve started from, never the
    # momentum's pair.
    from lkreg.harness import build_problem, make_config

    real_inner_solver, calls = engine.inner_solver, []

    def recording(*args, **kw):
        pair, info = real_inner_solver(*args, **kw)
        calls.append((args, kw, pair))
        return pair, info

    monkeypatch.setattr(engine, "inner_solver", recording)
    cfg = make_config(ct_q=16, ct_angles=8, ct_angle_step=22.5, n_blocks=4, noise_rel=0.05,
                      n_max=3000, mode="accelerated", seed=1)
    problem, _ = build_problem(cfg)
    pen = cfg.penalty_object()
    _, trace = run(problem, pen, cfg)
    solved = [rec.n for rec in trace.records[:-1] if rec.q_n == 0]
    assert len(calls) == len(solved) and len(solved) < len(trace.records) - 1  # idle steps
    start = calls[0][1]["last"]
    assert start.lam is None and not start.x.any() and calls[0][1]["before"] is start
    for k, ((args, kw, _), n) in enumerate(zip(calls, solved)):
        assert len(args) == 2 and args[1] is pen
        assert set(kw) == {"gap_target", "last", "before", "max_iter"}
        assert kw["gap_target"] == cfg.gap_target(n + 1) and kw["max_iter"] == cfg.inner_max_iter
        if k > 0:
            assert kw["last"] is calls[k - 1][2] and kw["before"] is calls[k - 1][1]["last"]
