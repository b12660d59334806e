"""The benchmark's tracer still finds every name it wraps in the package.

`benchmarks/tracer.py` replaces package functions and methods by timing
wrappers.  Installing and removing them here, without running a workload,
makes a rename that would break the traced benchmark fail the test suite.
"""

import contextlib
import pathlib
import sys

import numpy as np

import lkreg.elliptic  # noqa: F401  the tracer reaches these through the package
import lkreg.engine  # noqa: F401
import lkreg.harness  # noqa: F401
import lkreg.pdhg  # noqa: F401
import lkreg.penalty  # noqa: F401
import lkreg.tomo  # noqa: F401
from lkreg.rng import normals

from conftest import idling_linear_problem, tiny_linear_problem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
import tracer  # noqa: E402


@contextlib.contextmanager
def layers_installed():
    """A tracer with every hook installed; on exit the package is as it was."""
    tomo = lkreg.tomo
    own_attrs = set(vars(tomo.TomoProblem))
    spans = tracer.Tracer()
    try:
        tracer.install_timers(spans, lkreg, {})
        tracer.install_layers(spans, lkreg, {})
        yield spans
    finally:
        spans.restore()
        for attr in set(vars(tomo.TomoProblem)) - own_attrs:
            delattr(tomo.TomoProblem, attr)  # restore() leaves inherited methods on the subclass


def test_tracer_installs_every_hook_and_restores_them():
    tomo, harness = lkreg.tomo, lkreg.harness
    with layers_installed() as spans:
        installed = list(spans._undo)
        for owner, attr in ((tomo.TomoProblem, "apply"), (tomo.TomoProblem, "adjoint"),
                            (harness.MatrixProblem, "apply"), (harness.MatrixProblem, "adjoint"),
                            (harness, "write_metrics"), (harness, "write_trace"),
                            (harness, "write_pgm")):
            assert hasattr(getattr(owner, attr), "__wrapped__"), attr

        # a CT product is a tomo span only, a plain matrix product a harness span only
        geom = tomo.TomoGeometry(q=4, angles=tomo.evenly_spaced_angles(2))
        mat = tomo.build_parallel_tomo(geom)
        ct = tomo.TomoProblem(mat, np.zeros(geom.n_rows), geom)
        plain, _, _ = tiny_linear_problem(307)
        x = normals(70, 16).reshape(4, 4)
        ct.adjoint(0, x, ct.apply(0, x))
        y = np.ones(plain.domain_shape)
        plain.adjoint(0, y, plain.apply(0, y))
        calls = {name: t["calls"] for name, t in spans.totals().items()}
        for name in ("tomo.forward", "tomo.adjoint", "harness.forward", "harness.adjoint"):
            assert calls[name] == 1, (name, calls)
    assert installed
    for owner, attr, original in installed:
        assert getattr(owner, attr) is original, attr


def test_the_diagnostics_span_counts_each_diagnosed_pair_once():
    # Every record of this run is diagnosed; its pairs are the start pair and
    # one per solve, and the 19 records after an idle step copy their values.
    engine = lkreg.engine
    problem, truth = idling_linear_problem()
    cfg = engine.SolverConfig(beta0=0.1, beta1=10.0, sigma=1e-3, tau=1.01, n_max=200)
    with layers_installed() as spans:
        _, trace = engine.run(problem, lkreg.penalty.QuadraticPenalty(mu=1.0), cfg, truth=truth)
        calls = {name: t["calls"] for name, t in spans.totals().items()}
    assert len(trace.records) == 67
    assert calls["engine.diag"] == 1 + calls["engine.inner_solver"] == 67 - 19
