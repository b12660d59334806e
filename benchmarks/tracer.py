"""Spans around the calls into each `lkreg` module, recorded from outside.

The benchmark does not edit the package.  It replaces public functions by
timing wrappers at the place where their callers look them up: `pdhg`
imports the `tv` primitives at load, so those are wrapped as attributes of
`lkreg.pdhg`; the engine's inner solver, duality map and diagnostic are
wrapped as attributes of `lkreg.engine`; `harness.run_experiment` reaches
the engine through `harness.run`; forward and adjoint products are wrapped
on their classes.  Wrapping only the defining module would miss most calls.

A span is (name, start, end, parent).  Spans are kept in flat arrays while
the run goes on and turned into per-name call counts, inclusive time and
self time (duration minus the time covered by direct children) afterwards.
"""

import json
import types
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """Collects spans from the wrappers it installs; `restore` undoes them."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, reentrant=True, observe=None):
        """A span-recording stand-in for `fn`.

        With `reentrant=False` a call made while the same span is already the
        innermost open one runs untraced, so a function that calls itself is
        counted once.  `observe(args, result)` sees every traced call's result.
        """
        nid = self._id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self._stack, perf_counter

        def traced(*args, **kwargs):
            top = stack[-1]
            if not reentrant and top >= 0 and name_of[top] == nid:
                return fn(*args, **kwargs)
            idx = len(start)
            name_of.append(nid)
            parent.append(top)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def replace(self, owner, attr, value):
        """Set `owner.attr` to `value` until `restore`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr, name, **kwargs):
        """Replace `owner.attr` by a traced wrapper until `restore`."""
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, **kwargs))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def spans(self):
        """Spans as numpy arrays: name ids, parent indices, start, end."""
        return (
            np.frombuffer(self.name_of, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def totals(self):
        """Per span name: {"calls", "total_s", "self_s"}."""
        name_of, parent, start, end = self.spans()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        total = np.bincount(name_of, weights=dur, minlength=k)
        own = np.bincount(name_of, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def intervals(self, name, since=0):
        """(start, end) of the spans called `name`, from span index `since` on."""
        if name not in self._ids:
            return []
        name_of, _, start, end = (a[since:] for a in self.spans())
        pick = name_of == self._ids[name]
        return list(zip(start[pick].tolist(), end[pick].tolist()))

    def save(self, path):
        name_of, parent, start, end = self.spans()
        np.savez(path, names=np.array(self.names), name=name_of, parent=parent,
                 start=start, end=end)


def install_timers(tracer, lkreg, seen=None):
    """The two spans every run needs: set-up and solve.

    With a `seen` dict, the last problem built is kept as seen["problem"].
    """
    keep = None if seen is None else (lambda a, built: seen.__setitem__("problem", built[0]))
    tracer.patch(lkreg.harness, "build_problem", "harness.build_problem", observe=keep)
    tracer.patch(lkreg.harness, "run", "engine.run")


def _adder(seen, key, amount):
    def observe(args, result):
        seen[key] = seen.get(key, 0) + amount(args, result)
    return observe


def install_layers(tracer, lkreg, seen):
    """Spans at every layer boundary the per-layer metrics read.

    Work counts that are not span counts are summed into `seen`.
    """
    harness, tomo, elliptic = lkreg.harness, lkreg.tomo, lkreg.elliptic
    engine, pdhg, penalty = lkreg.engine, lkreg.pdhg, lkreg.penalty
    patch = tracer.patch

    patch(tomo, "build_parallel_tomo", "tomo.build",
          observe=_adder(seen, "tomo.build.nnz", lambda a, m: m.nnz))
    patch(tomo, "load_matrix_coo", "tomo.load")
    patch(tomo, "add_relative_gaussian_noise", "tomo.noise")
    patch(tomo, "normals", "rng.normals",
          observe=_adder(seen, "rng.normals.count", lambda a, r: r.size))
    patch(tomo.TomoProblem, "apply", "tomo.forward")
    patch(tomo.TomoProblem, "adjoint", "tomo.adjoint")

    patch(harness, "load_grid", "harness.grid_load")
    patch(harness.MatrixProblem, "apply", "harness.forward")
    patch(harness.MatrixProblem, "adjoint", "harness.adjoint")
    for writer in ("write_metrics", "write_trace", "write_pgm"):
        patch(harness, writer, "harness." + writer)
    # run_experiment writes summary.json through the module's `json` name
    tracer.replace(harness, "json", types.SimpleNamespace(
        dump=tracer.wrap(json.dump, "harness.write_summary")))

    patch(elliptic, "splu", "elliptic.factor")
    patch(elliptic, "default_problem", "elliptic.setup")
    patch(elliptic, "solve_state", "elliptic.setup")
    patch(elliptic.EllipticProblem, "apply", "elliptic.forward")
    patch(elliptic.EllipticProblem, "adjoint", "elliptic.adjoint")

    patch(engine, "inner_solver", "engine.inner_solver")
    patch(engine, "duality_map", "engine.duality_map")
    patch(engine, "bregman_eps_distance", "engine.diag")

    # with mu != 1 pdhg_solve calls itself on the normal form: count it once
    patch(pdhg, "pdhg_solve", "pdhg.solve", reentrant=False)
    patch(pdhg, "primal_value", "pdhg.primal_value")
    patch(pdhg, "_dual_value_at", "pdhg.dual_value")
    patch(pdhg, "discrete_gradient", "tv.gradient")
    patch(pdhg, "divergence_adjoint", "tv.divergence")
    patch(pdhg, "project_dual_ball", "tv.project")
    patch(pdhg, "l21_norm", "tv.l21")
    patch(pdhg, "field_dot", "tv.dot")

    patch(penalty, "tv_value", "penalty.tv_value")
