"""Outside-in layer trace: wrappers installed around the public functions of
each cdpkit module, from the benchmark's own code, with ``src`` untouched.

Coarse boundaries (the solve, each ``lbfgs_minimize`` call,
``kkt_residual``, ``estimate_constants`` and ``a_infinity``) record spans
with a parent and a solve id.  Per-evaluation callables, which run
thousands of times, record only counts and busy time.  A layer's self time
is its busy time minus the time of the wrapped calls made beneath it.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

import cdpkit.solver as solver
from cdpkit.core import OutOfNeighborhoodError
from cdpkit.dissolve import CdpInstance, CdpPointEval, a_infinity
from cdpkit.diagnostics import kkt_residual

SPAN_NAMES = {"solver.alm", "solver.lbfgs", "diagnostics.kkt_residual",
              "diagnostics.estimate_constants", "dissolve.a_infinity"}


class Tracer:
    """Busy time, child time and call counts per wrapped name, kept apart
    per pipeline, plus the spans of the coarse boundaries."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        self.counts = defaultdict(Counter)
        self.spans: list[dict] = []
        self.pipeline = ""
        self.solve_id = -1
        self._stack: list[list] = []  # [name, child seconds, span id]
        self._open = Counter()

    def wrap(self, name: str, fn):
        span = name in SPAN_NAMES

        def traced(*args, **kwargs):
            if name == "manifolds.eval_A" and self._open["dissolve.a_infinity"]:
                self.counts[self.pipeline]["dissolve.a_infinity.maps"] += 1
            parent = self._stack[-1][2] if self._stack else None
            span_id = len(self.spans) if span else parent
            if span:
                self.spans.append({"id": span_id, "name": name,
                                   "solve": self.solve_id, "parent": parent})
            frame = [name, 0.0, span_id]
            self._stack.append(frame)
            self._open[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except OutOfNeighborhoodError:
                self.counts[self.pipeline][name + ".failures"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                self._open[name] -= 1
                self._stack.pop()
                st = self.stats[self.pipeline][name]
                st[0] += 1
                st[1] += t1 - t0
                st[2] += frame[1]
                if self._stack:
                    self._stack[-1][1] += t1 - t0
                if span:
                    self.spans[span_id].update(start=t0, end=t1)

        return traced

    def _lbfgs(self, original):
        def lbfgs(value_and_grad, x0, *args, **kwargs):
            counts = self.counts[self.pipeline]

            def counted(x):
                counts["solver.fg_evals"] += 1
                return value_and_grad(x)

            res = original(counted, x0, *args, **kwargs)
            counts["solver.inner_iters"] += res.iterations
            counts["solver.line_search_failures"] += res.status == "line_search_failure"
            return res

        return self.wrap("solver.lbfgs", lbfgs)

    def _build_cdp(self, original):
        def build(problem, params):
            self.counts[self.pipeline]["solver.beta_adaptations"] += 1
            return original(problem, params)

        return self.wrap("dissolve.build_cdp", build)

    @contextmanager
    def installed(self):
        """Rebind the solver's module-level entry points and the CDP
        evaluation methods for the duration of the block."""
        saved = {name: getattr(solver, name) for name in (
            "kkt_residual", "estimate_constants", "a_infinity",
            "lbfgs_minimize", "build_cdp")}
        point_eval, weighted_grad = CdpInstance.point_eval, CdpPointEval.weighted_grad
        solver.kkt_residual = self.wrap("diagnostics.kkt_residual", saved["kkt_residual"])
        solver.estimate_constants = self.wrap("diagnostics.estimate_constants",
                                              saved["estimate_constants"])
        solver.a_infinity = self.wrap("dissolve.a_infinity", saved["a_infinity"])
        solver.lbfgs_minimize = self._lbfgs(saved["lbfgs_minimize"])
        solver.build_cdp = self._build_cdp(saved["build_cdp"])
        CdpInstance.point_eval = self.wrap("dissolve.point_eval", point_eval)
        CdpPointEval.weighted_grad = self.wrap("dissolve.weighted_grad", weighted_grad)
        try:
            yield self
        finally:
            for name, fn in saved.items():
                setattr(solver, name, fn)
            CdpInstance.point_eval = point_eval
            CdpPointEval.weighted_grad = weighted_grad

    def traced_problem(self, problem):
        """Copy of the problem whose manifold and problem callables record
        into this tracer."""
        h = problem.manifold
        handle = replace(h, **{k: self.wrap(f"manifolds.{k}", getattr(h, k)) for k in (
            "eval_c", "apply_JcT", "apply_Jc", "eval_A", "apply_JAT")})
        wrapped = {k: self.wrap("bench.constraints", getattr(problem, k)) for k in (
            "eval_u", "apply_JuT", "apply_Ju", "eval_v", "apply_JvT", "apply_Jv")}
        return replace(problem, manifold=handle,
                       eval_f=self.wrap("bench.eval_f", problem.eval_f),
                       grad_f=self.wrap("bench.grad_f", problem.grad_f), **wrapped)

    def solve(self, pipeline: str, inst, solve_id: int):
        """One traced solve of ``inst`` by ``pipeline`` from its start."""
        self.pipeline, self.solve_id = pipeline, solve_id
        problem = self.traced_problem(inst.problem)
        if pipeline == "cdp":
            run = self.wrap("solver.alm", solver.alm_solve_cdp)
            return run(replace(inst.cdp, problem=problem), inst.x0)
        run = self.wrap("solver.alm", solver.alm_solve_nlp_direct)
        return run(problem, inst.x0)

    def busy(self, pipeline: str, name: str) -> float:
        return self.stats[pipeline][name][1]

    def self_time(self, pipeline: str, name: str) -> float:
        st = self.stats[pipeline][name]
        return st[1] - st[2]

    def calls(self, pipeline: str, name: str) -> int:
        return self.stats[pipeline][name][0]


def median_us(fn, min_batch_s: float = 0.02, samples: int = 7) -> float:
    """Median microseconds per call over ``samples`` batches, after warm-up;
    each batch runs at least ``min_batch_s``."""
    t0 = time.perf_counter()
    for _ in range(3):
        fn()
    per_call = (time.perf_counter() - t0) / 3
    k = max(1, int(min_batch_s / max(per_call, 1e-9)))
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(k):
            fn()
        out.append((time.perf_counter() - t0) / k)
    return 1e6 * statistics.median(out)


def microbench(inst, seed: int) -> dict[str, float]:
    """Median µs per call of the hot layer functions at a fixed point 1e-4
    off the manifold near the instance's start."""
    rng = np.random.default_rng(seed)
    handle, problem = inst.problem.manifold, inst.problem
    d = rng.standard_normal(handle.n)
    x = a_infinity(handle, inst.x0) + 1e-4 * d / np.linalg.norm(d)
    g = rng.standard_normal(handle.n)
    a = rng.standard_normal(problem.n_eq)
    b = rng.random(problem.n_ineq)
    pe = inst.cdp.point_eval(x)
    return {
        "manifolds.eval_A.us": median_us(lambda: handle.eval_A(x)),
        "manifolds.apply_JAT.us": median_us(lambda: handle.apply_JAT(x, g)),
        "dissolve.point_eval.us": median_us(lambda: inst.cdp.point_eval(x)),
        "dissolve.weighted_grad.us": median_us(lambda: pe.weighted_grad(1.0, a, b)),
        "diagnostics.kkt_residual.us": median_us(lambda: kkt_residual(problem, x)),
    }
