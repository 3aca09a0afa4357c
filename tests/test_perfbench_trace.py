"""The benchmark's trace mode against the package it traces.

``perfbench/run.py --trace 1`` rebinds the solver's entry points
(``kkt_residual``, ``estimate_constants``, ``a_infinity``,
``lbfgs_minimize``, ``build_cdp``), wraps the handle's and the problem's
callables by name and calls ``weighted_grad(1.0, a, b)`` positionally.
A change to any of these breaks trace mode, which the benchmark's plain
runs never enter; this test runs the tracer on one small instance.
"""

from pathlib import Path

import numpy as np
import pytest

from cdpkit.bench import (
    BalancedCutConfig,
    build_balanced_cut_cdp,
    gen_balanced_cut,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PIPELINES = ("cdp", "nlp")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads
    return tracing, workloads


def test_tracer_counts_each_layer_of_both_pipelines(perfbench):
    tracing, workloads = perfbench
    cfg = BalancedCutConfig(m=10, q=2, rho=0.3, seed=3)
    problem, x0 = gen_balanced_cut(cfg)
    inst = workloads.Instance(
        cfg, problem, build_balanced_cut_cdp(problem, beta=cfg.beta), x0)

    tracer = tracing.Tracer()
    with tracer.installed():
        for solve_id, pipeline in enumerate(PIPELINES):
            res = tracer.solve(pipeline, inst, solve_id)
            assert res.status == "converged", pipeline
    for pipeline in PIPELINES:
        for name in ("solver.lbfgs", "diagnostics.kkt_residual",
                     "manifolds.apply_Jc"):
            assert tracer.calls(pipeline, name) > 0, (pipeline, name)
        # The handle's derived eval_A is the tracer's wrapper, which counts
        # the maps of a_infinity.
        assert tracer.calls(pipeline, "manifolds.eval_A") > 0, pipeline
        assert tracer.counts[pipeline]["dissolve.a_infinity.maps"] > 0, \
            pipeline
    assert tracer.calls("cdp", "dissolve.point_eval") > 0

    micro = tracing.microbench(inst, seed=0)
    assert micro and all(np.isfinite(us) and us > 0 for us in micro.values())
