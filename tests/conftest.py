"""Shared helpers for the test suite."""

import dataclasses

import numpy as np
import pytest

from cdpkit.bench import BalancedCutConfig, gen_balanced_cut
from cdpkit.core import (
    DimensionError,
    EvaluatorFaultError,
    ManifoldHandle,
    ProblemSpec,
)
from cdpkit.manifolds import GenericManifoldSpec, make_handle


def sphere_constraint_spec(n: int) -> GenericManifoldSpec:
    """c(x) = ||x||^2 - 1 wired as a generic constraint, with the analytic
    directional derivative of its Jacobian action."""
    return GenericManifoldSpec(
        n=n, p=1,
        eval_c=lambda x: np.array([float(np.dot(x, x)) - 1.0]),
        apply_Jc=lambda x, w: 2.0 * float(np.asarray(w).ravel()[0]) * np.asarray(x, dtype=float).ravel(),
        apply_dJc=lambda x, d, w: 2.0 * float(np.asarray(w).ravel()[0]) * np.asarray(d, dtype=float).ravel(),
        name=f"sphere_as_generic({n})")


def bad_cut_point(bad):
    """Balanced cut m=10, q=2 and its start with one NaN entry, or one
    entry short."""
    problem, x0 = gen_balanced_cut(BalancedCutConfig(m=10, q=2, rho=0.3,
                                                     seed=3))
    x = np.array(x0, dtype=float)
    if bad == "nan":
        x[4] = np.nan
        return problem, x
    return problem, x[:-1]


BAD_POINTS = [("nan", EvaluatorFaultError), ("short", DimensionError)]


def counting_jc_reads(owner):
    """``owner``, a handle or a generic spec, with its ``apply_Jc`` and, if
    it has one, its ``jacobian`` counted; and a function that returns the
    counts ``(jacobian, apply_Jc)`` since its last call."""
    calls = {"jacobian": 0, "apply_Jc": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    jacobian = (None if owner.jacobian is None
                else counted("jacobian", owner.jacobian))
    owner = dataclasses.replace(
        owner, apply_Jc=counted("apply_Jc", owner.apply_Jc),
        jacobian=jacobian)

    def taken():
        counts = (calls["jacobian"], calls["apply_Jc"])
        calls.update(jacobian=0, apply_Jc=0)
        return counts

    return owner, taken


def linear_objective_sphere_problem(n: int, seed: int = 0,
                                    handle: ManifoldHandle | None = None) -> ProblemSpec:
    """Minimal sphere-constrained problem with a linear objective."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n)
    if handle is None:
        handle = make_handle("sphere", n=n)
    return ProblemSpec(
        manifold=handle,
        eval_f=lambda x: float(np.dot(g, x)),
        grad_f=lambda x: g.copy(),
        name=f"linear_on_sphere({n},seed={seed})")


def faulty_sphere_problem(name=None, bad="nan"):
    """The unit sphere in R^4 as a generic spec, with one equality and one
    active inequality, at e1.  The evaluator ``name`` returns NaN, or with
    ``bad="short"`` a value one entry short; ``jacobian`` names the spec's
    ``apply_Jc``, which the handle's ``jacobian`` reads."""
    e = np.eye(4)

    def fault(fn):
        def call(*args):
            value = np.asarray(fn(*args), dtype=float)
            return value[:-1] if bad == "short" else np.full(value.shape,
                                                              np.nan)
        return call

    spec = sphere_constraint_spec(4)
    if name in ("eval_c", "jacobian"):
        field = "apply_Jc" if name == "jacobian" else name
        spec = dataclasses.replace(
            spec, **{field: fault(getattr(spec, field))})
    problem = dataclasses.replace(
        linear_objective_sphere_problem(4),
        manifold=make_handle("generic", spec=spec),
        n_eq=1, eval_u=lambda x: x[1:2], apply_JuT=lambda x, d: d[1:2],
        apply_Ju=lambda x, w: w[0] * e[1],
        n_ineq=1, eval_v=lambda x: x[2:3], apply_JvT=lambda x, d: d[2:3],
        apply_Jv=lambda x, w: w[0] * e[2])
    if name in ("grad_f", "eval_u", "apply_Ju", "eval_v", "apply_Jv"):
        problem = dataclasses.replace(
            problem, **{name: fault(getattr(problem, name))})
    return problem, e[0]


def _within_ulps(a, b, ulps):
    """a and b differ by at most ``ulps`` units in the last place of the
    larger."""
    return abs(a - b) <= ulps * np.spacing(max(abs(a), abs(b)))


def near_manifold_points(handle: ManifoldHandle, base, count: int,
                         scale: float, seed: int = 0) -> list:
    """Random perturbations of a feasible base point."""
    rng = np.random.default_rng(seed)
    base = np.asarray(base, dtype=float).ravel()
    return [base + scale * rng.standard_normal(base.size) for _ in range(count)]


def feasibility_decrease_slope(handle: ManifoldHandle, x_feasible, direction,
                               offsets=(1e-1, 1e-2, 1e-3, 1e-4)) -> float:
    """Least-squares slope of log||c(A(y))|| against log||c(y)|| for
    y = x + t*w over the given offsets."""
    x = np.asarray(x_feasible, dtype=float).ravel()
    w = np.asarray(direction, dtype=float).ravel()
    w = w / np.linalg.norm(w)
    logs_before, logs_after = [], []
    for t in offsets:
        y = x + t * w
        cy = float(np.linalg.norm(handle.eval_c(y)))
        cay = float(np.linalg.norm(handle.eval_c(handle.eval_A(y))))
        if cy <= 0 or cay <= 0:
            continue
        logs_before.append(np.log(cy))
        logs_after.append(np.log(cay))
    if len(logs_before) < 2:
        pytest.fail("not enough usable offsets for a slope fit")
    slope, _ = np.polyfit(logs_before, logs_after, 1)
    return float(slope)
