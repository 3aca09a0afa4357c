"""Transformation engine: builds the penalized problem from an NLP,
evaluates h, u~, v~ and their gradients at a point (``point_eval``),
iterates the dissolving map and probes Lagrangian decrease under it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .core import (
    DimensionError,
    ManifoldHandle,
    MultiplierSet,
    OutOfNeighborhoodError,
    PenaltyParams,
    ProblemSpec,
    Vector,
    _check_point,
    _check_shape,
)

__all__ = [
    "CdpInstance",
    "CdpPointEval",
    "DecreaseProbeReport",
    "a_infinity",
    "apply_A_k",
    "build_cdp",
    "cdp_lagrangian",
    "lagrangian_decrease_probe",
]

# Map steps of ``a_infinity``; the generators' projections take at most 4.
A_INFINITY_MAX_ITER = 50


@dataclass
class CdpPointEval:
    """All transformed quantities at one point x, read from one state
    ``point`` = ``ManifoldHandle.point(x)`` and, for the penalty term
    Jc(x) c(x), the handle's ``apply_Jc``; x must not change while in use.
    ``point.ax`` and ``point.cx`` are A(x) and c(x), bit for bit the
    handle's ``eval_A(x)`` and ``eval_c(x)``."""

    x: Vector
    point: Any
    h: float
    u_tilde: Vector
    v_tilde: Vector
    _instance: "CdpInstance"

    def lagrangian(self, mult: MultiplierSet) -> float:
        """Value of h + lambda^T u~ + mu^T v~."""
        prob = self._instance.problem
        lam = _check_shape(mult.lam, (prob.n_eq,), "lambda")
        mu = _check_shape(mult.mu, (prob.n_ineq,), "mu")
        return self.h + float(np.dot(lam, self.u_tilde)) \
            + float(np.dot(mu, self.v_tilde))

    def weighted_grad(self, w_f: float = 1.0,
                      a: Vector | None = None,
                      b: Vector | None = None) -> Vector:
        """Gradient of w_f * h + a^T u~ + b^T v~, with one transposed-Jacobian
        application of A shared across all terms.  A non-empty a or b not
        of shape (n_eq,) or (n_ineq,) raises ``DimensionError`` naming
        ``lambda`` or ``mu``, as ``lagrangian`` does."""
        inst = self._instance
        prob = inst.problem
        params = inst.params
        pt = self.point
        g = w_f * prob.grad_f(pt.ax)
        pen = w_f * params.beta
        # The shape is compared first: the check costs more than the test.
        if a is not None and a.size:
            if a.shape != (prob.n_eq,):
                _check_shape(a, (prob.n_eq,), "lambda")
            g = g + prob.apply_Ju(pt.ax, a)
            pen += float(np.dot(a, params.tau))
        if b is not None and b.size:
            if b.shape != (prob.n_ineq,):
                _check_shape(b, (prob.n_ineq,), "mu")
            g = g + prob.apply_Jv(pt.ax, b)
            pen += float(np.dot(b, params.gamma))
        out = pt.jat(g)
        if pen != 0.0:
            out = out + pen * prob.manifold.apply_Jc(self.x, pt.cx)
        return out


@dataclass(frozen=True)
class CdpInstance:
    """The transformed problem

        min  h(x) = f(A(x)) + (beta/2) ||c(x)||^2
        s.t. u~_i(x) = u_i(A(x)) + (tau_i/2) ||c(x)||^2  = 0
             v~_j(x) = v_j(A(x)) + (gamma_j/2) ||c(x)||^2 <= 0

    read only through ``point_eval(x)``, which holds one state at x.  The
    constructor fills an empty tau or gamma with zeros; one not of shape
    (n_eq,) or (n_ineq,) raises ``DimensionError``.
    """

    problem: ProblemSpec
    params: PenaltyParams

    def __post_init__(self):
        prob, params = self.problem, self.params
        tau = (_check_shape(params.tau, (prob.n_eq,), "tau")
               if params.tau.size else np.zeros(prob.n_eq))
        gamma = (_check_shape(params.gamma, (prob.n_ineq,), "gamma")
                 if params.gamma.size else np.zeros(prob.n_ineq))
        object.__setattr__(self, "params",
                           PenaltyParams(params.beta, tau, gamma))

    def point_eval(self, x: Vector) -> CdpPointEval:
        x = np.asarray(x, dtype=float).ravel()
        pt = self.problem.manifold.point(x)
        ax, cx = pt.ax, pt.cx
        half = 0.5 * float(np.dot(cx, cx))
        h = float(self.problem.eval_f(ax)) + self.params.beta * half
        u_t = self.problem.eval_u(ax) + self.params.tau * half
        v_t = self.problem.eval_v(ax) + self.params.gamma * half
        return CdpPointEval(x, pt, h, u_t, v_t, self)


def build_cdp(problem: ProblemSpec, params: PenaltyParams) -> CdpInstance:
    """``CdpInstance(problem, params)``, under the name its callers use."""
    return CdpInstance(problem, params)


def _map_step(handle: ManifoldHandle, z: Vector,
              viol: float) -> tuple[Vector, float]:
    """One application of the dissolving map to z, where ||c(z)|| = viol,
    and the new ||c||, with its reads checked for shape only.  Raises
    ``OutOfNeighborhoodError`` when ||c|| is non-finite or above 10 viol."""
    z = _check_shape(handle.eval_A(z), (handle.n,), "eval_A")
    viol_next = float(np.linalg.norm(
        _check_shape(handle.eval_c(z), (handle.p,), "eval_c")))
    if not np.isfinite(viol_next) or viol_next > 10.0 * max(viol, 1e-300):
        raise OutOfNeighborhoodError(
            f"iterated map diverged (||c|| = {viol_next:.3e})", viol_next)
    return z, viol_next


def apply_A_k(handle: ManifoldHandle, y: Vector, k: int) -> Vector:
    """k-fold composition of the dissolving map; k = 0 returns y.  Its
    reads are checked as ``a_infinity``'s are."""
    if k < 0:
        raise DimensionError(f"k must be >= 0, got {k}")
    z = _check_point(y, handle.n, "y")
    viol = float(np.linalg.norm(_check_point(handle.eval_c(z), handle.p,
                                             "eval_c")))
    for _ in range(k):
        z, viol = _map_step(handle, z, viol)
    return z


def a_infinity(handle: ManifoldHandle, y: Vector,
               tol: float = 1e-12) -> Vector:
    """Iterate the dissolving map until ||c|| <= tol.

    Quadratic contraction makes the ``A_INFINITY_MAX_ITER`` budget vastly
    sufficient inside the operative neighborhood; outside it the 10x
    growth detector aborts early.  ``tol`` must be finite and positive.
    y and c(y) are read through ``_check_point``, and the reads at mapped
    points for shape only (``_map_step``).
    """
    if not 0 < tol < np.inf:
        raise DimensionError(f"tol must be finite and positive, got {tol}")
    z = _check_point(y, handle.n, "y")
    viol = float(np.linalg.norm(_check_point(handle.eval_c(z), handle.p,
                                             "eval_c")))
    for _ in range(A_INFINITY_MAX_ITER):
        if viol <= tol:
            return z
        z_next, viol_next = _map_step(handle, z, viol)
        if viol_next >= viol:
            raise OutOfNeighborhoodError(
                f"iterated map stalled (||c|| = {viol_next:.3e})", viol_next)
        z, viol = z_next, viol_next
    if viol <= tol:
        return z
    raise OutOfNeighborhoodError(
        f"max_iter exceeded with ||c|| = {viol:.3e}", viol)


def cdp_lagrangian(instance: CdpInstance, x: Vector,
                   mult: MultiplierSet) -> tuple[float, Vector]:
    """Value and gradient of h + lambda^T u~ + mu^T v~."""
    pe = instance.point_eval(x)
    return pe.lagrangian(mult), pe.weighted_grad(a=mult.lam, b=mult.mu)


@dataclass
class DecreaseProbeReport:
    offsets: list[float] = field(default_factory=list)
    single_step_decrease: list[float] = field(default_factory=list)
    limit_decrease: list[float] = field(default_factory=list)
    h_decrease: list[float] = field(default_factory=list)
    quarter_beta_c_sq: list[float] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    passed: bool = False


def lagrangian_decrease_probe(instance: CdpInstance, x_feasible: Vector,
                              mult: MultiplierSet, offsets: Sequence[float],
                              seed: int = 0) -> DecreaseProbeReport:
    """Probe monotone Lagrangian decrease under single and iterated
    applications of the dissolving map at points x + t*w, for a random
    unit direction w drawn from ``seed``.  A decrease passes when it is at
    least -1e-10.  ``eval_u`` and ``eval_v`` are read once at ``x_feasible``
    through ``_check_point``, as a solve's first pass reads them.

    For equality-free problems additionally records the quadratic
    h-decrease bound (beta/4)||c(y)||^2.  Each offset reads three states,
    at y, A(y) and ``a_infinity(y)``.  Whether beta meets its penalty
    bound is ``diagnostics.check_condition``'s question, not the probe's.

    At offset 0 the limit difference is exactly 0 at any point within
    ``a_infinity``'s tolerance, which returns such a point unchanged.  The
    single-step difference is 0 only up to rounding there, and exactly 0
    only where ``c(x) == 0``, since then ``A(x) == x`` bit for bit.
    """
    problem = instance.problem
    x = _check_point(x_feasible, problem.n, "x_feasible")
    _check_point(problem.eval_u(x), problem.n_eq, "eval_u")
    _check_point(problem.eval_v(x), problem.n_ineq, "eval_v")
    w = np.random.default_rng(seed).standard_normal(x.size)
    w = w / np.linalg.norm(w)
    slack = 1e-10

    report = DecreaseProbeReport()
    pure_h_case = problem.n_eq == 0
    ok = True
    for t in offsets:
        y = x + float(t) * w
        try:
            at_y = instance.point_eval(y)
            yinf = a_infinity(problem.manifold, y)
        except OutOfNeighborhoodError as exc:
            report.skipped.append(f"offset {t}: {exc}")
            continue
        at_ay = instance.point_eval(at_y.point.ax)
        at_yinf = instance.point_eval(yinf)
        ly, la, linf = (pe.lagrangian(mult) for pe in (at_y, at_ay, at_yinf))
        report.offsets.append(float(t))
        report.single_step_decrease.append(ly - la)
        report.limit_decrease.append(ly - linf)
        if ly - la < -slack or ly - linf < -slack:
            ok = False
        if pure_h_case:
            cy = at_y.point.cx
            bound = 0.25 * instance.params.beta * float(np.dot(cy, cy))
            report.h_decrease.append(at_y.h - at_yinf.h)
            report.quarter_beta_c_sq.append(bound)
            if at_y.h - at_yinf.h < bound - slack:
                ok = False
    report.passed = ok and bool(report.offsets)
    return report
