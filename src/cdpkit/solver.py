"""Augmented Lagrangian solver with an L-BFGS inner minimizer.

Two pipelines share the same outer loop: ``alm_solve_cdp`` minimizes the
transformed problem (manifold constraint dissolved into the objective),
``alm_solve_nlp_direct`` treats the manifold constraint as ordinary
equalities.  Results are certified with the original-problem KKT residual
at the post-processed point.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .core import (
    MultiplierSet,
    OutOfNeighborhoodError,
    ParameterError,
    PenaltyParams,
    ProblemSpec,
    RankDeficiencyError,
    SolveTrace,
    TraceRow,
    Vector,
    _check_point,
)
# ``estimate_constants`` stays a module attribute because the benchmark's
# tracer (perfbench/tracing.py) rebinds it here; the safeguard itself reads
# ``_bound_constants``.
from .diagnostics import (  # noqa: F401
    KktReport,
    _bound_constants,
    _coupled_bound,
    estimate_constants,
    kkt_residual,
)
from .dissolve import CdpInstance, a_infinity, build_cdp

__all__ = [
    "AlmOptions",
    "LbfgsResult",
    "SolveResult",
    "alm_solve_cdp",
    "alm_solve_nlp_direct",
    "lbfgs_minimize",
]


# ALM penalty sigma: its start, and its factor after an outer iteration
# whose violation did not fall fourfold.
PENALTY_INIT = 10.0
PENALTY_GROWTH = 10.0
MULTIPLIER_CLIP = 1e8  # bound on each multiplier's magnitude
BETA_GROWTH = 10.0  # factor of one beta adaptation
# Sample counts of the beta safeguard's cheap and full bound passes, and
# the factor over the cheap threshold below which a decision takes the
# full pass: on the benchmark the cheap threshold is 0.88-1.00 of the full.
BOUND_SAMPLES = 5
BOUND_SAMPLES_FULL = 30
CLOSE_CALL_MARGIN = 1.25


@dataclass(frozen=True)
class AlmOptions:
    outer_tol_stationarity: float = 1e-6
    outer_tol_feasibility: float = 1e-6
    max_outer: int = 100
    max_inner: int = 500
    beta_adapt: bool = True
    time_budget: float | None = None

    def __post_init__(self):
        # An infinite tolerance would certify any point as converged.
        tols = (self.outer_tol_stationarity, self.outer_tol_feasibility)
        if not all(isinstance(t, Real) and 0 < t < np.inf for t in tols):
            raise ParameterError(f"tolerances must be finite and positive, got {tols}")
        budgets = (self.max_outer, self.max_inner)
        if not all(isinstance(b, Integral) and b >= 0 for b in budgets):
            raise ParameterError(f"budgets must be non-negative integers, got {budgets}")
        t = self.time_budget
        if t is not None and not (isinstance(t, Real) and t > 0):
            raise ParameterError(f"time_budget must be None or positive, got {t!r}")


@dataclass
class LbfgsResult:
    x: Vector
    f: float
    grad_norm: float
    iterations: int
    status: str  # converged | max_iter | line_search_failure


def _strong_wolfe(phi, f0: float, slope0: float,
                  alpha0: float = 1.0) -> tuple | None:
    """Strong Wolfe line search (bracket + zoom; Nocedal & Wright,
    Alg. 3.5/3.6) with c1 = 1e-4, c2 = 0.9 and at most 25 bracket trials.
    ``phi(a)`` evaluates step a and returns the trial ``(a, x, f, g,
    slope)``.  Returns the trial the search accepts, as ``phi`` evaluated
    it, or None.

    Near a minimizer the Armijo decrease can fall below the floating-point
    resolution of the objective.  In that regime a step is also accepted
    under the approximate Wolfe conditions (slope bracketed, value within
    roundoff of f0), which keeps gradient reduction possible when value
    comparisons are pure noise.

    A trial passes the sufficient-decrease test only when
    ``f <= f0 + c1*a*slope0`` holds, so a NaN value counts as a failed
    decrease: the bracket phase hands it to the zoom, and the zoom shrinks
    its interval past it.
    """
    c1, c2 = 1e-4, 0.9
    eps_f = 1e-12 * (1.0 + abs(f0))

    def armijo(a, f):
        return f <= f0 + c1 * a * slope0

    def approx_wolfe(f, slope):
        return f <= f0 + eps_f and (2.0 * c1 - 1.0) * slope0 >= slope >= c2 * slope0

    def zoom(lo, a_lo, f_lo, hi):
        """Bisect between the best trial ``lo`` (None for the start, a_lo = 0)
        at step a_lo with value f_lo, and step hi."""
        for _ in range(30):
            trial = phi(0.5 * (a_lo + hi))
            a, _, f, _, slope = trial
            if approx_wolfe(f, slope):
                return trial
            if not armijo(a, f) or f >= f_lo:
                hi = a
            else:
                if abs(slope) <= -c2 * slope0:
                    return trial
                if slope * (hi - a_lo) >= 0:
                    hi = a_lo
                lo, a_lo, f_lo = trial, a, f
            if abs(hi - a_lo) < 1e-16 * (1.0 + abs(a_lo)):
                break
        return lo

    prev, a_prev, f_prev = None, 0.0, f0
    a = alpha0
    for i in range(25):
        trial = phi(a)
        _, _, f, _, slope = trial
        if approx_wolfe(f, slope):
            return trial
        if not armijo(a, f) or (i > 0 and f >= f_prev):
            return zoom(prev, a_prev, f_prev, a)
        if abs(slope) <= -c2 * slope0:
            return trial
        if slope >= 0:
            return zoom(trial, a, f, a_prev)
        prev, a_prev, f_prev = trial, a, f
        a = 2.0 * a
    return None


def lbfgs_minimize(value_and_grad, x0: Vector, tol: float = 1e-6,
                   max_iter: int = 500) -> LbfgsResult:
    """Limited-memory BFGS, with the last 10 curvature pairs, and a
    strong-Wolfe line search (c1=1e-4, c2=0.9).

    Non-descent directions trigger a steepest-descent restart, and so does
    a quasi-Newton search that fails or meets a non-finite value: its
    curvature pairs then extrapolate past where the objective is defined.
    Repeated line-search failure ends with status ``line_search_failure``.
    ``iterations`` counts the steps taken; a point that meets ``tol`` after
    the last step of the budget is ``converged``.
    """
    x = np.asarray(x0, dtype=float).ravel().copy()
    f, g = value_and_grad(x)
    hist: deque = deque(maxlen=10)  # (s, y, 1 / s^T y)
    gamma = 1.0
    status = "max_iter"
    it = 0
    for it in range(max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            status = "converged"
            break
        if it == max_iter:
            break
        d = _two_loop(g, hist, gamma)
        slope = float(np.dot(d, g))
        if slope >= -1e-14 * float(np.linalg.norm(d)) * gnorm:
            hist.clear()
            d = -g
            slope = -gnorm ** 2

        phi = _line(value_and_grad, x, d)
        trial = _strong_wolfe(phi, f, slope)
        if (trial is None or not phi.finite) and hist:
            # restart with steepest descent once
            hist.clear()
            gamma = 1.0
            trial = _strong_wolfe(_line(value_and_grad, x, -g), f,
                                  -gnorm ** 2, alpha0=min(1.0, 1.0 / gnorm))
        if trial is None:
            status = "line_search_failure"
            break
        _, x_new, f_new, g_new, _ = trial
        s = x_new - x
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            hist.append((s, y, 1.0 / sy))
            gamma = sy / float(np.dot(y, y))
        x, f, g = x_new, f_new, g_new
    return LbfgsResult(x=x, f=f, grad_norm=float(np.linalg.norm(g)),
                       iterations=it, status=status)


def _line(value_and_grad, x: Vector, d: Vector):
    """phi(a) = the trial (a, x + a*d, value, gradient, slope along d).
    ``phi.finite`` stays True while every value phi returned was finite."""

    def phi(a):
        xt = x + a * d
        ft, gt = value_and_grad(xt)
        if not np.isfinite(ft):
            phi.finite = False
        return a, xt, ft, gt, float(np.dot(gt, d))

    phi.finite = True
    return phi


def _two_loop(g: Vector, hist, gamma: float) -> Vector:
    q = -g
    alphas = []
    for s, y, rho in reversed(hist):
        a = rho * float(np.dot(s, q))
        q -= a * y
        alphas.append((a, rho, s, y))
    q *= gamma
    for a, rho, s, y in reversed(alphas):
        b = rho * float(np.dot(y, q))
        q += (a - b) * s
    return q


@dataclass
class SolveResult:
    """On ``diverged``, ``x_final`` is the iterate whose value was not
    finite; ``x_postprocessed``, ``kkt`` and ``objective`` belong to the
    last finite iterate, certified before the failing inner solve (the
    start, when the first inner solve diverges)."""

    x_final: Vector
    x_postprocessed: Vector
    multipliers: MultiplierSet
    kkt: KktReport
    trace: SolveTrace
    status: str  # converged | max_iter | inner_failure | diverged | max_time
    objective: float = np.nan
    wall_time: float = np.nan


def _augmented(evaluate, lam, mu, sigma):
    """Closure computing the augmented Lagrangian value and gradient from a
    formulation's ``evaluate`` (one shared evaluation per point)."""

    def val_grad(x):
        f, e, iv, grad_from = evaluate(x)
        val = f
        a = None
        b = None
        if e.size:
            a = lam + sigma * e
            val += float(np.dot(lam, e)) + 0.5 * sigma * float(np.dot(e, e))
        if iv.size:
            shifted = np.maximum(iv + mu / sigma, 0.0)
            b = sigma * shifted
            val += 0.5 * sigma * float(np.dot(shifted, shifted)) \
                - 0.5 * float(np.dot(mu, mu)) / sigma
        g = grad_from(a, b)
        return val, g

    return val_grad


def _certify(problem: ProblemSpec, x: Vector) -> tuple[Vector, KktReport]:
    """Post-process x by ``a_infinity`` (x itself outside the neighborhood)
    and take the original problem's KKT residual there."""
    try:
        xp = a_infinity(problem.manifold, x)
    except OutOfNeighborhoodError:
        xp = x
    return xp, kkt_residual(problem, xp)


class _Dissolved:
    """The transformed problem h, u~, v~ with the beta safeguard of
    ``alm_solve_cdp``, on when ``adapt`` is set and p > 0.

    The safeguard's constants come from ``BOUND_SAMPLES`` points, and
    from ``BOUND_SAMPLES_FULL`` around the same ``x_ref`` once a decision
    is a close call (lhs in [threshold, ``CLOSE_CALL_MARGIN`` *
    threshold)); ``alm_solve_cdp`` says why that keeps its decisions."""

    split = 0  # no multipliers for c: it is dissolved into h

    def __init__(self, instance: CdpInstance, x0: Vector, adapt: bool):
        self.instance = instance
        self.x0 = x0
        self.adapting = adapt and instance.problem.p > 0
        if self.adapting and instance.params.beta == 0:
            raise ParameterError("beta = 0 cannot adapt: start from beta > 0 "
                                 "or turn beta_adapt off")
        self.x_ref = None
        self.estimates = None
        self.samples = 0

    @property
    def beta(self) -> float:
        return self.instance.params.beta

    def evaluate(self, x):
        pe = self.instance.point_eval(x)
        return pe.h, pe.u_tilde, pe.v_tilde, \
            lambda a, b: pe.weighted_grad(1.0, a, b)

    def _sample(self, samples: int) -> None:
        self.estimates = _bound_constants(
            self.instance.problem, self.x_ref, radius=0.1, samples=samples,
            seed=0)
        self.samples = samples

    def adapt(self, lam, mu, trace: SolveTrace) -> None:
        if not self.adapting:
            return
        problem, params = self.instance.problem, self.instance.params
        try:
            if self.estimates is None:
                self.x_ref = a_infinity(problem.manifold, self.x0)
                self._sample(BOUND_SAMPLES)
            _, threshold, lhs = _coupled_bound(self.estimates, params, lam, mu)
            if self.samples < BOUND_SAMPLES_FULL \
                    and threshold <= lhs < CLOSE_CALL_MARGIN * threshold:
                self._sample(BOUND_SAMPLES_FULL)
                _, threshold, lhs = _coupled_bound(self.estimates, params,
                                                   lam, mu)
        except (OutOfNeighborhoodError, RankDeficiencyError) as exc:
            self.adapting = False
            _add_note(trace, f"beta_adapt_off:{type(exc).__name__}")
            return
        if lhs < threshold:
            # Continuation: the bound is sufficient, not a target, and a
            # beta far above what is needed stiffens every later inner solve.
            new_beta = BETA_GROWTH * params.beta
            self.instance = build_cdp(
                problem, PenaltyParams(new_beta, params.tau, params.gamma))
            _add_note(trace, f"beta_adapted:{float(new_beta)!r}")


def _add_note(trace: SolveTrace, text: str) -> None:
    """Append ``text`` to the note of the trace's last row."""
    if trace.rows:
        row = trace.rows[-1]
        row.note = (row.note + " " if row.note else "") + text


class _Direct:
    """The original problem with c(x) = 0 kept as the first p equalities."""

    beta = 0.0

    def __init__(self, problem: ProblemSpec):
        self.problem = problem
        self.split = problem.p

    def evaluate(self, x):
        problem, p = self.problem, self.split
        mani = problem.manifold
        x = np.asarray(x, dtype=float).ravel()
        f = float(problem.eval_f(x))
        e = np.concatenate([mani.eval_c(x), problem.eval_u(x)])
        iv = problem.eval_v(x)

        def grad_from(a, b):
            g = problem.grad_f(x)
            if a is not None and a.size:
                if p:
                    g = g + mani.apply_Jc(x, a[:p])
                if problem.n_eq:
                    g = g + problem.apply_Ju(x, a[p:])
            if b is not None and b.size:
                g = g + problem.apply_Jv(x, b)
            return g

        return f, e, iv, grad_from

    def adapt(self, lam, mu, trace: SolveTrace) -> None:
        pass


def _alm_loop(problem: ProblemSpec, form, x0: Vector,
              opts: AlmOptions) -> SolveResult:
    """Shared outer loop.  ``form`` is the formulation, ``_Dissolved`` or
    ``_Direct``: the only part that differs between the pipelines.  The
    first ``form.split`` equality multipliers belong to c.  A bad x0
    raises as in ``check_licq``, before the loop starts."""
    t0 = time.perf_counter()
    x = _check_point(x0, problem.n, "x0").copy()
    n_eq, n_ineq = form.split + problem.n_eq, problem.n_ineq
    lam = np.zeros(n_eq)
    mu = np.zeros(n_ineq)
    sigma = PENALTY_INIT
    trace = SolveTrace()
    prev_viol = np.inf
    prev_resid = np.inf
    stalled_inner = 0
    status = "max_iter"
    note = "initial_point_stationary"

    # Pass 0 only certifies the start: one already certified needs no
    # inner solves at all, and is reported as iteration 1.
    for k in range(opts.max_outer + 1):
        if k:
            # Without extra constraints there is no multiplier loop to warm
            # up, so the inner solve can target the final tolerance directly.
            inner_tol = opts.outer_tol_stationarity if n_eq + n_ineq == 0 \
                else max(opts.outer_tol_stationarity, 0.1 ** k)
            aug = _augmented(form.evaluate, lam, mu, sigma)
            inner = lbfgs_minimize(aug, x, tol=inner_tol,
                                   max_iter=opts.max_inner)
            x = inner.x
            if not np.all(np.isfinite(x)) or not np.isfinite(inner.f):
                status = "diverged"
                break

            _, e, iv, _ = form.evaluate(x)
            viol = float(np.linalg.norm(
                np.concatenate([e, np.maximum(iv, -mu / sigma)])))

            note = ""
            clip = MULTIPLIER_CLIP
            lam_new = lam + sigma * e
            mu_new = np.maximum(mu + sigma * iv, 0.0)
            if np.any(np.abs(lam_new) > clip) or np.any(mu_new > clip):
                note = "multiplier_clipped"
            lam = np.clip(lam_new, -clip, clip)
            mu = np.minimum(mu_new, clip)

        x_post, kkt = _certify(problem, x)
        certified = (kkt.feasibility <= opts.outer_tol_feasibility
                     and kkt.stationarity <= opts.outer_tol_stationarity)
        if not k and not certified:
            continue
        trace.append(TraceRow(
            iteration=max(k, 1), objective=float(problem.eval_f(x_post)),
            feasibility=kkt.feasibility, stationarity=kkt.stationarity,
            beta=form.beta, sigma=sigma,
            multiplier_norm=float(np.linalg.norm(np.concatenate([lam, mu]))),
            wall_time=time.perf_counter() - t0, note=note,
            inner_iterations=inner.iterations if k else 0,
            inner_status=inner.status if k else ""))

        if certified:
            status = "converged"
            break
        # A failed inner line search is only fatal when the outer residual
        # has also stopped improving; near the solution the search direction
        # is dominated by roundoff while the multiplier updates still make
        # progress.
        resid = max(kkt.feasibility, kkt.stationarity)
        if inner.status == "line_search_failure" and resid > 0.5 * prev_resid:
            stalled_inner += 1
        else:
            stalled_inner = 0
        if stalled_inner >= 2:
            status = "inner_failure"
            break
        prev_resid = min(prev_resid, resid)
        if viol > prev_viol / 4.0 and viol > opts.outer_tol_feasibility:
            sigma *= PENALTY_GROWTH
        prev_viol = min(prev_viol, viol) if np.isfinite(prev_viol) else viol

        form.adapt(lam, mu, trace)

        if opts.time_budget is not None \
                and time.perf_counter() - t0 > opts.time_budget:
            status = "max_time"
            break

    mult = MultiplierSet(rho=lam[:form.split], lam=lam[form.split:], mu=mu)
    return SolveResult(
        x_final=x, x_postprocessed=x_post, multipliers=mult, kkt=kkt,
        trace=trace, status=status,
        objective=float(problem.eval_f(x_post)),
        wall_time=time.perf_counter() - t0)


def alm_solve_cdp(instance: CdpInstance, x0: Vector,
                  opts: AlmOptions = AlmOptions()) -> SolveResult:
    """Solve the transformed problem by ALM on u~ = 0, v~ <= 0.

    When beta adaptation is on, the multiplier-coupled penalty lower bound
    is recomputed after each outer iteration from six constants sampled
    around ``a_infinity(x0)`` (``diagnostics._bound_constants``): first at
    ``BOUND_SAMPLES`` = 5 points, and at ``BOUND_SAMPLES_FULL`` = 30, once
    per solve, only when a decision's lhs falls in [threshold,
    ``CLOSE_CALL_MARGIN`` = 1.25 times threshold); the 30-point constants
    then decide for the rest of the solve.  The 5 points begin the 30, so
    the cheap threshold is never above the full one and an adaptation it
    decides is the full pass's; a clear "no" (lhs at least 1.25 times the
    cheap threshold) trusts that 25 more points would not raise the
    threshold by that factor.  While beta is below the sampled bound, each
    adaptation rebuilds the instance with beta multiplied by the constant
    factor ``BETA_GROWTH`` = 10 (a continuation), so beta may sit below
    the bound for some rows.  The row's note then carries
    ``beta_adapted:<repr(beta)>``, which ``float`` parses back to exactly
    the beta used from the next row on.  The bound is a sufficient
    condition for the equivalence, not a target, and ``converged`` is
    still certified by the original problem's KKT residual.  If the
    constants cannot be sampled (``a_infinity(x0)`` fails, or Jc is rank
    deficient at a sample) the safeguard is off for the rest of the solve
    and the row where it failed, the first unless the 30-point pass
    failed, notes ``beta_adapt_off:<error type>``; any other error
    propagates.

    Without a manifold constraint (p = 0) there is no bound and beta stays.
    Otherwise a beta of 0 could never grow, so with adaptation on it
    raises ``ParameterError`` before the solve starts.
    """
    return _alm_loop(instance.problem,
                     _Dissolved(instance, x0, opts.beta_adapt), x0, opts)


def alm_solve_nlp_direct(problem: ProblemSpec, x0: Vector,
                         opts: AlmOptions = AlmOptions()) -> SolveResult:
    """Baseline: identical ALM machinery on the raw constraints
    [c; u] = 0, v <= 0 with objective f (no dissolving)."""
    return _alm_loop(problem, _Direct(problem), x0, opts)
