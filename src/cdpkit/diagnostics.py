"""KKT residuals, feasibility metric, LICQ check, neighborhood-constant
estimation and penalty-condition checkers.

The KKT and LICQ checks assemble the dense constraint Jacobians, reading
Jc in one call of the handle's ``jacobian``.  The KKT check factors
[Jc Ju] once, by a pivoted QR, and reads its projector, rank and free
multipliers from that one factorization.
The constant estimates also run inside the solve, as the beta safeguard
of ``alm_solve_cdp``.  They read ``Jc`` and ``J_A^T`` through the
handle's own actions, holding one state ``point(y)`` per sample point.  A
handle that declares ``row_blocks`` gives stacks of one block per row of
X, O(n) work per sample point.  Any other handle gives ``Jc`` as one dense
n x p block, and the norms of ``J_A^T`` come matrix-free, by
Golub-Kahan-Lanczos on the state's ``jat`` and ``ja``: at most 20
applications of each per norm, and no n x n matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
import scipy.optimize

from .core import (
    DimensionError,
    MultiplierSet,
    ParameterError,
    PenaltyParams,
    ProblemSpec,
    RankDeficiencyError,
    Vector,
    _check_point,
    _dense_columns,
)
from .manifolds import GenericManifoldSpec, make_handle

__all__ = [
    "ConditionReport",
    "ConstantEstimates",
    "KktReport",
    "check_condition",
    "check_licq",
    "estimate_constants",
    "feasibility",
    "kkt_residual",
    "make_synthetic_kkt",
]

ACTIVE_TOL = 1e-6


def feasibility(problem: ProblemSpec, x: Vector) -> float:
    """||u(x)|| + ||c(x)|| + ||max(v(x), 0)||."""
    x = np.asarray(x, dtype=float).ravel()
    u = problem.eval_u(x)
    c = problem.manifold.eval_c(x)
    v = problem.eval_v(x)
    return (float(np.linalg.norm(u)) + float(np.linalg.norm(c))
            + float(np.linalg.norm(np.maximum(v, 0.0))))


def dense_jacobians(problem: ProblemSpec, x: Vector):
    """Dense (n x p), (n x N_E), (n x N_I) constraint-gradient matrices;
    Jc is the handle's ``jacobian`` read."""
    n = problem.n
    Ju = _dense_columns(problem.apply_Ju, x, problem.n_eq, n)
    Jv = _dense_columns(problem.apply_Jv, x, problem.n_ineq, n)
    return problem.manifold.jacobian(x), Ju, Jv


@dataclass
class KktReport:
    stationarity: float
    feasibility: float
    multipliers: MultiplierSet
    complementarity: float
    rank_deficient: bool = False


def kkt_residual(problem: ProblemSpec, x: Vector) -> KktReport:
    """Stationarity of the original NLP at x.

    Solves min_{rho, lambda, mu >= 0} ||grad f + Jc rho + Ju lambda + Jv mu||
    from one pivoted QR of B = [Jc Ju]: its leading ``rank`` columns Q_r,
    with rank the count of |R_ii| > 1e-12 max(1, max_j |R_jj|), give the
    projector P = I - Q_r Q_r^T onto the complement of range(B).
    Non-negative least squares on P Jv gives mu, the stationarity is
    ||P(grad f + Jv mu)||, and (rho, lambda) come from a triangular solve
    with the leading rank x rank block of R.  When B is rank deficient
    that is a basic solution, zero on the columns the pivoting put last,
    not the minimum-norm one; the residual it reaches is the same.  A bad
    x raises as in ``check_licq``.
    """
    x = _check_point(x, problem.n)
    g = problem.grad_f(x)
    Jc, Ju, Jv = dense_jacobians(problem, x)
    B = np.hstack([Jc, Ju])
    Q, R, piv = scipy.linalg.qr(B, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > 1e-12 * np.max(diag, initial=1.0)))
    # Only the first `rank` columns of Q span range(B); the rest are
    # numerical noise directions and must not enter the projector.
    Qr = Q[:, :rank]

    def proj(M):
        return M - Qr @ (Qr.T @ M)

    mu = (scipy.optimize.nnls(proj(Jv), -proj(g))[0] if problem.n_ineq
          else np.zeros(0))
    rhs = g + Jv @ mu
    coef = Qr.T @ rhs
    xi = np.zeros(B.shape[1])
    xi[piv[:rank]] = scipy.linalg.solve_triangular(R[:rank, :rank], -coef)
    v = problem.eval_v(x)
    return KktReport(
        stationarity=float(np.linalg.norm(rhs - Qr @ coef)),
        feasibility=feasibility(problem, x),
        multipliers=MultiplierSet(rho=xi[:problem.p], lam=xi[problem.p:],
                                  mu=mu),
        complementarity=float(abs(np.dot(mu, v))) if mu.size else 0.0,
        rank_deficient=rank < B.shape[1])


def _active_set(v: Vector) -> list[int]:
    """Indices of the inequalities active at tolerance ``ACTIVE_TOL``."""
    return [j for j, vj in enumerate(v)
            if abs(vj) <= ACTIVE_TOL * (1.0 + abs(vj))]


def check_licq(problem: ProblemSpec, x: Vector, tol: float = 1e-8) -> bool:
    """True when the active constraint gradients are linearly independent
    (smallest singular value above ``tol`` times the largest).  A wrong
    length raises ``DimensionError``, a non-finite x ``EvaluatorFaultError``."""
    x = _check_point(x, problem.n)
    Jc, Ju, Jv = dense_jacobians(problem, x)
    M = np.hstack([Jc, Ju, Jv[:, _active_set(problem.eval_v(x))]])
    if M.shape[1] == 0:
        return True
    if M.shape[1] > problem.n:
        return False
    s = np.linalg.svd(M, compute_uv=False)
    return bool(s[-1] > tol * s[0])


@dataclass
class ConstantEstimates:
    """Sampled estimates of the neighborhood constants around a feasible
    point, and the radii they induce.  Maxima over samples are lower bounds
    on the true suprema; downstream condition checks apply a safety factor.
    """

    sigma1x: float
    M_cx: float
    M_Ax: float
    M_ux: float
    M_vx: float
    L_fx: float
    L_cx: float
    L_Ax: float
    L_Acx: float
    rho_x: float
    epsilon_x: float
    omega_bar_radius: float
    sample_count: int
    radius: float


class _BoundConstants(NamedTuple):
    """The six constants of the multiplier-coupled beta bound."""

    sigma1x: float
    M_Ax: float
    L_Ax: float
    M_ux: float
    M_vx: float
    L_fx: float


def _bound_constants(problem: ProblemSpec, x: Vector, radius: float,
                     samples: int, seed: int
                     ) -> tuple[_BoundConstants, list, np.random.Generator]:
    """Sample ``samples`` points of the ball of the given radius around a
    feasible x and estimate only what the multiplier-coupled beta bound
    reads: sigma_min(Jc(x)), sup and Lipschitz constant of J_A^T, sups of
    Ju and Jv, and sup of ||grad f(A(y))||.

    On a handle without ``row_blocks`` each norm of J_A^T, or of a
    difference of two, is a Golub-Kahan-Lanczos lower bound (``_Blocks``)
    that stops when its top Ritz value moves by at most ``GK_RTOL``
    relative, or after min(``GK_MAX_STEPS``, n) steps.  At center of mass
    (40, 10), seed 1, the sampled sup of ||J_A^T|| is 1.0201901 against
    1.0202000 from dense SVDs at the same points (1e-5 relative below),
    and its Lipschitz quotient 0.47537066 against 0.47537069 (5e-8): lower
    bounds, as sampled suprema already are.

    Returns the constants, the points (x first) and the generator after
    sampling, so ``estimate_constants`` continues from the same draws.
    """
    x = _check_point(x, problem.n)
    if not 0.0 < radius <= 1.0:
        raise ParameterError(f"radius must be in (0, 1], got {radius}")
    if samples < 1:
        raise ParameterError(f"need at least one sample point, got {samples}")
    mani = problem.manifold
    n = problem.n
    read = _Blocks(problem, seed)

    sigma1 = read.sigma_min_jc(x) if problem.p else 0.0
    if problem.p and sigma1 <= 1e-10:
        raise RankDeficiencyError(
            f"sigma_min(Jc) = {sigma1:.3e} at the base point; full-rank "
            "constraint Jacobian required")

    rng = np.random.default_rng(seed)
    pts = [x]
    for _ in range(samples):
        d = rng.standard_normal(n)
        d *= radius * rng.random() ** (1.0 / n) / np.linalg.norm(d)
        pts.append(x + d)

    M_A = M_u = M_v = L_f = L_A = 0.0
    prev = None
    for y in pts:
        pt = mani.point(y)
        Ja = read.jat(pt)
        M_A = max(M_A, read.norm(Ja))
        M_u = max(M_u, _spec_norm(
            _dense_columns(problem.apply_Ju, y, problem.n_eq, n)))
        M_v = max(M_v, _spec_norm(
            _dense_columns(problem.apply_Jv, y, problem.n_ineq, n)))
        L_f = max(L_f, float(np.linalg.norm(problem.grad_f(pt.ax))))
        if prev is not None:
            L_A = max(L_A, _diff_quotient(Ja, prev[1], y, prev[0]))
        prev = (y, Ja)
    consts = _BoundConstants(sigma1x=sigma1, M_Ax=M_A, L_Ax=L_A, M_ux=M_u,
                             M_vx=M_v, L_fx=L_f)
    return consts, pts, rng


def estimate_constants(problem: ProblemSpec, x: Vector, radius: float,
                       samples: int = 100, seed: int = 0) -> ConstantEstimates:
    """Estimate the neighborhood constants by sampling the ball of the given
    radius around a feasible x: suprema as maxima over samples, Lipschitz
    constants as maxima of difference quotients over consecutive pairs.

    The six constants of the beta bound come from ``_bound_constants``; a
    second pass over the same points adds the sup and Lipschitz constant of
    Jc and the Lipschitz constant of J_A^T Jc(A(y)), whose p columns are
    the state's ``jat`` of the columns of Jc(A(y)).  It is a diagnostic for
    ``probe`` and the condition checks; the solver's beta safeguard reads
    only the six.
    """
    consts, pts, rng = _bound_constants(problem, x, radius, samples, seed)
    read = _Blocks(problem)

    M_c = L_c = L_Ac = 0.0
    prev = None
    for y in pts:
        Jc = read.stack_jc(y)
        JaJcA = read.jat_jc_a(read.mani.point(y))
        M_c = max(M_c, read.norm(Jc))
        if prev is not None:
            L_c = max(L_c, _diff_quotient(Jc, prev[1], y, prev[0]))
            L_Ac = max(L_Ac, _diff_quotient(JaJcA, prev[2], y, prev[0]))
        prev = (y, Jc, JaJcA)

    sigma1, M_A = consts.sigma1x, consts.M_Ax
    rho_x = _estimate_rho(read, pts[0], sigma1, radius, rng)
    with np.errstate(divide="ignore"):
        eps = min(
            rho_x / 2.0,
            sigma1 / (32.0 * L_c * (M_A + 1.0)) if L_c > 0 else np.inf,
            sigma1 ** 2 / (8.0 * L_Ac * M_c) if L_Ac > 0 and M_c > 0 else np.inf,
        )
    omega_bar = sigma1 * eps / (4.0 * M_c * (M_A + 1.0) + sigma1) if M_c > 0 else eps
    return ConstantEstimates(
        **consts._asdict(), M_cx=M_c, L_cx=L_c, L_Acx=L_Ac, rho_x=rho_x,
        epsilon_x=float(eps), omega_bar_radius=float(omega_bar),
        sample_count=len(pts) - 1, radius=radius)


def _estimate_rho(read, x, sigma1, radius, rng):
    """Largest of six radii keeping sigma_min(Jc) >= sigma1 / 2 at 8
    random points that far from x, with Jc from the caller's ``_Blocks``."""
    if read.mani.p == 0:
        return 1.0
    best = 0.0
    for r in np.geomspace(max(radius, 1e-3), 1.0, 6):
        ok = True
        for _ in range(8):
            d = rng.standard_normal(read.mani.n)
            d *= r / np.linalg.norm(d)
            if read.sigma_min_jc(x + d) < 0.5 * sigma1:
                ok = False
                break
        if ok:
            best = float(r)
        else:
            break
    return best if best > 0 else float(radius)


def _spec_norm(M: Vector) -> float:
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def _diff_quotient(S: Vector, S_prev: Vector, y: Vector,
                   y_prev: Vector) -> float:
    """Spectral norm of S - S_prev, block stacks or ``_JatOperator``s, over
    ||y - y_prev||, or 0 for coincident points."""
    dist = float(np.linalg.norm(y - y_prev))
    return _Blocks.norm(S - S_prev) / dist if dist > 1e-12 else 0.0


# Stop rule of the Golub-Kahan-Lanczos norm of a matrix-free J_A^T: the
# top Ritz value has moved by at most GK_RTOL relative to the last step, or
# min(GK_MAX_STEPS, n) steps have run.
GK_RTOL = 1e-6
GK_MAX_STEPS = 20


class _JatOperator(NamedTuple):
    """J_A^T(y), or a difference of two, as its actions: ``mv`` applies
    J_A^T and ``rmv`` its transpose J_A.  ``start`` is the first right
    Lanczos vector, a unit vector."""

    mv: Callable[[Vector], Vector]
    rmv: Callable[[Vector], Vector]
    start: Vector

    def __sub__(self, other: "_JatOperator") -> "_JatOperator":
        return _JatOperator(lambda v: self.mv(v) - other.mv(v),
                            lambda u: self.rmv(u) - other.rmv(u), self.start)

    def norm(self) -> float:
        """Largest singular value of the bidiagonal matrix U_k^T B V_{k+1}
        from k steps of Golub-Kahan-Lanczos bidiagonalisation of B with
        full reorthogonalisation: a lower bound on ||B||_2 that grows with
        k.  It stops on the module's stop rule, or when a new direction
        vanishes, where the Ritz value is exact."""
        n = self.start.size
        steps = min(GK_MAX_STEPS, n)
        V = np.empty((steps + 1, n))
        U = np.empty((steps, n))
        # U^T B V: alpha_k on the diagonal, beta_k above it.
        bidiag = np.zeros((steps, steps + 1))
        V[0] = self.start
        top = 0.0
        for k in range(steps):
            u = self.mv(V[k])
            if k:
                u -= beta * U[k - 1]
            u -= U[:k].T @ (U[:k] @ u)
            alpha = bidiag[k, k] = float(np.linalg.norm(u))
            if alpha <= 1e-12 * top:
                break
            U[k] = u / alpha
            v = self.rmv(U[k]) - alpha * V[k]
            v -= V[:k + 1].T @ (V[:k + 1] @ v)
            beta = bidiag[k, k + 1] = float(np.linalg.norm(v))
            ritz = float(np.linalg.svd(bidiag[:k + 1, :k + 2],
                                       compute_uv=False)[0])
            done = ritz - top <= GK_RTOL * ritz or beta <= 1e-12 * ritz
            top = ritz
            if done:
                break
            V[k + 1] = v / beta
        return top


class _Blocks:
    """Reads Jc, J_A^T and J_A^T Jc(A(y)) of a handle.

    Jc and J_A^T Jc(A(y)) come as (m, q, k) stacks of their q x k diagonal
    blocks.  A handle with ``row_blocks = (m, q)`` has one block per row
    of X, with k = 1; any other handle is one block, m = 1, q = n, k = p:
    the dense n x p matrices, and Jc is the handle's ``jacobian`` read.
    Row i of a row-block action depends only on row i of its direction, so
    the direction ``tile(e_j, m)``, which is e_j in every row, gives
    column j of every block at once, bitwise equal to the dense entries: k
    actions per stack.  A block-diagonal matrix's spectral norm is its
    largest block norm, and its singular values are those of its blocks.

    J_A^T and J_A^T Jc(A(y)) are read from one state ``point(y)`` of the
    handle.  J_A^T of a ``row_blocks`` handle is the (m, q, q) stack of its
    blocks, q actions per point.  Of any other handle it is a matrix-free
    ``_JatOperator``, whose norm is a Golub-Kahan-Lanczos lower bound from
    the state's ``jat`` and ``ja`` (at most ``GK_MAX_STEPS`` of each),
    started at a unit vector fixed by ``(n, seed)``, so it is a
    deterministic function of the point.
    """

    def __init__(self, problem: ProblemSpec, seed: int = 0):
        mani = self.mani = problem.manifold
        self.seed = seed
        if mani.row_blocks is not None:
            (self.m, self.q), self.k = mani.row_blocks, 1
        else:
            self.m, self.q, self.k = 1, problem.n, problem.p

    @functools.cached_property
    def start(self) -> Vector:
        """``jat``'s first Lanczos vector, fixed by ``(n, seed)``."""
        start = np.random.default_rng((self.q, self.seed)).standard_normal(
            self.q)
        return start / np.linalg.norm(start)

    @staticmethod
    def singular_values(S: Vector) -> Vector:
        """(m, min(q, k)) singular values of each block, largest first; a
        q x 1 block's one singular value is its column norm."""
        if S.shape[-1] == 1:
            return np.linalg.norm(S[..., 0], axis=1)[:, None]
        return np.linalg.svd(S, compute_uv=False)

    @staticmethod
    def norm(S: Vector | _JatOperator) -> float:
        if isinstance(S, _JatOperator):
            return S.norm()
        if S.size == 0:
            return 0.0
        return float(np.max(_Blocks.singular_values(S)[:, 0]))

    def _stack(self, action, count: int) -> Vector:
        """(m, q, count) stack; column j is ``action(tile(e_j, m))``."""
        m, q = self.m, self.q
        return _dense_columns(lambda _, e: action(np.tile(e, m)), None,
                              count, m * q).reshape(m, q, count)

    def stack_jc(self, y: Vector) -> Vector:
        """Jc(y) as its stack: without ``row_blocks`` the handle's dense
        ``jacobian`` read."""
        if self.mani.row_blocks is None:
            return self.mani.jacobian(y)[None]
        return self._stack(lambda w: self.mani.apply_Jc(y, w), self.k)

    def sigma_min_jc(self, y: Vector) -> float:
        return float(np.min(self.singular_values(self.stack_jc(y))[:, -1]))

    def jat(self, pt) -> Vector | _JatOperator:
        """J_A^T at the state ``pt`` = ``ManifoldHandle.point(y)``."""
        if self.mani.row_blocks is not None:
            return self._stack(pt.jat, self.q)
        return _JatOperator(pt.jat, pt.ja, self.start)

    def jat_jc_a(self, pt) -> Vector:
        """J_A^T(y) Jc(A(y)) at the state ``pt`` of y: ``pt.jat`` of each
        column of ``stack_jc(A(y))``, which the ``jacobian`` contract
        makes bitwise the action ``apply_Jc(A(y), e_j)``."""
        jc = self.stack_jc(pt.ax).reshape(-1, self.k)
        cols = np.array([pt.jat(col) for col in jc.T]).T
        return cols.reshape(self.m, self.q, self.k)


@dataclass
class ConditionReport:
    """Numeric slacks for the penalty lower bounds.

    Estimated constants are maxima over samples (lower bounds on the true
    suprema), so each inequality is only declared met when the parameter
    exceeds twice its estimated threshold.
    """

    beta: float
    beta_threshold: float
    beta_slack: float
    beta_met: bool
    gamma_threshold: float | None = None
    gamma_slack: float | None = None
    gamma_met: bool | None = None
    M_x_lam_mu: float | None = None
    coupled_threshold: float | None = None
    coupled_lhs: float | None = None
    coupled_slack: float | None = None
    coupled_met: bool | None = None


SAFETY = 2.0


def _coupled_bound(estimates: ConstantEstimates, params: PenaltyParams,
                   lam: Vector, mu: Vector) -> tuple[float, float, float]:
    """The multiplier-coupled beta bound ``(M, threshold, lhs)``, met when
    lhs = beta + lambda^T tau + mu^T gamma >= threshold = 32 L_A (M_A + 1)
    M / sigma^2, with M = L_f + ||lambda||_1 M_u + ||mu||_1 M_v."""
    M = (estimates.L_fx + float(np.linalg.norm(lam, 1)) * estimates.M_ux
         + float(np.linalg.norm(mu, 1)) * estimates.M_vx)
    threshold = (32.0 * estimates.L_Ax * (estimates.M_Ax + 1.0) * M
                 / estimates.sigma1x ** 2)
    lhs = params.beta
    if lam.size and params.tau.size:
        lhs += float(np.dot(lam, params.tau))
    if mu.size and params.gamma.size:
        lhs += float(np.dot(mu, params.gamma))
    return M, threshold, lhs


def check_condition(estimates: ConstantEstimates, params: PenaltyParams,
                    mult: MultiplierSet | None = None) -> ConditionReport:
    """Evaluate the multiplier-free penalty lower bounds

        beta   >= 64 L_f (M_A + 1)(L_Ac + sigma L_A) / sigma^3
        gamma_j >= 32 L_A M_v (M_A + 1) / sigma^2

    and, when multipliers are supplied, the multiplier-coupled bound

        beta + sum lambda_i tau_i + sum mu_j gamma_j
            >= 32 L_A (M_A + 1) M / sigma^2,
        M = L_f + ||lambda||_1 M_u + ||mu||_1 M_v.
    """
    s = estimates.sigma1x
    if s <= 0:
        raise RankDeficiencyError("sigma1x must be positive for condition checks")
    beta_thr = (64.0 * estimates.L_fx * (estimates.M_Ax + 1.0)
                * (estimates.L_Acx + s * estimates.L_Ax) / s ** 3)
    report = ConditionReport(
        beta=params.beta,
        beta_threshold=beta_thr,
        beta_slack=params.beta - beta_thr,
        beta_met=params.beta >= SAFETY * beta_thr)

    if params.gamma.size:
        gamma_thr = 32.0 * estimates.L_Ax * estimates.M_vx * (estimates.M_Ax + 1.0) / s ** 2
        gmin = float(np.min(params.gamma))
        report.gamma_threshold = gamma_thr
        report.gamma_slack = gmin - gamma_thr
        report.gamma_met = gmin >= SAFETY * gamma_thr

    if mult is not None:
        M, thr, lhs = _coupled_bound(estimates, params, mult.lam, mult.mu)
        report.M_x_lam_mu = M
        report.coupled_threshold = thr
        report.coupled_lhs = lhs
        report.coupled_slack = lhs - thr
        report.coupled_met = lhs >= SAFETY * thr
    return report


def make_synthetic_kkt(n: int = 12, p: int = 2, n_eq: int = 2,
                       n_active: int = 1, n_inactive: int = 1,
                       seed: int = 0) -> tuple[ProblemSpec, Vector, MultiplierSet]:
    """Plant an exact KKT point: quadratic objective, affine constraints,
    chosen multipliers with exact complementarity.

    Returns (problem, x_star, planted multipliers).  ``kkt_residual`` at
    x_star must vanish and recover the planted multipliers when the active
    constraint gradients are independent, which the construction enforces.
    """
    n_ineq = n_active + n_inactive
    if p + n_eq + n_active > n:
        raise DimensionError(
            "too many active constraints for the dimension")
    rng = np.random.default_rng(seed)
    x_star = rng.standard_normal(n)

    # Re-draw until the active gradient block is well conditioned.
    for _ in range(20):
        Jc = rng.standard_normal((n, p))
        Ju = rng.standard_normal((n, n_eq))
        Jv = rng.standard_normal((n, n_ineq))
        act = np.hstack([Jc, Ju, Jv[:, :n_active]])
        s = np.linalg.svd(act, compute_uv=False)
        if s[-1] > 0.1:
            break

    rho_star = rng.standard_normal(p)
    lam_star = rng.standard_normal(n_eq)
    mu_star = np.zeros(n_ineq)
    mu_star[:n_active] = rng.random(n_active) + 0.5
    v_offset = np.zeros(n_ineq)
    v_offset[n_active:] = -(rng.random(n_inactive) + 0.5)

    g0 = -(Jc @ rho_star + Ju @ lam_star + Jv @ mu_star)

    def eval_f(x):
        d = x - x_star
        return 0.5 * float(np.dot(d, d)) + float(np.dot(g0, d))

    def grad_f(x):
        return (x - x_star) + g0

    gspec = GenericManifoldSpec(
        n=n, p=p,
        eval_c=lambda x: Jc.T @ (x - x_star),
        apply_Jc=lambda x, w: Jc @ w,
        apply_dJc=lambda x, d, w: np.zeros(n),
        name=f"affine({n},{p})")
    handle = make_handle("generic", spec=gspec)

    problem = ProblemSpec(
        manifold=handle, eval_f=eval_f, grad_f=grad_f,
        n_eq=n_eq,
        eval_u=lambda x: Ju.T @ (x - x_star),
        apply_JuT=lambda x, d: Ju.T @ d,
        apply_Ju=lambda x, w: Ju @ w,
        n_ineq=n_ineq,
        eval_v=lambda x: Jv.T @ (x - x_star) + v_offset,
        apply_JvT=lambda x, d: Jv.T @ d,
        apply_Jv=lambda x, w: Jv @ w,
        name=f"synthetic_kkt(seed={seed})")
    return problem, x_star, MultiplierSet(rho=rho_star, lam=lam_star, mu=mu_star)
