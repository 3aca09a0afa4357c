"""KKT residuals, feasibility metric, LICQ check, the dissolving-map axiom
check (``validate_manifold``), neighborhood-constant estimation and
penalty-condition checkers.

The KKT and LICQ checks assemble the dense constraint Jacobians, reading
Jc in one call of the handle's ``jacobian``, and raise
``EvaluatorFaultError`` on a non-finite one, or ``DimensionError`` on one
of the wrong shape; so do grad f and the values c, u and v.  The KKT
check factors B = [Jc Ju] once and reads its projector and free
multipliers from that one factorization: a Cholesky factor of the Gram
matrix B^T B when the ``dpocon`` estimate of its condition passes the
guard ``GRAM_MAX_COND``, else the pivoted QR of B, which also decides
``rank_deficient``.
The constant estimates also run inside the solve, as the beta safeguard
of ``alm_solve_cdp``: a pass at 5 sample points, and one at 30 only when
a decision is a close call.  ``_ball`` draws the 5 as the first of the
30, and each constant is a maximum over its points, so the 5-point
constants, and the threshold they give, are never above the 30-point
ones.  The estimates read ``Jc`` and ``J_A^T`` through the handle's own
actions, holding one state ``point(y)`` per sample point in each pass:
the safeguard's constants take one pass per sample count,
``estimate_constants`` a second over the same points (``_ball``), and it
takes rho_x from the sigma_x and L_c it has measured, by Weyl's
inequality.  The axiom check reads J_A^T Jc through the same reader
(``_Blocks``), one state per probe.  A non-finite read of Jc or J_A^T raises ``EvaluatorFaultError``
naming its evaluator.  A handle that declares ``row_blocks`` gives stacks
of one block per row of X, O(n) work per sample point or probe.  Any
other handle gives ``Jc`` as one dense n x p block, and the norms of
``J_A^T`` come matrix-free, by Lanczos on J_A^T J_A through the state's
``ja`` and ``jat``: one reorthogonalised basis, at most 20 applications
of each per norm, and no n x n matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.optimize

from .core import (
    DimensionError,
    EvaluatorFaultError,
    ManifoldHandle,
    MultiplierSet,
    OutOfNeighborhoodError,
    ParameterError,
    PenaltyParams,
    ProblemSpec,
    RankDeficiencyError,
    Vector,
    _check_point,
    _dense_columns,
)
from .dissolve import a_infinity
from .manifolds import GenericManifoldSpec, make_handle

__all__ = [
    "ConditionReport",
    "ConstantEstimates",
    "KktReport",
    "ValidationReport",
    "check_condition",
    "check_licq",
    "estimate_constants",
    "feasibility",
    "kkt_residual",
    "make_synthetic_kkt",
    "validate_manifold",
]

ACTIVE_TOL = 1e-6
FEASIBILITY_TOL = 1e-10  # absolute tolerance on ||c(x)|| for "feasible"


def feasibility(problem: ProblemSpec, x: Vector) -> float:
    """||u(x)|| + ||c(x)|| + ||max(v(x), 0)||.  A value of the wrong
    length raises ``DimensionError``, a non-finite one
    ``EvaluatorFaultError``, naming the evaluator."""
    x = np.asarray(x, dtype=float).ravel()
    u = _check_point(problem.eval_u(x), problem.n_eq, "eval_u")
    c = _check_point(problem.manifold.eval_c(x), problem.p, "eval_c")
    v = _check_point(problem.eval_v(x), problem.n_ineq, "eval_v")
    return (float(np.linalg.norm(u)) + float(np.linalg.norm(c))
            + float(np.linalg.norm(np.maximum(v, 0.0))))


def dense_jacobians(problem: ProblemSpec, x: Vector):
    """Dense (n x p), (n x N_E), (n x N_I) constraint-gradient matrices;
    Jc is the handle's ``jacobian`` read.  A non-finite entry raises
    ``EvaluatorFaultError``, and a ``jacobian`` of another shape or a
    column of another length ``DimensionError``, naming the evaluator."""
    n = problem.n
    return (_finite(problem.manifold.jacobian(x), "jacobian", (n, problem.p)),
            _dense_columns(problem.apply_Ju, x, problem.n_eq, n, "apply_Ju"),
            _dense_columns(problem.apply_Jv, x, problem.n_ineq, n, "apply_Jv"))


def _finite(M: Vector, what: str, shape: tuple | None = None) -> Vector:
    """M, else ``EvaluatorFaultError`` naming the evaluator ``what``; with
    ``shape``, an M of another shape raises ``DimensionError``."""
    if shape is not None and np.shape(M) != shape:
        raise DimensionError(f"{what} has shape {np.shape(M)}, expected "
                             f"{shape}")
    if not np.all(np.isfinite(M)):
        raise EvaluatorFaultError(f"{what} has a non-finite entry")
    return M


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
    through the projector P onto the complement of range(B), B = [Jc Ju],
    from one factorization of B (``_gram_fit``, else ``_qr_fit``).
    Non-negative least squares on the columns of P Jv of the inequalities
    active at x (``_active_set``, as in ``check_licq``) gives their mu; an
    inequality off that set, strictly inactive or violated, gets mu = 0,
    so it cannot absorb part of grad f, and feasibility reports a violated
    one.  The stationarity is ||grad f + Jv mu + B xi||, with (rho, lambda)
    = xi the least-squares fit of -(grad f + Jv mu) by B.

    The Gram path, taken when B is well conditioned, reads everything from
    a Cholesky factor of G = B^T B: P M = M - B G^-1 B^T M and xi =
    -G^-1 B^T (grad f + Jv mu); it reports ``rank_deficient`` False, which
    its guard implies.  Any other B goes to a pivoted QR, whose rank test
    sets ``rank_deficient``; on a rank-deficient B its xi is a basic
    solution, zero on the columns the pivoting put last, not the
    minimum-norm one, and the residual it reaches is the same.

    A bad x raises as in ``check_licq``, and a non-finite grad f, Jc, Ju
    or Jv raises ``EvaluatorFaultError`` before any factorization, one of
    the wrong shape ``DimensionError``; c, u and v raise as in
    ``feasibility``.
    """
    x = _check_point(x, problem.n)
    g = _check_point(problem.grad_f(x), problem.n, "grad_f")
    Jc, Ju, Jv = dense_jacobians(problem, x)
    B = np.hstack([Jc, Ju])
    fit = _gram_fit(B) or _qr_fit(B)

    v = _check_point(problem.eval_v(x), problem.n_ineq, "eval_v")
    active = _active_set(v)
    mu = np.zeros(problem.n_ineq)
    if active:
        mu[active] = scipy.optimize.nnls(fit.proj(Jv[:, active]),
                                         -fit.proj(g))[0]
    xi, resid = fit.solve(g + Jv @ mu)
    return KktReport(
        stationarity=float(np.linalg.norm(resid)),
        feasibility=feasibility(problem, x),
        multipliers=MultiplierSet(rho=xi[:problem.p], lam=xi[problem.p:],
                                  mu=mu),
        complementarity=float(abs(np.dot(mu, v))) if mu.size else 0.0,
        rank_deficient=fit.rank_deficient)


class _Fit(NamedTuple):
    """One factorization of B = [Jc Ju]: ``proj(M)`` applies the projector
    onto the complement of range(B) to M, ``solve(r)`` returns the fit xi
    of -r by B and the residual r + B xi."""

    proj: Callable[[Vector], Vector]
    solve: Callable[[Vector], tuple[Vector, Vector]]
    rank_deficient: bool


# The QR path's rank floor: |R_ii| > RANK_FLOOR * max(1, max_j |R_jj|).
RANK_FLOOR = 1e-12
# The Gram path's guard: the largest condition number of G = B^T B, by
# LAPACK's 1-norm estimate, that it factors, so cond(B) <~ 1e4.
GRAM_MAX_COND = 1e8


def _gram_fit(B: Vector) -> _Fit | None:
    """The fit from a Cholesky factor of G = B^T B, or None when G is not
    finite, its factorization fails, or ``dpocon`` estimates 1/rcond(G)
    above ``GRAM_MAX_COND``, or rcond(G) ||G||_1 at most RANK_FLOOR^2.
    Both read one estimate: cond_2(G) <= cond_1(G) ~ 1/rcond, so cond(B)
    is at most about 1e4, and sigma_min(B)^2 >= 1/||G^-1||_1 ~ rcond
    ||G||_1, so every |R_ii| of the QR path, each at least sigma_min(B),
    would clear its rank floor: B has full rank.  A factorization that
    merely succeeds is no rank test, since ``dpotrf`` succeeds at Gram
    condition 1e14."""
    G = B.T @ B
    if not G.size:
        return _Fit(lambda M: M, lambda r: (np.zeros(0), r), False)
    if not np.all(np.isfinite(G)):
        return None
    lapack = scipy.linalg.lapack
    chol, info = lapack.dpotrf(G)
    if info:
        return None
    anorm = float(np.max(np.sum(np.abs(G), axis=0)))
    rcond, info = lapack.dpocon(chol, anorm)
    if info or not (rcond * GRAM_MAX_COND >= 1.0
                    and rcond * anorm > RANK_FLOOR ** 2):
        return None

    def coef(M):
        return lapack.dpotrs(chol, B.T @ M)[0]

    def solve(r):
        xi = -coef(r)
        return xi, r + B @ xi

    return _Fit(lambda M: M - B @ coef(M), solve, False)


def _qr_fit(B: Vector) -> _Fit:
    """The fit from a pivoted, economic QR of B.  Its leading ``rank``
    columns Q_r, with rank the count of |R_ii| > RANK_FLOOR max(1,
    max_j |R_jj|), give the projector P = I - Q_r Q_r^T, and xi comes from
    a triangular solve with the leading rank x rank block of R, scattered
    through the pivot."""
    Q, R, piv = scipy.linalg.qr(B, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > RANK_FLOOR * np.max(diag, initial=1.0)))
    # Only the first `rank` columns of Q span range(B); the rest are
    # numerical noise directions and must not enter the projector.
    Qr = Q[:, :rank]

    def solve(r):
        coef = Qr.T @ r
        xi = np.zeros(B.shape[1])
        xi[piv[:rank]] = scipy.linalg.solve_triangular(R[:rank, :rank],
                                                       -coef)
        return xi, r - Qr @ coef

    return _Fit(lambda M: M - Qr @ (Qr.T @ M), solve, rank < B.shape[1])


def _active_set(v: Vector) -> list[int]:
    """Indices of the inequalities active at tolerance ``ACTIVE_TOL``."""
    return [j for j, vj in enumerate(v)
            if abs(vj) <= ACTIVE_TOL * (1.0 + abs(vj))]


def check_licq(problem: ProblemSpec, x: Vector, tol: float = 1e-8) -> bool:
    """True when the active constraint gradients are linearly independent
    (smallest singular value above ``tol`` times the largest).  A wrong
    length raises ``DimensionError``, a non-finite x ``EvaluatorFaultError``,
    and so do v(x) and the Jacobians, naming the evaluator."""
    x = _check_point(x, problem.n)
    Jc, Ju, Jv = dense_jacobians(problem, x)
    v = _check_point(problem.eval_v(x), problem.n_ineq, "eval_v")
    M = np.hstack([Jc, Ju, Jv[:, _active_set(v)]])
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

    ``rho_x`` = min(1, sigma1x / (2 L_cx)), or 1 when p = 0 or L_cx = 0:
    within it Weyl's inequality sigma_min(Jc(y)) >= sigma1x - L_cx ||y - x||
    keeps sigma_min(Jc) >= sigma1x / 2.  L_cx is sampled in the ball of
    ``radius``, so rho_x is only as good as that estimate.
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


def _ball(x: Vector, radius: float, samples: int, seed: int) -> list:
    """x, then ``samples`` points drawn uniformly from the ball of the
    given radius around it by the generator of ``seed``."""
    rng = np.random.default_rng(seed)
    pts = [x]
    for _ in range(samples):
        d = rng.standard_normal(x.size)
        d *= radius * rng.random() ** (1.0 / x.size) / np.linalg.norm(d)
        pts.append(x + d)
    return pts


def _bound_constants(problem: ProblemSpec, x: Vector, radius: float,
                     samples: int, seed: int) -> _BoundConstants:
    """Sample ``samples`` points of the ball of the given radius around a
    feasible x and estimate only what the multiplier-coupled beta bound
    reads: sigma_min(Jc(x)), sup and Lipschitz constant of J_A^T, sups of
    Ju and Jv, and sup of ||grad f(A(y))||.

    On a handle without ``row_blocks`` each norm of J_A^T, or of a
    difference of two, is a Lanczos lower bound (``_Blocks``) that stops
    when its top Ritz value moves by at most ``LANCZOS_RTOL`` relative, or
    after min(``LANCZOS_MAX_STEPS``, n) steps.  On the closed-form map of
    center of mass (40, 10), N = 100, r = 0.01, seed 1, at radius 0.1 with
    30 samples and seed 0, the sampled sup of ||J_A^T|| is 1.1748901
    against 1.1748902 from dense SVDs at the same points (7.6e-8 relative
    below), and its Lipschitz quotient 0.66424134 against 0.66424135
    (1.9e-8): lower bounds, as sampled suprema already are.

    A non-finite grad f(A(y)), Ju, Jv or J_A^T at a sample raises
    ``EvaluatorFaultError`` naming the evaluator, or ``apply_JAT`` for
    J_A^T, so no sample drops out of a maximum; one of the wrong shape
    raises ``DimensionError``.  The points are ``_ball(x, radius,
    samples, seed)``.
    """
    x = _check_point(x, problem.n)
    if not 0.0 < radius <= 1.0:
        raise ParameterError(f"radius must be in (0, 1], got {radius}")
    if samples < 1:
        raise ParameterError(f"need at least one sample point, got {samples}")
    n = problem.n
    read = _Blocks(problem.manifold, seed)

    sigma1 = (float(np.min(read.singular_values(read.stack_jc(x))[:, -1]))
              if problem.p else 0.0)
    if problem.p and sigma1 <= 1e-10:
        raise RankDeficiencyError(
            f"sigma_min(Jc) = {sigma1:.3e} at the base point; full-rank "
            "constraint Jacobian required")

    M_A = M_u = M_v = L_f = L_A = 0.0
    prev = None
    for y in _ball(x, radius, samples, seed):
        pt = read.mani.point(y)
        Ja = read.jat(pt)
        M_A = max(M_A, read.norm(Ja))
        Ju = _dense_columns(problem.apply_Ju, y, problem.n_eq, n, "apply_Ju")
        M_u = max(M_u, _spec_norm(Ju))
        Jv = _dense_columns(problem.apply_Jv, y, problem.n_ineq, n,
                            "apply_Jv")
        M_v = max(M_v, _spec_norm(Jv))
        L_f = max(L_f, float(np.linalg.norm(
            _check_point(problem.grad_f(pt.ax), n, "grad_f"))))
        if prev is not None:
            L_A = max(L_A, _diff_quotient(Ja, prev[1], y, prev[0]))
        prev = (y, Ja)
    return _BoundConstants(sigma1x=sigma1, M_Ax=M_A, L_Ax=L_A, M_ux=M_u,
                           M_vx=M_v, L_fx=L_f)


def estimate_constants(problem: ProblemSpec, x: Vector, radius: float,
                       samples: int = 100, seed: int = 0) -> ConstantEstimates:
    """Estimate the neighborhood constants by sampling the ball of the given
    radius around a feasible x: suprema as maxima over samples, Lipschitz
    constants as maxima of difference quotients over consecutive pairs.

    The six constants of the beta bound come from ``_bound_constants``; a
    second pass over the same points, ``_ball(x, radius, samples, seed)``,
    adds the sup and Lipschitz constant of Jc and the Lipschitz constant of
    J_A^T Jc(A(y)), whose p columns are the state's ``jat`` of the columns
    of Jc(A(y)).  rho_x comes from sigma1x and L_cx by Weyl's inequality
    (``ConstantEstimates``), with no further read of Jc.  It is a
    diagnostic for ``probe`` and the condition checks; the solver's beta
    safeguard reads only the six.
    """
    x = _check_point(x, problem.n)
    consts = _bound_constants(problem, x, radius, samples, seed)
    pts = _ball(x, radius, samples, seed)
    read = _Blocks(problem.manifold)

    M_c = L_c = L_Ac = 0.0
    prev = None
    for y in pts:
        Jc = read.stack_jc(y)
        pt = read.mani.point(y)
        JaJcA = read.jat_jc(pt, pt.ax)
        M_c = max(M_c, read.norm(Jc))
        if prev is not None:
            L_c = max(L_c, _diff_quotient(Jc, prev[1], y, prev[0]))
            L_Ac = max(L_Ac, _diff_quotient(JaJcA, prev[2], y, prev[0]))
        prev = (y, Jc, JaJcA)

    sigma1, M_A = consts.sigma1x, consts.M_Ax
    rho_x = min(1.0, sigma1 / (2.0 * L_c)) if L_c > 0 else 1.0
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


# Stop rule of the Lanczos norm of a matrix-free J_A^T: the top Ritz value
# has moved by at most LANCZOS_RTOL relative to the last step, or
# min(LANCZOS_MAX_STEPS, n) steps have run.
LANCZOS_RTOL = 1e-6
LANCZOS_MAX_STEPS = 20


class _JatOperator(NamedTuple):
    """J_A^T(y), or a difference of two, as its actions: ``mv`` applies
    J_A^T and ``rmv`` its transpose J_A.  ``start`` is the first Lanczos
    vector, a unit vector."""

    mv: Callable[[Vector], Vector]
    rmv: Callable[[Vector], Vector]
    start: Vector

    def __sub__(self, other: "_JatOperator") -> "_JatOperator":
        return _JatOperator(lambda v: self.mv(v) - other.mv(v),
                            lambda u: self.rmv(u) - other.rmv(u), self.start)

    def norm(self) -> float:
        """Square root of the top Ritz value theta of the tridiagonal
        (alpha, beta) from k steps of Lanczos on B B^T, B the operator,
        with full reorthogonalisation against one basis: a lower bound on
        ||B||_2 that grows with k.  It stops on the module's stop rule,
        applied to sqrt(theta), or when the new direction vanishes,
        beta_k <= 1e-12 theta, where theta is exact.  A non-finite norm
        raises ``EvaluatorFaultError`` naming ``apply_JAT``."""
        n = self.start.size
        steps = min(LANCZOS_MAX_STEPS, n)
        V = np.empty((steps + 1, n))
        alpha, beta = np.zeros(steps), np.zeros(steps)
        V[0] = self.start
        top = 0.0
        for k in range(steps):
            w = self.mv(self.rmv(V[k]))
            alpha[k] = V[k] @ w
            w -= V[:k + 1].T @ (V[:k + 1] @ w)
            beta[k] = np.linalg.norm(w)
            # dsterf wants one off-diagonal entry even for a 1 x 1 matrix.
            theta = scipy.linalg.lapack.dsterf(alpha[:k + 1],
                                               beta[:max(k, 1)])[0][-1]
            ritz = float(np.sqrt(max(theta, 0.0)))
            done = ritz - top <= LANCZOS_RTOL * ritz or beta[k] <= 1e-12 * theta
            top = ritz
            if done:
                break
            V[k + 1] = w / beta[k]
        return _finite(top, "apply_JAT")


class _Blocks:
    """Reads Jc, J_A^T and J_A^T Jc of a handle.

    Jc and J_A^T(y) Jc(z) come as (m, q, k) stacks of their q x k diagonal
    blocks.  A handle with ``row_blocks = (m, q)`` has one block per row
    of X, with k = 1; any other handle is one block, m = 1, q = n, k = p:
    the dense n x p matrices, and Jc is the handle's ``jacobian`` read.
    Row i of a row-block action depends only on row i of its direction, so
    the direction ``tile(e_j, m)``, which is e_j in every row, gives
    column j of every block at once, bitwise equal to the dense entries: k
    actions per stack.  A block-diagonal matrix's spectral norm is its
    largest block norm, and its singular values are those of its blocks.
    A non-finite Jc raises ``EvaluatorFaultError``, and a ``jacobian`` of
    a shape other than n x p or an action column of a length other than n
    ``DimensionError``, naming its evaluator.

    J_A^T and J_A^T Jc are each read from a state ``point(y)`` of the
    handle.  J_A^T of a ``row_blocks`` handle is the (m, q, q) stack of its
    blocks, q actions per point.  Of any other handle it is a matrix-free
    ``_JatOperator``, whose norm is a Lanczos lower bound from the state's
    ``ja`` and ``jat`` (at most ``LANCZOS_MAX_STEPS`` of each), started at
    a unit vector fixed by ``(n, seed)``, so it is a deterministic
    function of the point.
    """

    def __init__(self, handle: ManifoldHandle, seed: int = 0):
        self.mani, self.seed = handle, seed
        if handle.row_blocks is not None:
            (self.m, self.q), self.k = handle.row_blocks, 1
        else:
            self.m, self.q, self.k = 1, handle.n, handle.p

    @functools.cached_property
    def start(self) -> Vector:
        """The Lanczos norm's first vector, fixed by ``(n, seed)``."""
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

    def _stack(self, action, count: int, what: str) -> Vector:
        """(m, q, count) stack; column j is ``action(tile(e_j, m))``,
        checked as the evaluator ``what``."""
        m, q = self.m, self.q
        return _dense_columns(lambda _, e: action(np.tile(e, m)), None,
                              count, m * q, what).reshape(m, q, count)

    def stack_jc(self, y: Vector) -> Vector:
        """Jc(y) as its stack: without ``row_blocks`` the handle's dense
        ``jacobian`` read."""
        if self.mani.row_blocks is None:
            return _finite(self.mani.jacobian(y), "jacobian",
                           (self.q, self.k))[None]
        return self._stack(lambda w: self.mani.apply_Jc(y, w), self.k,
                           "apply_Jc")

    def jat(self, pt) -> Vector | _JatOperator:
        """J_A^T at the state ``pt`` = ``ManifoldHandle.point(y)``."""
        if self.mani.row_blocks is not None:
            return self._stack(pt.jat, self.q, "apply_JAT")
        return _JatOperator(pt.jat, pt.ja, self.start)

    def jat_jc(self, pt, z: Vector) -> Vector:
        """J_A^T(y) Jc(z) at the state ``pt`` of y: ``pt.jat`` of each
        column of ``stack_jc(z)``, which the ``jacobian`` contract makes
        bitwise the action ``apply_Jc(z, e_j)``."""
        jc = self.stack_jc(z).reshape(self.m * self.q, self.k)
        cols = np.array([pt.jat(col) for col in jc.T]).T
        return _finite(cols.reshape(self.m, self.q, self.k), "apply_JAT")


@dataclass
class ValidationReport:
    max_fixed_point_error: float
    max_jacobian_product_norm: float
    max_adjoint_error: float
    tol: float
    probes_used: int
    passed: bool
    notes: list[str] = field(default_factory=list)


def validate_manifold(handle: ManifoldHandle, probes: Sequence[Vector],
                      tol: float) -> ValidationReport:
    """Check the dissolving-map axioms at (projections of) the given probes.

    At each feasible probe x the report records ``||A(x) - x||_inf``, the
    spectral norm of J_A^T(x) Jc(x) (``_Blocks.jat_jc``), and the
    adjointness error ``|<J_A d, g> - <d, J_A^T g>| / (||d|| ||g||)`` of
    the forward and transposed actions for random d, g.  All three read
    one state ``handle.point(x)`` per probe.  Jc comes from one
    ``apply_Jc`` action per probe on a ``row_blocks`` handle, else from
    one ``jacobian`` read.  Each must be within ``tol`` (finite and > 0,
    else ``ParameterError``) for the report to pass.  A probe that
    ``a_infinity`` cannot project is skipped with a note.  A c(x) or A(x)
    of the wrong length raises ``DimensionError``, and a non-finite one,
    or a non-finite adjoint gap, ``EvaluatorFaultError``, each naming the
    probe.
    """
    if not 0 < tol < np.inf:
        raise ParameterError(f"tol must be finite and positive, got {tol}")
    read = _Blocks(handle)
    max_fix = max_prod = max_adj = 0.0
    notes: list[str] = []
    used = 0
    rng = np.random.default_rng((handle.n, handle.p))  # d and g, per probe
    for k, probe in enumerate(probes):
        x = _check_point(probe, handle.n, f"probe {k}")
        c = _check_point(handle.eval_c(x), handle.p, f"eval_c at probe {k}")
        if float(np.linalg.norm(c)) > FEASIBILITY_TOL:
            try:
                x = a_infinity(handle, x, tol=FEASIBILITY_TOL)
            except OutOfNeighborhoodError as exc:
                notes.append(f"probe {k} skipped: {exc}")
                continue
        pt = handle.point(x)
        ax = _check_point(pt.ax, handle.n, f"eval_A at probe {k}")
        max_fix = max(max_fix, float(np.max(np.abs(ax - x), initial=0.0)))
        max_prod = max(max_prod, read.norm(read.jat_jc(pt, x)))
        d, g = rng.standard_normal((2, handle.n))
        gap = _finite(float(np.dot(pt.ja(d), g)) - float(np.dot(d, pt.jat(g))),
                      f"Jacobian action at probe {k}")
        max_adj = max(max_adj, abs(gap) / float(np.linalg.norm(d)
                                                * np.linalg.norm(g)))
        used += 1
    passed = (used > 0 and max_fix <= tol and max_prod <= tol
              and max_adj <= tol)
    return ValidationReport(max_fix, max_prod, max_adj, tol, used, passed,
                            notes)


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
