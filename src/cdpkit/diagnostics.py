"""KKT residuals, feasibility metric, LICQ check, the dissolving-map axiom
check (``validate_manifold``), neighborhood-constant estimation and
penalty-condition checkers.

Every function here reads a problem, or a bare handle, through one
reader, ``_Reader``, and its per-point view ``_Reader.at(x)``: the view
checks x once, then reads each evaluator at x at most once, when first
asked, with the shape and finiteness of what it reads checked by core's
``_check_read`` (see ``_Reader`` for the names the errors carry).

The KKT check takes its feasibility from the view first, then factors
B = [Jc Ju] once and reads its projector and free multipliers from that
one factorization: a Cholesky factor of B^T B when core's rank test
``_guarded_cholesky`` passes it at ``GRAM_MAX_COND``, else the pivoted
QR of B, which also decides ``rank_deficient``.

The constant estimates fold their constants over one walk of the sample
points (``_fold_ball``), one view per point: ``estimate_constants`` all
nine, then rho_x from the sigma_x and L_c it has measured, by Weyl's
inequality.  They also run inside the solve, as the beta safeguard of
``alm_solve_cdp``, which folds only the six of its bound: a walk of 5
sample points, and one of 30 only when a decision is a close call.
``_ball`` draws the 5 as the first of the 30, and each constant is a
maximum over its points, so the 5-point constants, and the threshold
they give, are never above the 30-point ones.  The axiom check holds one
view per probe.  A handle that declares ``row_blocks`` gives stacks of
one block per row of X, O(n) work per sample point or probe.  Any other
handle gives Jc as one dense n x p block, and the norms of J_A^T come
matrix-free, by Lanczos on J_A^T J_A through the state's ``ja`` and
``jat``: one reorthogonalised basis, at most 20 applications of each per
norm, and no n x n matrix.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.optimize

from .core import (
    DimensionError,
    ManifoldHandle,
    MultiplierSet,
    OutOfNeighborhoodError,
    ParameterError,
    PenaltyParams,
    ProblemSpec,
    RankDeficiencyError,
    Vector,
    _check_point,
    _check_read,
    _check_shape,
    _dense_columns,
    _guarded_cholesky,
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
    """||u(x)|| + ||c(x)|| + ||max(v(x), 0)||."""
    return _Reader(problem).at(x).feasibility


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

    The Gram path, taken when ``_guarded_cholesky`` passes G = B^T B,
    reads everything from its factor: P M = M - B G^-1 B^T M and xi =
    -G^-1 B^T (grad f + Jv mu); it reports ``rank_deficient`` False, which
    the guard implies.  Any other B goes to a pivoted QR, whose rank test
    sets ``rank_deficient``; on a rank-deficient B its xi is a basic
    solution, zero on the columns the pivoting put last, not the
    minimum-norm one, and the residual it reaches is the same.

    It reads through one ``_Reader`` view, all before B is factored and
    the feasibility first.
    """
    at = _Reader(problem).at(x)
    feas, g = at.feasibility, at.g
    B = np.hstack([at.jc_dense, at.ju])
    Jv, v = at.jv, at.v
    fit = _gram_fit(B) or _qr_fit(B)

    active = _active_set(v)
    mu = np.zeros(problem.n_ineq)
    if active:
        mu[active] = scipy.optimize.nnls(fit.proj(Jv[:, active]),
                                         -fit.proj(g))[0]
    xi, resid = fit.solve(g + Jv @ mu)
    return KktReport(
        stationarity=float(np.linalg.norm(resid)),
        feasibility=feas,
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
    finite or core's ``_guarded_cholesky`` refuses it at ``GRAM_MAX_COND``
    and floor RANK_FLOOR^2.  Then cond(B) <~ 1e4 and sigma_min(B)^2 >~
    RANK_FLOOR^2, so every |R_ii| of the QR path would clear its floor."""
    G = B.T @ B
    if not G.size:
        return _Fit(lambda M: M, lambda r: (np.zeros(0), r), False)
    if not np.all(np.isfinite(G)):
        return None
    chol = _guarded_cholesky(G, GRAM_MAX_COND, RANK_FLOOR ** 2)
    if chol is None:
        return None

    def coef(M):
        return scipy.linalg.lapack.dpotrs(chol, B.T @ M)[0]

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
    (smallest singular value above ``tol`` times the largest).  A ``tol``
    outside [0, 1) raises ``ParameterError``: below 0 every check would
    pass, at 1 or above none could."""
    if not 0.0 <= tol < 1.0:
        raise ParameterError(f"tol must be in [0, 1), got {tol}")
    at = _Reader(problem).at(x)
    M = np.hstack([at.jc_dense, at.ju, at.jv[:, _active_set(at.v)]])
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


# What a walk of the sample ball folds, by constant: a sup keeps the
# largest norm read at a point, a Lipschitz constant the largest
# ``_diff_quotient`` of what it reads at consecutive points.
_BOUND_SUPS = {"M_Ax": lambda at: _Reader.norm(at.jat),
               "M_ux": lambda at: _spec_norm(at.ju),
               "M_vx": lambda at: _spec_norm(at.jv),
               "L_fx": lambda at: float(np.linalg.norm(at.image.g))}
_BOUND_LIPSCHITZ = {"L_Ax": lambda at: at.jat}
_ESTIMATE_SUPS = {**_BOUND_SUPS, "M_cx": lambda at: _Reader.norm(at.jc)}
_ESTIMATE_LIPSCHITZ = {**_BOUND_LIPSCHITZ, "L_cx": lambda at: at.jc,
                       "L_Acx": lambda at: at.jat_times(at.image.jc)}


def _fold_ball(problem: ProblemSpec, x: Vector, radius: float, samples: int,
               seed: int, sups: dict, lipschitz: dict) -> dict[str, float]:
    """sigma1x = sigma_min(Jc(x)) and the constants of ``sups`` and
    ``lipschitz``, folded over one walk of ``_ball(x, radius, samples,
    seed)`` with one ``_Reader``: one view per point, two at a time.  A
    radius outside (0, 1] or fewer than one sample raises
    ``ParameterError``."""
    read = _Reader(problem, seed)
    base = read.at(x)
    if not 0.0 < radius <= 1.0:
        raise ParameterError(f"radius must be in (0, 1], got {radius}")
    if samples < 1:
        raise ParameterError(f"need at least one sample point, got {samples}")
    sigma1 = (float(np.min(_Reader.singular_values(base.jc)[:, -1]))
              if problem.p else 0.0)
    if problem.p and sigma1 <= 1e-10:
        raise RankDeficiencyError(
            f"sigma_min(Jc) = {sigma1:.3e} at the base point; full-rank "
            "constraint Jacobian required")
    found, prev = dict.fromkeys([*sups, *lipschitz], 0.0), None
    ball = _ball(base.x, radius, samples, seed)
    for at in itertools.chain([base], map(read.at, ball[1:])):
        for name, norm in sups.items():
            found[name] = max(found[name], norm(at))
        parts = {name: part(at) for name, part in lipschitz.items()}
        if prev is not None:
            for name, S in parts.items():
                found[name] = max(found[name], _diff_quotient(
                    S, prev[1][name], at.x, prev[0]))
        prev = (at.x, parts)
    return dict(found, sigma1x=sigma1)


def _bound_constants(problem: ProblemSpec, x: Vector, radius: float,
                     samples: int, seed: int) -> _BoundConstants:
    """Fold over ``samples`` points of the ball of the given radius around
    a feasible x (``_fold_ball``) only what the multiplier-coupled beta
    bound reads: sigma_min(Jc(x)), sup and Lipschitz constant of J_A^T,
    sups of Ju and Jv, and sup of ||grad f(A(y))||.

    On a handle without ``row_blocks`` each norm of J_A^T, or of a
    difference of two, is a Lanczos lower bound (``_Reader``) that stops
    when its top Ritz value moves by at most ``LANCZOS_RTOL`` relative, or
    after min(``LANCZOS_MAX_STEPS``, n) steps.  On center of mass (40, 10)
    at radius 0.1 with 30 samples, the sup of ||J_A^T|| and its Lipschitz
    quotient are 7.6e-8 and 1.9e-8 relative below dense SVDs at the same
    points: lower bounds, as sampled suprema already are.  A bad read
    raises, so no sample drops out of a maximum.
    """
    return _BoundConstants(**_fold_ball(problem, x, radius, samples, seed,
                                        _BOUND_SUPS, _BOUND_LIPSCHITZ))


def estimate_constants(problem: ProblemSpec, x: Vector, radius: float,
                       samples: int = 100, seed: int = 0) -> ConstantEstimates:
    """Estimate the neighborhood constants by sampling the ball of the given
    radius around a feasible x: suprema as maxima over samples, Lipschitz
    constants as maxima of difference quotients over consecutive pairs.

    One walk of the sample points (``_fold_ball``) folds the six constants
    of the beta bound, as ``_bound_constants`` does, with the sup and
    Lipschitz constant of Jc and the Lipschitz constant of J_A^T Jc(A(y)),
    whose p columns are the state's ``jat`` of the columns of Jc(A(y)).
    rho_x comes from sigma1x and L_cx by Weyl's inequality
    (``ConstantEstimates``), with no further read of Jc.  It is a
    diagnostic for ``probe`` and the condition checks; the solver's beta
    safeguard reads only the six.
    """
    found = _fold_ball(problem, x, radius, samples, seed, _ESTIMATE_SUPS,
                       _ESTIMATE_LIPSCHITZ)
    sigma1, M_A, M_c, L_c, L_Ac = (found[name] for name in (
        "sigma1x", "M_Ax", "M_cx", "L_cx", "L_Acx"))
    rho_x = min(1.0, sigma1 / (2.0 * L_c)) if L_c > 0 else 1.0
    eps = min(
        rho_x / 2.0,
        sigma1 / (32.0 * L_c * (M_A + 1.0)) if L_c > 0 else np.inf,
        sigma1 ** 2 / (8.0 * L_Ac * M_c) if L_Ac > 0 and M_c > 0 else np.inf)
    omega_bar = sigma1 * eps / (4.0 * M_c * (M_A + 1.0) + sigma1) if M_c > 0 else eps
    return ConstantEstimates(**found, rho_x=rho_x, epsilon_x=float(eps),
                             omega_bar_radius=float(omega_bar),
                             sample_count=samples, radius=radius)


def _spec_norm(M: Vector) -> float:
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


def _diff_quotient(S: Vector, S_prev: Vector, y: Vector,
                   y_prev: Vector) -> float:
    """Spectral norm of S - S_prev, block stacks or ``_JatOperator``s, over
    ||y - y_prev||, or 0 for coincident points."""
    dist = float(np.linalg.norm(y - y_prev))
    return _Reader.norm(S - S_prev) / dist if dist > 1e-12 else 0.0


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
        beta_k <= 1e-12 theta, where theta is exact.  A first action of
        another length raises ``DimensionError``, naming ``Jacobian
        action`` for ``rmv`` and ``apply_JAT`` for ``mv``; a non-finite
        norm raises ``EvaluatorFaultError`` naming ``apply_JAT``."""
        n = self.start.size
        steps = min(LANCZOS_MAX_STEPS, n)
        V = np.empty((steps + 1, n))
        alpha, beta = np.zeros(steps), np.zeros(steps)
        V[0] = self.start
        top = 0.0
        for k in range(steps):
            u = self.rmv(V[k])
            if k == 0:  # the first step checks each action's length
                _check_shape(u, (n,), "Jacobian action")
            w = self.mv(u)
            if k == 0:
                _check_shape(w, (n,), "apply_JAT")
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
        return _check_read(top, (), "apply_JAT")


class _Reader:
    """The one reader of a problem's evaluators, or of a bare handle's.

    ``at(x)`` checks x and gives its view, ``_PointView``, which reads
    each evaluator at x at most once, when first asked, through core's
    ``_check_read``: a read of the wrong shape raises ``DimensionError``,
    a non-finite one ``EvaluatorFaultError``, naming the evaluator: ``x``,
    ``eval_c``, ``eval_u``, ``eval_v``, ``grad_f``, ``jacobian`` (or the
    ``apply_Jc`` column the generic handle's own ``jacobian`` reads),
    ``apply_Jc``, ``apply_Ju``, ``apply_Jv``, ``eval_A`` for the state's
    ``ax``, ``apply_JAT`` for J_A^T, its products and its norms, and
    ``Jacobian action`` for J_A, in the adjoint gap and the norms.  In a
    view tagged ``probe k``, x is ``probe k`` and each evaluator ``<name>
    at probe k``.

    Jc and J_A^T(y) Jc(z) come as (m, q, k) stacks of their q x k diagonal
    blocks.  A handle with ``row_blocks = (m, q)`` has one block per row
    of X, with k = 1; any other handle is one block, m = 1, q = n, k = p:
    the dense n x p matrices, and Jc is the handle's ``jacobian`` read.
    Row i of a row-block action depends only on row i of its direction, so
    the direction ``tile(e_j, m)``, which is e_j in every row, gives
    column j of every block at once, bitwise equal to the dense entries:
    Jc is one ``apply_Jc`` action on ones(m).  A block-diagonal matrix's
    spectral norm is its largest block norm, and its singular values are
    those of its blocks.

    J_A^T is read from the view's state ``point(y)``.  Of a ``row_blocks``
    handle it is the (m, q, q) stack of its blocks, ``jat_times`` of the
    identity blocks: q actions, on the ``tile(e_j, m)``, per point.  Of
    any other handle it is a matrix-free ``_JatOperator``, whose norm is a
    Lanczos lower bound from the state's ``ja`` and ``jat`` (at most
    ``LANCZOS_MAX_STEPS`` of each), started at a unit vector fixed by
    ``(n, seed)``, so it is a deterministic function of the point.  The
    constant estimates walk their sample points once, with one reader that
    holds the views of two consecutive points (``_fold_ball``).
    """

    def __init__(self, source: ProblemSpec | ManifoldHandle, seed: int = 0):
        self.problem = source if isinstance(source, ProblemSpec) else None
        self.handle = source if self.problem is None else source.manifold
        self.seed = seed

    def at(self, x: Vector, tag: str = "") -> "_PointView":
        return _PointView(self, x, tag)

    @functools.cached_property
    def start(self) -> Vector:
        """The Lanczos norm's first vector, fixed by ``(n, seed)``."""
        n = self.handle.n
        start = np.random.default_rng((n, self.seed)).standard_normal(n)
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
        return float(np.max(_Reader.singular_values(S)[:, 0])) if S.size else 0.0


class _PointView:
    """The checked reads of one point x, each made at most once
    (``_Reader``): the values ``c``, ``u``, ``v`` and ``g`` = grad f, the
    dense ``jc_dense`` = Jc and its stack ``jc``, the dense ``ju`` and
    ``jv``, the handle's ``state`` at x, its ``ax`` = A(x) and ``jat`` =
    J_A^T, and ``image``, the view at A(x).  x must not change while its
    view is in use."""

    def __init__(self, reader: _Reader, x: Vector, tag: str = ""):
        self.read, self.tag = reader, tag
        self.problem, self.handle = reader.problem, reader.handle
        self.x = _check_point(x, self.handle.n, tag or "x")

    def _name(self, what: str) -> str:
        return f"{what} at {self.tag}" if self.tag else what

    def _vector(self, value: Vector, size: int, what: str) -> Vector:
        return _check_point(value, size, self._name(what))

    def _columns(self, action, count: int, what: str) -> Vector:
        return _dense_columns(action, self.x, count, self.handle.n,
                              self._name(what))

    @functools.cached_property
    def c(self) -> Vector:
        return self._vector(self.handle.eval_c(self.x), self.handle.p,
                            "eval_c")

    @functools.cached_property
    def u(self) -> Vector:
        return self._vector(self.problem.eval_u(self.x), self.problem.n_eq,
                            "eval_u")

    @functools.cached_property
    def v(self) -> Vector:
        return self._vector(self.problem.eval_v(self.x),
                            self.problem.n_ineq, "eval_v")

    @functools.cached_property
    def g(self) -> Vector:
        return self._vector(self.problem.grad_f(self.x), self.problem.n,
                            "grad_f")

    @functools.cached_property
    def feasibility(self) -> float:
        """||u(x)|| + ||c(x)|| + ||max(v(x), 0)||."""
        return (float(np.linalg.norm(self.u)) + float(np.linalg.norm(self.c))
                + float(np.linalg.norm(np.maximum(self.v, 0.0))))

    @functools.cached_property
    def jc_dense(self) -> Vector:
        return _check_read(self.handle.jacobian(self.x),
                           (self.handle.n, self.handle.p),
                           self._name("jacobian"))

    @functools.cached_property
    def jc(self) -> Vector:
        """Jc(x) as its stack: without ``row_blocks`` ``jc_dense``."""
        if self.handle.row_blocks is None:
            return self.jc_dense[None]
        m, q = self.handle.row_blocks
        return self._vector(self.handle.apply_Jc(self.x, np.ones(m)),
                            m * q, "apply_Jc").reshape(m, q, 1)

    @functools.cached_property
    def ju(self) -> Vector:
        return self._columns(self.problem.apply_Ju, self.problem.n_eq,
                             "apply_Ju")

    @functools.cached_property
    def jv(self) -> Vector:
        return self._columns(self.problem.apply_Jv, self.problem.n_ineq,
                             "apply_Jv")

    @functools.cached_property
    def state(self):
        return self.handle.point(self.x)

    @functools.cached_property
    def ax(self) -> Vector:
        return self._vector(self.state.ax, self.handle.n, "eval_A")

    @functools.cached_property
    def image(self) -> "_PointView":
        return self.read.at(self.ax)

    @functools.cached_property
    def jat(self) -> Vector | _JatOperator:
        if self.handle.row_blocks is not None:
            m, q = self.handle.row_blocks
            # Row j of tile(I_q, m) is tile(e_j, m).
            return self.jat_times(np.tile(np.eye(q), m).T.reshape(m, q, q))
        return _JatOperator(self.state.jat, self.state.ja, self.read.start)

    def jat_times(self, S: Vector) -> Vector:
        """J_A^T(x) S, for an (m, q, k) stack S of q x k blocks, as its
        stack: the state's ``jat`` of each column of S."""
        m, q, k = S.shape
        cols = [self._vector(self.state.jat(col), m * q, "apply_JAT")
                for col in S.reshape(m * q, k).T]
        return np.array(cols).reshape(k, m * q).T.reshape(m, q, k)

    def adjoint_gap(self, d: Vector, g: Vector) -> float:
        """<J_A d, g> - <d, J_A^T g> at x."""
        what = "Jacobian action"
        ja, jat = (self._vector(value, self.handle.n, what)
                   for value in (self.state.ja(d), self.state.jat(g)))
        return _check_read(float(np.dot(ja, g)) - float(np.dot(d, jat)), (),
                           self._name(what))


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
    spectral norm of J_A^T(x) Jc(x), and the adjointness error ``|<J_A d,
    g> - <d, J_A^T g>| / (||d|| ||g||)`` of the forward and transposed
    actions for random d, g.  All three read one ``_Reader`` view of the
    probe, tagged ``probe k``, and so one state ``handle.point(x)``.  Jc
    comes from one ``apply_Jc`` action per probe on a ``row_blocks``
    handle, else from one ``jacobian`` read.  Each must be within ``tol``
    (finite and > 0, else ``ParameterError``) for the report to pass.  A
    probe that ``a_infinity`` cannot project is skipped with a note.
    """
    if not 0 < tol < np.inf:
        raise ParameterError(f"tol must be finite and positive, got {tol}")
    read = _Reader(handle)
    max_fix = max_prod = max_adj = 0.0
    notes: list[str] = []
    used = 0
    rng = np.random.default_rng((handle.n, handle.p))  # d and g, per probe
    for k, probe in enumerate(probes):
        at = read.at(probe, f"probe {k}")
        if float(np.linalg.norm(at.c)) > FEASIBILITY_TOL:
            try:
                x = a_infinity(handle, at.x, tol=FEASIBILITY_TOL)
            except OutOfNeighborhoodError as exc:
                notes.append(f"probe {k} skipped: {exc}")
                continue
            at = read.at(x, f"probe {k}")
        max_fix = max(max_fix, float(np.max(np.abs(at.ax - at.x),
                                            initial=0.0)))
        max_prod = max(max_prod, read.norm(at.jat_times(at.jc)))
        d, g = rng.standard_normal((2, handle.n))
        max_adj = max(max_adj, abs(at.adjoint_gap(d, g))
                      / float(np.linalg.norm(d) * np.linalg.norm(g)))
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
