"""Problem model: NLP / penalized-problem data types, evaluator contracts,
the error types and finite-difference utilities.  Configuration documents
are read in ``bench``, next to the instance generators they describe.

All evaluators work on flat float64 vectors of length ``n``.  Matrix
variables are flattened row-major; a handle whose map acts row by row declares
the matrix's ``(rows, cols)`` in ``row_blocks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable

import numpy as np

Vector = np.ndarray

__all__ = [
    "CdpkitError",
    "ConfigurationError",
    "DegenerateStepError",
    "DimensionError",
    "EvaluatorFaultError",
    "OutOfNeighborhoodError",
    "ParameterError",
    "RankDeficiencyError",
    "ManifoldHandle",
    "MultiplierSet",
    "PenaltyParams",
    "ProblemSpec",
    "SolveTrace",
    "TraceRow",
    "default_fd_step",
    "finite_diff_check",
    "gradient_action",
]


class CdpkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(CdpkitError):
    """Malformed or inconsistent problem configuration.

    Carries the dotted path of the offending field in ``path``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class EvaluatorFaultError(CdpkitError):
    """An evaluator returned a non-finite value."""


class DegenerateStepError(CdpkitError):
    """Finite-difference step underflows double precision."""


class OutOfNeighborhoodError(CdpkitError):
    """Iterated dissolving map left the operative neighborhood."""

    def __init__(self, message: str, last_violation: float = np.nan):
        self.last_violation = last_violation
        super().__init__(message)


class RankDeficiencyError(CdpkitError):
    """Constraint Jacobian is (numerically) rank deficient."""


class DimensionError(CdpkitError):
    """Inconsistent or invalid dimensions."""


class ParameterError(CdpkitError):
    """Invalid parameter values (negative penalties, bad tolerances...)."""


@dataclass(frozen=True)
class ManifoldHandle:
    """Evaluators for the manifold constraints c and the dissolving map A.

    A handle is built from eight fields, ``name``, ``n``, ``p``,
    ``row_blocks`` and:

    * ``eval_c(x) -> (p,)``            constraint residual
    * ``apply_Jc(x, w) -> (n,)``       weighted combination of constraint
                                       gradients, sum_l w_l grad c_l(x)
    * ``jacobian(x) -> (n, p)``        dense ``Jc(x)`` in one call, column
                                       l equal to ``apply_Jc(x, e_l)``;
                                       keyword-only and required.  A
                                       handle rebuilt with a new
                                       ``apply_Jc`` needs a new one.
    * ``point(x)``                     the state at x, keyword-only and
                                       required: ``ax`` = A(x), ``cx`` =
                                       c(x) bit for bit ``eval_c``,
                                       ``jat(g)``, the transposed-Jacobian
                                       action of A (the chain-rule factor
                                       in grad (f o A)(x)), and ``ja(d)``,
                                       the derivative of A along d.

    Three keyword-only reads default to None and are derived from those:
    ``eval_A(x)`` is ``point(x).ax``, ``apply_JAT(x, g)`` is
    ``point(x).jat(g)`` and ``apply_JcT(x, d)``, the derivative of c
    along d, is ``jacobian(x).T @ d``.  A value passed in is kept, and
    ``dataclasses.replace`` copies the three, so a handle rebuilt with a
    new ``point`` or ``jacobian`` keeps the reads of the old ones unless
    they are set to None.  The package reads ``eval_A`` only in
    ``dissolve._map_step``, and the other two not at all; they stay for
    ``perfbench/tracing.py``, whose ``traced_problem`` rebinds them with
    ``replace`` to count calls and whose ``microbench`` times ``eval_A``
    and ``apply_JAT``.

    A reader of several of these at one point (the transformed evaluation,
    ``validate_manifold``) holds one state, so A, c and what they share
    are evaluated once; the constant estimates hold one state per sample
    point in each pass over the samples.  x must not change while its state
    is in use.  Jc(x) w, which shares nothing with A, has one door:
    ``apply_Jc``.

    ``row_blocks``, when given, is the ``(m, q)`` of the matrix variable
    X and declares structure, not a formula: ``c_i`` and row i of ``A``
    depend only on row i of X.  Then ``Jc`` and ``J_A^T`` are block
    diagonal with one block per row, and the constant estimates in
    ``diagnostics`` read them as stacks of those blocks, through the
    handle's own actions.  For a handle without the declaration they
    bound the norms of ``J_A^T`` matrix-free, from the state's ``jat``
    and ``ja``.  A declaration with ``m * q != n`` or ``m != p`` raises
    ``DimensionError``.
    """

    name: str
    n: int
    p: int
    eval_c: Callable[[Vector], Vector]
    apply_JcT: Callable[[Vector, Vector], Vector] | None = field(
        default=None, kw_only=True)
    apply_Jc: Callable[[Vector, Vector], Vector]
    eval_A: Callable[[Vector], Vector] | None = field(default=None,
                                                      kw_only=True)
    apply_JAT: Callable[[Vector, Vector], Vector] | None = field(
        default=None, kw_only=True)
    row_blocks: tuple[int, int] | None = None
    jacobian: Callable[[Vector], Vector] = field(kw_only=True)
    point: Callable[[Vector], Any] = field(kw_only=True)

    def __post_init__(self):
        point, jacobian = self.point, self.jacobian
        for name, read in (("eval_A", lambda x: point(x).ax),
                           ("apply_JAT", lambda x, g: point(x).jat(g)),
                           ("apply_JcT", lambda x, d: jacobian(x).T @ d)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, read)
        if self.row_blocks is not None:
            m, q = self.row_blocks
            if m * q != self.n or m != self.p:
                raise DimensionError(
                    f"row_blocks {self.row_blocks} needs m * q = n = "
                    f"{self.n} and m = p = {self.p}")


def _empty_vec(x: Vector, d: Vector | None = None) -> Vector:
    """An absent constraint block's value, or its derivative along d."""
    return np.zeros(0)


def _empty_comb(x: Vector, w: Vector) -> Vector:
    return np.zeros_like(x)


@dataclass(frozen=True)
class ProblemSpec:
    """A manifold-constrained nonlinear program.

        min f(x)  s.t.  c(x) = 0 (manifold),  u(x) = 0,  v(x) <= 0

    Jacobians of u and v are exposed as actions only: ``apply_JuT(x, d)``
    is the directional derivative of u along d and ``apply_Ju(x, w)`` the
    weighted combination of constraint gradients.
    """

    manifold: ManifoldHandle
    eval_f: Callable[[Vector], float]
    grad_f: Callable[[Vector], Vector]
    n_eq: int = 0
    eval_u: Callable[[Vector], Vector] = _empty_vec
    apply_JuT: Callable[[Vector, Vector], Vector] = _empty_vec
    apply_Ju: Callable[[Vector, Vector], Vector] = _empty_comb
    n_ineq: int = 0
    eval_v: Callable[[Vector], Vector] = _empty_vec
    apply_JvT: Callable[[Vector, Vector], Vector] = _empty_vec
    apply_Jv: Callable[[Vector, Vector], Vector] = _empty_comb
    name: str = "problem"

    @property
    def n(self) -> int:
        return self.manifold.n

    @property
    def p(self) -> int:
        return self.manifold.p


@dataclass(frozen=True)
class PenaltyParams:
    """Finite, non-negative penalty parameters of the transformed problem."""

    beta: float
    tau: Vector = field(default_factory=lambda: np.zeros(0))
    gamma: Vector = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=float).ravel())
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float).ravel())
        values = np.concatenate([[self.beta], self.tau, self.gamma])
        if not np.all((values >= 0) & (values < np.inf)):
            raise ParameterError("penalty parameters must be finite, non-negative")


@dataclass
class MultiplierSet:
    """Multipliers (rho for manifold equalities, lambda for u, mu for v)."""

    rho: Vector = field(default_factory=lambda: np.zeros(0))
    lam: Vector = field(default_factory=lambda: np.zeros(0))
    mu: Vector = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float).ravel()
        self.lam = np.asarray(self.lam, dtype=float).ravel()
        self.mu = np.asarray(self.mu, dtype=float).ravel()
        if np.any(self.mu < 0):
            raise ParameterError("inequality multipliers mu must be non-negative")


@dataclass
class TraceRow:
    iteration: int
    objective: float
    feasibility: float
    stationarity: float
    beta: float
    sigma: float
    multiplier_norm: float
    wall_time: float
    note: str = ""
    inner_iterations: int = 0  # L-BFGS steps of this row's inner solve
    inner_status: str = ""  # its status; "" when the row certifies the start

    def key_fields(self) -> tuple:
        """Every field except wall time, for determinism comparisons."""
        return tuple(getattr(self, f.name) for f in fields(self)
                     if f.name != "wall_time")


@dataclass
class SolveTrace:
    rows: list[TraceRow] = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        if self.rows:
            if row.iteration <= self.rows[-1].iteration:
                raise ParameterError("trace iterations must strictly increase")
            if row.wall_time < self.rows[-1].wall_time:
                raise ParameterError("trace wall times must be nondecreasing")
        self.rows.append(row)

    # CSV column -> TraceRow field, in column order; every field has one
    CSV_COLUMNS = {"iter": "iteration", "f": "objective", "feas": "feasibility",
                   "stat": "stationarity", "beta": "beta", "sigma": "sigma",
                   "mult_norm": "multiplier_norm",
                   "inner_iter": "inner_iterations",
                   "inner_status": "inner_status", "time": "wall_time",
                   "note": "note"}


def _check_point(x: Vector, n: int, what: str = "x") -> Vector:
    """x as a flat float vector of length n, else a typed error."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != n:
        raise DimensionError(f"{what} has length {x.size}, expected {n}")
    if not np.all(np.isfinite(x)):
        raise EvaluatorFaultError(f"{what} has a non-finite entry")
    return x


def _dense_columns(apply_comb: Callable[[Vector, Vector], Vector], x: Vector,
                   count: int, n: int, what: str | None = None) -> Vector:
    """n x count matrix whose k-th column is ``apply_comb(x, e_k)``; with
    ``what``, each column is read through ``_check_point`` naming it."""
    cols = np.empty((n, count))
    eye = np.eye(count)
    for k in range(count):
        col = apply_comb(x, eye[k])
        cols[:, k] = col if what is None else _check_point(col, n, what)
    return cols


def default_fd_step(x: Vector) -> float:
    """Central-difference step 1e-6 * (1 + ||x||)."""
    return 1e-6 * (1.0 + float(np.linalg.norm(x)))


def gradient_action(grad_fn: Callable[[Vector], Vector]) -> Callable[[Vector, Vector], float]:
    """Adapt a gradient evaluator into a directional-derivative action."""

    def action(x: Vector, d: Vector) -> float:
        return float(np.dot(grad_fn(x), d))

    return action


def finite_diff_check(value_fn: Callable[[Vector], float | Vector],
                      deriv_action: Callable[[Vector, Vector], float | Vector],
                      point: Vector, step: float,
                      n_directions: int = 10, seed: int = 0) -> float:
    """Max relative mismatch between central differences and the claimed
    directional derivative over random unit directions.

    ``deriv_action(x, d)`` must return the derivative of ``value_fn`` along
    d (a scalar for scalar evaluators, a vector for vector evaluators).
    """
    x = np.asarray(point, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise EvaluatorFaultError("non-finite point")
    if step <= 0:
        raise DegenerateStepError("step must be positive")
    if step < 1e-13 * (1.0 + float(np.linalg.norm(x))):
        raise DegenerateStepError(f"step {step:.3e} underflows at this point scale")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_directions):
        d = rng.standard_normal(x.size)
        d /= np.linalg.norm(d)
        fd = (np.asarray(value_fn(x + step * d), dtype=float)
              - np.asarray(value_fn(x - step * d), dtype=float)) / (2.0 * step)
        dv = np.asarray(deriv_action(x, d), dtype=float)
        err = float(np.linalg.norm(np.atleast_1d(fd - dv)))
        scale = 1.0 + float(np.linalg.norm(np.atleast_1d(dv)))
        worst = max(worst, err / scale)
    return worst

