"""Problem model: NLP / penalized-problem data types, evaluator contracts,
the error types and finite-difference utilities.  Configuration documents
are read in ``bench``, next to the instance generators they describe.

All evaluators work on flat float64 vectors of length ``n``.  Matrix
variables are flattened row-major; a handle whose map acts row by row declares
the matrix's ``(rows, cols)`` in ``row_blocks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Sequence

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
    "ValidationReport",
    "default_fd_step",
    "finite_diff_check",
    "gradient_action",
    "validate_manifold",
]

FEASIBILITY_TOL = 1e-10  # absolute tolerance on ||c(x)|| for "feasible"


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

    * ``eval_c(x) -> (p,)``            constraint residual
    * ``apply_JcT(x, d) -> (p,)``      directional derivative of c along
                                       d, ``jacobian(x).T @ d``
    * ``apply_Jc(x, w) -> (n,)``       weighted combination of constraint
                                       gradients, sum_l w_l grad c_l(x)
    * ``eval_A(x) -> (n,)``            dissolving map
    * ``apply_JAT(x, g) -> (n,)``      transposed-Jacobian action of A,
                                       i.e. the chain-rule factor in
                                       grad (f o A)(x)
    * ``jacobian(x) -> (n, p)``        dense ``Jc(x)`` in one call, column
                                       l equal to ``apply_Jc(x, e_l)``;
                                       keyword-only and required.  A
                                       handle rebuilt with a new
                                       ``apply_Jc`` needs a new one, and
                                       one with a new ``jacobian`` a new
                                       ``apply_JcT``.
    * ``point(x)``                     the state at x, keyword-only and
                                       required: ``ax`` = A(x), ``cx`` =
                                       c(x) and ``jat(g)``, bit for bit
                                       ``eval_A``, ``eval_c`` and
                                       ``apply_JAT`` at x, and ``ja(d)``,
                                       the derivative of A along d.

    A reader of several of these at one point (the transformed evaluation,
    the constant estimates, ``validate_manifold``) holds one state, so A,
    c and what they share are evaluated once.  x must not change while its
    state is in use.  Jc(x) w, which shares nothing with A, has one door:
    ``apply_Jc``.  Of the five per-call fields, the package reads
    ``eval_c``, ``apply_Jc`` and, only in ``dissolve._map_step``,
    ``eval_A``; ``apply_JcT`` and ``apply_JAT`` are read by no code in it.
    All five stay for ``perfbench/tracing.py``, whose ``traced_problem``
    rebinds them with ``dataclasses.replace`` to count calls and whose
    ``microbench`` times ``eval_A`` and ``apply_JAT``.  The shipped
    handles' ``eval_A`` and ``apply_JAT`` read a new state per call; a
    rebuilt handle needs a ``point`` that agrees.

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
    apply_JcT: Callable[[Vector, Vector], Vector]
    apply_Jc: Callable[[Vector, Vector], Vector]
    eval_A: Callable[[Vector], Vector]
    apply_JAT: Callable[[Vector, Vector], Vector]
    row_blocks: tuple[int, int] | None = None
    jacobian: Callable[[Vector], Vector] = field(kw_only=True)
    point: Callable[[Vector], Any] = field(kw_only=True)

    def __post_init__(self):
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

    # CSV column -> TraceRow field, in column order
    CSV_COLUMNS = {"iter": "iteration", "f": "objective", "feas": "feasibility",
                   "stat": "stationarity", "beta": "beta", "sigma": "sigma",
                   "inner_iter": "inner_iterations",
                   "inner_status": "inner_status", "time": "wall_time"}

    def to_csv_rows(self) -> list[dict]:
        return [{col: getattr(r, name) for col, name in self.CSV_COLUMNS.items()}
                for r in self.rows]


@dataclass
class ValidationReport:
    max_fixed_point_error: float
    max_jacobian_product_norm: float
    max_adjoint_error: float
    tol: float
    probes_used: int
    passed: bool
    notes: list[str] = field(default_factory=list)


def _check_point(x: Vector, n: int, what: str = "x") -> Vector:
    """x as a flat float vector of length n, else a typed error."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != n:
        raise DimensionError(f"{what} has length {x.size}, expected {n}")
    if not np.all(np.isfinite(x)):
        raise EvaluatorFaultError(f"{what} has a non-finite entry")
    return x


def _dense_columns(apply_comb: Callable[[Vector, Vector], Vector], x: Vector,
                   count: int, n: int) -> Vector:
    """n x count matrix whose k-th column is ``apply_comb(x, e_k)``."""
    cols = np.empty((n, count))
    eye = np.eye(count)
    for k in range(count):
        cols[:, k] = apply_comb(x, eye[k])
    return cols


def validate_manifold(handle: ManifoldHandle, probes: Sequence[Vector],
                      tol: float) -> ValidationReport:
    """Check the dissolving-map axioms at (projections of) the given probes.

    At each feasible probe x the report records ``||A(x) - x||_inf``, an
    estimate of the operator norm of the product of the transposed Jacobian
    of A with the constraint Jacobian, obtained by pushing each of the p
    constraint-gradient columns through J_A^T, and the adjointness error
    ``|<J_A d, g> - <d, J_A^T g>| / (||d|| ||g||)`` of the forward and
    transposed actions for random d, g.  All three read one state
    ``handle.point(x)`` per probe, and the constraint gradients come from
    one ``handle.jacobian(x)`` read.  Each must be within ``tol`` (> 0, else
    ``ParameterError``) for the report to pass.  A probe that
    ``a_infinity`` cannot project is skipped with a note.
    """
    from .dissolve import a_infinity  # local import: dissolve builds on core

    if not tol > 0:
        raise ParameterError(f"tol must be positive, got {tol}")
    max_fix = max_prod = max_adj = 0.0
    notes: list[str] = []
    used = 0
    rng = np.random.default_rng((handle.n, handle.p))  # d and g, per probe
    for k, probe in enumerate(probes):
        x = _check_point(probe, handle.n, f"probe {k}")
        viol = float(np.linalg.norm(handle.eval_c(x)))
        if not np.isfinite(viol):
            raise EvaluatorFaultError(f"eval_c non-finite at probe {k}")
        if viol > FEASIBILITY_TOL:
            try:
                x = a_infinity(handle, x, tol=FEASIBILITY_TOL)
            except OutOfNeighborhoodError as exc:
                notes.append(f"probe {k} skipped: {exc}")
                continue
        pt = handle.point(x)
        if not np.all(np.isfinite(pt.ax)):
            raise EvaluatorFaultError(f"eval_A non-finite at probe {k}")
        max_fix = max(max_fix, float(np.max(np.abs(pt.ax - x), initial=0.0)))
        cols = np.array([pt.jat(col) for col in handle.jacobian(x).T]).T
        if not np.all(np.isfinite(cols)):
            raise EvaluatorFaultError(f"Jacobian action non-finite at probe {k}")
        if handle.p > 0:
            max_prod = max(max_prod, float(np.linalg.norm(cols, 2)))
        d, g = rng.standard_normal((2, handle.n))
        gap = float(np.dot(pt.ja(d), g)) - float(np.dot(d, pt.jat(g)))
        if not np.isfinite(gap):
            raise EvaluatorFaultError(f"Jacobian action non-finite at probe {k}")
        max_adj = max(max_adj, abs(gap) / float(np.linalg.norm(d)
                                                * np.linalg.norm(g)))
        used += 1
    passed = (used > 0 and max_fix <= tol and max_prod <= tol
              and max_adj <= tol)
    return ValidationReport(max_fix, max_prod, max_adj, tol, used, passed,
                            notes)


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

