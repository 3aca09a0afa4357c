"""Benchmark generators and grid runner: center-of-mass on the symplectic
Stiefel manifold and minimum balanced cut on the oblique manifold, with
CSV / markdown emission comparing the dissolved and direct pipelines.

Every configuration document (a mapping, YAML text or file, a grid entry or
the CLI's instance flags) goes through ``problem_config``, whose schema is
the config dataclasses.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .core import (
    ConfigurationError,
    DimensionError,
    OutOfNeighborhoodError,
    ParameterError,
    PenaltyParams,
    ProblemSpec,
    Vector,
)
from .dissolve import CdpInstance, a_infinity, build_cdp
from .manifolds import make_handle, symplectic_canonical_point, symplectic_spec
from .solver import AlmOptions, alm_solve_cdp, alm_solve_nlp_direct

__all__ = [
    "BalancedCutConfig",
    "CenterOfMassConfig",
    "RunRecord",
    "build_balanced_cut_cdp",
    "csv_text",
    "gen_balanced_cut",
    "gen_center_of_mass",
    "load_problem",
    "problem_config",
    "records_to_csv",
    "records_to_markdown",
    "run_experiment",
]


@dataclass(frozen=True)
class CenterOfMassConfig:
    m: int
    q: int
    N: int
    r: float
    seed: int
    beta: float = 1.0

    def __post_init__(self):
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.m % 2 or self.q % 2 or self.m <= 0 or self.q <= 0:
            raise DimensionError(f"m, q must be positive even, got ({self.m}, {self.q})")
        if self.q > self.m:
            raise DimensionError(f"need q <= m, got ({self.m}, {self.q})")
        if self.N < 1:
            raise ParameterError(f"N must be >= 1, got {self.N}")
        if not 0.0 < self.r < np.inf:
            raise ParameterError(f"r must be positive and finite, got {self.r}")
        if not 0.0 <= self.beta < np.inf:
            raise ParameterError(f"beta must be finite and >= 0, got {self.beta}")

    def label(self) -> str:
        return f"center_of_mass(m={self.m},q={self.q},N={self.N},r={self.r},seed={self.seed})"


@dataclass(frozen=True)
class BalancedCutConfig:
    m: int
    q: int
    rho: float
    seed: int
    beta: float = 0.1  # (beta/2)||c||^2 convention; 0.05 in the quartic one

    def __post_init__(self):
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.m < 2 or self.q <= 0:
            raise DimensionError(f"need m >= 2, q >= 1, got ({self.m}, {self.q})")
        if not 0.0 < self.rho < 1.0:
            raise ParameterError(f"rho must be in (0, 1), got {self.rho}")
        if not 0.0 <= self.beta < np.inf:
            raise ParameterError(f"beta must be finite and >= 0, got {self.beta}")

    def label(self) -> str:
        return f"balanced_cut(m={self.m},q={self.q},rho={self.rho},seed={self.seed})"


@dataclass
class RunRecord:
    problem_id: str
    pipeline: str  # "cdp" | "nlp"
    objective: float
    stationarity: float
    feasibility: float
    cpu_time: float
    status: str

    # CSV column -> RunRecord field, in column order
    CSV_COLUMNS = {"problem": "problem_id", "pipeline": "pipeline",
                   "fval": "objective", "stationarity": "stationarity",
                   "feasibility": "feasibility", "time": "cpu_time",
                   "status": "status"}


def gen_center_of_mass(cfg: CenterOfMassConfig) -> tuple[ProblemSpec, Vector]:
    """Center-of-mass instance on the symplectic Stiefel manifold.

    s* is a projected perturbation of the canonical point; the N samples
    are projected Gaussian perturbations of s*.  The single inequality is
    ||x - s*||^2 <= r and the suggested initial point is s*.

    The projections iterate the Gauss-Newton map of ``symplectic_spec``,
    which defines the instances (s*, the samples, and so f and v): the
    closed-form map lands on other manifold points, and so would move
    every instance.  The problem's handle is the closed-form map, whose
    states cost O(m q^2) where the Gauss-Newton ones cost O(n p^2).
    """
    handle = make_handle("symplectic_stiefel", m=cfg.m, q=cfg.q)
    project = make_handle("generic", spec=symplectic_spec(cfg.m, cfg.q))
    rng = np.random.default_rng(cfg.seed)
    n = handle.n

    anchor = symplectic_canonical_point(cfg.m, cfg.q).ravel()
    s_star = _perturb_project(project, anchor, 0.05, rng)

    samples = np.empty((cfg.N, n))
    for i in range(cfg.N):
        samples[i] = _perturb_project(project, s_star, 0.05, rng)
    s_bar = samples.mean(axis=0)
    # (1/N) sum ||x - s_i||^2 = ||x - s_bar||^2 + const
    const = float(np.mean(np.sum((samples - s_bar) ** 2, axis=1)))

    def eval_f(x):
        d = np.asarray(x, dtype=float).ravel() - s_bar
        return float(np.dot(d, d)) + const

    def grad_f(x):
        return 2.0 * (np.asarray(x, dtype=float).ravel() - s_bar)

    def eval_v(x):
        d = np.asarray(x, dtype=float).ravel() - s_star
        return np.array([float(np.dot(d, d)) - cfg.r])

    problem = ProblemSpec(
        manifold=handle, eval_f=eval_f, grad_f=grad_f,
        n_ineq=1,
        eval_v=eval_v,
        apply_JvT=lambda x, d: np.array(
            [2.0 * float(np.dot(np.asarray(x).ravel() - s_star, d))]),
        apply_Jv=lambda x, w: 2.0 * float(np.asarray(w).ravel()[0])
        * (np.asarray(x, dtype=float).ravel() - s_star),
        name=cfg.label())
    return problem, s_star.copy()


def _perturb_project(handle, base: Vector, delta: float, rng) -> Vector:
    for _ in range(12):
        cand = base + delta * rng.standard_normal(base.size)
        try:
            return a_infinity(handle, cand)
        except OutOfNeighborhoodError:
            delta *= 0.5
    raise OutOfNeighborhoodError("sample generation failed after retries")


def gen_balanced_cut(cfg: BalancedCutConfig) -> tuple[ProblemSpec, Vector]:
    """Balanced-cut instance: Erdos-Renyi graph Laplacian, oblique manifold,
    q linear equalities X^T e = 0, Gaussian-normalized random start."""
    rng = np.random.default_rng(cfg.seed)
    m, q = cfg.m, cfg.q
    upper = rng.random((m, m)) < cfg.rho
    A = np.triu(upper, 1)
    A = (A + A.T).astype(float)
    L = np.diag(A.sum(axis=1)) - A

    handle = make_handle("oblique", m=m, q=q)
    e = np.ones(m)

    def as_mat(x):
        return np.asarray(x, dtype=float).reshape(m, q)

    def eval_f(x):
        X = as_mat(x)
        return -0.25 * float(np.trace(X.T @ L @ X))

    def grad_f(x):
        return (-0.5 * (L @ as_mat(x))).ravel()

    problem = ProblemSpec(
        manifold=handle, eval_f=eval_f, grad_f=grad_f,
        n_eq=q,
        eval_u=lambda x: as_mat(x).T @ e,
        apply_JuT=lambda x, d: as_mat(d).T @ e,
        apply_Ju=lambda x, w: np.outer(e, np.asarray(w, dtype=float)).ravel(),
        name=cfg.label())
    object.__setattr__(problem, "_laplacian", L)

    X0 = rng.standard_normal((m, q))
    X0 /= np.linalg.norm(X0, axis=1, keepdims=True)
    return problem, X0.ravel()


def build_balanced_cut_cdp(problem: ProblemSpec,
                           beta: float = 0.1) -> CdpInstance:
    """``build_cdp(problem, PenaltyParams(beta=beta))``; it stays because
    the benchmark's perfbench/workloads.py and the tests import it."""
    return build_cdp(problem, PenaltyParams(beta=beta))


_FAMILIES = {"center_of_mass": CenterOfMassConfig,
             "balanced_cut": BalancedCutConfig}


def problem_config(doc) -> CenterOfMassConfig | BalancedCutConfig:
    """A validated ``CenterOfMassConfig`` or ``BalancedCutConfig`` from one
    mapping: ``family`` picks the class, the class's fields without a default
    are required, each value is cast by its field's annotation, and a key that
    names no field raises ``ConfigurationError("family.<key>", ...)``, as
    does a bool or a non-integral number for an ``int`` field."""
    if not isinstance(doc, dict):
        raise ConfigurationError("<document>", "config must be a key-value tree")
    family = doc.get("family")
    if family is None:
        raise ConfigurationError("family", "missing required field")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigurationError("family", f"unknown family {family!r}")
    cls = _FAMILIES[family]
    casts = typing.get_type_hints(cls)
    for key in doc:
        if key != "family" and key not in casts:
            raise ConfigurationError(f"family.{key}", "unknown field")
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING and f.name not in doc:
            raise ConfigurationError(f"family.{f.name}", "missing required field")
    for key, val in doc.items():
        if casts.get(key) is int and (isinstance(val, bool) or (
                isinstance(val, float) and not val.is_integer())):
            raise ConfigurationError(f"family.{key}",
                                     f"expected an integer, got {val!r}")
    try:
        return cls(**{key: casts[key](val) for key, val in doc.items()
                      if key != "family"})
    except (DimensionError, ParameterError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"family.{family}", str(exc)) from exc


def _ingest_config(config):
    """The document of a config given as a path to a YAML file or as a
    YAML/JSON string; any other value is returned as it is."""
    if not isinstance(config, (str, Path)):
        return config
    path = Path(config)
    try:
        is_file = isinstance(config, Path) or path.is_file()
    except OSError:  # a one-line document too long for a file name
        is_file = False
    if is_file:
        try:
            config = path.read_text()
        except OSError as exc:
            raise ConfigurationError("<document>",
                                     f"unreadable config: {exc}") from exc
    try:
        return yaml.safe_load(config)
    except yaml.YAMLError as exc:
        raise ConfigurationError("<document>", f"unparseable config: {exc}") from exc


def load_problem(config) -> ProblemSpec:
    """Build a registered benchmark problem from a configuration document.

    ``config`` may be a mapping, a YAML/JSON string, or a path to a YAML
    file.  Deterministic given identical seed.
    """
    return _build_instance(problem_config(_ingest_config(config)))[0]


def _build_instance(cfg):
    if isinstance(cfg, CenterOfMassConfig):
        problem, x0 = gen_center_of_mass(cfg)
    elif isinstance(cfg, BalancedCutConfig):
        problem, x0 = gen_balanced_cut(cfg)
    else:
        raise ParameterError(f"unknown config type {type(cfg)!r}")
    return problem, build_cdp(problem, PenaltyParams(beta=cfg.beta)), x0


def run_experiment(grid, budget: float = 1200.0) -> list[RunRecord]:
    """Run both pipelines from the same initial point on every config.

    Per-run failures are recorded in the status column and never abort the
    grid.
    """
    records: list[RunRecord] = []
    opts = AlmOptions(time_budget=budget)
    for cfg in grid:
        try:
            problem, inst, x0 = _build_instance(cfg)
        except Exception as exc:
            for pipe in ("cdp", "nlp"):
                records.append(RunRecord(getattr(cfg, "label", lambda: str(cfg))(),
                                         pipe, np.nan, np.nan, np.nan, 0.0,
                                         f"generation_error: {exc}"))
            continue
        for pipe in ("cdp", "nlp"):
            t0 = time.perf_counter()
            try:
                if pipe == "cdp":
                    res = alm_solve_cdp(inst, x0, opts)
                else:
                    res = alm_solve_nlp_direct(problem, x0, opts)
                rec = RunRecord(cfg.label(), pipe, res.objective,
                                res.kkt.stationarity, res.kkt.feasibility,
                                time.perf_counter() - t0, res.status)
            except Exception as exc:
                rec = RunRecord(cfg.label(), pipe, np.nan, np.nan, np.nan,
                                time.perf_counter() - t0, f"error: {exc}")
            records.append(rec)
    return records


def csv_text(columns: dict[str, str], rows) -> str:
    """CSV with "\n" line ends; ``columns`` maps each column to a row attribute."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([getattr(row, name) for name in columns.values()]
                     for row in rows)
    return buf.getvalue()


def records_to_csv(records: list[RunRecord]) -> str:
    return csv_text(RunRecord.CSV_COLUMNS, records)


def records_to_markdown(records: list[RunRecord]) -> str:
    """Aligned markdown table with one row per problem and the four
    reported metrics and the status of each pipeline side by side, so a
    failed run cannot read as a slow success."""
    by_problem: dict[str, dict[str, RunRecord]] = {}
    for rec in records:
        by_problem.setdefault(rec.problem_id, {})[rec.pipeline] = rec
    header = ["problem", "fval (cdp)", "fval (nlp)", "stat (cdp)",
              "stat (nlp)", "feas (cdp)", "feas (nlp)", "time (cdp)",
              "time (nlp)", "status (cdp)", "status (nlp)"]
    rows = [header]
    for pid, pair in by_problem.items():
        row = [pid]
        for key in ("objective", "stationarity", "feasibility", "cpu_time",
                    "status"):
            for pipe in ("cdp", "nlp"):
                val = "-" if pipe not in pair else getattr(pair[pipe], key)
                row.append(val if isinstance(val, str) else f"{val:.3e}")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for k, row in enumerate(rows):
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
        if k == 0:
            lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines) + "\n"
