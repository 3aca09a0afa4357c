"""Command-line entry point: validate manifolds, solve single instances,
probe penalty-theory properties, and run benchmark grids.

Each subcommand takes only the flags it reads.  ``solve`` and ``probe``
read their instance from ``--config`` or from the config fields' flags,
not both; ``--beta``, ``--tau`` and ``--gamma`` (finite, >= 0) override it.
``probe`` reads both penalty verdicts from one constant estimate, and
measures decrease apart from them.  An ``--out`` directory must exist.

Exit codes: 0 ok, 1 check, convergence or solver failure (in any ``bench``
run), 2 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import bench, diagnostics, dissolve, manifolds, solver
from .core import (
    CdpkitError,
    ConfigurationError,
    DimensionError,
    MultiplierSet,
    ParameterError,
    PenaltyParams,
    default_fd_step,
    finite_diff_check,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(args, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, default=_jsonable))
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return str(obj)


def _family(args):
    """The handle named by ``--family`` and its canonical feasible point."""
    handle = manifolds.make_handle(args.family, m=args.m, q=args.q, n=args.n or args.m)
    if args.family == "symplectic_stiefel":
        return handle, manifolds.symplectic_canonical_point(args.m, args.q).ravel()
    X = np.zeros(handle.row_blocks or (1, handle.n))
    X[:, 0] = 1.0
    return handle, X.ravel()


def _feasible_probes(base, count: int, seed: int):
    rng = np.random.default_rng(seed)
    return [base + rng.standard_normal(base.size) * 0.1 for _ in range(count)]


def cmd_validate(args) -> int:
    handle, point = _family(args)
    probes = _feasible_probes(point, args.probes, args.seed)
    report = diagnostics.validate_manifold(handle, probes, tol=args.tol)

    base = dissolve.a_infinity(handle, point)
    fd_err = finite_diff_check(
        handle.eval_c, lambda x, d: handle.jacobian(x).T @ d, base + 0.05,
        default_fd_step(base))
    slope = _decrease_slope(handle, base, args.seed)
    payload = {
        "family": handle.name,
        "max_fixed_point_error": report.max_fixed_point_error,
        "max_jacobian_product_norm": report.max_jacobian_product_norm,
        "max_adjoint_error": report.max_adjoint_error,
        "probes_used": report.probes_used,
        "constraint_fd_error": fd_err,
        "quadratic_decrease_slope": slope,
        "passed": report.passed and fd_err <= 1e-5 and 1.85 <= slope <= 2.15,
    }
    _emit(args, payload)
    return EXIT_OK if payload["passed"] else EXIT_FAIL


def _decrease_slope(handle, base, seed: int):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(handle.n)
    w /= np.linalg.norm(w)
    logs_y, logs_ay = [], []
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        y = base + t * w
        pt = handle.point(y)
        cy = np.linalg.norm(pt.cx)
        cay = np.linalg.norm(handle.eval_c(pt.ax))
        if cy > 0 and cay > 0:
            logs_y.append(np.log(cy))
            logs_ay.append(np.log(cay))
    slope, _ = np.polyfit(logs_y, logs_ay, 1)
    return float(slope)


def _config_fields():
    """Each config dataclass field once, but ``beta``: a penalty flag."""
    return dict.fromkeys(f.name for cls in bench._FAMILIES.values()
                         for f in dataclasses.fields(cls) if f.name != "beta")


def _load_from_args(args):
    """The problem, its transformed instance, the generator's suggested
    start and the config, which ``bench.problem_config`` reads from
    ``--config`` or the flags' text; ``--beta``, ``--tau`` and ``--gamma``
    override its penalty (else the family's default)."""
    given = {key: getattr(args, key) for key in ("family", *_config_fields())
             if getattr(args, key) is not None}
    if args.config:
        if given:
            raise ConfigurationError(f"--{next(iter(given))}",
                                     "cannot be combined with --config")
        doc = bench._ingest_config(Path(args.config))
    else:
        doc = {"seed": 0, **given}
    cfg = bench.problem_config(doc)
    if args.beta is not None:
        cfg = dataclasses.replace(cfg, beta=args.beta)
    problem, instance, x0 = bench._build_instance(cfg)
    if args.tau or args.gamma:
        instance = dissolve.build_cdp(problem, PenaltyParams(
            instance.params.beta, np.full(problem.n_eq, args.tau or 0.0),
            np.full(problem.n_ineq, args.gamma or 0.0)))
    return problem, instance, x0, cfg


def _out_path(args) -> Path | None:
    """``--out``, checked before any solve runs: its directory must exist,
    and it must not name a directory itself."""
    out = args.out and Path(args.out)
    if out and not out.parent.is_dir():
        raise ConfigurationError("--out", f"directory {out.parent} does not exist")
    if out and out.is_dir():
        raise ConfigurationError("--out", f"{out} is a directory")
    return out


def cmd_solve(args) -> int:
    out = _out_path(args)
    problem, instance, x0, _ = _load_from_args(args)
    opts = solver.AlmOptions(time_budget=args.budget)
    if args.pipeline == "cdp":
        res = solver.alm_solve_cdp(instance, x0, opts)
    else:
        res = solver.alm_solve_nlp_direct(problem, x0, opts)
    payload = {
        "Function value": res.objective,
        "Substationarity": res.kkt.stationarity,
        "Feasibility": res.kkt.feasibility,
        "CPU time (s)": res.wall_time,
        "status": res.status,
    }
    _emit(args, payload)
    if out:
        out.write_text(bench.csv_text(res.trace.CSV_COLUMNS, res.trace.rows))
    return EXIT_OK if res.status == "converged" else EXIT_FAIL


def cmd_probe(args) -> int:
    problem, instance, x0, cfg = _load_from_args(args)
    x_ref = dissolve.a_infinity(problem.manifold, x0)
    est = diagnostics.estimate_constants(problem, x_ref, radius=0.05,
                                         samples=args.probes, seed=cfg.seed)
    mult = MultiplierSet(lam=np.zeros(problem.n_eq),
                         mu=np.zeros(problem.n_ineq))
    cond = diagnostics.check_condition(est, instance.params, mult)
    slope = _decrease_slope(problem.manifold, x_ref, cfg.seed)
    probe = dissolve.lagrangian_decrease_probe(
        instance, x_ref, mult, offsets=[1e-2, 1e-3], seed=cfg.seed)
    payload = {
        "sigma1x": est.sigma1x,
        "epsilon_x": est.epsilon_x,
        "beta": instance.params.beta,
        "beta_threshold": cond.beta_threshold,
        "beta_met": cond.beta_met,
        "quadratic_decrease_slope": slope,
        "decrease_condition_met": cond.coupled_met,
        "decrease_passed": probe.passed,
    }
    _emit(args, payload)
    hard_ok = 1.85 <= slope <= 2.15 and (probe.passed or not cond.coupled_met)
    return EXIT_OK if hard_ok else EXIT_FAIL


def cmd_bench(args) -> int:
    out = _out_path(args)
    doc = bench._ingest_config(Path(args.grid))
    if not isinstance(doc, list):
        raise ConfigurationError("<grid>", "grid must be a list of configs")
    grid = [bench.problem_config(entry) for entry in doc]
    records = bench.run_experiment(grid, budget=args.budget)
    csv_text = bench.records_to_csv(records)
    if out:
        out.write_text(csv_text)
        out.with_suffix(".md").write_text(bench.records_to_markdown(records))
    else:
        print(csv_text)
        print(bench.records_to_markdown(records))
    return (EXIT_OK if all(rec.status == "converged" for rec in records)
            else EXIT_FAIL)


def _number(ok, what: str, kind=float):
    """argparse type: a ``kind`` for which ``ok`` holds (NaN never does)."""
    def parse(text: str):
        if not ok(value := kind(text)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid ... value"
    return parse


_positive = _number(lambda v: v > 0, "positive")
_tolerance = _number(lambda v: 0 < v < np.inf, "finite and positive")
_count = _number(lambda v: v > 0, "a positive integer", int)
_seed = _number(lambda v: v >= 0, "a non-negative integer", int)
# Checked here as well as in PenaltyParams, which never sees a --gamma on
# a family without inequalities.
_penalty = _number(lambda v: 0 <= v < np.inf, "finite and non-negative")


def _add_instance(p):
    """The instance flags of ``solve`` and ``probe``: the config fields as
    text, for ``bench.problem_config`` to cast, and the penalty flags."""
    p.add_argument("--family", choices=list(bench._FAMILIES))
    for name in _config_fields():
        p.add_argument(f"--{name}")
    p.add_argument("--beta", type=_penalty)
    p.add_argument("--tau", type=_penalty)
    p.add_argument("--gamma", type=_penalty)
    p.add_argument("--config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdpkit",
        description="constraint dissolving toolkit for manifold-constrained "
                    "nonlinear programs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check dissolving-map axioms")
    p_val.add_argument("--family", required=True,
                       choices=["oblique", "sphere", "symplectic_stiefel"])
    p_val.add_argument("--m", type=int)
    p_val.add_argument("--q", type=int)
    p_val.add_argument("--n", type=int)
    p_val.add_argument("--seed", type=_seed, default=0)
    p_val.add_argument("--probes", type=_count, default=50)
    p_val.add_argument("--tol", type=_tolerance, default=1e-8)
    p_val.add_argument("--json", action="store_true")
    p_val.set_defaults(func=cmd_validate)

    p_solve = sub.add_parser("solve", help="solve one instance")
    _add_instance(p_solve)
    p_solve.add_argument("--pipeline", choices=["cdp", "nlp"], default="cdp")
    p_solve.add_argument("--budget", type=_positive, default=1200.0)
    p_solve.add_argument("--out")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_probe = sub.add_parser("probe", help="probe penalty-theory properties")
    _add_instance(p_probe)
    p_probe.add_argument("--probes", type=_count, default=50)
    p_probe.add_argument("--json", action="store_true")
    p_probe.set_defaults(func=cmd_probe)

    p_bench = sub.add_parser("bench", help="run a benchmark grid")
    p_bench.add_argument("--grid", required=True)
    p_bench.add_argument("--budget", type=_positive, default=1200.0)
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DimensionError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CdpkitError as exc:
        # Solver-side failures: rank loss, leaving the neighbourhood,
        # non-finite evaluations, degenerate finite-difference steps.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
