"""Time-to-certified-KKT benchmark for the dissolved (``cdp``) and direct
(``nlp``) pipelines of cdpkit.

    python3 perfbench/run.py --workload cut-m200 --seed 0 --seconds 38 --trace 0

Run from the root of a source checkout; cdpkit is imported from ``src``.
Every workload solves its instances with both pipelines from the same
start with the default ``AlmOptions()``, one solve at a time, and rechecks
each result independently (``recheck.py``).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
and the tracing overhead.  Times are rescaled to a reference host speed
(``clock.py``); the rows show the plain wall times too.  ``--workload all``
runs every workload in turn, each in its own process.  The last line of
standard output is one JSON object; the per-instance rows, the environment
and, when traced, the spans are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported, so that the load is
# a single process on a single core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from clock import SpeedClock  # noqa: E402

CLOCK = SpeedClock()

PIPELINES = ("cdp", "nlp")
WORKLOAD_NAMES = ("cut-m200", "com-m40q10", "cut-m50")
# Layer metrics that only the dissolved pipeline can produce.
CDP_ONLY = {"manifolds.apply_JAT.us", "dissolve.point_eval.calls",
            "dissolve.point_eval.self_s", "dissolve.point_eval.us",
            "dissolve.weighted_grad.calls", "dissolve.weighted_grad.self_s",
            "dissolve.weighted_grad.us", "dissolve.build_cdp.calls",
            "solver.beta_final", "solver.beta_adaptations"}
# `core` (types, config, validate_manifold) is not on the solve path and
# `cli` is not exercised: both are covered only through setup_s.


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    ref_file = ROOT / ".git" / name
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(workload: str, seed: int, configs) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "workload_seed": seed,
        "instance_seeds": [cfg.seed for cfg in configs],
        "git_commit": _git_commit(),
    }


@contextmanager
def counting_inner_iterations(totals: dict):
    """Add each ``lbfgs_minimize`` call's iteration count to
    ``totals["inner"]`` (one wrapper per inner solve, not per evaluation)."""
    import cdpkit.solver as solver

    original = solver.lbfgs_minimize

    def lbfgs(*args, **kwargs):
        res = original(*args, **kwargs)
        totals["inner"] += res.iterations
        return res

    solver.lbfgs_minimize = lbfgs
    try:
        yield
    finally:
        solver.lbfgs_minimize = original


def timed_solve(pipeline: str, inst, opts):
    """Solve once; return the result, its inner iterations, its wall time
    and its time at the reference host speed (``clock.py``)."""
    from cdpkit.solver import alm_solve_cdp, alm_solve_nlp_direct

    solve, target = ((alm_solve_cdp, inst.cdp) if pipeline == "cdp"
                     else (alm_solve_nlp_direct, inst.problem))
    inner = {"inner": 0}
    with counting_inner_iterations(inner):
        res, wall_s, ref_s = CLOCK.time(solve, target, inst.x0, opts)
    return res, inner["inner"], wall_s, ref_s


def make_row(inst, pipeline, res, inner, wall_s, ref_s, samples, opts) -> dict:
    from recheck import recheck

    chk = recheck(inst, res.x_postprocessed, opts)
    return {
        "problem": inst.label, "pipeline": pipeline, "status": res.status,
        "certified": res.status == "converged" and chk.passed,
        "wall_s": wall_s, "ref_s": ref_s, "samples": samples,
        "objective": res.objective,
        "stationarity": res.kkt.stationarity, "feasibility": res.kkt.feasibility,
        "recheck_stationarity": chk.stationarity,
        "recheck_feasibility": chk.feasibility,
        "outer": len(res.trace.rows), "inner": inner,
        "beta_final": res.trace.rows[-1].beta if res.trace.rows else 0.0,
    }


def print_rows(rows: list[dict]) -> None:
    print(f"{'problem':<58} {'pipe':<4} {'status':<14} {'cert':<5} "
          f"{'wall_s':>8} {'ref_s':>8} {'n':>4} {'objective':>14} "
          f"{'stat':>9} {'feas':>9} "
          f"{'re_stat':>9} {'re_feas':>9} {'outer':>5} {'inner':>6}")
    for r in rows:
        print(f"{r['problem']:<58} {r['pipeline']:<4} {r['status']:<14} "
              f"{str(r['certified']):<5} {r['wall_s']:>8.3f} {r['ref_s']:>8.3f} "
              f"{r['samples']:>4d} {r['objective']:>14.6f} "
              f"{r['stationarity']:>9.2e} {r['feasibility']:>9.2e} "
              f"{r['recheck_stationarity']:>9.2e} {r['recheck_feasibility']:>9.2e} "
              f"{r['outer']:>5d} {r['inner']:>6d}")


def check(instances, rows, opts, seed) -> tuple[bool, list[str]]:
    """Whether every reported outcome holds up: a ``converged`` status the
    recheck rejects is an error, named; so is a recheck that cannot tell a
    certified point from a perturbed one."""
    from recheck import self_test

    errors = [f"recheck rejects converged {r['pipeline']} solve of {r['problem']}"
              for r in rows if r["status"] == "converged" and not r["certified"]]
    by_label = {inst.label: inst for inst in instances}
    certified = [r for r in rows if r["certified"]]
    if certified:
        r = certified[0]
        if not self_test(by_label[r["problem"]], r["x"], opts, seed):
            errors.append(f"recheck self-test failed on {r['problem']}")
    return not errors, errors


def obj_match(rows: list[dict]) -> tuple[float, list[float]]:
    """1 - mean over instances certified by both pipelines of
    max(0, f_cdp - f_best) / max(1, |f_best|); 0 when there are none."""
    pairs: dict[str, dict] = {}
    for r in rows:
        if r["certified"]:
            pairs.setdefault(r["problem"], {})[r["pipeline"]] = r["objective"]
    excess = []
    for pair in pairs.values():
        if len(pair) == 2:
            best = min(pair.values())
            excess.append(max(0.0, pair["cdp"] - best) / max(1.0, abs(best)))
    return (1.0 - statistics.fmean(excess) if excess else 0.0), excess


def end_to_end(rows, setup_s) -> dict:
    # Median, not total, per-solve time: one cut-m50 instance in about fifty
    # runs 100 outer iterations to max_iter, and a total would swing with it.
    # Failed solves count as samples; the failure itself shows in *_ok_frac.
    # Times are at the reference host speed (clock.py).
    m = {"setup_s": (setup_s, "s")}
    for p in PIPELINES:
        mine = [r for r in rows if r["pipeline"] == p]
        m[f"{p}_solve_s"] = (statistics.median(r["ref_s"] for r in mine), "s")
        m[f"{p}_ok_frac"] = (sum(r["certified"] for r in mine) / len(mine), "ratio")
    m["cdp_obj_match"] = (obj_match(rows)[0], "ratio")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m


def layer_metrics(T, rows, micro, gen_s, n_instances, overhead) -> dict:
    m = {}
    for p in PIPELINES:
        counts = T.counts[p]
        mine = [r for r in rows if r["pipeline"] == p]
        inner = counts["solver.inner_iters"]
        vals = {
            **{f"manifolds.{fn}.{k}": (T.calls(p, f"manifolds.{fn}") if k == "calls"
                                       else T.busy(p, f"manifolds.{fn}"),
                                       "count" if k == "calls" else "s")
               for fn in ("eval_A", "apply_JAT", "apply_Jc") for k in ("calls", "busy_s")},
            "manifolds.eval_A.us": (micro["manifolds.eval_A.us"], "us"),
            "manifolds.apply_JAT.us": (micro["manifolds.apply_JAT.us"], "us"),
            "dissolve.point_eval.calls": (T.calls(p, "dissolve.point_eval"), "count"),
            "dissolve.point_eval.self_s": (T.self_time(p, "dissolve.point_eval"), "s"),
            "dissolve.point_eval.us": (micro["dissolve.point_eval.us"], "us"),
            "dissolve.weighted_grad.calls": (T.calls(p, "dissolve.weighted_grad"), "count"),
            "dissolve.weighted_grad.self_s": (T.self_time(p, "dissolve.weighted_grad"), "s"),
            "dissolve.weighted_grad.us": (micro["dissolve.weighted_grad.us"], "us"),
            "dissolve.a_infinity.calls": (T.calls(p, "dissolve.a_infinity"), "count"),
            "dissolve.a_infinity.busy_s": (T.busy(p, "dissolve.a_infinity"), "s"),
            "dissolve.a_infinity.maps": (counts["dissolve.a_infinity.maps"], "count"),
            "dissolve.a_infinity.failures": (counts["dissolve.a_infinity.failures"], "count"),
            "dissolve.build_cdp.calls": (n_instances + counts["solver.beta_adaptations"], "count"),
            "solver.outer_iters": (sum(r["outer"] for r in mine), "count"),
            "solver.inner_iters": (inner, "count"),
            "solver.lbfgs.calls": (T.calls(p, "solver.lbfgs"), "count"),
            "solver.lbfgs.self_s": (T.self_time(p, "solver.lbfgs"), "s"),
            "solver.fg_evals": (counts["solver.fg_evals"], "count"),
            "solver.evals_per_iter": (counts["solver.fg_evals"] / inner if inner else 0.0, "ratio"),
            "solver.line_search_failures": (counts["solver.line_search_failures"], "count"),
            "solver.alm.self_s": (T.self_time(p, "solver.alm"), "s"),
            "solver.beta_final": (max(r["beta_final"] for r in mine), "1"),
            "solver.beta_adaptations": (counts["solver.beta_adaptations"], "count"),
            "diagnostics.kkt_residual.calls": (T.calls(p, "diagnostics.kkt_residual"), "count"),
            "diagnostics.kkt_residual.busy_s": (T.busy(p, "diagnostics.kkt_residual"), "s"),
            "diagnostics.kkt_residual.us": (micro["diagnostics.kkt_residual.us"], "us"),
            "diagnostics.estimate_constants.calls": (
                T.calls(p, "diagnostics.estimate_constants"), "count"),
            "diagnostics.estimate_constants.busy_s": (
                T.busy(p, "diagnostics.estimate_constants"), "s"),
            "bench.eval_f.calls": (T.calls(p, "bench.eval_f"), "count"),
            "bench.grad_f.calls": (T.calls(p, "bench.grad_f"), "count"),
            "bench.objective.busy_s": (T.busy(p, "bench.eval_f") + T.busy(p, "bench.grad_f"), "s"),
            "bench.constraints.busy_s": (T.busy(p, "bench.constraints"), "s"),
            "bench.generate_s": (gen_s, "s"),
            "trace.overhead_s": (overhead[p], "s"),
        }
        for name, v in vals.items():
            if p == "cdp" or name not in CDP_ONLY:
                m[f"{p}.{name}"] = v
    return m


def untraced_loop(instances, opts, seconds: float):
    """Closed loop: one pass over the instances, then, until ``seconds``
    have passed, the solve with the least time spent on it so far among
    those whose last time still fits.

    Every solve thus gets about the same share of the run, and a short
    solve is timed many times.  Each solve's time is the median of its
    samples.  The solver is deterministic; the first result of each solve
    is the one reported.
    """
    deadline = time.perf_counter() + seconds
    first, wall, ref, spent, last = {}, {}, {}, {}, {}
    keys = [(i, p) for i in range(len(instances)) for p in PIPELINES]
    todo = list(keys)
    while todo:
        key = min(todo, key=lambda k: spent.get(k, 0.0))
        t0 = time.perf_counter()
        res, inner, wall_s, ref_s = timed_solve(key[1], instances[key[0]], opts)
        now = time.perf_counter()
        # Elapsed time, sampling included, is what the deadline is kept in.
        last[key] = now - t0
        spent[key] = spent.get(key, 0.0) + last[key]
        first.setdefault(key, (res, inner))
        wall.setdefault(key, []).append(wall_s)
        ref.setdefault(key, []).append(ref_s)
        todo = [k for k in keys if k not in wall] or [
            k for k in keys if now + last[k] <= deadline]
    return [(instances[i], p, res, inner, statistics.median(wall[i, p]),
             statistics.median(ref[i, p]), len(ref[i, p]))
            for (i, p), (res, inner) in first.items()]


def traced_loop(instances, opts, tracer, ref: dict):
    """Each solve untraced, then traced; adds both times at the reference
    host speed to ``ref`` and returns the traced solves."""
    solves = []
    for i, inst in enumerate(instances):
        for p in PIPELINES:
            res, inner, _, ref_s = timed_solve(p, inst, opts)
            ref[p] += ref_s
            with tracer.installed():
                res, wall_s, ref_s = CLOCK.time(tracer.solve, p, inst, i)
            ref[p + "_traced"] += ref_s
            solves.append((inst, p, res, inner, wall_s, ref_s, 1))
    return solves


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from cdpkit.solver import AlmOptions
    from tracing import Tracer, microbench
    from workloads import configs, setup

    opts = AlmOptions()
    cfgs = configs(workload, seed)
    env = environment(workload, seed, cfgs)
    instances, setup_times, gen_times = setup(cfgs, CLOCK)

    tracer = Tracer()
    ref = {key: 0.0 for key in ("cdp", "nlp", "cdp_traced", "nlp_traced")}
    if trace:
        micro = microbench(instances[0], seed)
        solves = traced_loop(instances, opts, tracer, ref)
    else:
        solves = untraced_loop(instances, opts, seconds)
        # Set up again at the end, so that set-up time is sampled at two
        # moments of the run, like the solves.
        _, more_setup, more_gen = setup(cfgs, CLOCK)
        setup_times += more_setup
        gen_times += more_gen
    rows = [{**make_row(inst, p, res, inner, wall_s, ref_s, n, opts),
             "x": res.x_postprocessed}
            for inst, p, res, inner, wall_s, ref_s, n in solves]

    correct, errors = check(instances, rows, opts, seed)
    failed = sum(not r["certified"] for r in rows)
    if trace:
        overhead = {p: ref[p + "_traced"] - ref[p] for p in PIPELINES}
        metrics = layer_metrics(tracer, rows, micro, statistics.median(gen_times),
                                len(instances), overhead)
    else:
        metrics = end_to_end(rows, statistics.median(setup_times))
    for r in rows:
        del r["x"]
    return {
        "env": env, "rows": rows, "errors": errors, "correct": correct,
        "attempted": len(rows), "failed": failed,
        "obj_excess": obj_match(rows)[1],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": tracer.spans,
    }


def report(out: dict, trace: bool) -> None:
    print("environment: " + json.dumps(out["env"]))
    print_rows(out["rows"])
    for e in out["errors"]:
        print("FAILURE: " + e)
    for r in out["rows"]:
        if not r["certified"]:
            print(f"not certified: {r['pipeline']} {r['problem']} status={r['status']}")
    excess = out["obj_excess"]
    print(f"cdp_obj_excess (mean over {len(excess)} instances certified by both): "
          f"{statistics.fmean(excess) if excess else float('nan'):.6g}")
    for p in PIPELINES:
        mine = [r for r in out["rows"] if r["pipeline"] == p]
        print(f"{p} solve time summed over instances: "
              f"{sum(r['ref_s'] for r in mine):.3f} s at the reference host speed, "
              f"{sum(r['wall_s'] for r in mine):.3f} s wall")
    print(f"failed/attempted: {out['failed']}/{out['attempted']}")
    for name, m in out["metrics"].items():
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']}")
    env = out["env"]
    dest = HERE / "out"
    dest.mkdir(exist_ok=True)
    path = dest / f"{env['workload']}-seed{env['workload_seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(out, indent=1, default=float))
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            print(f"== {name}", flush=True)
            if subprocess.run(cmd, check=False).returncode:
                return 1
        return 0
    if not (ROOT / "src" / "cdpkit" / "__init__.py").is_file():
        print(f"cdpkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(out, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
