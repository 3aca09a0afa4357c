"""Bit-identity digests of every benchmark solve of a source checkout.

    python3 tools/solve_digests.py <checkout>

Solves each instance of every workload in ``<checkout>/BENCHMARK.json``
with both pipelines and the default ``AlmOptions()``, as the benchmark
does, and prints one line per solve, one per instance and one per
manifold family.  Two checkouts whose outputs are identical give
bitwise-equal results on the benchmark:

* a solve line holds its status, its trace's row count and two
  SHA-256s.  ``path=`` hashes the iterates: the start x0, every
  ``TraceRow.key_fields()`` but ``stationarity``, the objective, the
  bytes of ``x_final`` and ``x_postprocessed`` and the solve's own
  multipliers.  ``kkt=`` hashes the certificate: each row's
  ``stationarity`` and the final KKT report.  A change to the
  certificate's arithmetic alone shows as equal ``path=`` hashes;
* an instance line holds SHA-256s of the reprs of the beta safeguard's
  constants (``_bound_constants`` at radius 0.1, 30 samples) and of
  ``estimate_constants`` (radius 0.05, 30 samples), both around
  ``a_infinity(x0)`` with seed 0, and the safeguard's two matrix-free
  constants ``M_Ax=`` and ``L_Ax=`` in ``float.hex``, so a change to the
  bound pass shows how far they moved;
* two family lines, printed at the family's first instance: one holds a
  SHA-256 of the repr of ``validate_manifold``'s report at 10 probes,
  Gaussian with scale 0.05 (seed 0) around ``a_infinity(x0)``; the other
  a SHA-256 of the decrease fields (``PROBE_FIELDS``, read by name) of
  ``lagrangian_decrease_probe``'s report for the instance at
  ``a_infinity(x0)``, with unit multipliers, offsets 1e-1, 1e-2 and 1e-3
  and seed 0;
* at each center-of-mass instance, a ``validate gauss_newton`` and a
  ``constants gauss_newton`` line: the validate and instance lines above
  for the problem on ``make_handle("generic", spec=symplectic_spec(m,
  q))``, the Gauss-Newton map that generates the instance, where no
  benchmark solve reads it.

The checkout's ``src`` and ``perfbench`` come first on ``sys.path``, and
BLAS runs on one thread.  It takes about 17 s on one core of a 2-core
Intel Xeon host.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: with more, a BLAS
# reduction may round differently from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


def _digest(*parts) -> str:
    """SHA-256 over the parts: arrays by their bytes, anything else by its
    repr, each part followed by a separator."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


# The decrease probe's report fields that the probe line hashes.
PROBE_FIELDS = ("offsets", "single_step_decrease", "limit_decrease",
                "h_decrease", "quarter_beta_c_sq", "skipped", "passed")


def _multipliers(mult) -> tuple:
    return (mult.rho, mult.lam, mult.mu)


def solve_line(pipeline: str, problem, inst, x0) -> str:
    from cdpkit.solver import AlmOptions, alm_solve_cdp, alm_solve_nlp_direct

    if pipeline == "cdp":
        res = alm_solve_cdp(inst, x0, AlmOptions())
    else:
        res = alm_solve_nlp_direct(problem, x0, AlmOptions())
    rows = res.trace.rows
    path = _digest(
        x0, *(dataclasses.replace(row, stationarity=None).key_fields()
              for row in rows), res.objective,
        res.x_final, res.x_postprocessed, *_multipliers(res.multipliers))
    kkt = res.kkt
    cert = _digest(
        *(row.stationarity for row in rows), kkt.stationarity,
        kkt.feasibility, *_multipliers(kkt.multipliers), kkt.complementarity,
        kkt.rank_deficient)
    return f"{res.status} rows={len(rows)} path={path} kkt={cert}"


def constants_line(problem, x0) -> str:
    from cdpkit.diagnostics import _bound_constants, estimate_constants
    from cdpkit.dissolve import a_infinity

    x_ref = a_infinity(problem.manifold, x0)
    bound = _bound_constants(problem, x_ref, 0.1, 30, 0)
    est = estimate_constants(problem, x_ref, 0.05, 30, 0)
    return (f"bound {_digest(repr(bound))} estimates {_digest(repr(est))} "
            f"M_Ax={bound.M_Ax.hex()} L_Ax={bound.L_Ax.hex()}")


def validate_line(problem, x0) -> str:
    from cdpkit import validate_manifold
    from cdpkit.dissolve import a_infinity

    x_ref = a_infinity(problem.manifold, x0)
    rng = np.random.default_rng(0)
    probes = [x_ref + 0.05 * rng.standard_normal(x_ref.size)
              for _ in range(10)]
    report = validate_manifold(problem.manifold, probes, tol=1e-8)
    return f"probes_used={report.probes_used} {_digest(repr(report))}"


def probe_line(problem, inst, x0) -> str:
    from cdpkit.core import MultiplierSet
    from cdpkit.dissolve import a_infinity, lagrangian_decrease_probe

    mult = MultiplierSet(rho=np.ones(problem.p), lam=np.ones(problem.n_eq),
                         mu=np.ones(problem.n_ineq))
    report = lagrangian_decrease_probe(
        inst, a_infinity(problem.manifold, x0), mult,
        offsets=[1e-1, 1e-2, 1e-3], seed=0)
    fields = {name: getattr(report, name) for name in PROBE_FIELDS}
    return f"offsets={len(report.offsets)} {_digest(repr(fields))}"


def gauss_newton(problem, cfg):
    """The center-of-mass problem on the Gauss-Newton map of its spec."""
    from cdpkit.manifolds import make_handle, symplectic_spec

    return dataclasses.replace(problem, manifold=make_handle(
        "generic", spec=symplectic_spec(cfg.m, cfg.q)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/solve_digests.py <checkout>",
              file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]

    from cdpkit.bench import CenterOfMassConfig, _build_instance
    from workloads import configs

    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    families = set()
    for workload in (w["name"] for w in bench["workloads"]):
        for cfg in configs(workload, 0):
            problem, inst, x0 = _build_instance(cfg)
            label = f"{workload} {cfg.label()}"
            family = problem.manifold.name.partition("(")[0]
            if family not in families:
                families.add(family)
                print(f"{label} validate {family} "
                      f"{validate_line(problem, x0)}", flush=True)
                print(f"{label} probe {family} "
                      f"{probe_line(problem, inst, x0)}", flush=True)
            print(f"{label} constants {constants_line(problem, x0)}",
                  flush=True)
            if isinstance(cfg, CenterOfMassConfig):
                generic = gauss_newton(problem, cfg)
                print(f"{label} validate gauss_newton "
                      f"{validate_line(generic, x0)}", flush=True)
                print(f"{label} constants gauss_newton "
                      f"{constants_line(generic, x0)}", flush=True)
            for pipeline in ("cdp", "nlp"):
                print(f"{label} {pipeline} "
                      f"{solve_line(pipeline, problem, inst, x0)}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
