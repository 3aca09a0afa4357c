"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line directly to the terminal (bypassing
capture) so the criterion outcomes are visible in any pytest run.
"""

import time

import numpy as np
import pytest

from cdpkit.core import (
    MultiplierSet,
    PenaltyParams,
    default_fd_step,
    finite_diff_check,
    gradient_action,
)
from cdpkit.bench import (
    BalancedCutConfig,
    CenterOfMassConfig,
    build_balanced_cut_cdp,
    gen_balanced_cut,
    gen_center_of_mass,
    records_to_markdown,
    run_experiment,
)
from cdpkit.diagnostics import (
    check_condition,
    estimate_constants,
    kkt_residual,
    make_synthetic_kkt,
    validate_manifold,
)
from cdpkit.dissolve import a_infinity, build_cdp, lagrangian_decrease_probe
from cdpkit.manifolds import make_handle, symplectic_canonical_point
from cdpkit.solver import alm_solve_cdp, alm_solve_nlp_direct

from conftest import (
    feasibility_decrease_slope,
    linear_objective_sphere_problem,
    near_manifold_points,
    sphere_constraint_spec,
)


@pytest.fixture
def announce(capsys):
    def _announce(num: int, name: str, ok: bool, detail: str):
        with capsys.disabled():
            print(f"\nACCEPTANCE {num} ({name}): "
                  f"{'PASS' if ok else 'FAIL'} — {detail}")
        assert ok, f"criterion {num} failed: {detail}"

    return _announce


def _acceptance_handles():
    sym = make_handle("symplectic_stiefel", m=20, q=4)
    return {
        "oblique": (make_handle("oblique", m=100, q=10), None, 0.1),
        "sphere": (make_handle("sphere", n=50), None, 0.1),
        "symplectic_stiefel": (sym,
                               symplectic_canonical_point(20, 4).ravel(),
                               0.03),
        "generic_on_sphere": (
            make_handle("generic", spec=sphere_constraint_spec(50)), None,
            0.1),
    }


def _base_point(handle, given, seed=0):
    if given is not None:
        return given
    if handle.row_blocks is not None:
        m, q = handle.row_blocks
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, q))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        return X.ravel()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(handle.n)
    return x / np.linalg.norm(x)


def test_criterion_01_operator_axioms(announce):
    t0 = time.perf_counter()
    worst = {}
    ok = True
    for name, (handle, base, scale) in _acceptance_handles().items():
        x = _base_point(handle, base)
        probes = near_manifold_points(handle, x, 100, scale, seed=1)
        report = validate_manifold(handle, probes, tol=1e-8)
        worst[name] = max(report.max_fixed_point_error,
                          report.max_jacobian_product_norm)
        ok = ok and report.passed and report.probes_used >= 90
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    announce(1, "operator axioms", ok,
             f"worst residuals {worst}, {elapsed:.1f}s")


def test_criterion_02_quadratic_feasibility_decrease(announce):
    t0 = time.perf_counter()
    slopes = {}
    for name, (handle, base, _) in _acceptance_handles().items():
        x = _base_point(handle, base)
        rng = np.random.default_rng(2)
        slopes[name] = feasibility_decrease_slope(
            handle, x, rng.standard_normal(handle.n))
    elapsed = time.perf_counter() - t0
    ok = all(1.85 <= s <= 2.15 for s in slopes.values()) and elapsed < 5.0
    announce(2, "quadratic feasibility decrease", ok,
             f"slopes {({k: round(v, 3) for k, v in slopes.items()})}, "
             f"{elapsed:.1f}s")


def test_criterion_03_gradient_formulas(announce):
    t0 = time.perf_counter()
    worst = 0.0
    com, _ = gen_center_of_mass(CenterOfMassConfig(m=8, q=2, N=10, r=0.1,
                                                   seed=3))
    cut, _ = gen_balanced_cut(BalancedCutConfig(m=20, q=2, rho=0.2, seed=3))
    for problem in (com, cut):
        inst = build_cdp(problem, PenaltyParams(
            beta=1.0, tau=0.5 * np.ones(problem.n_eq),
            gamma=0.25 * np.ones(problem.n_ineq)))
        rng = np.random.default_rng(5)
        base = _base_point(problem.manifold,
                           symplectic_canonical_point(8, 2).ravel()
                           if problem is com else None)
        for _ in range(20):
            x = base + 0.2 * rng.standard_normal(problem.n)
            step = default_fd_step(x)
            worst = max(worst, finite_diff_check(
                lambda y: inst.point_eval(y).h,
                gradient_action(lambda y: inst.point_eval(y).weighted_grad()),
                x, step, n_directions=3))
            for i in range(problem.n_eq):
                worst = max(worst, finite_diff_check(
                    lambda y, i=i: inst.point_eval(y).u_tilde[i],
                    gradient_action(lambda y, i=i: inst.point_eval(
                        y).weighted_grad(w_f=0.0, a=np.eye(problem.n_eq)[i])),
                    x, step, n_directions=3))
            for j in range(problem.n_ineq):
                worst = max(worst, finite_diff_check(
                    lambda y, j=j: inst.point_eval(y).v_tilde[j],
                    gradient_action(lambda y, j=j: inst.point_eval(
                        y).weighted_grad(w_f=0.0, b=np.eye(problem.n_ineq)[j])),
                    x, step, n_directions=3))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    announce(3, "transformed gradient formulas", ok,
             f"worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_kkt_oracle(announce):
    t0 = time.perf_counter()
    worst_resid = 0.0
    worst_mult = 0.0
    for seed in range(25):
        problem, x_star, planted = make_synthetic_kkt(seed=seed)
        report = kkt_residual(problem, x_star)
        worst_resid = max(worst_resid, report.stationarity)
        worst_mult = max(
            worst_mult,
            float(np.max(np.abs(report.multipliers.rho - planted.rho))),
            float(np.max(np.abs(report.multipliers.lam - planted.lam))),
            float(np.max(np.abs(report.multipliers.mu - planted.mu))))
    elapsed = time.perf_counter() - t0
    ok = worst_resid <= 1e-8 and worst_mult <= 1e-6 and elapsed < 5.0
    announce(4, "planted KKT oracle", ok,
             f"max residual {worst_resid:.2e}, max multiplier error "
             f"{worst_mult:.2e}, {elapsed:.1f}s")


def _run_center_of_mass_desk():
    problem, s_star = gen_center_of_mass(
        CenterOfMassConfig(m=20, q=4, N=100, r=0.01, seed=1))
    inst = build_cdp(problem, PenaltyParams(beta=1.0))
    t0 = time.perf_counter()
    res = alm_solve_cdp(inst, s_star)
    return res, time.perf_counter() - t0


def _run_balanced_cut_desk():
    problem, x0 = gen_balanced_cut(BalancedCutConfig(m=50, q=2, rho=0.1,
                                                     seed=7))
    inst = build_balanced_cut_cdp(problem)
    t0 = time.perf_counter()
    cdp = alm_solve_cdp(inst, x0)
    nlp = alm_solve_nlp_direct(problem, x0)
    return cdp, nlp, time.perf_counter() - t0


@pytest.fixture(scope="module")
def center_of_mass_run():
    return _run_center_of_mass_desk()


@pytest.fixture(scope="module")
def balanced_cut_run():
    return _run_balanced_cut_desk()


def test_criterion_05_equivalence_transfer(announce, center_of_mass_run):
    res, elapsed = center_of_mass_run
    ok = (res.status == "converged"
          and res.kkt.feasibility <= 1e-6
          and res.kkt.stationarity <= 1e-5
          and elapsed < 60.0)
    announce(5, "equivalence transfer on the center-of-mass instance", ok,
             f"status {res.status}, feasibility {res.kkt.feasibility:.2e}, "
             f"stationarity {res.kkt.stationarity:.2e}, {elapsed:.1f}s")


def test_criterion_06_cross_pipeline_agreement(announce, balanced_cut_run):
    cdp, nlp, elapsed = balanced_cut_run
    rel = abs(cdp.objective - nlp.objective) / max(abs(nlp.objective), 1.0)
    ok = (cdp.status == "converged" and nlp.status == "converged"
          and rel <= 1e-4
          and cdp.kkt.feasibility <= 1e-6 and nlp.kkt.feasibility <= 1e-6
          and elapsed < 120.0)
    announce(6, "cross-pipeline agreement on the balanced-cut instance", ok,
             f"objectives {cdp.objective:.6e} / {nlp.objective:.6e} "
             f"(rel {rel:.1e}), statuses {cdp.status}/{nlp.status}, "
             f"{elapsed:.1f}s")


def test_criterion_07_lagrangian_decrease(announce):
    t0 = time.perf_counter()
    problem, s_star = gen_center_of_mass(
        CenterOfMassConfig(m=8, q=2, N=10, r=0.5, seed=1))
    est = estimate_constants(problem, s_star, radius=0.05, samples=60, seed=0)
    mult = MultiplierSet(mu=np.zeros(1))
    probe_params = PenaltyParams(beta=1.0, gamma=np.zeros(1))
    cond = check_condition(est, probe_params, mult)
    threshold = max(cond.beta_threshold, cond.coupled_threshold or 0.0)
    beta = 2.0 * 2.0 * max(threshold, 0.5)  # doubled above the safety bound
    inst = build_cdp(problem, PenaltyParams(beta=beta,
                                            gamma=np.zeros(1)))
    ok = True
    worst = np.inf
    checked = 0
    for k in range(20):
        report = lagrangian_decrease_probe(inst, s_star, mult,
                                           offsets=[1e-2, 1e-3], seed=k)
        cond_k = check_condition(estimate_constants(
            problem, s_star, radius=0.05, samples=40, seed=k),
            inst.params, mult)
        ok = ok and report.passed and cond_k.coupled_met
        if report.single_step_decrease:
            worst = min(worst, min(report.single_step_decrease),
                        min(report.limit_decrease))
            for dec, bound in zip(report.h_decrease,
                                  report.quarter_beta_c_sq):
                ok = ok and dec >= bound - 1e-10
            checked += len(report.offsets)
    elapsed = time.perf_counter() - t0
    ok = ok and checked >= 20 and worst >= -1e-10 and elapsed < 10.0
    announce(7, "monotone Lagrangian decrease", ok,
             f"beta {beta:.2f}, {checked} probe points, smallest decrease "
             f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_08_stationarity_lower_bound(announce):
    t0 = time.perf_counter()
    n = 20
    problem = linear_objective_sphere_problem(n, seed=8)
    beta = 1.0e4
    inst = build_cdp(problem, PenaltyParams(beta=beta))
    rng = np.random.default_rng(8)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    ok = True
    margin = np.inf
    for k in range(50):
        w = rng.standard_normal(n)
        w /= np.linalg.norm(w)
        t = 10.0 ** rng.uniform(-3, -1)
        y = x + t * w
        s = float(np.linalg.norm(y))
        # analytic constants on the sampled shell: smallest singular value
        # of the constraint Jacobian 2y and operator norm of the transposed
        # Jacobian of the dissolving map at radius s
        sigma = 2.0 * s
        M_A = max(2.0 / (s ** 2 + 1.0),
                  2.0 * abs(1.0 - s ** 2) / (s ** 2 + 1.0) ** 2)
        c_norm = abs(s ** 2 - 1.0)
        lhs = float(np.linalg.norm(inst.point_eval(y).weighted_grad()))
        rhs = sigma / (8.0 * (M_A + 1.0)) * beta * c_norm
        margin = min(margin, lhs - rhs)
        ok = ok and lhs >= rhs
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    announce(8, "stationarity lower bound on the sphere", ok,
             f"50 probes, smallest margin {margin:.3e}, {elapsed:.1f}s")


def test_criterion_09_determinism(announce, center_of_mass_run,
                                  balanced_cut_run):
    com1, _ = center_of_mass_run
    cdp1, nlp1, _ = balanced_cut_run
    com2, _ = _run_center_of_mass_desk()
    cdp2, nlp2, _ = _run_balanced_cut_desk()

    def same(a, b):
        return (a.objective == b.objective
                and [r.key_fields() for r in a.trace.rows]
                == [r.key_fields() for r in b.trace.rows])

    ok = same(com1, com2) and same(cdp1, cdp2) and same(nlp1, nlp2)
    announce(9, "bitwise determinism of the desk instances", ok,
             "objectives and traces identical across reruns" if ok
             else "rerun diverged")


def test_criterion_10_timing_ratio_table(announce, capsys):
    grid = [BalancedCutConfig(m=m, q=2, rho=0.1, seed=7)
            for m in (50, 100, 200)]
    # One untimed solve first: with OpenBLAS multithreaded, the process's
    # first solve at m=100 can pay about 1 s of one-time start-up, which
    # the table would otherwise report as that row's cdp time.
    problem, x0 = gen_balanced_cut(grid[1])
    alm_solve_cdp(build_balanced_cut_cdp(problem, beta=grid[1].beta), x0)
    records = run_experiment(grid, budget=300.0)
    by_problem = {}
    for rec in records:
        by_problem.setdefault(rec.problem_id, {})[rec.pipeline] = rec
    ratios = {pid: pair["nlp"].cpu_time / pair["cdp"].cpu_time
              for pid, pair in by_problem.items()}
    # A run that did not converge is not a time to a solution, so cdp only
    # counts as faster where both pipelines converged.
    failed = [f"{pid} {pipe} {rec.status}"
              for pid, pair in by_problem.items()
              for pipe, rec in pair.items() if rec.status != "converged"]
    faster = sum(1 for pid, v in ratios.items() if v >= 1.0
                 and all(r.status == "converged" for r in by_problem[pid].values()))
    with capsys.disabled():
        print("\n" + records_to_markdown(records))
        print("speedup (nlp time / cdp time):",
              {k: round(v, 2) for k, v in ratios.items()})
    # informational: the table is reported, the ratio is not a gate
    announce(10, "timing ratio table (informational)", True,
             f"transformed pipeline faster on {faster}/{len(ratios)} "
             "instances, counting only those where both runs converged; "
             f"not converged: {', '.join(failed) or 'none'}; see table above")
