import dataclasses

import numpy as np
import pytest

from cdpkit.core import (
    DimensionError,
    EvaluatorFaultError,
    MultiplierSet,
    OutOfNeighborhoodError,
    ParameterError,
    PenaltyParams,
    default_fd_step,
    finite_diff_check,
    gradient_action,
)
from cdpkit.bench import (
    BalancedCutConfig,
    CenterOfMassConfig,
    gen_balanced_cut,
    gen_center_of_mass,
)
from cdpkit.diagnostics import check_condition, estimate_constants
from cdpkit.dissolve import (
    CdpInstance,
    CdpPointEval,
    a_infinity,
    apply_A_k,
    build_cdp,
    cdp_lagrangian,
    lagrangian_decrease_probe,
)
from cdpkit.manifolds import (
    GenericManifoldSpec,
    make_handle,
    symplectic_canonical_point,
)
from cdpkit.solver import alm_solve_cdp

from conftest import (
    BAD_POINTS,
    bad_cut_point,
    linear_objective_sphere_problem,
    sphere_constraint_spec,
)


@pytest.fixture(scope="module")
def com_problem():
    problem, x0 = gen_center_of_mass(
        CenterOfMassConfig(m=6, q=2, N=8, r=0.5, seed=3))
    return problem, x0


def _sphere_problem_with_constraints(seed=0):
    """Sphere problem carrying one extra equality and one inequality that is
    active at e1."""
    n = 5
    handle = make_handle("sphere", n=n)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n)
    a = rng.standard_normal(n)
    from cdpkit.core import ProblemSpec
    return ProblemSpec(
        manifold=handle,
        eval_f=lambda x: float(np.dot(g, x)),
        grad_f=lambda x: g.copy(),
        n_eq=1,
        eval_u=lambda x: np.array([float(np.dot(a, x))]),
        apply_JuT=lambda x, d: np.array([float(np.dot(a, d))]),
        apply_Ju=lambda x, w: float(np.asarray(w).ravel()[0]) * a,
        n_ineq=1,
        eval_v=lambda x: np.array([x[0] - 1.0]),
        apply_JvT=lambda x, d: np.array([d[0]]),
        apply_Jv=lambda x, w: float(np.asarray(w).ravel()[0])
        * np.eye(n)[0],
        name="sphere_with_extras")


class TestBuildCdp:
    def test_feasible_point_collapses_to_original_evaluators(self):
        problem = _sphere_problem_with_constraints()
        inst = build_cdp(problem, PenaltyParams(beta=3.0, tau=np.array([2.0]),
                                                gamma=np.array([1.5])))
        x = np.zeros(5)
        x[1] = 1.0
        f = problem.eval_f(x)
        pe = inst.point_eval(x)
        assert abs(pe.h - f) <= 1e-15 * (1.0 + abs(f))
        assert np.linalg.norm(pe.u_tilde - problem.eval_u(x)) == 0.0
        assert np.linalg.norm(pe.v_tilde - problem.eval_v(x)) == 0.0

    def test_feasible_gradient_is_projected_objective_gradient(self):
        problem = _sphere_problem_with_constraints()
        inst = build_cdp(problem, PenaltyParams(beta=3.0))
        x = np.zeros(5)
        x[1] = 1.0
        expected = problem.manifold.apply_JAT(x, problem.grad_f(x))
        assert np.allclose(inst.point_eval(x).weighted_grad(), expected,
                           atol=1e-14)

    def test_zero_penalties_give_plain_composition(self):
        problem = _sphere_problem_with_constraints()
        inst = build_cdp(problem, PenaltyParams(beta=0.0))
        rng = np.random.default_rng(1)
        y = rng.standard_normal(5)
        ay = problem.manifold.eval_A(y)
        pe = inst.point_eval(y)
        assert pe.h == problem.eval_f(ay)
        assert np.array_equal(pe.u_tilde, problem.eval_u(ay))
        assert np.array_equal(pe.v_tilde, problem.eval_v(ay))

    def test_transformed_value_matches_straight_line_recomputation(self, com_problem):
        problem, _ = com_problem
        inst = build_cdp(problem, PenaltyParams(beta=1.0))
        rng = np.random.default_rng(2)
        y = rng.standard_normal(problem.n) * 0.3
        y[0] = 1.0
        handle = problem.manifold
        cy = handle.eval_c(y)
        expected = problem.eval_f(handle.eval_A(y)) + 0.5 * float(np.dot(cy, cy))
        assert inst.point_eval(y).h == pytest.approx(expected, abs=1e-12)

    def test_mismatched_penalty_dimensions_rejected(self):
        problem = _sphere_problem_with_constraints()
        with pytest.raises((ParameterError, DimensionError)):
            build_cdp(problem, PenaltyParams(beta=1.0, tau=np.ones(3)))

    def test_direct_construction_completes_the_penalty(self):
        # The constructor, not only build_cdp, fills the empty tau with
        # zeros of n_eq, so a direct instance solves as the built one does.
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=10, q=2, rho=0.3,
                                                         seed=3))
        direct = CdpInstance(problem, PenaltyParams(0.1))
        built = build_cdp(problem, PenaltyParams(0.1))
        assert np.array_equal(direct.params.tau, np.zeros(problem.n_eq))
        assert np.array_equal(direct.params.gamma, np.zeros(problem.n_ineq))
        a, b = alm_solve_cdp(direct, x0), alm_solve_cdp(built, x0)
        assert a.status == b.status == "converged"
        assert a.objective == b.objective

    def test_direct_construction_rejects_a_wrong_length_tau(self):
        problem, _ = gen_balanced_cut(BalancedCutConfig(m=10, q=2, rho=0.3,
                                                        seed=3))
        with pytest.raises(DimensionError, match="tau"):
            CdpInstance(problem, PenaltyParams(0.1, tau=np.ones(
                problem.n_eq + 1)))

    def test_gradients_match_finite_differences(self):
        problem = _sphere_problem_with_constraints()
        inst = build_cdp(problem, PenaltyParams(beta=2.0, tau=np.array([0.5]),
                                                gamma=np.array([0.25])))
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.standard_normal(5)
            x /= np.linalg.norm(x)
            x += 0.1 * rng.standard_normal(5)
            step = default_fd_step(x)
            assert finite_diff_check(
                lambda y: inst.point_eval(y).h,
                gradient_action(lambda y: inst.point_eval(y).weighted_grad()),
                x, step) <= 1e-6
            assert finite_diff_check(
                lambda y: inst.point_eval(y).u_tilde[0],
                gradient_action(lambda y: inst.point_eval(y).weighted_grad(
                    w_f=0.0, a=np.ones(1))),
                x, step) <= 1e-6
            assert finite_diff_check(
                lambda y: inst.point_eval(y).v_tilde[0],
                gradient_action(lambda y: inst.point_eval(y).weighted_grad(
                    w_f=0.0, b=np.ones(1))),
                x, step) <= 1e-6

    def test_active_sets_agree_at_feasible_points(self):
        problem = _sphere_problem_with_constraints()
        inst = build_cdp(problem, PenaltyParams(beta=2.0,
                                                gamma=np.array([1.0])))
        x = np.zeros(5)
        x[0] = 1.0  # v(x) = 0: the inequality is active here
        v = problem.eval_v(x)
        vt = inst.point_eval(x).v_tilde
        active = [j for j in range(v.size) if abs(v[j]) <= 1e-10]
        active_t = [j for j in range(vt.size) if abs(vt[j]) <= 1e-10]
        assert active == active_t == [0]


class TestIteratedMap:
    def test_zero_iterations_return_input(self):
        handle = make_handle("oblique", m=2, q=3)
        y = np.arange(6.0)
        assert np.array_equal(apply_A_k(handle, y, 0), y)

    def test_feasible_points_are_fixed_for_any_count(self):
        handle = make_handle("sphere", n=4)
        y = np.array([0.0, 0.0, 0.0, 1.0])
        assert np.allclose(apply_A_k(handle, y, 5), y)

    def test_row_norm_iterates_follow_closed_form(self):
        handle = make_handle("oblique", m=1, q=2)
        y = np.array([2.0, 0.0])
        assert np.linalg.norm(apply_A_k(handle, y, 1)) == pytest.approx(0.8)
        assert np.linalg.norm(apply_A_k(handle, y, 2)) == pytest.approx(40.0 / 41.0)

    def test_feasible_input_returned_unchanged_by_limit_map(self):
        handle = make_handle("sphere", n=3)
        y = np.array([0.0, 1.0, 0.0])
        out = a_infinity(handle, y)
        assert out is not y
        assert np.array_equal(out, y)

    def test_limit_map_converges_quadratically_from_small_offset(self):
        handle = make_handle("oblique", m=4, q=3)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((4, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = X.ravel() + 0.1 * rng.standard_normal(12)
        out = a_infinity(handle, y, tol=1e-12)
        assert np.linalg.norm(handle.eval_c(out)) <= 1e-12
        # oracle: direct iteration reaches the same point in few steps
        z = y.copy()
        for k in range(6):
            if np.linalg.norm(handle.eval_c(z)) <= 1e-12:
                break
            z = handle.eval_A(z)
        assert np.linalg.norm(handle.eval_c(z)) <= 1e-12
        assert np.allclose(out, z)

    def test_limit_map_is_idempotent(self):
        handle = make_handle("sphere", n=6)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(6)
        out = a_infinity(handle, y, tol=1e-12)
        again = a_infinity(handle, out, tol=1e-12)
        assert np.array_equal(out, again)

    def test_stationary_infeasible_point_raises(self):
        # a zero row is a fixed point of the oblique map with ||c|| = 1
        handle = make_handle("oblique", m=2, q=2)
        y = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(OutOfNeighborhoodError):
            a_infinity(handle, y)

    def test_growing_violation_aborts_the_map(self):
        # One Gauss-Newton step from 0.1 e1 lands at 5.05 e1: ||c|| goes
        # from 0.99 to 24.5025, past the 10x growth detector.
        handle = make_handle("generic", spec=sphere_constraint_spec(3))
        y = 0.1 * np.eye(3)[0]
        for run in (lambda: a_infinity(handle, y),
                    lambda: apply_A_k(handle, y, 1)):
            with pytest.raises(OutOfNeighborhoodError,
                               match="iterated map diverged") as info:
                run()
            assert info.value.last_violation == pytest.approx(24.5025)

    def test_exhausted_iteration_budget_raises(self):
        # c(x) = x^3 has Gauss-Newton map A(x) = 2x/3: ||c|| shrinks by
        # (2/3)^3 per step, too slowly to reach 1e-300 within the budget.
        spec = GenericManifoldSpec(
            n=1, p=1, eval_c=lambda x: np.asarray(x) ** 3,
            apply_Jc=lambda x, w: 3.0 * np.asarray(x) ** 2 * np.asarray(w),
            apply_dJc=lambda x, d, w: 6.0 * np.asarray(x) * np.asarray(d)
            * np.asarray(w))
        handle = make_handle("generic", spec=spec)
        with pytest.raises(OutOfNeighborhoodError,
                           match=r"max_iter exceeded with \|\|c\|\| = 4\.822e-28"
                           ) as info:
            a_infinity(handle, np.array([0.5]), tol=1e-300)
        assert info.value.last_violation == pytest.approx(4.822e-28, rel=1e-3)
        assert a_infinity(handle, np.array([0.5]))[0] == pytest.approx(
            6.68e-05, rel=1e-3)

    def test_negative_tolerance_rejected(self):
        # NaN fails every comparison: a tolerance no violation can meet
        # would end in a stall report, not a usage error.  An infinite
        # one would return any point unprojected as the limit.
        handle = make_handle("sphere", n=3)
        for tol in (-1.0, float("nan"), float("inf")):
            with pytest.raises(DimensionError):
                a_infinity(handle, np.ones(3), tol=tol)

    @pytest.mark.parametrize("bad, error", BAD_POINTS)
    def test_limit_map_rejects_a_bad_point(self, bad, error):
        # A typed error, not numpy's reshape error or a stall report.
        problem, y = bad_cut_point(bad)
        with pytest.raises(error):
            a_infinity(problem.manifold, y)

    @pytest.mark.parametrize("bad, error", BAD_POINTS)
    def test_iterated_map_rejects_a_bad_point(self, bad, error):
        problem, y = bad_cut_point(bad)
        with pytest.raises(error):
            apply_A_k(problem.manifold, y, 2)

    @pytest.mark.parametrize("run", [
        lambda handle, y: a_infinity(handle, y),
        lambda handle, y: apply_A_k(handle, y, 2)],
        ids=["a_infinity", "apply_A_k"])
    @pytest.mark.parametrize("name, fault, error", [
        ("eval_c", lambda h: lambda x: np.zeros(0), DimensionError),
        ("eval_A", lambda h: lambda x: h.eval_A(x)[:-1], DimensionError),
        ("eval_c", lambda h: lambda x: np.full(1, np.nan),
         EvaluatorFaultError)], ids=["empty_c", "short_A", "nan_c"])
    def test_faulty_handle_reads_raise_typed_errors(self, run, name, fault,
                                                    error):
        # Not y itself as a feasible limit for an empty c, a short vector
        # for a short A, or a divergence report for a NaN c.
        handle = make_handle("sphere", n=4)
        faulty = dataclasses.replace(handle, **{name: fault(handle)})
        with pytest.raises(error, match=name):
            run(faulty, np.array([1.2, 0.1, 0.0, 0.0]))


class TestLagrangian:
    def test_zero_multipliers_reduce_to_h(self):
        problem = _sphere_problem_with_constraints()
        inst = build_cdp(problem, PenaltyParams(beta=2.0))
        mult = MultiplierSet(rho=np.zeros(1), lam=np.zeros(1), mu=np.zeros(1))
        rng = np.random.default_rng(6)
        x = rng.standard_normal(5)
        value, grad = cdp_lagrangian(inst, x, mult)
        pe = inst.point_eval(x)
        assert value == pytest.approx(pe.h, abs=1e-14)
        assert np.allclose(grad, pe.weighted_grad(), atol=1e-14)

    def test_feasible_value_is_original_lagrangian_without_manifold_term(self):
        problem = _sphere_problem_with_constraints()
        inst = build_cdp(problem, PenaltyParams(beta=2.0))
        mult = MultiplierSet(rho=np.zeros(1), lam=np.array([0.7]),
                             mu=np.array([0.3]))
        x = np.zeros(5)
        x[2] = 1.0
        value, _ = cdp_lagrangian(inst, x, mult)
        expected = (problem.eval_f(x)
                    + 0.7 * problem.eval_u(x)[0]
                    + 0.3 * problem.eval_v(x)[0])
        assert value == pytest.approx(expected, abs=1e-14)

    def test_gradient_matches_finite_differences(self):
        problem = _sphere_problem_with_constraints()
        inst = build_cdp(problem, PenaltyParams(beta=2.0))
        mult = MultiplierSet(rho=np.zeros(1), lam=np.array([-0.4]),
                             mu=np.array([1.2]))
        rng = np.random.default_rng(8)
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        x += 0.05 * rng.standard_normal(5)
        err = finite_diff_check(
            lambda y: cdp_lagrangian(inst, y, mult)[0],
            gradient_action(lambda y: cdp_lagrangian(inst, y, mult)[1]),
            x, default_fd_step(x))
        assert err <= 1e-6

    def test_dimension_mismatch_rejected(self):
        problem = _sphere_problem_with_constraints()
        inst = build_cdp(problem, PenaltyParams(beta=1.0))
        mult = MultiplierSet(rho=np.zeros(1), lam=np.zeros(2), mu=np.zeros(1))
        with pytest.raises(DimensionError):
            cdp_lagrangian(inst, np.ones(5), mult)

    @pytest.mark.parametrize("kwargs, name", [
        ({"a": np.ones(3)}, "lambda"), ({"a": np.ones(1)}, "lambda"),
        ({"b": np.ones(3)}, "mu"), ({"b": np.ones(1)}, "mu")])
    def test_gradient_names_a_misshapen_multiplier(self, kwargs, name):
        # Not numpy's broadcast ValueError from the Ju or Jv combination:
        # cut m=10 has n_eq = 2 and n_ineq = 0.
        problem, x0 = gen_balanced_cut(
            BalancedCutConfig(m=10, q=2, rho=0.3, seed=3))
        pe = build_cdp(problem, PenaltyParams(1.0)).point_eval(x0)
        with pytest.raises(DimensionError, match=name):
            pe.weighted_grad(1.0, **kwargs)


class TestDecreaseProbe:
    def test_feasible_probe_has_zero_differences(self, com_problem):
        # x0 is feasible only to ||c|| ~ 1e-14, so A moves it by rounding:
        # the single-step difference is zero to a few ulps of L(x0), while
        # a_infinity returns x0 itself and the limit difference is exact.
        problem, x0 = com_problem
        inst = build_cdp(problem, PenaltyParams(beta=5.0))
        mult = MultiplierSet(rho=np.zeros(problem.p), lam=np.zeros(0),
                             mu=np.zeros(1))
        report = lagrangian_decrease_probe(inst, x0, mult, offsets=[0.0])
        assert report.offsets == [0.0]
        assert report.passed
        assert report.limit_decrease == [0.0]
        value, _ = cdp_lagrangian(inst, x0, mult)
        assert abs(report.single_step_decrease[0]) \
            <= 4 * np.spacing(abs(value))

    def test_exactly_feasible_probe_has_bitwise_zero_differences(
            self, com_problem):
        # c(E) == 0 exactly at the canonical point, so A(E) == E bit for bit
        problem, _ = com_problem
        inst = build_cdp(problem, PenaltyParams(beta=5.0))
        mult = MultiplierSet(rho=np.zeros(problem.p), lam=np.zeros(0),
                             mu=np.zeros(1))
        x = symplectic_canonical_point(6, 2).ravel()
        assert not np.any(problem.manifold.eval_c(x))
        report = lagrangian_decrease_probe(inst, x, mult, offsets=[0.0])
        assert report.single_step_decrease == [0.0]
        assert report.limit_decrease == [0.0]

    def test_zero_beta_flags_condition_not_met_without_failing(self):
        # The probe itself carries no verdict on the condition: it runs to
        # the end at beta = 0, and check_condition on the same point flags
        # both bounds as unmet.
        problem = linear_objective_sphere_problem(5, seed=2)
        inst = build_cdp(problem, PenaltyParams(beta=0.0))
        x = np.zeros(5)
        x[0] = 1.0
        mult = MultiplierSet(rho=np.zeros(1), lam=np.zeros(0), mu=np.zeros(0))
        report = lagrangian_decrease_probe(inst, x, mult,
                                           offsets=[1e-2, 1e-3])
        assert report.offsets == [1e-2, 1e-3] and not report.skipped
        est = estimate_constants(problem, x, radius=0.05, samples=20)
        cond = check_condition(est, inst.params, mult)
        assert cond.beta_met is False
        assert cond.coupled_met is False

    def test_large_beta_probe_passes_on_sphere(self):
        problem = linear_objective_sphere_problem(5, seed=2)
        inst = build_cdp(problem, PenaltyParams(beta=500.0))
        x = np.zeros(5)
        x[0] = 1.0
        mult = MultiplierSet(rho=np.zeros(1), lam=np.zeros(0), mu=np.zeros(0))
        report = lagrangian_decrease_probe(inst, x, mult,
                                           offsets=[1e-2, 1e-3])
        assert report.passed
        assert all(d >= -1e-10 for d in report.single_step_decrease)
        assert all(d >= -1e-10 for d in report.limit_decrease)
        # equality-free problem: the quadratic decrease bound is recorded
        for dec, bound in zip(report.h_decrease, report.quarter_beta_c_sq):
            assert dec >= bound - 1e-10

    def test_offset_outside_the_neighborhood_is_skipped(self):
        # w = +1 here, so offset -0.95 probes y = 0.05, where the generic
        # map overshoots to ||c|| = 99.5; offset 0.95 is still usable.
        handle = make_handle("generic", spec=sphere_constraint_spec(1))
        problem = linear_objective_sphere_problem(1, handle=handle)
        inst = build_cdp(problem, PenaltyParams(beta=10.0))
        mult = MultiplierSet(rho=np.zeros(1))
        report = lagrangian_decrease_probe(inst, np.array([1.0]), mult,
                                           offsets=[0.95, -0.95])
        assert report.offsets == [0.95]
        assert report.skipped == [
            "offset -0.95: iterated map diverged (||c|| = 9.950e+01)"]
        assert report.passed

    def test_three_states_and_no_gradient_per_offset(self, monkeypatch):
        # One state each at y, A(y) and a_infinity(y); A(y) and c(y) are
        # read from y's state, and the probe reads no other.
        counts = {"point": 0, "weighted_grad": 0}
        handle = make_handle("sphere", n=5)

        def point(x, _point=handle.point):
            counts["point"] += 1
            return _point(x)

        def weighted_grad(pe, *args, _grad=CdpPointEval.weighted_grad,
                          **kwargs):
            counts["weighted_grad"] += 1
            return _grad(pe, *args, **kwargs)

        monkeypatch.setattr(CdpPointEval, "weighted_grad", weighted_grad)
        problem = linear_objective_sphere_problem(
            5, seed=2, handle=dataclasses.replace(handle, point=point))
        inst = build_cdp(problem, PenaltyParams(beta=500.0))
        mult = MultiplierSet(rho=np.zeros(1))
        report = lagrangian_decrease_probe(inst, np.eye(5)[0], mult,
                                           offsets=[1e-2, 1e-3])
        assert report.offsets == [1e-2, 1e-3] and not report.skipped
        assert counts == {"point": 3 * 2, "weighted_grad": 0}

    @pytest.mark.parametrize("bad, error", BAD_POINTS)
    def test_bad_equality_read_rejected(self, bad, error):
        # A u one entry short would broadcast against tau in point_eval,
        # and a NaN one would fail no comparison: either way the probe
        # would pass on the decreases of another problem.
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=10, q=2, rho=0.3,
                                                         seed=3))
        eval_u = problem.eval_u
        faulty = dataclasses.replace(problem, eval_u=lambda x: (
            eval_u(x)[:-1] if bad == "short" else np.full(problem.n_eq,
                                                          np.nan)))
        inst = build_cdp(faulty, PenaltyParams(beta=1.0))
        mult = MultiplierSet(rho=np.zeros(problem.p),
                             lam=np.ones(problem.n_eq))
        with pytest.raises(error, match="eval_u"):
            lagrangian_decrease_probe(inst, a_infinity(problem.manifold, x0),
                                      mult, offsets=[1e-2])

    @pytest.mark.parametrize("bad, error", BAD_POINTS)
    def test_bad_point_rejected(self, bad, error):
        # Checked at entry, so the error names the probe's own argument.
        problem, x = bad_cut_point(bad)
        inst = build_cdp(problem, PenaltyParams(beta=1.0))
        with pytest.raises(error, match="x_feasible"):
            lagrangian_decrease_probe(inst, x, MultiplierSet(),
                                      offsets=[1e-2])
