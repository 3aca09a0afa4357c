import dataclasses

import numpy as np
import pytest

import cdpkit.dissolve
from cdpkit.core import (
    DimensionError,
    MultiplierSet,
    OutOfNeighborhoodError,
    ParameterError,
    PenaltyParams,
    RankDeficiencyError,
    default_fd_step,
    finite_diff_check,
    gradient_action,
)
from cdpkit.bench import CenterOfMassConfig, gen_center_of_mass
from cdpkit.dissolve import (
    CdpPointEval,
    a_infinity,
    apply_A_k,
    build_cdp,
    cdp_lagrangian,
    lagrangian_decrease_probe,
)
from cdpkit.manifolds import make_handle, symplectic_canonical_point

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

    def test_negative_tolerance_rejected(self):
        # NaN fails every comparison: a tolerance no violation can meet
        # would end in a stall report, not a usage error.
        handle = make_handle("sphere", n=3)
        for tol in (-1.0, float("nan")):
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
        problem = linear_objective_sphere_problem(5, seed=2)
        inst = build_cdp(problem, PenaltyParams(beta=0.0))
        x = np.zeros(5)
        x[0] = 1.0
        mult = MultiplierSet(rho=np.zeros(1), lam=np.zeros(0), mu=np.zeros(0))
        report = lagrangian_decrease_probe(inst, x, mult,
                                           offsets=[1e-2, 1e-3])
        assert report.condition_met is False

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
        # read from y's state.  The condition check's own states are the
        # count of a run without offsets.
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

        def probed(offsets):
            counts.update(point=0, weighted_grad=0)
            report = lagrangian_decrease_probe(inst, np.eye(5)[0], mult,
                                               offsets=offsets)
            return report, dict(counts)

        _, condition_only = probed([])
        report, total = probed([1e-2, 1e-3])
        assert report.offsets == [1e-2, 1e-3] and not report.skipped
        assert total["point"] - condition_only["point"] == 3 * 2
        assert total["weighted_grad"] == 0

    @staticmethod
    def _probe_with_condition_check_raising(monkeypatch, exc):
        def raising(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cdpkit.dissolve, "estimate_constants", raising)
        problem = linear_objective_sphere_problem(5, seed=2)
        inst = build_cdp(problem, PenaltyParams(beta=500.0))
        x = np.zeros(5)
        x[0] = 1.0
        mult = MultiplierSet(rho=np.zeros(1), lam=np.zeros(0), mu=np.zeros(0))
        return lagrangian_decrease_probe(inst, x, mult, offsets=[1e-2, 1e-3])

    def test_programming_error_in_condition_check_propagates(self,
                                                             monkeypatch):
        with pytest.raises(ZeroDivisionError):
            self._probe_with_condition_check_raising(monkeypatch,
                                                     ZeroDivisionError())

    def test_typed_error_in_condition_check_is_recorded(self, monkeypatch):
        report = self._probe_with_condition_check_raising(
            monkeypatch, RankDeficiencyError("sigma_min(Jc) = 0"))
        assert report.skipped == [
            "condition check unavailable: sigma_min(Jc) = 0"]
        assert report.offsets == [1e-2, 1e-3]
        assert report.passed
