import dataclasses
import inspect

import numpy as np
import pytest

from cdpkit.bench import (
    BalancedCutConfig,
    CenterOfMassConfig,
    _build_instance,
    gen_balanced_cut,
    gen_center_of_mass,
)
from cdpkit.core import (
    DimensionError,
    ManifoldHandle,
    ParameterError,
    PenaltyParams,
    ProblemSpec,
    SolveTrace,
)
from cdpkit.diagnostics import (
    _bound_constants,
    _coupled_bound,
    make_synthetic_kkt,
)
from cdpkit.dissolve import a_infinity, build_cdp, lagrangian_decrease_probe
from cdpkit import solver
from cdpkit.manifolds import GenericManifoldSpec, make_handle
from cdpkit.solver import (
    BETA_GROWTH,
    BOUND_SAMPLES,
    BOUND_SAMPLES_FULL,
    CLOSE_CALL_MARGIN,
    MULTIPLIER_CLIP,
    AlmOptions,
    _augmented,
    _Dissolved,
    alm_solve_cdp,
    alm_solve_nlp_direct,
    lbfgs_minimize,
)

from conftest import (
    BAD_POINTS,
    bad_cut_point,
    faulty_sphere_problem,
    linear_objective_sphere_problem,
)


class TestLbfgs:
    def test_diagonal_quadratic_reaches_origin(self):
        D = np.array([1.0, 4.0, 9.0, 0.5])

        def vg(x):
            return float(np.dot(x, D * x)), 2.0 * D * x

        res = lbfgs_minimize(vg, np.ones(4), tol=1e-9)
        assert res.status == "converged"
        assert np.linalg.norm(res.x) <= 1e-8

    def test_rosenbrock_from_standard_start(self):
        def vg(x):
            f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
            g = np.array([
                -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                200.0 * (x[1] - x[0] ** 2),
            ])
            return f, g

        res = lbfgs_minimize(vg, np.array([-1.2, 1.0]), tol=1e-8,
                             max_iter=200)
        assert res.status == "converged"
        assert np.linalg.norm(res.x - 1.0) <= 1e-6

    def test_zero_gradient_start_returns_immediately(self):
        def vg(x):
            return float(np.dot(x, x)), 2.0 * x

        res = lbfgs_minimize(vg, np.zeros(3), tol=1e-8)
        assert res.status == "converged"
        assert res.iterations == 0
        assert np.array_equal(res.x, np.zeros(3))

    def test_step_ends_at_a_point_the_search_accepted(self):
        # Descent along x[0] up to a cliff at 2/3.  The zoom bisects toward
        # the cliff and its last trial lies beyond it, within rounding of
        # the accepted step; the iterate must be the accepted point.
        def vg(x):
            return (-x[0] if x[0] < 2.0 / 3.0 else 10.0), np.array([-1.0, 0.0])

        res = lbfgs_minimize(vg, np.zeros(2), max_iter=1)
        assert res.f <= 0.0
        assert 0.0 < res.x[0] < 2.0 / 3.0
        assert res.f == vg(res.x)[0]

    def test_nan_trial_counts_as_a_failed_decrease(self):
        # Descent along x up to a NaN band [0.7, 0.9) and a cliff above it.
        # The zoom lands in the band; it must shrink past it, not accept it.
        evals = []

        def vg(x):
            evals.append(x[0])
            if x[0] < 0.7:
                return -x[0], np.array([-1.0])
            if x[0] < 0.9:
                return np.nan, np.array([np.nan])
            return 10.0, np.array([0.0])

        res = lbfgs_minimize(vg, np.zeros(1), max_iter=1)
        assert np.isfinite(res.f) and res.f <= -0.5
        assert res.f == vg(res.x)[0]
        assert any(0.7 <= e < 0.9 for e in evals)

    def test_wrong_way_gradient_ends_in_line_search_failure(self):
        def vg(x):
            return 0.5 * float(x @ x), -x

        x0 = np.array([1.0, -2.0])
        res = lbfgs_minimize(vg, x0)
        assert res.status == "line_search_failure"
        assert res.iterations == 0
        assert np.array_equal(res.x, x0) and res.f == 2.5

    def test_nan_beyond_a_radius_restarts_with_steepest_descent(self,
                                                                 monkeypatch):
        # After the first step the quasi-Newton step overshoots into the
        # region where the value is NaN, so that search fails and the
        # steepest-descent restart (the call given ``alpha0``) takes over.
        import cdpkit.solver as solver_mod

        searches = []
        search = solver_mod._strong_wolfe

        def recorded(*args, **kwargs):
            searches.append("alpha0" in kwargs)
            return search(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "_strong_wolfe", recorded)

        def vg(x):
            if abs(x[0]) > 5.0:
                return np.nan, np.full(1, np.nan)
            r = float(np.sqrt(1.0 + x[0] ** 2))
            return r, x / r

        res = lbfgs_minimize(vg, np.array([3.0]), tol=1e-8)
        assert any(searches)
        assert res.status == "converged"
        assert np.all(np.isfinite(res.x)) and np.isfinite(res.f)
        assert abs(res.x[0]) <= 1e-8

    def test_point_meeting_tol_after_the_last_step_is_converged(self):
        res = lbfgs_minimize(lambda x: (0.5 * float(x @ x), x.copy()),
                             np.array([3.0]), tol=1e-12, max_iter=1)
        assert res.status == "converged"
        assert res.iterations == 1
        assert res.grad_norm == 0.0


class TestAlmOptions:
    def test_nonpositive_tolerances_rejected(self):
        with pytest.raises(ParameterError):
            AlmOptions(outer_tol_stationarity=0.0)

    def test_negative_outer_budget_rejected(self):
        with pytest.raises(ParameterError):
            AlmOptions(max_outer=-1)

    def test_negative_inner_budget_rejected(self):
        with pytest.raises(ParameterError):
            AlmOptions(max_inner=-1)

    def test_nan_tolerances_rejected(self):
        for field in ("outer_tol_stationarity", "outer_tol_feasibility"):
            with pytest.raises(ParameterError):
                AlmOptions(**{field: float("nan")})

    def test_infinite_tolerances_rejected(self):
        # Every point would pass an infinite tolerance: a converged status
        # would certify nothing.
        for field in ("outer_tol_stationarity", "outer_tol_feasibility"):
            with pytest.raises(ParameterError):
                AlmOptions(**{field: float("inf")})

    def test_fractional_budgets_rejected(self):
        # Rejected here, not with numpy's TypeError inside the solve.
        for field in ("max_outer", "max_inner"):
            with pytest.raises(ParameterError):
                AlmOptions(**{field: 2.5})

    @pytest.mark.parametrize("field", ["outer_tol_stationarity",
                                       "outer_tol_feasibility", "max_outer",
                                       "max_inner", "time_budget"])
    def test_bools_rejected(self, field):
        # bool is an int subclass; True would pass as a budget of 1.
        for value in (True, False):
            with pytest.raises(ParameterError):
                AlmOptions(**{field: value})

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan")])
    def test_time_budget_must_be_none_or_positive(self, budget):
        with pytest.raises(ParameterError):
            AlmOptions(time_budget=budget)
        assert AlmOptions(time_budget=None).time_budget is None
        assert AlmOptions(time_budget=0.5).time_budget == 0.5

    def test_option_surface_is_pinned(self):
        # Values no caller sets are module constants, not options.
        assert [f.name for f in dataclasses.fields(AlmOptions)] == [
            "outer_tol_stationarity", "outer_tol_feasibility", "max_outer",
            "max_inner", "beta_adapt", "time_budget"]
        # A spec asks only for what the handle reads.
        assert [f.name for f in dataclasses.fields(GenericManifoldSpec)] == [
            "n", "p", "eval_c", "apply_Jc", "apply_dJc", "name", "jacobian"]
        # The handle declares its row-block structure in one field.
        assert [f.name for f in dataclasses.fields(ManifoldHandle)] == [
            "name", "n", "p", "eval_c", "apply_JcT", "apply_Jc", "eval_A",
            "apply_JAT", "row_blocks", "jacobian", "point"]

        def keywords(fn):
            return [name for name, p in inspect.signature(fn).parameters.items()
                    if p.default is not inspect.Parameter.empty]

        assert keywords(lbfgs_minimize) == ["tol", "max_iter"]
        assert keywords(lagrangian_decrease_probe) == ["seed"]
        assert keywords(a_infinity) == ["tol"]


@pytest.mark.parametrize("family", ["balanced_cut", "center_of_mass"])
def test_one_evaluation_builds_one_state(family):
    # h, u~, v~ and the gradient of the augmented Lagrangian at one point
    # all read one state of the handle there.
    if family == "balanced_cut":
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=10, q=2, rho=0.3,
                                                         seed=1))
    else:
        problem, x0 = gen_center_of_mass(
            CenterOfMassConfig(m=6, q=2, N=8, r=0.5, seed=3))
    built = []
    mani = problem.manifold

    def point(x):
        built.append(1)
        return mani.point(x)

    counted = dataclasses.replace(
        problem, manifold=dataclasses.replace(mani, point=point))
    form = _Dissolved(build_cdp(counted, PenaltyParams(beta=10.0)), x0, True)
    value_and_grad = _augmented(form.evaluate, np.ones(problem.n_eq),
                                np.ones(problem.n_ineq), 10.0)
    value, grad = value_and_grad(x0 + 0.01)
    assert len(built) == 1
    assert np.isfinite(value) and np.all(np.isfinite(grad))


@pytest.mark.parametrize("pipeline", ["cdp", "nlp"])
@pytest.mark.parametrize("bad, error", BAD_POINTS)
def test_bad_start_raises_a_typed_error(pipeline, bad, error):
    # Before pass 0, not from a factorization or a reshape inside it.
    problem, x0 = bad_cut_point(bad)
    with pytest.raises(error):
        if pipeline == "cdp":
            alm_solve_cdp(build_cdp(problem, PenaltyParams(beta=10.0)), x0)
        else:
            alm_solve_nlp_direct(problem, x0)


@pytest.mark.parametrize("pipeline", ["cdp", "nlp"])
@pytest.mark.parametrize("bad, error", BAD_POINTS)
@pytest.mark.parametrize("name", ["eval_c", "eval_u", "eval_v"])
def test_bad_constraint_value_raises_before_any_inner_solve(
        monkeypatch, pipeline, name, bad, error):
    # Pass 0 certifies the start, so neither pipeline runs to max_iter or
    # diverged on a NaN or short constraint value.
    def no_inner_solve(*args, **kwargs):
        raise AssertionError("an inner solve ran")

    monkeypatch.setattr(solver, "lbfgs_minimize", no_inner_solve)
    problem, x0 = faulty_sphere_problem(name, bad)
    with pytest.raises(error, match=name):
        if pipeline == "cdp":
            alm_solve_cdp(build_cdp(problem, PenaltyParams(beta=10.0)), x0)
        else:
            alm_solve_nlp_direct(problem, x0)


@pytest.mark.parametrize("pipeline", ["cdp", "nlp"])
def test_short_generic_jacobian_column_raises_a_typed_error(pipeline):
    # A generic spec whose apply_Jc comes one entry short: not numpy's
    # broadcast ValueError from inside the handle's jacobian.
    problem, x0 = faulty_sphere_problem("jacobian", "short")
    with pytest.raises(DimensionError, match="apply_Jc"):
        if pipeline == "cdp":
            alm_solve_cdp(build_cdp(problem, PenaltyParams(beta=10.0)), x0)
        else:
            alm_solve_nlp_direct(problem, x0)


def _counted_bound_passes(monkeypatch):
    """The sample counts of the safeguard's bound passes, in call order."""
    calls = []

    def counted(*args, samples, **kwargs):
        calls.append(samples)
        return _bound_constants(*args, samples=samples, **kwargs)

    monkeypatch.setattr(solver, "_bound_constants", counted)
    return calls


def _cut_or_com(family):
    """The adaptation tests' cut m=20 instance, or center of mass (6, 2)."""
    cfg = (BalancedCutConfig(m=20, q=2, rho=0.2, seed=3)
           if family == "balanced_cut"
           else CenterOfMassConfig(m=6, q=2, N=8, r=0.5, seed=3))
    return _build_instance(cfg)


class TestBoundPass:
    @pytest.mark.parametrize("family", ["balanced_cut", "center_of_mass"])
    def test_cheap_pass_keeps_every_decision(self, monkeypatch, family):
        # A solve that samples only the full pass takes the same beta path;
        # the cheap pass settles every decision here by itself.
        problem, inst, x0 = _cut_or_com(family)
        calls = _counted_bound_passes(monkeypatch)
        cheap = alm_solve_cdp(inst, x0)
        assert calls == [BOUND_SAMPLES]
        calls.clear()
        monkeypatch.setattr(solver, "BOUND_SAMPLES", BOUND_SAMPLES_FULL)
        full = alm_solve_cdp(inst, x0)
        assert calls == [BOUND_SAMPLES_FULL]
        assert any("beta_adapted:" in row.note for row in cheap.trace.rows)
        assert [(row.beta, row.note) for row in cheap.trace.rows] \
            == [(row.beta, row.note) for row in full.trace.rows]

    def test_margin_covers_the_cut_instance_spread(self):
        # Cut m=20 with zero multipliers has the widest measured spread of
        # the full threshold over the cheap one, 1.256: a margin of 1.25
        # would let a decision there be a clear "no" that 30 points adapt.
        problem, _, x0 = _cut_or_com("balanced_cut")
        x_ref = a_infinity(problem.manifold, x0)
        lam, mu = np.zeros(problem.n_eq), np.zeros(problem.n_ineq)
        cheap, full = (_coupled_bound(
            _bound_constants(problem, x_ref, radius=0.1, samples=s, seed=0),
            PenaltyParams(beta=1.0), lam, mu)[1]
            for s in (BOUND_SAMPLES, BOUND_SAMPLES_FULL))
        assert cheap <= full < CLOSE_CALL_MARGIN * cheap

    @pytest.mark.parametrize("adapts", [True, False])
    def test_close_call_takes_the_full_pass_once(self, monkeypatch, adapts):
        # On center of mass (6, 2) with zero multipliers the cheap threshold
        # is 0.90 of the full one, so a beta between them adapts and one
        # above the full threshold does not, though both are close calls.
        problem, _, x0 = _cut_or_com("center_of_mass")
        x_ref = a_infinity(problem.manifold, x0)
        lam, mu = np.zeros(problem.n_eq), np.zeros(problem.n_ineq)
        cheap, full = (_coupled_bound(
            _bound_constants(problem, x_ref, radius=0.1, samples=s, seed=0),
            PenaltyParams(beta=1.0), lam, mu)[1]
            for s in (BOUND_SAMPLES, BOUND_SAMPLES_FULL))
        assert cheap < full < CLOSE_CALL_MARGIN * cheap
        beta = (cheap + full) / 2 if adapts \
            else (full + CLOSE_CALL_MARGIN * cheap) / 2
        calls = _counted_bound_passes(monkeypatch)
        form = _Dissolved(build_cdp(problem, PenaltyParams(beta=beta)), x0,
                          True)
        form.adapt(lam, mu, SolveTrace())
        assert calls == [BOUND_SAMPLES, BOUND_SAMPLES_FULL]
        assert form.beta == (BETA_GROWTH * beta if adapts else beta)
        assert (form.beta > beta) == (beta < full)
        # Later decisions read the full constants: no further pass.
        form.adapt(lam, mu, SolveTrace())
        assert calls == [BOUND_SAMPLES, BOUND_SAMPLES_FULL]


class TestAlmCdp:
    def test_pure_manifold_problem_is_single_inner_solve(self):
        problem = linear_objective_sphere_problem(6, seed=1)
        inst = build_cdp(problem, PenaltyParams(beta=10.0))
        x0 = np.zeros(6)
        x0[0] = 1.0
        res = alm_solve_cdp(inst, x0)
        assert res.status == "converged"
        assert len(res.trace.rows) == 1
        # minimizer of a linear objective on the sphere: -g/||g||
        g = problem.grad_f(x0)
        assert np.allclose(res.x_postprocessed, -g / np.linalg.norm(g),
                           atol=1e-5)

    def test_starting_at_a_stationary_point_stays_there(self):
        problem, x_star, _ = make_synthetic_kkt(seed=4)
        inst = build_cdp(problem, PenaltyParams(beta=10.0))
        res = alm_solve_cdp(inst, x_star)
        assert res.status == "converged"
        assert len(res.trace.rows) <= 2
        assert np.linalg.norm(res.x_final - x_star) <= 1e-6

    def test_converged_status_implies_certified_tolerances(self):
        problem = linear_objective_sphere_problem(6, seed=2)
        inst = build_cdp(problem, PenaltyParams(beta=10.0))
        x0 = np.zeros(6)
        x0[0] = 1.0
        opts = AlmOptions()
        res = alm_solve_cdp(inst, x0, opts)
        assert res.status == "converged"
        assert res.kkt.feasibility <= opts.outer_tol_feasibility
        assert res.kkt.stationarity <= opts.outer_tol_stationarity

    def test_trace_penalty_is_nondecreasing(self):
        problem, x_star, _ = make_synthetic_kkt(seed=6)
        inst = build_cdp(problem, PenaltyParams(beta=10.0))
        rng = np.random.default_rng(0)
        res = alm_solve_cdp(inst, x_star + 0.5 * rng.standard_normal(problem.n))
        sigmas = [row.sigma for row in res.trace.rows]
        assert all(b >= a for a, b in zip(sigmas, sigmas[1:]))

    def test_beta_adaptation_records_and_respects_lower_bound(self):
        from cdpkit.bench import (BalancedCutConfig, build_balanced_cut_cdp,
                                  gen_balanced_cut)
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=20, q=2, rho=0.2,
                                                         seed=3))
        inst = build_balanced_cut_cdp(problem)
        res = alm_solve_cdp(inst, x0)
        notes = [row.note for row in res.trace.rows if "beta_adapted" in row.note]
        assert notes, "adaptation expected from the tiny initial beta"
        adapted_at = next(i for i, row in enumerate(res.trace.rows)
                          if "beta_adapted" in row.note)
        required = float(res.trace.rows[adapted_at].note.split(":")[1])
        later = res.trace.rows[adapted_at + 1:]
        assert all(row.beta >= required for row in later)

    def test_beta_adaptation_note_holds_the_next_rows_beta_exactly(self):
        from cdpkit.bench import (BalancedCutConfig, build_balanced_cut_cdp,
                                  gen_balanced_cut)
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=20, q=2, rho=0.2,
                                                         seed=3))
        res = alm_solve_cdp(build_balanced_cut_cdp(problem), x0)
        rows = res.trace.rows
        adapted = [i for i, row in enumerate(rows) if "beta_adapted" in row.note]
        assert adapted
        for i in adapted:
            assert i + 1 < len(rows)
            recorded = float(rows[i].note.split("beta_adapted:")[1].split()[0])
            assert recorded == rows[i + 1].beta

    def test_beta_steps_by_at_most_the_growth_factor(self):
        from cdpkit.bench import (BalancedCutConfig, build_balanced_cut_cdp,
                                  gen_balanced_cut)
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=20, q=2, rho=0.2,
                                                         seed=3))
        res = alm_solve_cdp(build_balanced_cut_cdp(problem), x0)
        assert res.status == "converged"
        steps = [(row.beta, float(row.note.split("beta_adapted:")[1].split()[0]))
                 for row in res.trace.rows if "beta_adapted:" in row.note]
        assert len(steps) > 1
        assert all(new == BETA_GROWTH * beta for beta, new in steps)

    def test_continuation_converges_on_cut_m200_seed_7(self):
        # A jump to growth * bound (beta 6364, then 2.5e5) left every inner
        # solve at max_inner and ended in inner_failure here.
        from cdpkit.bench import (BalancedCutConfig, build_balanced_cut_cdp,
                                  gen_balanced_cut)
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=200, q=2, rho=0.1,
                                                         seed=7))
        res = alm_solve_cdp(build_balanced_cut_cdp(problem), x0, AlmOptions())
        assert res.status == "converged"

    def test_adaptation_changes_nothing_before_it_acts(self):
        # Off, every row keeps the start beta; on, the trace is the same
        # through the first adapted row, whose note alone differs.
        from cdpkit.bench import (BalancedCutConfig, build_balanced_cut_cdp,
                                  gen_balanced_cut)
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=20, q=2, rho=0.2,
                                                         seed=3))
        off = alm_solve_cdp(build_balanced_cut_cdp(problem), x0,
                            AlmOptions(beta_adapt=False))
        on = alm_solve_cdp(build_balanced_cut_cdp(problem), x0)
        assert off.status == "converged"
        assert all(row.beta == 0.1 and row.note == ""
                   for row in off.trace.rows)
        first = next(i for i, row in enumerate(on.trace.rows)
                     if "beta_adapted:" in row.note)
        head = on.trace.rows[:first + 1]
        head[-1] = dataclasses.replace(head[-1], note="")
        assert [r.key_fields() for r in head] \
            == [r.key_fields() for r in off.trace.rows[:first + 1]]

    def test_safeguard_reads_only_the_bound_constants(self, monkeypatch):
        # The safeguard no longer runs the full estimate_constants; with it
        # raising, adaptation fires exactly as before.
        import cdpkit.solver as solver_mod
        from cdpkit.bench import (BalancedCutConfig, build_balanced_cut_cdp,
                                  gen_balanced_cut)
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=20, q=2, rho=0.2,
                                                         seed=3))
        reference = alm_solve_cdp(build_balanced_cut_cdp(problem), x0)

        def refuse(*args, **kwargs):
            raise AssertionError("estimate_constants called on the solve path")

        monkeypatch.setattr(solver_mod, "estimate_constants", refuse)
        res = alm_solve_cdp(build_balanced_cut_cdp(problem), x0)
        notes = [row.note for row in res.trace.rows]
        assert any("beta_adapted:" in note for note in notes)
        assert notes == [row.note for row in reference.trace.rows]
        assert [row.beta for row in res.trace.rows] \
            == [row.beta for row in reference.trace.rows]

    def test_safeguard_switched_off_is_recorded(self):
        # Two zero rows leave the oblique map no way to reach the manifold,
        # so the reference point for the constants cannot be computed.
        from cdpkit.bench import (BalancedCutConfig, build_balanced_cut_cdp,
                                  gen_balanced_cut)
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=20, q=2, rho=0.2,
                                                         seed=3))
        x = x0.reshape(20, 2).copy()
        x[:2] = 0.0
        res = alm_solve_cdp(build_balanced_cut_cdp(problem), x.ravel())
        assert res.status == "converged"
        assert res.trace.rows[0].note == "beta_adapt_off:OutOfNeighborhoodError"
        assert all(row.beta == 0.1 for row in res.trace.rows)

    def test_zero_beta_cannot_adapt(self):
        # BETA_GROWTH * 0 is 0: the safeguard could never raise beta.
        from cdpkit.bench import (BalancedCutConfig, build_balanced_cut_cdp,
                                  gen_balanced_cut)
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=10, q=2, rho=0.3,
                                                         seed=0))
        inst = build_balanced_cut_cdp(problem, beta=0.0)
        with pytest.raises(ParameterError, match="beta = 0"):
            alm_solve_cdp(inst, x0)
        fixed = alm_solve_cdp(inst, x0, AlmOptions(beta_adapt=False))
        assert all(row.beta == 0.0 for row in fixed.trace.rows)

    def test_unexpected_safeguard_error_propagates(self, monkeypatch):
        import cdpkit.solver as solver_mod
        from cdpkit.bench import (BalancedCutConfig, build_balanced_cut_cdp,
                                  gen_balanced_cut)
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=20, q=2, rho=0.2,
                                                         seed=3))

        def broken(*args, **kwargs):
            raise ZeroDivisionError("defect in the constant sampling")

        monkeypatch.setattr(solver_mod, "_bound_constants", broken)
        with pytest.raises(ZeroDivisionError):
            alm_solve_cdp(build_balanced_cut_cdp(problem), x0)

    def test_trace_rows_record_their_inner_solve(self):
        problem = linear_objective_sphere_problem(6, seed=1)
        inst = build_cdp(problem, PenaltyParams(beta=10.0))
        x0 = np.zeros(6)
        x0[0] = 1.0
        res = alm_solve_cdp(inst, x0)
        row = res.trace.rows[0]
        assert row.inner_status == "converged"
        assert row.inner_iterations > 0
        # A start that is already certified takes no inner solve.
        again = alm_solve_cdp(inst, res.x_postprocessed)
        assert again.status == "converged"
        assert len(again.trace.rows) == 1
        assert again.trace.rows[0].inner_iterations == 0
        assert again.trace.rows[0].inner_status == ""

    def test_deterministic_reruns_produce_identical_traces(self):
        problem = linear_objective_sphere_problem(8, seed=5)
        inst = build_cdp(problem, PenaltyParams(beta=10.0))
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(8)
        x0 /= np.linalg.norm(x0)
        a = alm_solve_cdp(inst, x0)
        b = alm_solve_cdp(inst, x0)
        assert a.objective == b.objective
        assert np.array_equal(a.x_final, b.x_final)
        assert [r.key_fields() for r in a.trace.rows] \
            == [r.key_fields() for r in b.trace.rows]


@pytest.mark.parametrize("pipeline, n_rho", [("cdp", 0), ("nlp", 20)])
def test_multipliers_split_into_manifold_and_problem_blocks(pipeline, n_rho):
    # Only the direct pipeline carries multipliers for c (p = m of them);
    # both carry one per balancing equality u (q of them).
    from cdpkit.bench import (BalancedCutConfig, build_balanced_cut_cdp,
                              gen_balanced_cut)
    problem, x0 = gen_balanced_cut(BalancedCutConfig(m=20, q=2, rho=0.2,
                                                     seed=3))
    if pipeline == "cdp":
        res = alm_solve_cdp(build_balanced_cut_cdp(problem), x0)
    else:
        res = alm_solve_nlp_direct(problem, x0)
    assert res.status == "converged"
    assert res.multipliers.rho.shape == (n_rho,)
    assert res.multipliers.lam.shape == (2,)
    assert res.multipliers.mu.shape == (0,)


def _equality_quadratic():
    """min 1/2 x^T H x - b^T x  s.t.  a^T x = 1, no manifold block (the
    euclidean handle, p = 0), and its closed-form solution (1, 0)."""
    H = np.diag([2.0, 5.0])
    b = np.array([1.0, -1.0])
    a = np.array([1.0, 1.0])
    handle = make_handle("euclidean", n=2)
    problem = ProblemSpec(
        manifold=handle,
        eval_f=lambda x: 0.5 * float(x @ H @ x) - float(b @ x),
        grad_f=lambda x: H @ x - b,
        n_eq=1,
        eval_u=lambda x: np.array([float(a @ x) - 1.0]),
        apply_JuT=lambda x, d: np.array([float(a @ d)]),
        apply_Ju=lambda x, w: float(np.asarray(w).ravel()[0]) * a,
        name="equality_quadratic")
    K = np.block([[H, a[:, None]], [a[None, :], np.zeros((1, 1))]])
    return problem, np.linalg.solve(K, np.concatenate([b, [1.0]]))[:2]


class TestAlmDirect:
    def test_quadratic_with_single_linear_equality_matches_closed_form(self):
        problem, sol = _equality_quadratic()
        tight = AlmOptions(outer_tol_stationarity=1e-10,
                           outer_tol_feasibility=1e-10)
        res = alm_solve_nlp_direct(problem, np.zeros(2), tight)
        assert res.status == "converged"
        assert np.allclose(res.x_final, sol, atol=1e-8)

    def test_transformed_pipeline_without_manifold_constraint(self):
        # With p = 0 there is no beta bound to adapt to: the safeguard
        # stays off instead of dividing by sigma_min(Jc)^2 = 0.
        problem, sol = _equality_quadratic()
        r1 = alm_solve_cdp(build_cdp(problem, PenaltyParams(beta=1.0)),
                           np.zeros(2))
        r2 = alm_solve_nlp_direct(problem, np.zeros(2))
        assert r1.status == r2.status == "converged"
        assert r1.objective == pytest.approx(r2.objective, rel=1e-6)
        assert np.max(np.abs(r1.x_final - sol)) <= 1e-6

    def test_infeasible_equality_clips_its_multiplier(self):
        # u = x^2 + 1 never vanishes, so lambda grows without bound until
        # the clip holds it at MULTIPLIER_CLIP.
        problem = ProblemSpec(
            manifold=make_handle("euclidean", n=1),
            eval_f=lambda x: float(x @ x), grad_f=lambda x: 2.0 * x,
            n_eq=1, eval_u=lambda x: np.array([float(x @ x) + 1.0]),
            apply_JuT=lambda x, d: np.array([2.0 * float(x @ d)]),
            apply_Ju=lambda x, w: 2.0 * float(np.ravel(w)[0]) * x,
            name="infeasible_equality")
        res = alm_solve_nlp_direct(problem, np.array([0.5]),
                                   AlmOptions(max_outer=10))
        assert res.status == "max_iter"
        notes = [row.note for row in res.trace.rows]
        assert notes[8:] == ["multiplier_clipped"] * 2
        assert "multiplier_clipped" not in notes[:8]
        assert np.array_equal(res.multipliers.lam, [MULTIPLIER_CLIP])

    def test_infeasible_start_on_sphere_recovers_feasibility(self):
        problem = linear_objective_sphere_problem(5, seed=7)
        res = alm_solve_nlp_direct(problem, 3.0 * np.ones(5))
        assert res.status == "converged"
        assert res.kkt.feasibility <= 1e-6

    def test_agrees_with_transformed_pipeline_on_sphere(self):
        problem = linear_objective_sphere_problem(6, seed=8)
        x0 = np.zeros(6)
        x0[0] = 1.0
        inst = build_cdp(problem, PenaltyParams(beta=10.0))
        r1 = alm_solve_cdp(inst, x0)
        r2 = alm_solve_nlp_direct(problem, x0)
        assert r1.status == r2.status == "converged"
        assert r1.objective == pytest.approx(r2.objective, rel=1e-6)

    def test_agrees_with_transformed_pipeline_on_active_inequality(self):
        # The ball ||x - s*||^2 <= r is active at the solution, so the
        # direct pipeline's gradient takes its Jv term.
        problem, x0 = gen_center_of_mass(
            CenterOfMassConfig(m=6, q=2, N=5, r=0.001, seed=0))
        r1 = alm_solve_cdp(build_cdp(problem, PenaltyParams(beta=1.0)), x0)
        r2 = alm_solve_nlp_direct(problem, x0)
        assert r1.status == r2.status == "converged"
        assert r1.objective == pytest.approx(r2.objective, rel=1e-6)
        assert r2.multipliers.mu[0] > 0
        assert r1.multipliers.mu == pytest.approx(r2.multipliers.mu,
                                                  abs=1e-4)

    def test_unbounded_objective_ends_diverged(self):
        # f = -||x||^2 is -inf beyond radius 2, so the first inner solve
        # runs off to a point where its value is not finite.
        def f(x):
            r2 = float(x @ x)
            return -r2 if r2 <= 4.0 else -np.inf

        problem = ProblemSpec(manifold=make_handle("euclidean", n=2),
                              eval_f=f, grad_f=lambda x: -2.0 * x,
                              name="unbounded_below")
        x0 = np.array([0.5, 0.1])
        with np.errstate(over="ignore"):
            res = alm_solve_nlp_direct(problem, x0)
            assert not np.isfinite(f(res.x_final))
        assert res.status == "diverged"
        assert all(row.inner_status != "converged" for row in res.trace.rows)
        # The report is the last finite iterate's: here the start.
        assert np.array_equal(res.x_postprocessed, x0)
        assert res.objective == f(x0)


def test_wrong_way_gradient_ends_in_inner_failure():
    # grad_f = -g for f = g.x: every inner line search fails at once, and
    # the second failure without progress of the outer residual stops the
    # solve.
    problem = linear_objective_sphere_problem(3)
    g = problem.grad_f(np.zeros(3))
    wrong = dataclasses.replace(problem, grad_f=lambda x: -g)
    x0 = np.eye(3)[0]
    for res in (alm_solve_cdp(build_cdp(wrong, PenaltyParams(beta=10.0)), x0),
                alm_solve_nlp_direct(wrong, x0)):
        assert res.status == "inner_failure"
        assert [(row.inner_status, row.inner_iterations)
                for row in res.trace.rows] == [("line_search_failure", 0)] * 3
