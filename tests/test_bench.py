import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdpkit.core import (
    ConfigurationError,
    DimensionError,
    MultiplierSet,
    ParameterError,
    PenaltyParams,
    ProblemSpec,
    validate_manifold,
)
from cdpkit.bench import (
    BalancedCutConfig,
    CenterOfMassConfig,
    RunRecord,
    build_balanced_cut_cdp,
    gen_balanced_cut,
    gen_center_of_mass,
    problem_config,
    records_to_csv,
    records_to_markdown,
    run_experiment,
)
from cdpkit.diagnostics import check_licq, kkt_residual
from cdpkit.manifolds import make_handle, symplectic_form
from cdpkit.solver import AlmOptions, alm_solve_cdp
from cdpkit.dissolve import build_cdp


class TestConfigs:
    def test_center_of_mass_requires_even_dimensions(self):
        with pytest.raises(DimensionError):
            CenterOfMassConfig(m=7, q=4, N=10, r=0.1, seed=0)
        with pytest.raises(DimensionError):
            CenterOfMassConfig(m=8, q=3, N=10, r=0.1, seed=0)

    def test_center_of_mass_requires_positive_counts(self):
        with pytest.raises(ParameterError):
            CenterOfMassConfig(m=8, q=4, N=0, r=0.1, seed=0)
        with pytest.raises(ParameterError):
            CenterOfMassConfig(m=8, q=4, N=10, r=0.0, seed=0)

    def test_balanced_cut_requires_valid_edge_probability(self):
        with pytest.raises(ParameterError):
            BalancedCutConfig(m=10, q=2, rho=0.0, seed=0)
        with pytest.raises(ParameterError):
            BalancedCutConfig(m=10, q=2, rho=1.0, seed=0)


_VALID_DOCS = {
    "center_of_mass": {"family": "center_of_mass", "m": 8, "q": 4, "N": 10,
                       "r": 0.1, "seed": 0},
    "balanced_cut": {"family": "balanced_cut", "m": 10, "q": 2, "rho": 0.3,
                     "seed": 0},
}
_INT_FIELDS = [(family, key) for family, fields in
               [("center_of_mass", ("m", "q", "N", "seed")),
                ("balanced_cut", ("m", "q", "seed"))] for key in fields]


class TestConfigIngestion:
    @settings(max_examples=200, deadline=None)
    @given(target=st.sampled_from(_INT_FIELDS),
           value=st.one_of(st.booleans(), st.integers(-10 ** 6, 10 ** 6),
                           st.floats(allow_nan=True, allow_infinity=True)))
    def test_int_fields_take_integers_only(self, target, value):
        # A value reaches an int field unchanged or is refused: a bool or a
        # non-integral number names its field, an integral one may fail
        # only the family's own checks.
        family, key = target
        doc = dict(_VALID_DOCS[family], **{key: value})
        integral = (not isinstance(value, bool)
                    and float(value).is_integer())
        try:
            cfg = problem_config(doc)
        except ConfigurationError as exc:
            if not integral:
                assert exc.path == f"family.{key}"
            return
        assert integral
        assert getattr(cfg, key) == value
        assert type(getattr(cfg, key)) is int

    @pytest.mark.parametrize("value", [8.7, True, False, float("inf")])
    def test_named_values_are_refused(self, value):
        doc = dict(_VALID_DOCS["center_of_mass"], m=value)
        with pytest.raises(ConfigurationError) as exc:
            problem_config(doc)
        assert exc.value.path == "family.m"

    def test_integral_float_is_accepted(self):
        assert problem_config(dict(_VALID_DOCS["balanced_cut"], m=12.0)).m == 12

    @pytest.mark.parametrize("family", sorted(_VALID_DOCS))
    def test_negative_seed_is_refused(self, family):
        # numpy's generators take only non-negative seeds.
        with pytest.raises(ConfigurationError) as exc:
            problem_config(dict(_VALID_DOCS[family], seed=-1))
        assert exc.value.path == f"family.{family}"


class TestCenterOfMass:
    def test_instance_is_feasible_and_qualified_at_start(self):
        problem, s_star = gen_center_of_mass(
            CenterOfMassConfig(m=20, q=4, N=100, r=0.01, seed=1))
        handle = problem.manifold
        assert np.linalg.norm(handle.eval_c(s_star)) <= 1e-10
        assert validate_manifold(handle, [s_star], tol=1e-8).passed
        assert check_licq(problem, s_star)

    def test_single_sample_at_anchor_is_minimized_at_anchor(self):
        # hand-built variant: one sample placed exactly at the anchor point
        handle = make_handle("symplectic_stiefel", m=4, q=2)
        _, s_star = gen_center_of_mass(
            CenterOfMassConfig(m=4, q=2, N=1, r=1.0, seed=0))
        problem = ProblemSpec(
            manifold=handle,
            eval_f=lambda x: float(np.dot(x - s_star, x - s_star)),
            grad_f=lambda x: 2.0 * (x - s_star),
            n_ineq=1,
            eval_v=lambda x: np.array(
                [float(np.dot(x - s_star, x - s_star)) - 1.0]),
            apply_JvT=lambda x, d: np.array(
                [2.0 * float(np.dot(x - s_star, d))]),
            apply_Jv=lambda x, w: 2.0 * float(np.asarray(w).ravel()[0])
            * (x - s_star),
            name="single_sample")
        inst = build_cdp(problem, PenaltyParams(beta=1.0))
        res = alm_solve_cdp(inst, s_star)
        assert res.status == "converged"
        assert np.linalg.norm(res.x_postprocessed - s_star) <= 1e-5

    def test_interior_optimum_has_zero_inequality_multiplier(self):
        # samples coincide with the anchor, so the ball constraint stays
        # inactive and its multiplier vanishes
        problem, s_star = gen_center_of_mass(
            CenterOfMassConfig(m=4, q=2, N=1, r=1.0, seed=0))
        inst = build_cdp(problem, PenaltyParams(beta=1.0))
        res = alm_solve_cdp(inst, s_star)
        assert res.status == "converged"
        v = problem.eval_v(res.x_postprocessed)
        if v[0] < -1e-8:  # interior
            assert res.kkt.multipliers.mu[0] <= 1e-6

    def test_start_point_satisfies_symplectic_constraint(self):
        cfg = CenterOfMassConfig(m=8, q=4, N=5, r=0.1, seed=2)
        problem, s_star = gen_center_of_mass(cfg)
        X = s_star.reshape(8, 4)
        res = X.T @ symplectic_form(8) @ X - symplectic_form(4)
        assert np.linalg.norm(res) <= 1e-10


class TestBalancedCut:
    def test_near_zero_edge_probability_gives_zero_laplacian(self):
        problem, x0 = gen_balanced_cut(
            BalancedCutConfig(m=8, q=2, rho=1e-12, seed=0))
        L = problem._laplacian
        assert np.all(L == 0.0)
        assert problem.eval_f(x0) == 0.0

    def test_complete_graph_two_vertices_hand_value(self):
        problem, _ = gen_balanced_cut(
            BalancedCutConfig(m=2, q=1, rho=1.0 - 1e-12, seed=0))
        L = problem._laplacian
        assert np.array_equal(L, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        x = np.array([1.0, -1.0])
        assert problem.eval_f(x) == pytest.approx(-1.0)
        assert np.allclose(problem.eval_u(x), 0.0)

    def test_laplacian_structure(self):
        problem, _ = gen_balanced_cut(BalancedCutConfig(m=50, q=2, rho=0.1,
                                                        seed=7))
        L = problem._laplacian
        assert np.allclose(L @ np.ones(50), 0.0)
        assert np.array_equal(L, L.T)
        assert np.linalg.eigvalsh(L).min() >= -1e-10

    def test_initial_point_has_unit_rows(self):
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=12, q=3, rho=0.3,
                                                         seed=1))
        X = x0.reshape(12, 3)
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0)

    def test_identical_seeds_give_identical_instances(self):
        cfg = BalancedCutConfig(m=15, q=2, rho=0.2, seed=9)
        p1, x1 = gen_balanced_cut(cfg)
        p2, x2 = gen_balanced_cut(cfg)
        assert np.array_equal(x1, x2)
        assert np.array_equal(p1._laplacian, p2._laplacian)
        rng = np.random.default_rng(0)
        y = rng.standard_normal(p1.n)
        assert p1.eval_f(y) == p2.eval_f(y)

    def test_transformed_objective_matches_straight_line_recomputation(self):
        problem, _ = gen_balanced_cut(BalancedCutConfig(m=10, q=2, rho=0.3,
                                                        seed=2))
        inst = build_balanced_cut_cdp(problem)
        rng = np.random.default_rng(3)
        y = rng.standard_normal(problem.n)
        handle = problem.manifold
        cy = handle.eval_c(y)
        expected = problem.eval_f(handle.eval_A(y)) \
            + 0.5 * inst.params.beta * float(np.dot(cy, cy))
        assert inst.point_eval(y).h == pytest.approx(expected, abs=1e-12)

    def test_feasible_point_collapses_to_objective(self):
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=10, q=2, rho=0.3,
                                                         seed=2))
        inst = build_balanced_cut_cdp(problem)
        assert inst.point_eval(x0).h == pytest.approx(problem.eval_f(x0),
                                                      abs=1e-14)

    def test_zero_beta_is_plain_composition(self):
        problem, _ = gen_balanced_cut(BalancedCutConfig(m=10, q=2, rho=0.3,
                                                        seed=2))
        inst = build_balanced_cut_cdp(problem, beta=0.0)
        rng = np.random.default_rng(4)
        y = rng.standard_normal(problem.n)
        assert inst.point_eval(y).h == problem.eval_f(
            problem.manifold.eval_A(y))


class TestRunExperiment:
    def test_single_instance_yields_two_converged_records(self):
        grid = [BalancedCutConfig(m=8, q=2, rho=0.3, seed=1)]
        records = run_experiment(grid, budget=60.0)
        assert len(records) == 2
        assert {r.pipeline for r in records} == {"cdp", "nlp"}
        assert all(r.status == "converged" for r in records)

    def test_failures_are_recorded_per_row(self):
        # A config that cannot generate fills both rows; a cdp solve that
        # raises fills its own row and leaves the nlp row alone.
        grid = ["not a config",
                BalancedCutConfig(m=10, q=2, rho=0.3, seed=3, beta=0.0)]
        bad, bad_nlp, cdp, nlp = run_experiment(grid)
        for rec, pipe in ((bad, "cdp"), (bad_nlp, "nlp")):
            assert (rec.problem_id, rec.pipeline) == ("not a config", pipe)
            assert rec.status == ("generation_error: unknown config type "
                                  "<class 'str'>")
            assert np.isnan(rec.objective)
        assert cdp.status.startswith("error: beta = 0 cannot adapt")
        assert np.isnan(cdp.objective)
        assert nlp.status == "converged"

    def test_exhausted_budget_is_recorded_not_raised(self):
        grid = [BalancedCutConfig(m=40, q=2, rho=0.2, seed=2)]
        records = run_experiment(grid, budget=1e-9)
        assert len(records) == 2
        assert all(r.status in ("max_time", "converged") for r in records)
        assert any(r.status == "max_time" for r in records)

    def test_markdown_shows_status_of_each_pipeline(self):
        grid = [BalancedCutConfig(m=40, q=2, rho=0.2, seed=2)]
        records = run_experiment(grid, budget=1e-9)
        header, _, row = records_to_markdown(records).splitlines()
        names = [c.strip() for c in header.strip("|").split("|")]
        cells = [c.strip() for c in row.strip("|").split("|")]
        shown = {pipe: cells[names.index(f"status ({pipe})")]
                 for pipe in ("cdp", "nlp")}
        assert shown == {r.pipeline: r.status for r in records}
        assert "max_time" in shown.values()

    def test_csv_and_markdown_emission(self):
        grid = [BalancedCutConfig(m=8, q=2, rho=0.3, seed=1)]
        records = run_experiment(grid, budget=60.0)
        lines = records_to_csv(records).strip().splitlines()
        assert lines[0].split(",") == ["problem", "pipeline", "fval",
                                       "stationarity", "feasibility", "time",
                                       "status"]
        assert len(lines) == 3
        table = records_to_markdown(records).splitlines()
        assert len({len(line) for line in table}) == 1  # aligned columns

    def test_report_text_is_fixed_byte_for_byte(self):
        records = [
            RunRecord("cut(m=8)", "cdp", -1.25, 3e-7, 0.0, 0.5, "converged"),
            RunRecord("cut(m=8)", "nlp", np.nan, np.nan, 2.5e-3, 12.0,
                      "error: a, b"),
        ]
        assert records_to_csv(records) == (
            "problem,pipeline,fval,stationarity,feasibility,time,status\n"
            "cut(m=8),cdp,-1.25,3e-07,0.0,0.5,converged\n"
            'cut(m=8),nlp,nan,nan,0.0025,12.0,"error: a, b"\n')
        assert records_to_markdown(records) == (
            "| problem  | fval (cdp) | fval (nlp) | stat (cdp) | stat (nlp) "
            "| feas (cdp) | feas (nlp) | time (cdp) | time (nlp) "
            "| status (cdp) | status (nlp) |\n"
            "|----------|------------|------------|------------|------------"
            "|------------|------------|------------|------------"
            "|--------------|--------------|\n"
            "| cut(m=8) | -1.250e+00 | nan        | 3.000e-07  | nan        "
            "| 0.000e+00  | 2.500e-03  | 5.000e-01  | 1.200e+01  "
            "| converged    | error: a, b  |\n")
