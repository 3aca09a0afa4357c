import ast
import dataclasses
import importlib
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import cdpkit
from cdpkit import load_problem
from cdpkit.core import (
    ConfigurationError,
    DegenerateStepError,
    EvaluatorFaultError,
    DimensionError,
    MultiplierSet,
    ParameterError,
    PenaltyParams,
    SolveTrace,
    TraceRow,
    default_fd_step,
    finite_diff_check,
    gradient_action,
)
from cdpkit.diagnostics import FEASIBILITY_TOL, validate_manifold
from cdpkit.dissolve import a_infinity, build_cdp
from cdpkit.manifolds import make_handle, symplectic_canonical_point

from conftest import (
    _within_ulps,
    counting_jc_reads,
    near_manifold_points,
    sphere_constraint_spec,
)


class TestExports:
    def test_every_exported_name_resolves(self):
        # A name removed from a module but left in an __all__ would only
        # fail at a star import.
        modules = [cdpkit] + [
            importlib.import_module(f"cdpkit.{info.name}")
            for info in pkgutil.iter_modules(cdpkit.__path__)]
        assert len(modules) > 1
        for module in modules:
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestDomainTypes:
    def test_penalty_params_reject_negative_entries(self):
        with pytest.raises(ParameterError):
            PenaltyParams(beta=-1.0)
        with pytest.raises(ParameterError):
            PenaltyParams(beta=1.0, gamma=np.array([-0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_penalty_params_reject_non_finite_entries(self, bad):
        # NaN passes a "< 0" test and inf a ">= 0" one.
        with pytest.raises(ParameterError):
            PenaltyParams(beta=bad)
        with pytest.raises(ParameterError):
            PenaltyParams(beta=1.0, tau=np.array([0.5, bad]))
        with pytest.raises(ParameterError):
            PenaltyParams(beta=1.0, gamma=np.array([bad]))

    def test_multiplier_set_requires_nonnegative_mu(self):
        with pytest.raises(ParameterError):
            MultiplierSet(rho=np.zeros(1), lam=np.zeros(0), mu=np.array([-1.0]))

    def test_trace_iterations_strictly_increasing(self):
        trace = SolveTrace()
        trace.append(TraceRow(1, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0))
        with pytest.raises(ParameterError):
            trace.append(TraceRow(1, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0))

    def test_row_blocks_with_one_constraint_per_row_only(self):
        handle = make_handle("oblique", m=3, q=2)
        with pytest.raises(DimensionError):
            dataclasses.replace(handle, p=2)
        with pytest.raises(DimensionError):
            dataclasses.replace(handle, row_blocks=(2, 3))

    def test_shape_must_hold_n_entries(self):
        # A handle whose row_blocks disagree with n would fail later,
        # inside numpy, when a reader reshapes by them.
        with pytest.raises(DimensionError):
            dataclasses.replace(make_handle("oblique", m=4, q=3),
                                row_blocks=(4, 2))

    def test_trace_key_fields_exclude_wall_time(self):
        a = TraceRow(1, -1.0, 1e-7, 1e-7, 1.0, 10.0, 0.1, 0.5)
        b = TraceRow(1, -1.0, 1e-7, 1e-7, 1.0, 10.0, 0.1, 99.0)
        assert a.key_fields() == b.key_fields()
        # Every other field is in the key, once: a row whose fields all
        # hold distinct values names each key entry's field.
        names = [f.name for f in dataclasses.fields(TraceRow)]
        row = TraceRow(**{name: f"value of {name}" for name in names})
        keyed = [value.removeprefix("value of ") for value in row.key_fields()]
        assert sorted(keyed) == sorted(set(names) - {"wall_time"})

    def test_trace_csv_has_one_column_per_row_field(self):
        assert sorted(SolveTrace.CSV_COLUMNS.values()) == sorted(
            f.name for f in dataclasses.fields(TraceRow))


# The package's modules in import order: each may import only modules
# before it.  ``__init__`` re-exports from all of them.
LAYERS = ("core", "manifolds", "dissolve", "diagnostics", "solver", "bench",
          "cli")


class TestModuleLayers:
    def test_modules_import_only_earlier_layers(self):
        src = Path(cdpkit.__file__).parent
        assert sorted(path.stem for path in src.glob("*.py")) == sorted(
            LAYERS + ("__init__",))
        for layer, name in enumerate(LAYERS):
            tree = ast.parse((src / f"{name}.py").read_text())
            for node in ast.walk(tree):
                if not (isinstance(node, ast.ImportFrom) and node.level):
                    continue
                targets = ([node.module] if node.module
                           else [alias.name for alias in node.names])
                for target in targets:
                    assert LAYERS.index(target.split(".")[0]) < layer, (
                        f"{name} imports {target}")

    def test_diagnostics_reads_evaluators_only_through_its_reader(self):
        # One checked reader per point: outside _Reader and its view no
        # code in diagnostics names a problem's or a handle's evaluator
        # (make_synthetic_kkt passes its own as keywords, not attributes).
        tree = ast.parse((Path(cdpkit.__file__).parent
                          / "diagnostics.py").read_text())
        evaluators = {"eval_c", "eval_u", "eval_v", "grad_f", "apply_Jc",
                      "apply_Ju", "apply_Jv", "jacobian", "point", "eval_A",
                      "apply_JAT", "apply_JcT"}
        readers = {"_Reader", "_PointView"}
        assert readers <= {node.name for node in tree.body
                           if isinstance(node, ast.ClassDef)}
        named = sorted(
            f"{top.name}: {node.attr}" for top in tree.body
            if getattr(top, "name", None) not in readers
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr in evaluators)
        assert named == []

    def test_one_read_check_raises_evaluator_faults(self):
        # The rule "this shape, finite entries, else a typed error naming
        # the evaluator" is written once: every EvaluatorFaultError in the
        # package is raised by core's _check_read.
        sites = [site for site, node in _package_nodes()
                 if isinstance(node, ast.Raise) and node.exc is not None
                 and "EvaluatorFaultError" in ast.unparse(node.exc)]
        assert sites == ["core._check_read"]

    def test_one_guarded_cholesky_tests_gram_rank(self):
        # The rank test of a Gram matrix is written once: LAPACK's
        # Cholesky and its condition estimate are called only in core's
        # _guarded_cholesky, and no eigenvalue solve stands in for it.
        names = [(site, node.attr if isinstance(node, ast.Attribute)
                  else node.id) for site, node in _package_nodes()
                 if isinstance(node, (ast.Attribute, ast.Name))]
        assert [name for _, name in names if name == "eigvalsh"] == []
        assert sorted({site for site, name in names
                       if name in ("dpotrf", "dpocon")}) == [
            "core._guarded_cholesky"]


def _package_nodes():
    """(site, node) for every ast node of the package's modules, with site
    ``module.function`` naming the node's innermost enclosing function."""
    for path in sorted(Path(cdpkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        # Each node's innermost enclosing function: walks go outside in.
        owner = {node: fn.name for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            yield f"{path.stem}.{owner.get(node, '<module>')}", node


def _validation_case(family):
    """A handle of the family and a feasible base point."""
    if family == "oblique":
        handle = make_handle("oblique", m=5, q=3)
        X = np.random.default_rng(0).standard_normal((5, 3))
        return handle, (X / np.linalg.norm(X, axis=1, keepdims=True)).ravel()
    if family == "symplectic_stiefel":
        return (make_handle(family, m=8, q=4),
                symplectic_canonical_point(8, 4).ravel())
    if family == "sphere":
        return make_handle("sphere", n=6), np.eye(6)[0]
    if family == "generic":
        return (make_handle("generic", spec=sphere_constraint_spec(8)),
                np.eye(8)[0])
    return make_handle("euclidean", n=4), np.ones(4)


def _dense_product_norm(handle, probes):
    """The largest spectral norm of J_A^T(x) Jc(x) over the probes, each
    projected as ``validate_manifold`` projects it, from the dense n x p
    ``jacobian`` read with each column pushed through the state's ``jat``:
    the reference for the block reader."""
    norm = 0.0
    for probe in probes:
        x = probe
        if np.linalg.norm(handle.eval_c(x)) > FEASIBILITY_TOL:
            x = a_infinity(handle, x, tol=FEASIBILITY_TOL)
        pt = handle.point(x)
        cols = np.array([pt.jat(col) for col in handle.jacobian(x).T]).T
        if handle.p > 0:
            norm = max(norm, float(np.linalg.norm(cols, 2)))
    return norm


class TestValidateManifold:
    def test_oblique_feasible_probe_is_fixed_exactly(self):
        handle = make_handle("oblique", m=5, q=3)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        report = validate_manifold(handle, [X.ravel()], tol=1e-10)
        assert report.passed
        assert report.max_fixed_point_error == 0.0

    def test_sphere_basis_vector_passes(self):
        handle = make_handle("sphere", n=4)
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        report = validate_manifold(handle, [e1], tol=1e-10)
        assert report.passed

    def test_probe_that_cannot_be_projected_is_skipped_with_a_note(self):
        # A maps an all-zero oblique row to itself, so ||c|| stalls at 1.
        handle = make_handle("oblique", m=4, q=2)
        rng = np.random.default_rng(1)
        X = rng.standard_normal((4, 2))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        stuck = X + 0.05 * rng.standard_normal((4, 2))
        stuck[2] = 0.0
        report = validate_manifold(handle, [X.ravel(), stuck.ravel()], tol=1e-10)
        assert report.probes_used == 1
        assert report.passed
        assert len(report.notes) == 1
        assert report.notes[0].startswith("probe 1 skipped")

    def test_forward_action_that_is_not_the_adjoint_fails(self):
        handle = make_handle("oblique", m=5, q=3)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        assert validate_manifold(handle, [X.ravel()], tol=1e-10).passed

        class ScaledPoint:
            """The handle's state with its forward action scaled by 1.01."""

            def __init__(self, x):
                self.state = handle.point(x)

            def __getattr__(self, name):
                return getattr(self.state, name)

            def ja(self, d):
                return 1.01 * self.state.ja(d)

        scaled = dataclasses.replace(handle, point=ScaledPoint)
        report = validate_manifold(scaled, [X.ravel()], tol=1e-10)
        assert not report.passed
        assert report.max_adjoint_error > 1e-4
        assert report.max_fixed_point_error == 0.0

    @pytest.mark.parametrize("family, reads", [
        ("oblique", (0, 3)), ("symplectic_stiefel", (3, 0))],
        ids=["oblique", "symplectic_stiefel"])
    def test_one_jacobian_read_per_used_probe(self, family, reads):
        # A row-block handle gives Jc in one apply_Jc action per probe and
        # no dense n x p read; any other handle in one dense Jc read, not p
        # apply_Jc columns.
        handle, base = _validation_case(family)
        counted, taken = counting_jc_reads(handle)
        probes = near_manifold_points(handle, base, 3, 0.01, seed=2)
        report = validate_manifold(counted, probes, tol=1e-8)
        assert report.probes_used == 3 and report.passed
        assert taken() == reads

    @pytest.mark.parametrize("family", ["oblique", "sphere",
                                        "symplectic_stiefel", "generic",
                                        "euclidean"])
    def test_product_norm_matches_the_dense_reference(self, family):
        # Per-row blocks, or a one-column block's column norm, against the
        # SVD of the dense product; with p = 0 both are exactly 0.0.
        handle, base = _validation_case(family)
        probes = near_manifold_points(handle, base, 5, 0.02, seed=4)
        report = validate_manifold(handle, probes, tol=1e-8)
        assert report.probes_used == 5 and report.passed
        assert _within_ulps(report.max_jacobian_product_norm,
                            _dense_product_norm(handle, probes), 8)

    @pytest.mark.parametrize("what, bad, error", [
        ("eval_c", "short", DimensionError),
        ("eval_c", "nan", EvaluatorFaultError),
        ("eval_A", "short", DimensionError),
        ("eval_A", "nan", EvaluatorFaultError),
        ("Jacobian action", "nan", EvaluatorFaultError)])
    def test_bad_read_is_named_with_its_probe(self, what, bad, error):
        # The sphere in R^4 at e1 and e2, with c(x), A(x) or the forward
        # action bad at e2 only: not a short c read as a norm.
        handle = make_handle("sphere", n=4)

        def fault(name, value, x):
            if name != what or x[1] != 1.0:
                return value
            return value[:-1] if bad == "short" else np.full(value.shape,
                                                              np.nan)

        class BadPoint:
            def __init__(self, x):
                self.x, self.state = x, handle.point(x)
                self.ax = fault("eval_A", self.state.ax, x)

            def __getattr__(self, name):
                return getattr(self.state, name)

            def ja(self, d):
                return fault("Jacobian action", self.state.ja(d), self.x)

        bad_handle = dataclasses.replace(
            handle, eval_c=lambda x: fault("eval_c", handle.eval_c(x), x),
            point=BadPoint)
        with pytest.raises(error, match=f"{what} at probe 1"):
            validate_manifold(bad_handle, list(np.eye(4)[:2]), tol=1e-8)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_positive(self, tol):
        # No report could pass, so a bad tol is a usage error, not a
        # failed check.
        handle = make_handle("sphere", n=4)
        with pytest.raises(ParameterError):
            validate_manifold(handle, [np.array([1.0, 0.0, 0.0, 0.0])], tol)

    def test_generic_gauss_newton_on_sphere_constraint(self):
        handle = make_handle("generic", spec=sphere_constraint_spec(8))
        base = np.zeros(8)
        base[0] = 1.0
        probes = near_manifold_points(handle, base, 50, 0.05, seed=3)
        report = validate_manifold(handle, probes, tol=1e-9)
        assert report.passed
        assert report.max_fixed_point_error <= 1e-9
        assert report.max_jacobian_product_norm <= 1e-9
        assert report.max_adjoint_error <= 1e-14


class TestFiniteDiffCheck:
    def test_quadratic_is_exactly_differenced(self):
        f = lambda x: float(np.dot(x, x))
        action = gradient_action(lambda x: 2.0 * x)
        x = np.array([0.3, -1.2, 0.7])
        assert finite_diff_check(f, action, x, step=1e-5) <= 1e-9

    def test_constant_function_has_zero_error(self):
        f = lambda x: 3.5
        action = gradient_action(lambda x: np.zeros_like(x))
        assert finite_diff_check(f, action, np.ones(4), step=1e-5) == 0.0

    def test_transformed_objective_gradient_matches_differences(self):
        problem = load_problem(
            {"family": "center_of_mass", "m": 6, "q": 2, "N": 5,
             "r": 0.5, "seed": 2})
        inst = build_cdp(problem, PenaltyParams(beta=1.0))
        rng = np.random.default_rng(4)
        x = rng.standard_normal(problem.n) * 0.1
        x[0] = 1.0
        err = finite_diff_check(
            lambda y: inst.point_eval(y).h,
            gradient_action(lambda y: inst.point_eval(y).weighted_grad()),
            x, step=default_fd_step(x))
        assert err <= 1e-6

    def test_underflowing_step_is_rejected(self):
        f = lambda x: float(np.dot(x, x))
        action = gradient_action(lambda x: 2.0 * x)
        with pytest.raises(DegenerateStepError):
            finite_diff_check(f, action, np.ones(3), step=1e-15)


class TestLoadProblem:
    def test_balanced_cut_dimensions(self):
        p = load_problem({"family": "balanced_cut", "m": 50, "q": 2,
                          "rho": 0.1, "seed": 7})
        assert (p.n, p.p, p.n_eq, p.n_ineq) == (100, 50, 2, 0)

    def test_center_of_mass_dimensions(self):
        p = load_problem({"family": "center_of_mass", "m": 50, "q": 10,
                          "N": 1000, "r": 0.01, "seed": 1})
        assert (p.n_eq, p.n_ineq) == (0, 1)
        assert p.n == 500

    def test_missing_field_reports_dotted_path(self):
        with pytest.raises(ConfigurationError) as exc:
            load_problem({"family": "balanced_cut", "q": 2, "rho": 0.1,
                          "seed": 7})
        assert "family.m" in str(exc.value)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            load_problem({"family": "does_not_exist"})

    def test_unknown_field_reports_dotted_path(self):
        with pytest.raises(ConfigurationError) as exc:
            load_problem({"family": "balanced_cut", "m": 10, "q": 2,
                          "rho": 0.3, "seed": 1, "bta": 50.0})
        assert exc.value.path == "family.bta"

    def test_yaml_string_accepted(self):
        p = load_problem("family: balanced_cut\nm: 10\nq: 2\nrho: 0.3\nseed: 1\n")
        assert p.n == 20

    def test_long_one_line_string_is_parsed_as_a_document(self):
        # Longer than a file name may be: the file check must not raise.
        doc = {"family": "balanced_cut", "m": 10, "q": 2, "rho": 0.3,
               "seed": 1}
        p = load_problem(json.dumps(doc) + " " * 300)
        assert p.name == load_problem(doc).name

    def test_deterministic_across_calls(self):
        doc = {"family": "balanced_cut", "m": 20, "q": 2, "rho": 0.2, "seed": 5}
        p1 = load_problem(doc)
        p2 = load_problem(doc)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(p1.n)
        assert p1.eval_f(x) == p2.eval_f(x)
        assert np.array_equal(p1.grad_f(x), p2.grad_f(x))
        assert np.array_equal(p1.eval_u(x), p2.eval_u(x))


def test_default_fd_step_scales_with_point_norm():
    assert default_fd_step(np.zeros(3)) == pytest.approx(1e-6)
    assert default_fd_step(3.0 * np.ones(3) / np.sqrt(3)) == pytest.approx(4e-6)
