import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cdpkit.core import (
    DimensionError,
    EvaluatorFaultError,
    MultiplierSet,
    ParameterError,
    PenaltyParams,
    ProblemSpec,
    RankDeficiencyError,
    _dense_columns,
)
from cdpkit.bench import (
    BalancedCutConfig,
    CenterOfMassConfig,
    gen_balanced_cut,
    gen_center_of_mass,
)
from cdpkit import diagnostics
from cdpkit.diagnostics import (
    LANCZOS_MAX_STEPS,
    SAFETY,
    ConstantEstimates,
    _Reader,
    _ball,
    _bound_constants,
    check_condition,
    check_licq,
    estimate_constants,
    feasibility,
    kkt_residual,
    make_synthetic_kkt,
    validate_manifold,
)
from cdpkit.dissolve import a_infinity, build_cdp, lagrangian_decrease_probe
from cdpkit.manifolds import GenericManifoldSpec, make_handle, symplectic_spec
from cdpkit.solver import alm_solve_cdp, alm_solve_nlp_direct

from conftest import (
    BAD_POINTS,
    _within_ulps,
    bad_cut_point,
    counting_jc_reads,
    faulty_sphere_problem,
    linear_objective_sphere_problem,
    sphere_constraint_spec,
)


def _euclidean_quadratic(n=4, seed=0, with_v=False):
    rng = np.random.default_rng(seed)
    x_star = rng.standard_normal(n)
    handle = make_handle("euclidean", n=n)
    kwargs = {}
    if with_v:
        kwargs = dict(
            n_ineq=1,
            eval_v=lambda x: np.array([x[0] - x_star[0]]),
            apply_JvT=lambda x, d: np.array([d[0]]),
            apply_Jv=lambda x, w: float(np.asarray(w).ravel()[0]) * np.eye(n)[0])
    return ProblemSpec(
        manifold=handle,
        eval_f=lambda x: 0.5 * float(np.dot(x - x_star, x - x_star)),
        grad_f=lambda x: x - x_star,
        name="euclidean_quadratic", **kwargs), x_star


class TestFeasibility:
    def test_feasible_point_scores_zero(self):
        problem = linear_objective_sphere_problem(4)
        x = np.zeros(4)
        x[0] = 1.0
        assert feasibility(problem, x) == 0.0

    def test_sphere_violation_is_constraint_magnitude(self):
        problem = linear_objective_sphere_problem(4)
        x = np.zeros(4)
        x[0] = 1.1  # ||x||^2 = 1.21
        assert feasibility(problem, x) == pytest.approx(0.21)

    def test_single_inequality_violation_counts_once(self):
        problem, x_star = _euclidean_quadratic(with_v=True)
        x = x_star.copy()
        x[0] += 0.5
        assert feasibility(problem, x) == pytest.approx(0.5)


class TestKktResidual:
    def test_unconstrained_stationary_point_has_zero_residual(self):
        problem, x_star = _euclidean_quadratic()
        report = kkt_residual(problem, x_star)
        assert report.stationarity <= 1e-14
        assert report.feasibility == 0.0

    def test_planted_point_recovers_multipliers(self):
        problem, x_star, mult = make_synthetic_kkt(seed=3)
        report = kkt_residual(problem, x_star)
        assert report.stationarity <= 1e-10
        assert np.allclose(report.multipliers.rho, mult.rho, atol=1e-6)
        assert np.allclose(report.multipliers.lam, mult.lam, atol=1e-6)
        assert np.allclose(report.multipliers.mu, mult.mu, atol=1e-6)

    def test_orthogonal_gradient_leaves_full_residual(self):
        # gradient orthogonal to the constraint gradient: the least-squares
        # fit cannot reduce it at all
        n = 4
        handle = make_handle("sphere", n=n)
        g = np.zeros(n)
        g[1] = 0.7  # orthogonal to grad c = 2 e1 at x = e1
        problem = ProblemSpec(
            manifold=handle,
            eval_f=lambda x: float(np.dot(g, x)),
            grad_f=lambda x: g.copy(),
            name="orthogonal_gradient")
        x = np.zeros(n)
        x[0] = 1.0
        report = kkt_residual(problem, x)
        assert report.stationarity == pytest.approx(0.7, abs=1e-12)

    def test_strictly_inactive_inequality_gets_no_multiplier(self):
        # On the sphere at e1, P grad f = 1.0 e2.  The inequality
        # v(x) = -x_1 - 5 <= 0 reads -5 there, strictly inactive, and its
        # gradient -e2 points against grad f: a fit over it would cancel
        # the residual with mu = 1.
        n = 3
        g = np.array([0.3, 1.0, 0.0])
        problem = ProblemSpec(
            manifold=make_handle("sphere", n=n),
            eval_f=lambda x: float(np.dot(g, x)),
            grad_f=lambda x: g.copy(),
            n_ineq=1,
            eval_v=lambda x: np.array([-x[1] - 5.0]),
            apply_JvT=lambda x, d: np.array([-d[1]]),
            apply_Jv=lambda x, w: -float(np.asarray(w).ravel()[0])
            * np.eye(n)[1],
            name="inactive_against_gradient")
        report = kkt_residual(problem, np.eye(n)[0])
        assert np.array_equal(report.multipliers.mu, [0.0])
        assert report.stationarity == pytest.approx(1.0, abs=1e-12)
        assert report.complementarity == 0.0

    def test_redundant_constraint_copy_leaves_residual_unchanged(self):
        problem, x_star, _ = make_synthetic_kkt(seed=5)
        rng = np.random.default_rng(9)
        x = x_star + 0.3 * rng.standard_normal(problem.n)
        base = kkt_residual(problem, x).stationarity
        assert kkt_residual(_with_first_equality_twice(problem), x) \
            .stationarity == pytest.approx(base, abs=1e-8)

    def test_rank_deficiency_flag_and_multipliers_reach_the_residual(self):
        # The free multipliers come from the Gram path on a full-rank
        # [Jc Ju], and from a triangular solve on the pivoted QR on a
        # rank-deficient one, where they are a basic solution; both must
        # reach the reported stationarity.
        problem, x_star, _ = make_synthetic_kkt(seed=5)
        rng = np.random.default_rng(9)
        x = x_star + 0.3 * rng.standard_normal(problem.n)
        for prob, y, deficient in [
                (problem, x_star, False),
                (_with_first_equality_twice(problem), x, True)]:
            report = kkt_residual(prob, y)
            assert report.rank_deficient is deficient
            at = _Reader(prob).at(y)
            Jc, Ju, Jv = at.jc_dense, at.ju, at.jv
            m = report.multipliers
            resid = prob.grad_f(y) + Jc @ m.rho + Ju @ m.lam + Jv @ m.mu
            assert abs(float(np.linalg.norm(resid))
                       - report.stationarity) <= 1e-10

    def test_complementarity_zero_at_planted_point(self):
        problem, x_star, _ = make_synthetic_kkt(seed=7)
        report = kkt_residual(problem, x_star)
        assert report.complementarity <= 1e-10

    def test_row_block_jc_takes_one_action(self):
        # Every handle gives Jc from one jacobian read, the oblique
        # (row_blocks) handle of the cut and the symplectic Stiefel one
        # alike: (jacobian, apply_Jc) calls per check.
        com, x0 = gen_center_of_mass(
            CenterOfMassConfig(m=8, q=4, N=8, r=0.5, seed=3))
        cases = ((_cut_reference_point(20, 0.2, 3), (1, 0)),
                 ((com, a_infinity(com.manifold, x0)), (1, 0)))
        for (problem, x), per_check in cases:
            mani, taken = counting_jc_reads(problem.manifold)
            counted = dataclasses.replace(problem, manifold=mani)
            report = kkt_residual(counted, x)
            assert taken() == per_check
            assert report.stationarity == kkt_residual(problem,
                                                       x).stationarity
            check_licq(counted, x)
            assert taken() == per_check
            assert np.array_equal(problem.manifold.jacobian(x),
                                  _dense_columns(mani.apply_Jc, x, problem.p,
                                                 problem.n))


def _with_first_equality_twice(problem):
    """The problem with its first equality u_0 repeated as a last one."""
    return dataclasses.replace(
        problem,
        n_eq=problem.n_eq + 1,
        eval_u=lambda y: np.concatenate(
            [problem.eval_u(y), problem.eval_u(y)[:1]]),
        apply_JuT=lambda y, d: np.concatenate(
            [problem.apply_JuT(y, d), problem.apply_JuT(y, d)[:1]]),
        apply_Ju=lambda y, w: problem.apply_Ju(
            y, np.asarray(w).ravel()[:-1]
            + np.concatenate([[np.asarray(w).ravel()[-1]],
                              np.zeros(problem.n_eq - 1)])))


def _qr_path(monkeypatch, problem, x):
    """``kkt_residual`` with its Gram path refused, so the QR path runs."""
    with monkeypatch.context() as m:
        m.setattr(diagnostics, "_gram_fit", lambda B: None)
        return kkt_residual(problem, x)


def _counting_qr(monkeypatch):
    """Count ``scipy.linalg.qr`` calls; returns the count so far."""
    calls = []
    qr = scipy.linalg.qr

    def counted(*args, **kwargs):
        calls.append(args)
        return qr(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr", counted)
    return lambda: len(calls)


def _active_synthetic_point():
    """A planted problem and a point off its KKT point where its first
    inequality is active: the NNLS branch fits a non-trivial mu."""
    problem, x_star, _ = make_synthetic_kkt(n=10, seed=4)
    jv = _Reader(problem).at(x_star).jv[:, 0]
    d = np.random.default_rng(1).standard_normal(problem.n)
    return problem, x_star + d - jv * (jv @ d) / (jv @ jv)


def _com_point(m, q):
    problem, x0 = gen_center_of_mass(
        CenterOfMassConfig(m=m, q=q, N=8, r=0.5, seed=3))
    return problem, a_infinity(problem.manifold, x0)


def _gauss_newton_point():
    """Center of mass (6, 2) on the Gauss-Newton map of its spec."""
    problem, x = _com_point(6, 2)
    return dataclasses.replace(problem, manifold=make_handle(
        "generic", spec=symplectic_spec(6, 2))), x


def _with_equalities(n, cond):
    """Euclidean R^n (no Jc) with two affine equalities whose Jacobian
    B = Ju has condition number ``cond``, and a point where the
    stationarity is non-zero."""
    rng = np.random.default_rng(2)
    U = np.linalg.qr(rng.standard_normal((n, 2)))[0]
    Ju = U @ np.diag([1.0, 1.0 / cond]) @ np.array([[0.6, 0.8],
                                                     [-0.8, 0.6]])
    g = rng.standard_normal(n)
    problem = ProblemSpec(
        manifold=make_handle("euclidean", n=n),
        eval_f=lambda x: float(np.dot(g, x)), grad_f=lambda x: g.copy(),
        n_eq=2, eval_u=lambda x: Ju.T @ x, apply_JuT=lambda x, d: Ju.T @ d,
        apply_Ju=lambda x, w: Ju @ w, name=f"conditioned_equalities({cond})")
    return problem, rng.standard_normal(n)


def _sphere_point():
    problem = linear_objective_sphere_problem(5, seed=2)
    x = np.random.default_rng(3).standard_normal(5)
    return problem, x / np.linalg.norm(x)


def _euclidean_active_point():
    problem, x_star = _euclidean_quadratic(n=4, seed=1, with_v=True)
    x = x_star + np.array([0.0, 0.3, -0.2, 0.1])
    return problem, x


class TestGramCertificate:
    """The Gram path of ``kkt_residual`` against its pivoted-QR path."""

    @pytest.mark.parametrize("case", [
        _sphere_point,
        lambda: _cut_reference_point(20, 0.2, 3),
        lambda: _com_point(6, 2),
        _gauss_newton_point,
        _active_synthetic_point,
        _euclidean_active_point,
    ], ids=["sphere", "oblique", "symplectic", "gauss_newton", "nnls",
            "no_equalities"])
    def test_gram_path_agrees_with_qr_path(self, monkeypatch, case):
        problem, x = case()
        qr_calls = _counting_qr(monkeypatch)
        gram = kkt_residual(problem, x)
        assert qr_calls() == 0
        qr = _qr_path(monkeypatch, problem, x)
        assert qr_calls() == 1
        g_norm = float(np.linalg.norm(problem.grad_f(x)))
        assert abs(gram.stationarity - qr.stationarity) \
            <= 1e-12 * (1.0 + g_norm)
        a, b = (np.concatenate([r.multipliers.rho, r.multipliers.lam,
                                r.multipliers.mu]) for r in (gram, qr))
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)
        assert not gram.rank_deficient and not qr.rank_deficient
        assert gram.feasibility == qr.feasibility
        assert gram.complementarity == pytest.approx(qr.complementarity,
                                                     rel=1e-8, abs=1e-14)

    def test_nnls_branch_fits_a_positive_multiplier(self):
        problem, x = _active_synthetic_point()
        assert kkt_residual(problem, x).multipliers.mu[0] > 0.0

    @pytest.mark.parametrize("cond, qr_expected", [
        (1e3, 0), (1e5, 1), (1e8, 1)])
    def test_guard_sends_ill_conditioned_b_to_qr(self, monkeypatch, cond,
                                                 qr_expected):
        # The guard reads 1/rcond(G) <= 1e8, cond(B) <~ 1e4: B at cond 1e5
        # (G at 1e10) and 1e8 take the QR path although Cholesky succeeds
        # on both; both still have full rank by its test.
        problem, x = _with_equalities(6, cond)
        qr_calls = _counting_qr(monkeypatch)
        report = kkt_residual(problem, x)
        assert qr_calls() == qr_expected
        assert not report.rank_deficient
        B = _Reader(problem).at(x).ju
        assert np.linalg.cond(B) == pytest.approx(cond, rel=1e-6)
        assert scipy.linalg.lapack.dpotrf(B.T @ B)[1] == 0

    def test_duplicated_constraint_takes_qr_path(self, monkeypatch):
        problem, x_star, _ = make_synthetic_kkt(seed=5)
        qr_calls = _counting_qr(monkeypatch)
        report = kkt_residual(_with_first_equality_twice(problem), x_star)
        assert qr_calls() == 1
        assert report.rank_deficient

    def test_tiny_gradients_keep_the_qr_rank_floor(self, monkeypatch):
        # Jc = 2x = 2e-13 e1 is well conditioned but below the QR path's
        # absolute rank floor 1e-12, so it reads rank 0, as before.
        problem = linear_objective_sphere_problem(3)
        qr_calls = _counting_qr(monkeypatch)
        report = kkt_residual(problem, np.array([1e-13, 0.0, 0.0]))
        assert qr_calls() == 1
        assert report.rank_deficient

    def test_benchmark_certificates_make_no_qr_call(self, monkeypatch):
        com, x0 = gen_center_of_mass(
            CenterOfMassConfig(m=40, q=10, N=100, r=0.01, seed=1))
        cut, y0 = gen_balanced_cut(BalancedCutConfig(m=50, q=2, rho=0.1,
                                                     seed=20))
        qr_calls = _counting_qr(monkeypatch)
        for problem, x in ((com, x0), (cut, y0)):
            report = kkt_residual(problem, a_infinity(problem.manifold, x))
            assert not report.rank_deficient
        assert qr_calls() == 0


class TestMakeSyntheticKkt:
    def test_equality_only_case(self):
        problem, x_star, mult = make_synthetic_kkt(n_active=0, n_inactive=2,
                                                   seed=1)
        assert np.all(mult.mu == 0.0)
        assert kkt_residual(problem, x_star).stationarity <= 1e-10

    def test_active_inequality_has_zero_value_at_plant(self):
        problem, x_star, mult = make_synthetic_kkt(n_active=1, seed=2)
        v = problem.eval_v(x_star)
        assert abs(v[0]) <= 1e-14
        assert mult.mu[0] > 0
        assert v[1] < 0 and mult.mu[1] == 0.0

    def test_randomized_instance_certifies(self):
        problem, x_star, _ = make_synthetic_kkt(seed=3)
        assert kkt_residual(problem, x_star).stationarity <= 1e-10

    def test_too_many_active_constraints_rejected(self):
        # p + n_eq + n_active = 5 gradients cannot be independent in R^3.
        with pytest.raises(DimensionError):
            make_synthetic_kkt(n=3, p=2, n_eq=2)


@pytest.mark.parametrize("bad, error", BAD_POINTS)
def test_kkt_residual_rejects_a_bad_point(bad, error):
    # A typed error, not one from inside the QR factorization.
    problem, x = bad_cut_point(bad)
    with pytest.raises(error):
        kkt_residual(problem, x)


@pytest.mark.parametrize("bad, error", BAD_POINTS)
def test_check_licq_rejects_a_bad_point(bad, error):
    problem, x = bad_cut_point(bad)
    with pytest.raises(error):
        check_licq(problem, x)


@pytest.mark.parametrize("bad, error", BAD_POINTS)
def test_feasibility_rejects_a_bad_point(bad, error):
    # Named as x, not numpy's reshape ValueError from inside eval_u nor a
    # non-finite eval_u.
    problem, x = bad_cut_point(bad)
    with pytest.raises(error, match="^x has"):
        feasibility(problem, x)


@pytest.mark.parametrize("check", [kkt_residual, check_licq, feasibility])
def test_one_read_per_evaluator_per_call(check):
    # kkt_residual read eval_v twice, once itself and once in feasibility.
    problem, x_star, _ = make_synthetic_kkt()
    calls = dict.fromkeys(("eval_c", "eval_u", "eval_v", "grad_f",
                           "jacobian"), 0)

    def counted(owner, name):
        fn = getattr(owner, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    mani = problem.manifold
    counted_problem = dataclasses.replace(
        problem,
        manifold=dataclasses.replace(
            mani, **{name: counted(mani, name)
                     for name in ("eval_c", "jacobian")}),
        **{name: counted(problem, name)
           for name in ("eval_u", "eval_v", "grad_f")})
    check(counted_problem, x_star)
    assert max(calls.values()) == 1, calls


def test_the_nan_problems_certify_without_their_nan():
    problem, x = faulty_sphere_problem()
    assert np.isfinite(kkt_residual(problem, x).stationarity)
    assert check_licq(problem, x)


@pytest.mark.parametrize("name",
                         ["grad_f", "jacobian", "apply_Ju", "apply_Jv"])
def test_kkt_residual_names_a_non_finite_evaluator(name):
    # A typed error before any factorization, not scipy's ValueError from
    # inside the QR or a silent NaN stationarity.
    problem, x = faulty_sphere_problem(name)
    with pytest.raises(EvaluatorFaultError, match=name):
        kkt_residual(problem, x)


@pytest.mark.parametrize("name", ["jacobian", "apply_Ju", "apply_Jv"])
def test_check_licq_names_a_non_finite_evaluator(name):
    # Not numpy's LinAlgError from inside the SVD.
    problem, x = faulty_sphere_problem(name)
    with pytest.raises(EvaluatorFaultError, match=name):
        check_licq(problem, x)


@pytest.mark.parametrize("bad, error", BAD_POINTS)
@pytest.mark.parametrize("name", ["eval_c", "eval_u", "eval_v"])
def test_kkt_residual_names_a_bad_constraint_value(name, bad, error):
    # Not a NaN or a short value read as a silent feasibility, nor numpy's
    # broadcast ValueError.
    problem, x = faulty_sphere_problem(name, bad)
    with pytest.raises(error, match=name):
        kkt_residual(problem, x)


def test_diagnostics_name_a_short_generic_jc_column():
    # The generic handle's own jacobian, stacked from apply_Jc columns:
    # not numpy's broadcast ValueError.
    problem, x = faulty_sphere_problem("jacobian", "short")
    for check in (kkt_residual, check_licq):
        with pytest.raises(DimensionError, match="apply_Jc"):
            check(problem, x)


@pytest.mark.parametrize("bad, error", BAD_POINTS)
def test_check_licq_names_a_bad_inequality_value(bad, error):
    # Not an active set read off a NaN or short v, which passed.
    problem, x = faulty_sphere_problem("eval_v", bad)
    with pytest.raises(error, match="eval_v"):
        check_licq(problem, x)


@pytest.mark.parametrize("name", ["grad_f", "apply_Ju", "apply_Jv"])
def test_bound_pass_names_a_non_finite_evaluator(name):
    # No sample drops out of a maximum (max(L_f, nan) kept L_f = 0), and
    # no LinAlgError comes from inside an SVD.
    problem, x = faulty_sphere_problem(name)
    with pytest.raises(EvaluatorFaultError, match=name):
        _bound_constants(problem, x, radius=0.1, samples=30, seed=0)


def _misshapen_problem(name):
    """At a_infinity of its start, balanced cut m=10 whose ``grad_f`` or
    ``apply_Ju`` column comes one entry short, or center of mass (6, 2),
    p = 1, whose handle's ``jacobian`` is n x 0."""
    if name == "jacobian":
        problem, x0 = gen_center_of_mass(
            CenterOfMassConfig(m=6, q=2, N=5, r=0.5, seed=3))
        n = problem.n
        problem = dataclasses.replace(problem, manifold=dataclasses.replace(
            problem.manifold, jacobian=lambda y: np.zeros((n, 0))))
    else:
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=10, q=2, rho=0.3,
                                                         seed=3))
        fn = getattr(problem, name)
        problem = dataclasses.replace(
            problem, **{name: lambda *args: np.asarray(fn(*args))[:-1]})
    return problem, a_infinity(problem.manifold, x0)


@pytest.mark.parametrize("name", ["grad_f", "apply_Ju", "jacobian"])
def test_diagnostics_name_a_misshapen_evaluator(name):
    # Not numpy's broadcast ValueError or an IndexError, nor a stationarity
    # and LICQ verdict read off an n x 0 Jc; the solves raise at pass 0.
    problem, x = _misshapen_problem(name)
    with pytest.raises(DimensionError, match=name):
        kkt_residual(problem, x)
    with pytest.raises(DimensionError, match=name):
        _bound_constants(problem, x, radius=0.1, samples=30, seed=0)
    if name != "grad_f":
        with pytest.raises(DimensionError, match=name):
            check_licq(problem, x)
    with pytest.raises(DimensionError, match=name):
        alm_solve_nlp_direct(problem, x)
    with pytest.raises(DimensionError, match=name):
        alm_solve_cdp(build_cdp(problem, PenaltyParams(beta=1.0)), x)


def _nan_jat_problem(path):
    """A problem whose J_A^T reads are NaN: on the operator path the sphere
    in R^4 as a generic spec whose ``apply_dJc`` returns NaN, at e1; on
    the row-block path balanced cut m=20 whose handle's states return NaN
    from ``jat``, at its limit point."""
    if path == "operator":
        spec = dataclasses.replace(sphere_constraint_spec(4),
                                   apply_dJc=lambda x, d, w: np.full(4, np.nan))
        problem = linear_objective_sphere_problem(
            4, handle=make_handle("generic", spec=spec))
        return problem, np.eye(4)[0]
    problem, x = _cut_reference_point(20, 0.2, 3)
    mani = problem.manifold

    class NanPoint:
        def __init__(self, y):
            self.state = mani.point(y)

        def __getattr__(self, name):
            return getattr(self.state, name)

        def jat(self, g):
            return np.full(mani.n, np.nan)

    nan_mani = dataclasses.replace(mani, point=NanPoint)
    return dataclasses.replace(problem, manifold=nan_mani), x


@pytest.mark.parametrize("path", ["operator", "row_blocks"])
def test_bound_pass_names_a_non_finite_jat(path):
    # Not M_Ax = L_Ax = 0 from max(M_A, nan) on the operator path, nor
    # numpy's LinAlgError from the block SVDs on the row-block path.
    problem, x = _nan_jat_problem(path)
    with pytest.raises(EvaluatorFaultError, match="apply_JAT"):
        _bound_constants(problem, x, radius=0.1, samples=30, seed=0)
    with pytest.raises(EvaluatorFaultError, match="apply_JAT"):
        estimate_constants(problem, x, radius=0.1, samples=30, seed=0)


@pytest.mark.parametrize("path", ["operator", "row_blocks"])
def test_second_pass_names_a_non_finite_jat(path):
    # J_A^T Jc(A(y)) is read apart from the bound pass's J_A^T.
    problem, x = _nan_jat_problem(path)
    at = _Reader(problem).at(x)
    with pytest.raises(EvaluatorFaultError, match="apply_JAT"):
        at.jat_times(at.image.jc)


def _short_action(handle, action):
    """The handle with its states' ``jat`` or ``ja`` one entry short."""

    class ShortPoint:
        def __init__(self, y):
            self.state = handle.point(y)

        def __getattr__(self, name):
            return getattr(self.state, name)

    setattr(ShortPoint, action,
            lambda self, w: getattr(self.state, action)(w)[:-1])
    return dataclasses.replace(handle, point=ShortPoint)


@pytest.mark.parametrize("action, name", [("jat", "apply_JAT"),
                                          ("ja", "Jacobian action")])
def test_diagnostics_name_a_short_jacobian_action(action, name):
    # Not numpy's matmul ValueError inside the Lanczos norm, nor its
    # reshape ValueError in the axiom check's product J_A^T Jc.
    problem, x = _com_point(6, 2)
    bad = dataclasses.replace(problem,
                              manifold=_short_action(problem.manifold, action))
    with pytest.raises(DimensionError, match=name):
        _bound_constants(bad, x, radius=0.1, samples=5, seed=0)
    with pytest.raises(DimensionError, match=f"{name} at probe 0"):
        validate_manifold(bad.manifold, [x], tol=1e-8)


def _nan_jc_problem(path):
    """A problem whose Jc reads are NaN: on the row-block path balanced cut
    m=20 whose handle's ``apply_Jc`` returns NaN, at its limit point; on
    the dense path the sphere in R^6 whose handle's ``jacobian`` returns
    NaN, at e1."""
    if path == "row_blocks":
        problem, x = _cut_reference_point(20, 0.3, 3)
        mani = dataclasses.replace(problem.manifold,
                                   apply_Jc=lambda y, w: np.full(y.size, np.nan))
    else:
        problem, x = linear_objective_sphere_problem(6), np.eye(6)[0]
        mani = dataclasses.replace(problem.manifold,
                                   jacobian=lambda y: np.full((6, 1), np.nan))
    return dataclasses.replace(problem, manifold=mani), x


@pytest.mark.parametrize("path, name", [("row_blocks", "apply_Jc"),
                                        ("dense", "jacobian")])
def test_bound_pass_names_a_non_finite_jc(path, name):
    # Not sigma1x = nan, which makes the safeguard's threshold NaN, so
    # beta never adapts; nor a NaN product norm in the axiom check.
    problem, x = _nan_jc_problem(path)
    with pytest.raises(EvaluatorFaultError, match=name):
        _bound_constants(problem, x, radius=0.1, samples=30, seed=0)
    with pytest.raises(EvaluatorFaultError, match=name):
        validate_manifold(problem.manifold, [x], tol=1e-8)


@pytest.mark.parametrize("bad, error", BAD_POINTS)
def test_estimate_constants_rejects_a_bad_point(bad, error):
    # A typed error, not numpy's from inside an SVD or a reshape.
    problem, x = bad_cut_point(bad)
    with pytest.raises(error):
        estimate_constants(problem, x, radius=0.05, samples=3)


class TestLicq:
    def test_sphere_at_basis_vector_holds(self):
        problem = linear_objective_sphere_problem(4)
        x = np.zeros(4)
        x[0] = 1.0
        assert check_licq(problem, x)

    def test_duplicated_constraint_fails(self):
        problem = linear_objective_sphere_problem(4)
        dup = dataclasses.replace(
            problem,
            n_eq=1,
            eval_u=lambda x: problem.manifold.eval_c(x),
            apply_JuT=lambda x, d: problem.manifold.apply_JcT(x, d),
            apply_Ju=lambda x, w: problem.manifold.apply_Jc(x, w))
        x = np.zeros(4)
        x[0] = 1.0
        assert not check_licq(dup, x)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 1.0])
    def test_tolerance_outside_unit_interval_raises(self, tol):
        # NaN returned False and -1 True whatever the gradients.
        problem, x_star, _ = make_synthetic_kkt()
        with pytest.raises(ParameterError):
            check_licq(problem, x_star, tol)
        assert check_licq(problem, x_star, 0.0)

    def test_balanced_cut_holds_at_feasible_point(self):
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=20, q=2, rho=0.2,
                                                         seed=4))
        assert check_licq(problem, x0)


class TestEstimateConstants:
    def test_affine_constraint_has_zero_curvature_constants(self):
        problem, x_star, _ = make_synthetic_kkt(seed=0)
        est = estimate_constants(problem, x_star, radius=0.2, samples=30,
                                 seed=0)
        assert est.L_cx == 0.0
        # exact smallest singular value of the constant Jacobian
        Jc = problem.manifold.jacobian(x_star)
        assert est.sigma1x == pytest.approx(
            np.linalg.svd(Jc, compute_uv=False)[-1])

    def test_problem_without_manifold_constraints(self):
        # p = 0: Jc(A(y)) has no columns, and rho takes its p = 0 branch.
        handle = make_handle("euclidean", n=3)
        problem = ProblemSpec(manifold=handle,
                              eval_f=lambda x: float(np.dot(x, x)),
                              grad_f=lambda x: 2.0 * np.asarray(x),
                              name="norm_squared")
        x = np.ones(3)
        est = estimate_constants(problem, x, radius=0.1, samples=5)
        assert (est.sigma1x, est.rho_x, est.epsilon_x) == (0.0, 1.0, 0.5)
        inst = build_cdp(problem, PenaltyParams(beta=1.0))
        report = lagrangian_decrease_probe(inst, x, MultiplierSet(),
                                           offsets=[1e-2])
        assert report.passed and report.skipped == []

    def test_sphere_jacobian_norm_near_two(self):
        problem = linear_objective_sphere_problem(4)
        x = np.zeros(4)
        x[0] = 1.0
        est = estimate_constants(problem, x, radius=0.1, samples=100, seed=0)
        assert 1.8 <= est.sigma1x <= 2.0

    @pytest.mark.parametrize("n", [4, 10])
    def test_rho_is_weyls_radius_on_the_sphere(self, n):
        # Jc(y) = 2y: sigma_x = L_c = 2 at e1, so sigma_min(Jc) falls to
        # sigma_x / 2 at (1 - rho_x) e1 with rho_x = 1/2, and the ball of
        # radius 1 would hold the origin, where Jc = 0.
        problem = linear_objective_sphere_problem(n)
        x = np.eye(n)[0]
        est = estimate_constants(problem, x, radius=0.05, samples=30, seed=0)
        assert est.rho_x == pytest.approx(0.5, rel=1e-12, abs=0.0)
        Jc = problem.manifold.jacobian((1.0 - est.rho_x) * x)
        sigma = np.linalg.svd(Jc, compute_uv=False)[-1]
        assert sigma == pytest.approx(est.sigma1x / 2.0, rel=1e-12, abs=0.0)

    def test_estimates_stable_across_seeds(self):
        problem, x0 = gen_balanced_cut(BalancedCutConfig(m=10, q=3, rho=0.3,
                                                         seed=1))
        x = a_infinity(problem.manifold, x0)
        a = estimate_constants(problem, x, radius=0.1, samples=200, seed=0)
        b = estimate_constants(problem, x, radius=0.1, samples=200, seed=1)
        for name in ("M_cx", "M_Ax", "L_fx"):
            va, vb = getattr(a, name), getattr(b, name)
            assert abs(va - vb) <= 0.2 * max(va, vb)

    def test_suprema_nondecreasing_in_sample_count(self):
        problem = linear_objective_sphere_problem(5, seed=1)
        x = np.zeros(5)
        x[0] = 1.0
        small = estimate_constants(problem, x, radius=0.1, samples=40, seed=2)
        large = estimate_constants(problem, x, radius=0.1, samples=80, seed=2)
        for name in ("M_cx", "M_Ax", "L_fx", "L_cx", "L_Ax", "L_Acx"):
            assert getattr(large, name) >= getattr(small, name) - 1e-15

    @pytest.mark.parametrize("family", ["balanced_cut", "center_of_mass"])
    def test_bound_constants_equal_the_full_estimates(self, family):
        # The beta safeguard's six constants come from the same samples,
        # in the same order, as estimate_constants' fields.
        from cdpkit.bench import CenterOfMassConfig, gen_center_of_mass
        from cdpkit.diagnostics import _bound_constants
        if family == "balanced_cut":
            problem, x0 = gen_balanced_cut(BalancedCutConfig(m=20, q=2,
                                                             rho=0.2, seed=3))
        else:
            problem, x0 = gen_center_of_mass(
                CenterOfMassConfig(m=6, q=2, N=8, r=0.5, seed=3))
        x = a_infinity(problem.manifold, x0)
        six = _bound_constants(problem, x, radius=0.1, samples=30, seed=0)
        points = _ball(x, radius=0.1, samples=30, seed=0)
        full = estimate_constants(problem, x, radius=0.1, samples=30, seed=0)
        assert len(points) == full.sample_count + 1 == 31
        for name, value in six._asdict().items():
            assert value == getattr(full, name), name
        assert six.sigma1x > 0.0 and six.L_Ax > 0.0 and six.L_fx > 0.0

    @pytest.mark.parametrize("family", ["balanced_cut", "center_of_mass"])
    def test_cheap_bound_threshold_is_never_above_the_full_one(self, family):
        # The safeguard's two-stage pass rests on this: the cheap points are
        # the full pass's first ones, each constant is a maximum over them,
        # so the cheap threshold is at most the full one for any
        # multipliers, and an adaptation it decides stands.
        from cdpkit.diagnostics import _coupled_bound
        from cdpkit.solver import BOUND_SAMPLES, BOUND_SAMPLES_FULL
        if family == "balanced_cut":
            problem, x0 = gen_balanced_cut(BalancedCutConfig(m=20, q=2,
                                                             rho=0.2, seed=3))
        else:
            problem, x0 = gen_center_of_mass(
                CenterOfMassConfig(m=6, q=2, N=8, r=0.5, seed=3))
        x = a_infinity(problem.manifold, x0)
        cheap = _ball(x, radius=0.1, samples=BOUND_SAMPLES, seed=0)
        full = _ball(x, radius=0.1, samples=BOUND_SAMPLES_FULL, seed=0)
        assert len(cheap) == BOUND_SAMPLES + 1
        assert all(np.array_equal(a, b) for a, b in zip(cheap, full))
        few, many = (_bound_constants(problem, x, radius=0.1, samples=s,
                                      seed=0)
                     for s in (BOUND_SAMPLES, BOUND_SAMPLES_FULL))
        assert few.sigma1x == many.sigma1x
        assert all(a <= b for a, b in zip(few, many))
        rng = np.random.default_rng(0)
        for _ in range(5):
            lam = 10.0 ** rng.uniform(-3, 3) \
                * rng.standard_normal(problem.n_eq)
            mu = 10.0 ** rng.uniform(-3, 3) \
                * np.abs(rng.standard_normal(problem.n_ineq))
            params = PenaltyParams(beta=1.0, tau=np.ones(problem.n_eq),
                                   gamma=np.ones(problem.n_ineq))
            _, low, lhs = _coupled_bound(few, params, lam, mu)
            _, high, same = _coupled_bound(many, params, lam, mu)
            assert low <= high and lhs == same

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_sample_points_raise(self, samples):
        # Without samples every sampled constant would read 0, and a beta
        # threshold of 0 would pass as met.
        problem = linear_objective_sphere_problem(4)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ParameterError):
            _bound_constants(problem, x, radius=0.1, samples=samples, seed=0)
        with pytest.raises(ParameterError):
            estimate_constants(problem, x, radius=0.1, samples=samples)

    @pytest.mark.parametrize("radius", [0.0, -0.05, np.nan, 1.5])
    def test_radius_outside_unit_interval_raises(self, radius):
        # At radius 0 every sample is x itself: each Lipschitz quotient
        # reads 0, and a beta threshold of 0 would pass as met.
        problem = linear_objective_sphere_problem(4)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ParameterError):
            _bound_constants(problem, x, radius=radius, samples=5, seed=0)
        with pytest.raises(ParameterError):
            estimate_constants(problem, x, radius=radius, samples=5)

    def test_unit_radius_accepted(self):
        problem = linear_objective_sphere_problem(4)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        est = estimate_constants(problem, x, radius=1.0, samples=5)
        assert est.radius == 1.0 and est.L_Ax > 0.0

    def test_rank_deficient_constraint_raises(self):
        spec = GenericManifoldSpec(
            n=3, p=1,
            eval_c=lambda x: np.array([float(np.dot(x, x))]),
            apply_Jc=lambda x, w: 2.0 * float(np.asarray(w).ravel()[0])
            * np.asarray(x, dtype=float),
            name="vanishing_jacobian")
        handle = make_handle("generic", spec=spec)
        problem = ProblemSpec(manifold=handle,
                              eval_f=lambda x: 0.0,
                              grad_f=lambda x: np.zeros(3),
                              name="degenerate")
        with pytest.raises(RankDeficiencyError):
            estimate_constants(problem, np.zeros(3), radius=0.1, samples=10)


def _counting_jat(problem):
    """The problem with the ``jat`` reads of its handle's states counted in
    ``calls``."""
    calls = []
    mani = problem.manifold

    class CountedPoint:
        def __init__(self, x):
            self.state = mani.point(x)

        def __getattr__(self, name):
            return getattr(self.state, name)

        def jat(self, g):
            calls.append(1)
            return self.state.jat(g)

    counted = dataclasses.replace(mani, point=CountedPoint)
    return dataclasses.replace(problem, manifold=counted), calls


def _dense_bound_constants(problem, points):
    """The six bound constants at the given points (x first) from dense
    matrices: the reference for the block and matrix-free paths."""
    n = problem.n
    mani = problem.manifold
    Jc = _dense_columns(mani.apply_Jc, points[0], problem.p, n)
    M_A = M_u = M_v = L_f = L_A = 0.0
    prev = None
    for y in points:
        Ja = _dense_columns(mani.apply_JAT, y, n, n)
        M_A = max(M_A, float(np.linalg.norm(Ja, 2)))
        Ju = _dense_columns(problem.apply_Ju, y, problem.n_eq, n)
        M_u = max(M_u, float(np.linalg.norm(Ju, 2)) if Ju.size else 0.0)
        Jv = _dense_columns(problem.apply_Jv, y, problem.n_ineq, n)
        M_v = max(M_v, float(np.linalg.norm(Jv, 2)) if Jv.size else 0.0)
        L_f = max(L_f, float(np.linalg.norm(problem.grad_f(mani.eval_A(y)))))
        if prev is not None:
            L_A = max(L_A, float(np.linalg.norm(Ja - prev[1], 2))
                      / float(np.linalg.norm(y - prev[0])))
        prev = (y, Ja)
    return dict(sigma1x=float(np.linalg.svd(Jc, compute_uv=False)[-1]),
                M_Ax=M_A, L_Ax=L_A, M_ux=M_u, M_vx=M_v, L_fx=L_f)


def _cut_reference_point(m, rho, seed):
    problem, x0 = gen_balanced_cut(BalancedCutConfig(m=m, q=2, rho=rho,
                                                     seed=seed))
    return problem, a_infinity(problem.manifold, x0)


def _unblocked(problem, x):
    """The problem with its handle's ``row_blocks`` declaration dropped."""
    return dataclasses.replace(
        problem, manifold=dataclasses.replace(problem.manifold,
                                              row_blocks=None)), x


# Largest relative gap of a matrix-free norm of J_A^T below the dense one
# that the tests accept; the largest measured on these instances is 2e-7.
MATRIX_FREE_RTOL = 1e-5


class TestRowBlockConstants:
    """The oblique handle declares ``row_blocks``: the constant estimates
    read J_A^T and Jc as stacks of per-row blocks."""

    def test_block_path_applies_jat_q_times_per_point(self):
        problem, x = _cut_reference_point(20, 0.2, 3)
        counted, calls = _counting_jat(problem)
        _bound_constants(counted, x, radius=0.1, samples=30, seed=0)
        assert len(calls) == 31 * 2

    @pytest.mark.parametrize("family, args, ulps", [
        ("balanced_cut", (50, 0.1, 20), 4),
        ("balanced_cut", (20, 0.2, 3), 4)],
        ids=["50-0.1-20", "20-0.2-3"])
    def test_bound_constants_match_dense_reference(self, family, args, ulps):
        problem, x = _cut_reference_point(*args)
        six = _bound_constants(problem, x, radius=0.1, samples=30, seed=0)
        points = _ball(x, radius=0.1, samples=30, seed=0)
        reference = _dense_bound_constants(problem, points)
        for name, value in six._asdict().items():
            assert _within_ulps(value, reference[name], ulps), name

    def test_full_estimates_match_the_dense_path(self):
        # The same handle with the declaration dropped reads Jc as one dense
        # block; M_Ax, L_Ax and the radii derived from M_Ax come from dense
        # J_A^T at the same points.
        problem, x = _cut_reference_point(20, 0.2, 3)
        blocks = estimate_constants(problem, x, radius=0.1, samples=30, seed=0)
        one_block = estimate_constants(*_unblocked(problem, x), radius=0.1,
                                       samples=30, seed=0)
        points = _ball(x, radius=0.1, samples=30, seed=0)
        dense = _dense_bound_constants(problem, points)
        r, M_A = one_block, dense["M_Ax"]
        eps = min(r.rho_x / 2.0,
                  r.sigma1x / (32.0 * r.L_cx * (M_A + 1.0)),
                  r.sigma1x ** 2 / (8.0 * r.L_Acx * r.M_cx))
        reference = dataclasses.replace(
            one_block, M_Ax=M_A, L_Ax=dense["L_Ax"], epsilon_x=eps,
            omega_bar_radius=r.sigma1x * eps
            / (4.0 * r.M_cx * (M_A + 1.0) + r.sigma1x))
        for name, value in dataclasses.asdict(blocks).items():
            assert _within_ulps(value, getattr(reference, name), 8), name

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 8), q=st.integers(1, 4))
    def test_stacks_match_the_dense_matrices(self, data, m, q):
        X = data.draw(hnp.arrays(float, (m, q), elements=st.floats(
            -2.0, 2.0, allow_nan=False, allow_infinity=False)))
        handle = make_handle("oblique", m=m, q=q)
        blocks = _Reader(handle)
        x = X.ravel()
        at = blocks.at(x)
        stack = at.jat
        dense = _dense_columns(handle.apply_JAT, x, handle.n, handle.n)
        assert np.array_equal(dense, scipy.linalg.block_diag(*stack))

        # Rows of norm near 0 make every block nearly 2I, and there the
        # n x n SVD is off by up to ~90 ulps while the q x q ones stay
        # within 1 ulp of the exact norm; the bound pass samples rows of
        # norm near 1.
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        assume(np.all(norms >= 0.1))
        assert _within_ulps(blocks.norm(stack), float(np.linalg.norm(dense, 2)),
                            8)
        Jc = _dense_columns(handle.apply_Jc, x, handle.p, handle.n)
        s = np.linalg.svd(Jc, compute_uv=False)
        assert _within_ulps(blocks.norm(at.jc), float(s[0]), 8)
        # An SVD resolves its smallest singular value to within rounding of
        # its largest.
        sigma_min = np.min(blocks.singular_values(at.jc)[:, -1])
        assert abs(sigma_min - s[-1]) <= 8 * np.spacing(s[0])

        xf = (X / norms).ravel()
        Jc = _dense_columns(handle.apply_Jc, xf, handle.p, handle.n)
        JaT = _dense_columns(handle.apply_JAT, xf, handle.n, handle.n)
        assert np.max(np.abs(Jc.T @ JaT)) <= 1e-14


class TestMatrixFreeConstants:
    """A handle without ``row_blocks`` has the norms of J_A^T bounded
    matrix-free, from the state's ``jat`` and ``ja``."""

    def test_jat_calls_below_dense(self):
        # At most LANCZOS_MAX_STEPS applications per norm at each of the 31
        # points, and twice that per quotient over the 30 consecutive
        # pairs: below the 31 n of assembling J_A^T at every point.
        # The closed-form map of the instance and the Gauss-Newton map of
        # its spec alike.
        problem, x0 = gen_center_of_mass(
            CenterOfMassConfig(m=20, q=4, N=8, r=0.5, seed=3))
        gauss_newton = make_handle("generic", spec=symplectic_spec(20, 4))
        for mani in (problem.manifold, gauss_newton):
            on = dataclasses.replace(problem, manifold=mani)
            x = a_infinity(mani, x0)
            counted, calls = _counting_jat(on)
            _bound_constants(counted, x, radius=0.1, samples=30, seed=0)
            assert 0 < len(calls) <= (31 + 2 * 30) * LANCZOS_MAX_STEPS \
                < 31 * problem.n

    @pytest.mark.parametrize("case", ["symplectic-6-2", "symplectic-20-4",
                                      "gauss_newton-20-4",
                                      "oblique-unblocked", "com-m40q10"])
    def test_norms_bound_dense_from_below(self, case):
        # Lanczos gives lower bounds on ||J_A^T|| and on the
        # Lipschitz quotients, at most MATRIX_FREE_RTOL below the dense
        # SVDs at the same points.  The other four constants do not read
        # J_A^T and stay the dense ones bit for bit.  com-m40q10 is the
        # benchmark's center-of-mass instance.
        if case == "oblique-unblocked":
            problem, x = _unblocked(*_cut_reference_point(20, 0.2, 3))
        else:
            if case == "com-m40q10":
                cfg = CenterOfMassConfig(m=40, q=10, N=100, r=0.01, seed=1)
            else:
                m, q = map(int, case.split("-")[1:])
                cfg = CenterOfMassConfig(m=m, q=q, N=8, r=0.5, seed=3)
            problem, x0 = gen_center_of_mass(cfg)
            if case.startswith("gauss_newton"):
                problem = dataclasses.replace(problem, manifold=make_handle(
                    "generic", spec=symplectic_spec(cfg.m, cfg.q)))
            x = a_infinity(problem.manifold, x0)
        six = _bound_constants(problem, x, radius=0.1, samples=30, seed=0)
        points = _ball(x, radius=0.1, samples=30, seed=0)
        reference = _dense_bound_constants(problem, points)
        for name, value in six._asdict().items():
            exact = reference[name]
            if name in ("M_Ax", "L_Ax"):
                assert value <= exact + 8 * np.spacing(exact), name
                assert value >= exact * (1.0 - MATRIX_FREE_RTOL), name
            else:
                assert value == exact, name


    @pytest.mark.parametrize("kind, n", [
        ("gaussian", 1), ("gaussian", 2), ("gaussian", 3), ("gaussian", 4),
        ("three-values", LANCZOS_MAX_STEPS), ("rank-one", 6), ("zero", 5)])
    def test_norm_is_exact_on_an_exhausted_krylov_space(self, kind, n):
        # With n <= LANCZOS_MAX_STEPS, or three distinct singular values,
        # the Krylov space runs out before the stop rule fires, and the
        # top Ritz value is ||A||_2 to rounding; the zero matrix gives 0.
        rng = np.random.default_rng(n)
        if kind == "three-values":
            Q, R = (np.linalg.qr(rng.standard_normal((n, n)))[0]
                    for _ in range(2))
            A = Q @ np.diag(np.resize([3.0, 2.0, 0.5], n)) @ R.T
        elif kind == "rank-one":
            A = np.outer(rng.standard_normal(n), rng.standard_normal(n))
        elif kind == "zero":
            A = np.zeros((n, n))
        else:
            A = rng.standard_normal((n, n))
        start = rng.standard_normal(n)
        norm = diagnostics._JatOperator(lambda v: A @ v, lambda u: A.T @ u,
                                        start / np.linalg.norm(start)).norm()
        exact = float(np.linalg.norm(A, 2))
        assert norm <= exact + 8 * np.spacing(exact)
        assert norm == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.fixture(scope="module")
def sphere_estimates():
    problem = linear_objective_sphere_problem(4, seed=3)
    x = np.zeros(4)
    x[0] = 1.0
    return estimate_constants(problem, x, radius=0.1, samples=100, seed=0)


class TestCheckCondition:

    def test_zero_beta_fails_with_negative_slack(self, sphere_estimates):
        report = check_condition(sphere_estimates, PenaltyParams(beta=0.0))
        assert not report.beta_met
        assert report.beta_slack < 0.0

    def test_double_threshold_passes_with_threshold_slack(self, sphere_estimates):
        thr = check_condition(sphere_estimates,
                              PenaltyParams(beta=0.0)).beta_threshold
        report = check_condition(sphere_estimates, PenaltyParams(beta=2.0 * thr))
        assert report.beta_met
        assert report.beta_slack == pytest.approx(thr)

    def test_multiplier_coupled_bound_reported(self, sphere_estimates):
        mult = MultiplierSet(rho=np.zeros(1), lam=np.zeros(0), mu=np.zeros(0))
        report = check_condition(sphere_estimates, PenaltyParams(beta=1.0),
                                 mult)
        assert report.coupled_threshold is not None
        assert report.coupled_lhs == pytest.approx(1.0)
        assert report.coupled_met == (1.0 >= 2.0 * report.coupled_threshold)

    def test_gamma_and_coupled_bounds_follow_their_formulas(self):
        # Hand-picked constants; every quantity below is exact in binary.
        est = ConstantEstimates(
            sigma1x=2.0, M_cx=0.0, M_Ax=1.0, M_ux=3.0, M_vx=4.0, L_fx=1.0,
            L_cx=0.0, L_Ax=0.5, L_Acx=0.25, rho_x=1.0, epsilon_x=0.1,
            omega_bar_radius=0.1, sample_count=1, radius=0.1)
        params = PenaltyParams(beta=200.0, tau=[1.0, 2.0],
                               gamma=[70.0, 40.0])
        mult = MultiplierSet(lam=[1.0, -2.0], mu=[0.5, 1.0])
        report = check_condition(est, params, mult)
        # 64 L_f (M_A + 1)(L_Ac + sigma L_A) / sigma^3
        assert report.beta_threshold == 64.0 * 1.0 * 2.0 * 1.25 / 8.0 == 20.0
        assert report.beta_met and 200.0 >= SAFETY * 20.0
        # 32 L_A M_v (M_A + 1) / sigma^2, against the smallest gamma_j
        assert report.gamma_threshold == 32.0 * 0.5 * 4.0 * 2.0 / 4.0 == 32.0
        assert report.gamma_slack == 40.0 - 32.0
        # met only at SAFETY times the threshold: 40 > 32, not >= 64
        assert report.gamma_met is False and SAFETY == 2.0
        # M = L_f + ||lambda||_1 M_u + ||mu||_1 M_v
        assert report.M_x_lam_mu == 1.0 + 3.0 * 3.0 + 1.5 * 4.0 == 16.0
        # 32 L_A (M_A + 1) M / sigma^2
        assert report.coupled_threshold == 32.0 * 0.5 * 2.0 * 16.0 / 4.0
        # beta + lambda^T tau + mu^T gamma
        assert report.coupled_lhs == 200.0 + (1.0 - 4.0) + (35.0 + 40.0)
        assert report.coupled_slack == 272.0 - 128.0
        assert report.coupled_met and 272.0 >= SAFETY * 128.0
