import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cdpkit.core import (
    DimensionError,
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
from cdpkit.diagnostics import (
    GK_MAX_STEPS,
    _Blocks,
    _bound_constants,
    check_condition,
    check_licq,
    dense_jacobians,
    estimate_constants,
    feasibility,
    kkt_residual,
    make_synthetic_kkt,
)
from cdpkit.dissolve import a_infinity
from cdpkit.manifolds import GenericManifoldSpec, make_handle

from conftest import (
    BAD_POINTS,
    bad_cut_point,
    counting_jc_reads,
    linear_objective_sphere_problem,
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

    def test_redundant_constraint_copy_leaves_residual_unchanged(self):
        problem, x_star, _ = make_synthetic_kkt(seed=5)
        rng = np.random.default_rng(9)
        x = x_star + 0.3 * rng.standard_normal(problem.n)
        base = kkt_residual(problem, x).stationarity
        assert kkt_residual(_with_first_equality_twice(problem), x) \
            .stationarity == pytest.approx(base, abs=1e-8)

    def test_rank_deficiency_flag_and_multipliers_reach_the_residual(self):
        # The free multipliers come from a triangular solve on the pivoted
        # QR; on a rank-deficient [Jc Ju] they are a basic solution, which
        # must still reach the reported stationarity.
        problem, x_star, _ = make_synthetic_kkt(seed=5)
        rng = np.random.default_rng(9)
        x = x_star + 0.3 * rng.standard_normal(problem.n)
        for prob, y, deficient in [
                (problem, x_star, False),
                (_with_first_equality_twice(problem), x, True)]:
            report = kkt_residual(prob, y)
            assert report.rank_deficient is deficient
            Jc, Ju, Jv = dense_jacobians(prob, y)
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
            assert np.array_equal(dense_jacobians(problem, x)[0],
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
        from cdpkit.diagnostics import dense_jacobians
        Jc, _, _ = dense_jacobians(problem, x_star)
        assert est.sigma1x == pytest.approx(
            np.linalg.svd(Jc, compute_uv=False)[-1])

    def test_sphere_jacobian_norm_near_two(self):
        problem = linear_objective_sphere_problem(4)
        x = np.zeros(4)
        x[0] = 1.0
        est = estimate_constants(problem, x, radius=0.1, samples=100, seed=0)
        assert 1.8 <= est.sigma1x <= 2.0

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
        six, points, _ = _bound_constants(problem, x, radius=0.1, samples=30,
                                          seed=0)
        full = estimate_constants(problem, x, radius=0.1, samples=30, seed=0)
        assert len(points) == full.sample_count + 1 == 31
        for name, value in six._asdict().items():
            assert value == getattr(full, name), name
        assert six.sigma1x > 0.0 and six.L_Ax > 0.0 and six.L_fx > 0.0

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


def _within_ulps(a, b, ulps):
    return abs(a - b) <= ulps * np.spacing(max(abs(a), abs(b)))


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
        six, points, _ = _bound_constants(problem, x, radius=0.1, samples=30,
                                          seed=0)
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
        _, points, _ = _bound_constants(problem, x, radius=0.1, samples=30,
                                        seed=0)
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
        problem = ProblemSpec(manifold=handle, eval_f=lambda x: 0.0,
                              grad_f=lambda x: np.zeros(m * q))
        blocks = _Blocks(problem)
        x = X.ravel()
        stack = blocks.jat(handle.point(x))
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
        assert _within_ulps(blocks.norm(blocks.stack_jc(x)), float(s[0]), 8)
        # An SVD resolves its smallest singular value to within rounding of
        # its largest.
        assert abs(blocks.sigma_min_jc(x) - s[-1]) <= 8 * np.spacing(s[0])

        xf = (X / norms).ravel()
        Jc = _dense_columns(handle.apply_Jc, xf, handle.p, handle.n)
        JaT = _dense_columns(handle.apply_JAT, xf, handle.n, handle.n)
        assert np.max(np.abs(Jc.T @ JaT)) <= 1e-14


class TestMatrixFreeConstants:
    """A handle without ``row_blocks`` has the norms of J_A^T bounded
    matrix-free, from the state's ``jat`` and ``ja``."""

    def test_jat_calls_below_dense(self):
        # At most GK_MAX_STEPS applications per norm at each of the 31
        # points, and twice that per quotient over the 30 consecutive
        # pairs: below the 31 n of assembling J_A^T at every point.
        problem, x0 = gen_center_of_mass(
            CenterOfMassConfig(m=20, q=4, N=8, r=0.5, seed=3))
        x = a_infinity(problem.manifold, x0)
        counted, calls = _counting_jat(problem)
        _bound_constants(counted, x, radius=0.1, samples=30, seed=0)
        assert 0 < len(calls) <= (31 + 2 * 30) * GK_MAX_STEPS < 31 * problem.n

    @pytest.mark.parametrize("case", ["symplectic-6-2", "symplectic-20-4",
                                      "oblique-unblocked"])
    def test_norms_bound_dense_from_below(self, case):
        # Golub-Kahan-Lanczos gives lower bounds on ||J_A^T|| and on the
        # Lipschitz quotients, at most MATRIX_FREE_RTOL below the dense
        # SVDs at the same points.  The other four constants do not read
        # J_A^T and stay the dense ones bit for bit.
        if case == "oblique-unblocked":
            problem, x = _unblocked(*_cut_reference_point(20, 0.2, 3))
        else:
            m, q = map(int, case.split("-")[1:])
            problem, x0 = gen_center_of_mass(
                CenterOfMassConfig(m=m, q=q, N=8, r=0.5, seed=3))
            x = a_infinity(problem.manifold, x0)
        six, points, _ = _bound_constants(problem, x, radius=0.1, samples=30,
                                          seed=0)
        reference = _dense_bound_constants(problem, points)
        for name, value in six._asdict().items():
            exact = reference[name]
            if name in ("M_Ax", "L_Ax"):
                assert value <= exact + 8 * np.spacing(exact), name
                assert value >= exact * (1.0 - MATRIX_FREE_RTOL), name
            else:
                assert value == exact, name


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
