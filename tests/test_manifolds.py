import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cdpkit.core import (
    DimensionError,
    EvaluatorFaultError,
    PenaltyParams,
    RankDeficiencyError,
    _dense_columns,
    default_fd_step,
    finite_diff_check,
)
from cdpkit.diagnostics import (
    _ball,
    _bound_constants,
    estimate_constants,
    make_synthetic_kkt,
    validate_manifold,
)
from cdpkit.dissolve import a_infinity, build_cdp
from cdpkit.manifolds import (
    GenericManifoldSpec,
    make_handle,
    symplectic_canonical_point,
    symplectic_form,
    symplectic_spec,
)

from conftest import (
    BAD_POINTS,
    counting_jc_reads,
    faulty_sphere_problem,
    feasibility_decrease_slope,
    linear_objective_sphere_problem,
    near_manifold_points,
    sphere_constraint_spec,
)


class TestObliqueOperator:
    """The oblique handle's map, read through ``eval_A`` and ``apply_JAT``
    on the flattened m x q matrix."""

    def test_unit_rows_are_fixed(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        handle = make_handle("oblique", m=6, q=3)
        assert np.allclose(handle.eval_A(X.ravel()), X.ravel(), atol=1e-15)

    def test_row_of_norm_two_maps_to_norm_four_fifths(self):
        x = np.array([[2.0, 0.0, 0.0]])
        out = make_handle("oblique", m=1, q=3).eval_A(x.ravel())
        assert np.allclose(out, 2.0 * x.ravel() / 5.0)
        assert np.linalg.norm(out) == pytest.approx(0.8)

    def test_zero_row_maps_to_zero(self):
        assert np.all(make_handle("oblique", m=2, q=3).eval_A(np.zeros(6))
                      == 0.0)

    def test_tangent_directions_fixed_at_feasible_points(self):
        x = np.array([1.0, 0.0])
        d = np.array([0.0, 0.7])  # orthogonal to the row
        assert np.allclose(make_handle("oblique", m=1, q=2).apply_JAT(x, d), d)

    def test_normal_directions_annihilated_at_feasible_points(self):
        x = np.array([0.6, 0.8])
        assert np.allclose(make_handle("oblique", m=1, q=2).apply_JAT(x, x),
                           0.0, atol=1e-15)

    def test_jacobian_at_origin_doubles_directions(self):
        D = np.arange(6.0)
        assert np.allclose(
            make_handle("oblique", m=2, q=3).apply_JAT(np.zeros(6), D), 2.0 * D)

    def test_jacobian_action_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((4, 3))
        handle = make_handle("oblique", m=4, q=3)
        err = finite_diff_check(handle.eval_A, handle.apply_JAT, X.ravel(),
                                step=default_fd_step(X.ravel()))
        # The transposed Jacobian is symmetric per row block, so the action
        # along d equals the directional derivative of A along d.
        assert err <= 1e-8


class TestSphereOperator:
    def test_unit_vector_fixed(self):
        x = np.array([0.0, 1.0, 0.0])
        assert np.allclose(make_handle("sphere", n=3).eval_A(x), x)

    def test_zero_maps_to_zero(self):
        assert np.all(make_handle("sphere", n=3).eval_A(np.zeros(3)) == 0.0)

    def test_norm_three_maps_to_norm_point_six(self):
        x = np.array([3.0, 0.0])
        out = make_handle("sphere", n=2).eval_A(x)
        assert np.allclose(out, 2.0 * x / 10.0)
        assert np.linalg.norm(out) == pytest.approx(0.6)

    def test_jacobian_action_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5)
        handle = make_handle("sphere", n=5)
        err = finite_diff_check(handle.eval_A, handle.apply_JAT, x,
                                step=default_fd_step(x))
        assert err <= 1e-8


class TestPointState:
    """The oblique and sphere states read A, c and the Jacobian actions
    bit for bit as the handles' separate evaluators did, each recomputing
    the squared norms, and the handles' ``apply_Jc`` reads Jc w: those
    formulas are written out here."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), m=st.integers(1, 8), q=st.integers(1, 4))
    def test_oblique_state_is_bitwise_the_separate_formulas(self, data, m, q):
        entries = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
        x, g = (data.draw(hnp.arrays(float, m * q, elements=entries))
                for _ in range(2))
        w = data.draw(hnp.arrays(float, m, elements=entries))
        X, D = x.reshape(m, q), g.reshape(m, q)
        s = np.sum(X * X, axis=1, keepdims=True)
        xd = np.sum(X * D, axis=1, keepdims=True)
        handle = make_handle("oblique", m=m, q=q)
        pt = handle.point(x)
        assert np.array_equal(pt.ax, (2.0 * X / (s + 1.0)).ravel())
        assert np.array_equal(pt.cx, np.sum(X ** 2, axis=1) - 1.0)
        jat = (2.0 * D / (s + 1.0) - 4.0 * xd * X / (s + 1.0) ** 2).ravel()
        assert np.array_equal(pt.jat(g), jat)
        assert np.array_equal(pt.ja(g), jat)
        assert np.array_equal(handle.apply_Jc(x, w),
                              (2.0 * w[:, None] * X).ravel())
        assert np.array_equal(pt.cx, handle.eval_c(x))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 32))
    def test_sphere_state_is_bitwise_the_separate_formulas(self, data, n):
        entries = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
        x, d = (data.draw(hnp.arrays(float, n, elements=entries))
                for _ in range(2))
        w = data.draw(hnp.arrays(float, 1, elements=entries))
        s = float(np.dot(x, x))
        handle = make_handle("sphere", n=n)
        pt = handle.point(x)
        assert np.array_equal(pt.ax, 2.0 * x / (float(np.dot(x, x)) + 1.0))
        assert np.array_equal(pt.cx, np.array([float(np.dot(x, x)) - 1.0]))
        jat = (2.0 * d / (s + 1.0)
               - 4.0 * float(np.dot(x, d)) * x / (s + 1.0) ** 2)
        assert np.array_equal(pt.jat(d), jat)
        assert np.array_equal(pt.ja(d), jat)
        assert np.array_equal(handle.apply_Jc(x, w), 2.0 * float(w[0]) * x)
        assert np.array_equal(pt.cx, handle.eval_c(x))


class TestSymplecticPointState:
    """The symplectic Stiefel handle's closed-form state, written out with
    dense forms: W = X^T Q_m X, B = (3/2) I + (1/2) Q_q W, A(X) = X B."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_state_matches_the_dense_formulas(self, data):
        m = data.draw(st.sampled_from([2, 4, 6, 8]))
        q = data.draw(st.sampled_from([k for k in (2, 4, 6) if k <= m]))
        entries = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
        x, d, g = (data.draw(hnp.arrays(float, m * q, elements=entries))
                   for _ in range(3))
        Qm, Qq = symplectic_form(m), symplectic_form(q)
        X, D, G = x.reshape(m, q), d.reshape(m, q), g.reshape(m, q)
        B = 1.5 * np.eye(q) + 0.5 * Qq @ X.T @ Qm @ X
        handle = make_handle("symplectic_stiefel", m=m, q=q)
        pt = handle.point(x)
        # c is bit for bit the spec's, the one source of c.
        assert np.array_equal(pt.cx, symplectic_spec(m, q).eval_c(x))
        assert np.array_equal(pt.cx, handle.eval_c(x))
        scale = 1.0 + np.max(np.abs(X)) ** 3
        assert np.allclose(pt.ax, (X @ B).ravel(), rtol=0, atol=1e-13 * scale)
        ja = D @ B + 0.5 * X @ Qq @ (D.T @ Qm @ X + X.T @ Qm @ D)
        H = Qq.T @ X.T @ G
        jat = G @ B.T + 0.5 * Qm @ X @ (H.T - H)
        assert np.allclose(pt.ja(d), ja.ravel(), rtol=0,
                           atol=1e-13 * scale * (1.0 + np.max(np.abs(D))))
        assert np.allclose(pt.jat(g), jat.ravel(), rtol=0,
                           atol=1e-13 * scale * (1.0 + np.max(np.abs(G))))

    @pytest.mark.parametrize("family", ["symplectic_stiefel",
                                        "symplectic_generic"])
    def test_map_contracts_quadratically_near_the_canonical_point(self,
                                                                  family):
        # ||c(A(y))|| <= K ||c(y)||^2 for y within 1e-1 of the canonical
        # point, along random directions.
        handle = _symplectic_handle(family, 8, 4)
        E = symplectic_canonical_point(8, 4).ravel()
        rng = np.random.default_rng(31)
        for _ in range(5):
            w = rng.standard_normal(E.size)
            w /= np.linalg.norm(w)
            for t in (1e-1, 1e-2, 1e-3):
                y = E + t * w
                cy = float(np.linalg.norm(handle.eval_c(y)))
                cay = float(np.linalg.norm(handle.eval_c(handle.eval_A(y))))
                assert cay <= cy ** 2, (t, cy, cay)

    @pytest.mark.parametrize("family", ["symplectic_stiefel",
                                        "symplectic_generic"])
    def test_validates_at_projected_points(self, family):
        handle = _symplectic_handle(family, 10, 4)
        E = symplectic_canonical_point(10, 4).ravel()
        probes = near_manifold_points(handle, E, count=6, scale=0.05, seed=4)
        report = validate_manifold(handle, probes, tol=1e-8)
        assert report.passed and report.probes_used == 6


def _symplectic_handle(family, m, q):
    """The closed-form symplectic Stiefel handle, or the Gauss-Newton map of
    the same spec for ``symplectic_generic``."""
    if family == "symplectic_generic":
        return make_handle("generic", spec=symplectic_spec(m, q))
    return make_handle(family, m=m, q=q)


def _uncached_A(spec, x):
    """A(x) from a new generic handle: no state cached from earlier calls."""
    return make_handle("generic", spec=spec).eval_A(x)


def _uncached_JAT(spec, x, g):
    """J_A(x)^T g from a new generic handle."""
    return make_handle("generic", spec=spec).apply_JAT(x, g)


class TestGenericOperator:
    def test_feasible_point_is_fixed(self):
        spec = sphere_constraint_spec(4)
        x = np.array([0.0, 0.0, 1.0, 0.0])
        assert np.allclose(_uncached_A(spec, x), x)

    def test_hand_evaluated_correction_on_sphere_constraint(self):
        # c(x) = ||x||^2 - 1 at x = 2 e1: correction Jc (Jc^T Jc)^{-1} c
        # = (4 e1)(16)^{-1}(3) = 0.75 e1, so A(x) = 1.25 e1.
        spec = sphere_constraint_spec(3)
        x = np.array([2.0, 0.0, 0.0])
        assert np.allclose(_uncached_A(spec, x), np.array([1.25, 0.0, 0.0]))

    def test_symplectic_canonical_point_is_fixed(self):
        spec = symplectic_spec(8, 4)
        E = symplectic_canonical_point(8, 4).ravel()
        assert np.allclose(_uncached_A(spec, E), E, atol=1e-14)

    def test_singular_gram_matrix_raises(self):
        # Two identical constraints make Jc^T Jc exactly singular.
        spec = GenericManifoldSpec(
            n=3, p=2,
            eval_c=lambda x: np.array([np.dot(x, x) - 1.0] * 2),
            apply_Jc=lambda x, w: 2.0 * (w[0] + w[1]) * np.asarray(x, dtype=float),
            name="duplicated")
        with pytest.raises(RankDeficiencyError):
            _uncached_A(spec, np.array([2.0, 0.0, 0.0]))

    @staticmethod
    def _affine_spec(gram_cond):
        """c(x) = B^T x - 1 with n = 5, p = 3, and a Gram matrix B^T B whose
        2-norm condition number is ``gram_cond``, in a rotated basis so
        that it is not diagonal."""
        rng = np.random.default_rng(4)
        U = np.linalg.qr(rng.standard_normal((5, 3)))[0]
        R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        B = U @ np.diag([1.0, 0.5, gram_cond ** -0.5]) @ R.T
        return GenericManifoldSpec(
            n=5, p=3,
            eval_c=lambda x: B.T @ x - 1.0,
            apply_Jc=lambda x, w: B @ w,
            apply_dJc=lambda x, d, w: np.zeros(5),
            name="affine"), B

    def test_rank_threshold_is_a_condition_number_of_1e12(self):
        x = np.linspace(-1.0, 1.0, 5)
        g = np.ones(5)
        # Above the bound but still positive definite in floating point:
        # a Cholesky factorisation succeeds, and the check must not rely on
        # one failing.
        spec, B = self._affine_spec(1e14)
        np.linalg.cholesky(B.T @ B)
        handle = make_handle("generic", spec=spec)
        for call in (lambda: handle.eval_A(x),
                     lambda: handle.apply_JAT(x, g)):
            with pytest.raises(RankDeficiencyError):
                call()
        spec, _ = self._affine_spec(1e10)
        handle = make_handle("generic", spec=spec)
        # One Gauss-Newton step solves an affine constraint, to rounding of
        # a step of size ~1/sigma_min(B) = 1e5.
        ax = handle.eval_A(x)
        assert np.linalg.norm(spec.eval_c(ax)) <= 1e-10 * np.linalg.norm(ax)
        assert np.all(np.isfinite(handle.apply_JAT(x, g)))

    # LAPACK's 1-norm estimate of the condition of _affine_spec's Gram
    # matrix, which the rank test bounds, is 1.6457e11 at exact cond_2
    # 1e11 and 1.6454e13 at cond_2 1e13: one decade on either side of the
    # bound 1e12, both decided as their cond_2 is.
    @pytest.mark.parametrize("gram_cond, passes", [(1e11, True),
                                                   (1e13, False)])
    def test_rank_test_decides_a_decade_from_the_bound(self, gram_cond,
                                                       passes):
        spec, _ = self._affine_spec(gram_cond)
        handle = make_handle("generic", spec=spec)
        x = np.linspace(-1.0, 1.0, 5)
        for call in (lambda: handle.eval_A(x),
                     lambda: handle.apply_JAT(x, np.ones(5))):
            if passes:
                assert np.all(np.isfinite(call()))
            else:
                with pytest.raises(RankDeficiencyError):
                    call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_raises_evaluator_fault(self, bad):
        handle = make_handle("generic", spec=symplectic_spec(6, 2))
        d = np.ones(12)
        x = np.full(12, bad)
        one = symplectic_canonical_point(6, 2).ravel()
        one[5] = bad
        for y in (x, one):
            for call in (lambda: handle.eval_A(y),
                         lambda: handle.apply_JAT(y, d),
                         lambda: handle.point(y).ja(d)):
                # inf times a zero entry of the skew matrix is NaN.
                with pytest.raises(EvaluatorFaultError), \
                        np.errstate(invalid="ignore"):
                    call()

    @pytest.mark.parametrize("bad, error", BAD_POINTS)
    def test_bad_constraint_value_is_named(self, bad, error):
        # Not numpy's ValueError from the Gauss-Newton solve with a short c.
        problem, x = faulty_sphere_problem("eval_c", bad)
        with pytest.raises(error, match="eval_c"):
            problem.manifold.point(x + 0.01)

    def test_spec_without_constraints_rejected(self):
        with pytest.raises(DimensionError):
            GenericManifoldSpec(
                n=3, p=0, eval_c=lambda x: np.zeros(0),
                apply_Jc=lambda x, w: np.zeros(3))

    def test_jacobian_action_matches_finite_differences(self):
        spec = sphere_constraint_spec(5)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        x += 0.05 * rng.standard_normal(5)
        g = rng.standard_normal(5)
        handle = make_handle("generic", spec=spec)
        err = finite_diff_check(
            lambda y: float(np.dot(g, handle.eval_A(y))),
            lambda y, d: float(np.dot(handle.apply_JAT(y, g), d)),
            x, step=default_fd_step(x))
        assert err <= 1e-8


class TestGenericHandleCache:
    """The generic handle's state ``point(x)`` reads Jc and computes the
    Gram matrix G and G^{-1} c once, and shares them between its reads
    ``ax``, ``jat`` and ``ja``; the state's first Jacobian action forms
    G^{-1}, which every later action there reuses."""

    @staticmethod
    def _counted(batched):
        """The (8, 4) symplectic spec, without its ``jacobian`` when not
        ``batched``, with its Jc reads counted, and the
        ``(jacobian, apply_Jc)`` counts of one Jc read: one ``jacobian``
        call, or p ``apply_Jc`` columns without it."""
        spec = symplectic_spec(8, 4)
        if not batched:
            spec = dataclasses.replace(spec, jacobian=None)
        spec, taken = counting_jc_reads(spec)
        return spec, taken, (1, 0) if batched else (0, spec.p)

    def test_bitwise_equal_to_uncached_map(self):
        spec = symplectic_spec(8, 4)
        handle = make_handle("generic", spec=spec)
        rng = np.random.default_rng(21)
        E = symplectic_canonical_point(8, 4).ravel()
        x1 = E + 0.1 * rng.standard_normal(spec.n)
        x2 = E + 0.1 * rng.standard_normal(spec.n)
        g = rng.standard_normal(spec.n)
        for x in (x1, x2, x1, x1):
            pt = handle.point(x)
            assert np.array_equal(pt.ax, _uncached_A(spec, x))
            assert np.array_equal(pt.jat(g), _uncached_JAT(spec, x, g))
            assert np.array_equal(pt.ja(g), handle.point(x).ja(g))
            assert np.array_equal(pt.cx, spec.eval_c(x))
        x = x1.copy()
        pt = handle.point(x)
        x[3] += 0.05  # changed in place: the state stays the one at x1
        assert np.array_equal(pt.jat(g), _uncached_JAT(spec, x1, g))
        assert np.array_equal(handle.point(x).ax, _uncached_A(spec, x))
        assert not np.array_equal(handle.point(x).ax, pt.ax)

    @pytest.mark.parametrize("cols", [0, 2])
    def test_point_names_a_misshapen_jacobian(self, cols):
        # Not an IndexError from the eigenvalues of a 0 x 0 Gram matrix,
        # nor a state built on n x 2 columns for p = 1.
        spec = dataclasses.replace(sphere_constraint_spec(4),
                                   jacobian=lambda x: np.ones((4, cols)))
        with pytest.raises(DimensionError, match="jacobian"):
            make_handle("generic", spec=spec).point(np.eye(4)[0])

    def test_point_names_a_short_apply_jc_column(self):
        # The handle's own jacobian reads the columns through apply_Jc:
        # not numpy's broadcast ValueError.
        problem, x = faulty_sphere_problem("jacobian", "short")
        with pytest.raises(DimensionError, match="apply_Jc"):
            problem.manifold.point(x)

    def test_rank_deficient_point_raises_on_every_call(self):
        # Jc(0) = 0 for c(x) = ||x||^2 - 1, so the Gram matrix is singular.
        spec = sphere_constraint_spec(4)
        handle = make_handle("generic", spec=spec)
        x = np.array([2.0, 0.0, 0.0, 0.0])
        good = handle.eval_A(x)
        x[:] = 0.0
        for _ in range(2):
            with pytest.raises(RankDeficiencyError):
                handle.eval_A(x)
            with pytest.raises(RankDeficiencyError):
                handle.apply_JAT(x, np.ones(4))
        x[0] = 2.0
        assert np.array_equal(handle.eval_A(x), good)

    def test_jc_columns_built_once_per_point(self):
        # One jacobian read per point state; a spec without jacobian takes
        # p apply_Jc columns instead.
        for batched in (True, False):
            spec, taken, per_read = self._counted(batched)
            handle = make_handle("generic", spec=spec)
            rng = np.random.default_rng(22)
            E = symplectic_canonical_point(8, 4).ravel()

            pt = handle.point(E + 0.1 * rng.standard_normal(spec.n))
            for col in np.eye(spec.n):
                pt.jat(col)
            assert taken() == per_read

            # beta = 0, so the penalty term adds no Jc action of its own.
            problem = linear_objective_sphere_problem(spec.n, handle=handle)
            instance = build_cdp(problem, PenaltyParams(0.0))
            x = E + 0.1 * rng.standard_normal(spec.n)
            instance.point_eval(x).weighted_grad()
            assert taken() == per_read

    def test_bound_pass_builds_each_point_once(self):
        # The Lipschitz quotient alternates between consecutive sample
        # points at every Krylov step; the pass holds the state of each.
        rng = np.random.default_rng(23)
        E = symplectic_canonical_point(8, 4).ravel()
        x = a_infinity(make_handle("generic", spec=symplectic_spec(8, 4)),
                       E + 0.05 * rng.standard_normal(E.size))
        for batched in (True, False):
            spec, taken, per_read = self._counted(batched)
            problem = linear_objective_sphere_problem(
                spec.n, handle=make_handle("generic", spec=spec))
            _bound_constants(problem, x, radius=0.1, samples=30, seed=0)
            points = _ball(x, radius=0.1, samples=30, seed=0)
            # One Jc read for sigma_min(Jc(x)), then one state per sample
            # point.
            assert taken() == tuple((1 + len(points)) * k for k in per_read)

    def test_constant_estimates_read_jc_through_jacobian(self):
        # Jc(A(y)) is one jacobian read per sample point, like Jc(y): one
        # walk of the 11 points reads 3 at each (Jc(y), the state at y,
        # Jc(A(y))), and sigma_min(Jc(x)) shares the first; no apply_Jc
        # column.
        spec, taken, _ = self._counted(True)
        problem = linear_objective_sphere_problem(
            spec.n, handle=make_handle("generic", spec=spec))
        estimate_constants(problem, symplectic_canonical_point(8, 4).ravel(),
                           0.05, samples=10)
        assert taken() == (3 * 11, 0)

    def test_gram_inverse_formed_once_per_acted_point(self, monkeypatch):
        formed = [0]
        inverse = np.linalg.inv

        def counted(G):
            formed[0] += 1
            return inverse(G)

        monkeypatch.setattr(np.linalg, "inv", counted)
        spec = symplectic_spec(8, 4)
        handle = make_handle("generic", spec=spec)
        rng = np.random.default_rng(24)
        E = symplectic_canonical_point(8, 4).ravel()

        # The generator and a_infinity only evaluate A: no inverse.
        y = E + 0.05 * rng.standard_normal(spec.n)
        for _ in range(5):
            y = handle.eval_A(y)
        assert formed[0] == 0

        x = E + 0.1 * rng.standard_normal(spec.n)
        handle.eval_A(x)
        pt = handle.point(x)
        for col in np.eye(spec.n):
            pt.jat(col)
            pt.ja(col)
        assert formed[0] == 1

    def test_point_state_does_not_alias_the_callers_array(self):
        # c(x) = sum x_i^3 - 1 with no apply_dJc: the finite-difference
        # second-order action reads the state's x, and Jc is not linear in
        # x, so a state holding a view of the caller's array would act at
        # the changed point.
        spec = GenericManifoldSpec(
            n=4, p=1,
            eval_c=lambda x: np.array([float(np.sum(x ** 3)) - 1.0]),
            apply_Jc=lambda x, w: 3.0 * float(np.asarray(w)[0]) * x ** 2,
            name="cubic")
        handle = make_handle("generic", spec=spec)
        x0 = np.array([0.9, 0.3, -0.2, 0.4])
        g = np.array([0.5, -1.0, 0.25, 2.0])
        x = x0.copy()
        pt = handle.point(x)
        x *= 1.5
        assert np.array_equal(pt.jat(g), _uncached_JAT(spec, x0, g))
        assert np.array_equal(pt.ja(g),
                              make_handle("generic", spec=spec).point(x0).ja(g))
        assert np.array_equal(pt.ax, _uncached_A(spec, x0))


class TestSymplecticFamily:
    def test_form_is_standard_skew_block(self):
        Q = symplectic_form(4)
        expected = np.array([
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ])
        assert np.array_equal(Q, expected)

    def test_canonical_point_satisfies_constraint(self):
        for (m, q) in [(8, 4), (20, 4), (12, 6)]:
            E = symplectic_canonical_point(m, q)
            res = E.T @ symplectic_form(m) @ E - symplectic_form(q)
            assert np.linalg.norm(res) <= 1e-14

    def test_constraint_counts_independent_entries_only(self):
        spec = symplectic_spec(10, 4)
        assert spec.p == 6  # strict upper triangle of a 4x4 skew residual

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_jacobian_actions_bitwise_equal_to_dense_form(self, data):
        # apply_Jc and apply_dJc take -Q_m X as a row swap and fill the
        # skew matrix directly, and jacobian builds every column by
        # indexing; pin them to the matrix products they stand for.
        m = data.draw(st.sampled_from([2, 4, 6, 8, 10, 12]))
        q = data.draw(st.sampled_from([k for k in (2, 4, 6) if k <= m]))
        spec = symplectic_spec(m, q)
        finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
        x = data.draw(hnp.arrays(float, spec.n, elements=finite))
        d = data.draw(hnp.arrays(float, spec.n, elements=finite))
        w = data.draw(hnp.arrays(float, spec.p, elements=finite))
        Qm = symplectic_form(m)
        S = np.zeros((q, q))
        S[np.triu_indices(q, 1)] = w
        for X, got in ((x.reshape(m, q), spec.apply_Jc(x, w)),
                       (d.reshape(m, q), spec.apply_dJc(x, d, w))):
            assert np.array_equal(got, (-Qm @ X @ (S - S.T)).ravel())
        # The batched Jc read is the column loop over apply_Jc.
        handle = make_handle("symplectic_stiefel", m=m, q=q)
        for owner in (spec, handle):
            assert np.array_equal(owner.jacobian(x), _dense_columns(
                owner.apply_Jc, x, owner.p, owner.n))

    def test_jacobian_adjoint_consistency(self):
        handle = make_handle("symplectic_stiefel", m=8, q=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(32)
        d = rng.standard_normal(32)
        w = rng.standard_normal(handle.p)
        lhs = float(np.dot(handle.apply_JcT(x, d), w))
        rhs = float(np.dot(d, handle.apply_Jc(x, w)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestMakeHandle:
    def test_oblique_dimensions(self):
        handle = make_handle("oblique", m=100, q=10)
        assert (handle.n, handle.p) == (1000, 100)

    def test_sphere_has_single_constraint(self):
        handle = make_handle("sphere", n=3)
        assert handle.p == 1

    def test_symplectic_canonical_point_validates(self):
        handle = make_handle("symplectic_stiefel", m=50, q=10)
        E = symplectic_canonical_point(50, 10).ravel()
        assert validate_manifold(handle, [E], tol=1e-8).passed

    def test_only_the_oblique_handle_declares_row_blocks(self):
        assert make_handle("oblique", m=4, q=3).row_blocks == (4, 3)
        assert make_handle("sphere", n=3).row_blocks is None
        assert make_handle("symplectic_stiefel", m=6, q=2).row_blocks is None
        assert make_handle("generic",
                           spec=sphere_constraint_spec(3)).row_blocks is None

    @pytest.mark.parametrize("family, kwargs", [
        ("oblique", dict(m=5, q=3)), ("sphere", dict(n=6)),
        ("symplectic_stiefel", dict(m=6, q=2)),
        ("generic", dict(spec=sphere_constraint_spec(6))),
        ("euclidean", dict(n=4))])
    def test_handle_derives_its_three_reads(self, family, kwargs):
        # eval_A, apply_JAT and apply_JcT are reads of point and jacobian,
        # and a value passed in, as the tracer's replace passes, is kept.
        handle = make_handle(family, **kwargs)
        x, d = np.random.default_rng(4).standard_normal((2, handle.n))
        assert np.array_equal(handle.eval_A(x), handle.point(x).ax)
        assert np.array_equal(handle.apply_JAT(x, d), handle.point(x).jat(d))
        assert np.array_equal(handle.apply_JcT(x, d),
                              handle.jacobian(x).T @ d)

        def f(y):
            return y

        kept = dataclasses.replace(handle, eval_A=f)
        assert kept.eval_A is f
        assert kept.apply_JAT is handle.apply_JAT
        assert kept.apply_JcT is handle.apply_JcT

    def test_odd_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            make_handle("symplectic_stiefel", m=7, q=2)
        with pytest.raises(DimensionError):
            make_handle("symplectic_stiefel", m=8, q=3)


class TestConstraintJacobianTranspose:
    """A handle's ``apply_JcT`` is ``jacobian(x).T @ d``, so differencing
    ``eval_c`` against it checks the Jc that the KKT and LICQ checks, the
    Gauss-Newton map and the beta safeguard read."""

    HANDLES = {
        "oblique": lambda: make_handle("oblique", m=5, q=3),
        "sphere": lambda: make_handle("sphere", n=6),
        "symplectic_stiefel": lambda: make_handle("symplectic_stiefel",
                                                  m=8, q=4),
        "symplectic_generic": lambda: _symplectic_handle("symplectic_generic",
                                                         8, 4),
        "generic": lambda: make_handle("generic",
                                       spec=sphere_constraint_spec(6)),
        "euclidean": lambda: make_handle("euclidean", n=4),
    }

    @pytest.mark.parametrize("family", sorted(HANDLES))
    def test_matches_finite_differences_of_c(self, family):
        handle = self.HANDLES[family]()
        rng = np.random.default_rng(2)
        x = rng.standard_normal(handle.n)
        assert handle.apply_JcT(x, rng.standard_normal(handle.n)).shape \
            == (handle.p,)
        err = finite_diff_check(handle.eval_c, handle.apply_JcT, x,
                                step=default_fd_step(x))
        assert err <= 1e-7

    def test_a_wrong_jacobian_fails_the_check(self):
        # apply_Jc is right, jacobian is 3x against the true 2x: the check
        # must see the Jacobian the solver reads, not a third formula.
        spec = dataclasses.replace(
            sphere_constraint_spec(6),
            jacobian=lambda x: 3.0 * np.asarray(x, dtype=float)[:, None])
        handle = make_handle("generic", spec=spec)
        x = np.random.default_rng(0).standard_normal(6)
        x /= np.linalg.norm(x)
        err = finite_diff_check(handle.eval_c, handle.apply_JcT, x,
                                step=default_fd_step(x))
        assert err > 0.1


@pytest.fixture(scope="module")
def families():
    sym = make_handle("symplectic_stiefel", m=6, q=2)
    return {
        "oblique": (make_handle("oblique", m=5, q=3), None),
        "sphere": (make_handle("sphere", n=6), None),
        "symplectic_stiefel": (sym, symplectic_canonical_point(6, 2).ravel()),
        "symplectic_generic": (_symplectic_handle("symplectic_generic", 6, 2),
                               symplectic_canonical_point(6, 2).ravel()),
        "generic": (make_handle("generic", spec=sphere_constraint_spec(6)),
                    None),
    }


class TestNeighborhoodLemmas:

    def _base_point(self, handle, given, seed=0):
        if given is not None:
            return given
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(handle.n)
        return a_infinity(handle, 0.5 * y / np.linalg.norm(y)
                          + self._anchor(handle), tol=1e-13)

    @staticmethod
    def _anchor(handle):
        anchor = np.zeros(handle.n)
        anchor[0] = 1.0
        if handle.row_blocks is not None:
            m, q = handle.row_blocks
            for i in range(m):
                anchor[i * q + i % q] = 1.0
        return anchor

    def test_quadratic_feasibility_decrease_slope(self, families):
        rng = np.random.default_rng(11)
        for name, (handle, base) in families.items():
            x = self._base_point(handle, base)
            slope = feasibility_decrease_slope(handle, x,
                                               rng.standard_normal(handle.n))
            assert 1.85 <= slope <= 2.15, f"{name}: slope {slope}"

    def test_step_length_bounded_by_violation(self, families):
        rng = np.random.default_rng(12)
        for name, (handle, base) in families.items():
            x = self._base_point(handle, base)
            w = rng.standard_normal(handle.n)
            w /= np.linalg.norm(w)
            ratios = []
            for t in (1e-1, 1e-2, 1e-3, 1e-4):
                y = x + t * w
                cy = float(np.linalg.norm(handle.eval_c(y)))
                if cy == 0.0:
                    continue
                ratios.append(float(np.linalg.norm(handle.eval_A(y) - y)) / cy)
            assert max(ratios) <= 10.0 * max(min(ratios), 1e-6), \
                f"{name}: step/violation ratio blows up: {ratios}"

    def test_distance_sandwiched_by_violation_on_sphere(self):
        # For the unit sphere dist(y, M) = | ||y|| - 1 | exactly; the
        # violation |‖y‖²−1| must bracket it via the Jacobian bounds.
        handle = make_handle("sphere", n=5)
        rng = np.random.default_rng(13)
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        w = rng.standard_normal(5)
        w /= np.linalg.norm(w)
        for t in (1e-1, 1e-2, 1e-3):
            y = x + t * w
            c = abs(float(np.dot(y, y)) - 1.0)
            dist = abs(np.linalg.norm(y) - 1.0)
            M_c = 2.0 * (np.linalg.norm(y) + 0.1)  # sup ||Jc|| nearby
            sigma = 2.0 * (np.linalg.norm(y) - 0.2)  # inf singular value
            assert c / M_c <= dist <= 2.0 * c / sigma


def _start_near(data, family):
    """Draw a small handle of the family and a start that ``a_infinity``
    projects: rows (or the vector) of norm >= 0.1 in [-2, 2], or the
    canonical symplectic point moved by at most 0.1 per entry."""
    if family in ("symplectic_stiefel", "symplectic_generic"):
        m, q = data.draw(st.sampled_from([(2, 2), (4, 2), (6, 2), (4, 4),
                                          (6, 4)]))
        w = data.draw(hnp.arrays(float, m * q, elements=st.floats(-0.1, 0.1)))
        return (_symplectic_handle(family, m, q),
                symplectic_canonical_point(m, q).ravel() + w)
    if family == "oblique":
        m, q = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
        y = data.draw(hnp.arrays(float, m * q, elements=st.floats(-2.0, 2.0)))
        assume(np.all(np.linalg.norm(y.reshape(m, q), axis=1) >= 0.1))
        return make_handle(family, m=m, q=q), y
    n = data.draw(st.integers(1, 12))
    y = data.draw(hnp.arrays(float, n, elements=st.floats(-2.0, 2.0)))
    assume(np.linalg.norm(y) >= 0.1)
    return make_handle(family, n=n), y


class TestProjectedPointProperties:

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), family=st.sampled_from(
        ["oblique", "sphere", "symplectic_stiefel", "symplectic_generic"]))
    def test_projected_point_is_fixed(self, data, family):
        handle, y = _start_near(data, family)
        # A moves x by O(||c(x)||), so project to a residual at rounding
        # level: at the default tolerance of 1e-12 the move is ~3000 ulps.
        x = a_infinity(handle, y, tol=1e-15)
        move = np.max(np.abs(handle.eval_A(x) - x))
        assert move <= 8 * np.spacing(np.max(np.abs(x)))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), family=st.sampled_from(
        ["sphere", "symplectic_stiefel", "symplectic_generic"]))
    def test_jc_annihilates_jat_at_projected_point(self, data, family):
        handle, y = _start_near(data, family)
        x = a_infinity(handle, y)
        Jc = _dense_columns(handle.apply_Jc, x, handle.p, handle.n)
        JaT = _dense_columns(handle.apply_JAT, x, handle.n, handle.n)
        # J_A^T Jc vanishes on the manifold, so D(c o A) = Jc^T J_A does,
        # and it grows like ||c(x)|| off it; n eps covers the rounding of
        # the product.
        c = float(np.linalg.norm(handle.eval_c(x)))
        tol = 4.0 * (c + handle.n * np.finfo(float).eps)
        assert np.max(np.abs(JaT @ Jc)) <= tol
        if family != "symplectic_stiefel":
            # On the manifold the sphere and Gauss-Newton maps have the
            # orthogonal tangent projector as J_A, a symmetric matrix, so
            # Jc^T J_A^T vanishes too.  The closed-form symplectic J_A
            # projects along another complement and keeps normal
            # directions.
            assert np.max(np.abs(Jc.T @ JaT)) <= tol


def _forward_case(data, family):
    """A handle of the family and a point to differentiate its map at."""
    if family == "affine":
        problem, x_star, _ = make_synthetic_kkt(
            seed=data.draw(st.integers(0, 1000)))
        w = data.draw(hnp.arrays(float, problem.n,
                                 elements=st.floats(-1.0, 1.0)))
        return problem.manifold, x_star + w
    if family == "euclidean":
        n = data.draw(st.integers(1, 12))
        return make_handle("euclidean", n=n), data.draw(
            hnp.arrays(float, n, elements=st.floats(-2.0, 2.0)))
    return _start_near(data, family)


class TestForwardJacobian:
    """The state's ``ja`` is the derivative of ``eval_A`` and the adjoint
    of ``apply_JAT``: the matrix-free norms of J_A^T rely on both."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), family=st.sampled_from(
        ["oblique", "sphere", "symplectic_stiefel", "symplectic_generic",
         "affine", "euclidean"]))
    def test_forward_action_is_the_derivative_and_the_adjoint(self, data,
                                                               family):
        handle, y = _forward_case(data, family)
        assert finite_diff_check(handle.eval_A,
                                 lambda z, d: handle.point(z).ja(d), y,
                                 default_fd_step(y)) <= 1e-7
        # The dense Jc read is the column loop over apply_Jc.
        assert np.array_equal(handle.jacobian(y), _dense_columns(
            handle.apply_Jc, y, handle.p, handle.n))
        rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
        d, g = rng.standard_normal((2, handle.n))
        gap = (np.dot(handle.point(y).ja(d), g)
               - np.dot(d, handle.apply_JAT(y, g)))
        assert abs(gap) <= 1e-12 * np.linalg.norm(d) * np.linalg.norm(g)
