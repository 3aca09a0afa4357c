"""Catalog of constraint dissolving operators.

Closed-form operators for the oblique manifold (unit-norm rows), the
sphere and the symplectic Stiefel manifold, and a generic Gauss-Newton
operator for an arbitrary full-rank constraint map.  The generic operator
serves user specs, and over ``symplectic_spec`` it generates the
center-of-mass instances.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DimensionError,
    ManifoldHandle,
    RankDeficiencyError,
    Vector,
    _check_point,
    _check_read,
    _check_shape,
    _dense_columns,
    _guarded_cholesky,
    default_fd_step,
)

__all__ = [
    "GenericManifoldSpec",
    "make_handle",
    "symplectic_canonical_point",
    "symplectic_form",
    "symplectic_spec",
]


# ---------------------------------------------------------------------------
# Oblique manifold: diag(X X^T) = 1, i.e. unit-norm rows.


class _ObliquePoint:
    """The oblique map's state at an m x q point X: the squared row norms
    s_i = ||x_i||^2 and s + 1, computed once, give A, c and the Jacobian
    actions there.  Row i of A is 2 x_i / (s_i + 1), and c_i = s_i - 1."""

    def __init__(self, X: Vector):
        self.X = X
        s = np.sum(X * X, axis=1, keepdims=True)
        self.s1 = s + 1.0
        self.ax = (2.0 * X / self.s1).ravel()
        self.cx = s.ravel() - 1.0

    def jat(self, g: Vector) -> Vector:
        """Transposed-Jacobian action, equal to the forward one: the
        q x q block of row i is symmetric."""
        X, s1 = self.X, self.s1
        D = np.asarray(g, dtype=float).reshape(X.shape)
        xd = np.sum(X * D, axis=1, keepdims=True)
        return (2.0 * D / s1 - 4.0 * xd * X / s1 ** 2).ravel()

    ja = jat


class _SpherePoint:
    """The sphere map's state at x: s = ||x||^2, computed once."""

    def __init__(self, x: Vector):
        self.x = x = np.asarray(x, dtype=float)
        self.s = s = float(np.dot(x, x))
        self.ax = 2.0 * x / (s + 1.0)
        self.cx = np.array([s - 1.0])

    def jat(self, d: Vector) -> Vector:
        x, s = self.x, self.s
        d = np.asarray(d, dtype=float)
        return 2.0 * d / (s + 1.0) - 4.0 * float(np.dot(x, d)) * x / (s + 1.0) ** 2

    ja = jat


# ---------------------------------------------------------------------------
# Generic dissolving operator for arbitrary c with full-rank Jacobian.
GAUSS_NEWTON_MAX_COND = 1e12  # its state's bound on the Gram condition


@dataclass(frozen=True)
class GenericManifoldSpec:
    """User-supplied constraint map ``eval_c`` and its Jacobian action
    ``apply_Jc(x, w)`` = Jc(x) w; the rest is optional.

    ``apply_dJc(x, d, w)`` is the second-order action
    ``(D_d Jc(x)) w = sum_l w_l Hess(c_l)(x) d``; when omitted it is
    approximated by central differences of ``apply_Jc``.

    ``jacobian(x)`` is the dense n x p ``Jc(x)``, column l equal to
    ``apply_Jc(x, e_l)``; without it, the handle's ``jacobian`` takes p
    ``apply_Jc`` columns, and one of another length, or non-finite,
    raises ``DimensionError`` or ``EvaluatorFaultError`` naming
    ``apply_Jc``.  A ``point(x)`` whose ``jacobian`` is not n x p raises
    ``DimensionError`` naming ``jacobian``.  A spec rebuilt with
    ``dataclasses.replace(..., apply_Jc=...)`` must replace ``jacobian``
    too, or set it to None.

    Every callable must be a pure function of its arguments.  The
    handle's ``eval_c`` and ``apply_Jc`` are the spec's, and ``apply_Jc``
    is the one door to Jc(x) w, not ``J @ w``, which rounds differently.
    Its ``point(x)`` reads ``jacobian`` once and keeps the state at x (a
    copy of x, ``Jc(x)``, the Gram matrix G, c(x), G^{-1} c(x) and A(x));
    its ``jat`` and ``ja`` share that state.  A state's first Jacobian
    action of A forms G^{-1}, so later actions there cost products
    instead of solves; ``ax`` never forms it.  The handle derives its
    other reads as ``ManifoldHandle`` says, and ``dataclasses.replace`` on
    it copies them.
    """

    n: int
    p: int
    eval_c: Callable[[Vector], Vector]
    apply_Jc: Callable[[Vector, Vector], Vector]
    apply_dJc: Callable[[Vector, Vector, Vector], Vector] | None = None
    name: str = "generic"
    jacobian: Callable[[Vector], Vector] | None = None

    def __post_init__(self):
        if self.p <= 0 or self.n <= 0:
            raise DimensionError(
                f"generic spec needs n, p > 0, got ({self.n}, {self.p}); "
                "a map without constraints is the euclidean handle")


def _djc_action(spec: GenericManifoldSpec, x: Vector, d: Vector, w: Vector) -> Vector:
    if spec.apply_dJc is not None:
        return spec.apply_dJc(x, d, w)
    nd = float(np.linalg.norm(d))
    if nd == 0.0:
        return np.zeros_like(x)
    step = default_fd_step(x) / nd
    return (spec.apply_Jc(x + step * d, w) - spec.apply_Jc(x - step * d, w)) / (2.0 * step)


class _GenericPoint:
    """The generic map's state at one point x: J = Jc(x), the Gram matrix
    G = J^T J, ``cx`` = c(x), w = G^{-1} c(x), z = J w and ``ax`` = A(x) =
    x - z, with G^{-1} and E formed when a Jacobian action first needs
    them.  It keeps its own copy of x.

    Its rank test is ``_guarded_cholesky`` at ``GAUSS_NEWTON_MAX_COND``, on
    an estimate of cond_1(G), within a factor p of cond_2(G).  Generated
    instances are pinned to the rounding of w and G^{-1} by ``np.linalg``."""

    def __init__(self, spec: GenericManifoldSpec,
                 jacobian: Callable[[Vector], Vector], x: Vector):
        self.spec = spec
        self.x = x = np.array(x, dtype=float).ravel()  # a copy
        J = self.J = _check_shape(jacobian(x), (spec.n, spec.p), "jacobian")
        G = self.G = _check_read(J.T @ J, (spec.p, spec.p),
                                 "Gram matrix of the constraint Jacobian")
        if _guarded_cholesky(G, GAUSS_NEWTON_MAX_COND) is None:
            raise RankDeficiencyError(
                f"Gram matrix condition above {GAUSS_NEWTON_MAX_COND:.0e}: the "
                "constraint Jacobian is (nearly) rank deficient at this point")
        c = self.cx = _check_point(spec.eval_c(x), spec.p, "eval_c")
        self.w = np.linalg.solve(G, c)
        self.z = J @ self.w
        self.ax = x - self.z

    @functools.cached_property
    def G_inv(self) -> Vector:
        """G^{-1}, shared by the Jacobian actions at this point."""
        return np.linalg.inv(self.G)

    @functools.cached_property
    def E(self) -> Vector:
        """E = [(D Jc)[z] e_l]_l, the n x p matrix with E^T d = (D Jc)[d]^T z:
        column l is Hess(c_l) z, and each Hessian is symmetric."""
        spec, z = self.spec, self.z
        return _dense_columns(lambda y, e: _djc_action(spec, y, z, e), self.x,
                              spec.p, spec.n)

    def jat(self, g: Vector) -> Vector:
        """Exact transposed-Jacobian action of A(x) = x - z.  With P the
        projector complement I - J G^{-1} J^T, it is

            P g - (D Jc)[P g] w + (D Jc)[z] (G^{-1} J^T g),

        which reduces to the tangent projector P at feasible points."""
        spec, x, J, w, z = self.spec, self.x, self.J, self.w, self.z
        g = np.asarray(g, dtype=float).ravel()
        a = self.G_inv @ (J.T @ g)
        pg = g - J @ a
        return pg - _djc_action(spec, x, pg, w) + _djc_action(spec, x, z, a)

    def ja(self, d: Vector) -> Vector:
        """Forward Jacobian action of A, the adjoint of ``jat``:

            P (d - (D Jc)[d] w) + J G^{-1} E^T d.
        """
        J = self.J
        d = np.asarray(d, dtype=float).ravel()
        u = d - _djc_action(self.spec, self.x, d, self.w)
        return u - J @ (self.G_inv @ (J.T @ u - self.E.T @ d))


# ---------------------------------------------------------------------------
# Symplectic Stiefel manifold: X^T Q_m X = Q_q with the standard skew form.


def symplectic_form(k: int) -> Vector:
    """Standard skew form [[0, I], [-I, 0]] of even order k."""
    if k <= 0 or k % 2:
        raise DimensionError(f"symplectic form needs even positive order, got {k}")
    half = k // 2
    Q = np.zeros((k, k))
    Q[:half, half:] = np.eye(half)
    Q[half:, :half] = -np.eye(half)
    return Q


def symplectic_canonical_point(m: int, q: int) -> Vector:
    """m x q matrix E with E^T Q_m E = Q_q exactly."""
    E = np.zeros((m, q))
    for j in range(q // 2):
        E[j, j] = 1.0
        E[m // 2 + j, q // 2 + j] = 1.0
    return E


class _SymplecticPoint:
    """The closed-form map's state at an m x q point X (Xiao, Liu & Toh,
    arXiv 2203.10319): with W = X^T Q_m X and B = (3/2) I + (1/2) Q_q W,
    A(X) = X B, and B = I on the manifold, where W = Q_q and Q_q^2 = -I.
    ``cx`` is the strict upper triangle of W - Q_q, W formed by
    ``symplectic_spec``'s own product with the dense Q_m (O(m^2 q)), so it
    is bit for bit ``eval_c``.  Q_m X is a row-half swap, so ``ax`` and
    each Jacobian action cost O(m q^2)."""

    def __init__(self, X: Vector, Qm: Vector, Qq: Vector, iu):
        self.X = X
        W = X.T @ Qm @ X
        self.cx = (W - Qq)[iu]
        self.Qq = Qq
        self.B = 1.5 * np.eye(len(Qq)) + 0.5 * (Qq @ W)
        h = len(X) // 2
        self.QmX = np.concatenate([X[h:], -X[:h]])
        self.ax = (X @ self.B).ravel()

    def ja(self, d: Vector) -> Vector:
        """D B + (1/2) X Q_q (D^T Q_m X + X^T Q_m D); the second product in
        the bracket is minus the transpose of the first."""
        X = self.X
        D = np.asarray(d, dtype=float).reshape(X.shape)
        S = D.T @ self.QmX
        return (D @ self.B + 0.5 * (X @ (self.Qq @ (S - S.T)))).ravel()

    def jat(self, g: Vector) -> Vector:
        """The adjoint of ``ja``: G B^T + (1/2) Q_m X (H^T - H), with
        H = Q_q^T X^T G."""
        X = self.X
        G = np.asarray(g, dtype=float).reshape(X.shape)
        H = self.Qq.T @ (X.T @ G)
        return (G @ self.B.T + 0.5 * (self.QmX @ (H.T - H))).ravel()


def symplectic_spec(m: int, q: int) -> GenericManifoldSpec:
    """Constraint spec keeping only the strict upper triangle of the
    skew-symmetric residual X^T Q_m X - Q_q (p = q(q-1)/2 independent
    entries; the diagonal vanishes identically)."""
    if m <= 0 or q <= 0 or m % 2 or q % 2:
        raise DimensionError(f"symplectic Stiefel needs even m, q > 0, got ({m}, {q})")
    if q > m:
        raise DimensionError(f"need q <= m, got ({m}, {q})")
    Qm = symplectic_form(m)
    Qq = symplectic_form(q)
    iu = np.triu_indices(q, 1)
    # Flat indices of the strict upper triangle of a q x q matrix and of
    # its mirror image below the diagonal.
    upper = np.ravel_multi_index(iu, (q, q))
    lower = np.ravel_multi_index(iu[::-1], (q, q))
    h = m // 2
    p = q * (q - 1) // 2
    pairs = np.arange(p)
    n = m * q

    def as_mat(x):
        return np.asarray(x, dtype=float).reshape(m, q)

    def skew_from(w):
        S = np.zeros(q * q)
        S[upper] = w
        S[lower] = -np.asarray(w)
        return S.reshape(q, q)

    def minus_qm(X):
        """-Q_m X: the two row halves of X swapped, the lower one negated."""
        Y = np.empty((m, q))
        np.negative(X[h:], out=Y[:h])
        Y[h:] = X[:h]
        return Y

    def eval_c(x):
        X = as_mat(x)
        return (X.T @ Qm @ X - Qq)[iu]

    def apply_Jc(x, w):
        return (minus_qm(as_mat(x)) @ skew_from(w)).ravel()

    def jacobian(x):
        # Column l = (i, j) of Jc is -Q_m X (E_ij - E_ji): column j of its
        # m x q block is Y[:, i] and column i is -Y[:, j], with Y = -Q_m X.
        Y = minus_qm(as_mat(x))
        J = np.zeros((m, q, p))
        J[:, iu[1], pairs] = Y[:, iu[0]]
        J[:, iu[0], pairs] = -Y[:, iu[1]]
        return J.reshape(n, p)

    def apply_dJc(x, d, w):
        # Jc is linear in X, so the second-order action is apply_Jc at D.
        return apply_Jc(d, w)

    return GenericManifoldSpec(
        n=n, p=p, eval_c=eval_c, apply_Jc=apply_Jc, apply_dJc=apply_dJc,
        name=f"symplectic_stiefel({m},{q})", jacobian=jacobian)


# ---------------------------------------------------------------------------
# Handle factory.


def _oblique_handle(m: int, q: int) -> ManifoldHandle:
    if m <= 0 or q <= 0:
        raise DimensionError(f"oblique needs positive dims, got ({m}, {q})")
    n = m * q

    def as_mat(x):
        return np.asarray(x, dtype=float).reshape(m, q)

    rows = np.arange(m)

    def jacobian(x):
        # Block diagonal: column i holds 2 x_i in the entries of row i.
        J = np.zeros((m, q, m))
        J[rows, :, rows] = 2.0 * as_mat(x)
        return J.reshape(n, m)

    return ManifoldHandle(
        name=f"oblique({m},{q})", n=n, p=m,
        eval_c=lambda x: np.sum(as_mat(x) ** 2, axis=1) - 1.0,
        apply_Jc=lambda x, w: (2.0 * np.asarray(w)[:, None] * as_mat(x)).ravel(),
        point=lambda x: _ObliquePoint(as_mat(x)), jacobian=jacobian,
        row_blocks=(m, q))


def _sphere_handle(n: int) -> ManifoldHandle:
    if n <= 0:
        raise DimensionError(f"sphere needs positive dimension, got {n}")
    return ManifoldHandle(
        name=f"sphere({n})", n=n, p=1,
        eval_c=lambda x: np.array([float(np.dot(x, x)) - 1.0]),
        apply_Jc=lambda x, w: 2.0 * float(np.asarray(w).ravel()[0]) * np.asarray(x, dtype=float),
        point=_SpherePoint,
        jacobian=lambda x: 2.0 * np.asarray(x, dtype=float)[:, None])


def _symplectic_handle(m: int, q: int) -> ManifoldHandle:
    """The closed-form map over ``symplectic_spec``'s c and Jc."""
    spec = symplectic_spec(m, q)
    Qm, Qq = symplectic_form(m), symplectic_form(q)
    iu = np.triu_indices(q, 1)
    return ManifoldHandle(
        name=spec.name, n=spec.n, p=spec.p,
        eval_c=spec.eval_c,
        apply_Jc=spec.apply_Jc,
        point=lambda x: _SymplecticPoint(
            np.asarray(x, dtype=float).reshape(m, q), Qm, Qq, iu),
        jacobian=spec.jacobian)


def _generic_handle(spec: GenericManifoldSpec) -> ManifoldHandle:
    jacobian = spec.jacobian or (
        lambda x: _dense_columns(spec.apply_Jc, x, spec.p, spec.n,
                                 "apply_Jc column of jacobian"))
    return ManifoldHandle(
        name=spec.name, n=spec.n, p=spec.p,
        eval_c=spec.eval_c,
        apply_Jc=spec.apply_Jc,
        point=functools.partial(_GenericPoint, spec, jacobian),
        jacobian=jacobian)


class _EuclideanPoint:
    """The identity map's state at x: no constraints, so c is empty and
    every Jacobian action of A returns its direction."""

    def __init__(self, x: Vector):
        self.ax = np.asarray(x, dtype=float).ravel()
        self.cx = np.zeros(0)

    @staticmethod
    def jat(d: Vector) -> Vector:
        return np.asarray(d, dtype=float).ravel()

    ja = jat


def _euclidean_handle(n: int) -> ManifoldHandle:
    """Trivial handle with no manifold constraint (p = 0, A = identity),
    for unconstrained-manifold problems; both pipelines accept it."""
    return ManifoldHandle(
        name=f"euclidean({n})", n=n, p=0,
        eval_c=lambda x: np.zeros(0),
        apply_Jc=lambda x, w: np.zeros(n),
        point=_EuclideanPoint, jacobian=lambda x: np.zeros((n, 0)))


def make_handle(family: str, *, m: int | None = None, q: int | None = None,
                n: int | None = None,
                spec: GenericManifoldSpec | None = None) -> ManifoldHandle:
    """Wire a family's evaluators into a ManifoldHandle.

    Families: ``oblique`` (m, q), ``sphere`` (n), ``symplectic_stiefel``
    (m, q even; the closed-form map), ``generic`` (spec; the Gauss-Newton
    map), ``euclidean`` (n).
    """
    if family == "oblique":
        if m is None or q is None:
            raise DimensionError("oblique requires m and q")
        return _oblique_handle(m, q)
    if family == "sphere":
        if n is None:
            raise DimensionError("sphere requires n")
        return _sphere_handle(n)
    if family == "symplectic_stiefel":
        if m is None or q is None:
            raise DimensionError("symplectic_stiefel requires m and q")
        return _symplectic_handle(m, q)
    if family == "generic":
        if spec is None:
            raise DimensionError("generic requires a GenericManifoldSpec")
        return _generic_handle(spec)
    if family == "euclidean":
        if n is None:
            raise DimensionError("euclidean requires n")
        return _euclidean_handle(n)
    raise DimensionError(f"unknown manifold family {family!r}")
