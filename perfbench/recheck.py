"""Independent certification of a solve, outside the timed region.

Feasibility is recomputed from each generator's constraint formulas (unit
row norms and X^T e = 0 for balanced cut; the symplectic residual
X^T Q_m X - Q_q and the ball inequality for center of mass).  Stationarity
is recomputed from dense constraint gradients written out here, with a
least-squares fit of the free multipliers and a non-negative fit of the
inequality multipliers.  Nothing from ``cdpkit.diagnostics`` or the
manifold handles is used; the objective gradient is the instance's own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from cdpkit.bench import BalancedCutConfig
from cdpkit.solver import AlmOptions

# A solve is certified when both recomputed residuals are within this
# factor of the solver's own tolerances.
SLACK = 2.0


@dataclass
class Recheck:
    stationarity: float
    feasibility: float
    passed: bool


def _skew_form(k: int) -> np.ndarray:
    h = k // 2
    return np.block([[np.zeros((h, h)), np.eye(h)],
                     [-np.eye(h), np.zeros((h, h))]])


def _balanced_cut(cfg, x):
    m, q = cfg.m, cfg.q
    X = x.reshape(m, q)
    c = np.sum(X ** 2, axis=1) - 1.0
    Jc = np.zeros((m, q, m))
    Jc[np.arange(m), :, np.arange(m)] = 2.0 * X
    u = X.sum(axis=0)
    Ju = np.zeros((m, q, q))
    Ju[:, np.arange(q), np.arange(q)] = 1.0
    n = m * q
    return c, u, np.zeros(0), Jc.reshape(n, m), Ju.reshape(n, q), np.zeros((n, 0))


def _center_of_mass(cfg, x, s_star):
    m, q = cfg.m, cfg.q
    X = x.reshape(m, q)
    iu = np.triu_indices(q, 1)
    c = (X.T @ _skew_form(m) @ X - _skew_form(q))[iu]
    # d(x_i^T Q x_j) = (Q x_j) . dx_i - (Q x_i) . dx_j
    QX = _skew_form(m) @ X
    Jc = np.zeros((m, q, len(iu[0])))
    for k, (i, j) in enumerate(zip(*iu)):
        Jc[:, i, k] = QX[:, j]
        Jc[:, j, k] = -QX[:, i]
    d = x - s_star
    v = np.array([float(d @ d) - cfg.r])
    n = m * q
    return c, np.zeros(0), v, Jc.reshape(n, -1), np.zeros((n, 0)), 2.0 * d[:, None]


def residuals(inst, x) -> tuple[float, float]:
    """(stationarity, feasibility) of the original problem at x."""
    x = np.asarray(x, dtype=float).ravel()
    if isinstance(inst.cfg, BalancedCutConfig):
        c, u, v, Jc, Ju, Jv = _balanced_cut(inst.cfg, x)
    else:
        # The center-of-mass generator returns the ball centre s* as x0.
        c, u, v, Jc, Ju, Jv = _center_of_mass(inst.cfg, x, inst.x0)
    feas = (float(np.linalg.norm(c)) + float(np.linalg.norm(u))
            + float(np.linalg.norm(np.maximum(v, 0.0))))

    g = np.asarray(inst.problem.grad_f(x), dtype=float).ravel()
    B = np.hstack([Jc, Ju])
    U, s, _ = np.linalg.svd(B, full_matrices=False)
    U = U[:, s > 1e-12 * max(s[0], 1.0)] if s.size else U

    def project(M):
        return M - U @ (U.T @ M)

    r = project(g)
    if Jv.shape[1]:
        mu, _ = nnls(project(Jv), -r)
        r = project(g + Jv @ mu)
    return float(np.linalg.norm(r)), feas


def recheck(inst, x, opts: AlmOptions) -> Recheck:
    stat, feas = residuals(inst, x)
    ok = (stat <= SLACK * opts.outer_tol_stationarity
          and feas <= SLACK * opts.outer_tol_feasibility)
    return Recheck(stat, feas, bool(ok))


def self_test(inst, x_certified, opts: AlmOptions, seed: int) -> bool:
    """The recheck accepts a certified point and rejects it once moved by
    1e-3 in a random direction."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(np.size(x_certified))
    moved = np.asarray(x_certified, dtype=float).ravel() + 1e-3 * d / np.linalg.norm(d)
    return recheck(inst, x_certified, opts).passed and not recheck(inst, moved, opts).passed
