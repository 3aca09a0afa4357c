"""Wall time rescaled to a fixed host speed.

The benchmark runs on shared hosts whose CPU speed changes by up to 2x from
one second to the next, for the same deterministic solve, with CPU time
equal to wall time.  A time taken as it falls then measures the host more
than the program.  ``SpeedClock`` measures the host's speed alongside the
timed call instead.  A fixed calibration kernel is timed (twice, keeping
the faster run) right before the call, every ``PERIOD_S`` during it from a
SIGALRM handler, and right after it; the time spent in the handler is taken
out of the call's time.  Each stretch of the call between two samples is
rescaled by ``REFERENCE_KERNEL_S`` over the mean kernel time of the two
samples around it.  The sum is the call's time on a host where the kernel
takes ``REFERENCE_KERNEL_S``, about its time on the reference host (a
2-vCPU Xeon VM) when that host runs at full speed.

The kernel is the solvers' kind of work, with one BLAS thread: dense
products with a few columns and row norms (balanced cut), a dense Jacobian
built column by column from small products followed by a Gram matrix, its
condition number and a solve (the generic map), and an L-BFGS two-loop
recursion over short vectors (the inner solver).  On the hosts measured,
how much a slow spell slows a solve depends on the kind of work; this mix
followed the solves' slowdowns more closely than any of its parts alone.
Nothing in it comes from cdpkit, so a change to the package cannot change
the kernel's time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.1
REFERENCE_KERNEL_S = 2.0e-3

_rng = np.random.default_rng(12345)
_M = _rng.standard_normal((100, 100))
_V = _rng.standard_normal((100, 4))
_L = _rng.standard_normal((200, 200))
_X = _rng.standard_normal((200, 2))
_Q = _rng.standard_normal((40, 40))
_Y = _rng.standard_normal((40, 10))
_IU = np.triu_indices(10, 1)
_G = _rng.standard_normal(100)
_PAIRS = [(_rng.standard_normal(100), _rng.standard_normal(100)) for _ in range(10)]


def kernel() -> float:
    acc = 0.0
    for _ in range(30):
        y = _M @ _V
        acc += float(np.dot(y[:, 0], y[:, 1]))
        acc += float((np.maximum(_V, 0.1) * 1.5).sum())
    for _ in range(20):
        y = _L @ _X
        norms = np.sqrt((_X * _X).sum(axis=1))
        acc += float((y / norms[:, None]).sum()) + float((_X.T @ y).sum())
    J = np.empty((_Y.size, 24))
    for col in range(J.shape[1]):
        S = np.zeros((10, 10))
        S[_IU[0][col], _IU[1][col]] = 1.0
        J[:, col] = (-_Q @ _Y @ (S - S.T)).ravel()
    G = J.T @ J
    acc += float(np.linalg.cond(G)) + float(np.linalg.solve(G, J.T @ J[:, 0]).sum())
    for _ in range(3):
        q, alphas = _G.copy(), []
        for s, y in reversed(_PAIRS):
            rho = 1.0 / float(np.dot(y, s))
            a = rho * float(np.dot(s, q))
            q -= a * y
            alphas.append((a, rho, s, y))
        for a, rho, s, y in reversed(alphas):
            q += (a - rho * float(np.dot(y, q))) * s
        acc += float(q.sum())
    return acc


def kernel_s() -> float:
    """The faster of two timed kernel runs, in seconds."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedClock:
    """Times calls in wall seconds and in reference seconds."""

    def __init__(self):
        self._mark = 0.0
        self._paused = 0.0
        self._stretches: list[float] = []
        self._kernels: list[float] = []
        self._active = False

    def _sample(self, *_):
        if not self._active:
            return
        t0 = time.perf_counter()
        self._stretches.append(t0 - self._mark)
        self._kernels.append(kernel_s())
        self._mark = time.perf_counter()
        self._paused += self._mark - t0
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def time(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; return its result, its wall time and
        its time rescaled to the reference host, both without the time
        spent sampling."""
        self._stretches, self._kernels, self._paused = [], [kernel_s()], 0.0
        # The handler stays installed: a tick that lands after the timer is
        # disarmed must find it, not the default action, which kills.
        signal.signal(signal.SIGALRM, self._sample)
        self._active = True
        start = self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        self._stretches.append(end - self._mark)
        self._kernels.append(kernel_s())
        wall_s = end - start - self._paused
        k = self._kernels
        ref_s = sum(s * 2.0 * REFERENCE_KERNEL_S / (k[i] + k[i + 1])
                    for i, s in enumerate(self._stretches))
        return out, wall_s, ref_s
