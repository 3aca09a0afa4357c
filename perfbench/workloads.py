"""Workloads: the instances each one solves, in an order set by the seed.

Every workload is a closed loop with one client: one solve at a time, the
next solve started when the previous one returns.  Both pipelines solve
every instance from the generator's suggested start.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from cdpkit.bench import (
    BalancedCutConfig,
    CenterOfMassConfig,
    build_balanced_cut_cdp,
    gen_balanced_cut,
    gen_center_of_mass,
)
from cdpkit.core import PenaltyParams, ProblemSpec
from cdpkit.dissolve import CdpInstance, build_cdp


@dataclass
class Instance:
    cfg: BalancedCutConfig | CenterOfMassConfig
    problem: ProblemSpec
    cdp: CdpInstance
    x0: np.ndarray

    @property
    def label(self) -> str:
        return self.cfg.label()


def _cut(m: int, seeds) -> list:
    return [BalancedCutConfig(m=m, q=2, rho=0.1, seed=s) for s in seeds]


# The instance seeds of each workload are fixed; the workload seed rotates
# the order in which the closed loop visits them and sets the
# microbenchmark point and the recheck self-test's perturbation.  Fresh
# instances per workload seed were measured and rejected: over 24 fresh
# cut-m50 graphs the median inner iterations per solve moved 966-1271
# between seeds, com-m40q10 has one instance whose `cdp` time already
# spreads 11-21 s with the host's speed, and cut-m200's seed-7 failure
# would come and go.  The fixed
# sets hold every failure seen: cut-m200 seed 7 (`cdp` inner_failure) and,
# of cut-m50 seeds 7-38, seed 27 (`cdp` max_iter after 100 outer
# iterations).
_CONFIGS = {
    "cut-m200": _cut(200, [7, 8, 9]),
    "com-m40q10": [CenterOfMassConfig(m=40, q=10, N=100, r=0.01, seed=1)],
    "cut-m50": _cut(50, range(20, 28)),
}


def configs(workload: str, seed: int) -> list:
    cfgs = _CONFIGS[workload]
    k = seed % len(cfgs)
    return cfgs[k:] + cfgs[:k]


def _generate(cfg):
    if isinstance(cfg, BalancedCutConfig):
        return gen_balanced_cut(cfg)
    return gen_center_of_mass(cfg)


def _build(cfg, problem: ProblemSpec) -> CdpInstance:
    if isinstance(cfg, BalancedCutConfig):
        return build_balanced_cut_cdp(problem, beta=cfg.beta)
    return build_cdp(problem, PenaltyParams(beta=cfg.beta))


def _setup_once(configs: list) -> tuple[list[Instance], float]:
    instances, gen_s = [], 0.0
    for cfg in configs:
        ta = time.perf_counter()
        problem, x0 = _generate(cfg)
        gen_s += time.perf_counter() - ta
        instances.append(Instance(cfg, problem, _build(cfg, problem), x0))
    return instances, gen_s


def setup(configs: list, clock, min_reps: int = 3,
          min_total_s: float = 0.5) -> tuple[list[Instance], list[float], list[float]]:
    """Generate and build every instance, repeated at least ``min_reps``
    times and until ``min_total_s`` have passed, the clock's sampling
    included.

    Returns the instances of the last repetition and, per repetition, the
    set-up time (generators + ``build_cdp``) at the reference host speed of
    ``clock`` and the generator-only wall time.
    """
    totals, gens = [], []
    t0 = time.perf_counter()
    while len(totals) < min_reps or time.perf_counter() - t0 < min_total_s:
        (instances, gen_s), _, ref_s = clock.time(_setup_once, configs)
        totals.append(ref_s)
        gens.append(gen_s)
    return instances, totals, gens
