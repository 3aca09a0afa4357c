"""``tools/solve_digests.py``, the bit-identity guard of a refactor,
against the package it digests.

The tool is run by hand on two checkouts and its outputs compared, so a
change to a name it reads would break it unnoticed; this test runs each
of its lines on one small instance of each benchmark family.
"""

import importlib.util
import os
from pathlib import Path
from unittest import mock

import pytest

from cdpkit.bench import (
    BalancedCutConfig,
    CenterOfMassConfig,
    _build_instance,
)

TOOL = Path(__file__).resolve().parents[1] / "tools" / "solve_digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("solve_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    # The tool pins BLAS threads in os.environ when it is loaded; keep
    # that out of the rest of the test session.
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def _family_lines(digests, problem, inst, x0):
    return [digests.solve_line("cdp", problem, inst, x0),
            digests.solve_line("nlp", problem, inst, x0),
            digests.constants_line(problem, x0),
            digests.validate_line(problem, x0),
            digests.probe_line(problem, inst, x0)]


def test_every_line_is_reproducible(digests):
    problem, inst, x0 = _build_instance(
        BalancedCutConfig(m=10, q=2, rho=0.3, seed=3))

    def lines():
        return _family_lines(digests, problem, inst, x0)

    first = lines()
    assert all(first)
    assert lines() == first


def test_every_center_of_mass_line_is_reproducible(digests):
    # With the two lines of the Gauss-Newton map, which the tool prints
    # only at center-of-mass instances.
    cfg = CenterOfMassConfig(m=6, q=2, N=4, r=0.01, seed=1)
    problem, inst, x0 = _build_instance(cfg)

    def lines():
        generic = digests.gauss_newton(problem, cfg)
        return _family_lines(digests, problem, inst, x0) + [
            digests.validate_line(generic, x0),
            digests.constants_line(generic, x0)]

    first = lines()
    assert all(first)
    assert lines() == first
