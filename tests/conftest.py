"""Shared fixtures (tiny hand-built problems) and the hypothesis profile for all tests."""

import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from tikgrad.core import Objective, Problem
from tikgrad.oracles import BoxSet

from ball import BallSet

# Fixed examples, no deadline on a shared host, and no example database, so runs
# reproduce exactly.  Hypothesis still caches the constants it mines from source
# files; that cache goes to a temporary directory removed at exit, not .hypothesis/.
settings.register_profile("tikgrad", derandomize=True, deadline=None, database=None)
settings.load_profile("tikgrad")
# Fresh random draws for checking a property after an edit, which re-draws the
# fixed examples: pytest --hypothesis-profile=unseeded -k <property>.  A
# property that sets its own max_examples keeps it.
settings.register_profile("unseeded", derandomize=False, deadline=None, database=None,
                          max_examples=4000)
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="tikgrad-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture(scope="session")
def ball_linear():
    """min <(1,0), x> over the unit ball at the origin."""
    c = np.array([1.0, 0.0])
    obj = Objective(lambda x: float(c @ x), lambda x: c.copy(), 1.0)
    return Problem(obj, BallSet(np.zeros(2), 1.0).to_feasible_set())


@pytest.fixture(scope="session")
def box12_zero():
    """f identically zero on the box [1,2]^2; minimal-norm point is (1,1)."""
    obj = Objective(lambda x: 0.0, lambda x: np.zeros_like(x), 1.0)
    fs = BoxSet(np.ones(2), np.full(2, 2.0)).to_feasible_set()
    return Problem(obj, fs, known_fstar=0.0, known_xstar_n=np.ones(2))
