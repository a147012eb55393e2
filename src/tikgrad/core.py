"""Shared problem types and numerical checks.

Everything downstream (oracles, regularization, solvers, bench) works with
the small container types defined here: an objective with a gradient and a
Lipschitz constant, a feasible set described through its projection and/or
linear minimization oracle, and a problem bundling the two with optional
ground truth for testing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

__all__ = [
    "Array",
    "Objective",
    "FeasibleSet",
    "Problem",
    "OracleCounters",
    "OracleFailure",
    "LineSearchFailure",
    "RunawayInnerLoop",
    "as_vector",
    "estimate_lipschitz_quadratic",
]


class OracleFailure(RuntimeError):
    """An oracle computation could not be completed reliably."""


class LineSearchFailure(RuntimeError):
    """Backtracking exceeded the trial budget; the Lipschitz constant is suspect."""


class RunawayInnerLoop(RuntimeError):
    """An inner loop exceeded its iteration cap before its stop test fired."""


def _collapse_stride0(v: Array) -> Array:
    """v[:1] for a 1-d stride-0 view, whose entries all share one float; v
    otherwise.  An elementwise check of the result broadcasts to the verdict
    it gives on v, in O(1) work for the stride-0 views the scalable bundled
    problems store.  Reductions whose bits depend on the summation order
    (sums, dots) must still read v itself."""
    return v[:1] if v.strides == (0,) else v


def as_vector(x) -> Array:
    """Convert to a 1-d float64 array and reject non-finite components."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        v = np.atleast_1d(v.squeeze())
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {np.shape(x)}")
    # np.logical_and.reduce is v.all() without the Python-level _all frame numpy adds
    if not np.logical_and.reduce(np.isfinite(_collapse_stride0(v))):
        raise ValueError("vector has non-finite components")
    return v


@dataclass(frozen=True, eq=False)
class Objective:
    """A differentiable convex objective on R^n.

    value_fn and gradient_fn must accept a float64 vector; lipschitz_L is a
    Lipschitz constant of the gradient on the feasible set of interest
    (an overestimate is safe, an underestimate breaks step-size guarantees).
    """

    value_fn: Callable[[Array], float]
    gradient_fn: Callable[[Array], Array]
    lipschitz_L: float

    def __post_init__(self):
        if not (np.isfinite(self.lipschitz_L) and self.lipschitz_L >= 0.0):
            raise ValueError("lipschitz_L must be finite and non-negative")


@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """A closed convex set given through its computational oracles.

    At least one of project_fn / lmo_fn must be present.  Both must return a
    new array on every call, never their argument and not a buffer they later
    overwrite: the solvers keep the returned points without copying them, and
    run_gprm's step overwrites the array it passed to project_fn with the
    direction y - x.
    membership_fn(x, tol) decides feasibility up to tol; diameter_B bounds
    sup ||x - y|| over the set and is required by conditional-gradient
    step-size theory.
    """

    project_fn: Optional[Callable[[Array], Array]] = None
    lmo_fn: Optional[Callable[[Array], Array]] = None
    membership_fn: Optional[Callable[[Array, float], bool]] = None
    diameter_B: Optional[float] = None
    dimension: Optional[int] = None

    def __post_init__(self):
        if self.project_fn is None and self.lmo_fn is None:
            raise ValueError("feasible set needs a projection or an LMO")
        if self.diameter_B is not None and not (
            np.isfinite(self.diameter_B) and self.diameter_B > 0.0
        ):
            raise ValueError("diameter_B must be finite and positive")
        if self.dimension is not None and self.dimension < 1:
            raise ValueError("dimension must be positive when given")

    def contains(self, x: Array, tol: float = 1e-10) -> bool:
        if self.membership_fn is None:
            raise OracleFailure("no membership oracle attached to this set")
        return bool(self.membership_fn(x, tol))


@dataclass(frozen=True, eq=False)
class Problem:
    """Objective plus feasible set, with optional ground truth.

    known_fstar is the optimal value, known_xstar_n the minimal-norm optimal
    point; both are used only by tests and reporting, never by the solvers.
    """

    objective: Objective
    feasible_set: FeasibleSet
    known_fstar: Optional[float] = None
    known_xstar_n: Optional[Array] = None

    def __post_init__(self):
        if self.known_xstar_n is not None:
            object.__setattr__(self, "known_xstar_n", as_vector(self.known_xstar_n))
            if self.feasible_set.membership_fn is not None and not self.feasible_set.contains(
                self.known_xstar_n, 1e-10
            ):
                raise ValueError("known_xstar_n is not feasible at tolerance 1e-10")
        if self.known_fstar is not None and self.known_xstar_n is not None:
            v = float(self.objective.value_fn(self.known_xstar_n))
            if abs(v - self.known_fstar) > 1e-10:
                raise ValueError(
                    f"objective at known_xstar_n is {v!r}, expected {self.known_fstar!r}"
                )


@dataclass
class OracleCounters:
    """Per-run work counters.  One instance per solver call, never global.

    gradient_evals, projections and lmo_calls count the oracle calls the run
    made, as the solvers' drivers state.  inner_iterations counts the steps
    taken, linesearch_trials the Armijo trial points evaluated.
    """

    gradient_evals: int = 0
    projections: int = 0
    lmo_calls: int = 0
    linesearch_trials: int = 0
    inner_iterations: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def estimate_lipschitz_quadratic(A: Array) -> float:
    """Spectral norm of A^T A, i.e. the gradient Lipschitz constant of
    x -> 0.5 ||A x - b||^2, computed as ||A||_2^2 from the largest singular
    value of A.  A zero matrix returns 0.0 exactly.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    if not np.isfinite(A).all():
        raise ValueError("A has non-finite entries")
    return float(np.linalg.norm(A, 2)) ** 2
