"""Tikhonov perturbation, regularization schedules, and the path oracle.

The perturbed objective phi_eps(x) = f(x) + 0.5 * eps * ||x||^2 is strongly
convex for eps > 0 and has a unique constrained minimizer z(eps).  As eps
decreases, z(eps) traces a path that converges to the minimal-norm solution
of the original problem.  tikhonov_solve computes points on this path to
high accuracy and serves as the ground-truth oracle for every solver test;
it deliberately uses a plain fixed-step projected-gradient loop so that it
shares no code with the solvers it certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Array, OracleFailure, Problem, Objective, as_vector

__all__ = [
    "PerturbedObjective",
    "GeometricSchedule",
    "IterRegSchedule",
    "TikhonovRecord",
    "PathCheckReport",
    "tikhonov_solve",
    "path_check",
]


@dataclass(frozen=True, eq=False)
class PerturbedObjective:
    """View of a base objective with a quadratic Tikhonov term folded in.

    epsilon is the weight actually applied; epsilon0 is the largest weight of
    the surrounding schedule and fixes the uniform gradient Lipschitz bound
    L' = L + epsilon0 used by step-size rules across all levels.
    """

    base: Objective
    epsilon: float
    epsilon0: float

    def __post_init__(self):
        if not (np.isfinite(self.epsilon0) and self.epsilon0 > 0.0):
            raise ValueError("epsilon0 must be positive")
        if not (0.0 <= self.epsilon <= self.epsilon0):
            raise ValueError("need 0 <= epsilon <= epsilon0")

    def value(self, x: Array) -> float:
        return float(self.base.value_fn(x)) + 0.5 * self.epsilon * float(x.dot(x))


@dataclass(frozen=True)
class GeometricSchedule:
    """Outer-level rule eps_l = nu^l * eps0, delta_l = eps_l^(1 + sigma).

    delta_l / eps_l = eps_l^sigma -> 0, which is exactly the coupling the
    two-level solvers need for their handoff tests to stay meaningful.
    """

    epsilon0: float = 1.0
    nu: float = 0.5
    sigma: float = 0.5

    def __post_init__(self):
        if not (np.isfinite(self.epsilon0) and self.epsilon0 > 0.0):
            raise ValueError("epsilon0: must be positive")
        if not (0.0 < self.nu < 1.0):
            raise ValueError("nu: must lie in (0, 1)")
        if not (0.0 < self.sigma <= 1.0):
            raise ValueError("sigma: must lie in (0, 1]")

    def params(self, l: int) -> tuple[float, float]:
        if l < 0:
            raise ValueError("level index must be non-negative")
        eps = self.epsilon0 * self.nu**l
        return eps, eps ** (1.0 + self.sigma)


@dataclass(frozen=True)
class IterRegSchedule:
    """Single-loop rule lambda_k = (k+1)^(-1/2), eps_k = (k+1)^(-tau).

    tau in (0, 1/2) keeps lambda_k / eps_k -> 0 while sum(lambda_k * eps_k)
    diverges, the combination required for iterative regularization.
    """

    tau: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.tau < 0.5):
            raise ValueError("tau: must lie in (0, 0.5)")

    def params(self, k: int) -> tuple[float, float]:
        if k < 0:
            raise ValueError("iteration index must be non-negative")
        return (k + 1.0) ** -0.5, (k + 1.0) ** -self.tau


@dataclass(frozen=True, eq=False)
class TikhonovRecord:
    """A certified point on the regularization path.

    residual is the fixed-point gap ||z - P(z - grad phi_eps(z))|| with unit
    internal step; anything above 1e-10 is not accepted as ground truth.
    """

    epsilon: float
    z: Array
    residual: float

    def __post_init__(self):
        if not (0.0 <= self.residual <= 1e-10):
            raise ValueError("residual exceeds the certification threshold 1e-10")


# residual target of tikhonov_solve, a tenth of TikhonovRecord's threshold
_TIKHONOV_TOL = 1e-11


def tikhonov_solve(
    problem: Problem,
    epsilon: float,
    x0: Optional[Array] = None,
    max_iter: int = 10_000_000,
) -> TikhonovRecord:
    """Minimize phi_eps over the feasible set to fixed-point residual <= 1e-11.

    Runs projected gradient with the safe constant step 1/(L + eps) until the
    unit-step residual ||x - P(x - grad phi_eps(x))|| drops below 1e-11.  The
    residual scaled by the step is monotone in the step length, so the damped
    per-iteration displacement gives a certified trigger for the unit-step
    check without extra projections.

    Parameters
    ----------
    problem : Problem
        Must carry a projection oracle.
    epsilon : float
        Positive Tikhonov weight.
    x0 : array, optional
        Warm start; projected onto the set before use.  Defaults to P(0).
    max_iter : int
        Hard cap; exceeding it raises OracleFailure, which usually means the
        declared Lipschitz constant is wrong.
    """
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError("epsilon must be positive")
    project = problem.feasible_set.project_fn
    if project is None:
        raise ValueError("tikhonov_solve needs a projection oracle")

    if x0 is None:
        if problem.feasible_set.dimension is None:
            raise ValueError("pass x0 explicitly: the feasible set has no dimension hint")
        x = project(np.zeros(problem.feasible_set.dimension))
    else:
        x = project(as_vector(x0))

    grad = problem.objective.gradient_fn
    step = 1.0 / (problem.objective.lipschitz_L + epsilon)

    for k in range(max_iter):
        g = grad(x) + epsilon * x
        y = project(x - step * g)
        r = x - y
        # ||x - P(x - s g)|| / s is non-increasing in s, so ||x - y|| <= step * _TIKHONOV_TOL
        # certifies the unit-step residual; the periodic check catches early
        # satisfaction that the damped trigger would miss.
        if math.sqrt(r.dot(r)) <= step * _TIKHONOV_TOL or k % 64 == 0:
            r = x - project(x - g)
            residual = math.sqrt(r.dot(r))
            if residual <= _TIKHONOV_TOL:
                return TikhonovRecord(epsilon=epsilon, z=x, residual=residual)
        x = y
    raise OracleFailure(
        f"no convergence within {max_iter} iterations at eps={epsilon!r}; "
        "check the objective's lipschitz_L"
    )


@dataclass(frozen=True)
class PathCheckReport:
    """Outcome of the three pairwise path inequalities for 0 <= mu < eta.

    Each slack is (left side) - (right side); the check passes when the slack
    is at most the allowed tolerance.
    """

    value_decrease_ok: bool
    optimal_value_ok: bool
    norm_monotone_ok: bool
    value_decrease_slack: float
    optimal_value_slack: float
    norm_monotone_slack: float

    @property
    def all_ok(self) -> bool:
        return self.value_decrease_ok and self.optimal_value_ok and self.norm_monotone_ok


# slack allowed on each path inequality
_PATH_TOL = 1e-8


def path_check(problem: Problem, mu: float, eta: float, z_mu: Array, z_eta: Array) -> PathCheckReport:
    """Verify the comparison inequalities between path points z_mu = z(mu), z_eta = z(eta).

    For 0 <= mu < eta the path satisfies
      f(z(eta)) - f(z(mu))          <=  0.5 * eta * (||z(mu)||^2 - ||z(eta)||^2)
      phi*_eta  - phi*_mu           <=  0.5 * (eta - mu) * ||z(mu)||^2
      ||z(eta)||                    <=  ||z(mu)||
    where phi*_eps is the optimal perturbed value; each holds up to 1e-8.
    mu = 0 refers to the minimal-norm solution.
    """
    if not (0.0 <= mu < eta):
        raise ValueError("need 0 <= mu < eta")
    value = problem.objective.value_fn
    f_mu = float(value(z_mu))
    f_eta = float(value(z_eta))
    nsq_mu = float(z_mu @ z_mu)
    nsq_eta = float(z_eta @ z_eta)

    s_value = (f_eta - f_mu) - 0.5 * eta * (nsq_mu - nsq_eta)
    phi_mu = f_mu + 0.5 * mu * nsq_mu
    phi_eta = f_eta + 0.5 * eta * nsq_eta
    s_opt = (phi_eta - phi_mu) - 0.5 * (eta - mu) * nsq_mu
    s_norm = float(np.sqrt(nsq_eta)) - float(np.sqrt(nsq_mu))

    return PathCheckReport(
        value_decrease_ok=s_value <= _PATH_TOL,
        optimal_value_ok=s_opt <= _PATH_TOL,
        norm_monotone_ok=s_norm <= _PATH_TOL,
        value_decrease_slack=s_value,
        optimal_value_slack=s_opt,
        norm_monotone_slack=s_norm,
    )
