"""Projection and linear-minimization oracles for box, ball, and simplex.

Projections are exact (up to float rounding): coordinate clamping for the
box, radial scaling for the ball, sort-and-threshold for the simplex.  LMOs
return extreme points; ties are broken deterministically (lower bound for
the box, smallest coordinate index for the simplex) so runs are repeatable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Array, FeasibleSet, OracleFailure, as_vector

__all__ = [
    "BoxSet",
    "BallSet",
    "SimplexSet",
    "project_box",
    "project_ball",
    "project_simplex",
    "lmo_box",
    "lmo_ball",
    "lmo_simplex",
]


@dataclass(frozen=True, eq=False)
class BoxSet:
    """Axis-aligned box {x : lower <= x <= upper}."""

    lower: Array
    upper: Array

    def __post_init__(self):
        object.__setattr__(self, "lower", as_vector(self.lower))
        object.__setattr__(self, "upper", as_vector(self.upper))
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must have the same length")
        if np.any(self.lower > self.upper):
            raise ValueError("box is empty: some lower bound exceeds its upper bound")

    @property
    def dimension(self) -> int:
        return self.lower.size

    def diameter(self) -> float:
        d = self.upper - self.lower
        return math.sqrt(d.dot(d))

    def contains(self, x: Array, tol: float = 1e-10) -> bool:
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def to_feasible_set(self) -> FeasibleSet:
        return FeasibleSet(
            project_fn=lambda x: project_box(x, self),
            lmo_fn=lambda g: lmo_box(g, self),
            membership_fn=self.contains,
            diameter_B=self.diameter(),
            dimension=self.dimension,
        )


@dataclass(frozen=True, eq=False)
class BallSet:
    """Euclidean ball {x : ||x - center|| <= radius}."""

    center: Array
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if not (np.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("radius must be finite and positive")

    @property
    def dimension(self) -> int:
        return self.center.size

    def contains(self, x: Array, tol: float = 1e-10) -> bool:
        d = x - self.center
        return math.sqrt(d.dot(d)) <= self.radius + tol

    def to_feasible_set(self) -> FeasibleSet:
        return FeasibleSet(
            project_fn=lambda x: project_ball(x, self),
            lmo_fn=lambda g: lmo_ball(g, self),
            membership_fn=self.contains,
            diameter_B=2.0 * self.radius,
            dimension=self.dimension,
        )


@dataclass(frozen=True)
class SimplexSet:
    """Unit simplex {x >= 0 : sum(x) = 1} in the given dimension."""

    dimension: int

    def __post_init__(self):
        if not (isinstance(self.dimension, int) and self.dimension >= 1):
            raise ValueError("dimension must be a positive integer")

    def contains(self, x: Array, tol: float = 1e-10) -> bool:
        return bool(np.all(x >= -tol) and abs(float(np.add.reduce(x)) - 1.0) <= tol)

    def to_feasible_set(self) -> FeasibleSet:
        return FeasibleSet(
            project_fn=lambda x: project_simplex(x, self),
            lmo_fn=lambda g: lmo_simplex(g, self),
            membership_fn=self.contains,
            diameter_B=float(np.sqrt(2.0)),
            dimension=self.dimension,
        )


def project_box(x: Array, box: BoxSet) -> Array:
    """Clamp each coordinate to its interval."""
    return np.asarray(x).clip(box.lower, box.upper)


def project_ball(x: Array, ball: BallSet) -> Array:
    """Radial projection: points outside move straight toward the center."""
    d = x - ball.center
    n = math.sqrt(d.dot(d))
    if n <= ball.radius:
        return np.array(x, dtype=np.float64, copy=True)
    return ball.center + (ball.radius / n) * d


def project_simplex(x: Array, simplex: SimplexSet) -> Array:
    """Euclidean projection onto the unit simplex by sort and threshold.

    Sorts the coordinates once (O(n log n)), finds the largest support size
    rho with u_rho > (cumsum_rho - 1) / rho, and clips at that threshold.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size != simplex.dimension:
        raise ValueError(f"expected dimension {simplex.dimension}, got {x.size}")
    u = x.copy()
    u.sort()
    u = u[::-1]
    css = u.cumsum() - 1.0
    idx = np.arange(1, x.size + 1)
    try:
        rho = int((u * idx > css).nonzero()[0][-1])
    except IndexError:  # no support index passes: a NaN or +inf entry
        raise OracleFailure("project_simplex: non-finite input") from None
    tau = css[rho] / (rho + 1.0)
    return np.maximum(x - tau, 0.0)


def lmo_box(g: Array, box: BoxSet) -> Array:
    """Vertex minimizing <g, .>: lower bound where g >= 0, upper where g < 0."""
    return np.where(g < 0.0, box.upper, box.lower)


def lmo_ball(g: Array, ball: BallSet) -> Array:
    """Boundary point center - radius * g/||g||; the center when g = 0."""
    n = math.sqrt(g.dot(g))
    if n == 0.0:
        return np.array(ball.center, copy=True)
    return ball.center - (ball.radius / n) * g


def lmo_simplex(g: Array, simplex: SimplexSet) -> Array:
    """Vertex e_i for the smallest index i attaining min(g)."""
    g = np.asarray(g)
    if g.size != simplex.dimension:
        raise ValueError(f"expected dimension {simplex.dimension}, got {g.size}")
    i = int(g.argmin())  # argmin returns the first minimizer
    v = np.zeros(simplex.dimension)
    v[i] = 1.0
    return v
