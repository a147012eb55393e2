"""Test helper: the Euclidean ball, the tests' one curved feasible set.

No bundled problem, config or CLI path builds a ball, so it lives beside the
tests: radial projection, and an LMO returning the boundary point opposite g
(or, given x, that point minus x: the solvers' direction form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from tikgrad.core import Array, FeasibleSet, as_vector


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
        """ValueError unless x has the center's shape."""
        x = np.asarray(x)
        if x.shape != self.center.shape:
            raise ValueError(f"expected shape {self.center.shape}, got {x.shape}")
        d = x - self.center
        return math.sqrt(d.dot(d)) <= self.radius + tol

    def lmo(self, g: Array, x: Optional[Array] = None) -> Array:
        """lmo_ball(g, self), or with x that point minus x."""
        v = lmo_ball(g, self)
        return v if x is None else v - x

    def to_feasible_set(self) -> FeasibleSet:
        return FeasibleSet(
            project_fn=lambda x: project_ball(x, self),
            lmo_fn=self.lmo,
            membership_fn=self.contains,
            diameter_B=2.0 * self.radius,
            dimension=self.dimension,
        )


def project_ball(x: Array, ball: BallSet) -> Array:
    """Radial projection: points outside move straight toward the center."""
    d = x - ball.center
    n = math.sqrt(d.dot(d))
    if n <= ball.radius:
        return np.array(x, dtype=np.float64, copy=True)
    return ball.center + (ball.radius / n) * d


def lmo_ball(g: Array, ball: BallSet) -> Array:
    """Boundary point center - radius * g/||g||; the center when g = 0."""
    n = math.sqrt(g.dot(g))
    if n == 0.0:
        return np.array(ball.center, copy=True)
    return ball.center - (ball.radius / n) * g
