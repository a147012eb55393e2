"""Projection and linear-minimization oracles for the box and the simplex.

Projections are exact (up to float rounding): coordinate clamping for the
box, sort-and-threshold for the simplex.  LMOs return extreme points; ties
are broken deterministically (lower bound for the box, smallest coordinate
index for the simplex) so runs are repeatable; lmo(g, x) is lmo(g) - x
in one new array.  Each oracle is a method of its set (box.project(x),
simplex.lmo(g)), and to_feasible_set hands the bound methods to
FeasibleSet, so a solver's oracle call is one Python frame.

The simplex projection has two paths with the same bytes: up to
_SMALL_SIMPLEX coordinates it scans Python floats, where numpy's dozen calls
would cost more in dispatch than the arithmetic does, and above that numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Array, FeasibleSet, OracleFailure, _collapse_stride0, as_vector

__all__ = ["BoxSet", "SimplexSet"]

# timed at n = 2..64, the scan took 2.4 us against numpy's 6.4 us at n = 3 and
# 5.5 us against 7.0 us at 32, and was the slower from n = 48 (2-vCPU Xeon,
# numpy 2.4)
_SMALL_SIMPLEX = 32

# a 0-d array operand: g < 0.0 or 0.0 - x converts the Python float at every call
_ZERO = np.array(0.0)
_ZERO.flags.writeable = False


@dataclass(frozen=True, eq=False)
class BoxSet:
    """Axis-aligned box {x : lower <= x <= upper}."""

    lower: Array
    upper: Array

    def __post_init__(self):
        for name in ("lower", "upper"):
            v = as_vector(getattr(self, name))
            # clip keeps a tied zero's sign when both bounds are stride-0 views, and
            # gives the bound's zero when either is dense: a zero bound is stored dense
            if v.strides == (0,) and v.size and v.item(0) == 0.0:
                v = v.copy()
            object.__setattr__(self, name, v)
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must have the same length")
        if np.logical_or.reduce(_collapse_stride0(self.lower) > _collapse_stride0(self.upper)):
            raise ValueError("box is empty: some lower bound exceeds its upper bound")

    @property
    def dimension(self) -> int:
        return self.lower.size

    def diameter(self) -> float:
        d = self.upper - self.lower
        return math.sqrt(d.dot(d))

    def contains(self, x: Array, tol: float = 1e-10) -> bool:
        """ValueError unless x has the box's shape."""
        x = np.asarray(x)
        if x.shape != self.lower.shape:
            raise ValueError(f"expected shape {self.lower.shape}, got {x.shape}")
        x = _collapse_stride0(x)
        return bool(np.logical_and.reduce(x >= _collapse_stride0(self.lower) - tol)
                    and np.logical_and.reduce(x <= _collapse_stride0(self.upper) + tol))

    def project(self, x: Array) -> Array:
        """Clamp each coordinate to its interval: the bytes of x.clip with the
        bounds dense, whether they are stored dense or as stride-0 views."""
        return np.asarray(x).clip(self.lower, self.upper)

    def lmo(self, g: Array, x: Optional[Array] = None) -> Array:
        """Vertex minimizing <g, .>: lower bound where g >= 0, upper where g < 0;
        with x, that vertex minus x, subtracted in the vertex's own array.

        The bytes of np.where(g < 0.0, upper, lower), a NaN entry of g taking
        the lower bound, built as a copy of the lower bound with the upper one
        written over it: at n = 2 that took 1.6 us against np.where's 2.2 us
        (2-vCPU Xeon, numpy 2.4).
        """
        v = self.lower.copy()
        np.copyto(v, self.upper, where=g < _ZERO)
        if x is not None:
            v -= x
        return v

    def to_feasible_set(self) -> FeasibleSet:
        return FeasibleSet(
            project_fn=self.project,
            lmo_fn=self.lmo,
            membership_fn=self.contains,
            diameter_B=self.diameter(),
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
        """ValueError unless x has shape (dimension,)."""
        x = np.asarray(x)
        if x.shape != (self.dimension,):
            raise ValueError(f"expected shape {(self.dimension,)}, got {x.shape}")
        return bool(np.logical_and.reduce(_collapse_stride0(x) >= -tol)
                    and abs(float(np.add.reduce(x)) - 1.0) <= tol)

    def project(self, x: Array) -> Array:
        """Euclidean projection onto the unit simplex by sort and threshold.

        Sorts the coordinates once (O(n log n)), finds the largest support size
        rho with u_rho > (cumsum_rho - 1) / rho, and clips at that threshold
        (Duchi et al. 2008).  Up to _SMALL_SIMPLEX coordinates rho and the
        threshold are found in Python floats: the float operations of the numpy
        code below, in its order, so the same bytes, with 2 ufunc calls instead
        of about 15 numpy calls.  Where |u_1| >= 2 and u_1 is finite, x - max(x)
        is projected instead: adding a multiple of the ones vector leaves the
        projection unchanged, the support's entries lie in (u_1 - 1, u_1], so
        the shift is exact on them (Sterbenz), and the threshold is then found
        near 0, not at the scale of u_1, whose cumsum would round at n |u_1|
        (and overflow, or pass indices by rounding alone, from about 1e16 up).
        Both paths raise OracleFailure for a NaN or +inf entry; a -inf entry
        fails only its own support test.
        Neither path emits a numpy RuntimeWarning.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.size != self.dimension:
            raise ValueError(f"expected dimension {self.dimension}, got {x.size}")
        if x.size <= _SMALL_SIMPLEX:
            u = x.tolist()
            u.sort(reverse=True)
            s, rho = -0.0, 0  # -0.0 + u_0 has u_0's bits, as cumsum's first entry does
            for k, v in enumerate(u, 1):
                s += v
                if v * k > s - 1.0:
                    rho, c = k, s - 1.0
                elif v != v:  # a NaN entry, which list.sort does not order
                    raise OracleFailure("SimplexSet.project: non-finite input")
        else:
            u = x.copy()
            u.sort()
            u = u[::-1]
            with np.errstate(over="ignore", invalid="ignore"):  # +inf with -inf, or overflow
                css = u.cumsum() - 1.0
                passing = (u * np.arange(1, x.size + 1) > css).nonzero()[0]
            rho = int(passing[-1]) + 1 if passing.size else 0
            c = float(css[rho - 1])
        if abs(u[0]) < 2.0:  # then index 1 passes, so rho >= 1
            return np.maximum(x - c / rho, 0.0)
        if not math.isfinite(u[0]):  # a NaN (numpy sorts it first here) or +inf entry
            raise OracleFailure("SimplexSet.project: non-finite input")
        with np.errstate(over="ignore"):  # an entry far enough below u_0 shifts to -inf
            return self.project(x - u[0])

    def lmo(self, g: Array, x: Optional[Array] = None) -> Array:
        """Vertex e_i for the smallest index i attaining min(g); with an array x,
        the bytes of e_i - x with no e_i built: 0.0 - x_j off i, 1.0 - x_i at i."""
        g = np.asarray(g)
        if g.size != self.dimension:
            raise ValueError(f"expected dimension {self.dimension}, got {g.size}")
        i = int(g.argmin())  # argmin returns the first minimizer
        if x is not None and x.size != self.dimension:
            raise ValueError(f"expected dimension {self.dimension}, got {x.size}")
        v = np.zeros(self.dimension) if x is None else _ZERO - x
        v[i] = 1.0 if x is None else 1.0 - x.item(i)
        return v

    def to_feasible_set(self) -> FeasibleSet:
        return FeasibleSet(
            project_fn=self.project,
            lmo_fn=self.lmo,
            membership_fn=self.contains,
            diameter_B=float(np.sqrt(2.0)),
            dimension=self.dimension,
        )

