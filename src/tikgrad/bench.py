"""Benchmark harness: bundled problems, complexity bounds, experiment runner.

The generators build problems whose minimal-norm solution is known exactly
(by symmetry) or computed once by an independent high-accuracy oracle and
cross-checked by a second run in the other projection order.
measure_complexity turns a trace's records into N(alpha) counts on an accuracy
grid and fits the growth exponent; with_bounds attaches the closed-form
upper bound the two-level methods must stay under.
run_experiment ties a validated config to a bundled problem, runs the
configured method, and serializes the trace as CSV plus a JSON sidecar named
by the CSV's whole path plus .json.  This module owns both formats:
write_trace_csv and read_trace_csv the CSV, write_sidecar and read_sidecar the
sidecar, whose config holds the run's fields, nu and sigma among them, and
whose constants hold gamma, Lprime, C1 and C2, each fact stored once.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import re
import typing
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    Array,
    FeasibleSet,
    Objective,
    OracleFailure,
    Problem,
    as_vector,
    estimate_lipschitz_quadratic,
)
from .oracles import BoxSet, SimplexSet
from .regularization import GeometricSchedule
from .solvers import (
    DEFAULT_BETA,
    DEFAULT_THETA,
    MethodConstants,
    OuterRecord,
    SolverTrace,
    StopPolicy,
    _require_feasible,
    cgrm_constants,
    gprm_constants,
    run_cgm,
    run_cgrm,
    run_gpm,
    run_gprm,
)

__all__ = [
    "ConfigError",
    "GeneratedProblem",
    "ExperimentConfig",
    "ComplexityReport",
    "DEFAULT_ALPHA_GRID",
    "METHODS",
    "make_illposed_box",
    "make_illposed_simplex",
    "make_rankdef_lsq",
    "bundled_problem",
    "default_start",
    "bound_constants",
    "measure_complexity",
    "with_bounds",
    "validate_experiment",
    "run_experiment",
    "solver_constants",
    "write_trace_csv",
    "read_trace_csv",
    "write_sidecar",
    "read_sidecar",
    "sidecar_path",
]

METHODS = ("gpm", "cgm", "gprm", "cgrm")

# spans two decades of accuracy while keeping bundled runs under a second
DEFAULT_ALPHA_GRID = (0.1, 0.03, 0.01, 0.003, 0.001)


class ConfigError(ValueError):
    """Invalid experiment configuration; message lists field-level problems."""


@dataclass(frozen=True, eq=False)
class GeneratedProblem:
    """A Problem sure to carry f*, x*_n and L, the ground truth the certificates read."""

    problem: Problem

    def __post_init__(self):  # benchmarks/workloads.py times this check in its set-up
        p = self.problem
        if p.known_fstar is None or p.known_xstar_n is None or not p.objective.lipschitz_L > 0.0:
            raise ValueError("problem must carry f*, x*_n and a positive L")

    @property  # benchmarks/workloads.py reads it
    def analytic_xstar_n(self) -> Array:
        return self.problem.known_xstar_n


def _constant(dim: int, value: float) -> Array:
    """Read-only float64 vector of dim copies of value, stored as one float.

    A stride-0 view of an immutable numpy scalar: ufuncs read it as the
    full vector and give the same bits, and any write raises ValueError,
    so the memoized problems cannot be corrupted.  Building it costs less
    than np.ones(2); np.broadcast_to takes about 10x as long.
    The library's elementwise checks (as_vector, BoxSet and the membership
    tests) read one entry of such a view, so a problem built from them is
    checked in O(1) work, except for the reductions whose bits depend on the
    summation order: f(x*_n), the simplex sum test and the box diameter.
    BoxSet keeps such bounds uncopied.  At n = 10**6 on a 2-vCPU Xeon,
    illposed_box builds in 2.0 ms (9.1 ms with n-entry checks) and
    illposed_simplex in 0.6 ms (3.9 ms).
    """
    return np.ndarray((dim,), np.float64, np.float64(value), 0, (0,))


def make_illposed_box(dim: int) -> GeneratedProblem:
    """f(x) = 0.5 (sum x - 1)^2 on [-1, 1]^dim.

    Every point of the hyperplane slice {sum x = 1} inside the box is a
    minimizer, so plain gradient methods stall wherever they first touch it;
    the minimal-norm solution is (1/dim, ..., 1/dim) by symmetry.  L = dim.
    The bounds -1 and 1 and x*_n are read-only stride-0 views (see
    _constant), so the problem stores O(1) floats, not three n-vectors; the
    gradient and the oracles still return new n-vectors.  Below 8
    coordinates the value, gradient and curvature add the entries as Python
    floats, in order from 0.0: numpy's float sums do the same below their
    8-entry pairwise block, so the bytes are numpy's, in a quarter of the time.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    # not builtin sum(), which adds floats with compensation from Python 3.12
    small = dim < 8

    # np.add.reduce is x.sum() without the Python-level _sum frame numpy adds
    def value(x: Array) -> float:
        if small:
            s = 0.0
            for v in x.tolist():
                s += v
        else:
            s = float(np.add.reduce(x))
        s -= 1.0
        return 0.5 * s * s

    def gradient(x: Array) -> Array:
        if small:
            s = 0.0
            for v in x.tolist():
                s += v
        else:
            s = float(np.add.reduce(x))
        g = np.empty(dim)
        g.fill(s - 1.0)
        return g

    ones = _constant(dim, 1.0)

    def curvature(d: Array) -> float:  # (sum d)^2
        if small:
            s = 0.0
            for v in d.tolist():
                s += v
        else:
            s = float(d.dot(ones))
        try:
            return s ** 2  # not s * s, whose bytes differ on some doubles
        except OverflowError:  # from |sum d| of about 1.34e154; the driver refuses inf
            return math.inf

    box = BoxSet(_constant(dim, -1.0), _constant(dim, 1.0))
    xstar = _constant(dim, 1.0 / dim)
    return GeneratedProblem(Problem(
        objective=Objective(value, gradient, float(dim), curvature),
        feasible_set=box.to_feasible_set(),
        known_fstar=0.0,
        known_xstar_n=xstar,
    ))


def make_illposed_simplex(dim: int) -> GeneratedProblem:
    """f(x) = 0.5 (x_1 - x_2)^2 on the unit simplex.

    Minimizers are the whole slice {x_1 = x_2}; the minimal-norm one is the
    barycenter.  L = 2 and the simplex gives the conditional-gradient
    methods their B = sqrt(2) diameter.  x*_n is a read-only stride-0 view
    (see _constant), and the problem keeps no n-vector: the gradient
    t (1, -1, 0, ...) with t = x_1 - x_2 is filled with t * 0.0 and gets
    t * 1.0 and t * -1.0 in its first two entries, the products a dense
    direction scaled by t would form, so its zeros carry the sign of t.
    """
    if dim < 3:
        raise ValueError("dim must be >= 3")

    def value(x: Array) -> float:
        t = x.item(0) - x.item(1)
        return 0.5 * t * t

    def gradient(x: Array) -> Array:
        t = x.item(0) - x.item(1)
        g = np.empty(dim)
        g.fill(t * 0.0)
        g[0] = t * 1.0
        g[1] = t * -1.0
        return g

    def curvature(d: Array) -> float:  # (d_1 - d_2)^2
        return (d.item(0) - d.item(1)) ** 2

    simplex = SimplexSet(dim)
    xstar = _constant(dim, 1.0 / dim)
    return GeneratedProblem(Problem(
        objective=Objective(value, gradient, 2.0, curvature),
        feasible_set=simplex.to_feasible_set(),
        known_fstar=0.0,
        known_xstar_n=xstar,
    ))


def _norm(r: Array) -> float:
    """sqrt(r . r), the formula np.linalg.norm uses for a 1-d float vector,
    without its Python-level dispatch."""
    return math.sqrt(r.dot(r))


_DYKSTRA_TOL = 1e-13
_DYKSTRA_MAX_CYCLES = 50_000


def _dykstra(
    x0: Array,
    project_first: Callable[[Array], Array],
    project_second: Callable[[Array], Array],
    affine_residual: Callable[[Array], float],
) -> Array:
    """Project x0 onto the intersection of two convex sets by Dykstra's scheme.

    Each cycle projects onto the first set, then the second; it stops once
    the iterate and both corrections p, q moved by at most _DYKSTRA_TOL, since
    the iterate can stall while the corrections still change.  The returned
    point also lies on the affine set to residual 1e-11.
    """
    x = x0
    p = np.zeros_like(x0)
    q = np.zeros_like(x0)
    for _ in range(_DYKSTRA_MAX_CYCLES):
        u = project_first(x + p)
        p, p_old = x + p - u, p
        v = project_second(u + q)
        q, q_old = u + q - v, q
        moved = max(_norm(v - x), _norm(p - p_old), _norm(q - q_old))
        if moved <= _DYKSTRA_TOL and affine_residual(v) <= 1e-11:
            return v
        x = v
    raise OracleFailure("Dykstra projection did not converge; intersection suspect")


def _minimal_norm_in_slice(A: Array, pinv: Array, b_proj: Array, fs: FeasibleSet) -> Array:
    """argmin 0.5 ||x||^2 over {x in D : A x = b_proj}, the projection of 0 onto it.

    Dykstra's scheme projects the origin onto the intersection twice, once
    with each order of the two projections; disagreement beyond 1e-8 means
    the ground truth cannot be trusted and the generator refuses to hand
    it out.  pinv is np.linalg.pinv(A).
    """
    if fs.project_fn is None or fs.dimension is None:
        raise ValueError("rank-deficient generator needs a projection oracle with dimension")

    def project_affine(x: Array) -> Array:
        return x - pinv @ (A @ x - b_proj)

    def affine_residual(x: Array) -> float:
        return _norm(A @ x - b_proj)

    origin = np.zeros(fs.dimension)
    za = _dykstra(origin, project_affine, fs.project_fn, affine_residual)
    zb = _dykstra(origin, fs.project_fn, project_affine, affine_residual)
    if _norm(za - zb) > 1e-8:
        raise OracleFailure("minimal-norm oracle orders disagree; ground truth not trusted")
    return za


def make_rankdef_lsq(A: Array, b: Array, fs: FeasibleSet) -> GeneratedProblem:
    """f(x) = 0.5 ||A x - b||^2 over the given set, A allowed rank-deficient.

    Requires the residual-minimal slice {A x = proj_range(A) b} to meet the
    set, so the solution set is the polyhedron D cap slice.  The
    minimal-norm solution is computed by _minimal_norm_in_slice and frozen
    into the returned problem as read-only ground truth.
    """
    A = np.asarray(A, dtype=np.float64)
    b = as_vector(b)
    if A.ndim != 2 or A.shape[0] != b.shape[0]:
        raise ValueError("A must be a matrix with rows matching b")
    if fs.dimension is not None and A.shape[1] != fs.dimension:
        raise ValueError("A columns must match the set dimension")
    At = np.ascontiguousarray(A.T)
    pinv = np.linalg.pinv(A)
    b_proj = A @ (pinv @ b)

    def value(x: Array) -> float:
        r = A @ x - b
        return 0.5 * float(r.dot(r))

    def gradient(x: Array) -> Array:
        return At @ (A @ x - b)

    def curvature(d: Array) -> float:  # ||A d||^2
        r = A @ d
        return float(r.dot(r))

    L = estimate_lipschitz_quadratic(A)
    if L <= 0.0:
        raise ValueError("A must be nonzero")
    xstar = _minimal_norm_in_slice(A, pinv, b_proj, fs)
    xstar.flags.writeable = False
    fstar = value(xstar)
    return GeneratedProblem(Problem(
        objective=Objective(value, gradient, L, curvature),
        feasible_set=fs,
        known_fstar=fstar,
        known_xstar_n=xstar,
    ))


# a dimension with a leading zero would cache a second copy of its problem
_LABEL_RE = re.compile(r"^([a-z_]+)\(([1-9]\d*)\)$")
_PROBLEM_CACHE: dict[str, GeneratedProblem] = {}
_FAMILIES = {"illposed_box": make_illposed_box, "illposed_simplex": make_illposed_simplex}
_BOX2 = BoxSet(_constant(2, -1.0), _constant(2, 1.0))
# the fixed least-squares problems, (name, dim): (A, b, set)
_LEAST_SQUARES = {
    ("rankdef_box", 2): ([[1.0, 1.0], [0.0, 0.0]], [1.0, 0.0], _BOX2),
    ("rankdef_simplex", 3): ([[1.0, -1.0, 0.0], [0.0, 0.0, 0.0]], [0.0, 0.0], SimplexSet(3)),
    ("wellposed_box", 2): ([[2.0, 0.0], [0.0, 1.0]], [0.6, 0.4], _BOX2),
    ("wellposed_simplex", 3): ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                               [0.5, 0.3, 0.2], SimplexSet(3)),
}


def bundled_problem(label: str) -> GeneratedProblem:  # benchmarks/workloads.py calls it
    """Label -> GeneratedProblem, memoized so oracle runs happen once.

    x*_n and the box bounds of every bundled problem are read-only, so no
    caller can change the ground truth that later calls are handed.
    """
    cached = _PROBLEM_CACHE.get(label)
    if cached is not None:
        return cached
    m = _LABEL_RE.match(label)
    if m is None:
        raise ConfigError(f"problem_label: cannot parse {label!r}")
    name, dim = m.group(1), int(m.group(2))
    if (name, dim) in _LEAST_SQUARES:
        A, b, kind = _LEAST_SQUARES[name, dim]
        gp = make_rankdef_lsq(A, b, kind.to_feasible_set())
    else:
        if name not in _FAMILIES:
            raise ConfigError(f"problem_label: unknown label {label!r}")
        try:
            gp = _FAMILIES[name](dim)
        except (ValueError, MemoryError) as exc:  # numpy's MemoryError names shape and bytes
            raise ConfigError(f"problem_label: {label!r}: {exc}") from None
    _PROBLEM_CACHE[label] = gp
    return gp


def default_start(gp: GeneratedProblem, method: str) -> Array:  # benchmarks/workloads.py calls it
    """Vertex start for LMO methods, projected origin otherwise.

    The set needs a projection and a dimension, as every bundled set has.
    The projection reads the origin as a read-only stride-0 view (see
    _constant), so no n-vector of zeros is built and freed for it; the start
    is a new, writable array with the bytes of the dense origin's projection.
    The LMO still gets a dense ones vector: at n = 10**6 the next 8 MB
    temporary, cgrm_constants' f'(w0), reuses its freed memory, and without
    it large_n's peak RSS rose by about 6 MB.
    """
    fs = gp.problem.feasible_set
    if method in ("cgm", "cgrm"):
        if fs.lmo_fn is not None:
            return fs.lmo_fn(np.ones(fs.dimension))
    return fs.project_fn(_constant(fs.dimension, 0.0))


def bound_constants(
    method: str, sched: GeometricSchedule, consts: MethodConstants, xstar_norm: float
) -> tuple[float, float]:
    """The (C1, C2) pair of the complexity bound for the given method."""
    s = 1.0 + 2.0 * sched.sigma
    e0 = sched.epsilon0
    if method == "gprm":
        C1 = 2.0 * (consts.Lprime + 1.0) ** 2 * e0**s + 0.5 * e0 * xstar_norm**2
    elif method == "cgrm":
        C1 = e0**s + 0.5 * e0 * xstar_norm**2
    else:
        raise ValueError("bound applies to gprm and cgrm only")
    C2 = C1 / (consts.beta * consts.gamma * e0 ** (2.0 * (1.0 + sched.sigma)))
    return C1, C2


@dataclass(frozen=True)
class ComplexityReport:
    """Measured N(alpha) on a grid, with the matching theoretical bound."""

    alpha_grid: tuple[float, ...]
    measured_N: tuple[int, ...]
    attained: tuple[bool, ...]
    fitted_exponent: float
    bound_N: tuple[float, ...] = ()


def _fit_exponent(alpha_grid, measured, attained) -> float:
    xs, ys = [], []
    for a, n, ok in zip(alpha_grid, measured, attained):
        if ok and n >= 1:
            xs.append(math.log(1.0 / a))
            ys.append(math.log(n))  # an int past the float range has a log too
    if len(xs) < 2:
        return math.nan
    return float(np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0])


def measure_complexity(records, alpha_grid=DEFAULT_ALPHA_GRID) -> ComplexityReport:
    """Count inner iterations N(alpha) for each accuracy on the grid.

    records are a trace's OuterRecords (trace.outer_records, or a stored
    trace CSV's rows read back as OuterRecord(**row)); the levels are those
    with l >= 1.  N(alpha) is the cumulative inner count at the last level
    with Delta(w^l) >= alpha; if even the last level has Delta >= alpha the
    grid point is unattained (its total count stored, excluded from the
    exponent fit).  ValueError if there is no level, if a level lacks a
    finite Delta (a missing one: the problem had no known f*), or unless
    alpha_grid is positive and strictly decreasing.
    """
    grid = tuple(float(a) for a in alpha_grid)
    # written so that a NaN entry fails both comparisons
    if any(not a > 0.0 for a in grid) or any(
        not grid[i] > grid[i + 1] for i in range(len(grid) - 1)
    ):
        raise ValueError("alpha_grid must be positive and strictly decreasing")
    recs = [r for r in records if r.l >= 1]
    if not recs:
        raise ValueError("trace has no iteration records")
    # a NaN Delta would fail every >= test below and count as attained
    if not all(r.delta_wl is not None and math.isfinite(r.delta_wl) for r in recs):
        raise ValueError("a level lacks a finite Delta; a missing one means no known f*")
    # an unattained alpha is met by the last level, so its count is the total
    measured = tuple(
        int(next((r.cum_inner for r in reversed(recs) if r.delta_wl >= a), 0)) for a in grid
    )
    attained = tuple(not recs[-1].delta_wl >= a for a in grid)
    return ComplexityReport(
        alpha_grid=grid,
        measured_N=measured,
        attained=attained,
        fitted_exponent=_fit_exponent(grid, measured, attained),
    )


def with_bounds(
    report: ComplexityReport, C1: float, C2: float, nu: float, sigma: float
) -> ComplexityReport:
    """Attach bound_N, the closed-form upper bound on N(alpha), to a measured report.

    N(alpha) <= C2 ((C1/alpha)^(1+2 sigma) - 1) / (nu (1 - nu^(1+2 sigma))),
    with (C1, C2) from bound_constants and (nu, sigma) of the run's schedule.
    alpha >= C1 needs no outer iterations at all, so the bound is 0 there.  A
    bound past the float range is math.inf.  ValueError unless every alpha on
    the report's grid is positive.
    """
    s = 1.0 + 2.0 * sigma
    bounds = []
    for alpha in report.alpha_grid:
        if not alpha > 0.0:
            raise ValueError("alpha must be positive")
        try:
            bounds.append(0.0 if alpha >= C1 else C2 * ((C1 / alpha) ** s - 1.0) / (nu * (1.0 - nu**s)))
        except OverflowError:  # a float power raises where a product would give inf
            bounds.append(math.inf)
    return dataclasses.replace(report, bound_N=tuple(bounds))


@dataclass(frozen=True)
class ExperimentConfig:
    """One solver run, fully determined.

    Field names are exactly the keys accepted in config files.  Schedule
    fields are method-specific: (epsilon0, nu, sigma) for gprm/cgrm, lam
    for gpm, theta_k for cgm; the rest are ignored by methods that do not
    use them.  A field named like a field of GeometricSchedule,
    MethodConstants or StopPolicy takes its default and its range check
    from that type.
    """

    problem_label: str
    method: str
    epsilon0: float = GeometricSchedule.epsilon0
    nu: float = GeometricSchedule.nu
    sigma: float = GeometricSchedule.sigma
    lam: Optional[float] = None
    theta_k: Optional[float] = None
    beta: float = DEFAULT_BETA
    theta: float = DEFAULT_THETA
    epsilon_min: float = StopPolicy.epsilon_min
    max_outer: int = StopPolicy.max_outer
    max_inner_per_l: int = StopPolicy.max_inner_per_l
    max_linesearch_m: int = StopPolicy.max_linesearch_m
    max_iter: int = 10_000
    x0: Optional[tuple[float, ...]] = None
    output_path: Optional[str] = None


# one valid instance of each library type that owns config fields; each owned
# field is range-checked by its owner's __post_init__, one field at a time,
# with the fields accepted before it (so a check across fields, as the
# schedule's delta_0, sees the config's values), and the errors come in this
# order of owners and each owner's field order
_OWNERS = (GeometricSchedule(), gprm_constants(1.0, 1.0), StopPolicy())


def _validate_config(cfg: ExperimentConfig) -> list[str]:
    errors = []
    if cfg.method not in METHODS:
        errors.append(f"method: must be one of {METHODS}")
    for owner in _OWNERS:
        for f in dataclasses.fields(owner):
            if hasattr(cfg, f.name):
                try:
                    owner = dataclasses.replace(owner, **{f.name: getattr(cfg, f.name)})
                except ValueError as exc:
                    errors.append(str(exc))
    if cfg.max_iter <= 0:
        errors.append("max_iter: must be positive")
    if cfg.lam is not None and not cfg.lam > 0.0:
        errors.append("lam: must be positive")
    if cfg.theta_k is not None and not cfg.theta_k > 0.0:
        errors.append("theta_k: must be positive")
    if not errors and cfg.method in ("gprm", "cgrm") and cfg.epsilon0 * cfg.nu < cfg.epsilon_min:
        errors.append("epsilon_min: must not exceed epsilon0 * nu, or no level runs")
    return errors


# benchmarks/workloads.py calls it
def solver_constants(cfg: ExperimentConfig, gp: GeneratedProblem, x0: Array) -> Optional[MethodConstants]:
    """MethodConstants for the configured two-level method, else None."""
    if cfg.method == "gprm":
        return gprm_constants(gp.problem.objective.lipschitz_L, cfg.epsilon0, cfg.beta, cfg.theta)
    if cfg.method == "cgrm":
        return cgrm_constants(gp.problem, cfg.epsilon0, x0, cfg.beta, cfg.theta)
    return None


def _check_output_dir(path: str) -> None:
    """ConfigError unless path names a file (not empty, no trailing separator, not
    *.json), neither it nor its sidecar is a directory, and its nearest existing
    ancestor is a writable directory; nothing is created."""
    if "\0" in path:  # the os calls would raise ValueError
        raise ConfigError(f"output_path: {path!r} contains a NUL byte")
    if path.endswith(".json"):  # a run to path[:-5] would remove it as its old sidecar
        raise ConfigError(f"output_path: {path!r} ends in .json, the sidecar path of "
                          f"a trace at {path[:-5]!r}")
    for target in (path, sidecar_path(path)):
        if os.path.isdir(target):
            raise ConfigError(f"output_path: {target!r} is a directory")
    if not os.path.basename(path):
        raise ConfigError(f"output_path: {path!r} names no file")
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise ConfigError(f"output_path: {parent!r} is not a directory")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise ConfigError(f"output_path: cannot write in {parent!r}")


def validate_experiment(cfg: ExperimentConfig) -> tuple[
        GeneratedProblem, Array, GeometricSchedule, StopPolicy, Optional[MethodConstants], Optional[float]]:
    """Everything run_experiment checks and builds before solving: the solver's
    arguments (gp, x0, sched, stop, consts, step).

    consts is solver_constants(cfg, gp, x0), None for gpm and cgm; step is the
    baseline's lam (gpm) or theta_k (cgm), default 1/L, None for gprm and cgrm.
    Raises ConfigError for a field outside its mandated interval, an
    output_path ending in .json, naming no file, holding a NUL byte, or whose
    directory cannot be created or written, an unknown problem label or one
    too large to allocate, a baseline step at or above 2/L, an x0 that has the
    wrong dimension, a non-finite entry, or lies outside the feasible set, or,
    with an output_path, a two-level run whose sidecar C1 or C2 would not be
    finite.
    """
    errors = _validate_config(cfg)
    if errors:
        raise ConfigError("; ".join(errors))
    if cfg.output_path is not None:
        _check_output_dir(cfg.output_path)
    gp = bundled_problem(cfg.problem_label)
    step = None
    if cfg.method in ("gpm", "cgm"):
        name, given = ("lam", cfg.lam) if cfg.method == "gpm" else ("theta_k", cfg.theta_k)
        L = gp.problem.objective.lipschitz_L
        # the baseline step defaults to 1/L once the problem fixes L
        step = given if given is not None else 1.0 / L
        if step * L >= 2.0:
            raise ConfigError(f"{name}: must satisfy {name} < 2/L")
    if cfg.x0 is None:
        x0 = default_start(gp, cfg.method)
    else:
        try:
            x0 = _require_feasible(gp.problem, cfg.x0)
        except ValueError as exc:
            raise ConfigError(f"x0: {exc}") from None
    sched = GeometricSchedule(cfg.epsilon0, cfg.nu, cfg.sigma)
    stop = StopPolicy(cfg.epsilon_min, cfg.max_outer, cfg.max_inner_per_l, cfg.max_linesearch_m)
    try:
        consts = solver_constants(cfg, gp, x0)
    except ValueError:  # the fields passed their owners, so only gamma = 0.0 is left
        raise ConfigError(f"theta: the step floor gamma, proportional to theta = {cfg.theta!r}, "
                          "underflows to 0") from None
    if cfg.output_path is not None:
        _bound_entries(cfg, gp, consts)  # the sidecar's, refused before the run writes the CSV
    return gp, x0, sched, stop, consts, step


def run_experiment(cfg: ExperimentConfig) -> SolverTrace:
    """Validate, build, run, and (when output_path is set) serialize.

    Raises ConfigError (see validate_experiment) before touching the solver;
    writes the CSV trace and its JSON sidecar next to each other at
    output_path.  An earlier sidecar there is removed before the CSV is
    replaced, so a failed write leaves no CSV beside another run's sidecar.
    """
    gp, x0, sched, stop, consts, step = validate_experiment(cfg)
    run = {"gpm": run_gpm, "cgm": run_cgm, "gprm": run_gprm, "cgrm": run_cgrm}[cfg.method]
    args = (step, x0, cfg.max_iter) if consts is None else (sched, consts, x0, stop)
    trace = run(gp.problem, *args)

    if cfg.output_path is not None:
        side = sidecar_path(cfg.output_path)
        if os.path.exists(side):
            os.remove(side)
        write_trace_csv(trace, cfg.output_path)
        write_sidecar(cfg, gp, trace, consts, side)
    return trace


# one column per OuterRecord field, so a parsed row is OuterRecord(**row)
TRACE_HEADER = tuple(f.name for f in dataclasses.fields(OuterRecord))
_INT_COLUMNS = frozenset(k for k, t in typing.get_type_hints(OuterRecord).items() if t is int)


def _cell(column: str, v) -> str:
    if v is None:
        return ""
    # repr of a Python float is its shortest round-trip decimal form
    return str(v) if column in _INT_COLUMNS else repr(float(v))


def _parse(column: str, text: str):
    """The cell's int, finite float or None (an empty float cell); ValueError naming column."""
    try:
        v = int(text) if column in _INT_COLUMNS else float(text) if text else None
    except ValueError:
        raise ValueError(f"{column}: cannot parse {text!r}") from None
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"{column} is not finite")
    return v


@contextmanager
def _atomic_open(path: str):
    """Text file beside path, renamed over path on success and removed on failure."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_trace_csv(trace: SolverTrace, path: str) -> None:
    with _atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for r in trace.outer_records:
            writer.writerow([_cell(c, getattr(r, c)) for c in TRACE_HEADER])


def read_trace_csv(path: str) -> list[dict]:
    """Parsed rows of the trace CSV (None for empty cells); ValueError if malformed
    or empty, if a cell is not a number or not finite, or unless l counts up by 1,
    N_l >= 0 and cum_inner is the running sum of N_l (no run writes any of these)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames != list(TRACE_HEADER):
                raise ValueError(f"unexpected trace header in {path}")
            rows = []
            for raw in reader:
                # DictReader files a long row's extra cells under None and fills a short one with None
                if None in raw or None in raw.values():
                    raise ValueError(f"line {reader.line_num} of {path}: expected {len(TRACE_HEADER)} cells")
                try:
                    row = {c: _parse(c, raw[c]) for c in TRACE_HEADER}
                    prev = rows[-1] if rows else dict(l=row["l"] - 1, cum_inner=0)
                    if row["l"] != prev["l"] + 1:
                        raise ValueError(f"l {row['l']} does not follow l {prev['l']}")
                    if row["N_l"] < 0:
                        raise ValueError(f"N_l {row['N_l']} is negative")
                    if row["cum_inner"] != prev["cum_inner"] + row["N_l"]:
                        raise ValueError(f"cum_inner {row['cum_inner']} is not the running sum of N_l")
                    rows.append(row)
                except ValueError as exc:
                    raise ValueError(f"line {reader.line_num} of {path}: {exc}") from None
        except csv.Error as exc:  # a cell past csv.field_size_limit(), or a NUL before Python 3.11
            # DictReader.line_num counts the rows it returned, its reader's the lines it read
            raise ValueError(f"line {reader.reader.line_num} of {path}: {exc}") from None
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return rows


def _bound_entries(cfg: ExperimentConfig, gp: GeneratedProblem,
                   consts: Optional[MethodConstants]) -> dict:
    """The sidecar's gamma, Lprime, C1 and C2, all None for gpm and cgm;
    ConfigError unless C1 and C2 are finite, as `tikgrad report` reads them."""
    if consts is None:
        return dict(gamma=None, Lprime=None, C1=None, C2=None)
    sched = GeometricSchedule(cfg.epsilon0, cfg.nu, cfg.sigma)
    xnorm = float(np.linalg.norm(gp.analytic_xstar_n))
    try:  # a float power raises OverflowError, and C2 divides by epsilon0^(2 + 2 sigma)
        C1, C2 = bound_constants(cfg.method, sched, consts, xnorm)
    except (OverflowError, ZeroDivisionError):
        C1 = C2 = math.inf
    if not (math.isfinite(C1) and math.isfinite(C2)):
        raise ConfigError("epsilon0: the complexity bound's C1 and C2 leave the float "
                          "range, so the sidecar cannot record them")
    return dict(gamma=consts.gamma, Lprime=consts.Lprime, C1=C1, C2=C2)


def sidecar_path(csv_path: str) -> str:
    """The trace's own sidecar: its whole path plus .json, so no two traces share one."""
    return csv_path + ".json"


def write_sidecar(  # benchmarks/workloads.py calls it
    cfg: ExperimentConfig,
    gp: GeneratedProblem,
    trace: SolverTrace,
    consts: Optional[MethodConstants],
    path: str,
) -> None:
    """JSON companion to the CSV: config, bound constants, counters, min lambda."""
    payload = {
        "config": dataclasses.asdict(cfg),
        "constants": _bound_entries(cfg, gp, consts),
        "counters": trace.counters.as_dict(),
        "min_observed_lambda": (
            trace.min_observed_lambda if math.isfinite(trace.min_observed_lambda) else None
        ),
    }
    with _atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_sidecar(csv_path: str) -> Optional[tuple[dict, dict, Optional[tuple]]]:
    """csv_path's sidecar as (config, counters, with_bounds' (C1, C2, nu, sigma) or
    None unless all four are set), None if it has none; ValueError unless it is an
    object of objects, C1 and C2 are null or finite and >= 0 and nu and sigma null
    or passed by GeometricSchedule (a JSON boolean is not a number)."""
    path = sidecar_path(csv_path)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        try:
            meta = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    if not isinstance(meta, dict):
        raise ValueError("not a JSON object")
    config, constants, counters = entries = [meta.get(k, {}) for k in ("config", "constants", "counters")]
    for key, entry in zip(("config", "constants", "counters"), entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{key} is not a JSON object")
    bound = {"constant C1": constants.get("C1"), "constant C2": constants.get("C2"),
             "nu": config.get("nu"), "sigma": config.get("sigma")}
    for name, v in bound.items():
        if v is not None and (isinstance(v, bool) or not isinstance(v, (int, float))):
            raise ValueError(f"{name} is not a number")
        if v is not None and name.startswith("constant") and not 0.0 <= v < math.inf:
            raise ValueError(f"{name} out of range")
    GeometricSchedule(**{k: bound[k] for k in ("nu", "sigma") if bound[k] is not None})
    return config, counters, None if None in bound.values() else tuple(bound.values())
