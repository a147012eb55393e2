"""Benchmark harness: bundled problems, complexity bounds, experiment runner.

The generators build problems whose minimal-norm solution is known exactly
(by symmetry) or computed once by an independent high-accuracy oracle and
cross-checked by a second run in the other projection order.
measure_complexity turns a solver trace into N(alpha) counts on an accuracy
grid and fits the growth exponent; complexity_bound evaluates the
closed-form upper bound the two-level methods must stay under.
run_experiment ties a validated config to a bundled problem, runs the
configured method, and serializes the trace as CSV plus a JSON sidecar.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import re
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
from .regularization import GeometricSchedule, IterRegSchedule
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
    run_iterreg,
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
    "complexity_bound",
    "complexity_count",
    "measure_complexity",
    "with_bounds",
    "validate_experiment",
    "run_experiment",
    "solver_constants",
    "write_trace_csv",
    "read_trace_csv",
    "write_sidecar",
    "sidecar_path",
]

METHODS = ("gpm", "cgm", "iterreg", "gprm", "cgrm")

# spans two decades of accuracy while keeping bundled runs under a second
DEFAULT_ALPHA_GRID = (0.1, 0.03, 0.01, 0.003, 0.001)


class ConfigError(ValueError):
    """Invalid experiment configuration; message lists field-level problems."""


@dataclass(frozen=True, eq=False)
class GeneratedProblem:
    """A Problem carrying its ground truth f*, x*_n and L (Problem checks f(x*_n) = f*)."""

    problem: Problem
    label: str
    dstar_description: str

    def __post_init__(self):
        p = self.problem
        if p.known_fstar is None or p.known_xstar_n is None or not p.objective.lipschitz_L > 0.0:
            raise ValueError("problem must carry f*, x*_n and a positive L")

    @property
    def analytic_L(self) -> float:
        return self.problem.objective.lipschitz_L

    @property
    def analytic_xstar_n(self) -> Array:
        return self.problem.known_xstar_n

    @property
    def analytic_fstar(self) -> float:
        return self.problem.known_fstar


def _constant(dim: int, value: float) -> Array:
    """Read-only float64 vector of dim copies of value, stored as one float.

    A stride-0 view of an immutable numpy scalar: ufuncs read it as the
    full vector and give the same bits, and any write raises ValueError,
    so the memoized problems cannot be corrupted.  One exception to the
    bits: ndarray.clip against a zero bound keeps the sign of a tied zero
    entry, as for a scalar bound; no bound built here is zero.  Building
    it costs less than np.ones(2); np.broadcast_to takes about 10x as long.
    """
    return np.ndarray((dim,), np.float64, np.float64(value), 0, (0,))


def make_illposed_box(dim: int) -> GeneratedProblem:
    """f(x) = 0.5 (sum x - 1)^2 on [-1, 1]^dim.

    Every point of the hyperplane slice {sum x = 1} inside the box is a
    minimizer, so plain gradient methods stall wherever they first touch it;
    the minimal-norm solution is (1/dim, ..., 1/dim) by symmetry.  L = dim.
    The gradient's ones vector, the bounds -1 and 1 and x*_n are read-only
    stride-0 views (see _constant), so the problem stores O(1) floats, not
    four n-vectors; the gradient and the oracles still return new n-vectors.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    ones = _constant(dim, 1.0)

    # np.add.reduce is x.sum() without the Python-level _sum frame numpy adds
    def value(x: Array) -> float:
        s = float(np.add.reduce(x)) - 1.0
        return 0.5 * s * s

    def gradient(x: Array) -> Array:
        return (float(np.add.reduce(x)) - 1.0) * ones

    box = BoxSet(_constant(dim, -1.0), ones)
    xstar = _constant(dim, 1.0 / dim)
    problem = Problem(
        objective=Objective(value, gradient, float(dim)),
        feasible_set=box.to_feasible_set(),
        known_fstar=0.0,
        known_xstar_n=xstar,
    )
    return GeneratedProblem(
        problem=problem,
        label=f"illposed_box({dim})",
        dstar_description=f"{{x in [-1,1]^{dim} : sum(x) = 1}}",
    )


def make_illposed_simplex(dim: int) -> GeneratedProblem:
    """f(x) = 0.5 (x_1 - x_2)^2 on the unit simplex.

    Minimizers are the whole slice {x_1 = x_2}; the minimal-norm one is the
    barycenter.  L = 2 and the simplex gives the conditional-gradient
    methods their B = sqrt(2) diameter.  x*_n is a read-only stride-0 view
    (see _constant).  The gradient's direction (1, -1, 0, ...) stays a dense
    vector: it holds distinct entries, and scaling it by x_1 - x_2 gives the
    zero entries their sign, which a gradient built from zeros would not.
    """
    if dim < 3:
        raise ValueError("dim must be >= 3")
    direction = np.zeros(dim)
    direction[0] = 1.0
    direction[1] = -1.0

    def value(x: Array) -> float:
        t = x.item(0) - x.item(1)
        return 0.5 * t * t

    def gradient(x: Array) -> Array:
        return (x.item(0) - x.item(1)) * direction

    simplex = SimplexSet(dim)
    xstar = _constant(dim, 1.0 / dim)
    problem = Problem(
        objective=Objective(value, gradient, 2.0),
        feasible_set=simplex.to_feasible_set(),
        known_fstar=0.0,
        known_xstar_n=xstar,
    )
    return GeneratedProblem(
        problem=problem,
        label=f"illposed_simplex({dim})",
        dstar_description=f"{{x in unit simplex of R^{dim} : x_1 = x_2}}",
    )


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
        moved = max(np.linalg.norm(v - x), np.linalg.norm(p - p_old), np.linalg.norm(q - q_old))
        if moved <= _DYKSTRA_TOL and affine_residual(v) <= 1e-11:
            return v
        x = v
    raise OracleFailure("Dykstra projection did not converge; intersection suspect")


def _minimal_norm_in_slice(A: Array, b_proj: Array, fs: FeasibleSet) -> Array:
    """argmin 0.5 ||x||^2 over {x in D : A x = b_proj}, the projection of 0 onto it.

    Dykstra's scheme projects the origin onto the intersection twice, once
    with each order of the two projections; disagreement beyond 1e-8 means
    the ground truth cannot be trusted and the generator refuses to hand
    it out.
    """
    if fs.project_fn is None or fs.dimension is None:
        raise ValueError("rank-deficient generator needs a projection oracle with dimension")
    pinv = np.linalg.pinv(A)

    def project_affine(x: Array) -> Array:
        return x - pinv @ (A @ x - b_proj)

    def affine_residual(x: Array) -> float:
        return float(np.linalg.norm(A @ x - b_proj))

    origin = np.zeros(fs.dimension)
    za = _dykstra(origin, project_affine, fs.project_fn, affine_residual)
    zb = _dykstra(origin, fs.project_fn, project_affine, affine_residual)
    if float(np.linalg.norm(za - zb)) > 1e-8:
        raise OracleFailure("minimal-norm oracle orders disagree; ground truth not trusted")
    return za


def make_rankdef_lsq(A: Array, b: Array, fs: FeasibleSet, label: Optional[str] = None) -> GeneratedProblem:
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
    b_proj = A @ (np.linalg.pinv(A) @ b)

    def value(x: Array) -> float:
        r = A @ x - b
        return 0.5 * float(r.dot(r))

    def gradient(x: Array) -> Array:
        return At @ (A @ x - b)

    L = estimate_lipschitz_quadratic(A)
    if L <= 0.0:
        raise ValueError("A must be nonzero")
    xstar = _minimal_norm_in_slice(A, b_proj, fs)
    xstar.flags.writeable = False
    fstar = value(xstar)
    if label is None:
        label = f"rankdef_lsq({A.shape[0]}x{A.shape[1]})"
    problem = Problem(
        objective=Objective(value, gradient, L),
        feasible_set=fs,
        known_fstar=fstar,
        known_xstar_n=xstar,
    )
    return GeneratedProblem(
        problem=problem,
        label=label,
        dstar_description="{x in D : A x = proj_range(A)(b)}",
    )


_LABEL_RE = re.compile(r"^([a-z_]+)\((\d+)\)$")
_PROBLEM_CACHE: dict[str, GeneratedProblem] = {}


def bundled_problem(label: str) -> GeneratedProblem:
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
    box2 = lambda: BoxSet(_constant(2, -1.0), _constant(2, 1.0)).to_feasible_set()
    if name in ("illposed_box", "illposed_simplex"):
        make = make_illposed_box if name == "illposed_box" else make_illposed_simplex
        try:
            gp = make(dim)
        except ValueError as exc:
            raise ConfigError(f"problem_label: {label!r}: {exc}") from None
    elif name == "rankdef_box" and dim == 2:
        gp = make_rankdef_lsq(
            np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([1.0, 0.0]), box2(), label
        )
    elif name == "rankdef_simplex" and dim == 3:
        gp = make_rankdef_lsq(
            np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 0.0]]),
            np.zeros(2),
            SimplexSet(3).to_feasible_set(),
            label,
        )
    elif name == "wellposed_box" and dim == 2:
        gp = make_rankdef_lsq(
            np.diag([2.0, 1.0]), np.array([0.6, 0.4]), box2(), label
        )
    elif name == "wellposed_simplex" and dim == 3:
        gp = make_rankdef_lsq(
            np.eye(3), np.array([0.5, 0.3, 0.2]), SimplexSet(3).to_feasible_set(), label
        )
    else:
        raise ConfigError(f"problem_label: unknown label {label!r}")
    _PROBLEM_CACHE[label] = gp
    return gp


def default_start(gp: GeneratedProblem, method: str) -> Array:
    """Vertex start for LMO methods, projected origin otherwise.

    The set needs a projection and a dimension, as every bundled set has.
    """
    fs = gp.problem.feasible_set
    if method in ("cgm", "cgrm"):
        if fs.lmo_fn is not None:
            return fs.lmo_fn(np.ones(fs.dimension))
    return fs.project_fn(np.zeros(fs.dimension))


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


def complexity_bound(C1: float, C2: float, nu: float, sigma: float, alpha: float) -> float:
    """Closed-form upper bound on N(alpha) for the two-level methods.

    N(alpha) <= C2 ((C1/alpha)^(1+2 sigma) - 1) / (nu (1 - nu^(1+2 sigma))),
    with (C1, C2) from bound_constants.  alpha >= C1 needs no outer
    iterations at all, so the bound is 0 there.  A bound past the float range
    is math.inf.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    if alpha >= C1:
        return 0.0
    s = 1.0 + 2.0 * sigma
    try:
        return C2 * ((C1 / alpha) ** s - 1.0) / (nu * (1.0 - nu**s))
    except OverflowError:  # a float power raises where a product would give inf
        return math.inf


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
            ys.append(math.log(float(n)))
    if len(xs) < 2:
        return math.nan
    return float(np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0])


def complexity_count(deltas, cums, alpha: float) -> tuple[int, bool]:
    """(N(alpha), attained) from per-level Delta values and cumulative inner counts.

    N(alpha) is the cumulative count at the last level with Delta >= alpha;
    alpha is unattained when even the last Delta is >= alpha, and N is then
    the total count.
    """
    if deltas[-1] >= alpha:
        return cums[-1], False
    n = 0
    for d, c in zip(deltas, cums):
        if d >= alpha:
            n = c
    return n, True


def measure_complexity(trace: SolverTrace, alpha_grid=DEFAULT_ALPHA_GRID) -> ComplexityReport:
    """Count inner iterations N(alpha) for each accuracy on the grid.

    N(alpha) sums the inner counts through the last level l with
    Delta(w^l) >= alpha; if even the final record has Delta >= alpha the
    grid point is unattained (total count stored, excluded from the
    exponent fit).  Delta values come from the trace records, so the
    problem must have had a known f*.  alpha_grid must be positive and
    strictly decreasing.
    """
    grid = tuple(float(a) for a in alpha_grid)
    # written so that a NaN entry fails both comparisons
    if any(not a > 0.0 for a in grid) or any(
        not grid[i] > grid[i + 1] for i in range(len(grid) - 1)
    ):
        raise ValueError("alpha_grid must be positive and strictly decreasing")
    recs = [r for r in trace.outer_records if r.l >= 1]
    if not recs:
        raise ValueError("trace has no iteration records")
    deltas = [r.delta_wl for r in recs]
    if any(d is None for d in deltas):
        raise ValueError("trace lacks Delta records; the problem had no known f*")
    cums = [r.cum_inner for r in recs]
    counts = [complexity_count(deltas, cums, a) for a in grid]
    measured = tuple(int(n) for n, _ in counts)
    attained = tuple(ok for _, ok in counts)
    return ComplexityReport(
        alpha_grid=grid,
        measured_N=measured,
        attained=attained,
        fitted_exponent=_fit_exponent(grid, measured, attained),
    )


def with_bounds(
    report: ComplexityReport,
    method: str,
    sched: GeometricSchedule,
    consts: MethodConstants,
    xstar_norm: float,
) -> ComplexityReport:
    """Attach bound_N to a measured report."""
    C1, C2 = bound_constants(method, sched, consts, xstar_norm)
    bounds = tuple(complexity_bound(C1, C2, sched.nu, sched.sigma, a) for a in report.alpha_grid)
    return dataclasses.replace(report, bound_N=bounds)


@dataclass(frozen=True)
class ExperimentConfig:
    """One solver run, fully determined.

    Field names are exactly the keys accepted in config files.  Schedule
    fields are method-specific: (epsilon0, nu, sigma) for gprm/cgrm, tau
    for iterreg, lam for gpm, theta_k for cgm; the rest are ignored by
    methods that do not use them.  A field named like a field of
    GeometricSchedule, IterRegSchedule, MethodConstants or StopPolicy takes
    its default and its range check from that type.
    """

    problem_label: str
    method: str
    epsilon0: float = GeometricSchedule.epsilon0
    nu: float = GeometricSchedule.nu
    sigma: float = GeometricSchedule.sigma
    tau: float = IterRegSchedule.tau
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
# field is range-checked by its owner's __post_init__, one field at a time, so
# the errors come in this order of owners and each owner's field order
_OWNERS = (GeometricSchedule(), IterRegSchedule(), gprm_constants(1.0, 1.0), StopPolicy())


def _validate_config(cfg: ExperimentConfig) -> list[str]:
    errors = []
    if cfg.method not in METHODS:
        errors.append(f"method: must be one of {METHODS}")
    for owner in _OWNERS:
        for f in dataclasses.fields(owner):
            if hasattr(cfg, f.name):
                try:
                    dataclasses.replace(owner, **{f.name: getattr(cfg, f.name)})
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


def solver_constants(cfg: ExperimentConfig, gp: GeneratedProblem, x0: Array) -> Optional[MethodConstants]:
    """MethodConstants for the configured two-level method, else None."""
    if cfg.method == "gprm":
        return gprm_constants(gp.problem.objective.lipschitz_L, cfg.epsilon0, cfg.beta, cfg.theta)
    if cfg.method == "cgrm":
        return cgrm_constants(gp.problem, cfg.epsilon0, x0, cfg.beta, cfg.theta)
    return None


def validate_experiment(cfg: ExperimentConfig) -> tuple[GeneratedProblem, Array, float, float]:
    """Everything run_experiment checks before solving; returns (gp, x0, lam, theta_k).

    Raises ConfigError for a field outside its mandated interval, an unknown
    problem label, a baseline step at or above 2/L, or an x0 that has the
    wrong dimension, a non-finite entry, or lies outside the feasible set.
    lam and theta_k default to 1/L.
    """
    errors = _validate_config(cfg)
    if errors:
        raise ConfigError("; ".join(errors))
    gp = bundled_problem(cfg.problem_label)
    L = gp.problem.objective.lipschitz_L
    # baseline steps default to 1/L once the problem fixes L
    lam = cfg.lam if cfg.lam is not None else 1.0 / L
    theta_k = cfg.theta_k if cfg.theta_k is not None else 1.0 / L
    if cfg.method == "gpm" and lam * L >= 2.0:
        raise ConfigError("lam: must satisfy lam < 2/L")
    if cfg.method == "cgm" and theta_k * L >= 2.0:
        raise ConfigError("theta_k: must satisfy theta_k < 2/L")
    if cfg.x0 is None:
        x0 = default_start(gp, cfg.method)
    else:
        try:
            x0 = _require_feasible(gp.problem, cfg.x0)
        except ValueError as exc:
            raise ConfigError(f"x0: {exc}") from None
    return gp, x0, lam, theta_k


def run_experiment(cfg: ExperimentConfig) -> SolverTrace:
    """Validate, build, run, and (when output_path is set) serialize.

    Raises ConfigError (see validate_experiment) before touching the solver;
    writes the CSV trace and its JSON sidecar next to each other at
    output_path.
    """
    gp, x0, lam, theta_k = validate_experiment(cfg)
    stop = StopPolicy(cfg.epsilon_min, cfg.max_outer, cfg.max_inner_per_l, cfg.max_linesearch_m)
    sched = GeometricSchedule(cfg.epsilon0, cfg.nu, cfg.sigma)
    consts = solver_constants(cfg, gp, x0)
    if cfg.method == "gpm":
        trace = run_gpm(gp.problem, lam, x0, cfg.max_iter)
    elif cfg.method == "cgm":
        trace = run_cgm(gp.problem, theta_k, x0, cfg.max_iter)
    elif cfg.method == "iterreg":
        trace = run_iterreg(gp.problem, IterRegSchedule(cfg.tau), x0, cfg.max_iter)
    elif cfg.method == "gprm":
        trace = run_gprm(gp.problem, sched, consts, x0, stop)
    else:
        trace = run_cgrm(gp.problem, sched, consts, x0, stop)

    if cfg.output_path is not None:
        write_trace_csv(trace, cfg.output_path)
        write_sidecar(cfg, gp, trace, consts, sidecar_path(cfg.output_path))
    return trace


TRACE_HEADER = ("l", "epsilon_l", "delta_l", "N_l", "delta_wl", "dist_xstar", "cum_inner")
_INT_COLUMNS = frozenset({"l", "N_l", "cum_inner"})


def _cell(column: str, v) -> str:
    if v is None:
        return ""
    # repr of a Python float is its shortest round-trip decimal form
    return str(v) if column in _INT_COLUMNS else repr(float(v))


def _parse(column: str, text: str):
    if column in _INT_COLUMNS:
        return int(text)
    return float(text) if text else None


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
    """Parsed rows of the trace CSV (None for empty cells); ValueError if malformed or empty."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(TRACE_HEADER):
            raise ValueError(f"unexpected trace header in {path}")
        rows = []
        for raw in reader:
            # DictReader files a long row's extra cells under None and fills a short one with None
            if None in raw or None in raw.values():
                raise ValueError(f"line {reader.line_num} of {path}: expected {len(TRACE_HEADER)} cells")
            rows.append({c: _parse(c, raw[c]) for c in TRACE_HEADER})
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return rows


def sidecar_path(csv_path: str) -> str:
    return os.path.splitext(csv_path)[0] + ".json"


def write_sidecar(
    cfg: ExperimentConfig,
    gp: GeneratedProblem,
    trace: SolverTrace,
    consts: Optional[MethodConstants],
    path: str,
) -> None:
    """JSON companion to the CSV: full config, derived constants, counters."""
    constants: dict = {"beta": cfg.beta, "theta": cfg.theta, "nu": cfg.nu, "sigma": cfg.sigma}
    if consts is not None:
        sched = GeometricSchedule(cfg.epsilon0, cfg.nu, cfg.sigma)
        xnorm = float(np.linalg.norm(gp.analytic_xstar_n))
        C1, C2 = bound_constants(cfg.method, sched, consts, xnorm)
        constants.update(gamma=consts.gamma, Lprime=consts.Lprime, C1=C1, C2=C2)
    else:
        constants.update(gamma=None, Lprime=None, C1=None, C2=None)
    payload = {
        "config": dataclasses.asdict(cfg),
        "problem": {
            "label": gp.label,
            "analytic_L": gp.analytic_L,
            "analytic_fstar": gp.analytic_fstar,
            "dstar_description": gp.dstar_description,
        },
        "constants": constants,
        "counters": trace.counters.as_dict(),
        "min_observed_lambda": (
            trace.min_observed_lambda if math.isfinite(trace.min_observed_lambda) else None
        ),
        "outer_levels": len([r for r in trace.outer_records if r.l >= 1]),
    }
    with _atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
