"""First-order methods under test, instrumented with per-run traces.

Four methods share the container types here:

* run_gpm    fixed-step projected gradient (baseline, weak convergence)
* run_gprm   two-level regularized gradient projection
* run_cgm    conditional gradient with the analytic step rule (baseline)
* run_cgrm   two-level regularized conditional gradient

Each method validates its parameters and hands a step to one of two private
drivers, which own the start check, the stop rule, the counters, the records
and what a run holds in memory; their docstrings state each.  _single_loop
takes one step per iteration for the baselines gpm and cgm.  _two_level runs
the outer Tikhonov loop of gprm and cgrm: an inner Armijo loop on the
perturbed objective phi_eps_l runs until a displacement (gprm) or duality-gap
(cgrm) test signals that the level is solved to accuracy delta_l, then eps
shrinks.  A trace holds scalar records (one per level, or per step of a
baseline), the smallest accepted multiplier and the final point, its only
n-vector; run_gprm/run_cgrm show each inner iterate to an optional observe
callable, for certificate checks, and keep none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    Array,
    LineSearchFailure,
    OracleCounters,
    OracleFailure,
    Problem,
    RunawayInnerLoop,
    as_vector,
)
from .regularization import GeometricSchedule, PerturbedObjective

__all__ = [
    "DEFAULT_BETA",
    "DEFAULT_THETA",
    "MethodConstants",
    "StopPolicy",
    "OuterRecord",
    "SolverTrace",
    "gprm_constants",
    "cgrm_constants",
    "run_gpm",
    "run_gprm",
    "run_cgm",
    "run_cgrm",
]

DEFAULT_BETA = 0.5
DEFAULT_THETA = 0.5
# _two_level's elementwise passes above this many coordinates run by tiles
# of it: 256 KB per operand, so a pass's three operands stay in a 2 MB L2
_TILE = 1 << 15


@dataclass(frozen=True)
class MethodConstants:
    """Line-search parameters and the derived step lower bound gamma.

    gamma is a floor that the Armijo search proves for the accepted multipliers:
      gradient projection:    gamma = min{1, theta * 2(1-beta) / L'}
      conditional gradient:   gamma = min{1, theta * 2(1-beta)/(L' B^2), theta/(L'' B)}
    cgrm_constants derives its floor; gprm's follows the same way, since its
    <phi'(x), d> <= -||d||^2 and its first trial is the unit step.  Build
    instances through those two functions so the formula matches the method.
    Acceptance criterion 5 and the complexity bound's C2 read gamma.
    """

    beta: float
    theta: float
    gamma: float
    Lprime: float

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta: must lie in (0, 1)")
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta: must lie in (0, 1)")
        if not (np.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError("gamma: must be positive")
        if not (np.isfinite(self.Lprime) and self.Lprime > 0.0):
            raise ValueError("Lprime: must be positive")


def gprm_constants(
    lipschitz_L: float,
    epsilon0: float,
    beta: float = DEFAULT_BETA,
    theta: float = DEFAULT_THETA,
) -> MethodConstants:
    """Constants for the gradient-projection variant: L' = L + eps0.

    ValueError, with the texts of Objective and GeometricSchedule, the owners
    of the checks, unless lipschitz_L is finite and non-negative and epsilon0
    finite and positive, checked in that order: gprm_constants(-1.0, 0.5)
    raises "lipschitz_L must be finite and non-negative".
    """
    if not (math.isfinite(lipschitz_L) and lipschitz_L >= 0.0):
        raise ValueError("lipschitz_L must be finite and non-negative")
    GeometricSchedule(epsilon0)  # the owner's epsilon0 check
    Lprime = lipschitz_L + epsilon0
    gamma = min(1.0, theta * 2.0 * (1.0 - beta) / Lprime)
    return MethodConstants(beta=beta, theta=theta, gamma=gamma, Lprime=Lprime)


def cgrm_constants(
    problem: Problem,
    epsilon0: float,
    w0: Array,
    beta: float = DEFAULT_BETA,
    theta: float = DEFAULT_THETA,
) -> MethodConstants:
    """Constants for the conditional-gradient variant: L' = L + eps0.

    gamma = min{1, theta * 2(1-beta)/(L' B^2), theta/(L'' B)} is the floor the
    search proves.  A trial is x + theta^m mu d with d = y - x, <phi'(x), d> = -mu
    and ||d|| <= B, and phi_eps is L'-smooth, so:
    * every power with theta^m <= 2(1-beta)/(L' B^2) passes the Armijo test;
    * powers with theta^m mu > 1 are skipped: the first tried is 1 or in (theta/mu, 1/mu];
    * mu <= ||phi'(x)|| B <= L'' B, where L'' = ||f'(w0)|| + eps0 ||w0|| + L' B.
    Any feasible reference serves for L''; w0 keeps the constants deterministic.
    A non-finite or non-positive epsilon0 raises the ValueError of its owner, GeometricSchedule.
    """
    GeometricSchedule(epsilon0)  # the owner's epsilon0 check
    B = problem.feasible_set.diameter_B
    if B is None:
        raise ValueError("conditional-gradient constants need diameter_B")
    w0 = as_vector(w0)
    Lprime = problem.objective.lipschitz_L + epsilon0
    # sqrt(v . v) is np.linalg.norm's formula for a 1-d float vector
    g = problem.objective.gradient_fn(w0)
    gnorm = math.sqrt(g.dot(g))
    Ldoubleprime = gnorm + epsilon0 * math.sqrt(w0.dot(w0)) + Lprime * B
    gamma = min(
        1.0,
        theta * 2.0 * (1.0 - beta) / (Lprime * B * B),
        theta / (Ldoubleprime * B),
    )
    return MethodConstants(beta=beta, theta=theta, gamma=gamma, Lprime=Lprime)


@dataclass(frozen=True)
class StopPolicy:
    """When to halt loops that the underlying theory lets run forever."""

    epsilon_min: float = 1e-6
    max_outer: int = 60
    max_inner_per_l: int = 10**6
    max_linesearch_m: int = 60

    def __post_init__(self):
        if not self.epsilon_min > 0.0:
            raise ValueError("epsilon_min: must be positive")
        for name in ("max_outer", "max_inner_per_l", "max_linesearch_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive")
        if self.max_linesearch_m > 100_000:  # _two_level lists each theta^m, 32 bytes apiece
            raise ValueError("max_linesearch_m: must be at most 100000")


@dataclass
class OuterRecord:
    """One completed outer level (or one iteration of a baseline): the
    trace CSV's seven columns; delta_wl and dist_xstar describe its point w_l."""

    l: int
    epsilon_l: Optional[float]
    delta_l: Optional[float]
    N_l: int
    delta_wl: Optional[float] = None
    dist_xstar: Optional[float] = None
    cum_inner: int = 0


@dataclass
class SolverTrace:
    """Scalar records, counters and the one n-vector kept: final_point, the
    last record's w_l (the start if no level ran)."""

    outer_records: list[OuterRecord]
    counters: OracleCounters
    final_point: Array
    min_observed_lambda: float = math.inf


def _trial_point(x: Array, d: Array, t: float) -> Array:
    """x + t * d, new: x + d (1.0 * d + x bit for bit) at t = 1, else t * d
    plus x in place (x + t * d bit for bit, with one temporary fewer)."""
    if t == 1.0:
        return x + d
    x_new = t * d
    x_new += x
    return x_new


def _tiled_phi_prime(g: Array, x: Array, eps_0d: Array, d: Array, tiles: list) -> Array:
    """g + eps x into d by tiles, with the whole-array pass's ufuncs and bits."""
    for b in tiles:
        np.add(g[b], np.multiply(x[b], eps_0d, d[b]), d[b])
    return d


def _require_feasible(problem: Problem, x: Array) -> Array:
    """Private copy of the start x, so traces store it uncopied; ValueError unless
    x is a finite, nonempty vector of the set's dimension inside the set (tolerance 1e-10)."""
    x = as_vector(x).copy()
    if x.shape[0] == 0:
        raise ValueError("zero-length start: a run needs at least one coordinate")
    fs = problem.feasible_set
    if fs.dimension is not None and x.shape[0] != fs.dimension:
        raise ValueError("wrong dimension for the problem")
    if fs.membership_fn is not None and not fs.contains(x, 1e-10):
        raise ValueError("not feasible at tolerance 1e-10")
    return x


def _record(
    problem: Problem, l: int, eps: Optional[float], delta: Optional[float], N_l: int,
    x: Array, cum_inner: int,
) -> OuterRecord:
    """Record of x's value gap and distance to x*_n where known; x is not kept."""
    fstar, xstar = problem.known_fstar, problem.known_xstar_n
    r = None if xstar is None else x - xstar
    return OuterRecord(
        l, eps, delta, N_l,
        delta_wl=None if fstar is None else float(problem.objective.value_fn(x)) - fstar,
        dist_xstar=None if r is None else math.sqrt(r.dot(r)),
        cum_inner=cum_inner,
    )


def _same_bits(x_new: Array, x: Array) -> bool:
    """Whether two float64 vectors hold the same bytes.  Unequal first entries
    settle most calls without a pass over the vectors (a NaN first entry
    never matches); the int64 views then compare the rest without a copy and
    tell 0.0 from -0.0."""
    return x_new.item(0) == x.item(0) and bool((x_new.view(np.int64) == x.view(np.int64)).all())


def _oracle(problem: Problem, method: str, lmo: bool = False) -> Callable[[Array], Array]:
    """The set's projection, or with lmo its LMO; ValueError naming run_<method>
    if the set lacks it (an LMO also needs diameter_B)."""
    fs = problem.feasible_set
    fn = fs.lmo_fn if lmo else fs.project_fn
    if fn is None or (lmo and fs.diameter_B is None):
        need = "an LMO over a bounded set" if lmo else "a projection oracle"
        raise ValueError(f"run_{method} needs {need}")
    return fn


def _single_loop(
    problem: Problem, x0: Array, max_iter: int, oracle_counter: str,
    step: Callable[[Array], Optional[tuple[Array, float]]],
) -> SolverTrace:
    """Loop shared by run_gpm and run_cgm: x <- step(x), at most max_iter times.

    step(x) calls the gradient and the method's oracle once each and returns
    (x_new, lam_k), or None when x needs no step.  x_new depends on x alone,
    so a step that maps x to x bit for bit (_same_bits) would repeat those
    bytes forever.  The loop stops at None or at such a repeat, records no
    repeat and leaves its lam_k out of min_observed_lambda; each new point
    gets a record with no epsilon_l.  gradient_evals and the oracle_counter
    field count the calls made: steps + 1 when a run stops early, max_iter
    when it runs out.  Only x outlives a step: the gradient and the
    direction die inside it, so above the caller's x0 a run holds x and,
    while a step runs, its temporaries.
    """
    x = _require_feasible(problem, x0)
    records = [_record(problem, 0, None, None, 0, x, 0)]
    min_lam = math.inf
    evals = steps = 0
    while steps < max_iter:
        taken = step(x)
        evals += 1
        if taken is None or _same_bits(taken[0], x):
            break
        x, lam = taken
        steps += 1
        min_lam = min(min_lam, lam)
        records.append(_record(problem, steps, None, None, 1, x, steps))
    counters = OracleCounters(
        gradient_evals=evals, inner_iterations=steps, **{oracle_counter: evals}
    )
    return SolverTrace(records, counters, x, min_observed_lambda=min_lam)


def run_gpm(problem: Problem, lam: float, x0: Array, max_iter: int) -> SolverTrace:
    """Projected gradient with a fixed step, x <- P(x - lam * f'(x)).

    Requires 0 < lam < 2/L.  Converges in objective value but the iterates
    may stall at any minimizer, not the minimal-norm one; that failure mode
    is exactly what the regularized methods exist to fix.  The run stops at
    an exact fixed point (see _single_loop).
    """
    L = problem.objective.lipschitz_L
    if not (lam > 0.0 and lam * L < 2.0):
        raise ValueError("need 0 < lam < 2/L")
    project, grad = _oracle(problem, "gpm"), problem.objective.gradient_fn
    return _single_loop(problem, x0, max_iter, "projections",
                        lambda x: (project(x - lam * grad(x)), lam))


_Observer = Callable[[int, int, float, Array, Array, float], None]


def _two_level(
    problem: Problem,
    sched: GeometricSchedule,
    consts: MethodConstants,
    w0: Array,
    stop: Optional[StopPolicy],
    observe: Optional[_Observer],
    oracle_counter: str,
    step: Callable[[Array, Array], tuple],
    handoff: Callable[[Callable[[Array], float], Array, Array, Optional[float]], Array],
) -> SolverTrace:
    """Outer Tikhonov loop shared by run_gprm and run_cgrm.

    step(x, phi'(x)) calls the method's oracle once and returns
    (y, d, test, quad_coeff, cap, slope, dn2): the candidate y, the direction
    d, the value the handoff test compares with delta_l, the Armijo
    quad_coeff and unit-step cap, <phi'(x), d> and ||d||^2.  The Armijo
    search is the paper's scan: theta^m for m = 0 .. max_linesearch_m,
    skipping untested each power with t = theta^m cap > 1 and accepting the
    first with phi(x + t d) <= phi(x) - beta theta^m quad_coeff; a trial is
    a power tested.  Without a curvature_fn a trial evaluates phi at
    _trial_point(x, d, t), and a level's first search also takes phi(x),
    which must be finite.  With one, kappa = <d, f'' d> + eps_l dn2 raises
    OracleFailure if NaN or negative, LineSearchFailure if above L' dn2 (a
    true L keeps it (eps0 - eps_l) dn2 >= (1 - nu) eps0 dn2 below), and
    t slope + t^2 kappa / 2 is phi(x + t d) - phi(x), so a power costs a few
    float operations (gprm on illposed_box(10**6), m near 20: 210 powers in
    10 steps), and only the accepted point is built, with _trial_point's
    bytes.  Either way a step depends on x and the level alone, so after a
    null step the next one repeats its test and its point bit for bit and
    raises LineSearchFailure (RunawayInnerLoop if it passes max_inner_per_l).
    Every error the driver raises names its level.
    phi'(x) = f'(x) + eps_l x is written into the last d, dead once a search
    returns or a level hands off (eps_l x first, then f'(x) + that: the plain
    expression's operands in its order, so its bits); only a run's first step
    gets a new array.  Nothing else reads phi'(x), so step may overwrite it.
    Above _TILE coordinates this pass and the closed form's accepted point
    t d + x (t < 1) run by tiles whose product is read back from cache, with
    each element's ufuncs in the same order, so the same bits.  The dots stay
    whole: BLAS's blocking fixes their summation order, and so their bits.
    The driver never writes f'(x)'s own array, an x, a y, the start or a
    trial point.
    observe(l, k, eps_l, x, y, test), if given, sees the k-th iterate of
    level l before its test.
    Level l takes Armijo steps along d until test <= delta_l, then passes
    handoff(phi_eps_l, x, y, phi_x) to level l + 1 as its warm start, where
    phi_x is phi_eps_l(x) from the last evaluated search, or None.  A NaN
    test raises OracleFailure, and consts.Lprime < L + sched.epsilon0 raises
    ValueError.  gradient_evals and the OracleCounters field named by
    oracle_counter count one call per step and one more per level, for its
    last test.  Neither y (once the test is done) nor the level's start
    (once x moves) stays alive through the Armijo search or the level's
    record, nor the level's last x past a handoff.  So above the caller's
    w0 a run holds x and d between steps, and at its peak four n-vectors:
    x, d and two trial points in an evaluated search (the closed form builds
    no trial point, only the accepted one), or in a step x, phi'(x), y and
    the new d.  An unobserved cgrm step gets d from lmo(g, x) and makes no
    y, so its closed-form run peaks at three.
    """
    stop = stop if stop is not None else StopPolicy()
    if consts.Lprime < problem.objective.lipschitz_L + sched.epsilon0:
        raise ValueError("consts.Lprime is below L + epsilon0 of the objective and schedule")
    x = _require_feasible(problem, w0)
    grad, curvature = problem.objective.gradient_fn, problem.objective.curvature_fn
    beta, Lprime, powers = consts.beta, consts.Lprime, [1.0]
    for _ in range(stop.max_linesearch_m):
        powers.append(powers[-1] * consts.theta)
    max_m, max_inner = stop.max_linesearch_m, stop.max_inner_per_l

    # phi'(x)'s buffer for the first step; each later step reuses the last, dead d
    d = np.empty_like(x)
    tiles = [slice(s, s + _TILE) for s in range(0, x.size, _TILE)] if x.size > _TILE else None
    records: list[OuterRecord] = []
    min_lambda = math.inf
    trials_total = 0
    cum_inner = 0
    l = 1
    while True:
        eps, delta = sched.params(l)
        if eps < stop.epsilon_min or l > stop.max_outer:
            break
        phi = PerturbedObjective(problem.objective, eps).value
        eps_0d = np.array(eps)  # a 0-d operand skips converting the float at every step
        phi_x: Optional[float] = None
        last_test, N_l = math.nan, 0
        while True:
            # f'(x) + eps * x bit for bit: eps * x first, then f'(x) + that
            y, d, test, quad_coeff, cap, slope, dn2 = step(
                x, np.add(grad(x), np.multiply(x, eps_0d, d), d) if tiles is None
                else _tiled_phi_prime(grad(x), x, eps_0d, d, tiles))
            if observe is not None:
                observe(l, N_l, eps, x, y, test)
            if test <= delta:
                # x_new too, so the level's last x dies with the handoff
                x = x_new = handoff(phi, x, y, phi_x)
                del y
                break
            if not test > delta:
                raise OracleFailure(f"level {l}: handoff test is not finite; "
                                    "gradient or oracle returned NaN")
            del y
            if N_l >= max_inner:
                raise RunawayInnerLoop(f"level {l} exceeded {max_inner} inner iterations")
            if curvature is not None:
                kappa = curvature(d) + eps * dn2
                if not 0.0 <= kappa <= Lprime * dn2:
                    if not kappa >= 0.0:
                        raise OracleFailure(f"level {l}: curvature along d is {kappa!r}, not >= 0")
                    raise LineSearchFailure(f"level {l}: curvature along d is {kappa / dn2!r} ||d||^2, "
                                            f"above L' = {Lprime!r}; lipschitz_L is understated "
                                            "or curvature_fn overstates the curvature")
            elif phi_x is None:
                phi_x = phi(x)
                if not math.isfinite(phi_x):
                    raise OracleFailure(f"level {l}: objective value is not finite "
                                        "at the line-search start")
            for lam in powers:
                t = lam * cap
                if t > 1.0:
                    continue
                trials_total += 1
                if curvature is None:
                    x_new = _trial_point(x, d, t)
                    val = phi(x_new)
                    if val <= phi_x - beta * lam * quad_coeff:
                        phi_x = val
                        break
                elif t * slope + 0.5 * t * t * kappa <= -beta * lam * quad_coeff:
                    if t == 1.0:  # the accepted point alone, with _trial_point's bytes
                        x_new = x + d
                    elif tiles is None:
                        x_new = t * d
                        x_new += x
                    else:  # tiles indexed inline: a named view would keep its base alive
                        x_new = np.empty_like(x)
                        for b in tiles:
                            np.add(np.multiply(t, d[b], x_new[b]), x[b], x_new[b])
                    break
            else:
                raise LineSearchFailure(f"level {l}: no sufficient decrease within {max_m} "
                                        "backtracking steps; gradient or Lipschitz data is suspect")
            if test == last_test and np.array_equal(x_new, x):
                raise LineSearchFailure(f"level {l}: the accepted step at multiplier {lam!r} leaves "
                                        "x unchanged, so the search would repeat it; objective "
                                        "values are suspect")
            x, last_test = x_new, test
            if lam < min_lambda:
                min_lambda = lam
            N_l += 1
        cum_inner += N_l
        records.append(_record(problem, l, eps, delta, N_l, x, cum_inner))
        l += 1
    evals = cum_inner + len(records)
    counters = OracleCounters(
        gradient_evals=evals, linesearch_trials=trials_total, inner_iterations=cum_inner,
        **{oracle_counter: evals},
    )
    return SolverTrace(records, counters, x, min_observed_lambda=min_lambda)


def run_gprm(
    problem: Problem,
    sched: GeometricSchedule,
    consts: MethodConstants,
    w0: Array,
    stop: Optional[StopPolicy] = None,
    observe: Optional[_Observer] = None,
) -> SolverTrace:
    """Two-level regularized gradient projection.

    Outer level l solves min phi_eps_l over D approximately: the inner loop
    takes unit-step projected-gradient candidates y = P(x - phi'(x)) and
    Armijo-damped steps along d = y - x until ||x - y|| <= delta_l, then
    hands the better of x and y (ties to y) to the next level as its warm
    start.  With the geometric schedule the handoff points track the
    Tikhonov path and converge to the minimal-norm solution.

    Parameters
    ----------
    problem : Problem
        Needs a projection oracle.
    sched : GeometricSchedule
        Supplies (eps_l, delta_l); consts.Lprime must be at least
        L + sched.epsilon0, or ValueError is raised.
    consts : MethodConstants
        From gprm_constants.
    w0 : array
        Feasible start.
    stop : StopPolicy, optional
        Halts when eps_l < epsilon_min or l > max_outer.
    observe : callable, optional
        observe(l, k, eps_l, x, y, test) is called at every inner iterate x of
        level l (k = 0, 1, ...) with its candidate y and its handoff test
        value, here ||y - x||, before the test; for certificate checks.  x
        and y are the solver's own arrays and must not be modified; an
        observer that keeps them holds their memory.  The trace keeps none
        of them: it holds one n-vector, its final point.  Observing changes
        no arithmetic: an observed run has the same records, counters and
        final point.

    Each step writes x - phi'(x) into a new array and then d = y - x into
    that array, so the projection oracle must never return its argument.
    _two_level states what a run holds.
    """
    project = _oracle(problem, "gprm")

    def step(x: Array, g: Array) -> tuple:
        z = x - g  # g outlives the step's x - g for <phi'(x), d>
        y = project(z)
        d = np.subtract(y, x, z)
        dn2 = float(d.dot(d))
        return y, d, math.sqrt(dn2), dn2, 1.0, float(g.dot(d)), dn2

    def better(phi, x: Array, y: Array, phi_x: Optional[float]) -> Array:
        return y if phi(y) <= (phi(x) if phi_x is None else phi_x) else x

    return _two_level(problem, sched, consts, w0, stop, observe, "projections", step, better)


def run_cgm(problem: Problem, theta_k: float, x0: Array, max_iter: int) -> SolverTrace:
    """Conditional gradient with the analytic step lambda = min{1, theta_k beta_k}.

    beta_k = -<f'(x), d>/||d||^2 measures how far the unconstrained minimum
    along the vertex direction lies; theta_k must stay below 2/L for the C/k
    value rate.  The run stops at an exact fixed point (see _single_loop)
    and when the direction lmo(g, x) is zero, the LMO's vertex being x
    itself: x + lam * 0 would not repeat the bytes of a -0.0 entry of x.
    """
    L = problem.objective.lipschitz_L
    if not (theta_k > 0.0 and theta_k * L < 2.0):
        raise ValueError("need 0 < theta_k < 2/L")
    lmo, grad = _oracle(problem, "cgm", lmo=True), problem.objective.gradient_fn

    def step(x: Array) -> Optional[tuple]:
        g = grad(x)
        d = lmo(g, x)  # lmo(g) - x in one new array
        if not d.any():
            return None
        dn2 = float(d.dot(d))
        # a nonzero d whose ||d||^2 underflows to 0 has beta_k = +inf, so lam = 1
        beta_k = -float(g.dot(d)) / dn2 if dn2 > 0.0 else math.inf
        del g  # so the new point's temporaries take its place
        lam = min(1.0, theta_k * beta_k)
        return _trial_point(x, d, lam), lam

    return _single_loop(problem, x0, max_iter, "lmo_calls", step)


def run_cgrm(
    problem: Problem,
    sched: GeometricSchedule,
    consts: MethodConstants,
    w0: Array,
    stop: Optional[StopPolicy] = None,
    observe: Optional[_Observer] = None,
) -> SolverTrace:
    """Two-level regularized conditional gradient.

    Inner loop on level l: take the LMO vertex y for phi'_eps_l(x), form the
    duality gap mu = -<phi'(x), y - x>, and stop the level once mu <= delta_l
    (the gap upper-bounds the perturbed optimality gap, so this certifies
    level accuracy); otherwise move x + theta^m mu (y - x) with the Armijo
    power m, capped so the multiplier never exceeds 1 and iterates stay
    inside the set.  The handoff point is x itself, not the vertex.
    Parameters are those of run_gprm; observe's test value is the gap mu.
    """
    lmo = _oracle(problem, "cgrm", lmo=True)

    def step(x: Array, g: Array) -> tuple:
        if observe is None:  # the handoff ignores y, so only d = y - x is built
            y, d = None, lmo(g, x)
        else:  # observers see the vertex
            y = lmo(g)
            d = y - x
        mu = -float(g.dot(d))
        return y, d, mu, mu * mu, mu, -mu, float(d.dot(d))

    return _two_level(problem, sched, consts, w0, stop, observe, "lmo_calls", step,
                      lambda phi, x, y, phi_x: x)
