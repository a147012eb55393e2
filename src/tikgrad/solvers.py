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


def _armijo(
    phi_value: Callable[[Array], float],
    x: Array,
    d: Array,
    beta: float,
    powers: list[float],
    quad_coeff: float,
    cap: float,
    m0: int = 0,
    phi_at_x: Optional[float] = None,
) -> tuple[int, float, Array, float, int]:
    """Smallest m with phi(trial_m) <= phi(x) - beta * theta^m * quad_coeff.

    powers[m] is theta^m for m = 0 .. max_m.  quad_coeff is ||d||^2 for
    gradient-projection steps and mu^2 for conditional-gradient steps.  Trial
    point is x + theta^m * cap * d; powers with theta^m * cap > 1 are skipped
    unevaluated, and cap = 1.0 gives the plain trial x + theta^m * d.  A unit
    step t = theta^m * cap = 1 forms x + d, which is 1.0 * d + x bit for bit;
    any other t forms t * d and adds x in place.  phi_eps is convex along the
    ray and the demanded decrease is linear in the step, so the multipliers
    that pass form an interval [0, t_max]: the search tries
    the first power >= m0 with step <= 1, then larger m while the test fails
    or smaller m while it passes (m0 = 0 is the scan from the unit step).
    Whatever m0 is, the accepted power is that of the scan, so a caller that
    passes the last accepted power changes only the trial count: on
    illposed_box(10**6), where L' = 10**6 + 1 puts m near 20, gprm takes 39
    trials for 10 steps instead of 210.
    Returns (m, theta^m, accepted point, its phi value, number of trials).
    An accepted point equal to x raises LineSearchFailure naming the
    multiplier, since the caller would step from the same x again and again;
    it happens when phi is NaN wherever the search steps, or when d vanishes
    against x.
    """
    if phi_at_x is None:
        phi_at_x = phi_value(x)
        if not math.isfinite(phi_at_x):
            raise OracleFailure("objective value is not finite at the line-search start")
    max_m = len(powers) - 1
    while m0 <= max_m and powers[m0] * cap > 1.0:
        m0 += 1
    m, accepted, trials = m0, None, 0
    while 0 <= m <= max_m and powers[m] * cap <= 1.0:
        step = powers[m]
        t = step * cap
        if t == 1.0:  # 1.0 * d is d exactly, so x + d is the same trial
            x_new = x + d
        else:  # t * d + x is x + t * d bit for bit, with one temporary fewer
            x_new = t * d
            x_new += x
        val = phi_value(x_new)
        trials += 1
        if val <= phi_at_x - beta * step * quad_coeff:
            accepted = m, step, x_new, val
            if m > m0:  # m - 1 failed
                break
            m -= 1
        elif accepted is None:
            m += 1
        else:
            break
    if accepted is None:
        raise LineSearchFailure(
            f"no sufficient decrease within {max_m} backtracking steps; "
            "gradient or Lipschitz data is suspect"
        )
    m, step, x_new, val = accepted
    if val == phi_at_x and np.array_equal(x_new, x):
        raise LineSearchFailure(
            f"the accepted step at multiplier {step!r} leaves x unchanged, "
            "so the search would repeat it; objective values are suspect")
    return m, step, x_new, val, trials


def _require_feasible(problem: Problem, x: Array) -> Array:
    """Private copy of the start x, so traces store it uncopied; ValueError unless
    x is a finite vector of the set's dimension inside the set (tolerance 1e-10)."""
    x = as_vector(x).copy()
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
    when it runs out.  Only x outlives a step: the gradient and the LMO
    vertex die inside it, so above the caller's x0 a run holds x and, while
    a step runs, its temporaries.
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
    (y, d, test, quad_coeff, cap): the candidate y, the direction d, the
    value the handoff test compares with delta_l, and the Armijo quad_coeff
    and unit-step cap.  phi'(x) = f'(x) + eps_l x is written into the last
    d, which is dead once a search has returned or a level has handed off
    (eps_l x first, then f'(x) + that, the operands of the plain expression
    in its order, so the bits are the same); only a run's first step gets a
    new array.  Nothing else reads phi'(x), so step may overwrite it (gprm's
    step turns it into d).  The driver never writes f'(x)'s own array, an x,
    a y, the start or a trial point.  observe(l, k, eps_l,
    x, y, test), if given, sees the k-th iterate of level l before its test.
    Level l takes Armijo steps along d until test <= delta_l, then passes
    handoff(phi_eps_l, x, y, phi_x) to level l + 1 as its warm start, where
    phi_x is phi_eps_l(x) from the last step, or None if the level took none.
    Each search starts from the last accepted power, across levels too, since
    L' does not depend on the level.  A NaN test raises OracleFailure, and
    consts.Lprime < L + sched.epsilon0 raises ValueError.  gradient_evals and
    the OracleCounters field named by oracle_counter count one call per step
    and one more per level, for its last test.  Neither y (once the test is
    done) nor the level's start (once x moves) stays alive through the
    Armijo search or the level's record.  So above the caller's w0 a run
    holds x and d between steps, and at its peak four n-vectors: x, d and
    two trial points in a search, or in a cgrm step x, phi'(x), y and the new d.
    """
    stop = stop if stop is not None else StopPolicy()
    if consts.Lprime < problem.objective.lipschitz_L + sched.epsilon0:
        raise ValueError("consts.Lprime is below L + epsilon0 of the objective and schedule")
    x = _require_feasible(problem, w0)
    grad = problem.objective.gradient_fn
    beta, powers = consts.beta, [1.0]
    for _ in range(stop.max_linesearch_m):
        powers.append(powers[-1] * consts.theta)
    max_inner = stop.max_inner_per_l

    # phi'(x)'s buffer for the first step; each later step reuses the last, dead d
    d = np.empty_like(x)
    records: list[OuterRecord] = []
    min_lambda = math.inf
    trials_total = 0
    cum_inner = 0
    m = 0
    l = 1
    while True:
        eps, delta = sched.params(l)
        if eps < stop.epsilon_min or l > stop.max_outer:
            break
        phi = PerturbedObjective(problem.objective, eps).value
        eps_0d = np.array(eps)  # a 0-d operand skips converting the float at every step
        phi_x: Optional[float] = None
        N_l = 0
        while True:
            # f'(x) + eps * x bit for bit: eps * x first, then f'(x) + that
            y, d, test, quad_coeff, cap = step(x, np.add(grad(x), np.multiply(x, eps_0d, d), d))
            if observe is not None:
                observe(l, N_l, eps, x, y, test)
            if test <= delta:
                x = handoff(phi, x, y, phi_x)
                del y
                break
            if not test > delta:
                raise OracleFailure(f"level {l}: handoff test is not finite; "
                                    "gradient or oracle returned NaN")
            del y
            if N_l >= max_inner:
                raise RunawayInnerLoop(f"level {l} exceeded {max_inner} inner iterations")
            m, lam, x, phi_x, trials = _armijo(
                phi, x, d, beta, powers, quad_coeff, cap, m, phi_x
            )
            trials_total += trials
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

    Each step writes x - phi'(x) and then d = y - x into the phi'(x) array
    the driver hands it, so the projection oracle must never return its
    argument.  _two_level states what a run holds.
    """
    project = _oracle(problem, "gprm")

    def step(x: Array, g: Array) -> tuple:
        y = project(np.subtract(x, g, g))
        d = np.subtract(y, x, g)
        dn2 = float(d.dot(d))
        return y, d, math.sqrt(dn2), dn2, 1.0

    def better(phi, x: Array, y: Array, phi_x: Optional[float]) -> Array:
        return y if phi(y) <= (phi(x) if phi_x is None else phi_x) else x

    return _two_level(problem, sched, consts, w0, stop, observe, "projections", step, better)


def run_cgm(problem: Problem, theta_k: float, x0: Array, max_iter: int) -> SolverTrace:
    """Conditional gradient with the analytic step lambda = min{1, theta_k beta_k}.

    beta_k = -<f'(x), d>/||d||^2 measures how far the unconstrained minimum
    along the vertex direction lies; theta_k must stay below 2/L for the C/k
    value rate.  The run stops at an exact fixed point (see _single_loop)
    and when the LMO returns x itself: x + lam * 0 would not repeat the
    bytes of a -0.0 entry of x.
    """
    L = problem.objective.lipschitz_L
    if not (theta_k > 0.0 and theta_k * L < 2.0):
        raise ValueError("need 0 < theta_k < 2/L")
    lmo, grad = _oracle(problem, "cgm", lmo=True), problem.objective.gradient_fn

    def step(x: Array) -> Optional[tuple]:
        g = grad(x)
        d = lmo(g) - x
        if not d.any():
            return None
        dn2 = float(d.dot(d))
        # a nonzero d whose ||d||^2 underflows to 0 has beta_k = +inf, so lam = 1
        beta_k = -float(g.dot(d)) / dn2 if dn2 > 0.0 else math.inf
        del g  # so the new point's temporaries take its place
        lam = min(1.0, theta_k * beta_k)
        return x + lam * d, lam

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
        y = lmo(g)
        d = y - x
        mu = -float(g.dot(d))
        return y, d, mu, mu * mu, mu

    return _two_level(problem, sched, consts, w0, stop, observe, "lmo_calls", step,
                      lambda phi, x, y, phi_x: x)
