"""Tests for the four methods: baselines, two-level solvers, line search."""

import collections
import dataclasses
import gc
import hashlib
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from tikgrad import bench, solvers
from tikgrad.bench import (
    METHODS,
    ExperimentConfig,
    bundled_problem,
    default_start,
    make_illposed_box,
    make_illposed_simplex,
    make_rankdef_lsq,
    run_experiment,
    validate_experiment,
)
from tikgrad.core import (
    FeasibleSet,
    LineSearchFailure,
    Objective,
    OracleCounters,
    OracleFailure,
    Problem,
    RunawayInnerLoop,
)
from tikgrad.oracles import BoxSet, SimplexSet
from tikgrad.regularization import GeometricSchedule, PerturbedObjective
from tikgrad.solvers import (
    MethodConstants,
    StopPolicy,
    cgrm_constants,
    gprm_constants,
    run_cgm,
    run_cgrm,
    run_gpm,
    run_gprm,
)

from ball import BallSet
from path_helpers import tikhonov_path


def _brute_smallest_m(phi, x, d, beta, theta, quad_coeff, cap=None, max_m=30):
    """Literal scan over m = 0, 1, ...; the reference for _two_level's search."""
    for m in range(max_m + 1):
        step = theta ** m
        if cap is not None and step * cap > 1.0:
            continue
        t = step if cap is None else step * cap
        if phi.value(x + t * d) <= phi.value(x) - beta * step * quad_coeff:
            return m
    raise AssertionError("no admissible m found by brute force")


def _powers(theta, max_m=60):
    """theta^m for m = 0 .. max_m by repeated multiplication, as _two_level builds them."""
    powers = [1.0]
    for _ in range(max_m):
        powers.append(powers[-1] * theta)
    return powers


def _half_tsq(offset=0.0):
    """phi(t) = offset + 0.5 t^2 with no perturbation folded in."""
    obj = Objective(lambda x: offset + 0.5 * float(x @ x), lambda x: x.copy(), 1.0,
                    lambda d: float(d @ d))
    return PerturbedObjective(obj, 0.0)


def _no_phi(x):
    raise AssertionError("the closed-form search evaluated phi")


def _scripted_level(w0, steps, beta=0.5, theta=0.5, value=None, max_m=60):
    """One level of _two_level from w0 on scripted steps (d, test, quad_coeff,
    cap, slope, kappa), then a handoff of x: the search as the driver runs
    it, with no oracle behind it.  With no value, the objective has no value
    to call, and its curvature oracle returns the step's kappa, so the search
    is the closed form: dn2 = 2^-80 makes eps_1 dn2 = 2^-1080 round to 0, so
    kappa reaches the search unchanged, and L' = 2^81 (kappa + 1) passes the
    driver's L' check.  With a value, the search evaluates phi_eps_1 =
    value + 2^-1001 ||x||^2, whose second term is below value's rounding for
    the values used here.  Returns the trace and the phi_x the handoff got:
    the value the last evaluated search accepted, or None."""
    script = iter(steps + [(np.zeros_like(w0), 0.0, 0.0, 1.0, 0.0, 0.0)])
    kappas, handed = [], []

    def step(x, g):
        d, test, q, cap, slope, kappa = next(script)
        kappas.append(kappa)
        return x, d.copy(), test, q, cap, slope, 2.0**-80

    def handoff(phi, x, y, phi_x):
        handed.append(phi_x)
        return x

    objective = (Objective(_no_phi, np.zeros_like, 0.0, lambda d: kappas[-1]) if value is None
                 else Objective(value, np.zeros_like, 0.0))
    problem = Problem(objective, FeasibleSet(project_fn=np.copy))
    consts = MethodConstants(beta, theta, 1.0, 2.0**81 * (max(s[5] for s in steps) + 1.0))
    stop = StopPolicy(epsilon_min=2.0**-1000, max_outer=1, max_linesearch_m=max_m)
    trace = solvers._two_level(problem, GeometricSchedule(2.0**-999), consts, w0, stop, None,
                               "projections", step, handoff)
    return trace, handed[0]


def _one_step(x, d, beta, theta, q, cap, slope=0.0, kappa=0.0, value=None, max_m=60):
    """(m, theta^m, accepted point, trials, accepted phi value or None) of a
    level that takes the case's step alone."""
    scan, phi_x = _scripted_level(x, [(d, 1.0, q, cap, slope, kappa)], beta, theta, value, max_m)
    lam = scan.min_observed_lambda
    return _powers(theta).index(lam), lam, scan.final_point, scan.counters.linesearch_trials, phi_x


def _closed_search(x, d, beta, theta, q, cap, slope, kappa, max_m=60):
    """(m, theta^m, accepted point, trials) of the search _two_level decides
    from slope and kappa, read from a level that takes the case's step alone."""
    return _one_step(x, d, beta, theta, q, cap, slope, kappa, max_m=max_m)[:4]


def _both_searches(phi, x, d, beta, theta, q, cap, max_m=60):
    """The search evaluated on phi.value and the one decided from phi's slope
    and curvature along d, each as (m, theta^m, accepted point, trials)."""
    eps = phi.epsilon
    slope = float((phi.base.gradient_fn(x) + eps * x) @ d)
    kappa = phi.base.curvature_fn(d) + eps * float(d @ d)
    return (_one_step(x, d, beta, theta, q, cap, value=phi.value, max_m=max_m)[:4],
            _closed_search(x, d, beta, theta, q, cap, slope, kappa, max_m))


# ---------------------------------------------------------------------------
# line search


def test_armijo_accepts_unit_step():
    phi = _half_tsq()
    x, d = np.array([1.0]), np.array([-1.0])
    for _, lam, _, trials in _both_searches(phi, x, d, 0.5, 0.5, 1.0, 1.0):
        assert (lam, trials) == (1.0, 1)
    assert _brute_smallest_m(phi, x, d, 0.5, 0.5, 1.0) == 0


def test_armijo_backtracks_under_strict_decrease_demand():
    phi = _half_tsq()
    x, d = np.array([1.0]), np.array([-1.0])
    for m, lam, _, trials in _both_searches(phi, x, d, 0.9, 0.5, 1.0, 1.0):
        assert m == _brute_smallest_m(phi, x, d, 0.9, 0.5, 1.0) == 3
        assert (lam, trials) == (0.125, 4)


def test_armijo_cap_skips_overlong_steps_unevaluated():
    """With cap mu=3, m=0 would pass the decrease test if it were evaluated
    (the trial point is the origin), so m=2 proves the cap filters first;
    the evaluated search calls phi at x and at that one trial only."""
    calls = []
    obj = Objective(lambda x: calls.append(1) or 0.5 * float(x @ x), lambda x: x.copy(), 1.0,
                    lambda d: float(d @ d))
    phi = PerturbedObjective(obj, 0.0)
    x, d, mu = np.array([3.0, 0.0]), np.array([-1.0, 0.0]), 3.0
    assert phi.value(x + 1.0 * mu * d) <= phi.value(x) - 0.5 * 1.0 * mu * mu
    calls.clear()
    for _, lam, _, trials in _both_searches(phi, x, d, 0.5, 0.5, mu * mu, mu):
        assert (lam, trials) == (0.25, 1)
    assert len(calls) == 2
    assert _brute_smallest_m(phi, x, d, 0.5, 0.5, mu * mu, cap=mu) == 2


def _quadratic(a, eps, x):
    """phi = 0.5 x.a.x + 0.5 eps ||x||^2 for a symmetric positive definite a,
    and d = -phi'(x)."""
    obj = Objective(lambda x: 0.5 * float(x @ a @ x), lambda x: a @ x,
                    float(np.linalg.eigvalsh(a)[-1]), lambda d: float(d @ a @ d))
    return PerturbedObjective(obj, eps), x, -(obj.gradient_fn(x) + eps * x)


@st.composite
def _quadratic_search(draw):
    """A strictly convex quadratic phi, a start x, d = -phi'(x), Armijo
    parameters and a unit-step cap on either side of 1."""
    n = draw(st.integers(1, 4))
    entries = arrays(np.float64, (n, n), elements=st.floats(-2.0, 2.0))
    m_ = draw(entries)
    a = m_.T @ m_ + 0.1 * np.eye(n)
    eps = draw(st.floats(0.0, 1.0))
    x = draw(arrays(np.float64, n, elements=st.floats(-3.0, 3.0)))
    cap = draw(st.sampled_from([1.0, 0.25, 4.0]) | st.floats(0.05, 20.0))
    return (*_quadratic(a, eps, x), draw(st.floats(0.1, 0.9)), draw(st.floats(0.2, 0.8)), cap)


@given(_quadratic_search())
# m = 0 ties the Armijo bound exactly (0 <= 0.5 - 0.5), so a strict test would give m = 1
@example((_half_tsq(), np.array([1.0]), np.array([-1.0]), 0.5, 0.5, 1.0))
# a near-tie: phi's constant 2^53 rounds away every decrease below 1, so the
# evaluated search accepts m = 1, whose margin is 0.075; the closed form gives m = 3
@example((_half_tsq(2.0**53), np.array([1.0]), np.array([-1.0]), 0.9, 0.5, 1.0))
# rounding noise from power 25 on: the trial rounds back to x, which fails the
# test at 25 and passes it on phi(x) alone after; the scan accepts m = 0 ...
@example((*_quadratic(np.array([[0.1]]), 0.0, np.array([0.265625])), 0.5, 0.25, 1.0))
# ... and here, where from power 27 on the trial moves but keeps phi(x), m = 1
@example((*_quadratic(np.array([[1.1, 1.0], [1.0, 1.1]]), 0.0, np.array([3.0, 0.0])),
          0.5, 0.25, 1.0))
def test_armijo_matches_brute_force_on_random_quadratics(case):
    """The evaluated search accepts the smallest admissible m of the literal
    reference and hands off the value at its point, and each search tests
    m - f + 1 powers, where f is the first power with theta^f * cap <= 1.
    Decided from slope and kappa, the search calls no phi.  Where it accepts
    the evaluated search's m, it returns that search's (lambda, point bytes,
    trials); at the smaller of two different m, and at each power the
    searches test where the two tests disagree, the margin is below the
    evaluated test's rounding."""
    phi, x, d, beta, theta, cap = case
    q = cap * float(d @ d)
    assume(q > 0.0)
    powers = _powers(theta)
    m, lam, point, trials, value = _one_step(x, d, beta, theta, q, cap, value=phi.value)
    assert m == _brute_smallest_m(phi, x, d, beta, theta, q, cap=cap, max_m=60)
    assert lam == pytest.approx(theta ** m, rel=1e-12)
    assert value == phi.value(point)
    first = next(k for k in range(61) if powers[k] * cap <= 1.0)
    assert trials == m - first + 1
    eps = phi.epsilon
    slope = float((phi.base.gradient_fn(x) + eps * x) @ d)
    kappa = phi.base.curvature_fn(d) + eps * float(d @ d)
    cm, clam, cpoint, ctrials = _closed_search(x, d, beta, theta, q, cap, slope, kappa)
    assert ctrials == cm - first + 1
    if cm == m:
        assert (clam, cpoint.tobytes(), ctrials) == (lam, point.tobytes(), trials)
    phi_x = phi.value(x)
    for k in range(first, min(max(m, cm) + 2, 61)):
        t = powers[k] * cap
        trial = solvers._trial_point(x, d, t)
        closed = t * slope + 0.5 * t * t * kappa <= -beta * powers[k] * q
        agree = closed == (phi.value(trial) <= phi_x - beta * powers[k] * q)
        if agree and not k == min(cm, m) < max(cm, m):
            continue
        g = phi.base.gradient_fn(trial) + eps * trial
        margin = abs(t * slope + 0.5 * t * t * kappa + beta * powers[k] * q)
        rounding = 8 * (math.ulp(phi_x) + math.ulp(phi.value(trial)))
        assert margin <= rounding + 2.0**-50 * math.sqrt(g @ g) * math.sqrt(trial @ trial)


_TRIAL_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf]), st.floats(allow_nan=False, width=64))


@st.composite
def _trial_case(draw):
    n = draw(st.integers(1, 5))
    x = draw(arrays(np.float64, n, elements=_TRIAL_ENTRIES))
    d = draw(arrays(np.float64, n, elements=_TRIAL_ENTRIES))
    cap = draw(st.sampled_from([1.0, 0.5, 3.0]) | st.floats(1e-3, 1e3))
    return x, d, cap


@settings(max_examples=60)
@given(_trial_case())
# t = 0.25 * 3 at m = 2: t * d is finite, but a trial formed as 0.25 * (3 * d) is inf
@example((np.array([0.0]), np.array([1e308]), 3.0))
# a unit step whose x + d overflows to inf in every form
@example((np.array([2.0**1023]), np.array([2.0**1023]), 1.0))
def test_armijo_trial_point_bits(case):
    """At the first power the scan tests, the first with step t = theta^m *
    cap <= 1, a unit step returns the bytes of x + d, which are those of
    1.0 * d + x; any other step t returns the bytes of t * d + x.  Entries
    are NaN-free: x + d and d + x may keep different NaN payloads.  inf - inf
    and overflow give the same NaN or inf in every form.  _trial_point is
    called directly: phi(x) at an infinite x fails _two_level's finite-value
    check at the line-search start."""
    x, d, cap = case
    powers = _powers(0.5)
    m = next(k for k, p in enumerate(powers) if p * cap <= 1.0)
    t = powers[m] * cap
    with np.errstate(over="ignore", invalid="ignore"):
        point = solvers._trial_point(x, d, t)
        want = t * d
        want += x
        unit = x + d
    assert point.tobytes() == want.tobytes()
    if t == 1.0:
        assert point.tobytes() == unit.tobytes()


def test_armijo_raises_line_search_failure():
    """With theta^0 and theta^1 failing, both searches raise the same error."""
    x, d = np.array([1.0]), np.array([-1.0])
    for search in (lambda: _one_step(x, d, 0.9, 0.5, 1.0, 1.0, value=_half_tsq().value, max_m=1),
                   lambda: _closed_search(x, d, 0.9, 0.5, 1.0, 1.0, -1.0, 1.0, max_m=1)):
        with pytest.raises(LineSearchFailure, match="^level 1: no sufficient decrease within 1 "):
            search()


# ---------------------------------------------------------------------------
# constants


def test_gprm_constants_formula():
    c = gprm_constants(2.0, 1.0, beta=0.5, theta=0.5)
    assert c.Lprime == 3.0
    assert_allclose(c.gamma, min(1.0, 0.5 * 2.0 * 0.5 / 3.0), rtol=1e-15)


def test_cgrm_constants_formula():
    gp = bundled_problem("illposed_simplex(3)")
    w0 = np.array([1.0, 0.0, 0.0])
    c = cgrm_constants(gp.problem, 1.0, w0, beta=0.5, theta=0.5)
    B = math.sqrt(2.0)
    Lprime = 2.0 + 1.0
    gnorm = math.sqrt(2.0)  # gradient at e1 is (1, -1, 0)
    Ldp = gnorm + 1.0 * 1.0 + Lprime * B
    assert c.Lprime == Lprime
    assert_allclose(
        c.gamma, min(1.0, 0.5 * 2.0 * 0.5 / (Lprime * B * B), 0.5 / (Ldp * B)), rtol=1e-12
    )


def _value_error(build):
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


def test_constants_reject_bad_L_and_epsilon0_with_the_owners_texts():
    """A bad L or epsilon0 raises the ValueError of the type that owns it,
    Objective or GeometricSchedule, before L' = L + epsilon0 can divide by
    zero or turn up as a bad gamma; L comes first, then epsilon0, then beta."""
    def owner_L(v):
        return _value_error(lambda: Objective(lambda x: 0.0, lambda x: x, v))

    def owner_eps0(v):
        return _value_error(lambda: GeometricSchedule(epsilon0=v))

    p, w0 = bundled_problem("illposed_box(2)").problem, np.array([1.0, 0.0])
    for v in (-1.0, math.nan, math.inf):
        assert _value_error(lambda: gprm_constants(v, 0.5)) == owner_L(v)
    for v in (-1.0, -2.0, 0.0, math.nan, math.inf):
        assert _value_error(lambda: gprm_constants(1.0, v)) == owner_eps0(v)
        assert _value_error(lambda: cgrm_constants(p, v, w0)) == owner_eps0(v)
    assert _value_error(lambda: gprm_constants(-1.0, -1.0, beta=2.0)) == owner_L(-1.0)
    assert _value_error(lambda: gprm_constants(1.0, -1.0, beta=2.0)) == owner_eps0(-1.0)
    assert gprm_constants(0.0, 0.5).Lprime == 0.5  # Objective allows L = 0


def test_method_constants_validation():
    for kw in (
        dict(beta=0.0), dict(beta=1.0), dict(theta=0.0), dict(theta=1.0),
        dict(gamma=0.0), dict(Lprime=0.0),
    ):
        args = dict(beta=0.5, theta=0.5, gamma=0.1, Lprime=1.0)
        args.update(kw)
        with pytest.raises(ValueError):
            MethodConstants(**args)


def test_stop_policy_validation():
    for kw in (
        dict(epsilon_min=0.0), dict(epsilon_min=math.nan), dict(max_outer=0),
        dict(max_inner_per_l=0), dict(max_linesearch_m=0), dict(max_linesearch_m=100_001),
    ):
        with pytest.raises(ValueError):
            StopPolicy(**kw)


# ---------------------------------------------------------------------------
# baselines


@pytest.fixture(scope="module")
def halfnorm_box():
    """min 0.5 ||x||^2 over the box [1,2]^2; unique optimum (1,1)."""
    obj = Objective(lambda x: 0.5 * float(x @ x), lambda x: x.copy(), 1.0)
    fs = BoxSet(np.ones(2), np.full(2, 2.0)).to_feasible_set()
    return Problem(obj, fs)


def test_gpm_one_step_to_optimum(halfnorm_box):
    # (1,1) is the projection of the unconstrained minimizer: a fixed point
    assert_allclose(
        BoxSet(np.ones(2), np.full(2, 2.0)).project(np.zeros(2)), [1.0, 1.0]
    )
    for max_iter in (1, 2, 3):
        trace = run_gpm(halfnorm_box, 0.5, np.array([2.0, 2.0]), max_iter)
        assert trace.final_point.tolist() == [1.0, 1.0]
        assert trace.min_observed_lambda == 0.5
        # the second step maps (1, 1) to itself bit for bit: the run stops
        # there, unrecorded, and counts the gradient and projection it made
        assert [r.cum_inner for r in trace.outer_records] == [0, 1]
        assert trace.counters.inner_iterations == 1
        assert trace.counters.gradient_evals == trace.counters.projections == min(max_iter, 2)


def test_gpm_stalls_at_stationary_start():
    """A zero-gradient start never moves: value converges, iterates need not
    approach the minimal-norm solution.  The first step maps the start to
    itself, so the trace is the start's record alone."""
    gp = bundled_problem("illposed_box(2)")
    x0 = np.array([1.0, 0.0])
    trace = run_gpm(gp.problem, 0.5, x0, 50)
    assert trace.final_point.tobytes() == x0.tobytes()
    [rec] = trace.outer_records
    assert rec.delta_wl == 0.0
    assert rec.dist_xstar == pytest.approx(math.sqrt(0.5))
    assert trace.counters == OracleCounters(gradient_evals=1, projections=1)
    assert trace.min_observed_lambda == math.inf


def _gpm_steps(problem, lam, x, n):
    """n plain fixed steps of projected gradient, with no stop rule."""
    project, grad = problem.feasible_set.project_fn, problem.objective.gradient_fn
    points = [x]
    for _ in range(n):
        points.append(project(points[-1] - lam * grad(points[-1])))
    return points


def _cgm_steps(problem, theta_k, x, n):
    """n plain conditional-gradient steps with the analytic rule, with no stop rule."""
    lmo, grad = problem.feasible_set.lmo_fn, problem.objective.gradient_fn
    points = [x]
    for _ in range(n):
        x = points[-1]
        g = grad(x)
        d = lmo(g) - x
        dn2 = float(d.dot(d))
        lam = min(1.0, theta_k * (-float(g.dot(d)) / dn2 if dn2 > 0.0 else math.inf))
        points.append(x + lam * d)
    return points


@pytest.mark.parametrize(
    "run, steps, label, x0, stop_at",
    [
        (run_gpm, _gpm_steps, "wellposed_box(2)", (0.0, 0.0), 124),
        (run_cgm, _cgm_steps, "wellposed_simplex(3)", (1.0, 0.0, 0.0), 56),
    ],
    ids=["gpm", "cgm"],
)
def test_baselines_stop_at_the_first_bitwise_repeat(run, steps, label, x0, stop_at):
    """The run stops at the first step whose new point holds the current
    point's bytes, since each step depends only on x; for any max_iter
    beyond that step the trace is the same, and up to it nothing changes."""
    gp = bundled_problem(label)
    step = 1.0 / gp.problem.objective.lipschitz_L
    points = [p.tobytes() for p in steps(gp.problem, step, np.array(x0), stop_at + 3)]
    assert [points[k + 1] == points[k] for k in range(stop_at + 1)] == [False] * stop_at + [True]
    stopped = [run(gp.problem, step, np.array(x0), n) for n in (stop_at + 1, stop_at + 7, 10**4)]
    for trace in stopped:
        assert [vars(r) for r in trace.outer_records] == [vars(r) for r in stopped[0].outer_records]
        assert trace.final_point.tobytes() == points[stop_at]
        assert trace.min_observed_lambda == stopped[0].min_observed_lambda
        assert trace.counters == stopped[0].counters
    assert len(stopped[0].outer_records) == stop_at + 1
    # one gradient and oracle call beyond the steps taken: the one that found the repeat
    assert stopped[0].counters.gradient_evals == stop_at + 1
    assert stopped[0].counters.inner_iterations == stop_at
    # max_iter = stop_at ends at the same point without the repeat's evaluation
    full = run(gp.problem, step, np.array(x0), stop_at)
    assert [vars(r) for r in full.outer_records] == [vars(r) for r in stopped[0].outer_records]
    assert full.counters.gradient_evals == full.counters.inner_iterations == stop_at


def test_gpm_validation(halfnorm_box):
    for lam in (2.0, 0.0, -0.5):
        with pytest.raises(ValueError):
            run_gpm(halfnorm_box, lam, np.array([1.5, 1.5]), 5)
    with pytest.raises(ValueError):
        run_gpm(halfnorm_box, 0.5, np.array([5.0, 5.0]), 5)


@pytest.fixture(scope="module")
def shifted_simplex():
    """min 0.5 ||x - (2,0,0)||^2 over the unit simplex; optimum (1,0,0)."""
    c = np.array([2.0, 0.0, 0.0])
    obj = Objective(
        lambda x: 0.5 * float((x - c) @ (x - c)), lambda x: x - c, 1.0
    )
    return Problem(
        obj,
        SimplexSet(3).to_feasible_set(),
        known_fstar=0.5,
        known_xstar_n=np.array([1.0, 0.0, 0.0]),
    )


def test_cgm_one_step_to_vertex(shifted_simplex):
    x0 = np.full(3, 1.0 / 3.0)
    trace = run_cgm(shifted_simplex, 0.9, x0, 50)
    assert_allclose(trace.final_point, [1.0, 0.0, 0.0], rtol=0, atol=1e-15)
    assert trace.outer_records[1].dist_xstar <= 1e-15
    # independent check: the optimum is the projection of the shifted center
    assert_allclose(
        SimplexSet(3).project(np.array([2.0, 0.0, 0.0])), [1.0, 0.0, 0.0]
    )
    assert trace.min_observed_lambda == 1.0
    # next LMO reproduces the iterate, so the run stops after one move
    assert len(trace.outer_records) == 2


def test_cgm_stops_when_lmo_reproduces_iterate(shifted_simplex):
    x0 = np.array([1.0, 0.0, 0.0])
    trace = run_cgm(shifted_simplex, 0.9, x0, 50)
    assert len(trace.outer_records) == 1
    assert_allclose(trace.final_point, x0, rtol=0, atol=0)


def test_cgm_steps_to_the_vertex_when_the_squared_direction_underflows():
    """From (1e-300, 0) the LMO vertex of f = 0.5 ||x + (1, 1)||^2 on [0, 1]^2
    is the origin, and d = (-1e-300, 0) is nonzero while ||d||^2 underflows to
    0.  beta_k is then +inf, so lam = 1 lands on the vertex, where the next
    LMO call reproduces the iterate and the run stops."""
    c = np.array([-1.0, -1.0])
    obj = Objective(lambda x: 0.5 * float((x - c) @ (x - c)), lambda x: x - c, 1.0)
    p = Problem(obj, BoxSet([0.0, 0.0], [1.0, 1.0]).to_feasible_set())
    trace = run_cgm(p, 0.5, np.array([1e-300, 0.0]), 10)
    assert trace.final_point.tolist() == [0.0, 0.0]
    assert trace.min_observed_lambda == 1.0
    assert trace.counters.inner_iterations == 1
    assert len(trace.outer_records) == 2


def test_cgm_validation(shifted_simplex):
    for theta_k in (2.5, 0.0, -1.0):
        with pytest.raises(ValueError):
            run_cgm(shifted_simplex, theta_k, np.full(3, 1.0 / 3.0), 5)
    project_only = FeasibleSet(project_fn=SimplexSet(3).project, dimension=3)
    prob = Problem(shifted_simplex.objective, project_only)
    with pytest.raises(ValueError):
        run_cgm(prob, 0.9, np.full(3, 1.0 / 3.0), 5)


# ---------------------------------------------------------------------------
# two-level methods: canonical full-instrumentation runs


SCHED = GeometricSchedule(1.0, 0.5, 0.5)
STOP = StopPolicy(epsilon_min=1e-4)

# what an observer of run_gprm/run_cgrm sees at one inner iterate
Seen = collections.namedtuple("Seen", "level k epsilon x y test")


def _observer():
    """An observe callable that keeps every iterate, and the list it fills."""
    seen = []
    return lambda *args: seen.append(Seen(*args)), seen


@pytest.fixture(scope="module")
def gprm_run():
    gp = bundled_problem("illposed_box(2)")
    consts = gprm_constants(gp.problem.objective.lipschitz_L, SCHED.epsilon0)
    observe, seen = _observer()
    trace = run_gprm(gp.problem, SCHED, consts, np.array([1.0, 0.0]), stop=STOP,
                     observe=observe)
    return gp, consts, trace, seen


@pytest.fixture(scope="module")
def cgrm_run():
    gp = bundled_problem("illposed_simplex(3)")
    w0 = np.array([1.0, 0.0, 0.0])
    consts = cgrm_constants(gp.problem, SCHED.epsilon0, w0)
    observe, seen = _observer()
    trace = run_cgrm(gp.problem, SCHED, consts, w0, stop=STOP, observe=observe)
    return gp, consts, trace, seen


# Python calls per inner iteration: the gradient, the step, the oracle (with
# what each calls on that set) and the curvature oracle
_CALL_BUDGET = {"illposed_box(2)": 5, "illposed_simplex(3)": 4}


@pytest.mark.parametrize(
    "label, method, w0",
    [
        ("illposed_box(2)", "gprm", (1.0, 0.0)),
        ("illposed_simplex(3)", "cgrm", (1.0, 0.0, 0.0)),
        ("illposed_box(2)", "cgrm", (1.0, 0.0)),
        ("illposed_simplex(3)", "gprm", (1.0, 0.0, 0.0)),
    ],
)
def test_two_level_inner_loop_avoids_numpy_dispatch_wrappers(monkeypatch, label, method, w0):
    """At small n each call of np.sum, np.clip, np.argmin, np.sort, np.cumsum,
    np.nonzero or np.linalg.norm costs microseconds of Python-level dispatch over
    the ndarray method it wraps, so the inner loop (objective, oracle, driver)
    must call none of them.  ndarray.sum itself runs the Python function _sum of
    numpy/_core/_methods.py, which np.add.reduce skips, so a profile hook counts
    Python calls into that file: monkeypatching cannot see them, because C code
    holds its own reference to _sum.  _clip, which ndarray.clip runs the same
    way, stays allowed: the box projection needs it, and np.minimum(np.maximum(...))
    was measured no faster.  Each Python frame costs about as much again, so the
    hook also counts every Python call: at most _CALL_BUDGET per inner
    iteration, plus 25 per level for its last test, handoff and record.  The
    search is decided inside _two_level, which does not call _trial_point."""
    gp = bundled_problem(label)
    w0 = np.array(w0)
    if method == "gprm":
        run, consts = run_gprm, gprm_constants(gp.problem.objective.lipschitz_L, SCHED.epsilon0)
    else:
        run, consts = run_cgrm, cgrm_constants(gp.problem, SCHED.epsilon0, w0)
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("sum", "clip", "argmin", "sort", "cumsum", "nonzero"):
        monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
    monkeypatch.setattr(np.linalg, "norm", counting("linalg.norm", np.linalg.norm))
    methods_file = os.path.join("numpy", "_core", "_methods.py")

    frames = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            frames[frame.f_code.co_name] += 1
            if frame.f_code.co_filename.endswith(methods_file):
                calls["_methods." + frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        trace = run(gp.problem, SCHED, consts, w0, stop=STOP)
    finally:
        sys.setprofile(None)
        monkeypatch.undo()
    assert trace.counters.inner_iterations > 5000
    calls.pop("_methods._clip", None)
    assert dict(calls) == {}
    assert frames["_trial_point"] == 0
    levels = len(trace.outer_records)
    budget = _CALL_BUDGET[label] * trace.counters.inner_iterations + 25 * (levels + 1)
    assert frames.total() <= budget


def _run_on_simplex(method, x0, observe=None):
    """A short run of method on illposed_simplex(3) from x0; observe goes to
    the two-level methods."""
    gp = bundled_problem("illposed_simplex(3)")
    p, stop = gp.problem, StopPolicy(epsilon_min=1e-2)
    if method == "gpm":
        return run_gpm(p, 0.5, x0, 20)
    if method == "cgm":
        return run_cgm(p, 0.5, x0, 20)
    if method == "gprm":
        consts = gprm_constants(p.objective.lipschitz_L, SCHED.epsilon0)
        return run_gprm(p, SCHED, consts, x0, stop, observe)
    consts = cgrm_constants(p, SCHED.epsilon0, np.array([1.0, 0.0, 0.0]))
    return run_cgrm(p, SCHED, consts, x0, stop, observe)


@pytest.mark.parametrize("method", METHODS)
def test_wrong_length_start_raises(method):
    # sums to 1 with no negative entry, so only the dimension check can reject it
    with pytest.raises(ValueError, match="wrong dimension"):
        _run_on_simplex(method, np.full(4, 0.25))


@pytest.mark.parametrize("method", METHODS)
def test_a_zero_length_start_is_refused(method):
    """A set with no dimension and no membership oracle checks neither the
    start's length nor its place, so the driver itself refuses R^0."""
    fs = FeasibleSet(project_fn=np.copy, lmo_fn=lambda g, x: 0.0 - x, diameter_B=1.0)
    problem, x0 = Problem(Objective(lambda x: 0.0, np.zeros_like, 1.0), fs), np.zeros(0)
    consts = MethodConstants(0.5, 0.5, 0.5, 2.0)
    runs = {
        "gpm": lambda: run_gpm(problem, 0.5, x0, 5),
        "cgm": lambda: run_cgm(problem, 0.5, x0, 5),
        "gprm": lambda: run_gprm(problem, SCHED, consts, x0),
        "cgrm": lambda: run_cgrm(problem, SCHED, consts, x0),
    }
    with pytest.raises(ValueError, match="^zero-length start"):
        runs[method]()


@pytest.mark.parametrize("method", METHODS)
def test_trace_does_not_alias_the_callers_start(method):
    x0 = np.array([1.0, 0.0, 0.0])
    observe, seen = _observer()
    trace = _run_on_simplex(method, x0, observe)
    # the observed iterates too, for the two-level methods
    stored = [trace.final_point] + [v for s in seen for v in (s.x, s.y)]
    before = [v.tobytes() for v in stored]
    x0[:] = np.nan
    assert [v.tobytes() for v in stored] == before


def test_two_level_handoff_point_is_the_last_sample_itself(gprm_run, cgrm_run):
    for _, _, trace, seen in (gprm_run, cgrm_run):
        last = {s.level: s for s in seen}
        assert len(last) == len(trace.outer_records)
        final = last[trace.outer_records[-1].l]
        assert trace.final_point is final.x or trace.final_point is final.y


def test_gprm_converges_to_minimal_norm_solution(gprm_run):
    gp, _, trace, _ = gprm_run
    assert trace.outer_records[-1].dist_xstar < 5e-2


def test_cgrm_converges_to_minimal_norm_solution(cgrm_run):
    gp, _, trace, _ = cgrm_run
    assert trace.outer_records[-1].dist_xstar < 5e-2


def test_gprm_zero_objective_returns_minimal_norm_corner(box12_zero):
    consts = gprm_constants(box12_zero.objective.lipschitz_L, SCHED.epsilon0)
    trace = run_gprm(box12_zero, SCHED, consts, np.array([2.0, 2.0]), stop=STOP)
    assert_allclose(trace.final_point, [1.0, 1.0], rtol=0, atol=1e-9)


def test_cgrm_zero_objective_returns_barycenter():
    obj = Objective(lambda x: 0.0, lambda x: np.zeros_like(x), 1.0)
    prob = Problem(obj, SimplexSet(3).to_feasible_set(), known_fstar=0.0,
                   known_xstar_n=np.full(3, 1.0 / 3.0))
    w0 = np.array([1.0, 0.0, 0.0])
    consts = cgrm_constants(prob, SCHED.epsilon0, w0)
    trace = run_cgrm(prob, SCHED, consts, w0, stop=STOP)
    assert trace.outer_records[-1].dist_xstar < 5e-2


def test_two_level_outer_levels_and_counters(gprm_run, cgrm_run):
    for _, _, trace, _ in (gprm_run, cgrm_run):
        assert [r.l for r in trace.outer_records] == list(
            range(1, len(trace.outer_records) + 1)
        )
        for rec in trace.outer_records:
            assert 0 <= rec.N_l < STOP.max_inner_per_l
        assert sum(r.N_l for r in trace.outer_records) == trace.counters.inner_iterations
        cums = [r.cum_inner for r in trace.outer_records]
        assert cums == list(np.cumsum([r.N_l for r in trace.outer_records]))
        # schedule wiring: the recorded weights follow the geometric rule
        for rec in trace.outer_records:
            eps, delta = SCHED.params(rec.l)
            assert rec.epsilon_l == eps and rec.delta_l == delta


def test_two_level_step_lower_bound(gprm_run, cgrm_run):
    for _, consts, trace, _ in (gprm_run, cgrm_run):
        assert trace.min_observed_lambda >= consts.gamma


def test_two_level_sample_bookkeeping(gprm_run, cgrm_run):
    """The observer sees each level's N_l stepped iterates plus the handoff one."""
    for _, _, trace, seen in (gprm_run, cgrm_run):
        by_level = {}
        for s in seen:
            by_level.setdefault(s.level, []).append(s)
        for rec in trace.outer_records:
            level = by_level[rec.l]
            assert len(level) == rec.N_l + 1
            assert [s.k for s in level] == list(range(rec.N_l + 1))


def _two_level_consts(method, problem, w0):
    if method == "gprm":
        return gprm_constants(problem.objective.lipschitz_L, SCHED.epsilon0)
    return cgrm_constants(problem, SCHED.epsilon0, w0)


def _two_level_run(method, problem, w0, stop, **kwargs):
    run = run_gprm if method == "gprm" else run_cgrm
    return run(problem, SCHED, _two_level_consts(method, problem, w0), w0, stop, **kwargs)


def _record_bytes(trace):
    return [vars(r) for r in trace.outer_records], trace.final_point.tobytes()


@pytest.mark.parametrize(
    "method, label, w0, n_samples",
    [
        ("gprm", "illposed_box(2)", (1.0, 0.0), 41),
        ("cgrm", "illposed_simplex(3)", (1.0, 0.0, 0.0), 47),
    ],
)
def test_observing_changes_no_arithmetic(method, label, w0, n_samples):
    problem = bundled_problem(label).problem
    plain = _two_level_run(method, problem, np.array(w0), STOP)
    observe, seen = _observer()
    observed = _two_level_run(method, problem, np.array(w0), STOP, observe=observe)
    assert _record_bytes(plain) == _record_bytes(observed)
    assert plain.counters == observed.counters
    assert plain.min_observed_lambda == observed.min_observed_lambda
    # the first four iterates of each level, or all of a shorter one: criterion 7's samples
    got = [(s.level, s.k) for s in seen if s.k < 4]
    assert got == [(r.l, k) for r in observed.outer_records for k in range(min(4, r.N_l + 1))]
    assert len(got) == n_samples


@pytest.mark.parametrize("method", METHODS)
def test_default_trace_holds_one_n_vector(method):
    """At n = 2**17 a default trace holds its final point and bytes per record,
    so its memory follows neither the run length nor the number of levels."""
    n = 2**17
    gp = (make_illposed_simplex if method in ("cgm", "cgrm") else make_illposed_box)(n)
    p, w0 = gp.problem, default_start(gp, method)
    # steps 0.5/L (gpm) and 0.9 (cgm) reach no exact fixed point within 50 steps
    runs = {
        "gpm": lambda: run_gpm(p, 0.5 / n, w0, 50),
        "cgm": lambda: run_cgm(p, 0.9, w0, 50),
        "gprm": lambda: _two_level_run("gprm", p, w0, StopPolicy()),
        "cgrm": lambda: _two_level_run("cgrm", p, w0, StopPolicy(epsilon_min=1e-2)),
    }
    gc.collect()
    tracemalloc.start()
    try:
        trace = runs[method]()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace.outer_records) > 5
    assert 8 * n <= kept <= 1.1 * 8 * n


def _evaluated(problem):
    """problem with no curvature_fn, so the Armijo search evaluates phi."""
    return dataclasses.replace(
        problem, objective=dataclasses.replace(problem.objective, curvature_fn=None))


@pytest.mark.parametrize(
    "method, make, stop, closed, vectors",
    [
        ("gprm", make_illposed_box, StopPolicy(), True, 4),
        ("cgrm", make_illposed_simplex, StopPolicy(epsilon_min=1e-2), True, 3),
        ("gprm", make_illposed_box, StopPolicy(), False, 4),
        ("cgrm", make_illposed_simplex, StopPolicy(epsilon_min=1e-2), False, 4),
    ],
    ids=["gprm", "cgrm", "gprm-evaluated", "cgrm-evaluated"],
)
def test_two_level_run_peaks_at_four_n_vectors(method, make, stop, closed, vectors):
    """Above its start, a two-level run on an n = 10**5 problem holds at most
    four n-vectors at once, with or without the curvature oracle.  The
    direction d is the next phi'(x)'s buffer, so the run keeps x and d, and
    at its peak two more: the accepted and the next trial point of an
    evaluated search (the closed form builds only the accepted point), or y
    and the new d while phi'(x) is live, which gprm keeps through its step.
    An unobserved cgrm step takes d = lmo(g, x) and builds no vertex y, so
    with the closed form it peaks at three: x, phi'(x) and the new d.
    Half a vector of slack covers the scalar bookkeeping."""
    n = 10**5
    gp = make(n)
    p, w0 = gp.problem if closed else _evaluated(gp.problem), default_start(gp, method)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trace = _two_level_run(method, p, w0, stop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.counters.inner_iterations > 5
    assert peak - start <= (vectors + 0.5) * 8 * n


def _trace_bytes(trace, tmp_path):
    """The trace CSV's bytes, the final point's bytes, the counters and min lambda."""
    path = tmp_path / "trace.csv"
    bench.write_trace_csv(trace, str(path))
    return (path.read_bytes(), trace.final_point.tobytes(), trace.counters,
            trace.min_observed_lambda)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "evaluated"])
@pytest.mark.parametrize("make", [make_illposed_box, make_illposed_simplex],
                         ids=["box", "simplex"])
@pytest.mark.parametrize("method", ["gprm", "cgrm"])
def test_tiled_passes_keep_every_byte(monkeypatch, tmp_path, method, make, closed):
    """Above solvers._TILE coordinates _two_level builds phi'(x) and the
    closed form's accepted point tile by tile.  With _TILE = 7 at n = 50 the
    tiles are seven of 7 and a last one of 1, and the run is the untiled one
    byte for byte.  From a vertex every case takes inner steps (gprm's own
    start is the simplex's solution); a defect that sends a level on past
    its 9 to 66 steps fails at 1000."""
    gp = make(50)
    p, w0 = gp.problem if closed else _evaluated(gp.problem), default_start(gp, "cgrm")
    stop = StopPolicy(epsilon_min=1e-2, max_inner_per_l=1000)
    untiled = _trace_bytes(_two_level_run(method, p, w0, stop), tmp_path)
    monkeypatch.setattr(solvers, "_TILE", 7)
    assert _trace_bytes(_two_level_run(method, p, w0, stop), tmp_path) == untiled


# trace CSV and final point SHA-256, counters and min lambda of the untiled
# driver: n = 100003 runs by three tiles of 2**15 and a last one of 1699
_ABOVE_A_TILE = {
    "gprm": (make_illposed_box, StopPolicy(),
             "5f6324f35186ee0e1ed8aa7cd449114850e112d88154fee1beaaa588f4114680",
             "f459ae4925776fd2ed29268deb88a7ddcb67539a6c9425158313e5b288089b67",
             (41, 41, 0, 396, 22), 7.62939453125e-06),
    "cgrm": (make_illposed_simplex, StopPolicy(epsilon_min=1e-2),
             "3e9affcc3ae90d703de7dd8a948f5c716ab44c82046778c1bdf713a467d58d26",
             "1b812700d03532f79090b8c5c7b5737dfb666eee3e5c95076a7872a4335238a4",
             (124, 0, 124, 125, 118), 0.125),
}


@pytest.mark.parametrize("method", sorted(_ABOVE_A_TILE))
def test_a_run_above_one_tile_keeps_the_untiled_bytes(tmp_path, method):
    make, stop, *want = _ABOVE_A_TILE[method]
    gp = make(100003)
    csv, point, counters, min_lam = _trace_bytes(
        _two_level_run(method, gp.problem, default_start(gp, method), stop), tmp_path)
    got = [hashlib.sha256(csv).hexdigest(), hashlib.sha256(point).hexdigest(),
           tuple(counters.as_dict().values()), min_lam]
    assert got == want


def test_a_handoff_to_y_keeps_no_old_iterate():
    """f = ||x - 1/2||^2 / 4 on [-1, 1]^n, whose value builds one n-vector
    temporary, from -1: gprm's unit steps pass and handoffs take y, and the
    evaluated search at the next level holds x, d, a trial point and that
    temporary, not also the level's last x."""
    n = 10**5

    def value(x):
        r = x - 0.5
        return 0.25 * float(r.dot(r))

    def gradient(x):
        g = x - 0.5
        g *= 0.5
        return g

    problem = Problem(Objective(value, gradient, 0.5),
                      BoxSet(np.full(n, -1.0), np.full(n, 1.0)).to_feasible_set())
    w0 = np.full(n, -1.0)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trace = _two_level_run("gprm", problem, w0, StopPolicy(epsilon_min=1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.counters.inner_iterations == trace.counters.linesearch_trials == 73
    assert peak - start <= 4.5 * 8 * n


@pytest.mark.parametrize("method", METHODS)
def test_a_missing_oracle_is_named_with_the_method(box12_zero, method):
    """The projection methods refuse a set with only an LMO, and the
    conditional-gradient methods a set with an LMO but no diameter_B."""
    fs = box12_zero.feasible_set
    if method in ("cgm", "cgrm"):
        fs, need = dataclasses.replace(fs, diameter_B=None), "an LMO over a bounded set"
    else:
        fs, need = dataclasses.replace(fs, project_fn=None), "a projection oracle"
    problem, x0 = dataclasses.replace(box12_zero, feasible_set=fs), np.ones(2)
    consts = MethodConstants(0.5, 0.5, 0.5, 2.0)
    runs = {
        "gpm": lambda: run_gpm(problem, 0.5, x0, 5),
        "cgm": lambda: run_cgm(problem, 0.5, x0, 5),
        "gprm": lambda: run_gprm(problem, SCHED, consts, x0),
        "cgrm": lambda: run_cgrm(problem, SCHED, consts, x0),
    }
    with pytest.raises(ValueError, match=f"^run_{method} needs {need}$"):
        runs[method]()


@pytest.mark.parametrize("method", ["gpm", "cgm"])
def test_single_loop_run_peaks_below_three_and_a_half_n_vectors(method):
    """Above its start, a baseline run on an n = 10**5 problem holds x and one
    step's arrays: the gradient dies inside the step, before the new point is
    formed, and cgm's lmo(g, x) builds d with no vertex, so the peak is x, the
    step point and its projection (gpm) or x, d and the new point (cgm).  Half
    a vector of slack covers the scalar bookkeeping."""
    n = 10**5
    gp = (make_illposed_simplex if method == "cgm" else make_illposed_box)(n)
    p, w0 = gp.problem, default_start(gp, method)
    runs = {
        "gpm": lambda: run_gpm(p, 0.5 / n, w0, 20),
        "cgm": lambda: run_cgm(p, 0.9, w0, 20),
    }
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trace = runs[method]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.counters.inner_iterations == 20
    assert peak - start <= 3.5 * 8 * n


@pytest.mark.parametrize("method", ["gprm", "cgrm"])
@pytest.mark.parametrize("label, w0", [("illposed_box(2)", (1.0, 0.0)),
                                       ("illposed_simplex(3)", (1.0, 0.0, 0.0))],
                         ids=["box", "simplex"])
def test_no_observed_array_is_written_later(method, label, w0):
    """The driver writes phi'(x) into a buffer it owns; every x and y an
    observer saw, and the start, keep the bytes they had when seen."""
    w0 = np.array(w0)
    start = w0.tobytes()
    kept = []

    def observe(l, k, eps, x, y, test):
        kept.append((x, x.tobytes(), y, y.tobytes()))
    trace = _two_level_run(method, bundled_problem(label).problem, w0, STOP, observe=observe)
    assert len(trace.outer_records) > 5 and len(kept) > 1000
    assert w0.tobytes() == start
    changed = [i for i, (x, xb, y, yb) in enumerate(kept) if x.tobytes() != xb or y.tobytes() != yb]
    assert changed == []


def _accepted_steps(seen):
    """(iterate, next iterate of the same level) pairs: every observed iterate
    but a level's last took a step, and the next one's x is the point it accepted."""
    return [(s, t) for s, t in zip(seen, seen[1:]) if t.level == s.level]


@st.composite
def _rankdef_case(draw):
    """A make_rankdef_lsq problem in dimension 2-4 on a random box, the
    simplex or a random ball, whose A has a zero row and whose b = A x_feas
    for an x_feas inside the set, and a vertex of the set (for the ball, the
    boundary point center + radius e_i) to start from.  Draws whose ground
    truth the generator refuses to hand out are rejected: the invariants
    checked here do not need it."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    A = draw(arrays(np.float64, (m, n), elements=st.floats(-2.0, 2.0)))
    A[draw(st.integers(0, m - 1))] = 0.0
    assume(np.linalg.norm(A, 2) > 0.1)
    unit = draw(arrays(np.float64, n, elements=st.floats(0.1, 0.9)))
    kind = draw(st.sampled_from(["box", "simplex", "ball"]))
    if kind == "box":
        lower = draw(arrays(np.float64, n, elements=st.floats(-2.0, 0.5)))
        upper = lower + draw(arrays(np.float64, n, elements=st.floats(0.25, 2.0)))
        fs = BoxSet(lower, upper).to_feasible_set()
        x_feas = lower + unit * (upper - lower)
        w0 = np.where(draw(arrays(np.bool_, n)), upper, lower)
    elif kind == "simplex":
        fs = SimplexSet(n).to_feasible_set()
        x_feas = unit / unit.sum()
        w0 = np.eye(n)[draw(st.integers(0, n - 1))]
    else:
        center = draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
        radius = draw(st.floats(0.25, 2.0))
        fs = BallSet(center, radius).to_feasible_set()
        x_feas = center + radius * (2.0 * unit - 1.0) / math.sqrt(n)
        w0 = center + radius * np.eye(n)[draw(st.integers(0, n - 1))]
    try:
        return make_rankdef_lsq(A, A @ x_feas, fs).problem, w0
    except OracleFailure:
        reject()


def _far_target():
    """f = 0.5 ||x - (100, -100)||^2 on the simplex of R^2, started at e2: its
    gap mu nears L'' B, so cgrm accepts lambda = 2^-8 at level 1."""
    b = np.array([100.0, -100.0])
    obj = Objective(lambda x: 0.5 * float((x - b).dot(x - b)), lambda x: x - b, 1.0)
    return Problem(obj, SimplexSet(2).to_feasible_set()), np.array([0.0, 1.0])


def _ball_target():
    """f = 0.5 (x1 + x2 - 1)^2 (A with a zero row) on the unit ball at
    (0.5, -0.5), which the line x1 + x2 = 1 cuts, started at center + e1."""
    fs = BallSet(np.array([0.5, -0.5]), 1.0).to_feasible_set()
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    return make_rankdef_lsq(A, np.array([1.0, 0.0]), fs).problem, np.array([1.5, -0.5])


@settings(max_examples=20)
@given(_rankdef_case())
@example(_far_target())
@example(_ball_target())
def test_two_level_invariants_on_random_rankdef_problems(case):
    """At every observed iterate of gprm and cgrm: x and y feasible at 1e-9,
    phi_eps not increasing within a level, and cgrm's gap test >= -1e-12; at
    the end every accepted multiplier is at least consts.gamma."""
    problem, w0 = case
    fs = problem.feasible_set
    for method in ("gprm", "cgrm"):
        observe, seen = _observer()
        trace = _two_level_run(method, problem, w0, StopPolicy(epsilon_min=1e-2), observe=observe)
        last = (None, math.inf)
        for s in seen:
            assert fs.contains(s.x, 1e-9) and fs.contains(s.y, 1e-9)
            phi_x = PerturbedObjective(problem.objective, s.epsilon).value(s.x)
            if s.level == last[0]:
                assert phi_x <= last[1] + 1e-12
            last = (s.level, phi_x)
            assert method == "gprm" or s.test >= -1e-12
        assert trace.min_observed_lambda >= _two_level_consts(method, problem, w0).gamma


def test_gprm_monotone_inner_descent(gprm_run):
    """phi(x_next) <= phi(x) - beta * gamma * ||d||^2 at every accepted step."""
    gp, consts, trace, seen = gprm_run
    value = gp.problem.objective.value_fn
    steps = _accepted_steps(seen)
    assert len(steps) == trace.counters.inner_iterations
    for s, t in steps:
        phi = lambda v, e=s.epsilon: float(value(v)) + 0.5 * e * float(v @ v)
        d = s.y - s.x
        assert phi(t.x) <= phi(s.x) - consts.beta * consts.gamma * float(d @ d) + 1e-12


def test_cgrm_monotone_inner_descent(cgrm_run):
    """phi(x_next) <= phi(x) - beta * gamma * mu^2 at every accepted step."""
    gp, consts, trace, seen = cgrm_run
    value = gp.problem.objective.value_fn
    steps = _accepted_steps(seen)
    assert len(steps) == trace.counters.inner_iterations
    for s, t in steps:
        phi = lambda v, e=s.epsilon: float(value(v)) + 0.5 * e * float(v @ v)
        assert phi(t.x) <= phi(s.x) - consts.beta * consts.gamma * s.test ** 2 + 1e-12


def test_cgrm_gap_never_negative(cgrm_run):
    _, _, trace, seen = cgrm_run
    # the observer sees every iterate: one per LMO call
    assert len(seen) == trace.counters.lmo_calls > 0
    assert min(s.test for s in seen) >= -1e-12


def test_two_level_all_iterates_feasible(gprm_run, cgrm_run):
    for gp, _, trace, seen in (gprm_run, cgrm_run):
        fs = gp.problem.feasible_set
        assert fs.contains(trace.final_point, 1e-9)
        for s in seen:
            assert fs.contains(s.x, 1e-9)
            assert fs.contains(s.y, 1e-9)


def _path_points(problem, records):
    """z(eps_l) for every recorded level, solved as a warm-started cascade."""
    recs = tikhonov_path(problem, [r.epsilon_l for r in records])
    return {rec_out.l: rec_z.z for rec_out, rec_z in zip(records, recs)}


def _handoff_points(gp, trace, seen, method):
    """Each level's w_l, rebuilt from its last observed iterate: x for cgrm, the
    better of x and y (ties to y) for gprm; its distance to x*_n must equal the
    record's bit for bit."""
    last = {s.level: s for s in seen}
    xstar = gp.problem.known_xstar_n
    points = {}
    for rec in trace.outer_records:
        s = last[rec.l]
        w = s.x
        if method == "gprm":
            phi = PerturbedObjective(gp.problem.objective, s.epsilon).value
            w = s.y if phi(s.y) <= phi(s.x) else s.x
        r = w - xstar
        assert math.sqrt(r.dot(r)) == rec.dist_xstar
        points[rec.l] = w
    return points


def test_gprm_handoff_tracks_path(gprm_run):
    """||w_l - z(eps_l)|| <= (2(L'+1)/eps_l + 1) delta_l at every level."""
    gp, consts, trace, seen = gprm_run
    w = _handoff_points(gp, trace, seen, "gprm")
    z = _path_points(gp.problem, trace.outer_records)
    for rec in trace.outer_records:
        bound = (2.0 * (consts.Lprime + 1.0) / rec.epsilon_l + 1.0) * rec.delta_l
        assert np.linalg.norm(w[rec.l] - z[rec.l]) <= bound + 1e-6


def test_cgrm_handoff_tracks_path(cgrm_run):
    """||w_l - z(eps_l)||^2 <= 2 delta_l / eps_l at every level."""
    gp, _, trace, seen = cgrm_run
    w = _handoff_points(gp, trace, seen, "cgrm")
    z = _path_points(gp.problem, trace.outer_records)
    for rec in trace.outer_records:
        bound = 2.0 * rec.delta_l / rec.epsilon_l
        assert float(np.sum((w[rec.l] - z[rec.l]) ** 2)) <= bound + 1e-6


def _certificate_samples(seen, per_level=3):
    picked = []
    by_level = {}
    for s in seen:
        by_level.setdefault(s.level, []).append(s)
    for level in sorted(by_level):
        group = by_level[level]
        idx = sorted({0, len(group) // 2, len(group) - 1})
        picked.extend(group[i] for i in idx[:per_level])
    return picked


def test_gprm_sandwich_certificate(gprm_run):
    """0.5 eps ||y - z||^2 <= phi(y) - phi* <= (L'+1) ||y - x|| ||y - z||."""
    gp, consts, trace, seen = gprm_run
    value = gp.problem.objective.value_fn
    z = _path_points(gp.problem, trace.outer_records)
    samples = _certificate_samples(seen)
    assert len(samples) >= 10
    for s in samples:
        phi = lambda v, e=s.epsilon: float(value(v)) + 0.5 * e * float(v @ v)
        z_l = z[s.level]
        gap = phi(s.y) - phi(z_l)
        lower = 0.5 * s.epsilon * float(np.sum((s.y - z_l) ** 2))
        upper = (consts.Lprime + 1.0) * float(
            np.linalg.norm(s.y - s.x) * np.linalg.norm(s.y - z_l)
        )
        assert lower <= gap + 1e-8
        assert gap <= upper + 1e-8


def test_cgrm_gap_bound_certificate(cgrm_run):
    """0.5 eps ||x - z||^2 <= phi(x) - phi* <= mu on sampled iterates."""
    gp, _, trace, seen = cgrm_run
    value = gp.problem.objective.value_fn
    z = _path_points(gp.problem, trace.outer_records)
    samples = _certificate_samples(seen)
    assert len(samples) >= 10
    for s in samples:
        phi = lambda v, e=s.epsilon: float(value(v)) + 0.5 * e * float(v @ v)
        z_l = z[s.level]
        gap = phi(s.x) - phi(z_l)
        lower = 0.5 * s.epsilon * float(np.sum((s.x - z_l) ** 2))
        assert lower <= gap + 1e-8
        assert gap <= s.test + 1e-8


def test_two_level_validation():
    gp_box = bundled_problem("illposed_box(2)")
    gp_simplex = bundled_problem("illposed_simplex(3)")
    ok_box = gprm_constants(gp_box.problem.objective.lipschitz_L, 1.0)
    ok_simplex = cgrm_constants(gp_simplex.problem, 1.0, np.array([1.0, 0.0, 0.0]))

    low_L = gprm_constants(0.1, 0.5)  # Lprime = 0.6 < L = 2
    with pytest.raises(ValueError):
        run_gprm(gp_box.problem, SCHED, low_L, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        run_gprm(gp_box.problem, SCHED, ok_box, np.array([5.0, 5.0]))
    # Lprime = 2.5 covers L = 2 but not L + epsilon0 = 3 under SCHED
    with pytest.raises(ValueError, match="below L \\+ epsilon0"):
        run_gprm(gp_box.problem, SCHED, gprm_constants(gp_box.problem.objective.lipschitz_L, 0.5),
                 np.array([1.0, 0.0]))

    lmo_only = FeasibleSet(
        lmo_fn=gp_simplex.problem.feasible_set.lmo_fn,
        membership_fn=gp_simplex.problem.feasible_set.membership_fn,
        diameter_B=math.sqrt(2.0),
        dimension=3,
    )
    prob = Problem(gp_simplex.problem.objective, lmo_only)
    with pytest.raises(ValueError):
        run_gprm(prob, SCHED, ok_box, np.full(3, 1.0 / 3.0))

    project_only = FeasibleSet(
        project_fn=gp_box.problem.feasible_set.project_fn, dimension=2
    )
    with pytest.raises(ValueError):
        run_cgrm(Problem(gp_box.problem.objective, project_only), SCHED, ok_box,
                 np.array([0.0, 0.0]))

    no_diameter = FeasibleSet(
        lmo_fn=gp_simplex.problem.feasible_set.lmo_fn, dimension=3
    )
    with pytest.raises(ValueError):
        run_cgrm(Problem(gp_simplex.problem.objective, no_diameter), SCHED,
                 ok_simplex, np.full(3, 1.0 / 3.0))
    with pytest.raises(ValueError):
        run_cgrm(gp_simplex.problem, SCHED, ok_simplex, np.array([2.0, 0.0, 0.0]))


def test_two_level_runaway_inner_loop_raises():
    tight = StopPolicy(epsilon_min=1e-4, max_inner_per_l=1)
    gp_box = bundled_problem("illposed_box(2)")
    with pytest.raises(RunawayInnerLoop):
        run_gprm(gp_box.problem, SCHED, gprm_constants(gp_box.problem.objective.lipschitz_L, 1.0),
                 np.array([1.0, 0.0]), stop=tight)
    gp_simplex = bundled_problem("illposed_simplex(3)")
    w0 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(RunawayInnerLoop):
        run_cgrm(gp_simplex.problem, SCHED,
                 cgrm_constants(gp_simplex.problem, 1.0, w0), w0, stop=tight)


@pytest.mark.parametrize("method", ["gprm", "cgrm"])
def test_nan_gradient_fails_fast(method):
    """A NaN gradient makes the handoff test NaN: OracleFailure at once, not
    60 backtracking trials ending in LineSearchFailure."""
    gp = bundled_problem("illposed_box(2)")
    obj = gp.problem.objective
    nan_grad = Objective(obj.value_fn, lambda x: np.full_like(x, np.nan), obj.lipschitz_L)
    problem = Problem(nan_grad, gp.problem.feasible_set)
    w0 = np.array([1.0, 0.0])
    if method == "gprm":
        run, consts = run_gprm, gprm_constants(gp.problem.objective.lipschitz_L, SCHED.epsilon0)
    else:
        run, consts = run_cgrm, cgrm_constants(gp.problem, SCHED.epsilon0, w0)
    with pytest.raises(OracleFailure, match="level 1: handoff test is not finite"):
        run(problem, SCHED, consts, w0, STOP)


@pytest.mark.parametrize("method", ["gprm", "cgrm"])
def test_nan_value_fails_fast(method):
    """A NaN objective value with a finite gradient leaves the handoff test
    finite; the line search rejects it before its first trial."""
    gp = bundled_problem("illposed_box(2)")
    obj = gp.problem.objective
    nan_value = Objective(lambda x: math.nan, obj.gradient_fn, obj.lipschitz_L)
    problem = Problem(nan_value, gp.problem.feasible_set)
    with pytest.raises(OracleFailure, match="not finite at the line-search start"):
        _two_level_run(method, problem, np.array([1.0, 0.0]), STOP)


def test_null_armijo_step_raises():
    """A value that is NaN at every trial point lets the search accept the
    trial that rounds back to x, at lambda = 2^-53, which the inner loop
    would otherwise repeat until RunawayInnerLoop."""
    gp = bundled_problem("illposed_box(2)")
    obj = gp.problem.objective
    nan_off_start = Objective(lambda x: obj.value_fn(x) if x[0] >= 1.0 else math.nan,
                              obj.gradient_fn, obj.lipschitz_L)
    problem = Problem(nan_off_start, gp.problem.feasible_set)
    stop = StopPolicy(epsilon_min=1e-4, max_inner_per_l=5)
    with pytest.raises(LineSearchFailure,
                       match="multiplier 1.1102230246251565e-16 leaves x unchanged"):
        _two_level_run("gprm", problem, np.array([1.0, 0.0]), stop)


@pytest.mark.parametrize("max_inner", [StopPolicy.max_inner_per_l, 1])
@pytest.mark.parametrize("method, lam, closed", [
    pytest.param("gprm", 0.125, True, id="gprm-0.125"),
    pytest.param("cgrm", 2.0**-35, True, id=f"cgrm-{2.0**-35}"),
    pytest.param("gprm", 0.125, False, id="gprm-0.125-evaluated"),
    pytest.param("cgrm", 2.0**-35, False, id=f"cgrm-{2.0**-35}-evaluated"),
])
def test_a_closed_form_null_step_raises_at_the_repeat(method, lam, closed, max_inner):
    """f = 4 (x - c)^2 with c = 1e20 on the box [c - 4 ulp(c), c], from c:
    at eps_1 = 5e-16 a level-1 direction is a few ulps of c long, and the
    search, in closed form or evaluated, accepts a multiplier under which
    x + t d rounds back to x.  The next step repeats x, its direction and
    its test, and raises there: at the second iterate of level 1 on both
    paths.  With max_inner_per_l = 1 that second iterate is past the cap,
    so RunawayInnerLoop comes first."""
    c = 1e20
    obj = Objective(lambda x: 4.0 * float((x - c) @ (x - c)), lambda x: 8.0 * (x - c), 8.0,
                    (lambda d: 8.0 * float(d @ d)) if closed else None)
    problem = Problem(obj, BoxSet(np.array([c - 4 * math.ulp(c)]), np.array([c])).to_feasible_set())
    w0, sched = np.array([c]), GeometricSchedule(1e-15)
    consts = (gprm_constants(8.0, 1e-15) if method == "gprm"
              else cgrm_constants(problem, 1e-15, w0))
    run = run_gprm if method == "gprm" else run_cgrm
    observe, seen = _observer()
    error = ((LineSearchFailure, f"^level 1: the accepted step at multiplier {lam!r} leaves x "
                                  "unchanged")
             if max_inner > 1 else (RunawayInnerLoop, "^level 1 exceeded 1 inner iterations$"))
    with pytest.raises(error[0], match=error[1]):
        run(problem, sched, consts, w0, StopPolicy(epsilon_min=1e-16, max_inner_per_l=max_inner),
            observe)
    assert [(s.level, s.k, s.x.tobytes()) for s in seen] == [(1, 0, w0.tobytes()),
                                                              (1, 1, w0.tobytes())]
    assert seen[0].test == seen[1].test > 0.0


@pytest.mark.parametrize("method, label, max_m, iterate", [("gprm", "wellposed_box(2)", 1, 1),
                                                           ("cgrm", "illposed_simplex(3)", 2, 0)])
@pytest.mark.parametrize("closed", [True, False], ids=["closed", "evaluated"])
def test_no_sufficient_decrease_within_max_linesearch_m(method, label, max_m, iterate, closed):
    """A search that finds no passing power among theta^0 .. theta^max_m
    raises the same LineSearchFailure, decided from the curvature oracle or
    by evaluating phi, at the same iterate of level 1."""
    problem = bundled_problem(label).problem
    if not closed:
        problem = dataclasses.replace(problem, objective=dataclasses.replace(
            problem.objective, curvature_fn=None))
    observe, seen = _observer()
    w0 = np.eye(problem.feasible_set.dimension)[0]
    with pytest.raises(LineSearchFailure, match=f"^level 1: no sufficient decrease within {max_m} "
                       "backtracking steps; gradient or Lipschitz data is suspect$"):
        _two_level_run(method, problem, w0, StopPolicy(max_linesearch_m=max_m), observe=observe)
    assert (seen[-1].level, seen[-1].k) == (1, iterate)


@pytest.mark.parametrize("label", ["illposed_box(2)", "illposed_simplex(3)"])
@pytest.mark.parametrize("method", ["gprm", "cgrm"])
def test_an_understated_lipschitz_constant_fails_at_level_1(method, label):
    """With lipschitz_L understated 100x, L' = L/100 + eps0 = 1.02, and the
    curvature along a level-1 direction exceeds L' ||d||^2; a true L keeps
    it (eps0 - eps_1) ||d||^2 = 0.5 ||d||^2 below."""
    gp = bundled_problem(label)
    obj = gp.problem.objective
    problem = dataclasses.replace(
        gp.problem, objective=dataclasses.replace(obj, lipschitz_L=obj.lipschitz_L / 100))
    w0 = np.eye(problem.feasible_set.dimension)[0]
    with pytest.raises(LineSearchFailure, match=r"^level 1: curvature along d is \d\.\d+ "
                       r"\|\|d\|\|\^2, above L' = 1\.02; lipschitz_L is understated "
                       r"or curvature_fn overstates the curvature$"):
        _two_level_run(method, problem, w0, STOP)


@pytest.mark.parametrize("method", ["gprm", "cgrm"])
def test_a_doubled_curvature_oracle_raises_the_same_error(method):
    """With a true L and curvature_fn doubled, kappa passes L' ||d||^2 at
    level 1 (cgrm) or 2 (gprm), and the error names curvature_fn as well."""
    gp = bundled_problem("illposed_box(2)")
    obj = gp.problem.objective
    problem = dataclasses.replace(gp.problem, objective=dataclasses.replace(
        obj, curvature_fn=lambda d: 2.0 * obj.curvature_fn(d)))
    with pytest.raises(LineSearchFailure, match=r"^level [12]: curvature along d is .*, above "
                       r"L' = 3\.0; lipschitz_L is understated or curvature_fn overstates"):
        _two_level_run(method, problem, np.array([1.0, 0.0]), STOP)


@pytest.mark.parametrize("bad", [math.nan, -1e3])
@pytest.mark.parametrize("method", ["gprm", "cgrm"])
def test_a_nan_or_negative_curvature_fails_fast(method, bad):
    """A curvature oracle that returns NaN or a negative number raises at the first step."""
    gp = bundled_problem("illposed_box(2)")
    problem = dataclasses.replace(gp.problem, objective=dataclasses.replace(
        gp.problem.objective, curvature_fn=lambda d: bad))
    with pytest.raises(OracleFailure, match=r"^level 1: curvature along d is \S+, not >= 0$"):
        _two_level_run(method, problem, np.array([1.0, 0.0]), STOP)


def test_armijo_null_unit_step_raises():
    """A direction that vanishes against x rounds even the unit step back to
    x; no floor on the multiplier would catch that step, in closed form
    (slope -||d||^2, kappa ||d||^2) or evaluated on phi = t^2/2.  On both
    paths the driver raises when the next step repeats the test: a level
    that takes the null step once hands off x unchanged."""
    null = (np.array([-1e-20]), 1.0, 1e-40, 1.0, -1e-40, 1e-40)
    for value in (None, _half_tsq().value):
        once, _ = _scripted_level(np.array([1.0]), [null], value=value)
        assert once.final_point.tobytes() == np.array([1.0]).tobytes()
        assert (once.counters.inner_iterations, once.counters.linesearch_trials) == (1, 1)
        with pytest.raises(LineSearchFailure, match="multiplier 1.0 leaves x unchanged"):
            _scripted_level(np.array([1.0]), [null, null], value=value)


def test_cgrm_multiplier_stays_above_the_proven_floor_with_a_correct_L():
    """The first power the cgrm search evaluates lies in (theta/mu, 1/mu],
    here 2^-8 at level 1 with L = 1 exact: above gamma = 0.00242, but below
    gamma / theta = 0.00484, the floor without theta on its last two terms."""
    b = np.array([100.0, -100.0])
    obj = Objective(lambda x: 0.5 * float((x - b).dot(x - b)), lambda x: x - b, 1.0)
    problem = Problem(obj, SimplexSet(2).to_feasible_set())
    w0 = np.array([0.0, 1.0])
    consts = cgrm_constants(problem, SCHED.epsilon0, w0)
    trace = run_cgrm(problem, SCHED, consts, w0, StopPolicy(max_outer=5))
    assert len(trace.outer_records) == 5
    assert consts.gamma <= trace.min_observed_lambda == 2.0 ** -8 < consts.gamma / consts.theta


def test_the_default_config_parts_with_and_without_the_curvature_oracle(monkeypatch):
    """gprm on illposed_box(4096), the default config, decided in closed form
    and, with the curvature oracle stripped, evaluated: the two tests accept
    the same powers through level 12 and at level 13's first step.  At its
    second the evaluated test's rounding accepts another power, so the
    levels keep their N_l through level 13 and part from level 14 on."""
    cfg = ExperimentConfig("illposed_box(4096)", "gprm")
    closed = run_experiment(cfg)
    gp = bundled_problem(cfg.problem_label)
    problem = dataclasses.replace(gp.problem, objective=dataclasses.replace(
        gp.problem.objective, curvature_fn=None))
    monkeypatch.setitem(bench._PROBLEM_CACHE, cfg.problem_label,
                        dataclasses.replace(gp, problem=problem))
    evaluated = run_experiment(cfg)
    head = [8, 2, 1, 2, 1, 2, 1, 2, 2, 2, 2, 2, 2]
    runs = {"closed": (closed, [3, 3, 3, 3, 4, 4], 49, 686),
            "evaluated": (evaluated, [1, 3, 1, 1, 1, 4], 40, 556)}
    for name, (trace, tail, inner, trials) in runs.items():
        assert [r.N_l for r in trace.outer_records] == head + tail, name
        c = trace.counters
        assert (c.inner_iterations, c.linesearch_trials) == (inner, trials), name
    assert closed.outer_records[:12] == evaluated.outer_records[:12]
    assert closed.outer_records[12].dist_xstar != evaluated.outer_records[12].dist_xstar


def test_the_closed_search_is_the_scan_power_for_power():
    """The same run decided from the curvature oracle inside _two_level:
    every step accepts the power, and so the point, that the scan from the
    unit step of the closed-form test accepts, and the run's trials are the
    scan's m + 1 powers at each step that accepts theta^m."""
    gp, x0, sched, stop, consts, _ = validate_experiment(
        ExperimentConfig("illposed_box(4096)", "gprm"))
    observe, seen = _observer()
    trace = run_gprm(gp.problem, sched, consts, x0, stop, observe)
    obj, powers = gp.problem.objective, _powers(consts.theta, stop.max_linesearch_m)
    steps, scan_trials = _accepted_steps(seen), 0
    for s, t in steps:
        d = s.y - s.x
        slope = float(np.add(obj.gradient_fn(s.x), np.multiply(s.x, s.epsilon)).dot(d))
        dn2 = float(d.dot(d))
        kappa = obj.curvature_fn(d) + s.epsilon * dn2
        m = next(m for m, p in enumerate(powers)
                 if p * slope + 0.5 * p * p * kappa <= -consts.beta * p * dn2)
        assert t.x.tobytes() == solvers._trial_point(s.x, d, powers[m]).tobytes()
        scan_trials += m + 1
    assert len(steps) == trace.counters.inner_iterations > 40
    assert trace.counters.linesearch_trials == scan_trials


def test_gprm_handoff_reuses_the_last_accepted_value(box12_zero):
    """The handoff compares phi(y) with the value the level's last Armijo step
    accepted, and evaluates phi(x) only at a level that took no step; so each
    level costs one value call at x, one at y and one for its record, plus the
    trials."""
    calls = []
    base = box12_zero.objective
    counted = Objective(lambda x: calls.append(1) or base.value_fn(x), base.gradient_fn,
                        base.lipschitz_L)
    problem = Problem(counted, box12_zero.feasible_set, known_fstar=0.0,
                      known_xstar_n=box12_zero.known_xstar_n)
    calls.clear()
    trace = _two_level_run("gprm", problem, np.array([2.0, 2.0]), StopPolicy(epsilon_min=1e-2))
    n_l = [r.N_l for r in trace.outer_records]
    assert min(n_l) == 0 < max(n_l)
    assert len(calls) == trace.counters.linesearch_trials + 3 * len(n_l)


def test_trace_final_point():
    """final_point is the point the last record describes, or the start where
    no level ran."""
    gp = bundled_problem("illposed_simplex(3)")
    for method in METHODS:
        trace = _run_on_simplex(method, np.array([0.0, 0.0, 1.0]))
        r = trace.final_point - gp.problem.known_xstar_n
        assert math.sqrt(r.dot(r)) == trace.outer_records[-1].dist_xstar, method
    for method in ("gprm", "cgrm"):
        x0 = np.array([0.0, 0.0, 1.0])
        none_run = _two_level_run(method, gp.problem, x0, StopPolicy(epsilon_min=2.0))
        assert none_run.outer_records == []
        assert_allclose(none_run.final_point, x0, rtol=0, atol=0)


def _counting(problem):
    """Copy of problem whose gradient, projection and LMO count their calls."""
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    obj, fs = problem.objective, problem.feasible_set
    copy = dataclasses.replace(
        problem,
        objective=dataclasses.replace(obj, gradient_fn=counted("gradient_evals", obj.gradient_fn)),
        feasible_set=dataclasses.replace(
            fs, project_fn=counted("projections", fs.project_fn),
            lmo_fn=counted("lmo_calls", fs.lmo_fn)),
    )
    return copy, calls


@pytest.mark.parametrize("max_iter", [20, 300])
@pytest.mark.parametrize("label", ["wellposed_box(2)", "illposed_simplex(3)"])
@pytest.mark.parametrize("method", METHODS)
def test_counters_equal_the_oracle_calls_made(method, label, max_iter):
    """OracleCounters of every method count the gradient, projection and LMO
    calls the run made, its steps and (baselines) no line-search trial.  On
    the box, gpm and cgm stop at a repeated point within 300 steps and run
    out of steps at 20; on the simplex they stop within a step.  max_iter
    does not apply to the two-level methods."""
    gp = bundled_problem(label)
    x0 = default_start(gp, method)
    # cgrm_constants evaluates the gradient at w0; that is not the run's work
    consts = _two_level_consts(method, gp.problem, x0)
    problem, calls = _counting(gp.problem)
    step = 1.0 / gp.problem.objective.lipschitz_L
    if method == "gpm":
        trace = run_gpm(problem, step, x0, max_iter)
    elif method == "cgm":
        trace = run_cgm(problem, step, x0, max_iter)
    else:
        run = run_gprm if method == "gprm" else run_cgrm
        trace = run(problem, SCHED, consts, x0, StopPolicy(epsilon_min=1e-2))
    steps = sum(r.N_l for r in trace.outer_records)
    trials = trace.counters.linesearch_trials if method in ("gprm", "cgrm") else 0
    assert trace.counters == OracleCounters(
        **calls, linesearch_trials=trials, inner_iterations=steps)
    if method in ("gpm", "cgm"):
        assert (steps < max_iter) == (max_iter == 300 or label == "illposed_simplex(3)")
