"""Tests for the five methods: baselines, two-level solvers, line search."""

import collections
import gc
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from tikgrad import solvers
from tikgrad.bench import (
    ExperimentConfig,
    bundled_problem,
    default_start,
    make_illposed_box,
    make_illposed_simplex,
    make_rankdef_lsq,
    run_experiment,
)
from tikgrad.core import (
    FeasibleSet,
    LineSearchFailure,
    Objective,
    OracleFailure,
    Problem,
    RunawayInnerLoop,
)
from tikgrad.oracles import BoxSet, SimplexSet, project_box, project_simplex
from tikgrad.regularization import (
    GeometricSchedule,
    IterRegSchedule,
    PerturbedObjective,
)
from tikgrad.solvers import (
    MethodConstants,
    StopPolicy,
    _armijo,
    cgrm_constants,
    gprm_constants,
    run_cgm,
    run_cgrm,
    run_gpm,
    run_gprm,
    run_iterreg,
)

from path_helpers import tikhonov_path


def _brute_smallest_m(phi, x, d, beta, theta, quad_coeff, cap=None, max_m=30):
    """Literal scan over m = 0, 1, ...; the reference for _armijo."""
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


def _half_tsq():
    """phi(t) = 0.5 t^2 with no perturbation folded in."""
    obj = Objective(lambda x: 0.5 * float(x @ x), lambda x: x.copy(), 1.0)
    return PerturbedObjective(obj, 0.0, 1.0)


# ---------------------------------------------------------------------------
# line search


def test_armijo_accepts_unit_step():
    phi = _half_tsq()
    x, d = np.array([1.0]), np.array([-1.0])
    m, lam, _, _, _ = _armijo(phi.value, x, d, 0.5, _powers(0.5), 1.0, 1.0)
    assert (m, lam) == (0, 1.0)
    assert _brute_smallest_m(phi, x, d, 0.5, 0.5, 1.0) == 0


def test_armijo_backtracks_under_strict_decrease_demand():
    phi = _half_tsq()
    x, d = np.array([1.0]), np.array([-1.0])
    m, lam, _, _, _ = _armijo(phi.value, x, d, 0.9, _powers(0.5), 1.0, 1.0)
    assert m == _brute_smallest_m(phi, x, d, 0.9, 0.5, 1.0) == 3
    assert lam == 0.125


def test_armijo_cap_skips_overlong_steps_unevaluated():
    """With cap mu=3, m=0 would pass the decrease test if it were evaluated
    (the trial point is the origin), so m=2 proves the cap filters first."""
    obj = Objective(lambda x: 0.5 * float(x @ x), lambda x: x.copy(), 1.0)
    phi = PerturbedObjective(obj, 0.0, 1.0)
    x, d, mu = np.array([3.0, 0.0]), np.array([-1.0, 0.0]), 3.0
    assert phi.value(x + 1.0 * mu * d) <= phi.value(x) - 0.5 * 1.0 * mu * mu
    m, lam, _, _, _ = _armijo(phi.value, x, d, 0.5, _powers(0.5), mu * mu, mu)
    assert (m, lam) == (2, 0.25)
    assert _brute_smallest_m(phi, x, d, 0.5, 0.5, mu * mu, cap=mu) == 2


@st.composite
def _quadratic_search(draw):
    """A strictly convex quadratic phi, a start x, d = -phi'(x), Armijo
    parameters, a unit-step cap on either side of 1 and a start power m0."""
    n = draw(st.integers(1, 4))
    entries = arrays(np.float64, (n, n), elements=st.floats(-2.0, 2.0))
    m_ = draw(entries)
    a = m_.T @ m_ + 0.1 * np.eye(n)
    obj = Objective(lambda x: 0.5 * float(x @ a @ x), lambda x: a @ x,
                    float(np.linalg.eigvalsh(a)[-1]))
    eps = draw(st.floats(0.0, 1.0))
    phi = PerturbedObjective(obj, eps, 1.0)
    x = draw(arrays(np.float64, n, elements=st.floats(-3.0, 3.0)))
    d = -(obj.gradient_fn(x) + eps * x)
    cap = draw(st.sampled_from([1.0, 0.25, 4.0]) | st.floats(0.05, 20.0))
    return (phi, x, d, draw(st.floats(0.1, 0.9)), draw(st.floats(0.2, 0.8)), cap,
            draw(st.integers(0, 30)))


@given(_quadratic_search())
def test_armijo_matches_brute_force_on_random_quadratics(case):
    """From any start power the bracket returns what the scan from m = 0
    returns, bit for bit, in at most |m - m0| + 2 trials (m - m0 + 1 above
    m0); the scan is the smallest admissible m of the literal reference."""
    phi, x, d, beta, theta, cap, m0 = case
    q = cap * float(d @ d)
    assume(q > 0.0)
    powers = _powers(theta)
    m, lam, point, value, _ = _armijo(phi.value, x, d, beta, powers, q, cap)
    assert m == _brute_smallest_m(phi, x, d, beta, theta, q, cap=cap, max_m=60)
    assert lam == pytest.approx(theta ** m, rel=1e-12)
    bm, blam, bpoint, bvalue, trials = _armijo(phi.value, x, d, beta, powers, q, cap, m0)
    assert (bm, blam, bpoint.tobytes(), bvalue) == (m, lam, point.tobytes(), value)
    # upward the search stops at the first pass; downward it needs one failure
    assert trials <= (m - m0 + 1 if m > m0 else m0 - m + 2)


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
def test_armijo_trial_point_bits(case):
    """A unit step (theta^0 * cap = 1) accepted at m = 0 returns the bytes of
    x + d, which are those of 1.0 * d + x; any other step t returns the bytes
    of t * d + x.  A value that always passes makes m the first power with
    step <= 1.  Entries are NaN-free: x + d and d + x may keep different NaN
    payloads, and an accepted trial has a finite value.  inf - inf and
    overflow give the same NaN or inf in every form."""
    x, d, cap = case
    powers = _powers(0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        m, lam, point, _, _ = _armijo(lambda v: 0.0, x, d, 0.5, powers, 1.0, cap, 0, 1.0)
        t = lam * cap
        want = t * d
        want += x
    assert t <= 1.0 and (m == 0 or powers[m - 1] * cap > 1.0)
    assert point.tobytes() == want.tobytes()
    if t == 1.0:
        with np.errstate(invalid="ignore"):
            assert point.tobytes() == (x + d).tobytes()


def test_armijo_raises_line_search_failure():
    phi = _half_tsq()
    with pytest.raises(LineSearchFailure):
        _armijo(phi.value, np.array([1.0]), np.array([-1.0]), 0.9, _powers(0.5, 1), 1.0, 1.0)


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
        dict(max_inner_per_l=0), dict(max_linesearch_m=0),
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
        project_box(np.zeros(2), BoxSet(np.ones(2), np.full(2, 2.0))), [1.0, 1.0]
    )
    for max_iter in (1, 2, 3):
        trace = run_gpm(halfnorm_box, 0.5, np.array([2.0, 2.0]), max_iter)
        assert_allclose(trace.final_point, [1.0, 1.0], rtol=0, atol=0)
    assert trace.min_observed_lambda == 0.5
    assert trace.counters.inner_iterations == 3
    assert [r.cum_inner for r in trace.outer_records] == [0, 1, 2, 3]


def test_gpm_stalls_at_stationary_start():
    """A zero-gradient start never moves: value converges, iterates need not
    approach the minimal-norm solution."""
    gp = bundled_problem("illposed_box(2)")
    x0 = np.array([1.0, 0.0])
    trace = run_gpm(gp.problem, 0.5, x0, 50)
    assert_allclose(trace.final_point, x0, rtol=0, atol=0)
    assert len(trace.outer_records) == 51
    for rec in trace.outer_records:
        assert rec.dist_xstar == trace.outer_records[0].dist_xstar
        assert rec.delta_wl == 0.0
    assert trace.outer_records[-1].dist_xstar == pytest.approx(math.sqrt(0.5))


def test_gpm_validation(halfnorm_box):
    for lam in (2.0, 0.0, -0.5):
        with pytest.raises(ValueError):
            run_gpm(halfnorm_box, lam, np.array([1.5, 1.5]), 5)
    with pytest.raises(ValueError):
        run_gpm(halfnorm_box, 0.5, np.array([5.0, 5.0]), 5)


def test_iterreg_first_step_hits_minimal_norm_corner(box12_zero):
    trace = run_iterreg(box12_zero, IterRegSchedule(0.25), np.array([2.0, 2.0]), 1)
    assert_allclose(trace.final_point, [1.0, 1.0], rtol=0, atol=0)
    assert trace.min_observed_lambda == 1.0


def test_iterreg_converges_to_minimal_norm_solution():
    gp = bundled_problem("illposed_box(2)")
    trace = run_iterreg(gp.problem, IterRegSchedule(0.25), np.array([1.0, 0.0]), 10**4)
    assert trace.outer_records[-1].dist_xstar < 0.1


def test_iterreg_validation(box12_zero):
    with pytest.raises(ValueError):
        IterRegSchedule(0.6)
    with pytest.raises(ValueError):
        run_iterreg(box12_zero, IterRegSchedule(0.25), np.array([0.0, 0.0]), 5)


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
        project_simplex(np.array([2.0, 0.0, 0.0]), SimplexSet(3)), [1.0, 0.0, 0.0]
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
    project_only = FeasibleSet(project_fn=project_simplex, dimension=3)
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
    consts = gprm_constants(gp.analytic_L, SCHED.epsilon0)
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
    was measured no faster."""
    gp = bundled_problem(label)
    w0 = np.array(w0)
    if method == "gprm":
        run, consts = run_gprm, gprm_constants(gp.analytic_L, SCHED.epsilon0)
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

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith(methods_file):
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


def _run_on_simplex(method, x0, observe=None):
    """A short run of method on illposed_simplex(3) from x0; observe goes to
    the two-level methods."""
    gp = bundled_problem("illposed_simplex(3)")
    p, stop = gp.problem, StopPolicy(epsilon_min=1e-2)
    if method == "gpm":
        return run_gpm(p, 0.5, x0, 20)
    if method == "iterreg":
        return run_iterreg(p, IterRegSchedule(0.25), x0, 20)
    if method == "cgm":
        return run_cgm(p, 0.5, x0, 20)
    if method == "gprm":
        return run_gprm(p, SCHED, gprm_constants(gp.analytic_L, SCHED.epsilon0), x0, stop,
                        observe)
    consts = cgrm_constants(p, SCHED.epsilon0, np.array([1.0, 0.0, 0.0]))
    return run_cgrm(p, SCHED, consts, x0, stop, observe)


FIVE_METHODS = ["gpm", "iterreg", "cgm", "gprm", "cgrm"]


@pytest.mark.parametrize("method", FIVE_METHODS)
def test_wrong_length_start_raises(method):
    # sums to 1 with no negative entry, so only the dimension check can reject it
    with pytest.raises(ValueError, match="wrong dimension"):
        _run_on_simplex(method, np.full(4, 0.25))


@pytest.mark.parametrize("method", FIVE_METHODS)
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


@pytest.mark.parametrize("method", FIVE_METHODS)
def test_default_trace_holds_one_n_vector(method):
    """At n = 2**17 a default trace holds its final point and bytes per record,
    so its memory follows neither the run length nor the number of levels."""
    n = 2**17
    gp = (make_illposed_simplex if method in ("cgm", "cgrm") else make_illposed_box)(n)
    p, w0 = gp.problem, default_start(gp, method)
    runs = {
        "gpm": lambda: run_gpm(p, 1.0 / n, w0, 50),
        "iterreg": lambda: run_iterreg(p, IterRegSchedule(0.25), w0, 50),
        "cgm": lambda: run_cgm(p, 0.5, w0, 50),
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


def test_gprm_step_peaks_at_five_n_vectors():
    """Above its start, a gprm run on illposed_box(10**5) holds at most five
    n-vectors at once: its x, the last level's y and d, the gradient that the
    step turns into x - phi'(x) and then into d, and the new y.  Half a vector
    of slack covers the scalar bookkeeping."""
    n = 10**5
    gp = make_illposed_box(n)
    p, w0 = gp.problem, default_start(gp, "gprm")
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trace = _two_level_run("gprm", p, w0, StopPolicy())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.counters.inner_iterations > 5
    assert peak - start <= 5.5 * 8 * n


def _accepted_steps(seen):
    """(iterate, next iterate of the same level) pairs: every observed iterate
    but a level's last took a step, and the next one's x is the point it accepted."""
    return [(s, t) for s, t in zip(seen, seen[1:]) if t.level == s.level]


@st.composite
def _rankdef_case(draw):
    """A make_rankdef_lsq problem in dimension 2-4 on a random box or the
    simplex, whose A has a zero row and whose b = A x_feas for an x_feas
    inside the set, and a vertex of the set to start from.  Draws whose
    ground truth the generator refuses to hand out are rejected: the
    invariants checked here do not need it."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    A = draw(arrays(np.float64, (m, n), elements=st.floats(-2.0, 2.0)))
    A[draw(st.integers(0, m - 1))] = 0.0
    assume(np.linalg.norm(A, 2) > 0.1)
    unit = draw(arrays(np.float64, n, elements=st.floats(0.1, 0.9)))
    if draw(st.booleans()):
        lower = draw(arrays(np.float64, n, elements=st.floats(-2.0, 0.5)))
        upper = lower + draw(arrays(np.float64, n, elements=st.floats(0.25, 2.0)))
        fs = BoxSet(lower, upper).to_feasible_set()
        x_feas = lower + unit * (upper - lower)
        w0 = np.where(draw(arrays(np.bool_, n)), upper, lower)
    else:
        fs = SimplexSet(n).to_feasible_set()
        x_feas = unit / unit.sum()
        w0 = np.eye(n)[draw(st.integers(0, n - 1))]
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


@settings(max_examples=20)
@given(_rankdef_case())
@example(_far_target())
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
            phi_x = PerturbedObjective(problem.objective, s.epsilon, SCHED.epsilon0).value(s.x)
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
            phi = PerturbedObjective(gp.problem.objective, s.epsilon, SCHED.epsilon0).value
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
    ok_box = gprm_constants(gp_box.analytic_L, 1.0)
    ok_simplex = cgrm_constants(gp_simplex.problem, 1.0, np.array([1.0, 0.0, 0.0]))

    low_L = gprm_constants(0.1, 0.5)  # Lprime = 0.6 < L = 2
    with pytest.raises(ValueError):
        run_gprm(gp_box.problem, SCHED, low_L, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        run_gprm(gp_box.problem, SCHED, ok_box, np.array([5.0, 5.0]))
    # Lprime = 2.5 covers L = 2 but not L + epsilon0 = 3 under SCHED
    with pytest.raises(ValueError, match="below L \\+ epsilon0"):
        run_gprm(gp_box.problem, SCHED, gprm_constants(gp_box.analytic_L, 0.5),
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
        run_gprm(gp_box.problem, SCHED, gprm_constants(gp_box.analytic_L, 1.0),
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
        run, consts = run_gprm, gprm_constants(gp.analytic_L, SCHED.epsilon0)
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


def test_armijo_null_unit_step_raises():
    """A direction that vanishes against x rounds even the unit step back to
    x; no floor on the multiplier would catch that step."""
    phi = _half_tsq()
    with pytest.raises(LineSearchFailure, match="multiplier 1.0 leaves x unchanged"):
        _armijo(phi.value, np.array([1.0]), np.array([-1e-20]), 0.5, _powers(0.5), 1e-40, 1.0)


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


def test_bracketed_search_cuts_trials_and_keeps_the_run(monkeypatch):
    """gprm on illposed_box(4096), L' = 4097: each search starts from the last
    accepted power instead of scanning down from the unit step, ends at the
    same point and needs under a quarter of the scan's trials."""
    cfg = ExperimentConfig("illposed_box(4096)", "gprm")
    bracketed = run_experiment(cfg)
    armijo = solvers._armijo

    def scan_from_unit_step(*args):
        return armijo(*args[:7], 0, *args[8:])

    monkeypatch.setattr(solvers, "_armijo", scan_from_unit_step)
    scanned = run_experiment(cfg)
    assert bracketed.final_point.tobytes() == scanned.final_point.tobytes()
    assert bracketed.counters.inner_iterations == scanned.counters.inner_iterations
    assert 4 * bracketed.counters.linesearch_trials <= scanned.counters.linesearch_trials


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
    for method in FIVE_METHODS:
        trace = _run_on_simplex(method, np.array([0.0, 0.0, 1.0]))
        r = trace.final_point - gp.problem.known_xstar_n
        assert math.sqrt(r.dot(r)) == trace.outer_records[-1].dist_xstar, method
    for method in ("gprm", "cgrm"):
        x0 = np.array([0.0, 0.0, 1.0])
        none_run = _two_level_run(method, gp.problem, x0, StopPolicy(epsilon_min=2.0))
        assert none_run.outer_records == []
        assert_allclose(none_run.final_point, x0, rtol=0, atol=0)
