"""Tests for problem generators, complexity measurement, and serialization."""

import dataclasses
import gc
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from tikgrad import acceptance, bench
from tikgrad.bench import (
    DEFAULT_ALPHA_GRID,
    ComplexityReport,
    ConfigError,
    ExperimentConfig,
    bound_constants,
    bundled_problem,
    default_start,
    make_illposed_box,
    make_illposed_simplex,
    make_rankdef_lsq,
    measure_complexity,
    read_trace_csv,
    run_experiment,
    sidecar_path,
    with_bounds,
    write_sidecar,
    write_trace_csv,
)
from tikgrad.core import LineSearchFailure, OracleCounters, OracleFailure
from tikgrad.oracles import BoxSet
from tikgrad.regularization import GeometricSchedule
from tikgrad.solvers import (
    MethodConstants,
    OuterRecord,
    SolverTrace,
    StopPolicy,
    cgrm_constants,
    gprm_constants,
    run_cgm,
    run_cgrm,
    run_gpm,
    run_gprm,
)


# ---------------------------------------------------------------------------
# generators


def test_illposed_box_frozen_values():
    gp = make_illposed_box(2)
    assert_allclose(gp.analytic_xstar_n, [0.5, 0.5], rtol=0, atol=0)
    assert gp.problem.objective.lipschitz_L == 2.0
    assert gp.problem.known_fstar == 0.0
    gp3 = make_illposed_box(3)
    assert_allclose(gp3.analytic_xstar_n, np.full(3, 1.0 / 3.0))
    assert gp3.problem.objective.lipschitz_L == 3.0
    # (1,0) also minimizes f but carries a larger norm than x*_n
    other = np.array([1.0, 0.0])
    assert gp.problem.objective.value_fn(other) == 0.0
    assert np.linalg.norm(other) > np.linalg.norm(gp.analytic_xstar_n)
    with pytest.raises(ValueError):
        make_illposed_box(1)


def test_illposed_simplex_frozen_values():
    gp = make_illposed_simplex(3)
    assert_allclose(gp.analytic_xstar_n, np.full(3, 1.0 / 3.0), rtol=0, atol=0)
    assert gp.problem.objective.lipschitz_L == 2.0
    assert gp.problem.objective.value_fn(gp.analytic_xstar_n) == 0.0
    assert gp.problem.objective.value_fn(np.array([0.0, 0.0, 1.0])) == 0.0
    with pytest.raises(ValueError):
        make_illposed_simplex(2)


def test_illposed_simplex_minimal_norm_by_grid():
    """Brute force: no zero-objective grid point has smaller norm than x*_n."""
    gp = make_illposed_simplex(3)
    best, best_nsq = None, math.inf
    steps = 200
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            x = np.array([i, j, steps - i - j], dtype=float) / steps
            if gp.problem.objective.value_fn(x) == 0.0:
                nsq = float(x @ x)
                if nsq < best_nsq:
                    best, best_nsq = x, nsq
    xstar_nsq = float(gp.analytic_xstar_n @ gp.analytic_xstar_n)
    assert xstar_nsq <= best_nsq + 1e-4
    assert np.linalg.norm(best - gp.analytic_xstar_n) < 1e-2


def test_rankdef_reduces_to_illposed_twins():
    box = bundled_problem("rankdef_box(2)")
    assert_allclose(box.analytic_xstar_n, [0.5, 0.5], rtol=0, atol=1e-6)
    assert_allclose(box.problem.objective.lipschitz_L, 2.0, rtol=1e-9)
    assert abs(box.problem.known_fstar) < 1e-12

    simplex = bundled_problem("rankdef_simplex(3)")
    assert_allclose(simplex.analytic_xstar_n, np.full(3, 1.0 / 3.0), rtol=0, atol=1e-6)
    assert abs(simplex.problem.known_fstar) < 1e-12


def test_rankdef_wellposed_identity_case():
    fs = BoxSet(-np.ones(2), np.ones(2)).to_feasible_set()
    gp = make_rankdef_lsq(np.eye(2), np.array([0.3, 0.4]), fs)
    assert_allclose(gp.analytic_xstar_n, [0.3, 0.4], rtol=0, atol=1e-7)
    assert_allclose(gp.problem.objective.lipschitz_L, 1.0, rtol=1e-9)


def test_rankdef_validation():
    fs = BoxSet(-np.ones(2), np.ones(2)).to_feasible_set()
    with pytest.raises(ValueError):
        make_rankdef_lsq(np.eye(2), np.array([1.0, 0.0, 0.0]), fs)
    with pytest.raises(ValueError):
        make_rankdef_lsq(np.zeros((2, 2)), np.zeros(2), fs)
    with pytest.raises(ValueError):
        make_rankdef_lsq(np.ones((2, 3)), np.zeros(2), fs)


# the six bundled labels and a second size of the two scalable problems
_QUADRATIC_LABELS = ("illposed_box(2)", "illposed_simplex(3)", "rankdef_box(2)",
                     "rankdef_simplex(3)", "wellposed_box(2)", "wellposed_simplex(3)",
                     "illposed_box(7)", "illposed_simplex(7)")


@st.composite
def _random_rankdef(draw):
    """0.5 ||A x - b||^2 on [-1, 1]^n, A with a zero row and b = A x0, x0 in the box."""
    n = draw(st.integers(2, 4))
    rows = draw(arrays(np.float64, (draw(st.integers(1, 3)), n), elements=st.floats(-2.0, 2.0)))
    assume(np.abs(rows).max() > 1e-3)  # a smaller A may have ||A||^2 = 0
    A = np.vstack([rows, np.zeros(n)])
    x0 = draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    try:
        return make_rankdef_lsq(A, A @ x0, BoxSet(-np.ones(n), np.ones(n)).to_feasible_set())
    except OracleFailure:  # no trusted ground truth for this A
        reject()


@st.composite
def _curvature_case(draw):
    gp = draw(st.sampled_from(_QUADRATIC_LABELS).map(bundled_problem) | _random_rankdef())
    vector = arrays(np.float64, gp.problem.feasible_set.dimension, elements=st.floats(-4.0, 4.0))
    return gp.problem.objective, draw(vector), draw(vector)


@settings(max_examples=60)
@given(_curvature_case())
@example((bundled_problem("illposed_box(2)").problem.objective, np.array([0.3, -2.0]), np.zeros(2)))
# Cauchy-Schwarz holds with equality: (sum d)^2 = 7 ||d||^2 = L ||d||^2
@example((bundled_problem("illposed_box(7)").problem.objective, np.linspace(-1.0, 1.0, 7),
          np.full(7, 0.5)))
def test_curvature_oracle_is_twice_the_quadratic_remainder(case):
    """curvature_fn(d) = 2 (f(x + d) - f(x) - <f'(x), d>) for every quadratic
    objective the library builds, to a relative 1e-12 of |f(x + d)| + |f(x)|
    + |<f'(x), d>|, the terms whose rounding the difference carries; and it
    lies in [0, L ||d||^2], the range the solvers check it against.  A wrong
    curvature could otherwise pass GOLDEN by deciding the same powers there."""
    obj, x, d = case
    kappa = obj.curvature_fn(d)
    fx, fxd, slope = obj.value_fn(x), obj.value_fn(x + d), float(obj.gradient_fn(x) @ d)
    assert abs(kappa - 2.0 * (fxd - fx - slope)) <= 1e-12 * (abs(fxd) + abs(fx) + abs(slope))
    assert 0.0 <= kappa <= obj.lipschitz_L * float(d @ d) * (1.0 + 1e-12)


def test_minimal_norm_oracle_cross_checks_both_orders(monkeypatch):
    """The two Dykstra orders must agree to 1e-8, or there is no ground truth."""
    real, calls = bench._dykstra, []

    def second_order_off(x0, *args):
        calls.append(args)
        return real(x0, *args) + (1e-6 if len(calls) == 2 else 0.0)

    monkeypatch.setattr(bench, "_dykstra", second_order_off)
    fs = BoxSet(-np.ones(2), np.ones(2)).to_feasible_set()
    with pytest.raises(OracleFailure, match="orders disagree"):
        make_rankdef_lsq(np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([1.0, 0.0]), fs)
    # the orders differ: each projection comes first in one of the two runs
    assert calls[0][:2] == calls[1][1::-1]


def test_minimal_norm_oracle_waits_for_the_corrections():
    """Box-first Dykstra's iterate stalls at (-0.125, -0.625), outside the box,
    after two cycles while its corrections still change; both orders must go
    on to the minimal-norm point (0, -0.75) of the slice x_1 + x_2 = -0.75."""
    fs = BoxSet((0.0, -1.0), (0.5, -0.5)).to_feasible_set()
    gp = make_rankdef_lsq([[0.0, 0.0], [1.0, 1.0]], (0.0, -0.75), fs)
    assert_allclose(gp.analytic_xstar_n, [0.0, -0.75], rtol=0, atol=1e-10)


def test_bundled_problems_resolve_and_memoize():
    wp_box = bundled_problem("wellposed_box(2)")
    assert_allclose(wp_box.analytic_xstar_n, [0.3, 0.4], rtol=0, atol=1e-7)
    wp_simplex = bundled_problem("wellposed_simplex(3)")
    assert_allclose(wp_simplex.analytic_xstar_n, [0.5, 0.3, 0.2], rtol=0, atol=1e-7)
    assert bundled_problem("illposed_box(2)") is bundled_problem("illposed_box(2)")
    for label in ("bogus(2)", "rankdef_box(3)", "illposed_box"):
        with pytest.raises(ConfigError):
            bundled_problem(label)


BUNDLED_LABELS = (
    "illposed_box(5)", "illposed_simplex(5)", "rankdef_box(2)",
    "rankdef_simplex(3)", "wellposed_box(2)", "wellposed_simplex(3)",
)


def _write_raises(a):
    """Whether a[0] = 9.0 raises ValueError; a write that goes through is undone."""
    saved = a.copy()
    try:
        a[0] = 9.0
    except ValueError:
        return True
    a[...] = saved
    return False


@pytest.mark.parametrize("label", BUNDLED_LABELS)
def test_bundled_ground_truth_and_bounds_are_read_only(label):
    """The cache hands every caller the same arrays, so x*_n and the box
    bounds must refuse writes, and later calls still see the values built."""
    gp = bundled_problem(label)
    kept = {"x*": gp.analytic_xstar_n}
    box = gp.problem.feasible_set.membership_fn.__self__
    assert isinstance(box, BoxSet) == ("box" in label)
    if "box" in label:
        kept.update(lower=box.lower, upper=box.upper)
    built = {name: a.tobytes() for name, a in kept.items()}
    for name, a in kept.items():
        assert _write_raises(a), name
    again = bundled_problem(label)
    assert again.analytic_xstar_n.tobytes() == built["x*"]
    if "box" in label:
        box = again.problem.feasible_set.membership_fn.__self__
        assert (box.lower.tobytes(), box.upper.tobytes()) == (built["lower"], built["upper"])


@pytest.mark.parametrize(
    "label", BUNDLED_LABELS + ("illposed_box(1000)", "illposed_simplex(1000)")
)
def test_default_start_is_the_start_of_a_dense_argument(label):
    """The projection reads the origin as a stride-0 view and returns what it
    returns for np.zeros, as a new, writable array; so does the LMO start."""
    fs = bundled_problem(label).problem.feasible_set
    vertex = fs.lmo_fn(np.ones(fs.dimension))
    origin = fs.project_fn(np.zeros(fs.dimension))
    for method, dense in [("cgm", vertex), ("cgrm", vertex), ("gpm", origin), ("gprm", origin)]:
        start = default_start(bundled_problem(label), method)
        assert start.dtype == dense.dtype and start.tobytes() == dense.tobytes()
        assert start.flags.writeable and start.flags.c_contiguous


def _bytes_kept_by(make, n):
    gc.collect()
    tracemalloc.start()
    try:
        gp = make(n)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return gp, kept


@pytest.mark.parametrize("make, most", [(make_illposed_box, 0.5), (make_illposed_simplex, 1.5)])
def test_illposed_problems_keep_constants_not_n_vectors(make, most):
    """Neither scalable problem keeps its constant vectors as n-vectors: the
    box bounds and x*_n are stride-0 views of one float each."""
    n = 10**5
    gp, kept = _bytes_kept_by(make, n)
    assert gp.analytic_xstar_n.strides == (0,)
    assert kept < most * 8 * n


@pytest.mark.parametrize("make", [make_illposed_box, make_illposed_simplex])
def test_illposed_gradients_are_built_from_scalars(make):
    """Neither scalable problem keeps an n-vector at all: the gradients are
    built from scalars at each call, so what the problem keeps is under half
    an n-vector."""
    n = 10**5
    _, kept = _bytes_kept_by(make, n)
    assert kept < 0.5 * 8 * n


@pytest.mark.parametrize("make, most", [(make_illposed_box, 1.05), (make_illposed_simplex, 0.05)])
def test_building_the_illposed_problems_reads_their_constants_in_o1(make, most):
    """The checks that validate the stride-0 constants (finiteness, bound
    order, membership of x*_n) read one entry of each, so building either
    problem at n = 10**6 makes no n-vector temporary; the box's one is the
    difference upper - lower that its diameter sums, whose bits depend on
    the summation order."""
    n = 10**6
    gc.collect()
    tracemalloc.start()
    try:
        make(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < most * 8 * n


@pytest.mark.parametrize("t", [0.0, -0.0, 1.5, -2.5, np.inf, -np.inf, np.nan, -np.nan])
def test_illposed_gradients_have_the_bytes_of_a_scaled_dense_vector(t):
    """The simplex gradient t (1, -1, 0, ...) is filled from the products t * 0.0,
    t * 1.0 and t * -1.0, and the box gradient s (1, ..., 1) from s: the bytes
    of t times a dense direction and s times a dense ones vector, signed
    zeros and the sign of a NaN included.  The box's sum is added in Python
    floats at n = 5 and by numpy at n = 8."""
    for n in (5, 8):
        direction = np.zeros(n)
        direction[:2] = 1.0, -1.0
        x = np.zeros(n)
        x[0] = t  # x_1 - x_2 = t - 0.0 = t
        got = make_illposed_simplex(n).problem.objective.gradient_fn(x)
        with np.errstate(invalid="ignore"):  # inf * 0.0
            want = t * direction
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        x[1] = 1.0  # sum(x) - 1 = t, -0.0 aside
        s = float(np.add.reduce(x)) - 1.0
        got = make_illposed_box(n).problem.objective.gradient_fn(x)
        assert np.array_equal(got.view(np.int64), (s * np.ones(n)).view(np.int64))


def _outcome(call):
    """call()'s bytes, "nan" for a NaN result (whose payload may differ), and
    inf's bytes where a Python float power raises OverflowError past the
    float range, as the curvature oracle returns inf there."""
    try:
        r = np.asarray(call(), dtype=np.float64)
    except OverflowError:
        r = np.asarray(math.inf)
    return "nan" if np.isnan(r.flat[0]) else r.tobytes()


_SUM_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, 1e308]),
                         st.floats(width=64))


@given(st.integers(2, 7).flatmap(lambda n: arrays(np.float64, n, elements=_SUM_ENTRIES)))
@example(np.full(4, -0.0))  # numpy's sum, like the loop's, is +0.0
@example(np.array([1e308, 1e308, -1.0]))  # the sum overflows to inf
@example(np.array([1e155, 1e155]))  # the sum is finite; (sum d)^2 raises
@example(np.array([np.inf, 1.0, -np.inf]))
# at dim 8 numpy sums pairwise, (1e16 + 1) + (-1e16 + 1) = 0, and the plain
# loop gives 1: the problem must keep numpy's sum there
@example(np.array([1e16, 1.0, -1e16, 1.0, 0.0, 0.0, 0.0, 0.0]))
def test_illposed_box_small_sums_are_numpys(x):
    """Below 8 coordinates illposed_box adds Python floats; its value,
    gradient and curvature keep the bytes of the numpy formulas."""
    n = x.size
    obj = make_illposed_box(n).problem.objective
    with np.errstate(over="ignore", invalid="ignore"):
        s = float(np.add.reduce(x)) - 1.0
        dot = float(x.dot(bench._constant(n, 1.0)))
    assert _outcome(lambda: obj.value_fn(x)) == _outcome(lambda: 0.5 * s * s)
    assert _outcome(lambda: obj.gradient_fn(x)) == _outcome(lambda: np.full(n, s))
    assert _outcome(lambda: obj.curvature_fn(x)) == _outcome(lambda: dot ** 2)


@pytest.mark.parametrize("method", ["gprm", "cgrm"])
@pytest.mark.parametrize("n", [2, 8])
def test_illposed_box_curvature_past_the_float_range_is_inf(n, method):
    """From |sum d| of about 1.34e154 on, (sum d)^2 leaves the float range: the
    curvature is inf on both sides of the 8-coordinate cutoff, not an
    OverflowError, and a run whose curvature is inf ends in the driver's
    LineSearchFailure."""
    gp = make_illposed_box(n)
    obj = gp.problem.objective
    assert obj.curvature_fn(np.full(n, 1e155)) == math.inf
    problem = dataclasses.replace(gp.problem, objective=dataclasses.replace(
        obj, curvature_fn=lambda d: obj.curvature_fn(1e160 * d)))
    w0 = np.eye(n)[0]
    consts = (gprm_constants(obj.lipschitz_L, 1.0) if method == "gprm"
              else cgrm_constants(problem, 1.0, w0))
    run = run_gprm if method == "gprm" else run_cgrm
    with pytest.raises(LineSearchFailure, match=r"^level 1: curvature along d is inf \|\|d\|\|\^2"):
        run(problem, GeometricSchedule(), consts, w0, StopPolicy())


# ---------------------------------------------------------------------------
# complexity bounds


def test_bound_constants_hand_formula():
    sched = GeometricSchedule(1.0, 0.5, 0.5)
    consts = gprm_constants(2.0, 1.0)  # Lprime = 3, gamma = 1/6
    xnorm = math.sqrt(0.5)
    C1, C2 = bound_constants("gprm", sched, consts, xnorm)
    assert_allclose(C1, 2.0 * 16.0 + 0.25, rtol=1e-15)  # 32.25
    assert_allclose(C2, C1 / (0.5 * consts.gamma), rtol=1e-15)
    with pytest.raises(ValueError):
        bound_constants("gpm", sched, consts, xnorm)


def test_bound_constants_cgrm_hand_formula():
    sched = GeometricSchedule(1.0, 0.5, 1.0)
    consts = MethodConstants(beta=0.5, theta=0.5, gamma=0.25, Lprime=3.0)
    xnorm = math.sqrt(1.0 / 3.0)
    C1, C2 = bound_constants("cgrm", sched, consts, xnorm)
    assert_allclose(C1, 7.0 / 6.0, rtol=1e-15)
    assert_allclose(C2, C1 / (0.5 * 0.25), rtol=1e-15)


def test_theoretical_bound_degenerate_and_scaling():
    sched = GeometricSchedule(1.0, 0.5, 0.5)
    consts = gprm_constants(2.0, 1.0)
    xnorm = math.sqrt(0.5)
    C1, C2 = bound_constants("gprm", sched, consts, xnorm)
    bound = lambda alpha: with_bounds(ComplexityReport((alpha,), (0,), (True,), math.nan),
                                      C1, C2, sched.nu, sched.sigma).bound_N[0]
    assert bound(C1) == 0.0
    assert bound(2.0 * C1) == 0.0
    # sigma = 0.5 makes 1+2 sigma = 2: alpha = C1/2 gives C2 (4-1)/(0.5 * 0.75)
    assert_allclose(bound(C1 / 2.0), 8.0 * C2, rtol=1e-12)
    for alpha in (0.0, math.nan):
        with pytest.raises(ValueError):
            bound(alpha)
    b1 = bound(0.01)
    b2 = bound(0.001)
    assert b2 > b1 > 0.0


# ---------------------------------------------------------------------------
# complexity measurement


def _synthetic_trace(deltas, counts):
    records, cum = [], 0
    for i, (d, n) in enumerate(zip(deltas, counts), start=1):
        cum += n
        records.append(
            OuterRecord(i, 0.5 ** i, None, n, delta_wl=d, cum_inner=cum)
        )
    return SolverTrace(records, OracleCounters(), np.zeros(1))


def test_measure_complexity_synthetic_levels():
    trace = _synthetic_trace([0.5, 0.1, 0.01], [3, 4, 5])
    report = measure_complexity(trace.outer_records, alpha_grid=(0.6, 0.05, 0.005))
    assert report.measured_N == (0, 7, 12)
    assert report.attained == (True, True, False)
    assert math.isnan(report.fitted_exponent)  # one usable point is too few


def test_measure_complexity_validation():
    trace = _synthetic_trace([0.5, 0.1], [3, 4])
    for grid in ((0.1, 0.1), (0.05, 0.1), (0.1, 0.0), (0.1, math.nan, 0.001)):
        with pytest.raises(ValueError):
            measure_complexity(trace.outer_records, alpha_grid=grid)
    empty = SolverTrace([OuterRecord(0, None, None, 0, cum_inner=0)], OracleCounters(), np.zeros(1))
    with pytest.raises(ValueError):
        measure_complexity(empty.outer_records)
    missing = _synthetic_trace([None, None], [3, 4])
    with pytest.raises(ValueError):
        measure_complexity(missing.outer_records)


def test_measure_complexity_refuses_a_non_finite_delta():
    """A NaN Delta fails every Delta >= alpha test and would count as attained."""
    for bad in (math.nan, math.inf):
        trace = _synthetic_trace([0.5, 0.1, bad], [3, 4, 5])
        with pytest.raises(ValueError, match="lacks a finite Delta"):
            measure_complexity(trace.outer_records)


@pytest.fixture(scope="module")
def gprm_box_trace():
    gp = bundled_problem("illposed_box(2)")
    sched = GeometricSchedule(1.0, 0.5, 0.5)
    consts = gprm_constants(gp.problem.objective.lipschitz_L, 1.0)
    trace = run_gprm(gp.problem, sched, consts, np.array([1.0, 0.0]),
                     stop=StopPolicy(epsilon_min=1e-4))
    return gp, sched, consts, trace


def test_measured_complexity_is_monotone_and_bounded(gprm_box_trace):
    gp, sched, consts, trace = gprm_box_trace
    report = measure_complexity(trace.outer_records)
    assert report.alpha_grid == DEFAULT_ALPHA_GRID
    assert all(b >= a for a, b in zip(report.measured_N, report.measured_N[1:]))
    C1, C2 = bound_constants("gprm", sched, consts, float(np.linalg.norm(gp.analytic_xstar_n)))
    full = with_bounds(report, C1, C2, sched.nu, sched.sigma)
    assert len(full.bound_N) == len(full.alpha_grid)
    for n, ok, bound in zip(full.measured_N, full.attained, full.bound_N):
        if ok:
            assert n <= bound


def test_gprm_exponent_falls_with_sigma():
    """Smaller sigma flattens the measured N(alpha) growth, and every fitted
    exponent stays within the matching theoretical slope plus margin."""
    grid = tuple(2.0 ** -i for i in range(10, 20))
    stop = StopPolicy(epsilon_min=1e-4)
    gp = bundled_problem("illposed_box(2)")
    fits = []
    for sigma in (1.0, 0.5, 0.25):
        sched = GeometricSchedule(1.0, 0.5, sigma)
        consts = gprm_constants(gp.problem.objective.lipschitz_L, 1.0)
        trace = run_gprm(gp.problem, sched, consts, np.array([1.0, 0.0]), stop=stop)
        report = measure_complexity(trace.outer_records, alpha_grid=grid)
        assert not math.isnan(report.fitted_exponent)
        assert report.fitted_exponent <= 1.0 + 2.0 * sigma + 0.5
        fits.append(report.fitted_exponent)
    assert fits[0] >= fits[1] >= fits[2]


# ---------------------------------------------------------------------------
# experiment runner


def test_run_experiment_gprm_defaults():
    trace = run_experiment(ExperimentConfig("illposed_box(2)", "gprm"))
    assert trace.outer_records[-1].dist_xstar < 5e-2


def test_run_experiment_gpm_stationary_start():
    cfg = ExperimentConfig("illposed_box(2)", "gpm", x0=(1.0, 0.0), max_iter=100)
    trace = run_experiment(cfg)
    assert_allclose(trace.final_point, [1.0, 0.0], rtol=0, atol=0)
    assert trace.outer_records[-1].dist_xstar == pytest.approx(math.sqrt(0.5))


def test_run_experiment_config_validation():
    with pytest.raises(ConfigError, match="nu"):
        run_experiment(ExperimentConfig("illposed_box(2)", "gprm", nu=1.2))
    with pytest.raises(ConfigError, match="method"):
        run_experiment(ExperimentConfig("illposed_box(2)", "newton"))
    with pytest.raises(ConfigError, match="problem_label"):
        run_experiment(ExperimentConfig("mystery(9)", "gprm"))
    for label in ("illposed_box(03)", "rankdef_box(02)"):
        with pytest.raises(ConfigError, match=r"problem_label: cannot parse"):
            run_experiment(ExperimentConfig(label, "gprm"))
    with pytest.raises(ConfigError, match=r"problem_label: 'illposed_box\(1\)': dim must be >= 2"):
        run_experiment(ExperimentConfig("illposed_box(1)", "gprm"))
    with pytest.raises(ConfigError, match=r"problem_label: 'illposed_simplex\(2\)'"):
        run_experiment(ExperimentConfig("illposed_simplex(2)", "cgrm"))
    with pytest.raises(ConfigError, match="x0"):
        run_experiment(ExperimentConfig("illposed_box(2)", "gpm", x0=(1.0, 0.0, 0.0)))
    with pytest.raises(ConfigError, match="lam"):
        run_experiment(ExperimentConfig("illposed_box(2)", "gpm", lam=-1.0))
    with pytest.raises(ConfigError, match="lam"):
        run_experiment(ExperimentConfig("illposed_box(2)", "gpm", lam=1.5))
    with pytest.raises(ConfigError, match="theta_k"):
        run_experiment(ExperimentConfig("illposed_simplex(3)", "cgm", theta_k=1.5))
    try:
        run_experiment(ExperimentConfig(
            "illposed_box(2)", "gprm", nu=1.2, sigma=0.0, max_iter=10
        ))
    except ConfigError as e:
        msg = str(e)
        assert "nu" in msg and "sigma" in msg
    else:
        raise AssertionError("invalid config was accepted")


# each owned config field, the library call that owns its range, and bad values
# for it: zero, negative, NaN (floats only) and just outside the range
OWNED_FIELDS = {
    "epsilon0": (lambda v: GeometricSchedule(epsilon0=v), (0.0, -1.0, math.nan, math.inf)),
    "nu": (lambda v: GeometricSchedule(nu=v), (0.0, -1.0, math.nan, 1.0)),
    "sigma": (lambda v: GeometricSchedule(sigma=v), (0.0, -1.0, math.nan, 1.5)),
    "beta": (lambda v: gprm_constants(2.0, 1.0, beta=v), (0.0, -1.0, math.nan, 1.0)),
    "theta": (lambda v: gprm_constants(2.0, 1.0, theta=v), (0.0, -1.0, math.nan, 1.0)),
    "epsilon_min": (lambda v: StopPolicy(epsilon_min=v), (0.0, -1.0, math.nan, -math.inf)),
    "max_outer": (lambda v: StopPolicy(max_outer=v), (0, -1)),
    "max_inner_per_l": (lambda v: StopPolicy(max_inner_per_l=v), (0, -1)),
    "max_linesearch_m": (lambda v: StopPolicy(max_linesearch_m=v), (0, -1, 100_001)),
}


def _owner_error(name, value):
    build = OWNED_FIELDS[name][0]
    with pytest.raises(ValueError) as info:
        build(value)
    return str(info.value)


@pytest.mark.parametrize("name", list(OWNED_FIELDS))
def test_config_errors_are_the_owners_errors(name):
    """An owned field's config error is, word for word, its library type's error."""
    for value in OWNED_FIELDS[name][1]:
        cfg = ExperimentConfig("illposed_box(2)", "gprm", **{name: value})
        with pytest.raises(ConfigError) as info:
            run_experiment(cfg)
        assert str(info.value) == _owner_error(name, value), value
    # two bad fields: both owners' errors, in field order, in one ConfigError
    cfg = ExperimentConfig("illposed_box(2)", "gprm", **{name: 0, "max_linesearch_m": 0})
    with pytest.raises(ConfigError) as info:
        run_experiment(cfg)
    expected = [_owner_error(name, 0)]
    if name != "max_linesearch_m":
        expected.append(_owner_error("max_linesearch_m", 0))
    assert str(info.value) == "; ".join(expected)


def test_run_experiment_defaults_baseline_steps():
    """Without explicit lam/theta_k the baselines run at step 1/L."""
    trace = run_experiment(ExperimentConfig("wellposed_box(2)", "gpm", max_iter=200))
    assert trace.min_observed_lambda == pytest.approx(0.25, rel=1e-9)  # L = 4
    trace = run_experiment(ExperimentConfig("wellposed_simplex(3)", "cgm", max_iter=50))
    assert trace.outer_records[-1].delta_wl < 1e-3


def test_baseline_value_rate_stays_bounded():
    """run_experiment's default baseline steps and starts are criterion 9's, so
    its sup k * Delta checkpoints come out as the suite's; a step of 1.5/L
    would give 0.07625 and 0.08296."""
    cases = (("wellposed_box(2)", "gpm", (0.050625, 0.050625)),
             ("wellposed_simplex(3)", "cgm", (0.030000000000000002, 0.030000000000000002)))
    for label, method, want in cases:
        trace = run_experiment(ExperimentConfig(label, method, max_iter=10**4))
        first, final = acceptance._rate_checkpoints(trace, 10**4)
        assert (first, final) == want, label


def test_weak_vs_strong_convergence_contrast():
    """gpm starts off the solution set, where f' is nonzero, and stalls after
    taking steps; gprm from a point of the solution set still converges."""
    weak = run_experiment(
        ExperimentConfig("illposed_box(2)", "gpm", x0=acceptance.CRITERION_3_START, max_iter=1000)
    )
    strong = run_experiment(
        ExperimentConfig("illposed_box(2)", "gprm", x0=(1.0, 0.0))
    )
    assert weak.counters.inner_iterations >= 1
    assert weak.outer_records[-1].dist_xstar > 0.7
    assert strong.outer_records[-1].dist_xstar < 5e-2


# ---------------------------------------------------------------------------
# serialization


def test_trace_csv_round_trip_is_bit_exact(tmp_path, gprm_box_trace):
    _, _, _, trace = gprm_box_trace
    path = str(tmp_path / "trace.csv")
    write_trace_csv(trace, path)
    rows = read_trace_csv(path)
    assert len(rows) == len(trace.outer_records)
    for row, rec in zip(rows, trace.outer_records):
        assert row["l"] == rec.l
        assert row["epsilon_l"] == rec.epsilon_l
        assert row["delta_l"] == rec.delta_l
        assert row["N_l"] == rec.N_l
        assert row["delta_wl"] == rec.delta_wl
        assert row["dist_xstar"] == rec.dist_xstar
        assert row["cum_inner"] == rec.cum_inner


def test_trace_csv_none_fields_serialize_empty(tmp_path):
    gp = bundled_problem("illposed_box(2)")
    trace = run_gpm(gp.problem, 0.25, np.array([0.0, 0.0]), 5)
    path = str(tmp_path / "gpm.csv")
    write_trace_csv(trace, path)
    with open(path) as fh:
        header = fh.readline().strip()
        first = fh.readline().strip()
    assert header == "l,epsilon_l,delta_l,N_l,delta_wl,dist_xstar,cum_inner"
    assert first.split(",")[1] == ""  # no epsilon for the unregularized baseline
    rows = read_trace_csv(path)
    assert rows[0]["epsilon_l"] is None and rows[0]["delta_l"] is None


def test_read_trace_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "alien.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trace_csv(str(path))


def test_run_experiment_writes_csv_and_sidecar(tmp_path):
    out = str(tmp_path / "run.csv")
    cfg = ExperimentConfig("illposed_box(2)", "gprm", output_path=out)
    trace = run_experiment(cfg)
    assert sidecar_path(out) == str(tmp_path / "run.csv.json")
    rows = read_trace_csv(out)
    assert len(rows) == len(trace.outer_records)
    with open(sidecar_path(out)) as fh:
        payload = json.load(fh)
    assert payload["config"]["problem_label"] == "illposed_box(2)"
    assert payload["config"]["method"] == "gprm"
    # each fact once: the schedule and step fields in config, the label in
    # config.problem_label, the level count in the CSV's rows with l >= 1;
    # L, f* and D* are the bundled problem's, read from its label
    assert sorted(payload) == ["config", "constants", "counters", "min_observed_lambda"]
    assert sorted(payload["constants"]) == ["C1", "C2", "Lprime", "gamma"]
    assert payload["constants"]["gamma"] == pytest.approx(1.0 / 6.0)
    assert payload["counters"]["inner_iterations"] == trace.counters.inner_iterations
    assert payload["min_observed_lambda"] == trace.min_observed_lambda
    assert sum(row["l"] >= 1 for row in rows) == len(trace.outer_records)


def test_sidecar_size_does_not_grow_with_dimension(tmp_path):
    sizes = []
    for dim in (2, 10000):
        out = tmp_path / f"box{dim}.csv"
        run_experiment(ExperimentConfig(f"illposed_box({dim})", "gprm", epsilon_min=0.1,
                                        output_path=str(out)))
        sizes.append((tmp_path / f"box{dim}.csv.json").stat().st_size)
    assert abs(sizes[1] - sizes[0]) <= 100


def test_failed_write_keeps_previous_outputs(tmp_path, monkeypatch, gprm_box_trace):
    gp, _, consts, trace = gprm_box_trace
    out = tmp_path / "run.csv"
    side = tmp_path / "run.csv.json"
    cfg = ExperimentConfig("illposed_box(2)", "gprm", epsilon_min=1e-4, output_path=str(out))
    write_trace_csv(trace, str(out))
    write_sidecar(cfg, gp, trace, consts, str(side))
    before = side.read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"config": ')
        raise RuntimeError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(RuntimeError):
        write_sidecar(cfg, gp, trace, consts, str(side))
    assert side.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.csv.json"]
