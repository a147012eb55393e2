"""Projection and LMO oracles: frozen examples, brute-force cross-checks,
and the randomized invariant suites.

The brute-force helpers here share no code with the oracles: projections are
checked against dense grid minimization of ||x - q||, LMOs against grid or
vertex enumeration of <g, q>.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from tikgrad.bench import _constant
from tikgrad.core import OracleFailure
from tikgrad.oracles import (
    BallSet,
    BoxSet,
    SimplexSet,
    lmo_ball,
    lmo_box,
    lmo_simplex,
    project_ball,
    project_box,
    project_simplex,
)

BOX01 = BoxSet(np.zeros(2), np.ones(2))
BOX_SYM3 = BoxSet(-np.ones(3), np.ones(3))
UNIT_BALL = BallSet(np.zeros(2), 1.0)
SIMPLEX3 = SimplexSet(3)


def _ball_boundary(ball, n=200_001):
    angles = np.linspace(0.0, 2.0 * np.pi, n)
    return ball.center + ball.radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _simplex_grid(n=1001):
    t = np.linspace(0.0, 1.0, n)
    t1, t2 = np.meshgrid(t, t, indexing="ij")
    keep = t1 + t2 <= 1.0 + 1e-15
    return np.stack([t1[keep], t2[keep], 1.0 - t1[keep] - t2[keep]], axis=1)


# ---------------------------------------------------------------- projections

def test_project_box_examples():
    assert_allclose(project_box(np.array([2.0, -1.0]), BOX01), [1.0, 0.0])
    assert_allclose(project_box(np.array([0.5, 0.5]), BOX01), [0.5, 0.5])
    assert_allclose(
        project_box(np.array([3.0, 0.5, -2.0]), BOX_SYM3), [1.0, 0.5, -1.0]
    )


def test_project_ball_examples():
    assert_allclose(project_ball(np.array([3.0, 4.0]), UNIT_BALL), [0.6, 0.8])
    assert_allclose(project_ball(np.array([0.1, 0.0]), UNIT_BALL), [0.1, 0.0])
    ball = BallSet(np.ones(2), 1.0)
    want = 1.0 + np.sqrt(2.0) / 2.0
    got = project_ball(np.array([2.0, 2.0]), ball)
    assert_allclose(got, [want, want], rtol=1e-14)
    # independent check: no boundary point is closer
    x = np.array([2.0, 2.0])
    best = np.min(np.linalg.norm(_ball_boundary(ball) - x, axis=1))
    assert np.linalg.norm(x - got) <= best + 1e-9


def test_project_simplex_examples():
    assert_allclose(
        project_simplex(np.array([0.5, 0.5, 0.5]), SIMPLEX3), np.full(3, 1.0 / 3.0)
    )
    assert_allclose(project_simplex(np.array([1.0, 0.0, 0.0]), SIMPLEX3), [1.0, 0.0, 0.0])
    x = np.array([0.9, 0.6, -0.5])
    got = project_simplex(x, SIMPLEX3)
    assert_allclose(got, [0.65, 0.35, 0.0], atol=1e-12)
    # grid over the simplex cannot beat the threshold solution
    grid = _simplex_grid()
    best = np.min(np.sum((grid - x) ** 2, axis=1))
    assert float((got - x) @ (got - x)) <= best + 1e-5


@pytest.mark.parametrize(
    "x", [[np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0], [0.2, np.nan, np.inf]]
)
def test_project_simplex_non_finite_input_is_an_oracle_failure(x):
    # a NaN or +inf entry fails every support test; it must not surface as IndexError
    with pytest.raises(OracleFailure, match="project_simplex: non-finite input"):
        project_simplex(np.array(x), SIMPLEX3)


# ------------------------------------------------------------------- LMOs

def test_lmo_box_examples():
    assert_allclose(lmo_box(np.array([1.0, -1.0]), BOX01), [0.0, 1.0])
    # zero components tie; the rule picks the lower bound
    assert_allclose(lmo_box(np.zeros(2), BOX01), [0.0, 0.0])
    assert_allclose(lmo_box(np.array([-2.0, 3.0, 0.5]), BOX_SYM3), [1.0, -1.0, -1.0])


def test_lmo_ball_examples():
    assert_allclose(lmo_ball(np.array([3.0, 4.0]), UNIT_BALL), [-0.6, -0.8])
    assert_allclose(lmo_ball(np.zeros(2), UNIT_BALL), UNIT_BALL.center)
    ball = BallSet(np.array([2.0, 2.0]), 0.5)
    g = np.array([1.0, 0.0])
    got = lmo_ball(g, ball)
    assert_allclose(got, [1.5, 2.0], rtol=1e-14)
    best = np.min(_ball_boundary(ball) @ g)
    assert float(g @ got) <= best + 1e-9


def test_lmo_simplex_examples():
    assert_allclose(lmo_simplex(np.array([0.2, -0.5, 0.1]), SIMPLEX3), [0.0, 1.0, 0.0])
    # ties go to the smallest index
    assert_allclose(lmo_simplex(np.ones(3), SIMPLEX3), [1.0, 0.0, 0.0])
    g = np.array([-5.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
    got = lmo_simplex(g, SIMPLEX3)
    assert_allclose(got, [1.0, 0.0, 0.0])
    vertex_values = [g[i] for i in range(3)]
    assert float(g @ got) == min(vertex_values)


# ------------------------------------------------------- randomized invariants

def _cases(rng):
    lower = rng.uniform(-2.0, 0.0, 3)
    return [
        ("box", BoxSet(lower, lower + rng.uniform(0.5, 2.0, 3)), project_box, lmo_box),
        ("ball", BallSet(rng.uniform(-1.0, 1.0, 2), float(rng.uniform(0.5, 2.0))),
         project_ball, lmo_ball),
        ("simplex", SimplexSet(4), project_simplex, lmo_simplex),
    ]


def _feasible(kind, obj, rng):
    if kind == "box":
        return rng.uniform(obj.lower, obj.upper)
    if kind == "ball":
        v = rng.standard_normal(2)
        v *= obj.radius * rng.uniform() ** 0.5 / np.linalg.norm(v)
        return obj.center + v
    return rng.dirichlet(np.ones(obj.dimension))


def test_projection_idempotent_and_member():
    rng = np.random.default_rng(12345)
    for kind, obj, project, _ in _cases(rng):
        dim = obj.dimension
        for _ in range(100):
            x = 3.0 * rng.standard_normal(dim)
            p = project(x, obj)
            assert obj.contains(p, 1e-10)
            assert np.linalg.norm(project(p, obj) - p) <= 1e-12


def test_projection_nonexpansive():
    rng = np.random.default_rng(23456)
    for kind, obj, project, _ in _cases(rng):
        dim = obj.dimension
        for _ in range(100):
            x = 3.0 * rng.standard_normal(dim)
            y = 3.0 * rng.standard_normal(dim)
            lhs = np.linalg.norm(project(x, obj) - project(y, obj))
            assert lhs <= np.linalg.norm(x - y) + 1e-12


def test_projection_variational_inequality():
    """<x - P(x), q - P(x)> <= 0 for every feasible q."""
    rng = np.random.default_rng(34567)
    for kind, obj, project, _ in _cases(rng):
        dim = obj.dimension
        for _ in range(100):
            x = 3.0 * rng.standard_normal(dim)
            p = project(x, obj)
            for _ in range(50):
                q = _feasible(kind, obj, rng)
                assert float((x - p) @ (q - p)) <= 1e-10


def test_lmo_optimality():
    rng = np.random.default_rng(45678)
    for kind, obj, _, lmo in _cases(rng):
        dim = obj.dimension
        for _ in range(100):
            g = rng.standard_normal(dim)
            y = lmo(g, obj)
            assert obj.contains(y, 1e-10)
            for _ in range(50):
                q = _feasible(kind, obj, rng)
                assert float(g @ y) <= float(g @ q) + 1e-10


def test_lmo_returns_extreme_points():
    rng = np.random.default_rng(56789)
    box = BoxSet(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 3.0, 5.0]))
    simplex = SimplexSet(5)
    for _ in range(100):
        g = rng.standard_normal(3)
        y = lmo_box(g, box)
        at_bound = (np.abs(y - box.lower) <= 1e-12) | (np.abs(y - box.upper) <= 1e-12)
        assert at_bound.all()
        h = rng.standard_normal(5)
        v = lmo_simplex(h, simplex)
        assert np.sum(v) == 1.0 and np.count_nonzero(v) == 1


# -------------------------------------------------------------------- wiring

def test_to_feasible_set_wiring():
    box = BoxSet(np.zeros(2), np.array([1.0, 2.0]))
    fs = box.to_feasible_set()
    assert fs.dimension == 2
    assert_allclose(fs.diameter_B, np.sqrt(5.0))
    assert fs.contains(np.array([0.5, 0.5]), 1e-10)
    assert not fs.contains(np.array([1.5, 0.5]), 1e-10)
    assert_allclose(fs.project_fn(np.array([-1.0, 3.0])), [0.0, 2.0])
    assert_allclose(fs.lmo_fn(np.array([1.0, -1.0])), [0.0, 2.0])

    ball = BallSet(np.zeros(2), 2.0)
    fsb = ball.to_feasible_set()
    assert fsb.dimension == 2 and fsb.diameter_B == 4.0

    simplex = SimplexSet(3)
    fss = simplex.to_feasible_set()
    assert fss.dimension == 3
    assert_allclose(fss.diameter_B, np.sqrt(2.0))
    assert fss.contains(np.full(3, 1.0 / 3.0), 1e-10)
    assert not fss.contains(np.array([0.5, 0.5, 0.5]), 1e-10)


def test_shape_validation():
    with pytest.raises(ValueError):
        BoxSet(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        BallSet(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        SimplexSet(0)


# ------------------------------------- bit identity with numpy's module functions
# The oracles call ndarray methods, not numpy's module-level wrappers, to save
# per-call dispatch in the solvers' inner loops; these properties pin that the
# bits are those of the plain numpy formulation, signed zeros, ties and NaN
# included.

_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan]), st.floats(width=64))
_BOUNDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-4.0, 4.0))


# few examples each: the special values above make most of them hit an edge case
_FEW = settings(max_examples=40)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _vectors(n):
    return arrays(np.float64, n, elements=_ENTRIES)


@st.composite
def _box_and_vector(draw):
    n = draw(st.integers(1, 6))
    a = draw(arrays(np.float64, n, elements=_BOUNDS))
    b = draw(arrays(np.float64, n, elements=_BOUNDS))
    return BoxSet(np.minimum(a, b), np.maximum(a, b)), draw(_vectors(n))


@_FEW
@given(_box_and_vector())
def test_project_box_is_np_clip_bit_for_bit(case):
    box, x = case
    want = np.clip(x, box.lower, box.upper)
    assert _same_bits(project_box(x, box), want)
    assert np.array_equal(project_box(x.tolist(), box), want, equal_nan=True)


@_FEW
@given(_box_and_vector())
def test_lmo_box_is_nested_where_bit_for_bit(case):
    box, g = case
    want = np.where(g > 0.0, box.lower, np.where(g < 0.0, box.upper, box.lower))
    assert _same_bits(lmo_box(g, box), want)


@_FEW
@given(st.integers(1, 6).flatmap(_vectors))
def test_lmo_simplex_picks_np_argmin_index(g):
    want = np.eye(g.size)[np.argmin(g)]
    assert _same_bits(lmo_simplex(g, SimplexSet(g.size)), want)
    assert _same_bits(lmo_simplex(g.tolist(), SimplexSet(g.size)), want)


@st.composite
def _ball_and_vector(draw):
    n = draw(st.integers(1, 6))
    center = draw(arrays(np.float64, n, elements=_BOUNDS))
    radius = draw(st.sampled_from([1.0, 0.5]) | st.floats(1e-3, 4.0))
    return BallSet(center, radius), draw(_vectors(n))


@_FEW
@given(_ball_and_vector())
def test_ball_oracles_are_the_np_linalg_norm_formulas_bit_for_bit(case):
    """math.sqrt(v.dot(v)) is what np.linalg.norm computes for a 1-d float
    vector, so the ball oracles keep the bits of the np.linalg.norm formulas.
    Huge entries overflow the squared norm to inf in both."""
    ball, x = case
    c, r = ball.center, ball.radius
    with np.errstate(over="ignore", invalid="ignore"):
        n = float(np.linalg.norm(x - c))
        want = np.array(x, dtype=np.float64, copy=True) if n <= r else c + (r / n) * (x - c)
        assert _same_bits(project_ball(x, ball), want)
        n = float(np.linalg.norm(x))
        want = np.array(c, copy=True) if n == 0.0 else c - (r / n) * x
        assert _same_bits(lmo_ball(x, ball), want)
        assert ball.contains(x, 1e-10) == bool(np.linalg.norm(x - c) <= r + 1e-10)


@_FEW
@given(_box_and_vector())
def test_box_diameter_and_simplex_membership_keep_their_numpy_formulas(case):
    box, x = case
    assert box.diameter() == float(np.linalg.norm(box.upper - box.lower))
    simplex = SimplexSet(x.size)
    for v in (x, np.abs(x) / x.size):
        want = bool(np.all(v >= -1e-10) and abs(float(np.sum(v)) - 1.0) <= 1e-10)
        assert simplex.contains(v, 1e-10) == want


@st.composite
def _constant_box_and_vectors(draw):
    n = draw(st.integers(1, 6))
    lo, hi = sorted((draw(_BOUNDS), draw(_BOUNDS)))
    return n, lo, hi, draw(_vectors(n)), draw(_vectors(n))


@_FEW
@given(_constant_box_and_vectors())
@example((1, 0.0, 0.0, np.array([-0.0]), np.array([0.0])))  # a zero tie: clip's zeros differ
@example((4, -1.0, 1.0, np.array([-0.0, np.nan, np.inf, 1.0]), np.array([0.0, -0.0, np.nan, -1.0])))
def test_box_with_stride_0_bounds_keeps_every_bit(case):
    """The bundled boxes keep their constant bounds as read-only stride-0
    views; BoxSet keeps them so, and every box oracle gives the bytes it
    gives with the same bounds stored densely, with one exception.  Where a
    clamped entry ties a zero bound of the other sign, ndarray.clip keeps
    the entry's zero for stride-0 bounds, as for scalar bounds, and the
    bound's zero for dense ones.  The bundled bounds are -1 and 1."""
    n, lo, hi, x, g = case
    views = BoxSet(_constant(n, lo), _constant(n, hi))
    dense = BoxSet(np.full(n, lo), np.full(n, hi))
    assert views.lower.strides == views.upper.strides == (0,)
    got, want = project_box(x, views), project_box(x, dense)
    assert _same_bits(got, x.clip(lo, hi))
    if lo != 0.0 and hi != 0.0:
        assert _same_bits(got, want)
    assert np.array_equal(got, want, equal_nan=True)
    assert _same_bits(lmo_box(g, views), lmo_box(g, dense))
    for tol in (1e-10, 0.0):
        assert views.contains(x, tol) == dense.contains(x, tol)
    assert np.float64(views.diameter()).tobytes() == np.float64(dense.diameter()).tobytes()
