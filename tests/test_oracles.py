"""Projection and LMO oracles: frozen examples, brute-force cross-checks,
and the randomized invariant suites.

The brute-force helpers here share no code with the oracles: projections are
checked against dense grid minimization of ||x - q||, LMOs against grid or
vertex enumeration of <g, q>.
"""

import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from tikgrad.bench import _constant
from tikgrad.core import OracleFailure, as_vector
from tikgrad.oracles import _SMALL_SIMPLEX, BoxSet, SimplexSet

from ball import BallSet, lmo_ball, project_ball

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
    assert_allclose(BOX01.project(np.array([2.0, -1.0])), [1.0, 0.0])
    assert_allclose(BOX01.project(np.array([0.5, 0.5])), [0.5, 0.5])
    assert_allclose(
        BOX_SYM3.project(np.array([3.0, 0.5, -2.0])), [1.0, 0.5, -1.0]
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
        SIMPLEX3.project(np.array([0.5, 0.5, 0.5])), np.full(3, 1.0 / 3.0)
    )
    assert_allclose(SIMPLEX3.project(np.array([1.0, 0.0, 0.0])), [1.0, 0.0, 0.0])
    x = np.array([0.9, 0.6, -0.5])
    got = SIMPLEX3.project(x)
    assert_allclose(got, [0.65, 0.35, 0.0], atol=1e-12)
    # a -inf entry fails only its own support test
    assert_allclose(SIMPLEX3.project(np.array([0.9, 0.6, -np.inf])), got)
    # grid over the simplex cannot beat the threshold solution
    grid = _simplex_grid()
    best = np.min(np.sum((grid - x) ** 2, axis=1))
    assert float((got - x) @ (got - x)) <= best + 1e-5


@pytest.mark.parametrize(
    "x", [[np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0], [0.2, np.nan, np.inf]]
)
def test_project_simplex_non_finite_input_is_an_oracle_failure(x):
    # a NaN or +inf entry fails every support test; it must not surface as IndexError
    with pytest.raises(OracleFailure, match="SimplexSet.project: non-finite input"):
        SIMPLEX3.project(np.array(x))


@pytest.mark.parametrize("n", [3, 40])
def test_project_simplex_of_large_finite_input(n):
    """A top entry from about 1e16 up, or a sum past the float range, lets no
    support index pass; the projection of x - max(x), which is x's, is
    taken instead, with no RuntimeWarning on either side of _SMALL_SIMPLEX
    (numpy warnings are errors in this suite)."""
    e1 = np.eye(n)[0]
    rest = np.zeros(n - 1)
    for x, want in [(np.r_[1e16, rest], e1), (np.r_[1e308, rest - 1e308], e1),
                    (np.full(n, 1e308), np.full(n, 1.0 / n)),
                    (np.r_[np.full(n - 1, 2.2472539841349246e+307), -np.inf],
                     np.r_[np.full(n - 1, 1.0 / (n - 1)), 0.0]),
                    (np.r_[1e16, rest[:-1], -np.inf], e1)]:
        assert_allclose(SimplexSet(n).project(x), want, rtol=0, atol=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(OracleFailure, match="SimplexSet.project: non-finite input"):
            SimplexSet(n).project(np.r_[bad, 1e16, rest[1:]])
    with pytest.raises(OracleFailure, match="SimplexSet.project: non-finite input"):
        SimplexSet(n).project(np.r_[np.inf, -np.inf, rest[1:]])


# ------------------------------------------------------------------- LMOs

def test_lmo_box_examples():
    assert_allclose(BOX01.lmo(np.array([1.0, -1.0])), [0.0, 1.0])
    # zero components tie; the rule picks the lower bound
    assert_allclose(BOX01.lmo(np.zeros(2)), [0.0, 0.0])
    assert_allclose(BOX_SYM3.lmo(np.array([-2.0, 3.0, 0.5])), [1.0, -1.0, -1.0])


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
    assert_allclose(SIMPLEX3.lmo(np.array([0.2, -0.5, 0.1])), [0.0, 1.0, 0.0])
    # ties go to the smallest index
    assert_allclose(SIMPLEX3.lmo(np.ones(3)), [1.0, 0.0, 0.0])
    g = np.array([-5.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
    got = SIMPLEX3.lmo(g)
    assert_allclose(got, [1.0, 0.0, 0.0])
    vertex_values = [g[i] for i in range(3)]
    assert float(g @ got) == min(vertex_values)


# ------------------------------------------------------- randomized invariants

def _cases(rng):
    """(kind, set, projection, LMO), each oracle a function of one vector."""
    lower = rng.uniform(-2.0, 0.0, 3)
    box = BoxSet(lower, lower + rng.uniform(0.5, 2.0, 3))
    ball = BallSet(rng.uniform(-1.0, 1.0, 2), float(rng.uniform(0.5, 2.0)))
    simplex, fs = SimplexSet(4), ball.to_feasible_set()
    return [
        ("box", box, box.project, box.lmo),
        ("ball", ball, fs.project_fn, fs.lmo_fn),
        ("simplex", simplex, simplex.project, simplex.lmo),
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
            p = project(x)
            assert obj.contains(p, 1e-10)
            assert np.linalg.norm(project(p) - p) <= 1e-12


def test_projection_nonexpansive():
    rng = np.random.default_rng(23456)
    for kind, obj, project, _ in _cases(rng):
        dim = obj.dimension
        for _ in range(100):
            x = 3.0 * rng.standard_normal(dim)
            y = 3.0 * rng.standard_normal(dim)
            lhs = np.linalg.norm(project(x) - project(y))
            assert lhs <= np.linalg.norm(x - y) + 1e-12


def test_projection_variational_inequality():
    """<x - P(x), q - P(x)> <= 0 for every feasible q."""
    rng = np.random.default_rng(34567)
    for kind, obj, project, _ in _cases(rng):
        dim = obj.dimension
        for _ in range(100):
            x = 3.0 * rng.standard_normal(dim)
            p = project(x)
            for _ in range(50):
                q = _feasible(kind, obj, rng)
                assert float((x - p) @ (q - p)) <= 1e-10


def test_lmo_optimality():
    rng = np.random.default_rng(45678)
    for kind, obj, _, lmo in _cases(rng):
        dim = obj.dimension
        for _ in range(100):
            g = rng.standard_normal(dim)
            y = lmo(g)
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
        y = box.lmo(g)
        at_bound = (np.abs(y - box.lower) <= 1e-12) | (np.abs(y - box.upper) <= 1e-12)
        assert at_bound.all()
        h = rng.standard_normal(5)
        v = simplex.lmo(h)
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
    # a one-entry check of stride-0 bounds would broadcast against any length
    for s in (BoxSet(_constant(3, -1.0), _constant(3, 1.0)), BOX_SYM3, SIMPLEX3,
              BallSet(np.zeros(3), 1.0)):
        for x in (np.full(2, 0.5), np.ones(1), np.zeros((3, 1))):
            with pytest.raises(ValueError, match="expected shape"):
                s.contains(x)
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
# a -0.0 entry against a +0.0 bound stored stride-0, as the bundled bounds are:
# clip keeps the entry's zero there, np.minimum(np.maximum(...)) gives the bound's
@example((BoxSet(_constant(2, 0.0), _constant(2, 1.0)), np.array([-0.0, 0.5])))
@example((BoxSet(np.array([0.0, -1.0, -1.0]), np.ones(3)), np.array([np.nan, np.inf, -np.inf])))
def test_project_box_is_np_clip_bit_for_bit(case):
    box, x = case
    want = np.clip(x, box.lower, box.upper)
    assert _same_bits(box.project(x), want)
    assert np.array_equal(box.project(x.tolist()), want, equal_nan=True)


def _simplex_reference(x):
    """SimplexSet.project's numpy sort-and-threshold formula, for every n; where
    |u_1| >= 2, the formula on x - max(x) if max(x) is finite (no NaN or
    +inf entry), else None."""
    u = x.copy()
    u.sort()
    u = u[::-1]
    if not abs(u[0]) < 2.0:  # |u_1| >= 2, or a NaN entry (sorted first)
        return _simplex_reference(x - u[0]) if np.isfinite(u[0]) else None
    css = u.cumsum() - 1.0
    passing = (u * np.arange(1, x.size + 1) > css).nonzero()[0]
    rho = int(passing[-1])
    return np.maximum(x - css[rho] / (rho + 1.0), 0.0)


@given(st.integers(1, 2 * _SMALL_SIMPLEX).flatmap(_vectors))
@example(np.full(7, 0.1))
@example(np.array([-0.0, 0.0, -0.0, 0.0]))
@example(np.array([0.2, np.nan, 0.5]))
@example(np.array([np.inf, 0.5, -np.inf]))
@example(np.array([0.5, 0.2, -np.inf]))  # accepted: -inf only fails its own test
@example(np.array([1e308, 1e308, 0.5]))  # the sum would overflow: x - max(x)
@example(np.array([1e16, 0.0, -1e308]))  # u_1 - 1 rounds to u_1
@example(np.array([1e308, 0.0, -1e308]))  # ... and the shift overflows to -inf
@example(np.array([5e-324, -5e-324, 1e-310, 0.0]))
# unshifted, indices would pass by rounding alone before the sum overflows
# to inf and meets -inf; x - max(x) projects to (1/8, ..., 1/8, 0)
@example(np.array([2.2472539841349246e+307] * 8 + [-np.inf]))
@example(np.array([2.0, 1.5, -3.0]))  # |u_1| = 2: the first shifted input
@example(np.array([1.9999999999999998, 1.5, -3.0]))  # the last unshifted one
@example(np.array([-2.0, -2.5, -3.0]))
def test_project_simplex_is_the_numpy_formula_bit_for_bit(x):
    """Up to _SMALL_SIMPLEX entries SimplexSet.project scans Python floats; on
    both sides of that cutoff it gives the formula's bytes, or both fail.
    Where |u_1| >= 2 on an input whose largest entry is finite, both
    project x - max(x)."""
    with np.errstate(over="ignore", invalid="ignore"):
        want = _simplex_reference(x)
        for arg in (x, x.tolist()):
            if want is None:
                with pytest.raises(OracleFailure, match="SimplexSet.project: non-finite input"):
                    SimplexSet(x.size).project(arg)
            else:
                assert _same_bits(SimplexSet(x.size).project(arg), want)


@given(st.integers(1, 2 * _SMALL_SIMPLEX).flatmap(
    lambda n: arrays(np.float64, n, elements=st.floats(max_value=sys.float_info.max))))
@example(np.array([2.2472539841349246e+307] * 8 + [-np.inf]))
# unshifted, all 26 entries came back 0.375, not 1/26: the threshold was off
# by 5 ulps of u_1
@example(np.full(26, -363029131794187.5))
@example(np.full(32, 3e15) + np.linspace(-0.01, 0.01, 32))
def test_project_simplex_lands_on_the_simplex(x):
    """Every input whose largest entry u_1 is finite projects to entries >= 0
    that sum to 1 within n (n + 4) 2^-52.  The threshold is a sum of up to n
    support entries, rounded at every add, divided by the support size, and
    n entries carry its error; as x - max(x) is projected where |u_1| >= 2,
    those entries lie in (-3, 2), whatever the scale of x."""
    assume(float(x.max()) > -np.inf)
    p = SimplexSet(x.size).project(x)
    assert np.logical_and.reduce(p >= 0.0)
    n = x.size
    assert abs(float(np.add.reduce(p)) - 1.0) <= n * (n + 4) * 2.0**-52


@_FEW
@given(_box_and_vector())
def test_lmo_box_is_nested_where_bit_for_bit(case):
    box, g = case
    want = np.where(g > 0.0, box.lower, np.where(g < 0.0, box.upper, box.lower))
    assert _same_bits(box.lmo(g), want)


@_FEW
@given(st.integers(1, 6).flatmap(_vectors))
def test_lmo_simplex_picks_np_argmin_index(g):
    want = np.eye(g.size)[np.argmin(g)]
    assert _same_bits(SimplexSet(g.size).lmo(g), want)
    assert _same_bits(SimplexSet(g.size).lmo(g.tolist()), want)


_TIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf])


@st.composite
def _set_gradient_and_point(draw):
    """A box, simplex or ball with a gradient g whose entries are often tied,
    signed zeros, NaN or infinite, and a point x with -0.0 entries."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["box", "simplex", "ball"]))
    if kind == "box":
        a = draw(arrays(np.float64, n, elements=_BOUNDS))
        b = draw(arrays(np.float64, n, elements=_BOUNDS))
        s = BoxSet(np.minimum(a, b), np.maximum(a, b))
    elif kind == "simplex":
        s = SimplexSet(n)
    else:
        s = BallSet(draw(arrays(np.float64, n, elements=_BOUNDS)), 1.0)
    g = draw(arrays(np.float64, n, elements=_TIES | _ENTRIES))
    return s, g, draw(arrays(np.float64, n, elements=st.just(-0.0) | _ENTRIES))


@given(_set_gradient_and_point())
@example((SIMPLEX3, np.array([0.0, -0.0, 0.0]), np.array([-0.0, 0.5, -0.0])))  # a zero tie
@example((SIMPLEX3, np.array([1.0, np.nan, np.nan]), np.array([np.nan, -0.0, 1.0])))
@example((SIMPLEX3, np.array([np.inf, -np.inf, -np.inf]), np.array([0.0, -0.0, np.inf])))
@example((SimplexSet(1), np.array([np.nan]), np.array([-0.0])))
@example((BoxSet(np.array([-0.0, 0.0, -1.0]), np.array([0.0, 0.0, 1.0])),
          np.array([-0.0, np.nan, -np.inf]), np.array([-0.0, -0.0, np.inf])))
@example((UNIT_BALL, np.array([0.0, -0.0]), np.array([-0.0, -0.0])))  # g = 0: the center
def test_lmo_with_a_point_is_the_vertex_minus_the_point_bit_for_bit(case):
    """lmo(g, x) is the direction the conditional-gradient steps take: a new
    array with the bytes of lmo(g) - x, so that signed zeros and NaN
    payloads count, for the box, the simplex and the test ball.  A library set refuses an x of another length with ValueError."""
    s, g, x = case
    with np.errstate(over="ignore", invalid="ignore"):
        want = s.lmo(g) - x
        got = s.lmo(g, x)
    assert _same_bits(got, want)
    assert not np.shares_memory(got, x)
    if not isinstance(s, BallSet):
        with pytest.raises(ValueError):
            s.lmo(g, np.append(x, 0.5))


@st.composite
def _ball_and_vector(draw):
    n = draw(st.integers(1, 6))
    center = draw(arrays(np.float64, n, elements=_BOUNDS))
    radius = draw(st.sampled_from([1.0, 0.5]) | st.floats(1e-3, 4.0))
    return BallSet(center, radius), draw(_vectors(n))


@_FEW
@given(_ball_and_vector())
# x on the sphere, where c + (r/n)(x - c) rounds to a point other than x
@example((BallSet(np.array([-0.2]), 0.6000000000000001), np.array([0.4])))
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
@example((BOX01, np.array([-1e-10, 1.0 + 1e-10])))  # an entry exactly at -tol
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
    views; BoxSet keeps them so, but for a zero bound, which it stores dense,
    and every box oracle gives the bytes it gives with the same bounds stored
    densely.  (Where a clamped entry ties a zero bound of the other sign,
    ndarray.clip keeps the entry's zero when both bounds are stride-0, as for
    scalar bounds, and gives the bound's zero when either is dense.)"""
    n, lo, hi, x, g = case
    views = BoxSet(_constant(n, lo), _constant(n, hi))
    dense = BoxSet(np.full(n, lo), np.full(n, hi))
    assert [v.strides == (0,) for v in (views.lower, views.upper)] == [lo != 0.0, hi != 0.0]
    got, want = views.project(x), dense.project(x)
    if lo != 0.0 and hi != 0.0:
        assert _same_bits(got, x.clip(lo, hi))
    assert _same_bits(got, want)
    assert _same_bits(views.lmo(g), dense.lmo(g))
    for tol in (1e-10, 0.0):
        assert views.contains(x, tol) == dense.contains(x, tol)
    assert np.float64(views.diameter()).tobytes() == np.float64(dense.diameter()).tobytes()


@pytest.mark.parametrize("lo, hi, x, zero", [(0.0, 1.0, [-0.0, 0.5], 0.0),
                                              (-1.0, -0.0, [0.0], -0.0)],
                         ids=["lower_tie", "upper_tie"])
def test_box_projection_bytes_do_not_depend_on_how_the_bounds_are_stored(lo, hi, x, zero):
    """A zero entry tied with a zero bound of the other sign projects to the
    bound's zero whether each bound is stored dense or as a stride-0 view."""
    x = np.array(x)
    n = x.size
    for lower in (np.full(n, lo), _constant(n, lo)):
        for upper in (np.full(n, hi), _constant(n, hi)):
            got = BoxSet(lower, upper).project(x)
            assert _same_bits(got, x.clip(np.full(n, lo), np.full(n, hi)))
            assert np.float64(got[0]).tobytes() == np.float64(zero).tobytes()


_ANY = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.nan, np.inf, -np.inf]) | st.floats(width=64)


@st.composite
def _constants_and_vector(draw):
    n = draw(st.integers(1, 5))
    return n, draw(_ANY), draw(_ANY), draw(_ANY), draw(_vectors(n))


def _outcome(fn, *args):
    """What fn(*args) gives: the bytes of the arrays it returns, a verdict,
    or the ValueError it raises."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    if isinstance(out, BoxSet):
        return out.lower.tobytes(), out.upper.tobytes()
    return out.tobytes() if isinstance(out, np.ndarray) else out


@_FEW
@given(_constants_and_vector())
@example((3, np.nan, 1.0, np.nan, np.array([0.0, np.nan, 1.0])))
@example((2, -np.inf, np.inf, np.inf, np.array([-np.inf, 0.5])))
@example((4, -0.0, 0.0, -0.0, np.array([-0.0, 0.0, -1e-10, 1e-300])))
@example((3, 1.0, -1.0, 0.0, np.zeros(3)))  # lower > upper
@example((3, -1.0, 1.0, 1.0 / 3.0, np.array([1.0, 0.0, 0.0])))  # illposed_simplex(3)'s x*_n
def test_stride_0_and_dense_copies_pass_the_same_checks(case):
    """as_vector, BoxSet and the box and simplex membership tests read one
    entry of a stride-0 view, so they must accept, refuse or judge a stride-0
    constant vector exactly as its dense copy, whichever way the bounds and
    the point are stored, and as numpy's module functions judge the dense
    copy."""
    n, lo, hi, c, x = case
    lows, highs, points = [(_constant(n, v), np.full(n, v)) for v in (lo, hi, c)]
    for view, dense in (lows, highs, points, (x, x)):
        finite = _outcome(as_vector, dense)
        assert (finite[0] != "ValueError") == bool(np.all(np.isfinite(dense)))
        assert _outcome(as_vector, view) == finite
    built = [_outcome(BoxSet, a, b) for a in lows for b in highs]
    assert built.count(built[0]) == 4
    empty = np.isfinite([lo, hi]).all() and lo > hi
    assert (built[0][0] == "ValueError") == (not np.isfinite([lo, hi]).all() or empty)
    simplex = SimplexSet(n)
    for tol in (1e-10, 0.0):
        want = bool(np.all(points[1] >= -tol) and abs(float(np.sum(points[1])) - 1.0) <= tol)
        assert [simplex.contains(p, tol) for p in points] == [want, want]
        if built[0][0] == "ValueError":
            continue
        boxes = [BoxSet(a, b) for a in lows for b in highs]
        for same in (points, (x,)):
            dense = same[-1]
            want = bool(np.all(dense >= lows[1] - tol) and np.all(dense <= highs[1] + tol))
            assert [box.contains(p, tol) for box in boxes for p in same] == [want] * 4 * len(same)
