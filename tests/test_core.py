"""Container validation, Lipschitz estimation, and the gradient-check test helper."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tikgrad.bench import bundled_problem
from tikgrad.core import (
    FeasibleSet,
    Objective,
    OracleCounters,
    OracleFailure,
    Problem,
    as_vector,
    estimate_lipschitz_quadratic,
)

from gradient_check import check_gradient


def _quadratic():
    return Objective(lambda x: 0.5 * float(x @ x), lambda x: x.copy(), 1.0)


def test_check_gradient_quadratic():
    err = check_gradient(_quadratic(), np.array([1.0, 2.0]), 1e-6)
    assert err < 1e-8


def test_check_gradient_linear():
    c = np.array([3.0, -1.0])
    obj = Objective(lambda x: float(c @ x), lambda x: c.copy(), 1.0)
    err = check_gradient(obj, np.array([0.4, 7.0]), 1e-6)
    assert err < 1e-10


def test_check_gradient_rank_deficient_lsq():
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    b = np.array([1.0, 0.0])
    obj = Objective(
        lambda x: 0.5 * float((A @ x - b) @ (A @ x - b)),
        lambda x: A.T @ (A @ x - b),
        2.0,
    )
    x = np.array([1.0, 0.0])
    # the hand gradient A^T(Ax - b) vanishes at this x
    assert_allclose(obj.gradient_fn(x), np.zeros(2), atol=1e-15)
    assert check_gradient(obj, x, 1e-6) < 1e-7


def test_check_gradient_stencil_width_bounds():
    obj = _quadratic()
    x = np.array([1.0, 2.0])
    for h in (1e-2, 0.5, 1e-10, 1e-11, 0.0, -1e-6):
        with pytest.raises(ValueError):
            check_gradient(obj, x, h)


def test_check_gradient_nonfinite_value():
    obj = Objective(lambda x: float("nan"), lambda x: np.zeros_like(x), 1.0)
    with pytest.raises(OracleFailure):
        check_gradient(obj, np.array([0.0]))


def test_check_gradient_randomized_quadratics():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        obj = Objective(
            lambda x, A=A, b=b: 0.5 * float((A @ x - b) @ (A @ x - b)),
            lambda x, A=A, b=b: A.T @ (A @ x - b),
            float(np.linalg.norm(A, 2) ** 2),
        )
        assert check_gradient(obj, rng.standard_normal(n), 1e-6) < 1e-6


def test_estimate_lipschitz_identity():
    assert_allclose(estimate_lipschitz_quadratic(np.eye(2)), 1.0, rtol=1e-9)


def test_estimate_lipschitz_diagonal():
    assert_allclose(
        estimate_lipschitz_quadratic(np.array([[2.0, 0.0], [0.0, 1.0]])), 4.0, rtol=1e-9
    )


def test_estimate_lipschitz_rank_one():
    # A^T A = [[1,1],[1,1]] has eigenvalues {0, 2}
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert_allclose(estimate_lipschitz_quadratic(A), 2.0, rtol=1e-9)


def test_estimate_lipschitz_random_crosscheck():
    rng = np.random.default_rng(11)
    for _ in range(20):
        A = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        want = float(np.linalg.eigvalsh(A.T @ A).max())
        assert_allclose(estimate_lipschitz_quadratic(A), want, rtol=1e-7, atol=1e-12)


def test_estimate_lipschitz_rejects_bad_input():
    with pytest.raises(ValueError):
        estimate_lipschitz_quadratic(np.ones(3))
    with pytest.raises(ValueError):
        estimate_lipschitz_quadratic(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_as_vector_shapes_and_finiteness():
    assert_allclose(as_vector([1, 2]), np.array([1.0, 2.0]))
    assert as_vector(np.array([[3.0]])).shape == (1,)
    with pytest.raises(ValueError):
        as_vector(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        as_vector(np.eye(2))


def test_feasible_set_needs_an_oracle():
    with pytest.raises(ValueError):
        FeasibleSet()
    with pytest.raises(ValueError):
        FeasibleSet(project_fn=lambda x: x, diameter_B=-1.0)


def test_problem_rejects_ground_truth_mismatch():
    obj = _quadratic()
    fs = FeasibleSet(project_fn=lambda x: x, membership_fn=lambda x, tol: True)
    with pytest.raises(ValueError):
        Problem(obj, fs, known_fstar=0.0, known_xstar_n=np.array([1.0, 0.0]))


def test_problem_rejects_infeasible_xstar():
    obj = _quadratic()
    fs = FeasibleSet(project_fn=lambda x: x, membership_fn=lambda x, tol: False)
    with pytest.raises(ValueError):
        Problem(obj, fs, known_xstar_n=np.zeros(2))


def test_counters_as_dict():
    c = OracleCounters()
    c.gradient_evals += 3
    c.projections += 2
    c.inner_iterations += 2
    d = c.as_dict()
    assert d["gradient_evals"] == 3 and d["projections"] == 2
    assert set(d) == {
        "gradient_evals", "projections", "lmo_calls", "linesearch_trials",
        "inner_iterations",
    }


def test_bundled_objectives_are_midpoint_convex():
    """f(0.5 x + 0.5 y) <= 0.5 f(x) + 0.5 f(y) on random feasible pairs."""
    rng = np.random.default_rng(3)
    labels = (
        "illposed_box(2)", "illposed_simplex(3)", "rankdef_box(2)",
        "rankdef_simplex(3)", "wellposed_box(2)", "wellposed_simplex(3)",
    )
    for label in labels:
        gp = bundled_problem(label)
        project = gp.problem.feasible_set.project_fn
        value = gp.problem.objective.value_fn
        n = gp.problem.feasible_set.dimension
        for _ in range(50):
            x = project(rng.uniform(-2.0, 2.0, n))
            y = project(rng.uniform(-2.0, 2.0, n))
            mid = value(0.5 * (x + y))
            assert mid <= 0.5 * value(x) + 0.5 * value(y) + 1e-12


def test_bundled_gradients_match_differences():
    rng = np.random.default_rng(4)
    for label in ("illposed_box(2)", "illposed_simplex(3)", "wellposed_box(2)"):
        gp = bundled_problem(label)
        project = gp.problem.feasible_set.project_fn
        n = gp.problem.feasible_set.dimension
        for _ in range(5):
            x = project(rng.uniform(-1.0, 1.0, n))
            assert check_gradient(gp.problem.objective, x, 1e-6) < 1e-7
