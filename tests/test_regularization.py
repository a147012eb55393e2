"""Tests for the perturbed objective, schedules, and the path oracle."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tikgrad.bench import bundled_problem
from tikgrad.core import FeasibleSet, Objective, OracleFailure, Problem
from tikgrad.oracles import SimplexSet, lmo_simplex
from tikgrad.regularization import (
    GeometricSchedule,
    PathCheckReport,
    PerturbedObjective,
    TikhonovRecord,
    path_check,
    tikhonov_solve,
)

from path_helpers import tikhonov_path

BUNDLED_LABELS = (
    "illposed_box(2)", "illposed_simplex(3)", "rankdef_box(2)",
    "rankdef_simplex(3)", "wellposed_box(2)", "wellposed_simplex(3)",
)


def _linear_objective(c):
    c = np.asarray(c, dtype=float)
    return Objective(lambda x: float(c @ x), lambda x: c.copy(), 1.0)


# ---------------------------------------------------------------------------
# perturbed objective


def test_perturbed_value_linear_objective():
    p = PerturbedObjective(_linear_objective([1.0, 0.0]), 2.0)
    assert p.value(np.array([1.0, 1.0])) == 3.0


def test_perturbed_value_zero_epsilon_is_base():
    obj = Objective(lambda x: float(x @ x) + 7.0, lambda x: 2.0 * x, 2.0)
    p = PerturbedObjective(obj, 0.0)
    for x in (np.array([0.3, -1.2]), np.zeros(2), np.array([5.0, 5.0])):
        assert p.value(x) == obj.value_fn(x)


def test_perturbed_value_quadratic():
    obj = Objective(lambda x: 0.5 * float(x @ x), lambda x: x.copy(), 1.0)
    p = PerturbedObjective(obj, 1.0)
    assert p.value(np.array([2.0, 0.0])) == 4.0


def test_perturbation_weight_validation():
    obj = _linear_objective([1.0])
    # the weight must be finite and non-negative
    for epsilon in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            PerturbedObjective(obj, epsilon)


# ---------------------------------------------------------------------------
# schedules


def test_geometric_schedule_frozen_values():
    assert GeometricSchedule(1.0, 0.5, 1.0).params(2) == (0.25, 0.0625)
    eps0, sigma = 0.7, 0.5
    assert GeometricSchedule(eps0, 0.5, sigma).params(0) == (
        eps0,
        eps0 ** (1.0 + sigma),
    )
    assert GeometricSchedule(1.0, 0.5, 0.5).params(4) == (0.0625, 0.015625)


def test_geometric_schedule_validation():
    for nu in (0.0, 1.0, 1.2):
        with pytest.raises(ValueError):
            GeometricSchedule(1.0, nu, 0.5)
    for sigma in (0.0, 1.2):
        with pytest.raises(ValueError):
            GeometricSchedule(1.0, 0.5, sigma)
    for eps0 in (0.0, -1.0):
        with pytest.raises(ValueError):
            GeometricSchedule(eps0, 0.5, 0.5)
    GeometricSchedule(1.0, 0.5, 1.0)  # sigma = 1 is inside the allowed range
    with pytest.raises(ValueError):
        GeometricSchedule().params(-1)


def test_schedule_ratio_decreases_monotonically():
    """delta_l / eps_l equals eps_l^sigma and falls monotonically toward 0."""
    for nu in (0.3, 0.5, 0.9):
        for sigma in (0.25, 0.5, 1.0):
            s = GeometricSchedule(1.0, nu, sigma)
            ratios = []
            for l in range(51):
                eps, delta = s.params(l)
                ratio = delta / eps
                assert_allclose(ratio, eps ** sigma, rtol=1e-12)
                ratios.append(ratio)
            assert all(b < a for a, b in zip(ratios, ratios[1:]))
            assert ratios[-1] < 0.5 * ratios[0]
    canonical = GeometricSchedule(1.0, 0.5, 0.5)
    eps, delta = canonical.params(50)
    assert delta / eps < 1e-7


# ---------------------------------------------------------------------------
# path oracle


def test_tikhonov_solve_interior_minimizer(ball_linear):
    rec = tikhonov_solve(ball_linear, 2.0)
    assert_allclose(rec.z, [-0.5, 0.0], rtol=0, atol=1e-9)
    assert rec.epsilon == 2.0
    assert rec.residual <= 1e-10

    # brute-force: phi_eps(z) beats a fine polar grid over the whole disk
    r = np.linspace(0.0, 1.0, 401)
    t = np.linspace(0.0, 2.0 * np.pi, 1257)
    rr, tt = np.meshgrid(r, t)
    x1, x2 = rr * np.cos(tt), rr * np.sin(tt)
    grid_vals = x1 + 0.5 * 2.0 * (x1 ** 2 + x2 ** 2)
    z_val = rec.z[0] + float(rec.z @ rec.z)
    assert z_val <= grid_vals.min() + 1e-5


def test_tikhonov_solve_boundary_minimizer(ball_linear):
    rec = tikhonov_solve(ball_linear, 0.5)
    assert_allclose(rec.z, [-1.0, 0.0], rtol=0, atol=1e-9)

    # brute-force: z beats every point of a fine boundary grid
    t = np.linspace(0.0, 2.0 * np.pi, 200001)
    boundary_vals = np.cos(t) + 0.25
    z_val = rec.z[0] + 0.25 * float(rec.z @ rec.z)
    assert z_val <= boundary_vals.min() + 1e-9


def test_tikhonov_solve_box_minimal_norm(box12_zero):
    for eps in (2.0, 0.5, 1e-3):
        rec = tikhonov_solve(box12_zero, eps)
        assert_allclose(rec.z, [1.0, 1.0], rtol=0, atol=1e-8)
        assert box12_zero.feasible_set.contains(rec.z)


def test_tikhonov_record_certification_threshold():
    TikhonovRecord(1.0, np.zeros(2), 1e-10)
    with pytest.raises(ValueError):
        TikhonovRecord(1.0, np.zeros(2), 2e-10)
    with pytest.raises(ValueError):
        TikhonovRecord(1.0, np.zeros(2), -1e-12)


def test_tikhonov_solve_validation(ball_linear):
    for eps in (0.0, -1.0):
        with pytest.raises(ValueError):
            tikhonov_solve(ball_linear, eps)

    lmo_only = FeasibleSet(
        lmo_fn=lambda g: lmo_simplex(g, SimplexSet(2)),
        diameter_B=np.sqrt(2.0),
        dimension=2,
    )
    with pytest.raises(ValueError):
        tikhonov_solve(Problem(_linear_objective([1.0, 0.0]), lmo_only), 1.0)

    no_dim = FeasibleSet(project_fn=lambda x: np.clip(x, 0.0, 1.0))
    prob = Problem(_linear_objective([1.0, 0.0]), no_dim)
    with pytest.raises(ValueError):
        tikhonov_solve(prob, 1.0)
    rec = tikhonov_solve(prob, 1.0, x0=np.array([0.5, 0.5]))
    assert_allclose(rec.z, [0.0, 0.0], rtol=0, atol=1e-9)


def test_tikhonov_solve_iteration_cap(ball_linear):
    with pytest.raises(OracleFailure):
        tikhonov_solve(ball_linear, 0.5, max_iter=2)


def test_tikhonov_path_warm_start_matches_cold(ball_linear):
    grid = [2.0, 1.0, 0.5]
    path = tikhonov_path(ball_linear, grid)
    assert [rec.epsilon for rec in path] == grid
    for rec, eps in zip(path, grid):
        cold = tikhonov_solve(ball_linear, eps)
        assert_allclose(rec.z, cold.z, rtol=0, atol=1e-9)
        assert rec.residual <= 1e-10


def _path_pair(problem, mu, eta, z_mu=None):
    """path_check on z(mu) (solved unless given) and z(eta) warm-started there."""
    if z_mu is None:
        z_mu = tikhonov_solve(problem, mu).z
    return path_check(problem, mu, eta, z_mu, tikhonov_solve(problem, eta, x0=z_mu).z)


def test_path_check_ball_pair(ball_linear):
    report = _path_pair(ball_linear, 0.5, 2.0)
    assert report.all_ok
    assert np.linalg.norm(tikhonov_solve(ball_linear, 2.0).z) == pytest.approx(0.5, abs=1e-9)
    assert np.linalg.norm(tikhonov_solve(ball_linear, 0.5).z) == pytest.approx(1.0, abs=1e-9)


def test_path_check_constant_path_equalities(box12_zero):
    report = _path_pair(box12_zero, 0.1, 1.0)
    assert report.all_ok
    # z(0.1) = z(1) = (1,1): both value inequalities collapse to equality
    assert abs(report.value_decrease_slack) <= 1e-8
    assert abs(report.norm_monotone_slack) <= 1e-8


def test_path_check_validation(ball_linear):
    z = np.zeros(2)
    with pytest.raises(ValueError):
        path_check(ball_linear, 0.5, 0.5, z, z)
    with pytest.raises(ValueError):
        path_check(ball_linear, 2.0, 0.5, z, z)


@pytest.mark.parametrize("nan_at", range(3))
def test_path_check_nan_slack_fails(nan_at):
    """all_ok tests each slack, so a NaN in any position fails it; max() of the
    slacks would drop a NaN that is not its first argument."""
    slacks = [0.0, -1.0, 1e-8]
    assert PathCheckReport(*slacks).all_ok
    slacks[nan_at] = math.nan
    assert not PathCheckReport(*slacks).all_ok


def test_path_check_against_zero_limit(box12_zero):
    assert _path_pair(box12_zero, 0.0, 0.5, box12_zero.known_xstar_n).all_ok
    gp = bundled_problem("illposed_box(2)")
    assert _path_pair(gp.problem, 0.0, 1.0, gp.problem.known_xstar_n).all_ok


@pytest.fixture(scope="module")
def bundled_paths():
    grid = [2.0 ** -i for i in range(11)]
    out = {}
    for label in BUNDLED_LABELS:
        gp = bundled_problem(label)
        out[label] = (gp, tikhonov_path(gp.problem, grid))
    return out


def test_path_converges_to_minimal_norm_solution(bundled_paths):
    tol = 1e-11
    for label, (gp, path) in bundled_paths.items():
        dists = [float(np.linalg.norm(rec.z - gp.problem.known_xstar_n)) for rec in path]
        for a, b in zip(dists, dists[1:]):
            assert b <= a + 10.0 * tol, label
        assert dists[-1] < 1e-2, (label, dists[-1])


def test_path_norms_monotone_on_bundled_problems(bundled_paths):
    """The larger weight of every adjacent grid pair has the smaller norm."""
    for label, (_, path) in bundled_paths.items():
        norms = [float(np.linalg.norm(rec.z)) for rec in path]
        for larger_eps, smaller_eps in zip(norms, norms[1:]):
            assert larger_eps <= smaller_eps + 1e-8, label


def test_perturbed_strong_convexity_inequality(ball_linear):
    """phi_eps(y) >= phi_eps(x) + <grad(x), y-x> + 0.5 eps ||y-x||^2."""
    rng = np.random.default_rng(12)
    problems = [ball_linear, bundled_problem("illposed_box(2)").problem,
                bundled_problem("illposed_simplex(3)").problem]
    for prob in problems:
        project = prob.feasible_set.project_fn
        n = prob.feasible_set.dimension
        for eps in (1.0, 0.1):
            p = PerturbedObjective(prob.objective, eps)
            for _ in range(50):
                x = project(rng.uniform(-2.0, 2.0, n))
                y = project(rng.uniform(-2.0, 2.0, n))
                lhs = p.value(y)
                g = prob.objective.gradient_fn(x) + eps * x
                rhs = p.value(x) + float(g @ (y - x)) + 0.5 * eps * float((y - x) @ (y - x))
                assert lhs >= rhs - 1e-10
