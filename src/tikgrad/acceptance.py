"""Executable acceptance suite: eleven criteria, one pass/fail line each.

Each criterion_* function takes a SuiteContext (which caches solver runs and
Tikhonov oracle solutions so criteria can share them) and returns a
CriterionResult.  run_all executes all eleven in order; format_line renders
the one-line verdict.  The CLI `verify` subcommand and the test suite both
drive this module, so a failure shows up identically in both places.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bench import bundled_problem, measure_complexity, with_bounds
from .oracles import BallSet, BoxSet, SimplexSet
from .regularization import GeometricSchedule, PerturbedObjective, path_check, tikhonov_solve
from .solvers import StopPolicy, cgrm_constants, gprm_constants, run_cgm, run_cgrm, run_gpm, run_gprm

__all__ = ["CriterionResult", "SuiteContext", "CRITERIA", "run_all", "format_line"]

ACCEPT_EPS_MIN = 1e-4
SIGMAS = (1.0, 0.5, 0.25)
TWO_LEVEL_CASES = tuple(
    itertools.product(("gprm", "cgrm"), ("illposed_box(2)", "illposed_simplex(3)"))
)
# finer grid than the default so the exponent fits see many attained points
EXPONENT_ALPHA_GRID = tuple(2.0**-i for i in range(10, 20))


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


class SuiteContext:
    """Lazy shared state: canonical solver runs, the first four inner iterates
    of each of their levels (for criterion 7) and Tikhonov solutions."""

    def __init__(self):
        self._runs: dict = {}
        self._z: dict = {}
        self.samples: dict = {}

    def two_level_run(self, method: str, label: str, sigma: float):
        """Run (or fetch) the canonical run; returns (gp, sched, consts, trace, seconds)."""
        key = (method, label, sigma)
        if key not in self._runs:
            gp = bundled_problem(label)
            sched = GeometricSchedule(1.0, 0.5, sigma)
            stop = StopPolicy(epsilon_min=ACCEPT_EPS_MIN)
            dim = gp.problem.feasible_set.dimension
            w0 = np.zeros(dim)
            w0[0] = 1.0  # box corner-edge point / simplex vertex; feasible for both
            if method == "gprm":
                consts = gprm_constants(gp.problem.objective.lipschitz_L, sched.epsilon0)
                run = run_gprm
            else:
                consts = cgrm_constants(gp.problem, sched.epsilon0, w0)
                run = run_cgrm
            kept = self.samples[key] = []

            def observe(l, k, eps, x, y, test):
                if k < 4:
                    kept.append((eps, x, y, test))
            t0 = time.perf_counter()
            trace = run(gp.problem, sched, consts, w0, stop, observe=observe)
            elapsed = time.perf_counter() - t0
            self._runs[key] = (gp, sched, consts, trace, elapsed)
        return self._runs[key]

    def z_oracle(self, label: str, epsilon: float) -> np.ndarray:
        """Tikhonov solution z(epsilon), warm-started down the cached grid."""
        key = (label, epsilon)
        if key not in self._z:
            gp = bundled_problem(label)
            above = [e for (lb, e) in self._z if lb == label and e > epsilon]
            x0 = self._z[(label, min(above))] if above else None
            record = tikhonov_solve(gp.problem, epsilon, x0=x0)
            self._z[key] = record.z
        return self._z[key]


def _strong_convergence(ctx: SuiteContext, number: int, name: str, method: str,
                        label: str) -> CriterionResult:
    gp, _, _, trace, elapsed = ctx.two_level_run(method, label, 0.5)
    dist = float(np.linalg.norm(trace.final_point - gp.analytic_xstar_n))
    passed = dist < 5e-2 and elapsed < 1.0
    return CriterionResult(
        number,
        name,
        passed,
        f"final dist {dist:.3e} (need < 5e-2), solver time {elapsed:.3f}s (need < 1s)",
    )


def criterion_1(ctx: SuiteContext) -> CriterionResult:
    return _strong_convergence(ctx, 1, "strong convergence, two-level gradient projection",
                               "gprm", "illposed_box(2)")


def criterion_2(ctx: SuiteContext) -> CriterionResult:
    return _strong_convergence(ctx, 2, "strong convergence, two-level conditional gradient",
                               "cgrm", "illposed_simplex(3)")


def criterion_3(ctx: SuiteContext) -> CriterionResult:
    gp = bundled_problem("illposed_box(2)")
    lam = 1.0 / gp.analytic_L
    trace = run_gpm(gp.problem, lam, np.array([1.0, 0.0]), 2000)
    d_gpm = trace.outer_records[-1].dist_xstar
    ok_gprm = criterion_1(ctx).passed
    passed = d_gpm >= 0.7 and ok_gprm
    return CriterionResult(
        3,
        "weak vs strong contrast",
        passed,
        f"fixed-step method stalls at dist {d_gpm:.3f} (need >= 0.7) "
        f"while the two-level method converges ({ok_gprm})",
    )


def criterion_4(ctx: SuiteContext) -> CriterionResult:
    checked = 0
    worst = None
    for (method, label), sigma in itertools.product(TWO_LEVEL_CASES, SIGMAS):
        gp, sched, consts, trace, _ = ctx.two_level_run(method, label, sigma)
        xnorm = float(np.linalg.norm(gp.analytic_xstar_n))
        report = with_bounds(measure_complexity(trace), method, sched, consts, xnorm)
        for alpha, n, ok, bound in zip(
            report.alpha_grid, report.measured_N, report.attained, report.bound_N
        ):
            if not ok:
                continue
            checked += 1
            if n > bound:
                worst = f"{method} {label} sigma={sigma} alpha={alpha}: N={n} > bound={bound:.3e}"
    passed = worst is None and checked > 0
    detail = worst or f"measured N <= bound at all {checked} attained grid points (12 runs)"
    return CriterionResult(4, "complexity bound compliance", passed, detail)


def criterion_5(ctx: SuiteContext) -> CriterionResult:
    worst_margin = math.inf
    worst_run = ""
    for (method, label), sigma in itertools.product(TWO_LEVEL_CASES, SIGMAS):
        _, _, consts, trace, _ = ctx.two_level_run(method, label, sigma)
        margin = trace.min_observed_lambda - consts.gamma
        if margin < worst_margin:
            worst_margin = margin
            worst_run = f"{method} {label} sigma={sigma}"
    passed = worst_margin >= 0.0
    return CriterionResult(
        5,
        "line-search step lower bound",
        passed,
        f"worst min(lambda) - gamma = {worst_margin:.3e} at {worst_run} (need >= 0)",
    )


def criterion_6(ctx: SuiteContext) -> CriterionResult:
    worst = 0
    for (method, label), sigma in itertools.product(TWO_LEVEL_CASES, SIGMAS):
        _, _, _, trace, _ = ctx.two_level_run(method, label, sigma)
        worst = max(worst, max(r.N_l for r in trace.outer_records))
    passed = worst < 10**6
    return CriterionResult(
        6, "inner-loop finiteness", passed, f"largest per-level count {worst} (need < 1e6)"
    )


def criterion_7(ctx: SuiteContext) -> CriterionResult:
    details = []
    passed = True
    for method, label in (("gprm", "illposed_box(2)"), ("cgrm", "illposed_simplex(3)")):
        gp, sched, consts, _, _ = ctx.two_level_run(method, label, 0.5)
        samples = ctx.samples[(method, label, 0.5)]
        if len(samples) < 10:
            passed = False
            details.append(f"{method}: only {len(samples)} samples")
            continue
        worst = -math.inf
        for eps, x, y, test in samples:
            z = ctx.z_oracle(label, eps)
            phi = PerturbedObjective(gp.problem.objective, eps, sched.epsilon0).value
            point = y if method == "gprm" else x
            gap = phi(point) - phi(z)
            lower = 0.5 * eps * float(np.sum((point - z) ** 2))
            # test is ||y - x|| for gprm and the gap mu for cgrm
            if method == "gprm":
                upper = (consts.Lprime + 1.0) * test * float(np.linalg.norm(point - z))
            else:
                upper = test
            worst = max(worst, lower - gap, gap - upper)
        if worst > 1e-8:
            passed = False
        details.append(f"{method}: {len(samples)} samples, worst slack {worst:.2e}")
    return CriterionResult(
        7, "regularized-gap certificates", passed, "; ".join(details) + " (need <= 1e-8)"
    )


def criterion_8(ctx: SuiteContext) -> CriterionResult:
    details = []
    passed = True
    for label in ("illposed_box(2)", "illposed_simplex(3)"):
        gp = bundled_problem(label)
        grid = [2.0**-j for j in range(11)]
        zs = [ctx.z_oracle(label, e) for e in grid]
        all_ok = True
        for j in range(len(grid) - 1):
            report = path_check(gp.problem, grid[j + 1], grid[j], zs[j + 1], zs[j])
            all_ok = all_ok and report.all_ok
        end_dist = float(np.linalg.norm(zs[-1] - gp.analytic_xstar_n))
        ok = all_ok and end_dist < 1e-2
        passed = passed and ok
        details.append(f"{label}: pairwise ok={all_ok}, end dist {end_dist:.2e}")
    return CriterionResult(8, "regularization path", passed, "; ".join(details))


def _rate_checkpoints(trace) -> tuple[float, float]:
    # Running sup of k * gap; raw per-window maxima are meaningless once the
    # gap floors at machine precision on linearly convergent runs.
    sup = 0.0
    first = final = 0.0
    for r in trace.outer_records:
        if r.l < 1:
            continue
        sup = max(sup, r.l * r.delta_wl)
        if r.l < 1000:
            first = sup
        if r.l <= 10**4:
            final = sup
    return first, final


def criterion_9(ctx: SuiteContext) -> CriterionResult:
    box = bundled_problem("wellposed_box(2)")
    trace_g = run_gpm(box.problem, 1.0 / box.analytic_L, np.zeros(2), 10**4)
    simplex = bundled_problem("wellposed_simplex(3)")
    trace_c = run_cgm(
        simplex.problem, 1.0 / simplex.analytic_L, np.array([1.0, 0.0, 0.0]), 10**4
    )
    details = []
    passed = True
    for name, trace in (("projected gradient", trace_g), ("conditional gradient", trace_c)):
        first, final = _rate_checkpoints(trace)
        ok = final <= 2.0 * first
        passed = passed and ok
        details.append(f"{name}: sup k*gap {first:.2e} (k<1000) vs {final:.2e} (k<=1e4)")
    return CriterionResult(
        9, "baseline value rates", passed, "; ".join(details) + " (need final <= 2x first)"
    )


def _feasible_sampler(kind, obj, rng):
    if kind == "box":
        return lambda: rng.uniform(obj.lower, obj.upper)
    if kind == "ball":
        def sample():
            v = rng.standard_normal(obj.dimension)
            v *= obj.radius * rng.uniform() ** (1.0 / obj.dimension) / np.linalg.norm(v)
            return obj.center + v
        return sample
    return lambda: rng.dirichlet(np.ones(obj.dimension))


def criterion_10(ctx: SuiteContext) -> CriterionResult:
    rng = np.random.default_rng(0)
    cases = [
        ("box", BoxSet(np.array([-1.0, -0.5, 0.0]), np.array([1.0, 0.5, 2.0]))),
        ("ball", BallSet(np.array([0.5, -0.5]), 1.5)),
        ("simplex", SimplexSet(4)),
    ]
    worst_idem = worst_nonexp = worst_vi = worst_lmo = 0.0
    extreme_ok = True
    for kind, obj in cases:
        fs = obj.to_feasible_set()
        dim = fs.dimension
        feasible = _feasible_sampler(kind, obj, rng)
        for _ in range(100):
            x = 2.5 * rng.standard_normal(dim)
            y = 2.5 * rng.standard_normal(dim)
            p = fs.project_fn(x)
            worst_idem = max(worst_idem, float(np.linalg.norm(fs.project_fn(p) - p)))
            worst_nonexp = max(
                worst_nonexp,
                float(np.linalg.norm(p - fs.project_fn(y)) - np.linalg.norm(x - y)),
            )
            for _ in range(5):
                q = feasible()
                worst_vi = max(worst_vi, float((x - p) @ (q - p)))
            g = rng.standard_normal(dim)
            v = fs.lmo_fn(g)
            for _ in range(5):
                q = feasible()
                worst_lmo = max(worst_lmo, float(g @ v - g @ q))
            if kind == "box":
                extreme_ok = extreme_ok and bool(
                    np.all((v == obj.lower) | (v == obj.upper))
                )
            elif kind == "simplex":
                extreme_ok = extreme_ok and np.sum(v == 1.0) == 1 and np.sum(v == 0.0) == dim - 1
    passed = (
        worst_idem <= 1e-12
        and worst_nonexp <= 1e-12
        and worst_vi <= 1e-10
        and worst_lmo <= 1e-10
        and extreme_ok
    )
    return CriterionResult(
        10,
        "oracle invariants",
        passed,
        f"idem {worst_idem:.1e} (<=1e-12), nonexp {worst_nonexp:.1e} (<=1e-12), "
        f"vi {worst_vi:.1e} (<=1e-10), lmo {worst_lmo:.1e} (<=1e-10), extreme {extreme_ok}",
    )


def criterion_11(ctx: SuiteContext) -> CriterionResult:
    rows = []
    for sigma in SIGMAS:
        _, _, _, trace, _ = ctx.two_level_run("gprm", "illposed_box(2)", sigma)
        report = measure_complexity(trace, EXPONENT_ALPHA_GRID)
        usable = sum(
            1 for n, ok in zip(report.measured_N, report.attained) if ok and n >= 1
        )
        rows.append((sigma, report.fitted_exponent, usable))
    exps = [e for _, e, _ in rows]
    enough = all(u >= 4 for _, _, u in rows)
    monotone = all(np.isfinite(exps)) and exps[0] >= exps[1] >= exps[2]
    passed = enough and monotone
    detail = ", ".join(f"sigma={s}: exponent {e:.3f} ({u} fit points)" for s, e, u in rows)
    return CriterionResult(11, "complexity exponent trend", passed, detail)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def run_all(ctx: Optional[SuiteContext] = None) -> list[CriterionResult]:
    ctx = ctx if ctx is not None else SuiteContext()
    return [fn(ctx) for fn in CRITERIA]


def format_line(result: CriterionResult) -> str:
    verdict = "PASS" if result.passed else "FAIL"
    return f"criterion {result.number:02d} {verdict} {result.name}: {result.detail}"
