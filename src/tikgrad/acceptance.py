"""Executable acceptance suite: eleven criteria, one pass/fail line each.

Each criterion_N function takes a SuiteContext (which caches solver runs and
Tikhonov oracle solutions so criteria can share them) and returns a
CriterionResult.  Its body returns only (passed, detail): the _criterion
decorator that names it adds its number, from the order of definition, and
turns a solver error it raises into its FAIL, under its own name.  CRITERIA
lists the eleven in that order; run_all executes them and format_line renders
the one-line verdict.  The CLI `verify` subcommand and the test suite both
drive this module, so a failure shows up identically in both places.
Each solver run is an ExperimentConfig whose problem, start, schedule, stop
policy, constants and step come from validate_experiment, as in `tikgrad run`.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bench import (ExperimentConfig, _norm, bound_constants, bundled_problem, measure_complexity,
                    validate_experiment, with_bounds)
from .core import LineSearchFailure, OracleFailure, RunawayInnerLoop
from .oracles import BoxSet, SimplexSet
from .regularization import PerturbedObjective, path_check, tikhonov_solve
from .solvers import run_cgm, run_cgrm, run_gpm, run_gprm

__all__ = ["CriterionResult", "SuiteContext", "CRITERIA", "run_all", "format_line"]

ACCEPT_EPS_MIN = 1e-4
SIGMAS = (1.0, 0.5, 0.25)
TWO_LEVEL_CASES = tuple(
    itertools.product(("gprm", "cgrm"), ("illposed_box(2)", "illposed_simplex(3)"))
)
# finer grid than the default so the exponent fits see many attained points
EXPONENT_ALPHA_GRID = tuple(2.0**-i for i in range(10, 20))
# steps asked of each criterion-9 baseline run
RATE_ITERS = 10**4
# the sigma = 0.5 runs whose inner iterates criterion 7 certifies
CERTIFIED_RUNS = (("gprm", "illposed_box(2)"), ("cgrm", "illposed_simplex(3)"))
# criterion 3's gpm start on illposed_box(2): off the solution set (its sum
# is 0, not 1), so f' is nonzero there and the fixed step has a step to take
CRITERION_3_START = (1.0, -1.0)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


CRITERIA: list = []


def _criterion(name: str):
    """Register a check returning (passed, detail) as the next criterion; the
    registered function returns its CriterionResult, and a solver error the
    check raises is that criterion's FAIL."""
    def register(check):
        number = len(CRITERIA) + 1

        @functools.wraps(check)
        def criterion(ctx: SuiteContext) -> CriterionResult:
            try:
                passed, detail = check(ctx)
            except (RunawayInnerLoop, LineSearchFailure, OracleFailure) as exc:
                passed, detail = False, f"solver failure: {type(exc).__name__}: {exc}"
            # a numpy comparison's np.bool_ would not survive json.dumps
            return CriterionResult(number, name, bool(passed), detail)

        CRITERIA.append(criterion)
        return criterion
    return register


class SuiteContext:
    """Lazy shared state: canonical solver runs, the first four inner iterates
    of each level of the CERTIFIED_RUNS at sigma = 0.5 (for criterion 7) and
    Tikhonov solutions."""

    def __init__(self):
        self._runs: dict = {}
        self._z: dict = {}
        self.samples: dict = {}

    def two_level_run(self, method: str, label: str, sigma: float):
        """Run (or fetch) the canonical run; returns (gp, sched, consts, trace, seconds).
        Its config sets sigma, epsilon_min and x0 = e_1, feasible for box and simplex."""
        key = (method, label, sigma)
        if key not in self._runs:
            dim = bundled_problem(label).problem.feasible_set.dimension
            cfg = ExperimentConfig(label, method, sigma=sigma, epsilon_min=ACCEPT_EPS_MIN,
                                   x0=(1.0,) + (0.0,) * (dim - 1))
            gp, w0, sched, stop, consts, _ = validate_experiment(cfg)
            run = run_gprm if method == "gprm" else run_cgrm
            observe = None
            if (method, label) in CERTIFIED_RUNS and sigma == 0.5:
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


def _baseline_run(label: str, method: str, x0: tuple, max_iter: int):
    """The gpm or cgm run of that config: its validated start, its default step 1/L."""
    cfg = ExperimentConfig(label, method, max_iter=max_iter, x0=x0)
    gp, x0, _, _, _, step = validate_experiment(cfg)
    run = run_gpm if method == "gpm" else run_cgm
    return run(gp.problem, step, x0, max_iter)


def _strong_convergence(ctx: SuiteContext, method: str, label: str) -> tuple[bool, str]:
    _, _, _, trace, elapsed = ctx.two_level_run(method, label, 0.5)
    dist = trace.outer_records[-1].dist_xstar
    passed = dist < 5e-2 and elapsed < 1.0
    return passed, f"final dist {dist:.3e} (need < 5e-2), solver time {elapsed:.3f}s (need < 1s)"


@_criterion("strong convergence, two-level gradient projection")
def criterion_1(ctx: SuiteContext) -> tuple[bool, str]:
    return _strong_convergence(ctx, "gprm", "illposed_box(2)")


@_criterion("strong convergence, two-level conditional gradient")
def criterion_2(ctx: SuiteContext) -> tuple[bool, str]:
    return _strong_convergence(ctx, "cgrm", "illposed_simplex(3)")


@_criterion("weak vs strong contrast")
def criterion_3(ctx: SuiteContext) -> tuple[bool, str]:
    trace = _baseline_run("illposed_box(2)", "gpm", CRITERION_3_START, 2000)
    d_gpm = trace.outer_records[-1].dist_xstar
    ok_gprm = _strong_convergence(ctx, "gprm", "illposed_box(2)")[0]
    return d_gpm >= 0.7 and ok_gprm, (
        f"fixed-step method stalls at dist {d_gpm:.3f} (need >= 0.7) "
        f"while the two-level method converges ({ok_gprm})")


@_criterion("complexity bound compliance")
def criterion_4(ctx: SuiteContext) -> tuple[bool, str]:
    checked = 0
    worst = None
    for (method, label), sigma in itertools.product(TWO_LEVEL_CASES, SIGMAS):
        gp, sched, consts, trace, _ = ctx.two_level_run(method, label, sigma)
        C1, C2 = bound_constants(method, sched, consts, float(np.linalg.norm(gp.analytic_xstar_n)))
        report = with_bounds(measure_complexity(trace.outer_records), C1, C2, sched.nu, sched.sigma)
        for alpha, n, ok, bound in zip(
            report.alpha_grid, report.measured_N, report.attained, report.bound_N
        ):
            if not ok:
                continue
            checked += 1
            if n > bound:
                worst = f"{method} {label} sigma={sigma} alpha={alpha}: N={n} > bound={bound:.3e}"
    passed = worst is None and checked > 0
    return passed, worst or f"measured N <= bound at all {checked} attained grid points (12 runs)"


@_criterion("line-search step lower bound")
def criterion_5(ctx: SuiteContext) -> tuple[bool, str]:
    worst_margin = math.inf
    worst_run = ""
    for (method, label), sigma in itertools.product(TWO_LEVEL_CASES, SIGMAS):
        _, _, consts, trace, _ = ctx.two_level_run(method, label, sigma)
        margin = trace.min_observed_lambda - consts.gamma
        if margin < worst_margin:
            worst_margin = margin
            worst_run = f"{method} {label} sigma={sigma}"
    return worst_margin >= 0.0, (
        f"worst min(lambda) - gamma = {worst_margin:.3e} at {worst_run} (need >= 0)")


@_criterion("inner-loop finiteness")
def criterion_6(ctx: SuiteContext) -> tuple[bool, str]:
    worst = 0
    for (method, label), sigma in itertools.product(TWO_LEVEL_CASES, SIGMAS):
        _, _, _, trace, _ = ctx.two_level_run(method, label, sigma)
        worst = max(worst, max(r.N_l for r in trace.outer_records))
    return worst < 10**6, f"largest per-level count {worst} (need < 1e6)"


@_criterion("regularized-gap certificates")
def criterion_7(ctx: SuiteContext) -> tuple[bool, str]:
    details = []
    passed = True
    for method, label in CERTIFIED_RUNS:
        gp, _, consts, _, _ = ctx.two_level_run(method, label, 0.5)
        samples = ctx.samples[(method, label, 0.5)]
        if len(samples) < 10:
            passed = False
            details.append(f"{method}: only {len(samples)} samples")
            continue
        worst = -math.inf
        for eps, x, y, test in samples:
            z = ctx.z_oracle(label, eps)
            phi = PerturbedObjective(gp.problem.objective, eps).value
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
    return passed, "; ".join(details) + " (need <= 1e-8)"


@_criterion("regularization path")
def criterion_8(ctx: SuiteContext) -> tuple[bool, str]:
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
    return passed, "; ".join(details)


def _rate_checkpoints(trace, max_iter: int) -> tuple[float, float]:
    """Running sup of k * gap up to k < 1000 and up to k <= 1e4 on a baseline
    run asked for max_iter steps.

    Raw per-window maxima are meaningless once the gap floors at machine
    precision on linearly convergent runs.  A baseline that stops at an exact
    fixed point after K < max_iter steps would repeat its last gap at every
    k in (K, max_iter], so that tail counts as if it had run.
    """
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
    K, gap = trace.outer_records[-1].l, trace.outer_records[-1].delta_wl
    # the sups start at 0, so a repeated gap <= 0 adds nothing; a positive one
    # gives k * gap its largest value at the last k of a window
    if gap > 0.0:
        first_end, final_end = min(max_iter, 999), min(max_iter, 10**4)
        if K < first_end:
            first = max(first, first_end * gap)
        if K < final_end:
            final = max(final, final_end * gap)
    return first, final


@_criterion("baseline value rates")
def criterion_9(ctx: SuiteContext) -> tuple[bool, str]:
    trace_g = _baseline_run("wellposed_box(2)", "gpm", (0.0, 0.0), RATE_ITERS)
    trace_c = _baseline_run("wellposed_simplex(3)", "cgm", (1.0, 0.0, 0.0), RATE_ITERS)
    details = []
    passed = True
    for name, trace in (("projected gradient", trace_g), ("conditional gradient", trace_c)):
        first, final = _rate_checkpoints(trace, RATE_ITERS)
        ok = final <= 2.0 * first
        passed = passed and ok
        details.append(f"{name}: sup k*gap {first:.2e} (k<1000) vs {final:.2e} (k<=1e4)")
    return passed, "; ".join(details) + " (need final <= 2x first)"


def _gauss(rng: random.Random, dim: int, scale: float) -> np.ndarray:
    return np.array([scale * rng.gauss(0.0, 1.0) for _ in range(dim)])


def _feasible_point(kind, obj, rng: random.Random) -> np.ndarray:
    """A point of the set drawn from rng: uniform on the box, Dirichlet(1),
    also uniform, on the simplex."""
    if kind == "box":
        return np.array([rng.uniform(lo, hi)
                         for lo, hi in zip(obj.lower.tolist(), obj.upper.tolist())])
    e = np.array([rng.expovariate(1.0) for _ in range(obj.dimension)])
    return e / e.sum()


@_criterion("oracle invariants")
def criterion_10(ctx: SuiteContext) -> tuple[bool, str]:
    # stdlib random, every argument given, so the draws are the same on every
    # supported Python and verify never loads numpy.random
    rng = random.Random(0)
    cases = [
        ("box", BoxSet(np.array([-1.0, -0.5, 0.0]), np.array([1.0, 0.5, 2.0]))),
        ("simplex", SimplexSet(4)),
    ]
    worst_idem = worst_nonexp = worst_vi = worst_lmo = 0.0
    extreme_ok = True
    for kind, obj in cases:
        fs = obj.to_feasible_set()
        dim = fs.dimension
        for _ in range(100):
            x = _gauss(rng, dim, 2.5)
            y = _gauss(rng, dim, 2.5)
            p = fs.project_fn(x)
            worst_idem = max(worst_idem, _norm(fs.project_fn(p) - p))
            worst_nonexp = max(worst_nonexp, _norm(p - fs.project_fn(y)) - _norm(x - y))
            for _ in range(5):
                q = _feasible_point(kind, obj, rng)
                worst_vi = max(worst_vi, float((x - p) @ (q - p)))
            g = _gauss(rng, dim, 2.5)
            v = fs.lmo_fn(g)
            for _ in range(5):
                q = _feasible_point(kind, obj, rng)
                worst_lmo = max(worst_lmo, float(g @ v - g @ q))
            if kind == "box":
                extreme_ok = extreme_ok and bool(((v == obj.lower) | (v == obj.upper)).all())
            else:
                extreme_ok = extreme_ok and (v == 1.0).sum() == 1 and (v == 0.0).sum() == dim - 1
    passed = (
        worst_idem <= 1e-12
        and worst_nonexp <= 1e-12
        and worst_vi <= 1e-10
        and worst_lmo <= 1e-10
        and extreme_ok
    )
    return passed, (
        f"idem {worst_idem:.1e} (<=1e-12), nonexp {worst_nonexp:.1e} (<=1e-12), "
        f"vi {worst_vi:.1e} (<=1e-10), lmo {worst_lmo:.1e} (<=1e-10), extreme {extreme_ok}")


@_criterion("complexity exponent trend")
def criterion_11(ctx: SuiteContext) -> tuple[bool, str]:
    rows = []
    for sigma in SIGMAS:
        _, _, _, trace, _ = ctx.two_level_run("gprm", "illposed_box(2)", sigma)
        report = measure_complexity(trace.outer_records, EXPONENT_ALPHA_GRID)
        usable = sum(
            1 for n, ok in zip(report.measured_N, report.attained) if ok and n >= 1
        )
        rows.append((sigma, report.fitted_exponent, usable))
    exps = [e for _, e, _ in rows]
    enough = all(u >= 4 for _, _, u in rows)
    monotone = all(np.isfinite(exps)) and exps[0] >= exps[1] >= exps[2]
    detail = ", ".join(f"sigma={s}: exponent {e:.3f} ({u} fit points)" for s, e, u in rows)
    # the monotone test's two margins, so a verdict that rests on a small one shows it
    detail += (f"; margins {exps[0] - exps[1]:.3e} (sigma 1 vs 0.5), "
               f"{exps[1] - exps[2]:.3e} (sigma 0.5 vs 0.25) (need >= 0)")
    return enough and monotone, detail


def run_all(ctx: Optional[SuiteContext] = None) -> list[CriterionResult]:
    """Each criterion's result in order; a solver error it raises is its FAIL."""
    ctx = ctx if ctx is not None else SuiteContext()
    return [check(ctx) for check in CRITERIA]


def format_line(result: CriterionResult) -> str:
    verdict = "PASS" if result.passed else "FAIL"
    return f"criterion {result.number:02d} {verdict} {result.name}: {result.detail}"
