"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each test prints its one-line verdict so a -s run reads as the full
acceptance report; shared solver runs live in a module-scoped context.
"""

import dataclasses
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tikgrad import acceptance, bench
from tikgrad.bench import (
    ExperimentConfig,
    bound_constants,
    bundled_problem,
    run_experiment,
    solver_constants,
    validate_experiment,
    write_trace_csv,
)
from tikgrad.core import LineSearchFailure, OracleCounters
from tikgrad.solvers import OuterRecord, SolverTrace, run_cgm, run_cgrm, run_gpm, run_gprm

import decimal_shadow


@pytest.fixture(scope="module")
def ctx():
    return acceptance.SuiteContext()


def _check(result):
    print(acceptance.format_line(result))
    assert result.passed, result.detail
    return result


def test_criterion_1_gprm_reaches_minimal_norm_solution(ctx):
    _check(acceptance.criterion_1(ctx))


def test_criterion_2_cgrm_reaches_minimal_norm_solution(ctx):
    _check(acceptance.criterion_2(ctx))


def test_criterion_3_weak_vs_strong_contrast(ctx):
    _check(acceptance.criterion_3(ctx))


def test_criterion_3_starts_gpm_off_the_solution_set():
    """A start where f' = 0, such as the minimizer (1, 0), would make gpm stop
    before its first step, and the distance it reports would be the start's
    own; from CRITERION_3_START the fixed step moves before it stalls."""
    gp = bundled_problem("illposed_box(2)")
    x0 = np.array(acceptance.CRITERION_3_START)
    assert gp.problem.objective.gradient_fn(x0).any()
    trace = run_gpm(gp.problem, 1.0 / gp.problem.objective.lipschitz_L, x0, 2000)
    assert trace.counters.inner_iterations > 0
    assert trace.outer_records[-1].dist_xstar >= 0.7


def test_criterion_4_measured_complexity_within_bounds(ctx):
    _check(acceptance.criterion_4(ctx))


def test_criterion_5_observed_steps_respect_gamma_floor(ctx):
    _check(acceptance.criterion_5(ctx))


def test_criterion_5_and_the_cgrm_bound_read_the_same_gamma(ctx):
    """The gamma that criterion 5 holds the six canonical cgrm runs to is the
    one that C2 divides by in the sidecar `tikgrad run` writes for each."""
    for label, sigma in itertools.product(("illposed_box(2)", "illposed_simplex(3)"),
                                          acceptance.SIGMAS):
        gp, sched, consts, trace, _ = ctx.two_level_run("cgrm", label, sigma)
        w0 = np.eye(gp.problem.feasible_set.dimension)[0]
        cfg = ExperimentConfig(label, "cgrm", sigma=sigma,
                               epsilon_min=acceptance.ACCEPT_EPS_MIN, x0=tuple(w0))
        assert solver_constants(cfg, gp, w0) == consts
        C1, C2 = bound_constants("cgrm", sched, consts, float(np.linalg.norm(gp.analytic_xstar_n)))
        e0 = sched.epsilon0
        assert C1 / (consts.beta * C2 * e0 ** (2.0 * (1.0 + sigma))) == pytest.approx(
            consts.gamma, rel=1e-14)
        assert trace.min_observed_lambda >= consts.gamma


def test_verify_runs_are_the_runs_tikgrad_run_makes(ctx, tmp_path):
    """run_experiment on the config of each sigma = 0.5 canonical run (the
    suite's sigma and epsilon_min, x0 = e_1) gives the suite's trace CSV
    bytes, counters, final point bytes and min lambda."""
    for method, label in acceptance.TWO_LEVEL_CASES:
        gp, _, _, trace, _ = ctx.two_level_run(method, label, 0.5)
        dim = gp.problem.feasible_set.dimension
        cfg = ExperimentConfig(label, method, sigma=0.5, epsilon_min=acceptance.ACCEPT_EPS_MIN,
                               x0=(1.0,) + (0.0,) * (dim - 1))
        ran = run_experiment(cfg)
        write_trace_csv(trace, str(tmp_path / "verify.csv"))
        write_trace_csv(ran, str(tmp_path / "run.csv"))
        assert (tmp_path / "verify.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()
        assert ran.counters == trace.counters
        assert ran.final_point.tobytes() == trace.final_point.tobytes()
        assert ran.min_observed_lambda == trace.min_observed_lambda


def test_criterion_6_every_level_finishes_finitely(ctx):
    _check(acceptance.criterion_6(ctx))


def test_criterion_7_certificates_hold_on_sampled_iterates(ctx):
    _check(acceptance.criterion_7(ctx))


def test_criterion_8_tikhonov_path_inequalities_and_limit(ctx):
    _check(acceptance.criterion_8(ctx))


def test_criterion_9_baseline_value_rate_stays_bounded(ctx):
    _check(acceptance.criterion_9(ctx))


def _criterion_9_runs():
    box = bundled_problem("wellposed_box(2)")
    simplex = bundled_problem("wellposed_simplex(3)")
    return (
        run_gpm(box.problem, 1.0 / box.problem.objective.lipschitz_L, np.zeros(2),
                acceptance.RATE_ITERS),
        run_cgm(simplex.problem, 1.0 / simplex.problem.objective.lipschitz_L,
                np.array([1.0, 0.0, 0.0]), acceptance.RATE_ITERS),
    )


def test_rate_checkpoints_of_the_stopped_baselines_are_the_full_runs_floats():
    """Both criterion-9 baselines stop at an exact fixed point long before
    1e4 steps; with the repeated tail counted, their checkpoints are the
    floats the full 1e4-step runs gave."""
    gpm, cgm = _criterion_9_runs()
    assert len(gpm.outer_records) == 125 and len(cgm.outer_records) == 57
    assert acceptance._rate_checkpoints(gpm, acceptance.RATE_ITERS) == (0.050625, 0.050625)
    assert acceptance._rate_checkpoints(cgm, acceptance.RATE_ITERS) == (
        0.030000000000000002, 0.030000000000000002)


def _rate_trace(gaps):
    records = [OuterRecord(l, None, None, int(l > 0), delta_wl=g, cum_inner=l)
               for l, g in enumerate(gaps)]
    return SolverTrace(records, OracleCounters(), np.zeros(1))


@pytest.mark.parametrize("stall_gap", [1e-3, 0.0, -1e-12])
def test_a_stopped_baseline_scores_as_its_full_run(monkeypatch, stall_gap):
    """A baseline that stops at a fixed point after 50 steps of gap 1/k gets
    the checkpoints of the 1e4-step run that repeats its last gap; stalled at
    a positive gap it fails criterion 9 as that run does."""
    gaps = [1.0] + [1.0 / k for k in range(1, 50)] + [stall_gap]
    stopped = _rate_trace(gaps)
    full = _rate_trace(gaps + [stall_gap] * (acceptance.RATE_ITERS - 50))
    assert acceptance._rate_checkpoints(stopped, acceptance.RATE_ITERS) == (
        acceptance._rate_checkpoints(full, acceptance.RATE_ITERS))
    verdicts = []
    for trace in (stopped, full):
        monkeypatch.setattr(acceptance, "run_gpm", lambda *args: trace)
        verdicts.append(acceptance.criterion_9(None))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0].passed == (stall_gap <= 0.0)


def test_only_the_certified_runs_are_observed(ctx):
    """Criterion 7 reads the inner iterates of two sigma = 0.5 runs; the
    other ten canonical runs keep none, and the two keep 41 and 47."""
    for (method, label), sigma in itertools.product(acceptance.TWO_LEVEL_CASES,
                                                    acceptance.SIGMAS):
        ctx.two_level_run(method, label, sigma)
    assert {key: len(kept) for key, kept in ctx.samples.items()} == {
        ("gprm", "illposed_box(2)", 0.5): 41, ("cgrm", "illposed_simplex(3)", 0.5): 47}


def test_criterion_10_oracle_randomized_suites(ctx):
    _check(acceptance.criterion_10(ctx))


# a fresh process that imports the package, the acceptance suite and the CLI,
# builds every bundled problem and runs criterion 10, the suite's only draws;
# it prints the numpy.random modules it then holds
_NUMPY_RANDOM_PROBE = """
import sys
import tikgrad, tikgrad.acceptance, tikgrad.cli
for label in ("illposed_box(2)", "illposed_simplex(3)", "rankdef_box(2)",
              "rankdef_simplex(3)", "wellposed_box(2)", "wellposed_simplex(3)"):
    tikgrad.bundled_problem(label)
assert tikgrad.acceptance.criterion_10(tikgrad.acceptance.SuiteContext()).passed
print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
"""


def test_verify_never_loads_numpy_random():
    """numpy.random and the 16 modules it pulls in added about 2 MB to a
    verify process's peak RSS; criterion 10 draws from stdlib random."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _NUMPY_RANDOM_PROBE], capture_output=True,
                         text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert (out.returncode, out.stdout.strip()) == (0, "[]"), out.stderr


def test_criterion_11_complexity_exponent_tracks_sigma(ctx):
    _check(acceptance.criterion_11(ctx))


def _criterion_11_margins(detail):
    found = re.search(r"margins (\S+) \(sigma 1 vs 0.5\), (\S+) \(sigma 0.5 vs 0.25\)", detail)
    return float(found[1]), float(found[2])


class _FixedExponents:
    """Stand-in for the suite context and measure_complexity: criterion 11
    fits the given exponents, each from ten attained points."""

    def __init__(self, exponents):
        self.left = list(exponents)

    def two_level_run(self, method, label, sigma):
        return None, None, None, SimpleNamespace(outer_records=None), None

    def measure_complexity(self, records, grid):
        return SimpleNamespace(fitted_exponent=self.left.pop(0), measured_N=[1] * 10,
                               attained=[True] * 10)


@pytest.mark.parametrize("exponents", [None, (0.55, 0.544, 0.286), (0.5, 0.5, 0.5),
                                       (0.5, 0.6, 0.2), (0.6, 0.5, 0.7)])
def test_criterion_11_prints_its_margins(ctx, monkeypatch, exponents):
    """Criterion 11's detail ends with exps[sigma=1] - exps[sigma=0.5] and
    exps[sigma=0.5] - exps[sigma=0.25]; with every fit well fed, both are
    >= 0 exactly when the criterion passes.  None is the canonical runs."""
    if exponents is not None:
        ctx = _FixedExponents(exponents)
        monkeypatch.setattr(acceptance, "measure_complexity", ctx.measure_complexity)
    result = acceptance.criterion_11(ctx)
    margins = _criterion_11_margins(result.detail)
    if exponents is not None:
        a, b, c = exponents
        assert margins == (float(f"{a - b:.3e}"), float(f"{b - c:.3e}"))
    assert (min(margins) >= 0.0) == result.passed


def test_run_all_covers_every_criterion_once(ctx):
    results = acceptance.run_all(ctx)
    assert [r.number for r in results] == list(range(1, 12))
    assert all(r.passed for r in results)


def test_every_result_holds_a_python_bool_and_dumps_as_json(ctx):
    """A check's numpy comparison gives np.bool_, which json.dumps refuses."""
    for result in acceptance.run_all(ctx):
        assert type(result.passed) is bool
        json.dumps(dataclasses.asdict(result))


def test_criteria_register_in_number_order():
    assert [f.__name__ for f in acceptance.CRITERIA] == [f"criterion_{i}" for i in range(1, 12)]


def test_a_criterion_called_directly_fails_on_a_solver_error(monkeypatch):
    """A gprm error is the FAIL of each criterion that runs gprm, under its own
    number and name, when it is called outside run_all too."""
    def fail(*args, **kwargs):
        raise LineSearchFailure("no sufficient decrease")
    monkeypatch.setattr(acceptance, "run_gprm", fail)
    ctx = acceptance.SuiteContext()
    for check, number, name in (
            (acceptance.criterion_1, 1, "strong convergence, two-level gradient projection"),
            (acceptance.criterion_3, 3, "weak vs strong contrast")):
        assert check(ctx) == acceptance.CriterionResult(
            number, name, False, "solver failure: LineSearchFailure: no sufficient decrease")


# Trace CSV SHA-256, final_point.tobytes() SHA-256, OracleCounters in field
# order, and min_observed_lambda of canonical runs.  Refactors of the solvers
# must reproduce them bit for bit; a change that alters the arithmetic on
# purpose re-records them and says why.  The two-level linesearch_trials count
# the powers each Armijo scan tests from the unit step: m + 1 at a step that
# accepts theta^m, less the powers skipped for a step above 1.
GOLDEN = {
    "gprm illposed_box(2)": (
        "af3c71aee5bae7d5a6c34c744b388406449acb20d3464e659f125b3ec2dad650",
        "f6a9de137ae86840b568226dd65ffe55a88221ced774777fe11c9c2d55e98c6d",
        (5645, 5645, 0, 5644, 5632), 0.5,
    ),
    "gprm illposed_simplex(3)": (
        "5067fd8bc756a92ae5b3ba3346cff82b6cf7eeee50dbf5b5ed258fdb513dde70",
        "7776e19732271a4ee21ba7b2202893a883ca21734c7b05f8af6a866df8d2c7f9",
        (5627, 5627, 0, 5615, 5614), 0.5,
    ),
    "cgrm illposed_box(2)": (
        "b7c86c1ec974b728f388ca67d1c11bbcbb7389dd26c7d740028444f0a00ed99b",
        "9d9de4d323cca34e91115ed728078000cadd43f7a1dc02b5f742583bd289d34c",
        (15595, 0, 15595, 31169, 15582), 0.0625,
    ),
    "cgrm illposed_simplex(3)": (
        "3f5f6eef246070b4a722c1bcf86a24003c904d27cae360672d7fbc8fd32185aa",
        "bf57e99cb7b9820646f05d9214cb0a8b980095822fa1cf88cfe628f64194db77",
        (7824, 0, 7824, 7833, 7811), 0.125,
    ),
    # gpm and cgm take their steps 1/L from estimate_lipschitz_quadratic, which
    # returns ||A||_2^2 = 4 and 1 exactly for these two problems.  Their step
    # maps the 124th and 56th iterate to itself bit for bit, so they stop
    # there: the trace is a prefix of the 200-step one, with its final point.
    "gpm": (
        "3f41f24ecfb0a9994f41563495cdc70cfcf956fc05b1ae48d12c7204d55521d8",
        "029ca80705776adb14f722f9a4c98e1b359462e452770ff1d1f9699317a21e67",
        (125, 125, 0, 0, 124), 0.25,
    ),
    "cgm": (
        "bc4a0d647000800d7938b09cb672da6c9cacda78664a0e31f8e4e2c55794a4f6",
        "77f167be29d8ea73023c5674a8dfac9f4008c692e931c61dcd778babfc4963c1",
        (57, 0, 57, 0, 56), 2.2657612747452175e-17,
    ),
}


def _canonical_runs(ctx):
    """The sigma = 0.5 suite runs (shared with the criteria above) and short baselines."""
    for method, label in acceptance.TWO_LEVEL_CASES:
        yield f"{method} {label}", ctx.two_level_run(method, label, 0.5)[3]
    box = bundled_problem("wellposed_box(2)")
    yield "gpm", run_gpm(box.problem, 1.0 / box.problem.objective.lipschitz_L, np.zeros(2), 200)
    simplex = bundled_problem("wellposed_simplex(3)")
    yield "cgm", run_cgm(simplex.problem, 1.0 / simplex.problem.objective.lipschitz_L,
                         np.array([1.0, 0.0, 0.0]), 200)


def test_canonical_traces_are_bit_identical(ctx, tmp_path):
    path = tmp_path / "trace.csv"
    seen = {}
    for name, trace in _canonical_runs(ctx):
        write_trace_csv(trace, str(path))
        seen[name] = (
            hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(trace.final_point.tobytes()).hexdigest(),
            tuple(trace.counters.as_dict().values()),
            trace.min_observed_lambda,
        )
    assert seen == GOLDEN


def _swap_objectives(monkeypatch, swap):
    """Make bundled_problem hand out the two-level runs' problems with each
    objective o replaced by swap(o), a dataclasses.replace of it."""
    for label in {label for _, label in acceptance.TWO_LEVEL_CASES}:
        gp = bundled_problem(label)
        problem = dataclasses.replace(gp.problem, objective=swap(gp.problem.objective))
        monkeypatch.setitem(bench._PROBLEM_CACHE, label, dataclasses.replace(gp, problem=problem))


def test_canonical_traces_are_bit_identical_without_the_curvature_oracle(monkeypatch, tmp_path):
    """The Armijo search that evaluates phi_eps at every trial point gives
    the same GOLDEN tuples as the closed form, trial counts included."""
    _swap_objectives(monkeypatch, lambda o: dataclasses.replace(o, curvature_fn=None))
    test_canonical_traces_are_bit_identical(acceptance.SuiteContext(), tmp_path)


@pytest.fixture(scope="module")
def shadow_runs():
    """decimal_shadow's replays of criteria 1 and 2's runs, by (method, label)."""
    return {(m, f"{family}({n})"): decimal_shadow.replay(m, family, n, acceptance.ACCEPT_EPS_MIN)
            for m, family, n in decimal_shadow.CERTIFIED}


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "evaluated"])
def test_criteria_1_and_2_runs_are_the_paper_method_in_200_digits(ctx, shadow_runs, closed,
                                                                 monkeypatch):
    """Each level takes the inner iterations of the decimal replay, which
    writes out the paper's rules with no float code of the package, and the
    final points agree within 1e-12, with the curvature oracle's closed-form
    search and with the search that evaluates phi at every trial."""
    if not closed:
        _swap_objectives(monkeypatch, lambda o: dataclasses.replace(o, curvature_fn=None))
        ctx = acceptance.SuiteContext()
    assert [(m, label) for m, label in shadow_runs] == list(acceptance.CERTIFIED_RUNS)
    for (method, label), (counts, point) in shadow_runs.items():
        trace = ctx.two_level_run(method, label, 0.5)[3]
        assert [r.N_l for r in trace.outer_records if r.l >= 1] == counts
        assert max(abs(a - b) for a, b in zip(trace.final_point.tolist(), point)) <= 1e-12


# N_l and first final entry of
# decimal_shadow.replay("gprm", "illposed_box", 4096, 1e-6, start=[0.0] * 4096),
# about 5 s of shadow, too slow for tier-1, recorded on Python 3.11.7
SHADOW_BOX_4096 = ([8, 2, 1, 2, 1, 2, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4],
                   0.00024414062487802067)


def test_illposed_box_4096_closed_run_is_the_paper_method_in_200_digits():
    """gprm on illposed_box(4096) under the default config (epsilon_min 1e-6,
    start 0): the closed search takes the shadow's N_l at every level and
    ends within 1e-12 of its point.  The evaluated search rounds
    phi(x + t d) - phi(x) at the scale of phi and departs from level 14 on,
    with 40 inner iterations against 49, so where the two float searches
    part, the closed one is the paper's method."""
    counts, point = SHADOW_BOX_4096
    gp, x0, sched, stop, consts, _ = validate_experiment(
        ExperimentConfig("illposed_box(4096)", "gprm"))
    closed = run_gprm(gp.problem, sched, consts, x0, stop)
    assert [r.N_l for r in closed.outer_records if r.l >= 1] == counts
    assert np.abs(closed.final_point - point).max() <= 1e-12
    problem = dataclasses.replace(gp.problem, objective=dataclasses.replace(
        gp.problem.objective, curvature_fn=None))
    evaluated = [r.N_l for r in run_gprm(problem, sched, consts, x0, stop).outer_records
                 if r.l >= 1]
    assert evaluated[:13] == counts[:13] and evaluated[13] != counts[13]
    assert (sum(evaluated), sum(counts)) == (40, 49)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "evaluated"])
def test_the_closed_form_search_calls_phi_only_at_handoffs(monkeypatch, closed):
    """With the curvature oracle, each sigma = 0.5 run calls value_fn at most
    three times per level: gprm's handoff compares phi at x and y, and the
    level's record reads f.  Without it, the same counter reads at least one
    call per Armijo trial, which shows the wrapper is live."""
    calls = []

    def counted(objective):
        def value(x):
            calls.append(None)
            return objective.value_fn(x)
        strip = {} if closed else {"curvature_fn": None}
        return dataclasses.replace(objective, value_fn=value, **strip)

    _swap_objectives(monkeypatch, counted)
    ctx = acceptance.SuiteContext()
    for method, label in acceptance.TWO_LEVEL_CASES:
        before = len(calls)
        trace = ctx.two_level_run(method, label, 0.5)[3]
        n_calls = len(calls) - before
        if closed:
            assert 0 < n_calls <= 3 * len(trace.outer_records)
        else:
            assert n_calls >= trace.counters.linesearch_trials


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "evaluated"])
def test_ground_truth_fills_the_records_and_never_steers_a_run(closed):
    """Without known_fstar and known_xstar_n, each sigma = 0.5 two-level run
    of the suite (with or without the curvature oracle) and each short
    baseline of GOLDEN gives the same counters, final point bytes, min lambda
    and per-record (l, epsilon_l, delta_l, N_l, cum_inner); only its records'
    delta_wl and dist_xstar change, to None."""
    def with_and_without_truth(problem):
        if not closed:
            problem = dataclasses.replace(
                problem, objective=dataclasses.replace(problem.objective, curvature_fn=None))
        return problem, dataclasses.replace(problem, known_fstar=None, known_xstar_n=None)

    pairs = []
    for method, label in acceptance.TWO_LEVEL_CASES:
        dim = bundled_problem(label).problem.feasible_set.dimension
        cfg = ExperimentConfig(label, method, sigma=0.5, epsilon_min=acceptance.ACCEPT_EPS_MIN,
                               x0=(1.0,) + (0.0,) * (dim - 1))
        gp, w0, sched, stop, consts, _ = validate_experiment(cfg)
        run = run_gprm if method == "gprm" else run_cgrm
        pairs.append([run(p, sched, consts, w0, stop) for p in with_and_without_truth(gp.problem)])
    for run, label, x0 in ((run_gpm, "wellposed_box(2)", (0.0, 0.0)),
                           (run_cgm, "wellposed_simplex(3)", (1.0, 0.0, 0.0))):
        gp = bundled_problem(label)
        pairs.append([run(p, 1.0 / gp.problem.objective.lipschitz_L, np.array(x0), 200)
                      for p in with_and_without_truth(gp.problem)])

    def steps(trace):
        return [(r.l, r.epsilon_l, r.delta_l, r.N_l, r.cum_inner) for r in trace.outer_records]

    for known, blind in pairs:
        assert blind.counters == known.counters
        assert blind.final_point.tobytes() == known.final_point.tobytes()
        assert blind.min_observed_lambda == known.min_observed_lambda
        assert steps(blind) == steps(known)
        assert all(r.delta_wl is not None and r.dist_xstar is not None
                   for r in known.outer_records)
        assert all(r.delta_wl is None and r.dist_xstar is None for r in blind.outer_records)
