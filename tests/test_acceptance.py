"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each test prints its one-line verdict so a -s run reads as the full
acceptance report; shared solver runs live in a module-scoped context.
"""

import hashlib
import itertools

import numpy as np
import pytest

from tikgrad import acceptance
from tikgrad.bench import (
    ExperimentConfig,
    bound_constants,
    bundled_problem,
    solver_constants,
    write_trace_csv,
)
from tikgrad.regularization import IterRegSchedule
from tikgrad.solvers import run_cgm, run_gpm, run_iterreg


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


def test_criterion_6_every_level_finishes_finitely(ctx):
    _check(acceptance.criterion_6(ctx))


def test_criterion_7_certificates_hold_on_sampled_iterates(ctx):
    _check(acceptance.criterion_7(ctx))


def test_criterion_8_tikhonov_path_inequalities_and_limit(ctx):
    _check(acceptance.criterion_8(ctx))


def test_criterion_9_baseline_value_rate_stays_bounded(ctx):
    _check(acceptance.criterion_9(ctx))


def test_criterion_10_oracle_randomized_suites(ctx):
    _check(acceptance.criterion_10(ctx))


def test_criterion_11_complexity_exponent_tracks_sigma(ctx):
    _check(acceptance.criterion_11(ctx))


def test_run_all_covers_every_criterion_once(ctx):
    results = acceptance.run_all(ctx)
    assert [r.number for r in results] == list(range(1, 12))
    assert all(r.passed for r in results)


# Trace CSV SHA-256, final_point.tobytes() SHA-256, OracleCounters in field
# order, and min_observed_lambda of canonical runs.  Refactors of the solvers
# must reproduce them bit for bit; a change that alters the arithmetic on
# purpose re-records them and says why.
GOLDEN = {
    "gprm illposed_box(2)": (
        "af3c71aee5bae7d5a6c34c744b388406449acb20d3464e659f125b3ec2dad650",
        "f6a9de137ae86840b568226dd65ffe55a88221ced774777fe11c9c2d55e98c6d",
        (5645, 5645, 0, 5652, 5632), 0.5,
    ),
    "gprm illposed_simplex(3)": (
        "5067fd8bc756a92ae5b3ba3346cff82b6cf7eeee50dbf5b5ed258fdb513dde70",
        "7776e19732271a4ee21ba7b2202893a883ca21734c7b05f8af6a866df8d2c7f9",
        (5627, 5627, 0, 5616, 5614), 0.5,
    ),
    "cgrm illposed_box(2)": (
        "b7c86c1ec974b728f388ca67d1c11bbcbb7389dd26c7d740028444f0a00ed99b",
        "9d9de4d323cca34e91115ed728078000cadd43f7a1dc02b5f742583bd289d34c",
        (15595, 0, 15595, 31170, 15582), 0.0625,
    ),
    "cgrm illposed_simplex(3)": (
        "3f5f6eef246070b4a722c1bcf86a24003c904d27cae360672d7fbc8fd32185aa",
        "bf57e99cb7b9820646f05d9214cb0a8b980095822fa1cf88cfe628f64194db77",
        (7824, 0, 7824, 7850, 7811), 0.125,
    ),
    # gpm and cgm take their steps 1/L from estimate_lipschitz_quadratic, which
    # returns ||A||_2^2 = 4 and 1 exactly for these two problems
    "gpm": (
        "ea91446effa9f6be17954257f7f397e3914ba29b0e872ca65f489e0f73868503",
        "029ca80705776adb14f722f9a4c98e1b359462e452770ff1d1f9699317a21e67",
        (200, 200, 0, 0, 200), 0.25,
    ),
    "cgm": (
        "cfee5d0397486869f77030158332c41eb65aa20ed566a348fce65e57931e5ec5",
        "77f167be29d8ea73023c5674a8dfac9f4008c692e931c61dcd778babfc4963c1",
        (200, 0, 200, 0, 200), -0.0,
    ),
    "iterreg": (
        "0b6a070cb211dc33081bb77aedcd499f4af2cc6a3b0513d75c8db089c1fc8a9f",
        "f4eab351545f09f400e71a684db02de59ebd7adfff938cd5eb02668470960f2e",
        (200, 200, 0, 0, 200), 0.07071067811865475,
    ),
}


def _canonical_runs(ctx):
    """The sigma = 0.5 suite runs (shared with the criteria above) and short baselines."""
    for method, label in acceptance.TWO_LEVEL_CASES:
        yield f"{method} {label}", ctx.two_level_run(method, label, 0.5)[3]
    box = bundled_problem("wellposed_box(2)")
    yield "gpm", run_gpm(box.problem, 1.0 / box.analytic_L, np.zeros(2), 200)
    simplex = bundled_problem("wellposed_simplex(3)")
    yield "cgm", run_cgm(simplex.problem, 1.0 / simplex.analytic_L, np.array([1.0, 0.0, 0.0]), 200)
    ill = bundled_problem("illposed_box(2)")
    yield "iterreg", run_iterreg(ill.problem, IterRegSchedule(0.25), np.array([1.0, 0.0]), 200)


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
