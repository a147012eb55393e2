"""The benchmark's three workloads and the correctness checks on their outputs.

small_n   the two slow low-dimensional configurations: per-iteration
          interpreter overhead in the drivers, objectives and oracles.
large_n   the same drivers at n = 10**6, where vector work, copies and trace
          serialization dominate and per-iteration overhead does not show.
verify    the acceptance suite, the only caller of the baselines, the sigma
          sweep and the Tikhonov path oracle.

Every workload runs in one process as a single sequential caller.  A repeat
runs the workload once in one of three modes: "plain" (nothing wrapped; the
end-to-end numbers), "timed" (plain, plus clock reads at the boundary of the
acceptance suite's solver calls) and "traced" (the callables of every layer
behind timing proxies).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from tikgrad import acceptance, bench
from tikgrad.bench import (
    ExperimentConfig,
    GeneratedProblem,
    bundled_problem,
    default_start,
    read_trace_csv,
    run_experiment,
    sidecar_path,
    solver_constants,
    write_sidecar,
    write_trace_csv,
)
from tikgrad.regularization import GeometricSchedule
from tikgrad.solvers import MethodConstants, StopPolicy, run_cgrm, run_gprm

from tracing import ACCEPTANCE_CALLS, LayerProbes, Probe, instrument_acceptance, traced_problem

METHODS = ("gprm", "cgrm")

# The ROADMAP floor 1e-6 raised by three halvings: the schedule eps_l = 2**-l
# then stops after level 16, as it does at 1e-5, and one repeat of both
# configurations takes about 2 s instead of 15 s on a 2.1 GHz Xeon vCPU.
SMALL_EPS_MIN = 1e-6 * 2**3
SMALL_DIST_LIMIT = 5e-2
# Seeds other than 0 start at (1 - s) * roadmap_start + s * q, q uniform on
# the feasible set and s uniform on [0, START_SPREAD].  Uniform starts over
# the whole simplex split cgrm into two basins whose iteration counts differ
# about fivefold (x_3 above about 0.4 is the slow one), which would make the
# time of a run depend on the seed more than on the code; the spread keeps
# x_3 <= 0.2 and |x_1 - x_2| >= 0.4, so every seed stays in the ROADMAP
# start's basin.
START_SPREAD = 0.2
SMALL_N = (
    # method, problem, ROADMAP start, uniform draw from the feasible set
    ("gprm", "illposed_box(2)", (1.0, 0.0), lambda rng: rng.uniform(-1.0, 1.0, 2)),
    # (1, 0, 0) is the default vertex lmo(ones) of the simplex
    ("cgrm", "illposed_simplex(3)", (1.0, 0.0, 0.0), lambda rng: rng.dirichlet(np.ones(3))),
)
LARGE_N = 10**6

VERIFY_LABELS = (
    "illposed_box(2)", "illposed_simplex(3)", "rankdef_box(2)",
    "rankdef_simplex(3)", "wellposed_box(2)", "wellposed_simplex(3)",
)


@dataclass(frozen=True)
class RunSpec:
    """One solver configuration of a run workload; x0 None is the default start."""

    method: str
    label: str
    epsilon_min: float
    x0: Optional[tuple[float, ...]] = None
    dist_limit: Optional[float] = None

    @property
    def name(self) -> str:
        return f"{self.method} {self.label}"


def small_n_specs(seed: int, epsilon_min: float = SMALL_EPS_MIN) -> list[RunSpec]:
    rng = np.random.default_rng(seed)
    specs = []
    for method, label, start, draw in SMALL_N:
        x0 = np.asarray(start)
        if seed != 0:
            s = rng.uniform(0.0, START_SPREAD)
            x0 = (1.0 - s) * x0 + s * draw(rng)
        specs.append(RunSpec(method, label, epsilon_min,
                             tuple(float(v) for v in x0), SMALL_DIST_LIMIT))
    return specs


def large_n_specs() -> list[RunSpec]:
    """Fixed inputs: a drawn 10**6-entry x0 would itself land in the sidecar."""
    return [
        RunSpec("gprm", f"illposed_box({LARGE_N})", 1e-6),  # ExperimentConfig's default
        RunSpec("cgrm", f"illposed_simplex({LARGE_N})", 1e-2),
    ]


@dataclass
class Case:
    """A configuration ready to run: config, problem, start and constants."""

    name: str
    cfg: ExperimentConfig
    gp: GeneratedProblem
    x0: np.ndarray
    consts: MethodConstants
    dist_limit: Optional[float] = None


class Checks:
    """Correctness checks of one benchmark run; failures feed fail_frac."""

    def __init__(self):
        self.run = 0
        self.failed: list[str] = []
        self.counts: dict[str, dict] = {}
        self._fingerprints: dict = {}

    def add(self, name: str, ok: bool) -> None:
        self.run += 1
        if not ok:
            self.failed.append(name)

    def same_work(self, name: str, trace) -> None:
        """Counters and final point must repeat exactly, traced or not."""
        fp = (
            trace.counters.as_dict(),
            hashlib.sha1(trace.final_point.tobytes()).hexdigest(),
            trace.min_observed_lambda,
        )
        if name in self._fingerprints:
            self.add(f"{name}: counters and final point reproduce",
                     fp == self._fingerprints[name])
        else:
            self._fingerprints[name] = fp
            self.counts[name] = fp[0]


@dataclass
class Repeat:
    """What one repeat of a workload measured."""

    solve_s: float = 0.0
    # (start, end) clock readings of each timed solve, for reference.SpeedSampler
    solve_blocks: list[tuple[float, float]] = field(default_factory=list)
    # write rounds: each writes every trace of the repeat once
    write_rounds: list[float] = field(default_factory=list)
    final_dist: float = 0.0
    criteria_passed: int = 0
    # per method: timings, call counts, work counters (summed over its runs)
    layers: dict = field(default_factory=lambda: {m: {} for m in METHODS})
    misc: dict = field(default_factory=dict)

    def add(self, method: str, **values) -> None:
        dst = self.layers[method]
        for key, v in values.items():
            dst[key] = dst.get(key, 0) + v


def _records(trace) -> list[dict]:
    return [
        {
            "l": r.l,
            "epsilon_l": None if r.epsilon_l is None else float(r.epsilon_l),
            "delta_l": None if r.delta_l is None else float(r.delta_l),
            "N_l": r.N_l,
            "delta_wl": None if r.delta_wl is None else float(r.delta_wl),
            "dist_xstar": None if r.dist_xstar is None else float(r.dist_xstar),
            "cum_inner": r.cum_inner,
        }
        for r in trace.outer_records
    ]


def _write_and_check(case: Case, trace, directory: str, checks: Checks, rep: Repeat,
                     rounds: int) -> None:
    """Write the trace as `tikgrad run --output` would, then check the outputs."""
    path = os.path.join(directory, "trace.csv")
    side = sidecar_path(path)
    cfg = dataclasses.replace(case.cfg, output_path=path)
    clock = time.perf_counter
    csv_s = sidecar_s = 0.0
    for i in range(rounds):
        t0 = clock()
        write_trace_csv(trace, path)
        t1 = clock()
        write_sidecar(cfg, case.gp, trace, case.consts, side)
        t2 = clock()
        rep.write_rounds[i] += t2 - t0
        csv_s += t1 - t0
        sidecar_s += t2 - t1

    fs = case.gp.problem.feasible_set
    dist = float(np.linalg.norm(trace.final_point - case.gp.analytic_xstar_n))
    rep.final_dist = max(rep.final_dist, dist)
    checks.add(f"{case.name}: final point feasible at 1e-10",
               fs.contains(trace.final_point, 1e-10))
    checks.add(f"{case.name}: min lambda >= gamma",
               trace.min_observed_lambda >= case.consts.gamma)
    if case.dist_limit is not None:
        checks.add(f"{case.name}: final dist {dist:.3e} < {case.dist_limit}",
                   dist < case.dist_limit)
    checks.add(f"{case.name}: trace CSV round-trips", read_trace_csv(path) == _records(trace))
    checks.same_work(case.name, trace)

    levels = [r for r in trace.outer_records if r.l >= 1]
    c = trace.counters
    rep.add(
        case.cfg.method,
        csv_s=csv_s / rounds, sidecar_s=sidecar_s / rounds,
        csv_bytes=os.path.getsize(path), sidecar_bytes=os.path.getsize(side),
        inner_iters=c.inner_iterations, gradient_evals=c.gradient_evals,
        linesearch_trials=c.linesearch_trials, levels=len(levels),
        last_level_iters=levels[-1].N_l,
    )


def _add_probes(rep: Repeat, method: str, probes: LayerProbes) -> None:
    inner = probes.inner
    rep.add(
        method,
        solver_s=probes.solver.seconds,
        **{f"{k}_s": p.seconds for k, p in inner.items()},
        **{f"{k}_calls": p.calls for k, p in inner.items()},
    )


def _check_probe_counts(checks: Checks, name: str, probes: LayerProbes, counters) -> None:
    """Proxied oracle calls must equal what the solvers' own counters say."""
    inner = probes.inner
    ok = (inner["grad"].calls == sum(c.gradient_evals for c in counters)
          and inner["project"].calls == sum(c.projections for c in counters)
          and inner["lmo"].calls == sum(c.lmo_calls for c in counters))
    checks.add(f"{name}: proxied calls match OracleCounters", ok)


class RunWorkload:
    """small_n and large_n: run_experiment on each configuration in turn."""

    def __init__(self, specs: list[RunSpec], setups_per_repeat: int, write_rounds: int,
                 reference: str = "small"):
        self.specs = specs
        self.reference = reference
        self.setups_per_repeat = setups_per_repeat
        self.write_rounds = write_rounds

    def setup(self) -> list[Case]:
        """Build the problems with a cold cache, plus starts and constants."""
        bench._PROBLEM_CACHE.clear()
        cases = []
        for s in self.specs:
            cfg = ExperimentConfig(s.label, s.method, epsilon_min=s.epsilon_min, x0=s.x0)
            gp = bundled_problem(s.label)
            x0 = default_start(gp, s.method) if s.x0 is None else np.asarray(s.x0)
            cases.append(Case(s.name, cfg, gp, x0, solver_constants(cfg, gp, x0), s.dist_limit))
        return cases

    def repeat(self, cases: list[Case], directory: str, checks: Checks, mode: str) -> Repeat:
        rep = Repeat(write_rounds=[0.0] * self.write_rounds)
        clock = time.perf_counter
        for case in cases:
            cfg = case.cfg
            if mode == "traced":
                probes = LayerProbes()
                problem = traced_problem(case.gp.problem, probes)
                run = run_gprm if cfg.method == "gprm" else run_cgrm
                sched = GeometricSchedule(cfg.epsilon0, cfg.nu, cfg.sigma)
                stop = StopPolicy(cfg.epsilon_min, cfg.max_outer, cfg.max_inner_per_l,
                                  cfg.max_linesearch_m)
                t0 = clock()
                # run_experiment derives the constants on every call, so the traced
                # solve does too (on the untraced problem: not solver work)
                consts = solver_constants(cfg, case.gp, case.x0)
                t1 = clock()
                trace = run(problem, sched, consts, case.x0, stop)
                t2 = clock()
                probes.solver.seconds = t2 - t1
                _add_probes(rep, cfg.method, probes)
                _check_probe_counts(checks, case.name, probes, [trace.counters])
            else:
                t0 = clock()
                trace = run_experiment(cfg)
                t2 = clock()
            solve = t2 - t0
            rep.solve_blocks.append((t0, t2))
            rep.solve_s += solve
            rep.add(cfg.method, solve_s=solve)
            _write_and_check(case, trace, directory, checks, rep, self.write_rounds)
            del trace  # large_n: release the trace's vectors before the next run
        return rep


class VerifyWorkload:
    """acceptance.run_all once per repeat, then the write path on its 12 runs."""

    setups_per_repeat = 8
    write_rounds = 4
    reference = "small"

    def setup(self) -> None:
        bench._PROBLEM_CACHE.clear()
        for label in VERIFY_LABELS:
            bundled_problem(label)

    def repeat(self, _state, directory: str, checks: Checks, mode: str) -> Repeat:
        rep = Repeat(write_rounds=[0.0] * self.write_rounds)
        layers = {m: LayerProbes() for m in METHODS}
        misc = {name: Probe() for name in ACCEPTANCE_CALLS}
        ctx = acceptance.SuiteContext()
        clock = time.perf_counter
        if mode == "plain":
            t0 = clock()
            results = acceptance.run_all(ctx)
            t1 = clock()
        else:
            with instrument_acceptance(layers, misc, inner=(mode == "traced")):
                t0 = clock()
                results = acceptance.run_all(ctx)
                t1 = clock()
        rep.solve_s = t1 - t0
        rep.solve_blocks.append((t0, t1))
        for r in results:
            checks.add(f"criterion {r.number:02d} {r.name}: {r.detail}", r.passed)

        counters = {m: [] for m in METHODS}
        for (method, label), sigma in itertools.product(acceptance.TWO_LEVEL_CASES,
                                                         acceptance.SIGMAS):
            gp, _, consts, trace, _ = ctx.two_level_run(method, label, sigma)
            x0 = np.zeros(gp.problem.feasible_set.dimension)
            x0[0] = 1.0  # the suite's start
            cfg = ExperimentConfig(label, method, sigma=sigma,
                                   epsilon_min=acceptance.ACCEPT_EPS_MIN,
                                   x0=tuple(float(v) for v in x0))
            case = Case(f"{method} {label} sigma={sigma}", cfg, gp, x0, consts)
            _write_and_check(case, trace, directory, checks, rep, self.write_rounds)
            counters[method].append(trace.counters)

        if mode != "plain":
            for method, probes in layers.items():
                rep.add(method, solve_s=probes.solver.seconds)
        if mode == "traced":
            for method, probes in layers.items():
                _add_probes(rep, method, probes)
                _check_probe_counts(checks, f"verify {method}", probes, counters[method])
            rep.misc = {name: (p.calls, p.seconds) for name, p in misc.items()}
        rep.criteria_passed = sum(bool(r.passed) for r in results)
        return rep


def workload(name: str, seed: int):
    if name == "small_n":
        return RunWorkload(small_n_specs(seed), setups_per_repeat=64, write_rounds=16)
    if name == "large_n":
        return RunWorkload(large_n_specs(), setups_per_repeat=2, write_rounds=1,
                           reference="large")
    if name == "verify":
        return VerifyWorkload()
    raise ValueError(f"unknown workload {name!r}")
