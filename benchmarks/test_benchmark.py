"""Tests of the benchmark itself.  Run with: python3 -m pytest benchmarks"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tikgrad import acceptance  # noqa: E402
from tikgrad.bench import run_experiment  # noqa: E402

import run  # noqa: E402
from reference import LOOPS, PERIOD_S, SpeedSampler  # noqa: E402
from tracing import ACCEPTANCE_CALLS, LayerProbes, Probe, instrument_acceptance  # noqa: E402
from workloads import METHODS, Checks, RunWorkload, small_n_specs  # noqa: E402

TINY_EPS_MIN = 1e-2
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_specs(seed):
    """small_n at a coarse floor, where the 5e-2 accuracy check does not apply."""
    return [dataclasses.replace(s, dist_limit=None)
            for s in small_n_specs(seed, epsilon_min=TINY_EPS_MIN)]


@pytest.mark.parametrize("seed", [0, 3])
def test_traced_and_untraced_runs_do_identical_work(tmp_path, seed):
    w = RunWorkload(tiny_specs(seed), setups_per_repeat=1, write_rounds=1)
    cases = w.setup()
    checks = Checks()
    plain = w.repeat(cases, str(tmp_path), checks, "plain")
    traced = w.repeat(cases, str(tmp_path), checks, "traced")
    assert checks.failed == []
    assert set(checks.counts) == {case.name for case in cases}
    for m in METHODS:
        for key in ("inner_iters", "gradient_evals", "linesearch_trials", "levels"):
            assert traced.layers[m][key] == plain.layers[m][key]
        assert traced.layers[m]["grad_calls"] == traced.layers[m]["gradient_evals"]


def test_counter_gate_fails_when_work_changes(tmp_path):
    case = RunWorkload(tiny_specs(0), 1, 1).setup()[0]
    checks = Checks()
    checks.same_work(case.name, run_experiment(case.cfg))
    trace = run_experiment(case.cfg)
    checks.same_work(case.name, trace)
    assert checks.failed == []
    trace.counters.inner_iterations += 1
    checks.same_work(case.name, trace)
    assert len(checks.failed) == 1


def test_acceptance_bindings_are_restored_after_an_error():
    names = ("run_gprm", "run_cgrm") + ACCEPTANCE_CALLS
    before = {name: getattr(acceptance, name) for name in names}
    layers = {m: LayerProbes() for m in METHODS}
    misc = {name: Probe() for name in ACCEPTANCE_CALLS}
    with pytest.raises(RuntimeError):
        with instrument_acceptance(layers, misc, inner=True):
            assert all(getattr(acceptance, name) is not before[name] for name in names)
            raise RuntimeError("boom")
    assert all(getattr(acceptance, name) is before[name] for name in names)


def test_count_diff_reports_changed_counters(capsys):
    old = {"gprm p": {"inner_iterations": 10, "gradient_evals": 12}}
    new = {"gprm p": {"inner_iterations": 8, "gradient_evals": 12}}
    run.print_count_diff("earlier", old, new)
    out = capsys.readouterr().out
    assert "1 changed" in out
    assert "gprm p inner_iterations: 10 -> 8 (-2)" in out


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_with_its_unit(trace, key):
    args = ["--workload", "small_n", "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    out = subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=ROOT,
                         capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines), name
    assert any(line.startswith("fail_frac 0 ") for line in lines)
    if trace == 0:  # printed, though not metrics of BENCHMARK.json
        for name in run.INFO_TIMINGS:
            assert any(line.startswith(f"{name} ") and " s (" in line for line in lines), name


def test_speed_sampler_nets_out_its_loops_and_rescales():
    sampler = SpeedSampler("small")
    sampler.starts = [0.0, 1.0, 2.0, 3.0]
    sampler.seconds = [0.5, 0.004, 0.004, 0.5]
    net, scaled = sampler.scale(0.9, 2.5)
    # the loops at 1.0 and 2.0 ran inside the block and are the ones near it
    assert net == pytest.approx(1.6 - 0.008)
    assert scaled == pytest.approx(net * sampler.nominal_s / 0.004)


@pytest.mark.parametrize("kind", sorted(LOOPS))
def test_speed_sampler_ticks_and_restores_the_signal_state(kind):
    loop = LOOPS[kind]()
    assert loop() == loop()  # fixed work
    before = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler(kind)
    with sampler.running():
        deadline = time.perf_counter() + 10 * PERIOD_S
        while len(sampler.seconds) < 2 and time.perf_counter() < deadline:
            time.sleep(PERIOD_S / 10)
    assert len(sampler.seconds) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "small_n", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
