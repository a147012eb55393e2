"""tikgrad benchmark: one workload per process, end to end or traced per layer.

    python3 benchmarks/run.py --workload small_n --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload verify --seed 0 --seconds 30 --trace 1 \
        --compare earlier_output.txt

The program is imported from src/ of the checkout this file sits in.  The
run repeats its workload until --seconds have passed and checks every
output.  It prints one line per metric, a JSON "record" line (environment,
work counters, every metric) and, last, the result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of BENCHMARK.json.  The end-to-end timings are rescaled to a
fixed machine speed by a reference loop run during them (reference.py).
--compare takes the saved output of an earlier run and prints the
per-counter and per-metric differences.
"""

from __future__ import annotations

import os

# one sequential caller in one process: keep numpy's BLAS from starting threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import glob
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDED_COUNTS = HERE / "baseline_counts.json"
WORKLOADS = ("small_n", "large_n", "verify")
METHODS = ("gprm", "cgrm")

E2E_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB", "final_dist": "l2"}
# printed and recorded with them, but not metrics of BENCHMARK.json: the wall
# times behind setup_s and solve_s, the reference loop's time, and write_s
INFO_TIMINGS = ("setup_wall_s", "solve_wall_s", "reference_s", "write_s")
# write_s is printed with the metrics above but is not one of them: its few ms
# of small-file writes on small_n and verify moved 17-42% between runs on a
# shared 2-vCPU machine, more than any bound BENCHMARK.json may set

# per-method layer metrics, reported as <name>.gprm and <name>.cgrm
METHOD_UNITS = {
    "solvers.self_s": "s", "solvers.self_us_per_iter": "us", "solvers.us_per_iter": "us",
    "solvers.inner_iters": "count", "solvers.gradient_evals": "count",
    "solvers.linesearch_trials": "count", "solvers.accept_ratio": "ratio",
    "solvers.levels": "count", "solvers.last_level_frac": "ratio",
    "bench.value_calls": "count", "bench.value_s": "s",
    "bench.grad_calls": "count", "bench.grad_s": "s",
    "oracles.project_calls": "count", "oracles.project_s": "s",
    "oracles.lmo_calls": "count", "oracles.lmo_s": "s",
    "bench.csv_s": "s", "bench.sidecar_s": "s",
    "bench.csv_bytes": "B", "bench.sidecar_bytes": "B",
    "trace.overhead_frac": "ratio",
}
# layers only the verify workload calls; 0 on the run workloads
VERIFY_UNITS = {
    "regularization.tikhonov_calls": "count", "regularization.tikhonov_s": "s",
    "regularization.path_check_s": "s", "bench.complexity_s": "s",
    "solvers.baseline_s": "s", "acceptance.self_s": "s",
    "acceptance.criteria_passed": "count",
}


def layer_units() -> dict:
    units = {f"{name}.{m}": unit for name, unit in METHOD_UNITS.items() for m in METHODS}
    units.update(VERIFY_UNITS)
    return units


def _import_program():
    """Put the checkout's src/ first on the path; fail if it is not there."""
    if not (ROOT / "src" / "tikgrad" / "__init__.py").is_file():
        sys.exit(f"error: no tikgrad sources at {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import tikgrad
    if Path(tikgrad.__file__).resolve().parent != ROOT / "src" / "tikgrad":
        sys.exit(f"error: imported tikgrad from {tikgrad.__file__}, not from this checkout")


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment() -> dict:
    import numpy as np

    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = []
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        caches.append(f"L{_read(d + '/level')} {_read(d + '/type')} {_read(d + '/size')}")
    l3 = [c.split()[-1] for c in caches if c.startswith("L3")]
    l3_bytes = int(l3[0][:-1]) * 1024 if l3 and l3[0].endswith("K") else None
    vector_bytes = 8 * 10**6
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        # computed from the dtype, not measured
        "vector_bytes_n1e6_computed": vector_bytes,
        "l3_bytes": l3_bytes,
        "large_n_vector_fits_l3": None if l3_bytes is None else vector_bytes < l3_bytes,
    }


def summarize(samples: list[float]) -> str:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    text = f"median of {len(samples)}"
    for p in (99, 95, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(samples, n=100)[p - 1]
            return f"{text}, p{p} {q:.6g}"
    return text


def _median_of(reps, fn) -> float:
    return statistics.median(fn(r) for r in reps)


def layer_metrics(timed: list, traced: list) -> dict:
    """Per-layer metrics from the traced repeats, against the untraced ones."""
    out = {}
    for m in METHODS:
        last = traced[-1].layers[m]
        iters = last["inner_iters"]
        self_s = _median_of(traced, lambda r: r.layers[m]["solver_s"] - sum(
            r.layers[m][f"{k}_s"] for k in ("value", "grad", "project", "lmo")))
        plain_solve = _median_of(timed, lambda r: r.layers[m]["solve_s"])
        values = {
            "solvers.self_s": self_s,
            "solvers.self_us_per_iter": 1e6 * self_s / iters,
            "solvers.us_per_iter": 1e6 * plain_solve / iters,
            "solvers.inner_iters": iters,
            "solvers.gradient_evals": last["gradient_evals"],
            "solvers.linesearch_trials": last["linesearch_trials"],
            "solvers.accept_ratio": iters / last["linesearch_trials"],
            "solvers.levels": last["levels"],
            "solvers.last_level_frac": last["last_level_iters"] / iters,
            "bench.csv_bytes": last["csv_bytes"],
            "bench.sidecar_bytes": last["sidecar_bytes"],
            "trace.overhead_frac":
                _median_of(traced, lambda r: r.layers[m]["solve_s"]) / plain_solve - 1.0,
        }
        for layer, key in (("bench", "value"), ("bench", "grad"),
                           ("oracles", "project"), ("oracles", "lmo")):
            values[f"{layer}.{key}_calls"] = last[f"{key}_calls"]
            values[f"{layer}.{key}_s"] = _median_of(traced, lambda r: r.layers[m][f"{key}_s"])
        for key in ("csv_s", "sidecar_s"):
            values[f"bench.{key}"] = _median_of(traced, lambda r: r.layers[m][key])
        out.update({f"{name}.{m}": v for name, v in values.items()})

    if traced[-1].misc:  # verify: the acceptance-level callables
        secs = lambda name: _median_of(traced, lambda r: r.misc[name][1])
        out["regularization.tikhonov_calls"] = traced[-1].misc["tikhonov_solve"][0]
        out["regularization.tikhonov_s"] = secs("tikhonov_solve")
        out["regularization.path_check_s"] = secs("path_check")
        out["bench.complexity_s"] = _median_of(
            traced, lambda r: r.misc["measure_complexity"][1] + r.misc["with_bounds"][1])
        out["solvers.baseline_s"] = _median_of(
            traced, lambda r: r.misc["run_gpm"][1] + r.misc["run_cgm"][1])
        out["acceptance.self_s"] = _median_of(traced, lambda r: r.solve_s - sum(
            seconds for _, seconds in r.misc.values())
            - sum(r.layers[m]["solver_s"] for m in METHODS))
        out["acceptance.criteria_passed"] = traced[-1].criteria_passed
    else:
        out.update({name: 0 for name in VERIFY_UNITS})
    return out


def _total(pairs) -> tuple[float, float]:
    """Net and scaled time of a repeat's solves, summed."""
    nets, scaled = zip(*pairs)
    return sum(nets), sum(scaled)


def _load_record(path: str) -> dict:
    with open(path) as fh:
        for line in reversed(fh.read().splitlines()):
            if line.startswith('{"record"'):
                return json.loads(line)["record"]
    raise ValueError(f"{path}: no record line")


def print_count_diff(label: str, old: dict, new: dict) -> None:
    """Counters that changed are reported, not failed: algorithmic changes move them."""
    changed = [
        f"  {config} {k}: {old[config][k]} -> {v} ({v - old[config][k]:+d})"
        for config, counters in new.items() if config in old
        for k, v in counters.items() if old[config].get(k) != v
    ]
    missing = sorted(set(new) ^ set(old))
    print(f"counters vs {label}: " + ("identical" if not changed and not missing
                                      else f"{len(changed)} changed"))
    for line in changed:
        print(line)
    for config in missing:
        print(f"  {config}: only in {'this run' if config in new else label}")


def compare(record: dict, path: str) -> None:
    earlier = _load_record(path)
    if (earlier["workload"], earlier["trace"]) != (record["workload"], record["trace"]):
        print(f"compare: {path} is {earlier['workload']} trace={earlier['trace']}; "
              "only matching names are compared")
    print_count_diff(path, earlier["counters"], record["counters"])
    for name, new in record["metrics"].items():
        old = earlier["metrics"].get(name)
        if old is None:
            continue
        a, b = old["value"], new["value"]
        rel = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"  {name}: {a:.6g} -> {b:.6g} {new['unit']} ({rel})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", metavar="FILE",
                    help="saved output of an earlier run to print differences against")
    args = ap.parse_args(argv)

    _import_program()
    from reference import SpeedSampler
    from workloads import Checks, workload

    w = workload(args.workload, args.seed)
    clock = time.perf_counter
    # the end-to-end timings are rescaled to the reference loop's nominal
    # speed; the traced run's per-layer timings are not, and it runs no sampler
    sampler = SpeedSampler(w.reference)
    setup_blocks = []
    checks = Checks()
    modes = ("timed", "traced") if args.trace else ("plain",)
    reps = {mode: [] for mode in modes}
    with (tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp,
          contextlib.nullcontext() if args.trace else sampler.running()):
        # warm-up, checked but not timed: the first repeat pays first-touch page
        # faults (about 25% of large_n's solve) and lazy imports
        w.repeat(w.setup(), tmp, checks, modes[0])
        start = clock()
        while not reps[modes[0]] or clock() - start < args.seconds:
            # set-ups are spread over the run, like the repeats, so that both
            # see the same mix of quiet and busy periods of the machine
            for _ in range(w.setups_per_repeat):
                state = None  # large_n: free the previous problems before rebuilding
                t0 = clock()
                state = w.setup()
                setup_blocks.append((t0, clock()))
            for mode in modes:
                reps[mode].append(w.repeat(state, tmp, checks, mode))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        values = layer_metrics(reps["timed"], reps["traced"])
        units = layer_units()
        print(f"{args.workload} seed={args.seed} traced: {len(reps['traced'])} traced and "
              f"{len(reps['timed'])} untraced repeats; medians over repeats")
        for name, unit in units.items():
            print(f"{name} {values[name]:.6g} {unit}")
    else:
        plain = reps["plain"]
        setups = [sampler.scale(*block) for block in setup_blocks]
        solves = [_total(sampler.scale(*block) for block in r.solve_blocks) for r in plain]
        samples = {"setup_s": [s for _, s in setups], "solve_s": [s for _, s in solves],
                   "setup_wall_s": [n for n, _ in setups], "solve_wall_s": [n for n, _ in solves],
                   "write_s": [t for r in plain for t in r.write_rounds],
                   "reference_s": sampler.seconds}
        values = {name: statistics.median(s) for name, s in samples.items()}
        values["peak_rss_mb"] = peak_rss_mb
        values["final_dist"] = max(r.final_dist for r in plain)
        units = E2E_UNITS
        print(f"{args.workload} seed={args.seed}: {len(plain)} repeats; setup_s and solve_s "
              f"at the {w.reference} reference loop's nominal {sampler.nominal_s} s")
        for name, unit in {**units, **{k: "s" for k in INFO_TIMINGS}}.items():
            extra = f" ({summarize(samples[name])})" if name in samples else ""
            print(f"{name} {values[name]:.6g} {unit}{extra}")
    fail_frac = len(checks.failed) / checks.run
    print(f"fail_frac {fail_frac:.6g} ({len(checks.failed)} of {checks.run} checks failed)")
    for name in checks.failed:
        print(f"FAILED {name}")
    iters = {name: c["inner_iterations"] for name, c in checks.counts.items()}
    print(f"inner iterations at seed {args.seed}: {json.dumps(iters)}")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(),
        "counters": checks.counts, "fail_frac": fail_frac, "metrics": dict(metrics),
    }
    if not args.trace:
        record["metrics"].update({k: {"value": values[k], "unit": "s"} for k in INFO_TIMINGS})
    recorded = json.loads(RECORDED_COUNTS.read_text()) if RECORDED_COUNTS.is_file() else {}
    by_seed = recorded.get(args.workload, {})
    at_seed = by_seed.get(str(args.seed), by_seed.get("fixed"))  # "fixed": seed not used
    if at_seed is None:
        print(f"counters vs {RECORDED_COUNTS.name}: none recorded for seed {args.seed}")
    else:
        print_count_diff(RECORDED_COUNTS.name, at_seed, checks.counts)
    if args.compare:
        compare(record, args.compare)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not checks.failed, "attempted": checks.run,
        "failed": len(checks.failed), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
