"""Alternating before/after pairs of the benchmark harness on two checkouts.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload large_n --pairs 10 \
        --seed0 101 --out BENCH_35.json [--trace 0] [--round LABEL]

PARENT and CHANGE are checkout directories, each with its own
benchmarks/run.py and src/.  Pair k runs both sides at seed seed0 + k, each
as a process of its own started in its checkout; the parent goes first in
even pairs and the change in odd ones, so a drift of the machine's speed
does not favour one side.  The run length is each checkout's run.py
default, the same on both sides.  Each run's JSON record line is appended to
--out, one line per run, with the side, pair, seed and order (and round,
if given); a cut session keeps the pairs it finished.  At the end the script
prints, per metric, each side's median and quartiles and the number of pairs
each side won, ties counting for neither.  A metric's better direction is
read from the change's BENCHMARK.json (lower where it names none).

The standard library alone: nothing is imported from either checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """The record of one run of checkout's benchmarks/run.py; echoes its
    counter and fail_frac lines.  SystemExit if the run prints no record."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    record = None
    for line in proc.stdout.splitlines():
        if line.startswith('{"record": '):
            record = json.loads(line)["record"]
        elif line.startswith(("counters vs", "fail_frac")):
            print(f"    {line}")
    if proc.returncode != 0 or record is None:
        sys.exit(f"{checkout}: run.py exited {proc.returncode} with no record\n{proc.stderr[-2000:]}")
    return record


def directions(checkout: Path) -> dict:
    """metric name -> "lower" or "higher", from checkout's BENCHMARK.json."""
    path = checkout / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m.get("better", "lower")
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list, better: dict) -> None:
    """Print per metric each side's median [quartiles] and the pair wins."""
    names = [n for n in pairs[0]["parent"]["metrics"] if n in pairs[0]["change"]["metrics"]]
    print(f"{'metric':32} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36}"
          "  wins change/parent")
    for name in names:
        vals = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        wins = {s: 0 for s in SIDES}
        for a, b in zip(vals["parent"], vals["change"]):
            if a != b:
                wins["change" if sign * b < sign * a else "parent"] += 1
        cells = []
        for s in SIDES:
            q1, q2, q3 = quartiles(vals[s])
            cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"{name:32} {cells[0]:>36} {cells[1]:>36}  {wins['change']}/{wins['parent']}"
              f" of {len(pairs)}")
    for s in SIDES:
        print(f"{s} fail_frac max {max(p[s]['fail_frac'] for p in pairs):.6g}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--round", help="label stored with each record")
    args = ap.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for k in range(args.pairs):
        seed = args.seed0 + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            print(f"pair {k} seed {seed}: {side}", flush=True)
            pair[side] = run_once(checkouts[side], args.workload, seed, args.trace)
            line = {"record": pair[side], "side": side, "pair": k, "seed": seed,
                    "order": f"{order[0]}_first"}
            if args.round is not None:
                line["round"] = args.round
            with open(args.out, "a") as fh:
                fh.write(json.dumps(line) + "\n")
        pairs.append(pair)
    summarize(pairs, directions(checkouts["change"]))


if __name__ == "__main__":
    main()
