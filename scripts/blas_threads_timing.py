"""Time large-n `tikgrad run`s of two source trees with the BLAS thread
variables unset, in alternating pairs.

The configs are gprm on illposed_box(10**6) with epsilon_min 1e-6 and cgrm
on illposed_simplex(10**6) with epsilon_min 1e-2, each writing its trace.
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS are removed from
each run's environment, so a tree that does not pin them runs numpy's BLAS
with its default thread count:

    python scripts/blas_threads_timing.py OLD_SRC NEW_SRC [--pairs 5]

Each run is a fresh process, timed wall clock from start to exit.  Prints
each pair and the medians as JSON, with the sha256 of each tree's CSVs.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

CONFIGS = {
    "gprm illposed_box(10**6)": "problem_label = illposed_box(1000000)\nmethod = gprm\n"
                                "epsilon_min = 1e-6\n",
    "cgrm illposed_simplex(10**6)": "problem_label = illposed_simplex(1000000)\nmethod = cgrm\n"
                                    "epsilon_min = 1e-2\n",
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _timed_run(src: str, ini: str, out: str) -> tuple[float, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = src
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "tikgrad.cli", "run", ini, "--output", out],
                   env=env, check=True, capture_output=True)
    seconds = time.perf_counter() - t0
    with open(out, "rb") as fh:
        return seconds, hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args()
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, body in CONFIGS.items():
            ini = os.path.join(tmp, "run.ini")
            with open(ini, "w") as fh:
                fh.write("[experiment]\n" + body)
            times = {"old": [], "new": []}
            digests = {"old": set(), "new": set()}
            for i in range(args.pairs):
                order = ("old", "new") if i % 2 == 0 else ("new", "old")
                for side in order:
                    src = args.old_src if side == "old" else args.new_src
                    seconds, digest = _timed_run(src, ini, os.path.join(tmp, f"{side}.csv"))
                    times[side].append(round(seconds, 3))
                    digests[side].add(digest)
            result[name] = {
                "pairs": [list(p) for p in zip(times["old"], times["new"])],
                "median_old_s": statistics.median(times["old"]),
                "median_new_s": statistics.median(times["new"]),
                "csv_sha256": {k: sorted(v) for k, v in digests.items()},
            }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
