"""Replay criteria 1 and 2's runs in 200-digit decimal under other Pythons.

tests/decimal_shadow.py uses the standard library alone, so any Python 3
can run it, numpy or not.  This script runs it under each interpreter named
on the command line and compares the per-level inner iteration counts N_l
with those of the interpreter running the script:

    python scripts/shadow_interpreters.py /path/to/python3.10 /path/to/python3.13

It prints one line per interpreter and exits 1 if any differs or fails.
"""

import json
import subprocess
import sys
from pathlib import Path

SHADOW = Path(__file__).resolve().parents[1] / "tests" / "decimal_shadow.py"
VERSION = "import sys; print(sys.version.split()[0])"


def _run(python: str) -> tuple[str, dict]:
    version = subprocess.run([python, "-c", VERSION], capture_output=True, text=True,
                             check=True).stdout.strip()
    out = subprocess.run([python, str(SHADOW)], capture_output=True, text=True, check=True)
    return version, json.loads(out.stdout)


def main(pythons: list[str]) -> int:
    ref_version, ref = _run(sys.executable)
    print(f"reference: Python {ref_version}: {json.dumps(ref)}")
    status = 0
    for python in pythons:
        try:
            version, counts = _run(python)
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"{python}: failed: {exc}")
            status = 1
            continue
        same = counts == ref
        status = max(status, int(not same))
        print(f"{python} (Python {version}): N_l "
              + ("equal to the reference" if same else f"DIFFER: {json.dumps(counts)}"))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
