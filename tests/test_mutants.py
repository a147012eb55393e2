"""Mutant matrix: one-line defects in the two-level driver that `tikgrad
verify` passes, and the check that catches each.

Each mutant is a text substitution applied to a copy of the package under
tmp_path.  A subprocess, limited to 60 s, runs the four sigma = 1/2
canonical runs (gprm and cgrm on illposed_box(2) and illposed_simplex(3),
epsilon_min 1e-4, start e_1) from that copy and prints their per-level N_l.
decimal_shadow replays the same four runs in 200 digits; a mutant is caught
when some run's N_l differ from the shadow's, or the run raises.  A
substitution whose old text no longer matches the source fails, so the
matrix cannot go stale unnoticed.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tikgrad import acceptance

import decimal_shadow

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tikgrad"

# id, module, old text, mutant text: each passes `tikgrad verify` 11/11
MUTANTS = [
    ("handoff_at_2_delta", "solvers.py", "if test <= delta:", "if test <= 2 * delta:"),
    ("armijo_half_beta", "solvers.py",
     "t * slope + 0.5 * t * t * kappa <= -beta * lam * quad_coeff:",
     "t * slope + 0.5 * t * t * kappa <= -0.5 * beta * lam * quad_coeff:"),
    ("half_eps_in_gradient", "solvers.py",
     "np.multiply(x, eps_0d, d)", "np.multiply(x, 0.5 * eps_0d, d)"),
    ("kappa_without_eps", "solvers.py",
     "kappa = curvature(d) + eps * dn2", "kappa = curvature(d)"),
]

# the four runs' N_l, or the name of the error a run raised, as JSON
RUNS = """
import json
from tikgrad import acceptance
from tikgrad.core import LineSearchFailure, OracleFailure, RunawayInnerLoop
ctx, out = acceptance.SuiteContext(), []
for method, label in acceptance.TWO_LEVEL_CASES:
    try:
        trace = ctx.two_level_run(method, label, 0.5)[3]
        out.append([r.N_l for r in trace.outer_records if r.l >= 1])
    except (LineSearchFailure, OracleFailure, RunawayInnerLoop) as exc:
        out.append(type(exc).__name__)
print(json.dumps(out))
"""


def _start(root, module=None, old=None, new=None):
    """Copy the package under root, substitute new for the one occurrence of
    old in module, and start the four runs on the copy."""
    shutil.copytree(PACKAGE, root / "tikgrad", ignore=shutil.ignore_patterns("__pycache__"))
    if module is not None:
        path = root / "tikgrad" / module
        text = path.read_text()
        assert text.count(old) == 1, f"{module} no longer holds {old!r} once"
        path.write_text(text.replace(old, new))
    env = {**os.environ, "PYTHONPATH": str(root), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen([sys.executable, "-c", RUNS], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _counts(proc):
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    assert proc.returncode == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """(shadow N_l, unmutated copy's N_l, {mutant id: its N_l}), the copies'
    subprocesses running while the shadow replays."""
    procs = {}
    try:
        procs[None] = _start(tmp_path_factory.mktemp("unmutated"))
        for name, module, old, new in MUTANTS:
            procs[name] = _start(tmp_path_factory.mktemp(name), module, old, new)
        shadow = []
        for method, label in acceptance.TWO_LEVEL_CASES:
            family, n = label[:-1].split("(")
            shadow.append(decimal_shadow.replay(method, family, int(n),
                                                acceptance.ACCEPT_EPS_MIN)[0])
        counts = {name: _counts(proc) for name, proc in procs.items()}
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    return shadow, counts.pop(None), counts


def test_the_unmutated_copy_is_the_shadow(matrix):
    """The harness itself: an exact copy of the package takes the shadow's
    N_l on all four runs, so a difference below comes from the mutant."""
    shadow, unmutated, _ = matrix
    assert unmutated == shadow


@pytest.mark.parametrize("name", [m[0] for m in MUTANTS])
def test_the_shadow_catches_each_mutant_that_verify_passes(matrix, name):
    shadow, _, mutants = matrix
    assert any(got != want for got, want in zip(mutants[name], shadow)), (
        f"{name} takes the shadow's N_l on all four runs")
