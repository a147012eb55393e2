"""Timing proxies wrapped around tikgrad's public callables from outside src/.

A Probe counts the calls that pass through it and the wall time they take.
traced_problem copies a Problem with its objective and oracle callables
swapped for proxies; instrument_acceptance rebinds the callables that
tikgrad.acceptance looks up by module global, and restores them on exit.
Nothing here changes the arithmetic of a run: a traced run must produce the
same OracleCounters and the same final point as an untraced one.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager

from tikgrad import acceptance

# the callables of one solver run that get their own probe
INNER = ("value", "grad", "project", "lmo")
# acceptance-module globals timed at their boundary in a traced verify run
ACCEPTANCE_CALLS = ("run_gpm", "run_cgm", "tikhonov_solve", "path_check",
                    "measure_complexity", "with_bounds")


class Probe:
    """Call count and accumulated wall time of one wrapped callable."""

    __slots__ = ("calls", "seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0

    def wrap(self, fn):
        if fn is None:
            return None
        clock = time.perf_counter

        def proxy(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            self.seconds += clock() - t0
            self.calls += 1
            return out

        return proxy


class LayerProbes:
    """Probes for one method: its solver calls and the callables inside them."""

    def __init__(self):
        self.solver = Probe()
        self.inner = {name: Probe() for name in INNER}


def traced_problem(problem, probes: LayerProbes):
    """Copy of problem whose value/gradient/projection/LMO report to probes."""
    inner = probes.inner
    before = [(p.calls, p.seconds) for p in inner.values()]
    obj, fs = problem.objective, problem.feasible_set
    copy = dataclasses.replace(
        problem,
        objective=dataclasses.replace(
            obj,
            value_fn=inner["value"].wrap(obj.value_fn),
            gradient_fn=inner["grad"].wrap(obj.gradient_fn),
        ),
        feasible_set=dataclasses.replace(
            fs,
            project_fn=inner["project"].wrap(fs.project_fn),
            lmo_fn=inner["lmo"].wrap(fs.lmo_fn),
        ),
    )
    # Problem.__post_init__ evaluates the objective at x*_n; that is not solver work
    for p, (calls, seconds) in zip(inner.values(), before):
        p.calls, p.seconds = calls, seconds
    return copy


def _two_level(fn, probes: LayerProbes, inner: bool):
    timed = probes.solver.wrap(fn)
    if not inner:
        return timed
    # the copy is made outside the solver's clock
    return lambda problem, *args, **kwargs: timed(traced_problem(problem, probes),
                                                  *args, **kwargs)


@contextmanager
def instrument_acceptance(layers: dict, misc: dict, inner: bool):
    """Rebind tikgrad.acceptance's solver and oracle globals for one suite run.

    layers maps "gprm"/"cgrm" to LayerProbes; their solver calls are always
    timed at the boundary (a dozen clock reads per suite).  With inner=True
    the two-level runs also get traced problems, and the names in
    ACCEPTANCE_CALLS report to the Probes in misc.
    """
    names = ("run_gprm", "run_cgrm") + (ACCEPTANCE_CALLS if inner else ())
    saved = {name: getattr(acceptance, name) for name in names}
    try:
        acceptance.run_gprm = _two_level(saved["run_gprm"], layers["gprm"], inner)
        acceptance.run_cgrm = _two_level(saved["run_cgrm"], layers["cgrm"], inner)
        if inner:
            for name in ACCEPTANCE_CALLS:
                setattr(acceptance, name, misc[name].wrap(saved[name]))
        yield
    finally:
        for name, fn in saved.items():
            setattr(acceptance, name, fn)
