"""The exported surface: every advertised name exists, config keys match the config type."""

import ast
import dataclasses
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import tikgrad
from tikgrad import acceptance, bench, cli, core, oracles, regularization, solvers
from tikgrad.bench import ExperimentConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import tracing  # noqa: E402  (benchmarks/tracing.py imports only tikgrad and the stdlib)
import workloads  # noqa: E402

MODULES = ["tikgrad"] + [f"tikgrad.{m.name}" for m in pkgutil.iter_modules(tikgrad.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    """Each name a module imports (but * and __future__) is read in it or
    listed in its __all__."""
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(getattr(module, "__all__", ()))) == []


def test_package_reexports_every_library_module():
    for module in (bench, core, oracles, regularization, solvers):
        assert [n for n in module.__all__ if n not in tikgrad.__all__] == []


def test_config_keys_are_the_experiment_config_fields(tmp_path):
    """An INI file that sets every field to a valid non-default value loads as
    the equal ExperimentConfig."""
    text = {
        "problem_label": "illposed_simplex(3)", "method": "cgrm", "epsilon0": "2.0",
        "nu": "0.25", "sigma": "1.0", "lam": "0.1", "theta_k": "0.2",
        "beta": "0.25", "theta": "0.75", "epsilon_min": "1e-3", "max_outer": "7",
        "max_inner_per_l": "500", "max_linesearch_m": "30", "max_iter": "42",
        "x0": "1, 0, 0", "output_path": "out/t.csv",
    }
    want = ExperimentConfig(
        problem_label="illposed_simplex(3)", method="cgrm", epsilon0=2.0, nu=0.25,
        sigma=1.0, lam=0.1, theta_k=0.2, beta=0.25, theta=0.75,
        epsilon_min=1e-3, max_outer=7, max_inner_per_l=500, max_linesearch_m=30,
        max_iter=42, x0=(1.0, 0.0, 0.0), output_path="out/t.csv",
    )
    fields = dataclasses.fields(ExperimentConfig)
    assert list(text) == [f.name for f in fields]
    assert all(getattr(want, f.name) != f.default for f in fields)
    path = tmp_path / "all.ini"
    path.write_text("[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in text.items()))
    assert cli.load_config(str(path)) == want
    bench.validate_experiment(want)


def _called_globals(tree: ast.Module) -> set:
    """Names some function of tree calls, directly or through a local it
    binds to them (`run = run_gpm if ... else run_cgm; run(...)`)."""
    called = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        calls = {n.func.id for n in ast.walk(fn)
                 if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        called |= calls
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in calls
                    for target in node.targets for t in ast.walk(target)):
                called |= {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
    return called


def test_acceptance_keeps_the_globals_the_benchmark_rebinds():
    """benchmarks/tracing.py times a verify run by rebinding these module
    globals of acceptance, so each must exist and be called through its
    global name: a run made some other way (say through run_experiment)
    would escape the probes and read as time spent nowhere."""
    names = ("run_gprm", "run_cgrm") + tracing.ACCEPTANCE_CALLS
    assert [n for n in names if not callable(getattr(acceptance, n, None))] == []
    tree = ast.parse(Path(acceptance.__file__).read_text())
    stored = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Store)}
    stored |= {a.arg for n in ast.walk(tree) if isinstance(n, ast.arguments)
               for a in n.posonlyargs + n.args + n.kwonlyargs}
    called = _called_globals(tree)
    assert [n for n in names if n not in called or n in stored] == []


def test_the_library_adds_no_floats_with_builtin_sum_or_fsum():
    """From Python 3.12 builtin sum() adds floats with compensation:
    sum([1e16, 1.0, -1e16], 0.0) is 1.0 there and 0.0 on 3.11.  math.fsum
    rounds once, unlike numpy.  A solver, oracle or problem calling either
    would make its traces depend on the interpreter."""
    calls = []
    for module in (bench, core, oracles, regularization, solvers):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            f = getattr(node, "func", None)
            if (isinstance(f, ast.Name) and f.id in ("sum", "fsum")
                    or isinstance(f, ast.Attribute) and f.attr == "fsum"):
                calls.append(f"{module.__name__}:{node.lineno}")
    assert calls == []


def _numpy_random_uses(tree: ast.Module) -> list:
    """Lines of tree that name np.random or numpy.random, or import
    numpy.random (`import numpy.random`, `from numpy import random`,
    `from numpy.random import ...`)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "random" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.Import):
            hit = any(a.name.split(".")[:2] == ["numpy", "random"] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            hit = (parts[:2] == ["numpy", "random"]
                   or parts == ["numpy"] and any(a.name == "random" for a in node.names))
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return lines


def test_the_probe_finds_every_way_to_reach_numpy_random():
    found = _numpy_random_uses(ast.parse(
        "import numpy.random\nimport numpy.random as npr\nfrom numpy import random\n"
        "from numpy.random import default_rng\nnp.random.default_rng(0)\n"
        "numpy.random.seed(0)\nimport random\nrandom.Random(0)\nnp.linalg.norm(x)\n"))
    assert sorted(found) == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_uses_numpy_random(name):
    """Importing numpy.random loads 16 modules and adds about 2 MB to a verify
    process's peak RSS; every draw the package makes comes from stdlib
    random (test_acceptance checks the modules a verify process holds)."""
    module = importlib.import_module(name)
    assert _numpy_random_uses(ast.parse(Path(module.__file__).read_text())) == []


def test_the_benchmark_harness_runs_on_the_library(tmp_path, monkeypatch):
    """benchmarks/workloads.py drives the library through its names:
    solver_constants, StopPolicy's four positional fields,
    FeasibleSet.project_fn, GeneratedProblem.analytic_xstar_n, write_sidecar's
    five arguments and more.  Build the set-up of each workload, then run
    small_n plainly and traced at epsilon_min 1e-3 (a cgrm level there takes
    more than 60 inner iterations, so StopPolicy's max_outer and
    max_inner_per_l cannot trade places unseen), so that src/ cannot drop or
    change such a name without failing these tests."""
    monkeypatch.setattr(bench, "_PROBLEM_CACHE", {})  # the set-ups clear it
    for name in ("small_n", "large_n", "verify"):
        workloads.workload(name, 0).setup()
    specs = [dataclasses.replace(s, dist_limit=None)
             for s in workloads.small_n_specs(0, epsilon_min=1e-3)]
    run = workloads.RunWorkload(specs, setups_per_repeat=1, write_rounds=1)
    cases, checks = run.setup(), workloads.Checks()
    for mode in ("plain", "traced"):
        run.repeat(cases, str(tmp_path), checks, mode)
    assert checks.run > 0 and checks.failed == []
