"""The exported surface: every advertised name exists, config keys match the config type."""

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

MODULES = ["tikgrad"] + [f"tikgrad.{m.name}" for m in pkgutil.iter_modules(tikgrad.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_every_library_module():
    for module in (bench, core, oracles, regularization, solvers):
        assert [n for n in module.__all__ if n not in tikgrad.__all__] == []


def test_config_keys_are_the_experiment_config_fields(tmp_path):
    """An INI file that sets every field to a valid non-default value loads as
    the equal ExperimentConfig."""
    text = {
        "problem_label": "illposed_simplex(3)", "method": "cgrm", "epsilon0": "2.0",
        "nu": "0.25", "sigma": "1.0", "tau": "0.125", "lam": "0.1", "theta_k": "0.2",
        "beta": "0.25", "theta": "0.75", "epsilon_min": "1e-3", "max_outer": "7",
        "max_inner_per_l": "500", "max_linesearch_m": "30", "max_iter": "42",
        "x0": "1, 0, 0", "output_path": "out/t.csv",
    }
    want = ExperimentConfig(
        problem_label="illposed_simplex(3)", method="cgrm", epsilon0=2.0, nu=0.25,
        sigma=1.0, tau=0.125, lam=0.1, theta_k=0.2, beta=0.25, theta=0.75,
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


def test_acceptance_keeps_the_globals_the_benchmark_rebinds():
    names = ("run_gprm", "run_cgrm") + tracing.ACCEPTANCE_CALLS
    assert [n for n in names if not callable(getattr(acceptance, n, None))] == []
