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


def test_config_keys_are_the_experiment_config_fields():
    keys = cli._STR_FIELDS | cli._INT_FIELDS | cli._FLOAT_FIELDS | {"x0"}
    assert keys == {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_acceptance_keeps_the_globals_the_benchmark_rebinds():
    names = ("run_gprm", "run_cgrm") + tracing.ACCEPTANCE_CALLS
    assert [n for n in names if not callable(getattr(acceptance, n, None))] == []
