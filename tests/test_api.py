"""The exported surface: every advertised name exists, config keys match the config type."""

import dataclasses
import importlib
import pkgutil

import pytest

import tikgrad
from tikgrad import cli
from tikgrad.bench import ExperimentConfig

MODULES = ["tikgrad"] + [f"tikgrad.{m.name}" for m in pkgutil.iter_modules(tikgrad.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_config_keys_are_the_experiment_config_fields():
    keys = cli._STR_FIELDS | cli._INT_FIELDS | cli._FLOAT_FIELDS | {"x0"}
    assert keys == {f.name for f in dataclasses.fields(ExperimentConfig)}
