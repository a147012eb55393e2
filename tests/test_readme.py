"""The README's examples run: its Python block, and its INI blocks as configs."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import tikgrad
from tikgrad import acceptance, bench
from tikgrad.bench import ExperimentConfig, validate_experiment
from tikgrad.cli import load_sweep_configs

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_readme_python_block_runs(capsys):
    (block,) = _blocks("python")
    scope = {}
    exec(block, scope)
    np.testing.assert_allclose(scope["trace"].final_point, [0.5, 0.5], atol=5e-2)
    assert capsys.readouterr().out


def test_readme_ini_blocks_load_and_validate_without_writing(tmp_path, monkeypatch):
    """Each INI block loads as a sweep and passes validate_experiment in an
    empty working directory, which stays empty; the [experiment] block is
    criterion 1's canonical config but for output_path."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    loaded = []
    for i, block in enumerate(_blocks("ini")):
        path = tmp_path / f"readme_{i}.ini"
        path.write_text(block)
        configs = load_sweep_configs(str(path))
        for cfg in configs:
            validate_experiment(cfg)
        loaded.append(configs)
    assert list(work.iterdir()) == []
    assert [len(configs) for configs in loaded] == [1, 3]
    criterion_1 = ExperimentConfig("illposed_box(2)", "gprm", sigma=0.5,
                                   epsilon_min=acceptance.ACCEPT_EPS_MIN, x0=(1.0, 0.0))
    assert dataclasses.replace(loaded[0][0], output_path=None) == criterion_1


def test_readme_names_into_tikgrad_resolve():
    """Every backticked dotted name in the README that starts at tikgrad or
    one of its modules (`solvers._two_level`, `tikgrad.with_bounds`) names
    an attribute there, so the prose cannot keep pointing at deleted code."""
    modules = {"tikgrad": tikgrad}
    for info in pkgutil.iter_modules(tikgrad.__path__):
        modules[info.name] = importlib.import_module(f"tikgrad.{info.name}")
    names = [n for n in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README)
             if n.split(".")[0] in modules]
    missing = []
    for name in names:
        head, *attrs = name.split(".")
        obj = modules[head]
        for attr in attrs:
            obj = getattr(obj, attr, missing)
        if obj is missing:
            missing.append(name)
    assert len(names) >= 10
    assert missing == []


def test_readme_lists_every_bundled_label():
    """Each label bundled_problem knows is backticked in the README: the
    scalable families as `name(dim)`, the fixed problems as spelled."""
    labels = [f"{name}(dim)" for name in bench._FAMILIES]
    labels += [f"{name}({dim})" for name, dim in bench._LEAST_SQUARES]
    assert len(labels) == 6
    assert [label for label in labels if f"`{label}`" not in README] == []
