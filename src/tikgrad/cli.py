"""Command-line front end.

Subcommands
-----------
run CONFIG        one experiment from an INI config file
sweep CONFIG      cartesian product over semicolon-separated value lists,
                  every expanded config validated before the first run
verify            full acceptance suite (exit 3 if any criterion fails)
report FILES...   summary and complexity tables from stored trace CSVs

Config files are INI key-value text; section names are organizational only,
keys must be ExperimentConfig field names and each key may appear once.
Values are read literally ('%' is not interpolated).
Exit codes: 0 success, 1 config error, 2 solver failure, 3 acceptance
failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import itertools
import json
import math
import os
import sys
import typing
from typing import Optional

from . import acceptance
from .bench import (
    DEFAULT_ALPHA_GRID,
    ConfigError,
    ExperimentConfig,
    complexity_bound,
    complexity_count,
    read_trace_csv,
    run_experiment,
    sidecar_path,
    validate_experiment,
)
from .core import LineSearchFailure, OracleFailure, RunawayInnerLoop

__all__ = ["main", "load_config", "load_sweep_configs"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_ACCEPT = 3


def _base_type(hint) -> type:
    """str, int, float or tuple: a field's type without Optional or element types."""
    if typing.get_origin(hint) is typing.Union:
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    return typing.get_origin(hint) or hint


_FIELD_TYPES = {k: _base_type(h) for k, h in typing.get_type_hints(ExperimentConfig).items()}
_REQUIRED = [f.name for f in dataclasses.fields(ExperimentConfig) if f.default is dataclasses.MISSING]
# how a value of each type is read, and what the error says was expected
_PARSERS = {
    str: (str, "text"),
    int: (int, "an integer"),
    float: (float, "a number"),
    tuple: (lambda v: tuple(float(t) for t in v.split(",") if t.strip()), "comma-separated numbers"),
}


def _flatten_ini(path: str) -> dict[str, str]:
    # no field needs %-interpolation; the parser's errors span lines, the CLI prints one
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if not parser.read(path):
            raise ConfigError(f"config: cannot read {path!r}")
    except configparser.Error as exc:
        raise ConfigError("config: " + " ".join(str(exc).split())) from None
    flat: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if key in flat:
                raise ConfigError(f"{key}: duplicated across sections")
            flat[key] = value
    return flat


def _coerce_field(key: str, value: str):
    value = value.strip()
    if key not in _FIELD_TYPES:
        raise ConfigError(f"{key}: unknown field")
    parse, expected = _PARSERS[_FIELD_TYPES[key]]
    try:
        return parse(value)
    except ValueError:
        raise ConfigError(f"{key}: expected {expected}, got {value!r}") from None


def _build_config(flat: dict[str, str]) -> ExperimentConfig:
    kwargs = {key: _coerce_field(key, value) for key, value in flat.items()}
    for required in _REQUIRED:
        if required not in kwargs:
            raise ConfigError(f"{required}: missing")
    return ExperimentConfig(**kwargs)


def load_config(path: str) -> ExperimentConfig:
    return _build_config(_flatten_ini(path))


def load_sweep_configs(path: str) -> list[ExperimentConfig]:
    """Expand semicolon-separated value lists into the cartesian product."""
    flat = _flatten_ini(path)
    keys = list(flat)
    variants = [[v.strip() for v in flat[k].split(";")] for k in keys]
    configs = []
    for combo in itertools.product(*variants):
        entry = dict(zip(keys, combo))
        template = entry.get("output_path")
        if template is not None and any(len(v) > 1 for v in variants):
            stem, ext = os.path.splitext(template)
            entry["output_path"] = f"{stem}_{len(configs):03d}{ext}"
        configs.append(_build_config(entry))
    return configs


def _summarize(cfg: ExperimentConfig, trace) -> str:
    last = trace.outer_records[-1]
    parts = [
        f"{cfg.method} on {cfg.problem_label}: "
        f"{len([r for r in trace.outer_records if r.l >= 1])} outer records",
        f"{trace.counters.inner_iterations} inner iterations",
        f"{trace.counters.linesearch_trials} line-search trials",
    ]
    if last.delta_wl is not None:
        parts.append(f"final value gap {last.delta_wl:.3e}")
    if last.dist_xstar is not None:
        parts.append(f"final dist to x*_n {last.dist_xstar:.3e}")
    if cfg.output_path is not None:
        parts.append(f"wrote {cfg.output_path}")
    return ", ".join(parts)


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.output is not None:
            cfg = dataclasses.replace(cfg, output_path=args.output)
        trace = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RunawayInnerLoop, LineSearchFailure, OracleFailure) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(_summarize(cfg, trace))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        configs = load_sweep_configs(args.config)
        # reject the whole sweep before any run writes its outputs
        for cfg in configs:
            validate_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    status = EXIT_OK
    for cfg in configs:
        try:
            trace = run_experiment(cfg)
        except (RunawayInnerLoop, LineSearchFailure, OracleFailure) as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            status = EXIT_SOLVER
            continue
        print(_summarize(cfg, trace))
    return status


def _cmd_verify(_args) -> int:
    results = acceptance.run_all()
    for result in results:
        print(acceptance.format_line(result))
    return EXIT_OK if all(r.passed for r in results) else EXIT_ACCEPT


_BOUND_KEYS = ("C1", "C2", "nu", "sigma")


def _sidecar_entries(meta) -> tuple[dict, dict, dict]:
    """The sidecar's (config, constants, counters); ValueError unless all three
    are JSON objects and each bound constant is null or a number in its range:
    nu in (0, 1), sigma in (0, 1], C1 and C2 finite and >= 0."""
    if not isinstance(meta, dict):
        raise ValueError("not a JSON object")
    entries = {key: meta.get(key, {}) for key in ("config", "constants", "counters")}
    for key, entry in entries.items():
        if not isinstance(entry, dict):
            raise ValueError(f"{key} is not a JSON object")
    constants = entries["constants"]
    for key in _BOUND_KEYS:
        v = constants.get(key)
        if v is None:
            continue
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"constant {key} is not a number")
        if not {"nu": 0.0 < v < 1.0, "sigma": 0.0 < v <= 1.0}.get(key, 0.0 <= v < math.inf):
            raise ValueError(f"constant {key} out of range")
    return entries["config"], constants, entries["counters"]


def _cmd_report(args) -> int:
    status = EXIT_OK
    for path in args.traces:
        reading, sidecar = path, None
        try:
            rows = read_trace_csv(path)
            # the sidecar is read before anything is printed, so a bad one skips the whole file
            reading = sidecar_path(path)
            if os.path.exists(reading):
                with open(reading) as fh:
                    sidecar = _sidecar_entries(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"cannot read {reading}: {exc}", file=sys.stderr)
            status = EXIT_CONFIG
            continue
        print(f"== {path} ==")
        constants, counters = {}, {}
        if sidecar is not None:
            cfg, constants, counters = sidecar
            print(f"method {cfg.get('method')} on {cfg.get('problem_label')}")
        last = rows[-1]
        trials = counters.get("linesearch_trials")
        print(
            f"records {len(rows)}, cumulative inner iterations {last['cum_inner']}, "
            f"final value gap {last['delta_wl']}, final dist {last['dist_xstar']}"
            + ("" if trials is None else f", line-search trials {trials}")
        )
        deltas = [r["delta_wl"] for r in rows if r["l"] >= 1]
        cums = [r["cum_inner"] for r in rows if r["l"] >= 1]
        if deltas and all(d is not None for d in deltas):
            print(f"{'alpha':>10} {'N(alpha)':>10} {'bound':>12}")
            bound_args = [constants.get(k) for k in _BOUND_KEYS]
            for alpha in DEFAULT_ALPHA_GRID:
                n, attained = complexity_count(deltas, cums, alpha)
                if not attained:
                    print(f"{alpha:>10g} {'unattained':>10} {'-':>12}")
                    continue
                btxt = "-" if None in bound_args else f"{complexity_bound(*bound_args, alpha):.4e}"
                print(f"{alpha:>10g} {n:>10} {btxt:>12}")
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tikgrad",
        description="First-order solvers with two-level regularization: run and check experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--output", help="override output_path from the config")
    p_run.set_defaults(fn=_cmd_run)
    p_sweep = sub.add_parser("sweep", help="run the cartesian product of value lists")
    p_sweep.add_argument("config")
    p_sweep.set_defaults(fn=_cmd_sweep)
    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.set_defaults(fn=_cmd_verify)
    p_report = sub.add_parser("report", help="summarize stored trace files")
    p_report.add_argument("traces", nargs="+")
    p_report.set_defaults(fn=_cmd_report)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
