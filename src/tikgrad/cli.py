"""Command-line front end.

Subcommands
-----------
run CONFIG        one experiment from an INI config file, run as a sweep of one
sweep CONFIG      cartesian product over semicolon-separated value lists,
                  every expanded config validated before the first run
verify            full acceptance suite (exit 3 if any criterion fails)
report FILES...   summary and complexity tables from stored trace CSVs

Config files are INI key-value text; section names are organizational only,
keys must be ExperimentConfig field names and each key may appear once.
Values are read literally ('%' is not interpolated).
report reads each trace and its sidecar through bench.read_trace_csv and
bench.read_sidecar, which own both formats and their checks.
Exit codes: 0 success, 1 config error, 2 solver failure, 3 acceptance
failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import itertools
import os
import sys
import typing
from typing import Optional

from . import acceptance
from .bench import (
    ConfigError,
    ExperimentConfig,
    measure_complexity,
    read_sidecar,
    read_trace_csv,
    run_experiment,
    sidecar_path,
    validate_experiment,
    with_bounds,
)
from .core import LineSearchFailure, OracleFailure, RunawayInnerLoop
from .solvers import OuterRecord

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
    tuple: (lambda v: tuple(float(t) for t in v.split(",")), "comma-separated numbers"),
}


def _flatten_ini(path: str) -> dict[str, str]:
    # no field needs %-interpolation; the parser's errors span lines, the CLI prints one;
    # no header spells a newline, so [DEFAULT] is an ordinary section, not inherited
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
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


def _load_run(args) -> list[ExperimentConfig]:
    """run is a sweep of one config, with --output applied."""
    cfg = load_config(args.config)
    if args.output is not None:
        cfg = dataclasses.replace(cfg, output_path=args.output)
    return [cfg]


def _cmd_run(args) -> int:
    """run and sweep: every config is validated before the first run."""
    try:
        configs = args.load(args)
        # reject them all before any run writes its outputs
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
        except OSError as exc:  # after validation, only writing the outputs does I/O
            print(f"cannot write {cfg.output_path}: {exc.strerror or exc}", file=sys.stderr)
            status = max(status, EXIT_CONFIG)
            continue
        print(_summarize(cfg, trace))
    return status


def _cmd_verify(_args) -> int:
    results = acceptance.run_all()
    for result in results:
        print(acceptance.format_line(result))
    return EXIT_OK if all(r.passed for r in results) else EXIT_ACCEPT


def _cmd_report(args) -> int:
    status = EXIT_OK
    for path in args.traces:
        reading = path
        try:
            rows = read_trace_csv(path)
            # the sidecar is read before anything is printed, so a bad one skips the whole file
            reading = sidecar_path(path)
            sidecar = read_sidecar(path)
        except (OSError, ValueError) as exc:
            print(f"cannot read {reading}: {exc}", file=sys.stderr)
            status = EXIT_CONFIG
            continue
        print(f"== {path} ==")
        cfg, counters, bound_args = sidecar or ({}, {}, None)
        if sidecar is not None:
            print(f"method {cfg.get('method')} on {cfg.get('problem_label')}")
        records = [OuterRecord(**row) for row in rows]
        last = records[-1]
        trials = counters.get("linesearch_trials")
        print(
            f"outer records {sum(r.l >= 1 for r in records)}, cumulative inner iterations "
            f"{last.cum_inner}, final value gap {last.delta_wl}, final dist {last.dist_xstar}"
            + ("" if trials is None else f", line-search trials {trials}")
        )
        try:
            report = measure_complexity(records)
        except ValueError:
            continue  # no level, or a level without Delta: no table
        if bound_args is not None:
            report = with_bounds(report, *bound_args)
        print(f"{'alpha':>10} {'N(alpha)':>10} {'bound':>12}")
        # bound_N is empty when the sidecar lacks a constant: zip_longest pads it with None
        for alpha, n, attained, bound in itertools.zip_longest(
            report.alpha_grid, report.measured_N, report.attained, report.bound_N
        ):
            if not attained:
                print(f"{alpha:>10g} {'unattained':>10} {'-':>12}")
                continue
            btxt = "-" if bound is None else f"{bound:.4e}"
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
    p_run.set_defaults(fn=_cmd_run, load=_load_run)
    p_sweep = sub.add_parser("sweep", help="run the cartesian product of value lists")
    p_sweep.add_argument("config")
    p_sweep.set_defaults(fn=_cmd_run, load=lambda args: load_sweep_configs(args.config))
    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.set_defaults(fn=_cmd_verify)
    p_report = sub.add_parser("report", help="summarize stored trace files")
    p_report.add_argument("traces", nargs="+")
    p_report.set_defaults(fn=_cmd_report)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
