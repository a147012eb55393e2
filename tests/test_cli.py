"""Tests for the command-line front end, driven in-process through main(),
and in subprocesses where the process environment matters."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tikgrad import acceptance, bench
from tikgrad.acceptance import CriterionResult
from tikgrad.bench import (
    DEFAULT_ALPHA_GRID,
    ConfigError,
    ExperimentConfig,
    read_trace_csv,
    run_experiment,
    write_trace_csv,
)
from tikgrad.cli import load_config, main
from tikgrad.core import LineSearchFailure


def _write_ini(tmp_path, body, name="config.ini"):
    path = tmp_path / name
    path.write_text("[experiment]\n" + body)
    return str(path)


def _run_ini(tmp_path, **fields):
    body = "".join(f"{k} = {v}\n" for k, v in fields.items())
    return _write_ini(tmp_path, body)


def test_run_writes_trace_and_summary(tmp_path, capsys):
    out = tmp_path / "t.csv"
    cfg = _run_ini(
        tmp_path,
        problem_label="illposed_box(2)",
        method="gprm",
        epsilon_min="1e-3",
        output_path=out,
    )
    assert main(["run", cfg]) == 0
    assert out.exists() and (tmp_path / "t.csv.json").exists()
    with open(out) as fh:
        assert fh.readline().strip() == "l,epsilon_l,delta_l,N_l,delta_wl,dist_xstar,cum_inner"
    assert capsys.readouterr().out == (
        "gprm on illposed_box(2): 9 outer records, 28 inner iterations, 84 line-search trials, "
        f"final value gap 5.103e-07, final dist to x*_n 7.143e-04, wrote {out}\n"
    )


def test_run_output_flag_overrides_config(tmp_path):
    cfg = _run_ini(
        tmp_path, problem_label="illposed_box(2)", method="gprm", epsilon_min="1e-3"
    )
    out = tmp_path / "override.csv"
    assert main(["run", cfg, "--output", str(out)]) == 0
    assert out.exists() and (tmp_path / "override.csv.json").exists()


def test_run_parses_x0_into_config(tmp_path):
    out = tmp_path / "gpm.csv"
    cfg = _run_ini(
        tmp_path,
        problem_label="illposed_box(2)",
        method="gpm",
        max_iter="20",
        x0="1, 0",
        output_path=out,
    )
    assert main(["run", cfg]) == 0
    with open(tmp_path / "gpm.csv.json") as fh:
        payload = json.load(fh)
    assert payload["config"]["x0"] == [1.0, 0.0]
    rows = read_trace_csv(str(out))
    assert rows[-1]["dist_xstar"] == pytest.approx(0.5 ** 0.5)


@pytest.mark.parametrize(
    "fields, fragment",
    [
        (dict(problem_label="illposed_box(2)", method="gprm", nu="1.2"), "nu"),
        (dict(problem_label="illposed_box(2)"), "method: missing"),
        (dict(problem_label="illposed_box(2)", method="gprm", woof="1"), "unknown field"),
        (dict(problem_label="illposed_box(2)", method="gpm", x0="a,b"), "x0"),
        (dict(problem_label="illposed_box(2)", method="gpm", max_iter="ten"), "max_iter"),
        (dict(problem_label="illposed_box(2)", method="gprm", x0="5, 0"), "x0: not feasible"),
        (dict(problem_label="illposed_box(2)", method="gprm", x0="nan, 0"), "x0: vector has non-finite"),
        (dict(problem_label="illposed_box(2)", method="gprm", seed="0"), "seed: unknown field"),
        (dict(problem_label="illposed_box(2)", method="gpm", lam="nan"), "lam: must be positive"),
        (dict(problem_label="illposed_simplex(3)", method="cgm", theta_k="nan"),
         "theta_k: must be positive"),
        (dict(problem_label="illposed_box(2)", method="gprm", epsilon_min="nan"),
         "epsilon_min: must be positive"),
        (dict(problem_label="illposed_box(2)", method="gprm", epsilon_min="0.9"),
         "epsilon_min: must not exceed"),
        (dict(problem_label="illposed_simplex(3)", method="cgrm", x0="0.25, 0.25, 0.25, 0.25"),
         "x0: wrong dimension for the problem"),
        (dict(problem_label="illposed_box(1)", method="gprm"),
         "problem_label: 'illposed_box(1)': dim must be >= 2"),
        (dict(problem_label="illposed_simplex(2)", method="cgrm"),
         "problem_label: 'illposed_simplex(2)': dim must be >= 3"),
        (dict(problem_label="illposed_box(2)", method="iterreg"), "method: must be one of"),
        (dict(problem_label="illposed_box(2)", method="gprm", tau="0.25"), "tau: unknown field"),
        (dict(problem_label="illposed_box(2)", method="gpm", x0="1,,0"),
         "x0: expected comma-separated numbers, got '1,,0'"),
    ],
)
def test_run_config_errors_exit_1(tmp_path, capsys, fields, fragment):
    cfg = _run_ini(tmp_path, **fields)
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and fragment in err


def test_run_missing_file_exits_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_duplicate_key_across_sections_exits_1(tmp_path, capsys):
    path = tmp_path / "dup.ini"
    path.write_text(
        "[a]\nproblem_label = illposed_box(2)\nmethod = gprm\n"
        "[b]\nmethod = gpm\n"
    )
    assert main(["run", str(path)]) == 1
    assert "duplicated across sections" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, want",
    [
        ("[DEFAULT]\nsigma = 0.25\n[a]\nproblem_label = illposed_box(2)\n[b]\nmethod = gprm\n",
         ExperimentConfig("illposed_box(2)", "gprm", sigma=0.25)),
        ("[DEFAULT]\nproblem_label = illposed_box(2)\nmethod = gprm\n",
         ExperimentConfig("illposed_box(2)", "gprm")),
        ("[DEFAULT]\nsigma = 0.25\n[a]\nproblem_label = illposed_box(2)\nmethod = gprm\n"
         "sigma = 1.0\n", "sigma: duplicated across sections"),
    ],
    ids=["default_and_two_sections", "only_default", "key_in_default_and_a"],
)
def test_a_default_section_is_an_ordinary_section(tmp_path, text, want):
    """Section names are organizational only, DEFAULT included: its keys are
    counted once, not inherited by every other section."""
    path = tmp_path / "default.ini"
    path.write_text(text)
    if isinstance(want, str):
        with pytest.raises(ConfigError, match=want):
            load_config(str(path))
    else:
        assert load_config(str(path)) == want


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("problem_label = illposed_box(2)\nmethod = gprm\n", "File contains no section headers"),
        ("[a]\nproblem_label = illposed_box(2)\nmethod = gprm\nmethod = gpm\n",
         "option 'method' in section 'a' already exists"),
    ],
    ids=["no_section_header", "duplicate_key"],
)
def test_malformed_ini_exits_1_with_one_line(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config: ") and message in err
    assert err.count("\n") == 1


def test_run_reads_a_percent_sign_literally(tmp_path):
    out = tmp_path / "o%1.csv"
    cfg = _run_ini(tmp_path, problem_label="illposed_box(2)", method="gprm",
                   epsilon_min="1e-2", output_path=out)
    assert main(["run", cfg]) == 0
    assert out.exists() and (tmp_path / "o%1.csv.json").exists()


def test_run_solver_failure_exits_2(tmp_path, capsys):
    cfg = _run_ini(
        tmp_path,
        problem_label="illposed_box(2)",
        method="gprm",
        max_inner_per_l="1",
    )
    assert main(["run", cfg]) == 2
    assert "solver failure" in capsys.readouterr().err


def test_sweep_expands_cartesian_product(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    cfg = _run_ini(
        tmp_path,
        problem_label="illposed_box(2)",
        method="gprm",
        sigma="1.0; 0.5",
        epsilon_min="1e-3",
        output_path=out,
    )
    assert main(["sweep", cfg]) == 0
    sigmas = []
    for i in range(2):
        assert (tmp_path / f"trace_{i:03d}.csv").exists()
        with open(tmp_path / f"trace_{i:03d}.csv.json") as fh:
            sigmas.append(json.load(fh)["config"]["sigma"])
    assert sigmas == [1.0, 0.5]
    assert not out.exists()  # the template itself is never written
    assert capsys.readouterr().out.count("gprm on illposed_box(2)") == 2


def test_sweep_without_lists_keeps_output_path(tmp_path):
    out = tmp_path / "single.csv"
    cfg = _run_ini(
        tmp_path,
        problem_label="illposed_box(2)",
        method="gprm",
        epsilon_min="1e-3",
        output_path=out,
    )
    assert main(["sweep", cfg]) == 0
    assert out.exists()


def test_sweep_config_error_exits_1(tmp_path, capsys):
    cfg = _run_ini(
        tmp_path, problem_label="illposed_box(2)", method="gprm", nu="0; 1.2"
    )
    assert main(["sweep", cfg]) == 1
    assert "config error" in capsys.readouterr().err


def test_sweep_validates_every_config_before_running(tmp_path, capsys):
    cfg = _run_ini(
        tmp_path,
        problem_label="illposed_box(2)",
        method="gprm",
        epsilon_min="1e-2; -1",
        output_path=tmp_path / "out" / "trace.csv",
    )
    assert main(["sweep", cfg]) == 1
    assert "epsilon_min: must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _no_solver(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the solver ran")
    for name in ("run_gprm", "run_cgrm", "run_gpm", "run_cgm"):
        monkeypatch.setattr(bench, name, fail)


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "where, message",
    [
        ("file/out.csv", "is not a directory"),
        ("file/sub/out.csv", "is not a directory"),
        ("dir", "is a directory"),
        ("dir.csv", "dir.csv.json' is a directory"),
    ],
)
def test_unwritable_output_is_a_config_error_before_solving(
    tmp_path, capsys, monkeypatch, command, where, message
):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir.csv.json").mkdir()
    cfg = _run_ini(tmp_path, problem_label="illposed_box(2)", method="gprm",
                   epsilon_min="1e-2", output_path=tmp_path / where)
    _no_solver(monkeypatch)
    assert main([command, cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: output_path: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_output_path_ending_in_json_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    """A trace named out.json sits at the sidecar path of a trace named out,
    so it is refused before solving, and nothing is written."""
    cfg = _run_ini(tmp_path, problem_label="illposed_box(2)", method="gprm",
                   epsilon_min="1e-2", output_path=tmp_path / "out.json")
    _no_solver(monkeypatch)
    assert main([command, cfg]) == 1
    err = capsys.readouterr().err
    assert err == (f"config error: output_path: {str(tmp_path / 'out.json')!r} ends in .json, "
                   f"the sidecar path of a trace at {str(tmp_path / 'out')!r}\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "config.ini"]


def test_a_trace_at_another_traces_sidecar_path_is_refused(tmp_path, capsys):
    """Were cgrm's trace written to a.json, a later gprm run to a would remove
    it as a's old sidecar and write gprm's sidecar in its place, and report
    a.json would read that sidecar as a trace.  The first run is refused, so
    the second leaves a and its own sidecar a.json, which report reads."""
    first = _run_ini(tmp_path, problem_label="illposed_simplex(3)", method="cgrm",
                     epsilon_min="1e-3", output_path=tmp_path / "a.json")
    assert main(["run", first]) == 1
    assert "ends in .json" in capsys.readouterr().err
    second = _write_ini(tmp_path, "problem_label = illposed_box(2)\nmethod = gprm\n"
                        f"epsilon_min = 1e-3\noutput_path = {tmp_path / 'a'}\n",
                        name="second.ini")
    assert main(["run", second]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "a.json", "config.ini", "second.ini"]
    capsys.readouterr()
    assert main(["report", str(tmp_path / "a")]) == 0
    assert "method gprm on illposed_box(2)" in capsys.readouterr().out


def test_traces_differing_only_in_extension_keep_their_own_sidecars(tmp_path, capsys):
    """With the extension replaced, a.csv and a.txt would share a.json, and
    the second run's config and counters would be reported beside the first
    run's trace."""
    first = _run_ini(tmp_path, problem_label="illposed_box(2)", method="gprm",
                     epsilon_min="1e-3", output_path=tmp_path / "a.csv")
    assert main(["run", first]) == 0
    second = _write_ini(tmp_path, "problem_label = illposed_simplex(3)\nmethod = cgrm\n"
                        f"epsilon_min = 1e-3\noutput_path = {tmp_path / 'a.txt'}\n",
                        name="second.ini")
    assert main(["run", second]) == 0
    capsys.readouterr()
    assert main(["report", str(tmp_path / "a.csv"), str(tmp_path / "a.txt")]) == 0
    text = capsys.readouterr().out
    csv_part, txt_part = text.split(f"== {tmp_path / 'a.txt'} ==")
    assert "method gprm on illposed_box(2)" in csv_part and "line-search trials 84\n" in csv_part
    assert "method cgrm on illposed_simplex(3)" in txt_part


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("where", ["", "newdir/"])
def test_output_path_that_names_no_file_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, where
):
    """An empty path or one ending in a separator names no file to write, so
    it is refused before solving, and nothing is written anywhere."""
    cfg = _run_ini(tmp_path, problem_label="illposed_box(2)", method="gprm",
                   epsilon_min="1e-2", output_path=where)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    _no_solver(monkeypatch)
    assert main([command, cfg]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: output_path: {where!r} names no file\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "config.ini", work]
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("fields, message", [
    # the levels' delta_l = eps_l^(1 + sigma) would overflow inside the run
    (dict(epsilon0="1e308", epsilon_min="1e300"),
     "epsilon0: delta_0 = epsilon0^(1 + sigma) overflows"),
    # each field passes alone, with the other's default
    (dict(epsilon0="1e200", sigma="1", epsilon_min="1e190"),
     "epsilon0: delta_0 = epsilon0^(1 + sigma) overflows"),
    # the sidecar's bound constants would overflow after the CSV was written
    (dict(epsilon0="1e200", epsilon_min="1e190", output_path="out.csv"),
     "epsilon0: the complexity bound's C1 and C2 leave the float range, "
     "so the sidecar cannot record them"),
    # C1 = inf, which `tikgrad report` refuses to read back
    (dict(epsilon0="1e100", epsilon_min="1e99", output_path="out.csv"),
     "epsilon0: the complexity bound's C1 and C2 leave the float range, "
     "so the sidecar cannot record them"),
    # C2 would divide by epsilon0^3 = 0.0
    (dict(epsilon0="1e-120", epsilon_min="1e-121", output_path="out.csv"),
     "epsilon0: the complexity bound's C1 and C2 leave the float range, "
     "so the sidecar cannot record them"),
    (dict(output_path="a\0b.csv"), "output_path: 'a\\x00b.csv' contains a NUL byte"),
    (dict(problem_label="illposed_box(99999999999999)"),
     "problem_label: 'illposed_box(99999999999999)': Unable to allocate 728. TiB for an "
     "array with shape (99999999999999,) and data type float64"),
    # theta passes its owner's (0, 1), but gamma = min{1, theta (...)} underflows
    (dict(theta="5e-324"),
     "theta: the step floor gamma, proportional to theta = 5e-324, underflows to 0"),
    (dict(method="cgrm", theta="5e-324"),
     "theta: the step floor gamma, proportional to theta = 5e-324, underflows to 0"),
    # the search lists every power theta^m before the first step
    (dict(max_linesearch_m="100001"), "max_linesearch_m: must be at most 100000"),
], ids=["delta_0_overflow", "delta_0_overflow_across_fields", "bound_overflow",
        "bound_infinite", "bound_zero_division", "nul_byte", "memory", "gprm_gamma_underflow",
        "cgrm_gamma_underflow", "linesearch_powers"])
def test_inputs_that_would_end_in_a_traceback_are_config_errors(
    tmp_path, capsys, monkeypatch, fields, message
):
    """Each exits 1 with one line before solving, and writes nothing."""
    fields = {"problem_label": "illposed_box(2)", "method": "gprm", **fields}
    cfg = _run_ini(tmp_path, **fields)
    monkeypatch.chdir(tmp_path)
    _no_solver(monkeypatch)
    assert main(["run", cfg]) == 1
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "config.ini"]


# the INI fuzz draws each value from a pool that can run and a pool of edge
# values; no cap on a run's length is drawn above _CAPS, so no draw runs long
_CAPS = {"max_outer": 3, "max_inner_per_l": 200, "max_iter": 50}
_NUMBERS = ("0", "-0", "inf", "-inf", "nan", "1e308", "-1e308", "2", "1e200", "9" * 400,
            "-" + "9" * 30, "x", "")


def _pool(good, odd):
    return st.sampled_from(good) | st.sampled_from(odd)


_INI_VALUES = {
    "problem_label": _pool(
        ("illposed_box(2)", "illposed_simplex(3)", "wellposed_box(2)", "wellposed_simplex(3)",
         "rankdef_box(2)", "rankdef_simplex(3)", "illposed_box(16)"),
        ("illposed_box(1)", "illposed_box(02)", "illposed_box(-2)", "illposed_box(2.0)",
         "illposed_box(99999999999999)", "illposed_box(2", "Illposed_Box(2)", "illposed_box()",
         " illposed_box(2) ", "rankdef_box(3)", "", "%(x)s", "\u00e9")),
    "method": st.sampled_from(("gpm", "cgm", "gprm", "cgrm", "GPRM", "iterreg")),
    "max_linesearch_m": _pool(("1", "2", "60", "100000"),
                              ("0", "-1", "100001", "9" * 30, "1.5", "x")),
    "x0": _pool(("1, 0", "1,0,0", "0.5, 0.5", "0, 0", "5e-324, 1", "-1, 1"),
                ("", "1", "nan, 0", "inf, 0", "1e308, -1e308", "a, b", ",,", "1,,0",
                 "9" * 400 + ", 0")),
    "output_path": _pool(("out.csv", "sub/out.csv"), ("out.json", "sub/", "a\0b.csv")),
    **{name: _pool(("1", "0.5", "0.999999", "1e-6", "1e-300", "5e-324"), _NUMBERS)
       for name in ("epsilon0", "nu", "sigma", "lam", "theta_k", "beta", "theta", "epsilon_min")},
    **{name: _pool(("1", str(cap)), ("0", "-1", "-" + "9" * 30)) for name, cap in _CAPS.items()},
}


@st.composite
def _ini_fields(draw):
    """The caps at their largest, then problem_label, method and some more
    keys with edge values; no cap drawn exceeds its largest."""
    fields = {key: str(cap) for key, cap in _CAPS.items()}
    keys = draw(st.lists(st.sampled_from(sorted(_INI_VALUES)), max_size=4, unique=True))
    fields.update({key: draw(_INI_VALUES[key]) for key in ["problem_label", "method", *keys]})
    return fields


@settings(max_examples=120)
@given(_ini_fields())
@example({"problem_label": "illposed_box(2)", "method": "gprm", "theta": "5e-324",
          "max_outer": "3", "max_inner_per_l": "200", "max_iter": "50"})
def test_run_ends_every_edge_config_with_an_exit_code(fields):
    """Whatever the edge values, `tikgrad run` returns 0, 1 or 2 and raises
    nothing: no traceback reaches the user."""
    with tempfile.TemporaryDirectory() as tmp:
        if "output_path" in fields:
            fields = {**fields, "output_path": os.path.join(tmp, fields["output_path"])}
        path = os.path.join(tmp, "config.ini")
        with open(path, "w") as fh:
            fh.write("[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items()))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["run", path]) in (0, 1, 2)


def test_run_output_flag_under_a_file_solves_nothing(tmp_path, capsys, monkeypatch):
    (tmp_path / "F").write_text("")
    cfg = _run_ini(tmp_path, problem_label="illposed_box(2)", method="gprm")
    _no_solver(monkeypatch)
    assert main(["run", cfg, "--output", str(tmp_path / "F" / "out.csv")]) == 1
    assert "is not a directory" in capsys.readouterr().err


def test_output_directory_without_write_access_is_a_config_error(tmp_path, capsys, monkeypatch):
    cfg = _run_ini(tmp_path, problem_label="illposed_box(2)", method="gprm",
                   output_path=tmp_path / "new" / "out.csv")
    _no_solver(monkeypatch)
    monkeypatch.setattr(bench.os, "access", lambda path, mode: False)
    assert main(["run", cfg]) == 1
    assert f"cannot write in {str(tmp_path)!r}" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_failed_write_exits_1_with_one_line(tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "out.csv"
    cfg = _run_ini(tmp_path, problem_label="illposed_box(2)", method="gprm",
                   epsilon_min="1e-2", output_path=out)

    def refuse(*args):
        raise PermissionError(13, "Permission denied", str(out))
    monkeypatch.setattr(bench, "write_sidecar", refuse)
    assert main([command, cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"cannot write {out}: Permission denied\n"
    assert captured.out == ""


def _fake_results(fail_at=None):
    return [
        CriterionResult(i, f"check {i}", passed=(i != fail_at), detail="synthetic")
        for i in range(1, 12)
    ]


def test_verify_prints_one_line_per_criterion(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "run_all", lambda: _fake_results())
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    assert all(line.startswith("criterion") and "PASS" in line for line in lines)


def test_verify_exit_3_on_any_failure(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "run_all", lambda: _fake_results(fail_at=7))
    assert main(["verify"]) == 3
    assert "criterion 07 FAIL" in capsys.readouterr().out


def test_verify_turns_a_solver_error_into_the_criterions_fail(monkeypatch, capsys):
    """A gprm run that raises fails each criterion that runs gprm, with the
    error's name and message; the other criteria still run and pass."""
    def fail(*args, **kwargs):
        raise LineSearchFailure("no sufficient decrease")
    monkeypatch.setattr(acceptance, "run_gprm", fail)
    assert main(["verify"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    failed = {int(line.split()[1]) for line in lines if " FAIL " in line}
    assert failed == {1, 3, 4, 5, 6, 7, 11}
    names = {1: "strong convergence, two-level gradient projection", 3: "weak vs strong contrast",
             4: "complexity bound compliance", 5: "line-search step lower bound",
             6: "inner-loop finiteness", 7: "regularized-gap certificates",
             11: "complexity exponent trend"}
    for number in failed:
        assert "LineSearchFailure: no sufficient decrease" in lines[number - 1]
        assert lines[number - 1].startswith(
            f"criterion {number:02d} FAIL {names[number]}: solver failure: ")


def test_report_prints_complexity_table(tmp_path, capsys):
    out = tmp_path / "run.csv"
    cfg = _run_ini(
        tmp_path,
        problem_label="illposed_box(2)",
        method="gprm",
        epsilon_min="1e-3",
        output_path=out,
    )
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "method gprm on illposed_box(2)" in text
    assert "cumulative inner iterations 28," in text and text.count("line-search trials 84\n") == 1
    assert "alpha" in text and "N(alpha)" in text and "bound" in text
    assert "0.001" in text


def test_report_prints_inf_for_an_overflowing_bound(tmp_path, capsys):
    """C1 = 1e200 is in range, but (C1/alpha)^(1+2 sigma) passes the float range."""
    out = tmp_path / "run.csv"
    cfg = _run_ini(tmp_path, problem_label="illposed_box(2)", method="gprm",
                   epsilon_min="1e-3", output_path=out)
    assert main(["run", cfg]) == 0
    sidecar = tmp_path / "run.csv.json"
    payload = json.loads(sidecar.read_text())
    payload["constants"]["C1"] = 1e200
    sidecar.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    rows = capsys.readouterr().out.splitlines()[-len(DEFAULT_ALPHA_GRID):]
    assert [row.split()[-1] for row in rows] == ["inf"] * len(DEFAULT_ALPHA_GRID)


def test_report_without_sidecar_omits_bounds(tmp_path, capsys):
    trace = run_experiment(
        ExperimentConfig("wellposed_box(2)", "gpm", max_iter=2000)
    )
    # the fixed step maps its 124th iterate to itself bit for bit, so the run stops there
    assert trace.counters.inner_iterations == 124
    path = tmp_path / "bare.csv"
    write_trace_csv(trace, str(path))
    assert main(["report", str(path)]) == 0
    text = capsys.readouterr().out
    assert "outer records 124" in text and "line-search trials" not in text
    assert "-" in text  # bound column without constants


def test_report_missing_file_exits_1(tmp_path, capsys):
    assert main(["report", str(tmp_path / "ghost.csv")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_report_header_only_csv_exits_1(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("l,epsilon_l,delta_l,N_l,delta_wl,dist_xstar,cum_inner\n")
    assert main(["report", str(path)]) == 1
    assert "no data rows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sidecar, reason",
    [
        ("{not json", "Expecting property name"),
        ("[1, 2]", "not a JSON object"),
        ('{"config": []}', "config is not a JSON object"),
        ('{"constants": [1]}', "constants is not a JSON object"),
        ('{"counters": 57}', "counters is not a JSON object"),
        ('{"constants": {"C1": "x", "C2": 1.0, "nu": 0.5, "sigma": 0.5}}',
         "constant C1 is not a number"),
        # nu = 1 divides by zero in the bound, sigma = 1e300 overflows its power;
        # GeometricSchedule checks them, as it checks a config's
        ('{"constants": {"C1": 1.0, "C2": 1.0}, "config": {"nu": 1.0, "sigma": 0.5}}',
         "nu: must lie in (0, 1)"),
        ('{"constants": {"C1": 1.0, "C2": 1.0}, "config": {"nu": 0.5, "sigma": 1e300}}',
         "sigma: must lie in (0, 1]"),
        ('{"constants": {"C1": -1.0, "C2": 1.0, "nu": 0.5, "sigma": 0.5}}',
         "constant C1 out of range"),
        ('{"constants": {"C1": 1.0, "C2": NaN, "nu": 0.5, "sigma": 0.5}}',
         "constant C2 out of range"),
        # json.load raises RecursionError, not ValueError
        pytest.param("[" * 100_000, "JSON nested too deeply", id="deep_nesting"),
    ],
)
def test_report_unreadable_sidecar_exits_1_and_goes_on(tmp_path, capsys, sidecar, reason):
    trace = run_experiment(ExperimentConfig("illposed_box(2)", "gprm", epsilon_min=1e-3))
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    write_trace_csv(trace, str(bad))
    write_trace_csv(trace, str(good))
    (tmp_path / "bad.csv.json").write_text(sidecar)
    assert main(["report", str(bad), str(good)]) == 1
    out, err = capsys.readouterr()
    assert f"cannot read {tmp_path / 'bad.csv.json'}: {reason}" in err
    assert f"== {bad} ==" not in out and f"== {good} ==" in out


@pytest.mark.parametrize(
    "rows, line",
    [
        ("0,,,0\n", 2),  # short: DictReader would fill the missing cells with None
        ("0,,,0,,,0,9\n", 2),  # long: DictReader would keep the extra cell under None
        ("0,,,0,,,0\n1,0.5,,3\n", 3),
    ],
)
def test_report_row_with_wrong_cell_count_exits_1(tmp_path, capsys, rows, line):
    path = tmp_path / "bad.csv"
    path.write_text("l,epsilon_l,delta_l,N_l,delta_wl,dist_xstar,cum_inner\n" + rows)
    with pytest.raises(ValueError, match=f"line {line} of .*expected 7 cells"):
        read_trace_csv(str(path))
    assert main(["report", str(path)]) == 1
    assert f"cannot read {path}: line {line} of" in capsys.readouterr().err


@pytest.mark.parametrize("cells, column, text", [
    ("1,0.5,0.35,,1,1,1", "N_l", ""),
    ("1,0.5,0.35,1,abc,1,1", "delta_wl", "abc"),
], ids=["int_column", "float_column"])
def test_report_names_the_line_and_column_of_an_unparsable_cell(tmp_path, capsys, cells,
                                                                column, text):
    path = tmp_path / "bad.csv"
    path.write_text("l,epsilon_l,delta_l,N_l,delta_wl,dist_xstar,cum_inner\n0,,,0,1,1,0\n"
                    + cells + "\n")
    message = f"line 3 of {path}: {column}: cannot parse {text!r}"
    with pytest.raises(ValueError) as raised:
        read_trace_csv(str(path))
    assert str(raised.value) == message
    assert main(["report", str(path)]) == 1
    assert capsys.readouterr() == ("", f"cannot read {path}: {message}\n")


def test_report_refuses_a_nan_delta_cell(tmp_path, capsys):
    """A NaN Delta fails every Delta >= alpha test, so counted it would mark
    every alpha attained; report must refuse the file instead of printing."""
    trace = run_experiment(ExperimentConfig("illposed_box(2)", "gprm", epsilon_min=1e-3))
    path = tmp_path / "nan.csv"
    write_trace_csv(trace, str(path))
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[4] = "nan"  # delta_wl of the last level
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line {len(lines)} of .*delta_wl is not finite"):
        read_trace_csv(str(path))
    assert main(["report", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"cannot read {path}: line {len(lines)} of" in err


_HEADER = "l,epsilon_l,delta_l,N_l,delta_wl,dist_xstar,cum_inner\n"
# one cell past csv.field_size_limit()'s default of 131,072 characters
_LONG_CELL = "1" * 131_073


def test_report_refuses_a_cell_past_the_csv_field_limit(tmp_path, capsys):
    """The csv module raises csv.Error, not ValueError, for a cell longer than
    csv.field_size_limit(); report turns it into one `cannot read` line."""
    path = tmp_path / "long.csv"
    path.write_text(_HEADER + "0,,,0,,," + _LONG_CELL + "\n")
    assert main(["report", str(path)]) == 1
    assert capsys.readouterr() == (
        "", f"cannot read {path}: line 2 of {path}: field larger than field limit (131072)\n")


def test_report_fits_counts_past_the_float_range(tmp_path, capsys):
    """A cum_inner cell past 1e308 parses as an int; the exponent fit takes
    its log without converting it to a float, which would overflow."""
    path = tmp_path / "huge.csv"
    huge = "1" + "0" * 400
    path.write_text(_HEADER + f"1,0.5,,{huge},0.5,,{huge}\n2,0.25,,{huge},1e-9,,2{'0' * 400}\n")
    assert main(["report", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-4].split()[:2] == ["0.03", "1" + "0" * 400]


@pytest.mark.parametrize("rows, line, message", [
    # levels 2, 1, 1 with cum_inner 9, 3, -4, which report would otherwise
    # print as `cumulative inner iterations -4` with a table
    ("2,0.5,,9,0.1,,9\n1,0.25,,3,0.01,,3\n1,0.125,,1,1e-3,,-4\n", 3, "l 1 does not follow l 2"),
    ("1,0.5,,-1,0.1,,-1\n", 2, "N_l -1 is negative"),
    ("1,0.5,,2,0.1,,5\n", 2, "cum_inner 5 is not the running sum of N_l"),
    ("0,,,0,1,1,0\n1,,,1,0.5,0.5,1\n2,,,1,0.1,0.1,3\n", 4, "cum_inner 3 is not the running sum of N_l"),
], ids=["levels_out_of_order", "negative_N_l", "first_cum_inner", "later_cum_inner"])
def test_report_refuses_rows_that_do_not_follow_each_other(tmp_path, capsys, rows, line, message):
    """Each row's l is one above the previous row's, its N_l is >= 0 and its
    cum_inner is the previous cum_inner (0 before the first row) plus N_l."""
    path = tmp_path / "rows.csv"
    path.write_text(_HEADER + rows)
    expected = f"line {line} of {path}: {message}"
    with pytest.raises(ValueError) as raised:
        read_trace_csv(str(path))
    assert str(raised.value) == expected
    assert main(["report", str(path)]) == 1
    assert capsys.readouterr() == ("", f"cannot read {path}: {expected}\n")


@pytest.mark.parametrize("failing", ["write_trace_csv", "write_sidecar"])
def test_a_failed_write_leaves_no_csv_beside_another_runs_sidecar(tmp_path, capsys,
                                                                  monkeypatch, failing):
    """A second run to the same output path fails in one of its two writes:
    the CSV's after it replaced the file, or the sidecar's before it wrote.
    `report` must then read the new CSV without the first run's sidecar."""
    out = tmp_path / "out.csv"
    first = _run_ini(tmp_path, problem_label="illposed_box(2)", method="gprm",
                     epsilon_min="1e-2", output_path=out)
    assert main(["run", first]) == 0
    second = _write_ini(tmp_path, "problem_label = illposed_simplex(3)\nmethod = cgrm\n"
                        f"epsilon_min = 1e-3\noutput_path = {out}\n", name="second.ini")
    write = getattr(bench, failing)

    def fail(*args):
        if failing == "write_trace_csv":
            write(*args)
        raise PermissionError(13, "Permission denied", str(out))
    monkeypatch.setattr(bench, failing, fail)
    assert main(["run", second]) == 1
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "cumulative inner iterations 406," in text
    assert "method" not in text and "line-search trials" not in text
    assert not (tmp_path / "out.csv.json").exists()


_COLUMNS = _HEADER.strip().split(",")
# per column, (cells a stored trace holds, cells no run writes)
_INT_CELLS = (("0", "1", "2", "5", "28"),
              ("", "-1", "1.5", "x", "9" * 400, "9" * 5000, " 1", '"1"', "\0"))
_FLOAT_CELLS = (("", "0.5", "0.25", "1e-3", "1e-9", "0.0"),
                ("nan", "inf", "-inf", "1e400", "-0.0", "5e-324", "x", '"', "\0", _LONG_CELL))
_CELLS = {c: _INT_CELLS if c in ("l", "N_l", "cum_inner") else _FLOAT_CELLS for c in _COLUMNS}


@st.composite
def _trace_text(draw):
    """A trace CSV: the right header or a mangled one, then rows of cells a
    trace holds, numbered and summed as a run writes them, or of any cells,
    some rows with a cell too few or too many."""
    header = draw(st.sampled_from([_HEADER, _HEADER.replace("l,", "level,", 1),
                                   ",".join(reversed(_COLUMNS)) + "\n", "", "\n",
                                   _HEADER.strip() + ",extra\n"]))
    rows, cum_inner = [], 0
    for l in range(1, draw(st.integers(0, 5)) + 1):
        any_cells = draw(st.booleans())
        cells = [draw(_pool(*_CELLS[c]) if any_cells else st.sampled_from(_CELLS[c][0]))
                 for c in _COLUMNS] + ["0"]
        if not any_cells:
            cum_inner += int(cells[3])
            cells[0], cells[6] = str(l), str(cum_inner)
        rows.append(",".join(cells[:draw(st.sampled_from([7, 7, 7, 6, 8]))]) + "\n")
    return header + "".join(rows)


_JSON_VALUES = st.sampled_from([0.5, 1.0, 1, 0, -1.0, 1e300, 1e-300, 10**400, True, False,
                                None, "x", [], {}, float("nan"), float("inf")])
# no st.text(): its character tables cost about a second to build per session
_KEYS = st.sampled_from(["config", "constants", "counters", "nu", "C1", "", "\u00e9"])
_JSON = st.recursive(st.none() | st.booleans() | st.floats() | st.integers() | _KEYS,
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(_KEYS, inner, max_size=3), max_leaves=8)


@st.composite
def _sidecar_bytes(draw):
    """None (no sidecar), a payload shaped like a sidecar with drawn values,
    random JSON, deep nesting, or bytes that are not UTF-8."""
    kind = draw(st.sampled_from(["none", "payload", "payload", "json", "deep", "bytes"]))
    if kind == "none":
        return None
    if kind == "payload":
        payload = {
            "config": {"method": "gprm", "problem_label": "illposed_box(2)",
                       **draw(st.dictionaries(st.sampled_from(["nu", "sigma", "method"]),
                                              _JSON_VALUES))},
            "constants": draw(st.dictionaries(st.sampled_from(["C1", "C2", "gamma"]),
                                              _JSON_VALUES | st.floats())),
            "counters": draw(st.sampled_from([{"linesearch_trials": 84}, {}, [], 57])),
        }
        return json.dumps({k: v for k, v in payload.items() if draw(st.booleans())}).encode()
    if kind == "json":
        return json.dumps(draw(_JSON)).encode()
    if kind == "deep":
        return draw(st.sampled_from([b"[", b'{"config": [', b'{"a": {"a": '])) * 100_000
    return draw(st.sampled_from([b"\xff\xfe{", b'{"config": "\xe9"}', b"\x00", b"{"]))


@settings(max_examples=120)
@given(_trace_text(), _sidecar_bytes())
@example(_HEADER + "1,0.5,,1,0.5,,1\n2,0.25,,1,1e-9,,2\n",
         b'{"config": {"nu": 0.5, "sigma": 0.5}, "constants": {"C1": 1e200, "C2": 1e300}}')
def test_report_ends_every_mangled_input_with_exit_0_or_1(csv_text, sidecar):
    """Whatever the trace and sidecar hold, `tikgrad report` returns 0 or 1
    and raises nothing: no traceback reaches the user."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.csv")
        with open(path, "w", newline="") as fh:
            fh.write(csv_text)
        if sidecar is not None:
            with open(bench.sidecar_path(path), "wb") as fh:
                fh.write(sidecar)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["report", path]) in (0, 1)


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _tikgrad_process(args, threads):
    """python args with src on the path and the BLAS thread variables as given
    (a missing key is removed from the environment)."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    env.update(threads, PYTHONPATH=_SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=env)


def test_a_large_run_writes_the_same_bytes_whatever_the_blas_threads(tmp_path):
    """From about 1e5 entries OpenBLAS threads x.dot(y) and sums in another
    order, so before the package pinned one thread this run's CSV differed
    with the variables unset on a host with two or more cores."""
    cfg = _run_ini(tmp_path, problem_label="illposed_box(200000)", method="gprm",
                   epsilon_min="1e-3")
    written = []
    for name, threads in (("unset", {}), ("one", dict.fromkeys(_BLAS_THREADS, "1"))):
        out = tmp_path / f"{name}.csv"
        done = _tikgrad_process(["-m", "tikgrad.cli", "run", cfg, "--output", str(out)], threads)
        assert done.returncode == 0, done.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_the_package_keeps_a_blas_thread_count_the_user_set():
    probe = f"import os, tikgrad; print(*(os.environ[k] for k in {_BLAS_THREADS!r}))"
    done = _tikgrad_process(["-c", probe], {"OPENBLAS_NUM_THREADS": "2"})
    assert (done.returncode, done.stdout) == (0, "2 1 1\n"), done.stderr
