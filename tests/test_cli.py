"""Tests for the command-line front end, driven in-process through main()."""

import json

import pytest

from tikgrad import acceptance, bench
from tikgrad.acceptance import CriterionResult
from tikgrad.bench import (
    DEFAULT_ALPHA_GRID,
    ExperimentConfig,
    read_trace_csv,
    run_experiment,
    write_trace_csv,
)
from tikgrad.cli import main
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
    assert out.exists() and (tmp_path / "t.json").exists()
    with open(out) as fh:
        assert fh.readline().strip() == "l,epsilon_l,delta_l,N_l,delta_wl,dist_xstar,cum_inner"
    assert capsys.readouterr().out == (
        "gprm on illposed_box(2): 9 outer records, 28 inner iterations, 57 line-search trials, "
        f"final value gap 5.103e-07, final dist to x*_n 7.143e-04, wrote {out}\n"
    )


def test_run_output_flag_overrides_config(tmp_path):
    cfg = _run_ini(
        tmp_path, problem_label="illposed_box(2)", method="gprm", epsilon_min="1e-3"
    )
    out = tmp_path / "override.csv"
    assert main(["run", cfg, "--output", str(out)]) == 0
    assert out.exists() and (tmp_path / "override.json").exists()


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
    with open(tmp_path / "gpm.json") as fh:
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
    assert out.exists() and (tmp_path / "o%1.json").exists()


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
        with open(tmp_path / f"trace_{i:03d}.json") as fh:
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
        ("dir.csv", "dir.json' is a directory"),
    ],
)
def test_unwritable_output_is_a_config_error_before_solving(
    tmp_path, capsys, monkeypatch, command, where, message
):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir.json").mkdir()
    cfg = _run_ini(tmp_path, problem_label="illposed_box(2)", method="gprm",
                   epsilon_min="1e-2", output_path=tmp_path / where)
    _no_solver(monkeypatch)
    assert main([command, cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: output_path: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_output_path_that_is_its_own_sidecar_is_a_config_error(
    tmp_path, capsys, monkeypatch, command
):
    """A trace named *.json would be replaced by its sidecar, which gets the
    same name."""
    cfg = _run_ini(tmp_path, problem_label="illposed_box(2)", method="gprm",
                   epsilon_min="1e-2", output_path=tmp_path / "out.json")
    _no_solver(monkeypatch)
    assert main([command, cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: output_path: ") and "own sidecar path" in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "config.ini"]


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
    for number in failed:
        assert "LineSearchFailure: no sufficient decrease" in lines[number - 1]


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
    assert "cumulative inner iterations 28," in text and text.count("line-search trials 57\n") == 1
    assert "alpha" in text and "N(alpha)" in text and "bound" in text
    assert "0.001" in text


def test_report_prints_inf_for_an_overflowing_bound(tmp_path, capsys):
    """C1 = 1e200 is in range, but (C1/alpha)^(1+2 sigma) passes the float range."""
    out = tmp_path / "run.csv"
    cfg = _run_ini(tmp_path, problem_label="illposed_box(2)", method="gprm",
                   epsilon_min="1e-3", output_path=out)
    assert main(["run", cfg]) == 0
    sidecar = tmp_path / "run.json"
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
        # nu = 1 divides by zero in the bound, sigma = 1e300 overflows its power
        ('{"constants": {"C1": 1.0, "C2": 1.0, "nu": 1.0, "sigma": 0.5}}',
         "constant nu out of range"),
        ('{"constants": {"C1": 1.0, "C2": 1.0, "nu": 0.5, "sigma": 1e300}}',
         "constant sigma out of range"),
        ('{"constants": {"C1": -1.0, "C2": 1.0, "nu": 0.5, "sigma": 0.5}}',
         "constant C1 out of range"),
        ('{"constants": {"C1": 1.0, "C2": NaN, "nu": 0.5, "sigma": 0.5}}',
         "constant C2 out of range"),
    ],
)
def test_report_unreadable_sidecar_exits_1_and_goes_on(tmp_path, capsys, sidecar, reason):
    trace = run_experiment(ExperimentConfig("illposed_box(2)", "gprm", epsilon_min=1e-3))
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    write_trace_csv(trace, str(bad))
    write_trace_csv(trace, str(good))
    (tmp_path / "bad.json").write_text(sidecar)
    assert main(["report", str(bad), str(good)]) == 1
    out, err = capsys.readouterr()
    assert f"cannot read {tmp_path / 'bad.json'}: {reason}" in err
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
