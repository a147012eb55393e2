"""`tikgrad report` counts N(alpha) as the acceptance suite does."""

import numpy as np
import pytest

from tikgrad import bench
from tikgrad.bench import DEFAULT_ALPHA_GRID, ExperimentConfig, run_experiment, write_trace_csv
from tikgrad.cli import main


@pytest.mark.parametrize("label, method, sigma, epsilon_min, unattained", [
    ("illposed_box(2)", "gprm", 0.5, 0.1, 2),  # stopped before Delta < 0.003
    ("illposed_simplex(3)", "cgrm", 1.0, 1e-3, 0),  # sigma != nu tells them apart
])
def test_report_table_is_the_acceptance_suites_count_and_bound(
        tmp_path, capsys, label, method, sigma, epsilon_min, unattained):
    """report's N(alpha) column is measure_complexity's count and its bound
    column with_bounds' bound, the two figures criterion 4 compares."""
    cfg = ExperimentConfig(label, method, sigma=sigma, epsilon_min=epsilon_min,
                           output_path=str(tmp_path / "run.csv"))
    trace = run_experiment(cfg)
    gp, _, sched, _, consts, _ = bench.validate_experiment(cfg)
    report = bench.with_bounds(
        bench.measure_complexity(trace.outer_records),
        *bench.bound_constants(method, sched, consts, float(np.linalg.norm(gp.analytic_xstar_n))),
        sched.nu, sched.sigma,
    )
    assert report.attained.count(False) == unattained
    assert main(["report", cfg.output_path]) == 0
    rows = [row.split() for row in capsys.readouterr().out.splitlines()[-len(DEFAULT_ALPHA_GRID):]]
    assert rows == [
        [f"{alpha:g}", str(n), f"{bound:.4e}"] if ok else [f"{alpha:g}", "unattained", "-"]
        for alpha, n, ok, bound in zip(
            report.alpha_grid, report.measured_N, report.attained, report.bound_N)
    ]


def test_report_with_an_empty_delta_cell_prints_no_table(tmp_path, capsys):
    trace = run_experiment(ExperimentConfig("illposed_box(2)", "gprm", epsilon_min=1e-3))
    path = tmp_path / "hole.csv"
    write_trace_csv(trace, str(path))
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[4] = ""  # delta_wl of the third level
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"== {path} ==\nouter records 9, cumulative inner iterations 28,")
    assert len(out.splitlines()) == 2 and "N(alpha)" not in out
