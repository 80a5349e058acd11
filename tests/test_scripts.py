"""Smoke tests of the scripts: each experiment script runs on a small grid
and prints its table, loc.py's line counts add up and bench.py counts what
the code it measures does."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from yamabe import solver, symfun
from yamabe.solver import DEFAULT_T_SCHEDULE
from yamabe.symfun import SymFuncSpec

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _load(name):
    """scripts/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(name, args, monkeypatch, capsys):
    """main() of scripts/<name>.py on the command line args; its output lines."""
    module = _load(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    module.main()
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("name, args, header", [
    ("uniformity_benchmark", ["--grid", "101"], "sup|d2u|"),
    ("blowup_scan", ["--grid", "101"], "(1-t)sup|d2u|"),
    ("example1_sweep", ["--grid", "101", "--pairs", "4,2", "--c", "0.0"], "udd_near_end"),
])
def test_script_prints_its_table(name, args, header, monkeypatch, capsys):
    lines = _run(name, args, monkeypatch, capsys)
    assert any(header in line.split() for line in lines)


@pytest.mark.parametrize("t_max, schedule", [
    ("0.99", DEFAULT_T_SCHEDULE),
    ("0.95", (*DEFAULT_T_SCHEDULE[:10], 0.95)),
    ("0.9", DEFAULT_T_SCHEDULE[:10]),
    ("1.0", (*DEFAULT_T_SCHEDULE, 1.0)),
])
def test_blowup_scan_schedule(t_max, schedule, monkeypatch, capsys):
    # the default schedule up to --t-max; t = 1 stays out of the band factor
    lines = _run("blowup_scan", ["--grid", "101", "--t-max", t_max], monkeypatch, capsys)
    start = next(i for i, line in enumerate(lines) if "(1-t)sup|d2u|" in line.split())
    rows = [line.split() for line in lines[start + 1:] if not line.startswith("tail")]
    assert [float(row[0]) for row in rows] == [float(f"{t:.4f}") for t in schedule]
    assert lines[-1].startswith("tail band factor (0.9 <= t < 1): ")


@pytest.mark.parametrize("t_max", ["0", "-0.5", "1.5", "nan"])
def test_blowup_scan_rejects_t_max_outside_the_range(t_max, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exit_:
        _run("blowup_scan", ["--grid", "101", "--t-max", t_max], monkeypatch, capsys)
    assert exit_.value.code == 2
    assert "--t-max must lie in (0, 1]" in capsys.readouterr().err


def test_script_imports_its_own_checkout(tmp_path):
    # run as a file from elsewhere, with no PYTHONPATH: the script finds the
    # package in src/ next to it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "example1_sweep.py"), "--grid", "101", "--pairs", "4,2",
         "--c", "0.0"], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "udd_near_end" in done.stdout.split()


def test_loc_rows_add_up(monkeypatch, capsys):
    header, *rows = (line.split() for line in _run("loc", [], monkeypatch, capsys))
    assert header == ["module", "total", "docstring", "comment", "blank", "code"]
    counts = {name: list(map(int, values)) for name, *values in rows}
    modules = {path.name for path in (ROOT / "src" / "yamabe").glob("*.py")}
    assert set(counts) == modules | {"total"}
    for total, *parts in counts.values():
        assert sum(parts) == total
    assert counts.pop("total") == [sum(column) for column in zip(*counts.values())]


def test_loc_sorts_the_lines_of_a_module():
    loc = _load("loc")
    source = '"""Doc\n\nstring."""\n# comment\n\nx = 1  # trailing\n\n\ndef f():\n    """Doc."""\n    return "#"\n'
    assert loc.counts(source) == {"total": 11, "docstring": 4, "comment": 1, "blank": 3, "code": 3}


def test_bench_counts_the_decay_check_of_verify_structure(monkeypatch):
    # bench.py's decay check draws from the generator state that sampling
    # leaves, as inside `verify_structure`, so it makes the same cone calls
    bench = _load("bench")
    spec = SymFuncSpec("sigma_k_root", n=4, k=2)
    counted = bench.decay_check_margin_calls(spec, *bench.decay_check_inputs(spec))
    score, check, rows, checking = SymFuncSpec.margin_scores, symfun._boundary_decay_check, [], []

    def decay_check(*args):
        checking.append(True)
        try:
            return check(*args)
        finally:
            checking.pop()

    def scores(self, values, t=None):
        if checking:
            rows.append(len(values))
        return score(self, values, t)

    monkeypatch.setattr(symfun, "_boundary_decay_check", decay_check)
    monkeypatch.setattr(SymFuncSpec, "margin_scores", scores)
    symfun.verify_structure(spec, sample_count=1000, seed=0)
    assert counted == {"calls": len(rows), "rows": sum(rows)}


def test_bench_counts_the_kernel_calls_of_a_continuation():
    # the README continuation at tol 1e-7 restores 7 warm starts, each with
    # one pre-test call on 9 nodes of all 9 blends and two full passes
    bench = _load("bench")
    counted = (solver._radial_eval, solver._restore_feasibility, solver._rungs_outside,
               SymFuncSpec.radial_eval)
    counts = bench.kernel_passes(401)
    assert counts == {"full_passes": 129, "rows": 129 * 399, "restores": 7,
                      "pretest_calls": 7, "pretest_rows": 7 * 81}
    # the counters are taken off again
    assert counted == (solver._radial_eval, solver._restore_feasibility, solver._rungs_outside,
                       SymFuncSpec.radial_eval)


def test_bench_solve_times_takes_its_writer_count_off_a_failed_solve(monkeypatch):
    bench = _load("bench")
    count = bench.cli._writer_count
    monkeypatch.setattr(bench.cli, "main", lambda argv: 1)
    with pytest.raises(RuntimeError, match="yamabe solve exited 1"):
        bench.solve_times(101, writers=1)
    assert bench.cli._writer_count is count


def test_bench_main_prints_one_json_document(monkeypatch, capsys):
    # every measurement of bench.py at its smallest repeats and sizes, so
    # that a rename of a name it reaches into fails here
    bench = _load("bench")
    # the Jacobian check takes REPEATS // 10 repeats
    monkeypatch.setattr(bench, "REPEATS", 10)
    for name in ("SOLVE_REPEATS", "BLOWUP_REPEATS", "SUITE_REPEATS"):
        monkeypatch.setattr(bench, name, 1)
    for name in ("NODES", "SOLVE_NODES", "PROFILE_NODES"):
        monkeypatch.setattr(bench, name, (101,))
    monkeypatch.setattr(bench, "KERNEL_ROWS", (1,))
    monkeypatch.setattr(bench, "CONE_SCORE_ROWS", (1,))
    bench.main()
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["esp_kernels_ms"]["n4_k2_m1"]) == {"esp", "esp_radial_columns", "esp_removed"}
    assert all(g["esp_calls_per_gradient"] == 1 for g in doc["gradient"].values())
