"""Smoke tests of the experiment scripts: each runs on a small grid and
prints its table."""

import importlib.util
import sys
from pathlib import Path

import pytest

from yamabe.solver import DEFAULT_T_SCHEDULE

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(name, args, monkeypatch, capsys):
    """main() of scripts/<name>.py on the command line args; its output lines."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
