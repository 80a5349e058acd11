"""Smoke tests of the experiment scripts: each runs on a small grid and
prints its table."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name, args, header", [
    ("uniformity_benchmark", ["--grid", "101"], "sup|d2u|"),
    ("blowup_scan", ["--grid", "101"], "(1-t)sup|d2u|"),
    ("example1_sweep", ["--grid", "101", "--pairs", "4,2", "--c", "0.0"], "udd_near_end"),
])
def test_script_prints_its_table(name, args, header, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    module.main()
    lines = capsys.readouterr().out.splitlines()
    assert any(header in line.split() for line in lines)
