"""Tests of the scripts: the claims ledger reproduces CLAIMS.json to the
digits each row promises, loc.py's line counts add up and bench.py counts
what the code it measures does."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from yamabe import solver, symfun
from yamabe.symfun import SymFuncSpec

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
CLAIMS = ROOT / "CLAIMS.json"


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


def _agree(value, pinned, digits):
    """value matches pinned to `digits` significant digits; numbers below
    1e-9 in both are at rounding level and held to their bound only.  A
    str, bool or None leaf, a label or a flag, must equal its pin."""
    if isinstance(value, dict):
        assert value.keys() == pinned.keys()
        for key in value:
            _agree(value[key], pinned[key], digits)
    elif isinstance(value, list):
        assert len(value) == len(pinned)
        for item, pinned_item in zip(value, pinned):
            _agree(item, pinned_item, digits)
    elif any(leaf is None or isinstance(leaf, (str, bool)) for leaf in (value, pinned)):
        assert (type(value), value) == (type(pinned), pinned)
    elif max(abs(value), abs(pinned)) >= 1e-9:
        assert value == pytest.approx(pinned, rel=10.0 ** -digits)


def test_agree_holds_labels_to_equality_and_numbers_to_digits():
    entry = {"config": "n5 sigma_3", "passed": True, "t": None, "order": 2.0004, "tiny": 1e-12}
    _agree([entry], [{**entry, "order": 2.0005, "tiny": 3e-12}], 3)
    for key, other in (("config", "n5 sigma_2"), ("passed", False), ("passed", 1),
                       ("t", 0.5), ("order", 2.1)):
        with pytest.raises(AssertionError):
            _agree([entry], [{**entry, key: other}], 3)
        with pytest.raises(AssertionError):
            _agree([{**entry, key: other}], [entry], 3)


ROWS = ("closed_form_table", "subsolution_uniformity", "blowup_tail", "monotone_scheme")


@pytest.fixture(scope="module")
def ledger():
    """The ledger built in-process once, and CLAIMS.json, each as a list of rows."""
    return _load("claims").ledger(), json.loads(CLAIMS.read_text())


def _rows(ledger, name):
    """The row `name` of the built ledger and of the committed file."""
    return tuple(next(row for row in rows if row["name"] == name) for rows in ledger)


def test_claims_ledger_has_the_rows_of_the_committed_file(ledger):
    built, committed = ledger
    assert [row["name"] for row in built] == [row["name"] for row in committed] == list(ROWS)


@pytest.mark.parametrize("name", ROWS)
def test_claims_row_passes(name, ledger):
    built, pinned = _rows(ledger, name)
    assert built["passed"] and pinned["passed"]


@pytest.mark.parametrize("name", ROWS)
def test_claims_row_matches_the_committed_file(name, ledger):
    built, pinned = _rows(ledger, name)
    assert {**built, "measured": None} == {**pinned, "measured": None}
    _agree(built["measured"], pinned["measured"], built["digits"])


def _old_figures(name, measured):
    """What the deleted experiment script of row `name` printed, at its digits."""
    if name == "closed_form_table":
        entry = next(e for e in measured["table"] if (e["n"], e["k"], e["c"]) == (4, 2, 0.0))
        return [f"{entry[key]:.6g}" for key in ("T", "udd_near_end", "curvature_ratio")]
    if name == "subsolution_uniformity":
        return [f"{measured['min_margin']:.4f}", *(f"{v:.3f}" for v in measured["spread"])]
    tail = [(f"{e['sup_d2u']:.5f}", e["newton_iters"]) for e in measured["table"] if e["t"] >= 0.9]
    return [f"{measured['band']:.3f}", *tail]


@pytest.mark.parametrize("name, figures", [
    ("closed_form_table", ["0.409741", "78.2885", "9.68955"]),
    ("subsolution_uniformity", ["0.3354", "1.819", "36.433", "31.924"]),
    ("blowup_tail", ["2.605", ("4.14828", 4), ("6.56364", 8), ("9.85757", 5), ("15.92712", 8),
                     ("2411.14002", 14)]),
])
def test_claims_row_keeps_the_figures_the_old_script_printed(name, figures, ledger):
    assert _old_figures(name, _rows(ledger, name)[0]["measured"]) == figures


def test_script_imports_its_own_checkout(tmp_path):
    # run as a file from elsewhere, with no PYTHONPATH: the script finds the
    # package in src/ next to it, and writes no file here or in the checkout
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def listing():
        return sorted(ROOT.iterdir()), sorted(SCRIPTS.iterdir()), CLAIMS.stat().st_mtime_ns

    before = listing()
    done = subprocess.run([sys.executable, str(SCRIPTS / "claims.py")], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert [row["name"] for row in json.loads(done.stdout)] == list(ROWS)
    assert list(tmp_path.iterdir()) == []
    assert listing() == before


def test_output_hashes_lists_every_config_in_order():
    # a config added to the script without regenerating OUTPUT_HASHES.txt
    # fails here; loading the script runs no config
    lines = (ROOT / "OUTPUT_HASHES.txt").read_text().splitlines()
    names = [line.rsplit(": exit ", 1)[0] for line in lines]
    assert names == [name for name, _ in _load("output_hashes").CONFIGS]


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


def test_bench_counts_the_decay_check_of_verify_structure(spy):
    # bench.py's decay check draws from the generator state that sampling
    # leaves, as inside `verify_structure`, so it makes the same cone calls
    bench = _load("bench")
    spec = SymFuncSpec("sigma_k_root", n=4, k=2)
    counted = bench.decay_check_margin_calls(spec, *bench.decay_check_inputs(spec))
    check, scores, rows = symfun._boundary_decay_check, spy(SymFuncSpec, "margin_scores"), []

    def checking(*args):
        first = scores.call_count
        result = check(*args)
        rows.extend(len(call.args[1]) for call in scores.call_args_list[first:])
        return result

    spy(symfun, "_boundary_decay_check", checking)
    symfun.verify_structure(spec, sample_count=1000, seed=0)
    assert counted == {"calls": len(rows), "rows": sum(rows)}


def test_bench_counts_the_kernel_calls_of_a_continuation():
    # the README continuation at tol 1e-7 restores 7 warm starts, with one
    # full pass per rung up to the first feasible rung and its headroom rung
    bench = _load("bench")
    counted = (solver._radial_eval, solver._restore_feasibility)
    counts = bench.kernel_passes(401)
    assert counts == {"full_passes": 156, "rows": 156 * 399, "restores": 7}
    # the counters are taken off again
    assert counted == (solver._radial_eval, solver._restore_feasibility)


@pytest.mark.parametrize("fork", [True, False])
def test_bench_solve_times_restores_the_fork_rows_after_a_failed_solve(monkeypatch, fork):
    bench = _load("bench")
    rows, fork_call = bench.cli._FORK_ROWS, os.fork
    monkeypatch.setattr(bench.cli, "main", lambda argv: 1)
    with pytest.raises(RuntimeError, match="yamabe solve exited 1"):
        bench.solve_times(101, fork)
    assert bench.cli._FORK_ROWS == rows and os.fork is fork_call


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
    assert list(doc) == [
        "machine", "t", "repeats", "layers_ms", "esp_kernels_ms", "cone_scores_ms", "gradient",
        "banded_solve_ms", "kernel_passes_4001", "kernel_passes_401", "structure_suites_ms",
        "boundary_decay_check_margin_scores", "continuation", "continuation_blowup_example1_1001",
        "construction_blowup_example1_1001", "orbit_inversion_example1", "solve"]
    assert set(doc["esp_kernels_ms"]["n4_k2_m1"]) == {"esp", "esp_radial_columns", "esp_removed",
                                                        "t_map", "value_and_grad_many"}
    # at tol 1e-7 every t meets tol; at the default tol every t of the
    # 4001-node run stops at its rounding floor F, the largest node floor,
    # so each node's ratio is at least the ratio to F
    assert doc["continuation"]["101"]["floor_stops_t"] == []
    assert doc["continuation"]["101"]["max_residual_over_floor"] is None
    assert doc["continuation"]["101"]["max_residual_over_node_floor"] is None
    floored = doc["continuation"]["4001_default_tol"]
    assert floored["floor_stops_t"] == list(solver.DEFAULT_T_SCHEDULE)
    assert 0.0 < floored["max_residual_over_floor"] <= 1.0
    assert floored["max_residual_over_node_floor"] >= floored["max_residual_over_floor"]
    assert all(g["esp_calls_per_gradient"] == 1 for g in doc["gradient"].values())
    solves = doc["solve"]["101"]
    assert list(solves) == ["fork", "no_fork"]
    assert all(solve["minor_faults_self"] >= 0 for solve in solves.values())
    # the forced fork needs a second core
    assert solves["fork"]["processes"] == min(2, doc["machine"]["nproc"])
    assert solves["no_fork"]["processes"] == 1
    assert doc["solve"]["fork_rows"] == bench.cli._FORK_ROWS
