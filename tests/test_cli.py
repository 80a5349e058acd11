"""End-to-end tests of the command line interface and its file formats."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from yamabe import cli, geometry
from yamabe.cli import main
from yamabe.geometry import RadialProfile

from oracles import radial_rows


def run_cli(args):
    return main(list(args))


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def check_config(tmp_path):
    return write_config(tmp_path / "check.json", {
        "function": {"kind": "sigma_k_root", "n": 4, "k": 2},
        "samples": 300,
        "ball": {"directions": 200},
        "separation": {"samples": 400, "beta": 0.2},
        "seed": 1,
        "out": str(tmp_path / "out"),
    })


@pytest.fixture
def example1_config(tmp_path):
    return write_config(tmp_path / "ex1.json", {
        "n": 4, "k": 2, "c": 0.0, "grid_size": 401,
        "out": str(tmp_path / "out"),
    })


@pytest.fixture
def solve_config(tmp_path):
    return write_config(tmp_path / "solve.json", {
        "n": 4,
        "function": {"kind": "sigma_k_root", "k": 2},
        "half_length": 1.0,
        "grid_size": 101,
        "t_schedule": [0.0, 0.5, 0.9],
        "psi": {"family": "subsolution_scaled", "theta": 0.5},
        "phi": "subsolution",
        "subsolution": {"family": "cosh", "amplitude": 0.3},
        "out": str(tmp_path / "out"),
    })


class TestCheckCommand:
    def test_sigma_2_root_passes(self, check_config, tmp_path):
        assert run_cli(["check", check_config]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is True
        assert report["classification"] == {"cone_type": 1, "f_type": "unbounded"}
        names = {c["name"] for c in report["checks"]}
        assert "structure.f4_homogeneity" in names
        assert "ball.membership" in names
        assert "separation.margin_positive" in names

    def test_broken_fixture_fails_and_names_condition(self, tmp_path):
        cfg = write_config(tmp_path / "broken.json", {
            "function": {"kind": "sigma1_squared_broken", "n": 4},
            "samples": 200,
            "out": str(tmp_path / "out"),
        })
        assert run_cli(["check", cfg]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        assert "structure.f4_homogeneity" in failed

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["check", str(bad)]) == 2

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "function": {"kind": "sigma_k_root", "n": 4, "k": 2},
            "surprise": 1,
            "out": str(tmp_path / "out"),
        })
        assert run_cli(["check", cfg]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli(["check", str(tmp_path / "nope.json")]) == 2


class TestExample1Command:
    def test_canonical_run(self, example1_config, tmp_path):
        assert run_cli(["example1", example1_config]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["derived"]["d"] == pytest.approx(-math.log(2) / 4, abs=1e-12)
        text = (out / "profile.csv").read_text()
        assert format(-math.log(2) / 4, ".17g") in text  # d recorded in the header block

    def test_profile_csv_shape(self, example1_config, tmp_path):
        run_cli(["example1", example1_config])
        lines = (tmp_path / "out" / "profile.csv").read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert comments[0].startswith("# format yamabe/1")
        assert any(l.startswith("# config") for l in comments)
        rows = [l for l in lines if not l.startswith("#")]
        assert rows[0] == "x,u,du,d2u,residual"
        assert len(rows) == 1 + 401
        parsed = list(csv.reader(rows[1:]))
        assert all(len(r) == 5 for r in parsed)
        # endpoints carry the boundary value and 17-digit round-trip works
        assert float(parsed[0][1]) == pytest.approx(0.0, abs=1e-9)

    def test_internal_consistency_other_params(self, tmp_path):
        cfg = write_config(tmp_path / "e.json", {
            "n": 3, "k": 2, "c": 1.0, "grid_size": 201,
            "out": str(tmp_path / "out"),
            "thresholds": {"d2u_floor": 2.0},
        })
        assert run_cli(["example1", cfg]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        d = report["derived"]["d"]
        h0 = math.exp((2 * 2 - 3) * d) - math.exp(-3 * d)
        assert -math.log(abs(h0)) / 3 == pytest.approx(1.0, abs=1e-10)

    def test_k_one_rejected_as_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "e.json", {
            "n": 4, "k": 1, "c": 0.0, "out": str(tmp_path / "out"),
        })
        assert run_cli(["example1", cfg]) == 2

    def test_byte_identical_reruns(self, example1_config, tmp_path):
        run_cli(["example1", example1_config])
        first = (tmp_path / "out" / "profile.csv").read_bytes()
        first_report = (tmp_path / "out" / "report.json").read_bytes()
        run_cli(["example1", example1_config])
        assert (tmp_path / "out" / "profile.csv").read_bytes() == first
        assert (tmp_path / "out" / "report.json").read_bytes() == first_report

    def test_lf_line_endings(self, example1_config, tmp_path):
        run_cli(["example1", example1_config])
        raw = (tmp_path / "out" / "profile.csv").read_bytes()
        assert b"\r" not in raw


class TestSolveCommand:
    def test_benchmark_run(self, solve_config, tmp_path):
        assert run_cli(["solve", solve_config]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["failed_t"] is None
        monitors = (out / "monitors.csv").read_text().splitlines()
        rows = [l for l in monitors if not l.startswith("#")]
        assert rows[0] == "t,sup_u,sup_du,sup_d2u,residual_norm,cone_margin,newton_iters"
        assert len(rows) == 1 + 3
        profiles = sorted(out.glob("profile_*.csv"))
        assert len(profiles) == 3

    def test_broken_fixture_runs_through_the_generic_kernel(self, solve_config, tmp_path):
        # BrokenHomogeneitySpec has no two-value kernel of its own; the
        # solver evaluates it on the full eigenvalue rows
        config = json.loads(Path(solve_config).read_text())
        config["function"] = {"kind": "sigma1_squared_broken"}
        assert run_cli(["solve", write_config(tmp_path / "broken.json", config)]) == 0
        assert json.loads((tmp_path / "out" / "report.json").read_text())["passed"] is True

    def test_example_data_run(self, tmp_path):
        cfg = write_config(tmp_path / "s.json", {
            "n": 4,
            "function": {"kind": "sigma_k_root", "k": 2},
            "half_length": "example1",
            "grid_size": 201,
            "t_schedule": [0.0, 0.5, 0.9, 0.99],
            "psi": {"family": "example1_rhs", "c": 0.0},
            "phi": {"left": 0.0, "right": 0.0},
            "init": {"family": "example1_profile", "c": 0.0},
            "out": str(tmp_path / "out"),
        })
        code = run_cli(["solve", cfg])
        assert code in (0, 3)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        table = report["curvature_scaled"]
        sup = [v / (1 - t) for t, v in table]
        assert sup[-1] > sup[0]  # curvature grows towards t = 1

    def test_criterion_9_data_runs_with_jacobian_check(self, tmp_path):
        cfg = write_config(tmp_path / "s.json", {
            "n": 5,
            "function": {"kind": "sigma_k_root", "k": 4},
            "half_length": "example1",
            "grid_size": 1001,
            "psi": {"family": "example1_rhs", "c": -0.5},
            "phi": {"left": -0.5, "right": -0.5},
            "init": {"family": "example1_profile", "c": -0.5},
            "newton": {"tol": 1.2e-4},
            "out": str(tmp_path / "out"),
        })
        assert run_cli(["solve", cfg]) == 0
        monitors = (tmp_path / "out" / "monitors.csv").read_text().splitlines()
        rows = [l for l in monitors if not l.startswith("#")]
        assert len(rows) == 1 + 13

    def test_failed_subsolution_exits_1(self, tmp_path):
        cfg = write_config(tmp_path / "s.json", {
            "n": 4,
            "function": {"kind": "sigma_k_root", "k": 2},
            "half_length": 1.0,
            "grid_size": 101,
            "psi": {"family": "constant", "value": 50.0},
            "phi": "subsolution",
            "subsolution": {"family": "cosh", "amplitude": 0.3},
            "out": str(tmp_path / "out"),
        })
        assert run_cli(["solve", cfg]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is False

    def test_missing_subsolution_and_init_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "s.json", {
            "n": 4,
            "function": {"kind": "sigma_k_root", "k": 2},
            "half_length": 1.0,
            "psi": {"family": "constant", "value": 1.0},
            "phi": {"left": 0.0, "right": 0.0},
            "out": str(tmp_path / "out"),
        })
        assert run_cli(["solve", cfg]) == 2

    def test_partial_convergence_exits_3(self, tmp_path):
        cfg = write_config(tmp_path / "s.json", {
            "n": 4,
            "function": {"kind": "sigma_k_root", "k": 2},
            "half_length": 1.0,
            "grid_size": 101,
            "t_schedule": [0.0, 0.5],
            "newton": {"tol": 1e-10, "max_iter": 1},
            "psi": {"family": "subsolution_scaled", "theta": 0.5},
            "phi": "subsolution",
            "subsolution": {"family": "cosh", "amplitude": 0.3},
            "out": str(tmp_path / "out"),
        })
        assert run_cli(["solve", cfg]) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["failed_t"] is not None

    def test_monitors_deterministic(self, solve_config, tmp_path):
        run_cli(["solve", solve_config])
        first = (tmp_path / "out" / "monitors.csv").read_bytes()
        run_cli(["solve", solve_config])
        assert (tmp_path / "out" / "monitors.csv").read_bytes() == first


def _solve_payload(out, **changes):
    payload = {
        "n": 4,
        "function": {"kind": "sigma_k_root", "k": 2},
        "half_length": 1.0,
        "grid_size": 101,
        "t_schedule": [0.0, 0.5, 0.9],
        "psi": {"family": "subsolution_scaled", "theta": 0.5},
        "phi": "subsolution",
        "subsolution": {"family": "cosh", "amplitude": 0.3},
        "out": str(out),
    }
    payload.update(changes)
    return payload


def _output_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestSolveRobustness:
    def test_draw_near_the_cone_boundary_passes_the_jacobian_check(self, tmp_path):
        # the Newton start at t = 0.3 has cone margin 1.9e-5; the check's
        # first step 1e-6 is too coarse there and deviated by 1.4e-5
        cfg = write_config(tmp_path / "s.json", _solve_payload(
            tmp_path / "out", grid_size=4001, t_schedule=list(cli.solver.DEFAULT_T_SCHEDULE),
            psi={"family": "subsolution_scaled", "theta": 0.4783579320626279},
            subsolution={"family": "cosh", "amplitude": 0.2480217780855284},
            newton={"tol": 1e-7}))
        assert run_cli(["solve", cfg]) == 0
        assert json.loads((tmp_path / "out" / "report.json").read_text())["passed"] is True

    def test_subsolution_outside_the_cone_writes_a_failing_report(self, tmp_path):
        cfg = write_config(tmp_path / "s.json", _solve_payload(
            tmp_path / "out", n=3, subsolution={"family": "cosh", "amplitude": 0.2}))
        assert run_cli(["solve", cfg]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is False
        [check] = report["checks"]
        assert check["name"] == "subsolution.cone_margin" and check["status"] == "fail"
        # the score of the rows psi was sampled on, not of the solve's grid
        _, du, d2u = cli.benchmarks.cosh_profile(0.2)
        dense = np.linspace(-1.0, 1.0, cli.benchmarks.SCALED_PSI_NODES)
        spec = cli.symfun.SymFuncSpec("sigma_k_root", n=3, k=2)
        rows = radial_rows(3, du(dense), d2u(dense))
        assert check["value"] == float(spec.margin_scores(rows).min()) < 0.0
        assert "outside the cone" in report["error"]
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["report.json"]

    def test_jacobian_check_failure_keeps_the_solved_profiles(self, tmp_path, monkeypatch,
                                                              capsys):
        check = cli.solver._check_jacobian

        def alarm(problem, t, profile, ab):
            if t == 0.5:
                raise cli.solver.NumericalError(f"analytic Jacobian deviates at t={t}")
            check(problem, t, profile, ab)

        monkeypatch.setattr(cli.solver, "_check_jacobian", alarm)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "s.json", _solve_payload(
            out, grid_size=201, t_schedule=list(cli.solver.DEFAULT_T_SCHEDULE)))
        assert run_cli(["solve", cfg]) == 1
        assert "error: analytic Jacobian deviates at t=0.5" in capsys.readouterr().err
        profiles = sorted(p.name for p in out.glob("profile_*.csv"))
        assert profiles == [f"profile_{i:03d}_t{t:.6f}.csv"
                            for i, t in enumerate((0.0, 0.1, 0.2, 0.3, 0.4))]
        monitors = [l for l in (out / "monitors.csv").read_text().splitlines()
                    if not l.startswith("#")]
        assert [float(row.split(",")[0]) for row in monitors[1:]] == [0.0, 0.1, 0.2, 0.3, 0.4]
        report = json.loads((out / "report.json").read_text())
        assert report["failed_t"] == 0.5 and report["passed"] is False
        assert report["error"] == "analytic Jacobian deviates at t=0.5"

    def test_verbose_prints_each_t_and_the_phase_times(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.json", _solve_payload(tmp_path / "out"))
        assert run_cli(["solve", cfg, "--verbose"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split()[0] for line in lines[:3]] == ["t=0", "t=0.5", "t=0.9"]
        assert all("newton_iters=" in line and "cone_margin=" in line for line in lines[:3])
        assert lines[3].startswith("continuation ") and " s, output " in lines[3]
        assert len(lines) == 4

    def test_one_solve_builds_its_stencils_once(self, tmp_path, monkeypatch):
        calls = []
        original = geometry.stencil_weights

        def counted(offsets, order):
            calls.append(order)
            return original(offsets, order)

        monkeypatch.setattr(geometry, "stencil_weights", counted)
        cfg = write_config(tmp_path / "s.json", _solve_payload(
            tmp_path / "out", grid_size=4001, t_schedule=list(cli.solver.DEFAULT_T_SCHEDULE),
            newton={"tol": 1e-7}))
        assert run_cli(["solve", cfg]) == 0
        assert len(calls) <= 8


class TestProfileWriters:
    """Profiles are written by one process per available core, same bytes."""

    def test_output_independent_of_the_core_count(self, tmp_path, monkeypatch):
        # one writer per 101-node profile, so the small solve forks
        monkeypatch.setattr(cli, "_ROWS_PER_WRITER", 101)
        cfg = write_config(tmp_path / "s.json", _solve_payload(tmp_path / "out"))
        assert run_cli(["solve", cfg]) == 0
        every_core = _output_bytes(tmp_path / "out")
        assert len(every_core) == 5
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run_cli(["solve", cfg]) == 0
        assert _output_bytes(tmp_path / "out") == every_core
        monkeypatch.undo()
        assert run_cli(["solve", cfg]) == 0
        assert _output_bytes(tmp_path / "out") == every_core
        monkeypatch.delattr(os, "fork")
        assert run_cli(["solve", cfg]) == 0
        assert _output_bytes(tmp_path / "out") == every_core

    @pytest.mark.parametrize("crowded", [False, True])
    def test_every_job_written_once_children_exit(self, tmp_path, crowded):
        # crowded: six writers bound to one core, more processes than cores
        parent = os.getpid()
        cores = [cli._cores()[0]] * 6 if crowded else cli._cores()

        def write(job):
            (tmp_path / f"{job}.txt").write_text(str(os.getpid()))

        before = os.sched_getaffinity(0)
        cli._write_in_processes(list(range(23)), write, cores)
        assert os.getpid() == parent and os.sched_getaffinity(0) == before
        writers = {int((tmp_path / f"{job}.txt").read_text()) for job in range(23)}
        assert len(writers) == len(cores) and parent in writers

    def test_failed_child_share_is_written_again_here(self, tmp_path):
        parent = os.getpid()

        def write(job):
            if os.getpid() != parent:
                raise OSError("a child cannot write")
            (tmp_path / f"{job}.txt").write_text("")

        cli._write_in_processes(list(range(5)), write, cli._cores())
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{j}.txt" for j in range(5)]

    @pytest.mark.parametrize("rows, writers", [(None, 1), (101, 3), (303, 1), (151, 2)])
    def test_writers_by_row_count(self, tmp_path, monkeypatch, rows, writers):
        # 3 profiles of 101 nodes: 303 rows, below the default rows per writer
        if rows is not None:
            monkeypatch.setattr(cli, "_ROWS_PER_WRITER", rows)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        used = []
        monkeypatch.setattr(cli, "_write_in_processes",
                            lambda jobs, write, cores: used.append(cores))
        cfg = write_config(tmp_path / "s.json", _solve_payload(tmp_path / "out"))
        assert run_cli(["solve", cfg]) == 0
        assert used == [[0, 1, 2, 3][:writers]]

    def test_occupied_profile_path_fails_without_a_passing_report(self, tmp_path, capsys,
                                                                 monkeypatch):
        monkeypatch.setattr(cli, "_ROWS_PER_WRITER", 101)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "s.json", _solve_payload(out))
        assert run_cli(["solve", cfg]) == 0
        # with two or more cores the first profile belongs to a child's share
        target = next(out.glob("profile_000_*.csv"))
        target.unlink()
        target.mkdir()
        assert run_cli(["solve", cfg]) != 0
        assert target.name in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestProfileCsv:
    SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
               1.7976931348623157e308, 0.1, -1.0 / 3.0, 1e16, 123456789.0, 2.0 ** -1074 * 3)

    def test_rows_equal_the_per_value_format(self, tmp_path):
        special = np.array(self.SPECIAL)
        with np.errstate(all="ignore"):
            profile = RadialProfile(np.linspace(-1.0, 1.0, special.size), special[::-1])
            columns = (profile.grid, profile.u, profile.du, profile.d2u, special)
            cli._write_profile_csv(tmp_path / "p.csv", {"command": "test"}, profile, special)
        expected = [",".join(cli._fmt(float(v)) for v in row) for row in zip(*columns)]
        lines = (tmp_path / "p.csv").read_text().splitlines()
        assert lines[lines.index("x,u,du,d2u,residual") + 1:] == expected
        assert {"nan", "inf", "-inf", "-0", "4.9406564584124654e-324"} <= set(
            ",".join(expected).split(","))


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path / "e.json", {
            "n": 4, "k": 2, "c": 0.0, "grid_size": 101,
            "out": str(tmp_path / "out"),
        })
        # pytest's pythonpath setting reaches only this process, not the child
        src = str(Path(__file__).resolve().parents[1] / "src")
        inherited = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src + os.pathsep + inherited if inherited else src}
        proc = subprocess.run(
            [sys.executable, "-m", "yamabe.cli", "example1", cfg],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0

    def test_out_override(self, tmp_path):
        cfg = write_config(tmp_path / "e.json", {
            "n": 4, "k": 2, "c": 0.0, "grid_size": 101,
            "out": str(tmp_path / "ignored"),
        })
        assert run_cli(["example1", cfg, "--out", str(tmp_path / "real")]) == 0
        assert (tmp_path / "real" / "report.json").exists()
        assert not (tmp_path / "ignored").exists()


_CHECK_SMALL = {"samples": 300, "ball": {"directions": 200}, "separation": {"samples": 400}}

# (command, config without "out", exit code): runs that pass and runs that fail
_VERDICT_RUNS = {
    "check sigma_2": ("check", {"function": {"kind": "sigma_k_root", "n": 4, "k": 2},
                                **_CHECK_SMALL}, 0),
    "check quotient(3,1)": ("check", {"function": {"kind": "quotient", "n": 4, "k": 3, "l": 1},
                                      **_CHECK_SMALL}, 0),
    "check broken fixture": ("check", {"function": {"kind": "sigma1_squared_broken", "n": 4},
                                       "samples": 200}, 1),
    "example1": ("example1", {"n": 4, "k": 2, "c": 0.0, "grid_size": 201}, 0),
    "example1 curvature floor": ("example1", {"n": 4, "k": 2, "c": 0.0, "grid_size": 201,
                                              "thresholds": {"d2u_floor": 1e9}}, 1),
    "solve": ("solve", _solve_payload(None), 0),
    "solve without subsolution": ("solve", {
        "n": 4, "function": {"kind": "sigma_k_root", "k": 2}, "half_length": "example1",
        "grid_size": 101, "t_schedule": [0.0, 0.5],
        "psi": {"family": "example1_rhs", "c": 0.0}, "phi": {"left": 0.0, "right": 0.0},
        "init": {"family": "example1_profile", "c": 0.0}}, 0),
    "solve failing subsolution": ("solve", _solve_payload(
        None, psi={"family": "constant", "value": 100.0}), 1),
    "solve subsolution outside the cone": ("solve", _solve_payload(
        None, n=3, subsolution={"family": "cosh", "amplitude": 0.2}), 1),
    "solve partial": ("solve", _solve_payload(
        None, t_schedule=[0.0, 0.5], newton={"tol": 1e-10, "max_iter": 1}), 3),
}


class TestReportVerdict:
    @pytest.mark.parametrize("name", sorted(_VERDICT_RUNS))
    def test_passed_is_every_row_passing(self, tmp_path, name):
        command, config, code = _VERDICT_RUNS[name]
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", {**config, "out": str(out)})
        assert run_cli([command, cfg]) == code
        report = json.loads((out / "report.json").read_text())
        every_row = all(c["status"] == "pass" for c in report["checks"])
        if command == "solve":
            every_row = every_row and report.get("failed_t") is None
        assert report["passed"] is every_row
        assert report["passed"] is (code == 0)
