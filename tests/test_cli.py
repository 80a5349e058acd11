"""End-to-end tests of the command line interface and its file formats."""

import csv
import errno
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from yamabe import _format, benchmarks, cli, example1, geometry, symfun
from yamabe._errors import ConeViolationError
from yamabe.cli import main
from yamabe.geometry import CylinderGeometry, RadialProfile

from oracles import BrokenHomogeneitySpec, radial_rows


def run_cli(args):
    return main(list(args))


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def use_broken_fixture(monkeypatch):
    """Make `yamabe check` run on the degree-two oracle fixture, whose
    structure suite fails the homogeneity row.

    The fixture carries only what `verify_structure` calls, so the cone-type
    probe, the ball report and the separation suite stand in as passing
    results.  The real separation suite could not finish on it: the gradient
    of sigma_1^2 points along e everywhere, so no pair of normals separates.
    """
    monkeypatch.setattr(cli, "_function_spec", lambda cfg: BrokenHomogeneitySpec(n=cfg["n"]))
    monkeypatch.setattr(symfun, "classify_type", lambda spec: symfun.Classification(2, "unbounded"))
    monkeypatch.setattr(symfun, "interpolation_ball_report", lambda spec, **kwargs: [
        symfun.CheckResult("membership", True, 1.0, 0.0),
        symfun.CheckResult("value_bound", True, 1.0, 0.0)])
    monkeypatch.setattr(symfun, "concavity_margin_suite", lambda spec, **kwargs: [
        symfun.CheckResult("margin_positive", True, 1.0, 0.0)])


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

    def test_seed_override_reaches_the_report(self, check_config, tmp_path):
        report = tmp_path / "out" / "report.json"
        assert run_cli(["check", check_config]) == 0
        own = report.read_bytes()
        assert run_cli(["check", check_config, "--seed", "1"]) == 0
        assert report.read_bytes() == own      # the config's own seed is 1
        assert run_cli(["check", check_config, "--seed", "7"]) == 0
        first, second = json.loads(own), json.loads(report.read_text())
        assert (first["config"]["seed"], second["config"]["seed"]) == (1, 7)
        assert [c["value"] for c in first["checks"]] != [c["value"] for c in second["checks"]]

    def test_verbose_prints_every_row(self, check_config, tmp_path, capsys):
        assert run_cli(["check", check_config, "--verbose"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["verbose"] is True
        assert capsys.readouterr().err.splitlines() == [
            f"{c['name']}: {c['status']} (value {c['value']:.17g})" for c in report["checks"]]

    def test_broken_fixture_fails_and_names_condition(self, tmp_path, monkeypatch):
        use_broken_fixture(monkeypatch)
        cfg = write_config(tmp_path / "broken.json", {
            "function": {"n": 4},
            "samples": 200,
            "out": str(tmp_path / "out"),
        })
        assert run_cli(["check", cfg]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        assert "structure.f4_homogeneity" in failed

    def test_homogeneity_near_the_cone_boundary_passes(self, tmp_path):
        # the largest homogeneity gap of these samples, 1.17e-12, sits near
        # the cone boundary: within that sample's own bound, not within 1e-12
        cfg = write_config(tmp_path / "c.json", {
            "function": {"kind": "quotient", "n": 4, "k": 2, "l": 1}, "samples": 1000,
            "separation": {"samples": 200}, "seed": 776354507, "out": str(tmp_path / "out")})
        assert run_cli(["check", cfg]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        [row] = [c for c in report["checks"] if c["name"] == "structure.f4_homogeneity"]
        assert row["status"] == "pass" and 1e-12 < row["value"] <= row["threshold"]

    @pytest.mark.parametrize("n, k", [(10, 10), (8, 8)])
    def test_roots_of_high_degree_pass(self, tmp_path, n, k):
        # the growth probe of sigma_10 and the decay ratio 0.318 of sigma_8
        # meet bounds that follow the degree
        cfg = write_config(tmp_path / "c.json", {
            "function": {"kind": "sigma_k_root", "n": n, "k": k}, "out": str(tmp_path / "out")})
        assert run_cli(["check", cfg]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is True
        assert report["classification"]["f_type"] == "unbounded"

    def test_a_suite_that_raises_keeps_the_rows_before_it(self, tmp_path, capsys):
        # sigma_1 is linear: no pair of its normals is separated, so the
        # separation suite cannot sample and raises
        cfg = write_config(tmp_path / "c.json", {
            "function": {"kind": "sigma_k_root", "n": 3, "k": 1}, "out": str(tmp_path / "out")})
        assert run_cli(["check", cfg]) == 1
        assert "error: separation sampling stalled" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is False
        assert report["error"].startswith("separation sampling stalled")
        assert report["classification"] == {"cone_type": 2, "f_type": "unbounded"}
        prefixes = {c["name"].split(".")[0] for c in report["checks"]}
        assert prefixes == {"structure", "ball"}
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_fixture_kind_is_unknown(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "function": {"kind": "sigma1_squared_broken", "n": 4},
            "out": str(tmp_path / "out"),
        })
        assert run_cli(["check", cfg]) == 2
        assert "unknown kind" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["check", str(bad)]) == 2

    @pytest.mark.parametrize("command, changes", [
        ("check", {"surprise": 1}),
        # keys that another family of the same config entry reads
        ("solve", {"subsolution": {"family": "cosh", "amplitude": 0.3, "slope": 9}}),
        ("solve", {"psi": {"family": "subsolution_scaled", "theta": 0.5, "c": 7}}),
        ("solve", {"psi": {"family": "constant", "value": 1.0, "theta": 0.5}}),
        ("solve", {"init": {"family": "example1_profile", "c": 0.0, "amplitude": 0.3}}),
        ("solve", {"init": {"family": "linear", "slope": 0.0, "value": 1.0}}),
    ], ids=["check", "cosh-slope", "scaled-psi-c", "constant-psi-theta",
            "example1-init-amplitude", "linear-init-value"])
    def test_unknown_keys_rejected(self, tmp_path, capsys, command, changes):
        out = tmp_path / "out"
        base = {"check": {"function": {"kind": "sigma_k_root", "n": 4, "k": 2}, "out": str(out)},
                "solve": _solve_payload(out)}[command]
        cfg = write_config(tmp_path / "c.json", {**base, **changes})
        assert run_cli([command, cfg]) == 2
        assert "unknown keys" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli(["check", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("changes", [
        {"ball": {"t_values": 0.5}},
        {"ball": {"t_values": []}},
        {"ball": {"t_values": [0.5, 1.0]}},
        {"ball": {"t_values": [1.5]}},
        {"ball": {"t_values": [-0.1]}},
        {"ball": {"t_values": ["0.5"]}},
        {"separation": {"beta": 1.5}},
        {"separation": {"beta": 2.0}},
        {"separation": {"beta": 2.5}},
        {"separation": {"beta": -0.1}},
        {"samples": 0},
        {"ball": {"directions": 0}},
        {"separation": {"samples": 0}},
        {"function": {"kind": "sigma_k_root", "n": 2, "k": 2}},
        {"function": {"kind": "sigma_k_root", "n": 4, "k": 5}},
        {"function": {"kind": "quotient", "n": 4, "k": 2, "l": 2}},
        {"function": {"kind": "quotient", "n": 4, "k": 2}},
        {"function": {"kind": "sigma_k_root", "n": 4, "k": 2, "l": 1}},
    ], ids=["t-scalar", "t-empty", "t-one", "t-above-one", "t-negative", "t-string",
            "beta-no-pair", "beta-two", "beta-above-two", "beta-negative", "no-samples",
            "no-directions", "no-separation-samples", "n-two", "k-above-n", "l-equal-k",
            "quotient-without-l", "root-with-l"])
    def test_malformed_entries_exit_2(self, tmp_path, capsys, changes):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", {
            "function": {"kind": "sigma_k_root", "n": 4, "k": 2}, "out": str(out), **changes})
        assert run_cli(["check", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()


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

    @pytest.mark.parametrize("changes, message", [
        ({"n": 2, "k": 2}, "config: no Example 1 data at (n, k, c) = (2, 2, 0.0): "
                           "dimension must be at least 3"),
        ({"k": 5}, "config: no Example 1 data at (n, k, c) = (4, 5, 0.0): "
                   "the construction requires 2 <= k <= n"),
        ({"grid_size": 4}, "config: grid must be one-dimensional with at least 5 nodes"),
    ], ids=["n-two", "k-above-n", "grid-size-four"])
    def test_rules_of_the_library_are_config_errors(self, tmp_path, capsys, changes, message):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "e.json", {"n": 4, "k": 2, "c": 0.0, "out": str(out),
                                                 **changes})
        assert run_cli(["example1", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("n, k, c, reason", [
        (6, 3, 3.0, "inconsistent (c, d): c=3.0 but d implies 3.00000000025064"),
        (3, 2, 20.0, "no floating-point center value d: H(d, 0) rounds to 0"),
        (3, 2, -200.0, "no floating-point center value d: d lies below -177.25, "
                       "where e^(-n d) or e^(-2k d) exceeds e^709"),
    ], ids=["inconsistent-d", "h-rounds-to-zero", "d-below-the-exponent-range"])
    def test_unresolvable_c_is_a_config_error(self, tmp_path, capsys, n, k, c, reason):
        # no floating-point center value d exists for these boundary values
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "e.json", {"n": n, "k": k, "c": c, "out": str(out)})
        assert run_cli(["example1", cfg]) == 2
        assert capsys.readouterr().err == (f"config error: config: no Example 1 data at "
                                           f"(n, k, c) = ({n}, {k}, {c!r}): {reason}\n")
        assert not out.exists()

    def test_verbose_prints_d_and_the_half_length(self, example1_config, tmp_path, capsys):
        assert run_cli(["example1", example1_config, "--verbose"]) == 0
        derived = json.loads((tmp_path / "out" / "report.json").read_text())["derived"]
        assert capsys.readouterr().err == f"d={derived['d']:.17g} T={derived['half_length']:.17g}\n"

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

    def test_fixture_kind_is_unknown(self, solve_config, tmp_path, capsys):
        config = json.loads(Path(solve_config).read_text())
        config["function"] = {"kind": "sigma1_squared_broken"}
        assert run_cli(["solve", write_config(tmp_path / "broken.json", config)]) == 2
        assert "unknown kind" in capsys.readouterr().err

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

    def test_criterion_9_data_passes_check_jacobian(self, tmp_path):
        cfg = write_config(tmp_path / "s.json", {
            "n": 5,
            "function": {"kind": "sigma_k_root", "k": 4},
            "half_length": "example1",
            "grid_size": 1001,
            "psi": {"family": "example1_rhs", "c": -0.5},
            "phi": {"left": -0.5, "right": -0.5},
            "init": {"family": "example1_profile", "c": -0.5},
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

    def test_problem_rejecting_the_config_exits_2(self, tmp_path, capsys):
        # e^(-2z) underflows to 0 for z near 400: DirichletProblem's check of psi
        cfg = write_config(tmp_path / "s.json", {
            "n": 4,
            "function": {"kind": "sigma_k_root", "k": 2},
            "half_length": "example1",
            "grid_size": 101,
            "psi": {"family": "example1_rhs", "c": 0.0},
            "phi": {"left": 400.0, "right": 400.0},
            "init": {"family": "constant", "value": 400.0},
            "out": str(tmp_path / "out"),
        })
        assert run_cli(["solve", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: config: psi must be positive on the working range" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_subsolution_overflowing_at_its_ends_exits_2(self, tmp_path, capsys):
        # 0.3 cosh(711) overflows: the boundary values taken from it are infinite
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "s.json", _solve_payload(
            out, half_length=711.0, psi={"family": "constant", "value": 1.0}))
        # the overflow is the config error's to report, not numpy's
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["solve", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: config: boundary values must be finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("changes, message", [
        ({"function": "sigma_k_root"}, "function: expected an object"),
        ({"function": {"kind": "sigma_k_root", "n": 5, "k": 2}}, "function.n: must equal n"),
        ({"function": {"kind": "sigma_k_root", "k": 1}, "half_length": 1.0,
          "psi": {"family": "example1_rhs", "c": 0.0}, "phi": {"left": 0.0, "right": 0.0}},
         "psi: no Example 1 data at (n, k, c) = (4, 1, 0.0): "
         "the construction requires 2 <= k <= n"),
        ({"psi": {"family": "example1_rhs", "c": 0.0}, "half_length": 1.0,
          "phi": {"left": 0.0, "right": 0.0}, "init": {"family": "example1_profile", "c": 0.0}},
         "init example1_profile requires half_length 'example1'"),
        ({"psi": {"family": "example1_rhs", "c": 0.0}, "half_length": "example1",
          "phi": {"left": 0.0, "right": 0.0}, "init": {"family": "example1_profile", "c": 0.5}},
         "and init.c equal to psi.c"),
        ({"half_length": math.inf}, "half_length: expected a finite number, got inf"),
        ({"uniformity_factor": math.nan}, "uniformity_factor: expected a finite number, got nan"),
        ({"uniformity_factor": 0.5}, "uniformity_factor must be >= 1, got 0.5"),
        ({"n": 6, "function": {"kind": "sigma_k_root", "k": 3}, "half_length": "example1",
          "psi": {"family": "example1_rhs", "c": 3.0}, "phi": {"left": 3.0, "right": 3.0},
          "init": {"family": "example1_profile", "c": 3.0}},
         "psi: no Example 1 data at (n, k, c) = (6, 3, 3.0)"),
        ({"n": 3, "half_length": 1.0, "psi": {"family": "example1_rhs", "c": 20.0},
          "phi": {"left": 0.0, "right": 0.0}, "init": {"family": "constant", "value": 0.0}},
         "psi: no Example 1 data at (n, k, c) = (3, 2, 20.0)"),
        ({"newton": {"tol": 0.0}}, "newton: tol must be a finite positive number, got 0.0"),
        ({"newton": {"tol": -1.0}}, "newton: tol must be a finite positive number, got -1.0"),
        ({"newton": {"max_iter": 0}}, "newton: max_iter must be an integer >= 1, got 0"),
    ], ids=["function-string", "function-n", "example1-rhs-k1", "example1-init-numeric-length",
            "example1-init-other-c", "infinite-half-length", "nan-factor", "factor-below-one",
            "example1-c-inconsistent-d", "example1-c-domain-error", "zero-tol",
            "negative-tol", "zero-max-iter"])
    def test_malformed_entries_exit_2(self, tmp_path, capsys, changes, message):
        out = tmp_path / "out"
        payload = {**_solve_payload(out), **changes}
        if "init" in changes or "phi" in changes:
            del payload["subsolution"]
        cfg = write_config(tmp_path / "s.json", payload)
        assert run_cli(["solve", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("schedule, message", [
        ([0.5, 0.2], "strictly ascending"),
        ([0.0, 1.5], "within [0, 1]"),
        ([], "empty t schedule"),
    ])
    def test_invalid_schedule_exits_2_before_any_output(self, tmp_path, capsys, monkeypatch,
                                                       schedule, message):
        def no_stream(write, shape):
            raise AssertionError("a writer was started")

        monkeypatch.setattr(cli, "_ProfileStream", no_stream)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "s.json", _solve_payload(out, t_schedule=schedule))
        assert run_cli(["solve", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: t_schedule: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_schedule_reaching_t_1_passes(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "s.json", _solve_payload(
            out, grid_size=401, t_schedule=[0.0, 0.5, 0.9, 0.99, 1.0], newton={"tol": 1e-7}))
        assert run_cli(["solve", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True and report["failed_t"] is None
        assert report["curvature_scaled"][-1] == [1.0, 0.0]
        assert (out / "profile_004_t1.000000.csv").is_file()

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


def _solve_without(key, **changes):
    """_solve_payload("out", **changes) without `key`."""
    return {name: value for name, value in _solve_payload("out", **changes).items() if name != key}


def _output_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestSolveRobustness:
    def test_draw_near_the_cone_boundary_passes_check_jacobian(self, tmp_path):
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

    def test_verbose_names_a_subsolution_outside_the_cone(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "s.json", _solve_payload(
            out, n=3, subsolution={"family": "cosh", "amplitude": 0.2}))
        assert run_cli(["solve", cfg, "--verbose"]) == 1
        error = json.loads((out / "report.json").read_text())["error"]
        assert capsys.readouterr().err == f"subsolution outside the cone: {error}\n"

    def test_verbose_names_the_failing_t(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "s.json", _solve_payload(
            out, t_schedule=[0.0, 0.5], newton={"tol": 1e-10, "max_iter": 1}))
        assert run_cli(["solve", cfg, "--verbose"]) == 3
        assert json.loads((out / "report.json").read_text())["failed_t"] == 0.0
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("t=0 failed: Newton did not reach tol=1.0e-10 in 1 iterations")
        assert lines[1].startswith("continuation ") and len(lines) == 2

    def test_nan_jacobian_deviation_is_an_error_with_a_report(self, tmp_path, capsys):
        # from the constant start -400, psi = e^800 overflows, so the start's
        # residual is -inf (its Jacobian check would deviate by NaN): an
        # error (exit 1) under that cause, with its report
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "s.json", {
            "n": 5, "function": {"kind": "sigma_k_root", "k": 4}, "half_length": "example1",
            "grid_size": 101, "psi": {"family": "example1_rhs", "c": -0.5},
            "phi": {"left": -0.5, "right": -0.5}, "init": {"family": "constant", "value": -400.0},
            "out": str(out)})
        assert run_cli(["solve", cfg]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["failed_t"] == 0.0 and report["passed"] is False
        assert report["error"] == ("residual of the start at t=0.0 is not finite at node 1 "
                                   "(x=-0.0127731, psi inf)")
        assert capsys.readouterr().err == f"error: {report['error']}\n"

    def test_singular_jacobian_is_partial_convergence(self, tmp_path, capsys, monkeypatch):
        def singular(ab, b):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(cli.solver, "solve_banded", singular)
        out = tmp_path / "out"
        assert run_cli(["solve", write_config(tmp_path / "s.json", _solve_payload(out))]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["failed_t"] == 0.0 and report["passed"] is False
        assert report["error"] == "singular Jacobian at t=0.0"
        assert capsys.readouterr().err == ""
        assert not list(out.glob("profile_*.csv"))

    def test_exhausted_newton_budget_names_its_cause(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "s.json", _solve_payload(
            out, t_schedule=[0.0, 0.5], newton={"max_iter": 1}))
        assert run_cli(["solve", cfg]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["failed_t"] == 0.0 and report["passed"] is False
        assert report["error"].startswith(
            "Newton did not reach tol=1.0e-10 in 1 iterations at t=0.0 (residual ")
        assert capsys.readouterr().err == ""

    # the README subsolution with n = 3 and cosh amplitude 0.2 leaves the cone,
    # and a config error follows it
    @pytest.mark.parametrize("changes", [
        {"phi": [0, 0]},
        {"phi": {"left": 0.0, "bogus": 1}},
        {"init": {"family": "bogus"}},
        {"phi": {"left": 0.0, "right": 0.0}},
        # rules that the library checks as the problem is built
        {"psi": {"family": "subsolution_scaled", "theta": 1.0}},
        {"grid_size": 4},
        {"half_length": -1.0},
    ], ids=["phi-list", "phi-unknown-key", "init-unknown-family", "phi-with-subsolution",
            "theta-one", "grid-size-four", "negative-length"])
    def test_config_error_behind_an_outside_cone_subsolution(self, tmp_path, capsys, changes):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "s.json", _solve_payload(
            out, n=3, subsolution={"family": "cosh", "amplitude": 0.2}, **changes))
        assert run_cli(["solve", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not out.exists()

    def test_rerun_leaves_no_output_of_an_earlier_run(self, tmp_path):
        out = tmp_path / "out"
        schedule = list(cli.solver.DEFAULT_T_SCHEDULE)
        readme = write_config(tmp_path / "s.json", _solve_payload(out, grid_size=401,
                                                                  t_schedule=schedule))
        assert run_cli(["solve", readme]) == 0
        assert len(list(out.glob("profile_*.csv"))) == 13
        # five Newton iterations stop the README config at t = 0.8, which takes six
        partial = write_config(tmp_path / "p.json", _solve_payload(
            out, grid_size=401, t_schedule=schedule, newton={"max_iter": 5}))
        assert run_cli(["solve", partial]) == 3
        assert json.loads((out / "report.json").read_text())["failed_t"] == 0.8
        assert sorted(p.name for p in out.iterdir()) == ["monitors.csv", *(
            f"profile_{i:03d}_t{t:.6f}.csv" for i, t in enumerate(schedule[:8])), "report.json"]
        # a subsolution outside the cone: no t is solved
        outside = write_config(tmp_path / "o.json", _solve_payload(
            out, n=3, subsolution={"family": "cosh", "amplitude": 0.2}))
        assert run_cli(["solve", outside]) == 1
        assert [p.name for p in out.iterdir()] == ["report.json"]

    def test_check_jacobian_failure_keeps_the_solved_profiles(self, tmp_path, monkeypatch,
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

    def test_probe_outside_the_cone_keeps_the_solved_profiles(self, tmp_path, monkeypatch,
                                                              capsys):
        # every step of the Jacobian check's probe leaves the cone at t = 0.5
        check = cli.solver._check_jacobian

        def probe(problem, t, profile, ab):
            if t != 0.5:
                return check(problem, t, profile, ab)
            with mock.patch.object(cli.solver, "_residual",
                                   side_effect=ConeViolationError("the probe left the cone")):
                return check(problem, t, profile, ab)

        monkeypatch.setattr(cli.solver, "_check_jacobian", probe)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "s.json", _solve_payload(
            out, grid_size=201, t_schedule=list(cli.solver.DEFAULT_T_SCHEDULE)))
        assert run_cli(["solve", cfg]) == 1
        message = "could not difference the residual inside the cone at t=0.5"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in out.glob("profile_*.csv")) == [
            f"profile_{i:03d}_t{t:.6f}.csv" for i, t in enumerate((0.0, 0.1, 0.2, 0.3, 0.4))]
        report = json.loads((out / "report.json").read_text())
        assert (report["failed_t"], report["passed"], report["error"]) == (0.5, False, message)

    def test_verbose_prints_each_t_and_the_phase_times(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.json", _solve_payload(tmp_path / "out"))
        assert run_cli(["solve", cfg, "--verbose"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split()[0] for line in lines[:3]] == ["t=0", "t=0.5", "t=0.9"]
        assert all("newton_iters=" in line and "cone_margin=" in line for line in lines[:3])
        assert lines[3].startswith("continuation ") and " s, output " in lines[3]
        assert len(lines) == 4

    def test_verbose_prints_each_t_when_it_converges(self, tmp_path, capsys, monkeypatch):
        printed = []
        original = cli.solver.continuation_states

        def watched(*args):
            for state in original(*args):
                printed.append(capsys.readouterr().err)
                yield state

        monkeypatch.setattr(cli.solver, "continuation_states", watched)
        cfg = write_config(tmp_path / "s.json", _solve_payload(tmp_path / "out"))
        assert run_cli(["solve", cfg, "--verbose"]) == 0
        # the line of each t is out before the next t is solved
        assert printed[0] == ""
        assert [text.split()[0] for text in printed[1:]] == ["t=0", "t=0.5"]
        assert capsys.readouterr().err.startswith("t=0.9 ")

    def test_one_solve_builds_its_stencils_once(self, tmp_path, spy):
        # the problem's geometry builds the one grid of an op, and every
        # profile on it shares its GridStencils
        weights = spy(geometry, "stencil_weights")
        builds = spy(geometry, "GridStencils")
        cfg = write_config(tmp_path / "s.json", _solve_payload(
            tmp_path / "out", grid_size=4001, t_schedule=list(cli.solver.DEFAULT_T_SCHEDULE),
            newton={"tol": 1e-7}))
        assert run_cli(["solve", cfg]) == 0
        assert weights.call_count <= 8
        assert builds.call_count == 1
        for init in ({"family": "example1_profile", "c": 0.0}, {"family": "constant", "value": 0.0}):
            builds.reset_mock()
            cfg = write_config(tmp_path / "e.json", {
                **README_EXAMPLE1_SOLVE, "init": init, "t_schedule": [0.0],
                "out": str(tmp_path / "example1")})
            assert run_cli(["solve", cfg]) == 0
            assert builds.call_count == 1
        builds.reset_mock()
        benchmarks.example_boundary_problem(5, 4, -0.5, node_count=1001)
        assert builds.call_count == 1


README_SOLVE = {
    "n": 4, "function": {"kind": "sigma_k_root", "k": 2},
    "half_length": 1.0, "grid_size": 401,
    "psi": {"family": "subsolution_scaled", "theta": 0.5},
    "phi": "subsolution",
    "subsolution": {"family": "cosh", "amplitude": 0.3},
}

README_EXAMPLE1_SOLVE = {
    "n": 4, "function": {"kind": "sigma_k_root", "k": 2},
    "half_length": "example1", "grid_size": 401,
    "psi": {"family": "example1_rhs", "c": 0.0},
    "phi": {"left": 0.0, "right": 0.0},
    "init": {"family": "example1_profile", "c": 0.0},
}


class TestOneConstructor:
    """`yamabe solve` builds the same problem as the library constructions."""

    @staticmethod
    def _assert_same(problem, profile, reference, reference_profile):
        assert problem.geom == reference.geom
        assert np.array_equal(profile.grid, reference_profile.grid)
        assert np.array_equal(profile.u, reference_profile.u)
        assert (problem.phi_left, problem.phi_right) == (reference.phi_left, reference.phi_right)
        for name in ("psi", "psi_z"):
            mine = getattr(problem, name)(profile.grid, profile.u)
            assert np.array_equal(mine, getattr(reference, name)(profile.grid, profile.u))

    def test_readme_solve_is_the_subsolution_benchmark(self):
        problem, init = cli._parse_solve(dict(README_SOLVE))[1]()
        assert init is None
        reference = benchmarks.subsolution_benchmark()
        self._assert_same(problem, problem.subsolution, reference, reference.subsolution)

    def test_readme_example1_solve_is_the_boundary_problem(self):
        problem, init = cli._parse_solve(dict(README_EXAMPLE1_SOLVE))[1]()
        assert problem.subsolution is None
        reference, _, reference_init = benchmarks.example_boundary_problem(4, 2, 0.0, 401)
        self._assert_same(problem, init, reference, reference_init)

    def test_example1_solve_computes_the_half_length_once(self, tmp_path, spy):
        # the half length is the end of the one profile construction;
        # half_length does not integrate the orbit a second time
        calls = [spy(example1, name) for name in ("half_length", "solve_profile")]
        cfg = write_config(tmp_path / "s.json", {
            **README_EXAMPLE1_SOLVE, "grid_size": 201, "t_schedule": [0.0],
            "out": str(tmp_path / "out")})
        assert run_cli(["solve", cfg]) == 0
        assert [call.call_count for call in calls] == [0, 1]

    def test_both_example1_branches_take_the_same_half_length(self):
        # with or without the Example 1 init, T is the end of the same orbit
        profile_problem, _ = cli._parse_solve(dict(README_EXAMPLE1_SOLVE))[1]()
        constant_problem, init = cli._parse_solve({**README_EXAMPLE1_SOLVE,
                                                   "init": {"family": "constant", "value": 0.0}})[1]()
        assert constant_problem.geom.half_length == profile_problem.geom.half_length
        assert init.grid[-1] == profile_problem.geom.half_length


def _stream(write, count, pause=0.0, nodes=3):
    """Add `count` jobs to a _ProfileStream one by one, `pause` seconds
    apart as the states of a continuation come, and finish it.  Job i holds
    i in each of its 4 columns of `nodes` rows."""
    with cli._ProfileStream(write, (count, 4, nodes)) as stream:
        for i in range(count):
            time.sleep(pause)
            stream.add(np.full((4, nodes), float(i)))
        stream.finish()


def _record(tmp_path):
    """A write callback for _stream that appends the writing process's pid
    to <i>.txt, and raises unless job i holds i in every column."""
    def write(i, columns):
        if not (np.asarray(columns) == i).all():
            raise ValueError(f"job {i} holds {columns}")
        with open(tmp_path / f"{i}.txt", "a") as f:
            f.write(f"{os.getpid()}\n")
    return write


def _writers(tmp_path, count):
    """The pids that wrote each job of _record, one list per job."""
    return [[int(pid) for pid in (tmp_path / f"{i}.txt").read_text().split()] for i in range(count)]


def _slow_child(record, parent):
    """record, taking 0.1 s per job in any process but `parent`: a child
    that holds one job at a time cannot drain jobs added 5 ms apart."""
    def write(i, columns):
        if os.getpid() != parent:
            time.sleep(0.1)
        record(i, columns)
    return write


@pytest.fixture
def forking(monkeypatch):
    """Every stream forks its writer child: two cores, and no row count
    below cli._FORK_ROWS."""
    monkeypatch.setattr(cli, "_FORK_ROWS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


class TestProfileWriters:
    """Profiles are written while the continuation runs, by this process
    and, from cli._FORK_ROWS rows on with two or more cores, one forked
    child, same bytes."""

    def test_output_independent_of_the_fork(self, tmp_path, monkeypatch, forking):
        cfg = write_config(tmp_path / "s.json", _solve_payload(tmp_path / "out"))
        assert run_cli(["solve", cfg]) == 0
        forked = _output_bytes(tmp_path / "out")
        assert len(forked) == 5
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run_cli(["solve", cfg]) == 0
        assert _output_bytes(tmp_path / "out") == forked
        monkeypatch.undo()
        assert run_cli(["solve", cfg]) == 0
        assert _output_bytes(tmp_path / "out") == forked
        monkeypatch.delattr(os, "fork")
        assert run_cli(["solve", cfg]) == 0
        assert _output_bytes(tmp_path / "out") == forked

    def test_one_child_on_four_cores(self, tmp_path, monkeypatch):
        # 13 profiles of 4001 nodes, the 52013 rows of the benchmark solve:
        # one child however many cores, and this process writes some jobs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        parent = os.getpid()
        _stream(_slow_child(_record(tmp_path), parent), 13, pause=0.005, nodes=4001)
        written = _writers(tmp_path, 13)
        assert all(len(pids) == 1 for pids in written)
        assert len({pids[0] for pids in written} - {parent}) == 1
        assert [parent] in written

    @pytest.mark.parametrize("host", ["one-core", "no-fork", "no-affinity"])
    def test_no_fork_without_a_second_core_or_fork(self, tmp_path, monkeypatch, host):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0} if host == "one-core" else {0, 1, 2, 3})
        if host != "one-core":
            monkeypatch.delattr(os, "fork" if host == "no-fork" else "sched_getaffinity")
        _stream(_record(tmp_path), 13, nodes=4001)
        assert _writers(tmp_path, 13) == [[os.getpid()]] * 13

    def test_every_job_written_once_child_exits(self, tmp_path, forking):
        # the child cannot drain the 23 jobs, so both processes write some
        parent = os.getpid()
        _stream(_slow_child(_record(tmp_path), parent), 23, pause=0.005)
        assert os.getpid() == parent
        written = _writers(tmp_path, 23)
        assert all(len(pids) == 1 for pids in written)
        writers = {pids[0] for pids in written}
        assert len(writers) == 2 and parent in writers
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_child_share_is_written_again_here(self, tmp_path, forking):
        parent = os.getpid()

        def write(i, columns):
            if os.getpid() != parent:
                raise OSError("a child cannot write")
            (tmp_path / f"{i}.txt").write_text("")

        _stream(write, 5, pause=0.005)
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{j}.txt" for j in range(5)]

    def test_no_cpu_affinity_call(self, tmp_path, monkeypatch, forking):
        # the writers run wherever the scheduler puts them: a process that
        # may not change its CPU affinity writes every job exactly once
        def refused(pid, cpus):
            raise PermissionError("sched_setaffinity refused")

        monkeypatch.setattr(os, "sched_setaffinity", refused)
        _stream(_record(tmp_path), 5, pause=0.005)
        assert all(len(pids) == 1 for pids in _writers(tmp_path, 5))

    def test_failed_fork_leaves_every_job_here(self, tmp_path, monkeypatch, forking):
        def no_fork():
            raise OSError("no fork")

        monkeypatch.setattr(os, "fork", no_fork)
        _stream(_record(tmp_path), 4)
        assert _writers(tmp_path, 4) == [[os.getpid()]] * 4

    def test_full_pipe_leaves_the_job_here(self, tmp_path, monkeypatch, forking):
        def full(fd, data):
            raise BlockingIOError

        monkeypatch.setattr(os, "write", full)
        _stream(_record(tmp_path), 5)
        assert _writers(tmp_path, 5) == [[os.getpid()]] * 5

    def test_busy_child_takes_no_second_job(self, tmp_path, forking):
        # a child reads the next index only once it is free: of 3 jobs added
        # at once, one that takes 0.5 s per job leaves at least two to finish()
        parent = os.getpid()
        record = _record(tmp_path)

        def write(i, columns):
            if os.getpid() != parent:
                time.sleep(0.5)
            record(i, columns)

        with cli._ProfileStream(write, (3, 4, 3)) as stream:
            time.sleep(0.2)     # the child waits for its first job
            for i in range(3):
                stream.add(np.full((4, 3), float(i)))
            stream.finish()
        written = _writers(tmp_path, 3)
        assert all(len(pids) == 1 for pids in written)
        assert sum(pids != [parent] for pids in written) <= 1

    @pytest.mark.parametrize("rows, forks", [(None, 0), (303, 1), (304, 0)])
    def test_fork_by_row_count(self, tmp_path, monkeypatch, rows, forks):
        # 3 profiles of 101 nodes: 303 rows, below the default fork rows; the
        # fork that is tried fails, so every job is written here
        if rows is not None:
            monkeypatch.setattr(cli, "_FORK_ROWS", rows)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        tried = []

        def no_fork():
            tried.append(None)
            raise OSError("no fork")

        monkeypatch.setattr(os, "fork", no_fork)
        cfg = write_config(tmp_path / "s.json", _solve_payload(tmp_path / "out"))
        assert run_cli(["solve", cfg]) == 0
        assert len(tried) == forks

    def test_occupied_profile_path_fails_without_a_passing_report(self, tmp_path, capsys,
                                                                 monkeypatch):
        monkeypatch.setattr(cli, "_FORK_ROWS", 0)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "s.json", _solve_payload(out))
        assert run_cli(["solve", cfg]) == 0
        # with two or more cores a child usually takes the first profile
        target = next(out.glob("profile_000_*.csv"))
        target.unlink()
        target.mkdir()
        assert run_cli(["solve", cfg]) != 0
        assert target.name in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_error_before_finish_waits_for_the_child(self, tmp_path, capsys, forking):
        # monitors.csv cannot be written, so the run leaves the stream before
        # finish(): its exit closes the pipe, the child writes every profile
        # and is waited for, and no descriptor stays open
        out = tmp_path / "out"
        (out / "monitors.csv").mkdir(parents=True)
        cfg = write_config(tmp_path / "s.json", _solve_payload(
            out, t_schedule=list(cli.solver.DEFAULT_T_SCHEDULE)))
        fds = Path("/proc/self/fd")
        before = len(list(fds.iterdir())) if fds.is_dir() else None
        assert run_cli(["solve", cfg]) == 1
        assert capsys.readouterr().err.startswith(f"error: [Errno {errno.EISDIR}] Is a directory")
        assert len(list(out.glob("profile_*.csv"))) == 13
        assert not (out / "report.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if before is not None:
            assert len(list(fds.iterdir())) == before

    def test_no_child_left_behind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_FORK_ROWS", 0)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "s.json", _solve_payload(out))
        assert run_cli(["solve", cfg]) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # five Newton iterations stop the README config at t = 0.8, which takes six
        partial = write_config(tmp_path / "p.json", _solve_payload(
            tmp_path / "partial", grid_size=401, t_schedule=list(cli.solver.DEFAULT_T_SCHEDULE),
            newton={"max_iter": 5}))
        assert run_cli(["solve", partial]) == 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        target = next(out.glob("profile_001_*.csv"))
        target.unlink()
        target.mkdir()
        assert run_cli(["solve", cfg]) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestProfileCsv:
    SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
               1.7976931348623157e308, 0.1, -1.0 / 3.0, 1e16, 123456789.0, 2.0 ** -1074 * 3)

    def test_rows_equal_the_per_value_format(self, tmp_path):
        special = np.array(self.SPECIAL)
        with np.errstate(all="ignore"):
            profile = RadialProfile(CylinderGeometry(1.0, special.size), special[::-1])
            columns = (profile.grid, profile.u, profile.du, profile.d2u, special)
            cli._write_profile_rows(tmp_path / "p.csv", {"command": "test"}, [],
                                    _format.cells(profile.grid), columns[1:])
        expected = [",".join(format(float(v), ".17g") for v in row) for row in zip(*columns)]
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

    def test_one_command_leaves_no_output_of_another(self, tmp_path):
        out = tmp_path / "out"
        solve = write_config(tmp_path / "s.json", _solve_payload(
            out, t_schedule=list(cli.solver.DEFAULT_T_SCHEDULE)))
        assert run_cli(["solve", solve]) == 0
        assert len(list(out.iterdir())) == 15
        (out / "notes.txt").write_text("")
        (out / "profile_099_t1.000000.csv").mkdir()
        example = write_config(tmp_path / "e.json", {"n": 4, "k": 2, "c": 0.0, "grid_size": 101,
                                                     "out": str(out)})
        assert run_cli(["example1", example]) == 0
        # only regular files the CLI writes go
        assert sorted(p.name for p in out.iterdir()) == [
            "notes.txt", "profile.csv", "profile_099_t1.000000.csv", "report.json"]
        check = write_config(tmp_path / "c.json", {
            "function": {"kind": "sigma_k_root", "n": 4, "k": 2}, **_CHECK_SMALL, "out": str(out)})
        assert run_cli(["check", check]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "notes.txt", "profile_099_t1.000000.csv", "report.json"]

    @pytest.mark.parametrize("command", ["check", "example1", "solve"])
    @pytest.mark.parametrize("changes, message", [
        ({"out": None}, "out: expected a non-empty string, got None"),
        ({"out": ""}, "out: expected a non-empty string"),
        ({"out": 5}, "out: expected a non-empty string, got 5"),
        ({"verbose": "false"}, "verbose: expected true or false, got 'false'"),
        ({"verbose": 1}, "verbose: expected true or false, got 1"),
        ({"seed": -1}, "seed: must be >= 0, got -1"),
    ], ids=["out-null", "out-empty", "out-number", "verbose-string", "verbose-number",
            "seed-negative"])
    def test_out_and_verbose_types(self, tmp_path, capsys, monkeypatch, command, changes,
                                   message):
        monkeypatch.chdir(tmp_path)
        config = {"check": {"function": {"kind": "sigma_k_root", "n": 4, "k": 2}, **_CHECK_SMALL},
                  "example1": {"n": 4, "k": 2, "c": 0.0, "grid_size": 101},
                  "solve": _solve_payload("out")}[command]
        cfg = write_config(tmp_path / "c.json", {**config, "out": "out", **changes})
        assert run_cli([command, cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("payload, message", [
        (_solve_without("psi"), "config: missing required key 'psi'"),
        (_solve_payload("out", grid_size=401.5), "grid_size: expected an integer, got 401.5"),
        (_solve_payload("out", function={"kind": "sigma_k_root", "k": 5}),
         "function: k=5 out of range for n=4"),
        ([], "top level must be an object"),
        (_solve_payload("out", function={"kind": "sigma_k_root", "k": 2, "l": 1}),
         "function: l is only meaningful for the quotient kind"),
        (_solve_payload("out", psi={"family": "subsolution_scaled", "theta": 1.0}),
         "config: theta must lie in (0, 1), got 1.0"),
        (_solve_payload("out", psi={"family": "constant", "value": 0.0}),
         "config: psi must be positive on the working range"),
        (_solve_payload("out", half_length="example1"),
         "half_length: 'example1' requires psi.family example1_rhs"),
        (_solve_payload("out", half_length=-1.0), "config: half_length must be positive"),
        (_solve_without("subsolution", init={"family": "constant", "value": 0.0}),
         "psi.family subsolution_scaled requires a subsolution"),
        (_solve_without("subsolution", psi={"family": "constant", "value": 1.0}),
         "phi: 'subsolution' requires a subsolution"),
        (_solve_payload("out", t_schedule=0.5), "t_schedule: expected a list of numbers"),
        (_solve_payload("out", n=2), "function: dimension must be at least 3"),
        (_solve_payload("out", grid_size=4),
         "config: grid must be one-dimensional with at least 5 nodes"),
        (_solve_payload("out", function={"kind": "quotient", "k": 2, "l": 2}),
         "function: quotient requires 1 <= l < k"),
        ({"n": 4, "function": {"kind": "quotient", "k": 2, "l": 1}, "half_length": "example1",
          "grid_size": 201, "psi": {"family": "example1_rhs", "c": 0.0},
          "phi": {"left": 0.0, "right": 0.0}, "init": {"family": "example1_profile", "c": 0.0},
          "out": "out"},
         "psi: Example 1's data at (n, k) = (4, 2) are for sigma_2_root(n=4), "
         "not quotient(2,1)(n=4)"),
    ], ids=["missing-key", "non-integer", "above-hi", "top-level-list", "root-with-l",
            "theta-one", "psi-value-zero", "example1-length-other-psi", "negative-length",
            "scaled-psi-without-subsolution", "phi-without-subsolution", "schedule-number",
            "n-two", "grid-size-four", "l-equal-k", "example1-quotient"])
    def test_config_errors_exit_2(self, tmp_path, capsys, monkeypatch, payload, message):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", payload)
        assert run_cli(["solve", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("command, payload", [
        ("check", {"function": {"kind": "sigma_k_root", "n": 4}, "out": "out"}),
        ("solve", _solve_payload("out", function={"kind": "sigma_k_root"})),
    ], ids=["check", "solve"])
    def test_function_without_k_exits_2(self, tmp_path, capsys, monkeypatch, command, payload):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", payload)
        assert run_cli([command, cfg]) == 2
        assert capsys.readouterr().err == "config error: function: k is required\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("command, payload", [
        ("solve", _solve_payload("out", half_length=1e-300)),
        # the grid is built before psi, so a subsolution outside the cone
        # does not hide it
        ("solve", _solve_payload("out", half_length=1e-300,
                                 subsolution={"family": "linear", "slope": 2.0})),
        ("solve", {"n": 4, "function": {"kind": "sigma_k_root", "k": 2}, "half_length": "example1",
                   "grid_size": 401, "psi": {"family": "example1_rhs", "c": -100.0},
                   "phi": {"left": -100.0, "right": -100.0},
                   "init": {"family": "example1_profile", "c": -100.0}, "out": "out"}),
        ("example1", {"n": 4, "k": 2, "c": -100.0, "grid_size": 401, "out": "out"}),
        # at c = -80 the half length is 9e-140
        ("solve", {"n": 3, "function": {"kind": "sigma_k_root", "k": 2}, "half_length": "example1",
                   "grid_size": 101, "psi": {"family": "example1_rhs", "c": -80.0},
                   "phi": {"left": -80.0, "right": -80.0},
                   "init": {"family": "constant", "value": -80.0}, "out": "out"}),
    ], ids=["solve-length-1e-300", "solve-length-1e-300-outside-cone", "example1-solve-c-100", "example1-c-100",
            "example1-solve-constant-init-c-80"])
    def test_grid_without_finite_stencils_leaves_the_last_run(self, tmp_path, capsys,
                                                              monkeypatch, command, payload):
        # a grid too fine for finite stencil weights is a config error, met
        # before the output of the last run into the same out is removed
        monkeypatch.chdir(tmp_path)
        passing = {"solve": _solve_payload("out"),
                   "example1": {"n": 4, "k": 2, "c": 0.0, "grid_size": 101, "out": "out"}}[command]
        assert run_cli([command, write_config(tmp_path / "ok.json", passing)]) == 0
        files = {path: path.read_bytes() for path in (tmp_path / "out").iterdir()}
        capsys.readouterr()
        assert run_cli([command, write_config(tmp_path / "c.json", payload)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config: no finite stencil weights")
        assert "Traceback" not in err
        assert {path: path.read_bytes() for path in (tmp_path / "out").iterdir()} == files

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
    "check broken fixture": ("check", {"function": {"n": 4}, "samples": 200}, 1),
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
    def test_passed_is_every_row_passing(self, tmp_path, monkeypatch, name):
        command, config, code = _VERDICT_RUNS[name]
        if name == "check broken fixture":
            use_broken_fixture(monkeypatch)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", {**config, "out": str(out)})
        assert run_cli([command, cfg]) == code
        report = json.loads((out / "report.json").read_text())
        every_row = all(c["status"] == "pass" for c in report["checks"])
        if command == "solve":
            every_row = every_row and report.get("failed_t") is None
        assert report["passed"] is every_row
        assert report["passed"] is (code == 0)


def _strict_json(text):
    """text parsed as strict JSON, which has no NaN or infinity."""
    def reject(name):
        raise ValueError(f"{name} is not strict JSON")
    return json.loads(text, parse_constant=reject)


class TestStrictReport:
    def test_cone_violating_subsolution_margin_is_null(self, tmp_path):
        # every node of the slope-2 line is outside the cone: no finite margin
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "s.json", _solve_payload(
            out, subsolution={"family": "linear", "slope": 2.0},
            psi={"family": "constant", "value": 1.0}))
        assert run_cli(["solve", cfg]) == 1
        report = _strict_json((out / "report.json").read_text())
        [margin] = [c for c in report["checks"] if c["name"] == "subsolution.margin"]
        assert margin["value"] is None and margin["status"] == "fail"

    def test_infinities_are_null_at_any_depth(self, tmp_path):
        path = tmp_path / "report.json"
        cli._write_report(path, {"command": "solve"},
                          [{"name": "a", "status": "fail", "value": -math.inf}],
                          extra={"monitor_growth": [1.0, math.inf, math.nan], "tol": 1e-10})
        report = _strict_json(path.read_text())
        assert report["checks"][0]["value"] is None
        assert report["monitor_growth"] == [1.0, None, None] and report["tol"] == 1e-10

    @pytest.mark.parametrize("statuses, extra, verdict", [
        (["pass", "pass"], None, True),
        ([], {"label": "x"}, True),
        (["pass", "fail"], None, False),
        (["pass", "pass"], {"error": "stalled"}, False),
    ], ids=["rows-pass", "no-rows", "a-row-fails", "error-entry"])
    def test_one_verdict_rule(self, tmp_path, statuses, extra, verdict):
        path = tmp_path / "report.json"
        rows = [{"name": f"r{i}", "status": s, "value": 0.0, "threshold": 0.0}
                for i, s in enumerate(statuses)]
        assert cli._write_report(path, {"command": "check"}, rows, extra=extra) is verdict
        assert json.loads(path.read_text())["passed"] is verdict
