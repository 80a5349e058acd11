"""The benchmark's three workloads.

A workload draws its op inputs from the run's seed, prepares each op outside
the timed region (`prepare`), runs it through the program (`execute`, the
timed call) and checks what the program produced (`verify`).  One op is one
unit of user work: a `yamabe solve` run, a `yamabe check` run, or one
continuation over the non-smooth boundary data of Example 1.
`op_s` is the run time per passing op on the machine the baseline was
recorded on; run.py turns `--seconds` into a count of passing ops with it.

Why these three: each loads a different part of the package.

* solve_subsolution_4001 is the only workload that calls the cone functions
  on large batches (about 4000 rows per call), runs the dense Jacobian spot
  check (`banded_to_dense` allocates an m x m array, 128 MB at m = 4001) and
  writes output (13 profile CSVs, about 5.5 MB per op).
* check_structure calls the cone functions on about one row per call, so
  Python per-call overhead, not array size, sets its time.  It skips the
  solver and the CSV writers.
* blowup_example1_1001 loads the Newton and continuation policy, n*k = 20
  ESP work, a z-dependent psi and example1's quadrature and IVP.  It runs no
  spot check and writes nothing.  It calls the library directly because
  `yamabe solve` cannot run this data: the spot check fails at t = 0 on
  these grids and the CLI cannot turn it off.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass

import numpy as np

from yamabe import benchmarks, cli, solver
from yamabe._errors import YamabeError

POOL = 4096  # op inputs drawn per run; more than a run can use

# Layers a workload does not reach, with the reason; a traced run reports
# these next to the zero they read.
_NO_SOLVER = "no solver on this workload: `yamabe check` runs the structure suites only"
_NO_EXAMPLE1 = "the closed-form Example 1 construction is not used on this workload"
_NO_SUITES = "the structure suites (cone sampling, separation margins) do not run here"


@dataclass(frozen=True)
class Failure:
    """Why an op failed.  `wrong_output` marks a program that reported
    success but produced output that does not pass the op's check."""

    cause: str
    wrong_output: bool = False


def _cli_failure(code, stderr):
    if code == 1 and "analytic Jacobian column" in stderr:
        return Failure("jacobian_spot_check")
    return Failure(f"exit_{code}")


def _read_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _csv_rows(path):
    """Data rows of a CLI CSV file (comment and header lines dropped)."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


class _CliWorkload:
    """A workload whose op is one in-process run of `yamabe <command>`."""

    command = ""
    round_size = 1

    def __init__(self, work_dir):
        self.config_path = work_dir / "config.json"
        self.out = work_dir / "out"

    def prepare(self, config):
        shutil.rmtree(self.out, ignore_errors=True)
        self.config_path.write_text(json.dumps(config))

    def execute(self, config):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([self.command, str(self.config_path)])
        return code, err.getvalue()

    def output_bytes(self):
        if not self.out.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())


class SolveSubsolution(_CliWorkload):
    """`yamabe solve` on the README subsolution config at 4001 nodes.

    About two draws in three fail the analytic-Jacobian spot check, a false
    alarm of the check at this grid size; they count as failed ops, and a
    run goes on over them until it has its passing ops.
    """

    name = "solve_subsolution_4001"
    command = "solve"
    op_s = 4.4      # a passing op, 1.7 s, and the two or three failing ones per pass
    steps = len(solver.DEFAULT_T_SCHEDULE)
    tol = 1e-7
    skipped_layers = {
        "symfun.concavity_margin": _NO_SUITES,
        "symfun.sample_cone": _NO_SUITES,
        "example1.half_length": _NO_EXAMPLE1,
        "example1.solve_profile": _NO_EXAMPLE1,
        "benchmarks.example_boundary_problem": _NO_EXAMPLE1,
    }

    def __init__(self, seed, work_dir, grid_size=4001):
        super().__init__(work_dir)
        rng = np.random.default_rng(seed)
        amplitudes = rng.uniform(0.2, 0.4, POOL)
        thetas = rng.uniform(0.3, 0.7, POOL)
        self.inputs = [
            {"n": 4, "function": {"kind": "sigma_k_root", "k": 2},
             "half_length": 1.0, "grid_size": grid_size,
             "psi": {"family": "subsolution_scaled", "theta": float(theta)},
             "phi": "subsolution",
             "subsolution": {"family": "cosh", "amplitude": float(amp)},
             "newton": {"tol": self.tol}, "out": str(self.out)}
            for amp, theta in zip(amplitudes, thetas)
        ]

    def verify(self, config, result):
        code, stderr = result
        if code != 0:
            return _cli_failure(code, stderr)
        report = _read_json(self.out / "report.json")
        if not isinstance(report, dict) or report.get("passed") is not True:
            return Failure("wrong_output:report", wrong_output=True)
        try:
            rows = _csv_rows(self.out / "monitors.csv")
            residuals = [float(r[4]) for r in rows]
        except (OSError, IndexError, ValueError):
            return Failure("wrong_output:monitors_unreadable", wrong_output=True)
        if len(rows) != self.steps:
            return Failure("wrong_output:monitors_rows", wrong_output=True)
        if not all(r <= self.tol for r in residuals):
            return Failure("wrong_output:monitors_residual", wrong_output=True)
        return None


# sigma_k_root with n in {3, 4, 5} and 2 <= k <= n, plus quotient(2, 1)
CHECK_FUNCTIONS = tuple(
    [{"kind": "sigma_k_root", "n": n, "k": k} for n in (3, 4, 5) for k in range(2, n + 1)]
    + [{"kind": "quotient", "n": n, "k": 2, "l": 1} for n in (3, 4, 5)]
)


class CheckStructure(_CliWorkload):
    """`yamabe check` on one of twelve functions per op.

    Op cost differs up to fourfold between the functions, so the functions
    come in rounds: each round is a seed-shuffled pass over all twelve, and
    a run ends on a round boundary.  Every run then holds the same mix.
    """

    name = "check_structure"
    command = "check"
    round_size = len(CHECK_FUNCTIONS)
    op_s = 1.7
    skipped_layers = {
        "geometry.first_derivative": _NO_SOLVER,
        "geometry.second_derivative": _NO_SOLVER,
        "geometry.radial_w_eigenvalues": _NO_SOLVER,
        "solver.residual": _NO_SOLVER,
        "solver.jacobian": _NO_SOLVER,
        "solver.solve_banded": _NO_SOLVER,
        "solver.check_subsolution": _NO_SOLVER,
        "solver.fd_jacobian_column": _NO_SOLVER,
        "solver.banded_to_dense": _NO_SOLVER,
        "solver.newton_solve": _NO_SOLVER,
        "solver.continuation_run": _NO_SOLVER,
        "example1.half_length": _NO_EXAMPLE1,
        "example1.solve_profile": _NO_EXAMPLE1,
        "benchmarks.example_boundary_problem": _NO_EXAMPLE1,
    }

    def __init__(self, seed, work_dir, samples=1000, separation_samples=200):
        super().__init__(work_dir)
        rng = np.random.default_rng(seed)
        self.inputs = []
        while len(self.inputs) < POOL:
            for idx in rng.permutation(len(CHECK_FUNCTIONS)):
                self.inputs.append({
                    "function": dict(CHECK_FUNCTIONS[idx]),
                    "samples": samples,
                    "separation": {"samples": separation_samples},
                    "seed": int(rng.integers(0, 2 ** 31 - 1)),
                    "out": str(self.out),
                })

    def verify(self, config, result):
        code, stderr = result
        if code != 0:
            return _cli_failure(code, stderr)
        report = _read_json(self.out / "report.json")
        if not isinstance(report, dict) or report.get("passed") is not True:
            return Failure("wrong_output:report", wrong_output=True)
        checks = report.get("checks")
        if not checks or any(c.get("status") != "pass" for c in checks):
            return Failure("wrong_output:checks", wrong_output=True)
        return None


class BlowupExample1:
    """Continuation over the non-smooth boundary data of Example 1.

    Mirrors acceptance criterion 9 and scripts/blowup_scan.py: (n, k) = (5, 4),
    the default 13-point schedule, the floor-aware Newton tolerance and no
    Jacobian spot check.
    """

    name = "blowup_example1_1001"
    round_size = 1
    op_s = 0.2
    n, k = 5, 4
    steps = len(solver.DEFAULT_T_SCHEDULE)
    band_limit = 3.0
    skipped_layers = {
        "symfun.concavity_margin": _NO_SUITES,
        "symfun.sample_cone": _NO_SUITES,
        "solver.check_subsolution": "the Example 1 data has no subsolution to check",
        "solver.fd_jacobian_column": "jacobian_check=False, as in criterion 9 and the blow-up scan",
        "solver.banded_to_dense": "jacobian_check=False, as in criterion 9 and the blow-up scan",
        "cli.main": "the op calls the library directly; the CLI cannot run this data",
    }

    def __init__(self, seed, work_dir, node_count=1001):
        self.node_count = node_count
        rng = np.random.default_rng(seed)
        self.inputs = [float(c) for c in rng.uniform(-0.6, -0.4, POOL)]

    def prepare(self, c):
        pass

    def execute(self, c):
        problem, _, init = benchmarks.example_boundary_problem(
            self.n, self.k, c, node_count=self.node_count)
        h = 2 * problem.geom.half_length / (self.node_count - 1)
        tol = max(1e-7, 100 * np.finfo(float).eps * (1 + abs(c)) * 2.0 / h ** 2)
        try:
            return solver.continuation_run(
                problem, init=init, opts=solver.NewtonOptions(tol=tol, jacobian_check=False))
        except YamabeError as exc:
            return exc

    def output_bytes(self):
        return 0

    def verify(self, c, result):
        if isinstance(result, YamabeError):
            return Failure(type(result).__name__)
        states = result.states
        if len(states) != self.steps or not all(s.converged for s in states):
            return Failure("wrong_output:not_converged", wrong_output=True)
        tail = [s for s in states if s.t >= 0.9 - 1e-12]
        sup = [s.monitors[2] for s in tail]
        if not all(a <= b + 1e-12 for a, b in zip(sup, sup[1:])):
            return Failure("wrong_output:curvature_not_monotone", wrong_output=True)
        scaled = [(1.0 - s.t) * s.monitors[2] for s in tail]
        if not max(scaled) / min(scaled) <= self.band_limit:
            return Failure("wrong_output:band", wrong_output=True)
        return None


WORKLOADS = {w.name: w for w in (SolveSubsolution, CheckStructure, BlowupExample1)}
