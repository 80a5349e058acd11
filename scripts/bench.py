#!/usr/bin/env python3
"""Per-layer timings of the Newton solver on the subsolution benchmark, of
the ESP kernels and of the structure suites, and timings of whole solves.

    python3 scripts/bench.py

Imports the package from `src/` of the checkout the script lives in.  For
each node count m it builds the subsolution benchmark (n = 4, sigma_2 root,
cosh amplitude 0.3, theta 0.5), takes the subsolution as the state at
t = 0.5 and reports the median wall time per call (plain
time.perf_counter, after one warm-up call) of the residual with its cone
test, the Jacobian as a caller without an evaluation builds it (kernel and
gradient) and as Newton builds it from the evaluation its residual call
made (gradient only), the cone screen of the feasibility restore, the
banded solve, the directional Jacobian check, the radial kernel
`SymFuncSpec.radial_eval` on the state's eigenvalues and the gradient of
its evaluation, and the grid derivatives: the free
`first_derivative`/`second_derivative`, which build the grid's stencil
weights on every call, `du`/`d2u` of a new state of the profile family,
which reuses them, and the profile writer: one profile CSV of the state
(its columns u, du, d2u and residual, the grid's cells formatted once, as
`yamabe solve` does) formatted and written to a temporary directory.  It
then runs one full continuation over the default
schedule (Newton tolerance 1e-7) and records its wall time and the Newton
iterations per t, so that algorithmic and constant-factor changes can be
told apart.  The same figures, as the median wall time of
BLOWUP_REPEATS runs after one warm-up, come from the continuation of
acceptance criterion 9: the Example 1 data (n = 5, k = 4, c = -0.5) at 1001
nodes over the default schedule from the closed-form start, with the
criterion's floor tolerance and no Jacobian check.  Beside it stands the
cost of building that data, as the median wall time of BLOWUP_REPEATS calls
after one warm-up: `example1.half_length` at (5, 4, -0.5), which is the
slope-parametrized initial value problem alone (its end is the half length),
and the whole `example_boundary_problem(5, 4, -0.5, 1001)` (that initial
value problem, the profile on the grid and the Dirichlet problem).  Last, at 201, 401 and
4001 nodes it times whole `yamabe solve` runs of the same benchmark (default schedule, Newton tolerance
1e-7, through `cli.main`, output to a temporary directory, median of 20
after one warm-up): the wall time, the seconds in the continuation and
after the last t as `--verbose` prints them, and the mean CPU time of
this process and of the profile writers it forked.  Each size runs as `yamabe solve` does
(one writer per cli._ROWS_PER_WRITER rows, at most one per available core,
so one process at 201 nodes) and with `cli._writer_count` cut to one writer, which
writes every profile in this process.  The writers' CPU time and peak RSS
come from RUSAGE_CHILDREN: the solving process's own CPU time leaves out
what its children did.  The radial kernel and its gradient are timed
again on the blow-up data (n = 5, k = 4, the closed-form start at 1001
nodes, its interior nodes at t = 0.5), where the gradient's passes cost
about n * k.  The ESP kernels (`_esp` on the (m, n) rows, `_esp` on the
radial columns (a, s, ..., s) and `_esp_removed`) are timed on standard
normal tuples at 64, 1000 and 4001 rows, for the orders of the checked
sigma_2 at n = 4 and of the blow-up data (n = 5, k = 4).
The structure suites of `yamabe check` are timed on sigma_2 at n = 4 in
the benchmark's shape: `verify_structure` on 1000 samples, its boundary
decay check alone on 1000 cone samples, `concavity_margin_suite` on 200
separated pairs, its kernel `concavity_margin_many` alone on one 256-row
batch drawn as the suite draws its cone rows, and
`interpolation_ball_report` on 1000 directions, all seed 0 (median of 20
calls).  The JSON document goes to standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from scipy.linalg import solve_banded  # noqa: E402

from yamabe import _format, cli, solver, symfun  # noqa: E402
from yamabe.benchmarks import example_boundary_problem, subsolution_benchmark  # noqa: E402
from yamabe.example1 import ExampleParams, half_length  # noqa: E402
from yamabe.geometry import (  # noqa: E402
    first_derivative, radial_w_eigenvalues, second_derivative)

T = 0.5
NODES = (401, 4001)
SOLVE_NODES = (201, 401, 4001)
REPEATS = 200
SOLVE_REPEATS = 20
BLOWUP_REPEATS = 20
CONTINUATION_TOL = 1e-7
# the README solve config, the subsolution benchmark's data
SOLVE_CONFIG = {
    "n": 4, "function": {"kind": "sigma_k_root", "k": 2}, "half_length": 1.0,
    "psi": {"family": "subsolution_scaled", "theta": 0.5}, "phi": "subsolution",
    "subsolution": {"family": "cosh", "amplitude": 0.3}, "newton": {"tol": CONTINUATION_TOL},
}
KERNEL_ROWS = (64, 1000, 4001)
KERNEL_ORDERS = ((4, 2), (5, 4))    # (n, k)
SUITE_REPEATS = 20


def _median_ms(call, repeats=REPEATS):
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def layer_times(node_count):
    problem = subsolution_benchmark(node_count=node_count)
    prof = problem.subsolution
    grid = prof.grid
    res, _, evaluation = solver._residual(problem, T, grid, prof.u, prof.du, prof.d2u)
    ab = solver.jacobian(problem, T, prof)
    spec = problem.spec
    axis, sphere = radial_w_eigenvalues(spec.n, prof.du, prof.d2u)
    grid_cells = _format.cells(grid)
    columns = np.array([prof.u, prof.du, prof.d2u, res])
    layers = {
        "residual": lambda: solver._residual(problem, T, grid, prof.u, prof.du, prof.d2u),
        "jacobian": lambda: solver.jacobian(problem, T, prof),
        "jacobian_held": lambda: solver.jacobian(problem, T, prof, evaluation),
        "inside_cone": lambda: solver._inside_cone(problem, T, prof),
        "solve_banded": lambda: solve_banded((1, 1), ab, -res),
        "check_jacobian": lambda: solver._check_jacobian(problem, T, prof, ab),
        **_radial_layers(spec, axis, sphere),
        "first_derivative": lambda: first_derivative(grid, prof.u),
        "second_derivative": lambda: second_derivative(grid, prof.u),
        "state_du": lambda: prof.with_values(prof.u).du,
        "state_d2u": lambda: prof.with_values(prof.u).d2u,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profile.csv"
        layers["profile_writer"] = lambda: cli._write_profile_rows(
            path, {"command": "solve"}, [f"# t {T:.17g}"], grid_cells, columns)
        # the check makes 4 to 16 residual calls per call: fewer repeats
        return {name: _median_ms(call, REPEATS // 10) if name == "check_jacobian" else _median_ms(call)
                for name, call in layers.items()}


def _radial_layers(spec, axis, sphere):
    held = spec.radial_eval(T, axis, sphere)
    return {"radial_eval": lambda: spec.radial_eval(T, axis, sphere),
            "radial_eval_gradient": held.gradient}


def blowup_layer_times():
    problem, _, init = example_boundary_problem(5, 4, -0.5, node_count=1001)
    axis, sphere = radial_w_eigenvalues(5, init.du[1:-1], init.d2u[1:-1])
    return {name: _median_ms(call)
            for name, call in _radial_layers(problem.spec, axis, sphere).items()}


def kernel_times():
    rng = np.random.default_rng(0)
    times = {}
    for n, k in KERNEL_ORDERS:
        for m in KERNEL_ROWS:
            values = rng.standard_normal((m, n))
            radial = (values[:, 0].copy(), *[values[:, 1].copy()] * (n - 1))
            times[f"n{n}_k{k}_m{m}"] = {
                "esp": _median_ms(lambda: symfun._esp(values.T, k)),
                "esp_radial_columns": _median_ms(lambda: symfun._esp(radial, k)),
                "esp_removed": _median_ms(lambda: symfun._esp_removed(values, k - 1)),
            }
    return times


def suite_times():
    spec = symfun.SymFuncSpec("sigma_k_root", n=4, k=2)
    pts = symfun.sample_cone(spec, 1000, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    lams = symfun.sample_cone(spec, 256, rng, scale_low=-1.0, scale_high=1.5)
    ts = rng.uniform(0.0, 1.0, size=256)
    mus = 1.0 + rng.uniform(-0.45, 0.45, size=(256, spec.n))
    suites = {
        "verify_structure": lambda: symfun.verify_structure(spec, sample_count=1000, seed=0),
        "boundary_decay_check": lambda: symfun._boundary_decay_check(
            spec, pts, np.random.default_rng(0)),
        "concavity_margin_suite": lambda: symfun.concavity_margin_suite(spec, samples=200, seed=0),
        "concavity_margin_many_256": lambda: symfun.concavity_margin_many(spec, ts, mus, lams, 0.2),
        "interpolation_ball_report": lambda: symfun.interpolation_ball_report(spec, seed=0),
    }
    return {name: _median_ms(call, SUITE_REPEATS) for name, call in suites.items()}


def continuation(node_count):
    problem = subsolution_benchmark(node_count=node_count)
    start = time.perf_counter()
    report = solver.continuation_run(problem, opts=solver.NewtonOptions(tol=CONTINUATION_TOL))
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "newton_iters_per_t": {repr(s.t): s.newton_iters for s in report.states},
        "newton_iters_total": sum(s.newton_iters for s in report.states),
    }


def blowup_continuation():
    problem, _, init = example_boundary_problem(5, 4, -0.5, node_count=1001)
    h = 2 * problem.geom.half_length / 1000
    opts = solver.NewtonOptions(tol=max(1e-7, 100 * np.finfo(float).eps * 1.5 * 2.0 / h ** 2),
                                jacobian_check=False)
    walls = []
    for _ in range(BLOWUP_REPEATS + 1):
        start = time.perf_counter()
        report = solver.continuation_run(problem, init=init, opts=opts)
        walls.append(time.perf_counter() - start)
    return {
        "repeats": BLOWUP_REPEATS,
        "wall_s": statistics.median(walls[1:]),
        "newton_iters_per_t": {repr(s.t): s.newton_iters for s in report.states},
        "newton_iters_total": sum(s.newton_iters for s in report.states),
    }


def blowup_construction():
    params = ExampleParams.from_c(5, 4, -0.5)
    return {
        "repeats": BLOWUP_REPEATS,
        "half_length_ms": _median_ms(lambda: half_length(params), BLOWUP_REPEATS),
        "example_boundary_problem_ms": _median_ms(
            lambda: example_boundary_problem(5, 4, -0.5, node_count=1001), BLOWUP_REPEATS),
    }


def solve_times(node_count, writers=None):
    """`yamabe solve` on the subsolution benchmark, with cli._writer_count()
    set to `writers` unless it is None: median wall time and verbose phase
    times, mean CPU time of this process and of its children, per solve."""
    default = cli._writer_count
    if writers is not None:
        cli._writer_count = lambda rows: writers
    walls, phases, own, children = [], [], 0.0, 0.0
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "solve.json"
        config.write_text(json.dumps({**SOLVE_CONFIG, "grid_size": node_count,
                                      "out": str(Path(tmp) / "out")}))
        for i in range(SOLVE_REPEATS + 1):
            kids = resource.getrusage(resource.RUSAGE_CHILDREN)
            err = io.StringIO()
            cpu, start = time.process_time(), time.perf_counter()
            with contextlib.redirect_stderr(err):
                code = cli.main(["solve", str(config), "--verbose"])
            wall = time.perf_counter() - start
            if code != 0:
                raise RuntimeError(f"yamabe solve exited {code}: {err.getvalue()}")
            if i == 0:      # warm-up
                continue
            walls.append(wall)
            own += time.process_time() - cpu
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            children += (after.ru_utime + after.ru_stime) - (kids.ru_utime + kids.ru_stime)
            # "continuation <s> s, output <s> s after the last t"
            words = err.getvalue().splitlines()[-1].split()
            phases.append((float(words[1]), float(words[4])))
    cli._writer_count = default
    return {
        "processes": writers or default(len(solver.DEFAULT_T_SCHEDULE) * node_count),
        "wall_ms": 1e3 * statistics.median(walls),
        "continuation_ms": 1e3 * statistics.median(p[0] for p in phases),
        "after_last_t_ms": 1e3 * statistics.median(p[1] for p in phases),
        "cpu_ms_self": 1e3 * own / SOLVE_REPEATS,
        "cpu_ms_children": 1e3 * children / SOLVE_REPEATS,
    }


def main():
    runs = {m: continuation(m) for m in NODES}
    solves = {str(m): {"every_core": solve_times(m), "one_process": solve_times(m, 1)}
              for m in SOLVE_NODES}
    # the largest RSS of any child this process has waited for: the writers
    solves["children_max_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    solves["self_max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "t": T,
        "repeats": REPEATS,
        "layers_ms": {**{str(m): layer_times(m) for m in NODES},
                      "blowup_example1_1001": blowup_layer_times()},
        "esp_kernels_ms": kernel_times(),
        "structure_suites_ms": suite_times(),
        "continuation": {str(m): run for m, run in runs.items()},
        "continuation_blowup_example1_1001": blowup_continuation(),
        "construction_blowup_example1_1001": blowup_construction(),
        "solve": {"files": len(solver.DEFAULT_T_SCHEDULE) + 2,
                  "rows_per_writer": cli._ROWS_PER_WRITER,
                  "repeats": SOLVE_REPEATS, **solves},
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
