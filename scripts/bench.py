#!/usr/bin/env python3
"""Per-layer timings of the Newton solver, the ESP kernels and the
structure suites, and timings of whole continuations and solves.

    python3 scripts/bench.py

Imports the package from `src/` of the checkout the script lives in and
prints one JSON document.  Times are medians of plain time.perf_counter
wall times after one warm-up call, in ms unless a key says otherwise.
Calls are counted by `unittest.mock` spies (_spy) in runs of their own,
never in a timed one.  Its keys, each from the function named:

    layers_ms                 solver layers at t = 0.5 (layer_times)
    esp_kernels_ms            the ESP kernels (kernel_times)
    cone_scores_ms            the row path of the cone scores (cone_score_times)
    gradient                  a Newton state's gradient (gradient_times)
    banded_solve_ms           solve_banded against scipy (banded_solve_times)
    kernel_passes_4001        radial kernel calls of one solve (kernel_passes)
    kernel_passes_401         the same at 401 nodes
    structure_suites_ms       the suites of `yamabe check` (suite_times)
    boundary_decay_check_margin_scores  (decay_check_margin_calls)
    continuation              subsolution continuations (continuation)
    continuation_blowup_example1_1001   (blowup_continuation)
    construction_blowup_example1_1001   (blowup_construction)
    orbit_inversion_example1  (orbit_inversion)
    solve                     whole `yamabe solve` runs with the writer child
                              and without it (solve_times)
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from scipy.linalg import solve_banded as scipy_solve_banded  # noqa: E402

from yamabe import _format, cli, example1, solver, symfun  # noqa: E402
from yamabe.benchmarks import example_boundary_problem, subsolution_benchmark  # noqa: E402
from yamabe.example1 import ExampleParams, half_length, solve_profile  # noqa: E402
from yamabe.geometry import (  # noqa: E402
    first_derivative, radial_w_eigenvalues, second_derivative)

T = 0.5
NODES = (401, 4001)
SOLVE_NODES = (201, 401, 4001)
REPEATS = 200
SOLVE_REPEATS = 20
BLOWUP_REPEATS = 20
PROFILE_NODES = (1001, 8001)
CONTINUATION_TOL = 1e-7
# the README solve config, the subsolution benchmark's data
SOLVE_CONFIG = {
    "n": 4, "function": {"kind": "sigma_k_root", "k": 2}, "half_length": 1.0,
    "psi": {"family": "subsolution_scaled", "theta": 0.5}, "phi": "subsolution",
    "subsolution": {"family": "cosh", "amplitude": 0.3}, "newton": {"tol": CONTINUATION_TOL},
}
KERNEL_ROWS = (64, 1000, 4001)
KERNEL_ORDERS = ((4, 2), (5, 4))    # (n, k)
CONE_SCORE_ROWS = (64, 1000)
CONE_SCORE_ORDERS = ((4, 2), (5, 5))    # (n, k)
SUITE_REPEATS = 20


def _spy(owner, name):
    """A context manager that puts a mock with the signature of owner.name
    in its place, calling the original and keeping call_count and
    call_args_list."""
    return mock.patch.object(owner, name, autospec=True, side_effect=getattr(owner, name))


def _median_ms(call, repeats=None):
    """Median wall time of `repeats` calls (REPEATS unless given) after one
    warm-up, in ms."""
    repeats = REPEATS if repeats is None else repeats
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def layer_times(node_count):
    """The solver layers on the subsolution benchmark (n = 4, sigma_2 root,
    cosh amplitude 0.3, theta 0.5) at node_count nodes, its subsolution
    taken as the state at t = 0.5: the residual with its cone test, the
    Jacobian as a caller without an evaluation builds it and as Newton
    builds it from the gradient it holds, the feasibility restore's cone
    test, the banded solve, the Jacobian check, the grid derivatives (free,
    and of a new state of the profile family) and one profile CSV formatted
    and written as `yamabe solve` does (gradient_times times the radial
    kernel and its gradient).  `restore` is the feasibility restore alone
    at t = 0.4, on the warm start there, the state of t = 0.3 of the
    continuation at tol CONTINUATION_TOL: one full kernel pass per rung of
    its blend ladder, up to the first feasible rung and its headroom rung."""
    problem = subsolution_benchmark(node_count=node_count)
    prof = problem.subsolution
    warm = solver.continuation_run(problem, t_schedule=solver.DEFAULT_T_SCHEDULE[:4],
                                   opts=solver.NewtonOptions(tol=CONTINUATION_TOL)).states[-1].profile
    restore_args = (problem, 0.4, warm, prof)
    grid = prof.grid
    res, evaluation = solver._residual(problem, T, prof.u, prof.du, prof.d2u)
    gradient = evaluation.gradient()
    ab = solver.jacobian(problem, T, prof)
    grid_cells = _format.cells(grid)
    columns = np.array([prof.u, prof.du, prof.d2u, res])
    stencils = problem.geom.stencils
    layers = {
        "residual": lambda: solver._residual(problem, T, prof.u, prof.du, prof.d2u),
        "jacobian": lambda: solver.jacobian(problem, T, prof),
        "jacobian_held": lambda: solver.jacobian(problem, T, prof, gradient),
        "inside_cone": lambda: solver._radial_eval(problem, T, prof.du, prof.d2u),
        "solve_banded": lambda: solver.solve_banded(ab, -res),
        "check_jacobian": lambda: solver._check_jacobian(problem, T, prof, ab),
        "restore": lambda: solver._restore_feasibility(*restore_args),
        "first_derivative": lambda: first_derivative(stencils, prof.u),
        "second_derivative": lambda: second_derivative(stencils, prof.u),
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


def gradient_times():
    """The radial kernel pass at t = T and t = 1 and the gradient of a
    Newton state at its interior nodes, and the calls of the one ESP
    recurrence `_esp` in one gradient: the subsolution of the subsolution
    benchmark, (4, 2), at NODES nodes, and the closed-form start of the
    blow-up data, (5, 4), at 1001 nodes."""
    states = [(problem, problem.subsolution)
              for problem in (subsolution_benchmark(node_count=m) for m in NODES)]
    blowup, _, init = example_boundary_problem(5, 4, -0.5, node_count=1001)
    times = {}
    for problem, prof in [*states, (blowup, init)]:
        spec = problem.spec
        axis, sphere = radial_w_eigenvalues(prof.du[1:-1], prof.d2u[1:-1])
        held = spec.radial_eval(T, axis, sphere)
        with _spy(symfun, "_esp") as esp:
            held.gradient()
        times[f"n{spec.n}_k{spec.k}_m{axis.size}"] = {
            "radial_eval_ms": _median_ms(lambda: spec.radial_eval(T, axis, sphere)),
            "radial_eval_t1_ms": _median_ms(lambda: spec.radial_eval(1.0, axis, sphere)),
            "gradient_ms": _median_ms(held.gradient),
            "esp_calls_per_gradient": esp.call_count,
        }
    return times


def banded_solve_times():
    """Newton's banded solve against scipy's, on the subsolution state's
    Jacobian and residual at t = 0.5."""
    times = {}
    for m in (401, 1001, 4001):
        problem = subsolution_benchmark(node_count=m)
        prof = problem.subsolution
        ab, rhs = solver.jacobian(problem, T, prof), -solver.residual(problem, T, prof)
        times[str(m)] = {
            "solver_solve_banded_ms": _median_ms(lambda: solver.solve_banded(ab, rhs)),
            "scipy_solve_banded_ms": _median_ms(lambda: scipy_solve_banded((1, 1), ab, rhs)),
            "scipy_solve_banded_unchecked_ms": _median_ms(
                lambda: scipy_solve_banded((1, 1), ab, rhs, check_finite=False)),
        }
    return times


def kernel_passes(node_count=4001):
    """The radial kernel calls of one README continuation at node_count
    nodes, Newton tolerance CONTINUATION_TOL: full passes
    (`solver._radial_eval`), the continuation's, Newton's and the
    feasibility restores' alike, their rows, and the restores."""
    problem = subsolution_benchmark(node_count=node_count)
    with _spy(solver, "_radial_eval") as full, _spy(solver, "_restore_feasibility") as restore:
        solver.continuation_run(problem, opts=solver.NewtonOptions(tol=CONTINUATION_TOL))
    rows = sum(call.args[2].size - 2 for call in full.call_args_list)
    return {"full_passes": full.call_count, "rows": rows, "restores": restore.call_count}


def kernel_times():
    """The one ESP recurrence `_esp` on the (m, n) rows and on the radial
    columns (a, s, ..., s), as the radial kernel runs it, `_esp_removed`,
    the t-map `_t_map` at t = T with its in-order row sum, on standard
    normal tuples of KERNEL_ROWS rows, and the row path's gradient
    `SymFuncSpec.value_and_grad_many` of the sigma_k root on their absolute
    values, which lie in every cone."""
    rng = np.random.default_rng(0)
    times = {}
    for n, k in KERNEL_ORDERS:
        spec = symfun.SymFuncSpec("sigma_k_root", n=n, k=k)
        for m in KERNEL_ROWS:
            values = rng.standard_normal((m, n))
            radial = (values[:, 0].copy(), *[values[:, 1].copy()] * (n - 1))
            positive = np.abs(values)
            times[f"n{n}_k{k}_m{m}"] = {
                "esp": _median_ms(lambda: symfun._esp(values.T, k)),
                "esp_radial_columns": _median_ms(lambda: symfun._esp(radial, k)),
                "esp_removed": _median_ms(lambda: symfun._esp_removed(values, k - 1)),
                "t_map": _median_ms(lambda: symfun._t_map(T, values)),
                "value_and_grad_many": _median_ms(lambda: spec.value_and_grad_many(positive)),
            }
    return times


def cone_score_times():
    """`_cone_scores` on standard normal tuples of CONE_SCORE_ROWS rows."""
    rng = np.random.default_rng(0)
    times = {}
    for n, k in CONE_SCORE_ORDERS:
        for m in CONE_SCORE_ROWS:
            values = rng.standard_normal((m, n))
            times[f"n{n}_k{k}_m{m}"] = _median_ms(lambda: symfun._cone_scores(values, k))
    return times


def decay_check_inputs(spec):
    """The samples and the generator that `verify_structure` (1000 samples,
    seed 0) hands its decay check: the generator as sampling left it."""
    rng = np.random.default_rng(0)
    return symfun.sample_cone(spec, 1000, rng), rng


def decay_check_margin_calls(spec, pts, rng):
    """The `margin_scores` calls of one decay check on pts, drawing from a
    copy of rng."""
    with _spy(symfun.SymFuncSpec, "margin_scores") as scores:
        symfun._boundary_decay_check(spec, pts, copy.deepcopy(rng))
    return {"calls": scores.call_count, "rows": sum(len(call.args[1]) for call in scores.call_args_list)}


def suite_times():
    """The structure suites on sigma_2 at n = 4, seed 0 (SUITE_REPEATS
    calls): `verify_structure` on 1000 samples, its decay check alone on
    the samples and generator state it gets there,
    `concavity_margin_suite` on 200 pairs, `concavity_margin_many` on one
    256-row batch drawn as the suite draws it and `interpolation_ball_report`
    on 1000 directions; and the decay check's `margin_scores` calls."""
    spec = symfun.SymFuncSpec("sigma_k_root", n=4, k=2)
    pts, decay_rng = decay_check_inputs(spec)
    rng = np.random.default_rng(0)
    lams = symfun.sample_cone(spec, 256, rng, scale_low=-1.0, scale_high=1.5)
    ts = rng.uniform(0.0, 1.0, size=256)
    mus = 1.0 + rng.uniform(-0.45, 0.45, size=(256, spec.n))
    suites = {
        "verify_structure": lambda: symfun.verify_structure(spec, sample_count=1000, seed=0),
        "boundary_decay_check": lambda: symfun._boundary_decay_check(
            spec, pts, copy.deepcopy(decay_rng)),
        "concavity_margin_suite": lambda: symfun.concavity_margin_suite(spec, samples=200, seed=0),
        "concavity_margin_many_256": lambda: symfun.concavity_margin_many(spec, ts, mus, lams, 0.2),
        "interpolation_ball_report": lambda: symfun.interpolation_ball_report(spec, seed=0),
    }
    times = {name: _median_ms(call, SUITE_REPEATS) for name, call in suites.items()}
    return times, decay_check_margin_calls(spec, pts, decay_rng)


def continuation(node_count, tol=CONTINUATION_TOL):
    """One continuation of the subsolution benchmark: its wall time, the
    Newton iterations, the t values whose state stopped at its rounding
    floor F and the largest |res|/F among them (None where none did) and,
    counted in a second run, the `_residual` calls (line-search trials and
    the Jacobian check's) and the `RadialEvaluation.gradient` calls."""
    problem = subsolution_benchmark(node_count=node_count)
    opts = solver.NewtonOptions(tol=tol)
    start = time.perf_counter()
    report = solver.continuation_run(problem, opts=opts)
    wall = time.perf_counter() - start
    with _spy(solver, "_residual") as residual, _spy(symfun.RadialEvaluation, "gradient") as gradient:
        solver.continuation_run(problem, opts=opts)
    floored = [s for s in report.states if s.rounding_floor is not None]
    return {
        "tol": tol,
        "wall_s": wall,
        "newton_iters_per_t": {repr(s.t): s.newton_iters for s in report.states},
        "newton_iters_total": sum(s.newton_iters for s in report.states),
        "floor_stops_t": [s.t for s in floored],
        "max_residual_over_floor": max((s.residual_norm / s.rounding_floor for s in floored),
                                       default=None),
        "residual_calls": residual.call_count,
        "gradient_calls": gradient.call_count,
    }


def blowup_continuation():
    """A continuation on acceptance criterion 9's data: Example 1 (5, 4,
    -0.5) at 1001 nodes from the closed-form start, with the Jacobian check
    (BLOWUP_REPEATS runs).  Its tolerance is the one derived by hand in
    perfbench's blowup_example1_1001 op, which this mirrors; criterion 9
    itself runs at the default tol and stops at the rounding floor."""
    problem, _, init = example_boundary_problem(5, 4, -0.5, node_count=1001)
    h = 2 * problem.geom.half_length / 1000
    opts = solver.NewtonOptions(tol=max(1e-7, 100 * 2.2e-16 * 1.5 * 2.0 / h ** 2))
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
    """Building the Example 1 data at (5, 4, -0.5): `half_length` (the
    initial value problem alone), `example_boundary_problem` at 1001 nodes
    and `solve_profile` at PROFILE_NODES (BLOWUP_REPEATS calls)."""
    params = ExampleParams(5, 4, -0.5)
    return {
        "repeats": BLOWUP_REPEATS,
        "half_length_ms": _median_ms(lambda: half_length(params), BLOWUP_REPEATS),
        "example_boundary_problem_ms": _median_ms(
            lambda: example_boundary_problem(5, 4, -0.5, node_count=1001), BLOWUP_REPEATS),
        **{f"solve_profile_{m}_ms": _median_ms(lambda: solve_profile(params, m), BLOWUP_REPEATS)
           for m in PROFILE_NODES},
    }


def orbit_inversion():
    """`example1._orbit` alone at (5, 4, -0.5) on the interior nodes of the
    PROFILE_NODES grids, from one coefficient table: the median wall time,
    the sweeps and the slopes each sweep evaluates."""
    params = ExampleParams(5, 4, -0.5)
    dense = example1._DenseOrbit(example1._slope_orbit(params))
    times = {}
    for m in PROFILE_NODES:
        grid = solve_profile(params, m).profile.grid
        interior = grid[np.abs(grid) < dense.ends[-1]]
        with _spy(example1._DenseOrbit, "__call__") as sweeps:
            example1._orbit(params, dense, interior)
        times[str(interior.size)] = {
            "orbit_ms": _median_ms(lambda: example1._orbit(params, dense, interior),
                                   BLOWUP_REPEATS),
            "sweeps": sweeps.call_count,
            "slopes_per_sweep": [call.args[1].size for call in sweeps.call_args_list],
        }
    return times


def solve_times(node_count, fork):
    """`yamabe solve` on the subsolution benchmark, with cli._FORK_ROWS set
    so that each solve forks its writer child (fork true, where this process
    may run on two or more cores) or none: the processes of the warm-up
    solve, median wall time and verbose phase times, mean CPU time of this
    process and of its children, and the median of this process's minor
    page faults (ru_minflt), per solve."""
    walls, phases, faults, own, children = [], [], [], 0.0, 0.0
    with mock.patch.object(cli, "_FORK_ROWS", 0 if fork else math.inf), \
            tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "solve.json"
        config.write_text(json.dumps({**SOLVE_CONFIG, "grid_size": node_count,
                                      "out": str(Path(tmp) / "out")}))

        def solve():
            """The verbose stderr of one solve, which must exit 0."""
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["solve", str(config), "--verbose"])
            if code != 0:
                raise RuntimeError(f"yamabe solve exited {code}: {err.getvalue()}")
            return err.getvalue()

        with _spy(os, "fork") as forks:     # the warm-up, untimed
            solve()
        for _ in range(SOLVE_REPEATS):
            kids = resource.getrusage(resource.RUSAGE_CHILDREN)
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            cpu, start = time.process_time(), time.perf_counter()
            err = solve()
            walls.append(time.perf_counter() - start)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt)
            own += time.process_time() - cpu
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            children += (after.ru_utime + after.ru_stime) - (kids.ru_utime + kids.ru_stime)
            # "continuation <s> s, output <s> s after the last t"
            words = err.splitlines()[-1].split()
            phases.append((float(words[1]), float(words[4])))
    return {
        "processes": 1 + forks.call_count,
        "wall_ms": 1e3 * statistics.median(walls),
        "continuation_ms": 1e3 * statistics.median(p[0] for p in phases),
        "after_last_t_ms": 1e3 * statistics.median(p[1] for p in phases),
        "cpu_ms_self": 1e3 * own / SOLVE_REPEATS,
        "cpu_ms_children": 1e3 * children / SOLVE_REPEATS,
        "minor_faults_self": statistics.median(faults),
    }


def main():
    runs = {str(m): continuation(m) for m in NODES}
    # the default tol lies below the rounding floor at every t on this grid
    runs["4001_default_tol"] = continuation(4001, solver.NewtonOptions().tol)
    solves = {str(m): {"fork": solve_times(m, True), "no_fork": solve_times(m, False)}
              for m in SOLVE_NODES}
    # the largest RSS of any child this process has waited for: the writers
    solves["children_max_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    solves["self_max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    suites, decay_calls = suite_times()
    doc = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "t": T,
        "repeats": REPEATS,
        "layers_ms": {str(m): layer_times(m) for m in NODES},
        "esp_kernels_ms": kernel_times(),
        "cone_scores_ms": cone_score_times(),
        "gradient": gradient_times(),
        "banded_solve_ms": banded_solve_times(),
        "kernel_passes_4001": kernel_passes(),
        "kernel_passes_401": kernel_passes(401),
        "structure_suites_ms": suites,
        "boundary_decay_check_margin_scores": decay_calls,
        "continuation": runs,
        "continuation_blowup_example1_1001": blowup_continuation(),
        "construction_blowup_example1_1001": blowup_construction(),
        "orbit_inversion_example1": orbit_inversion(),
        "solve": {"files": len(solver.DEFAULT_T_SCHEDULE) + 2,
                  "fork_rows": cli._FORK_ROWS,
                  "repeats": SOLVE_REPEATS, **solves},
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
