#!/usr/bin/env python3
"""Per-layer timings of the Newton solver on the subsolution benchmark.

    python3 scripts/bench.py

Imports the package from `src/` of the checkout the script lives in, so the
same script times any two checkouts side by side.  For each node count m it
builds the subsolution benchmark (n = 4, sigma_2 root, cosh amplitude 0.3,
theta 0.5), takes the subsolution as the state at t = 0.5 and reports the
median wall time per call (plain time.perf_counter, after one warm-up call)
of the residual with its cone test, the Jacobian, the cone screen of the
feasibility restore, the banded solve and the directional Jacobian check.
It then runs one full continuation over the default schedule (Newton
tolerance 1e-7) and records its wall time and the Newton iterations per t,
so that algorithmic and constant-factor changes can be told apart.  The
JSON document goes to standard output.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from scipy.linalg import solve_banded  # noqa: E402

from yamabe import solver  # noqa: E402
from yamabe.benchmarks import subsolution_benchmark  # noqa: E402

T = 0.5
NODES = (401, 4001)
REPEATS = 200
CONTINUATION_TOL = 1e-7


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
    res, _ = solver._residual(problem, T, grid, prof.u, prof.du, prof.d2u)
    ab = solver.jacobian(problem, T, prof)
    layers = {
        "residual": lambda: solver._residual(problem, T, grid, prof.u, prof.du, prof.d2u),
        "jacobian": lambda: solver.jacobian(problem, T, prof),
        "inside_cone": lambda: solver._inside_cone(problem, T, prof),
        "solve_banded": lambda: solve_banded((1, 1), ab, -res),
        "check_jacobian": lambda: solver._check_jacobian(problem, T, prof, ab),
    }
    # the check makes 4 to 16 residual calls per call: fewer repeats
    return {name: _median_ms(call, REPEATS // 10) if name == "check_jacobian" else _median_ms(call)
            for name, call in layers.items()}


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


def main():
    doc = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "t": T,
        "repeats": REPEATS,
        "layers_ms": {str(m): layer_times(m) for m in NODES},
        "continuation": {str(m): continuation(m) for m in NODES},
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
