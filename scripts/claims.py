#!/usr/bin/env python3
"""The claims ledger: one row per claim about the paper, as one JSON document.

    python3 scripts/claims.py > CLAIMS.json

Imports the package from `src/` of the checkout the script lives in and
prints a list of rows as strict JSON (no NaN or infinity, sorted keys, LF
line endings).  Each row holds the claim's `name`, its `inputs`, what was
`measured` (the table included), the `prediction` it is tested against,
the `bound`s, whether it `passed`, and the significant `digits` it
promises: a rerun must reproduce each measured number to that many digits.
A number of magnitude below 1e-9 is at rounding level (the first
integral's drift, a gap that is exactly zero) and is held to its bound
only.  It takes no options and writes no file.
"""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from yamabe.benchmarks import example_boundary_problem, subsolution_benchmark  # noqa: E402
from yamabe.example1 import (  # noqa: E402
    ExampleParams,
    VerifyThresholds,
    solve_profile,
    verify_example,
)
from yamabe.solver import (  # noqa: E402
    DEFAULT_T_SCHEDULE,
    NewtonOptions,
    check_subsolution,
    continuation_run,
    jacobian,
)

DIGITS = 6


def _row(name, inputs, measured, prediction, bound, passed):
    return {"name": name, "inputs": inputs, "measured": measured, "prediction": prediction,
            "bound": bound, "passed": bool(passed), "digits": DIGITS}


def _monitor_table(report):
    return [{"t": s.t, "sup_u": s.monitors[0], "sup_du": s.monitors[1],
             "sup_d2u": s.monitors[2], "cone_margin": s.cone_margin,
             "newton_iters": s.newton_iters} for s in report.states]


def closed_form_table():
    """Example 1's closed form over (n, k, c): d, H(d, 0), the half length
    T, u'' at the center and near the ends, and the first integral's drift."""
    pairs, cs, nodes = [[3, 2], [4, 2], [5, 3], [5, 4]], [0.0, 1.0], 401
    drift = VerifyThresholds().drift
    table, increasing = [], []
    for (n, k), c in itertools.product(pairs, cs):
        params = ExampleParams(n, k, c)
        solution = solve_profile(params, node_count=nodes)
        rows = {row.name: row for row in verify_example(solution)[1]}
        increasing.append(rows["curvature_increasing"].passed)
        table.append({"n": n, "k": k, "c": c, "d": params.d, "H0": params.h0,
                      "T": solution.t_max, "udd_center": params.center_curvature(),
                      "udd_near_end": rows["curvature_floor"].worst,
                      "curvature_ratio": rows["curvature_increasing"].worst,
                      "drift": rows["first_integral_drift"].worst})
    return _row(
        "closed_form_table", {"pairs": pairs, "c": cs, "node_count": nodes}, {"table": table},
        "Example 1 is C^1 but not smooth at the boundary: the first integral H is conserved "
        "along the computed profile (drift <= VerifyThresholds.drift) and u'' sampled at "
        "T(1 - 1e-2), T(1 - 1e-3), T(1 - 1e-4) increases towards the ends",
        {"drift": drift}, all(increasing) and all(e["drift"] <= drift for e in table))


def subsolution_uniformity():
    """The README benchmark: monitors along the default t schedule, anchored
    by a strict subsolution."""
    inputs = {"n": 4, "k": 2, "half_length": 1.0, "amplitude": 0.3, "theta": 0.5,
              "node_count": 401}
    problem = subsolution_benchmark(**inputs)
    sub = {row.name: row for row in check_subsolution(problem)[1]}
    report = continuation_run(problem)
    growth = report.monitor_growth()
    gap = min(float(np.min(s.profile.u - problem.subsolution.u)) for s in report.states)
    bound = {"growth": 2.0, "min_gap": -1e-8}
    return _row(
        "subsolution_uniformity", {**inputs, "t_schedule": list(DEFAULT_T_SCHEDULE)},
        {"min_margin": sub["margin"].worst, "min_cone_margin": sub["cone_margin"].worst,
         "table": _monitor_table(report), "growth": list(growth),
         "spread": list(report.monitor_spread()), "min_gap": gap},
        "A subsolution gives estimates uniform along the t-family: each of sup|u|, sup|u'|, "
        "sup|u''| stays within a factor 2 of its first value (growth), and u_t >= u_sub "
        "at every node",
        bound, all(row.passed for row in sub.values()) and max(growth) <= bound["growth"]
        and gap >= bound["min_gap"])


def blowup_tail():
    """Criterion 9's data: sup|u''| along the default schedule and t = 1 on
    the non-smooth Example 1 boundary problem, with no subsolution."""
    n, k, c, nodes = 5, 4, -0.5, 1001
    schedule = DEFAULT_T_SCHEDULE + (1.0,)
    problem, params, init = example_boundary_problem(n, k, c, node_count=nodes)
    report = continuation_run(problem, t_schedule=schedule, init=init)
    tail = [(s.t, s.monitors[2]) for s in report.states if 0.9 <= s.t]
    scaled = report.curvature_scaled()
    # (1 - t) sup|u''| vanishes at t = 1, so the band and the exponents leave it out
    below_one = [(t, d2u) for t, d2u in tail if t < 1.0]
    band_values = [value for t, value in scaled if 0.9 <= t < 1.0]
    band = max(band_values) / min(band_values)
    exponents = [math.log(b / a) / math.log((1.0 - s) / (1.0 - t))
                 for (s, a), (t, b) in zip(below_one, below_one[1:])]
    bound = {"band": 3.0, "exponent": [0.0, 1.0]}
    return _row(
        "blowup_tail",
        {"n": n, "k": k, "c": c, "node_count": nodes, "newton_tol": NewtonOptions().tol,
         "t_schedule": list(schedule)},
        {"T": problem.geom.half_length, "d": params.d,
         "table": [{**entry, "scaled_d2u": value}
                   for entry, (_, value) in zip(_monitor_table(report), scaled)],
         "band": band, "exponents": exponents},
        "Without a subsolution sup|u''_t| is not bounded in t: it is nondecreasing on "
        "0.9 <= t <= 1 and grows like (1 - t)^(-p) with each local exponent p in (0, 1), "
        "so (1 - t) sup|u''| stays within a band factor 3 over 0.9 <= t < 1",
        bound, band <= bound["band"] and all(a <= b for (_, a), (_, b) in zip(tail, tail[1:]))
        and all(0.0 < p < 1.0 for p in exponents))


def _monotone_entry(problem, report, **data):
    """The largest cell Peclet number max |upper - lower| / (upper + lower)
    over the interior rows of `jacobian` at each converged state of a run,
    the t where it is largest, and the range of psi_z at the interior nodes
    of those states, after the numbers in data."""
    peclet, psi_z = [], []
    states = [s for s in report.states if s.converged]
    for s in states:
        ab = jacobian(problem, s.t, s.profile)
        lower, upper = ab[2, :-2], ab[0, 2:]
        peclet.append(float((np.abs(upper - lower) / (upper + lower)).max()))
        psi_z.append(np.asarray(problem.psi_z(s.profile.grid[1:-1], s.profile.u[1:-1]), dtype=float))
    worst = int(np.argmax(peclet))
    return {**data, "node_count": problem.geom.node_count, "states": len(states),
            "max_peclet": peclet[worst], "t": states[worst].t,
            "psi_z": [min(float(z.min()) for z in psi_z), max(float(z.max()) for z in psi_z)]}


def monotone_scheme():
    """The monotonicity certificate on converged states (the sign of every
    interior off-diagonal of Newton's Jacobian): the subsolution benchmark
    to t = 1 on three grids, and Example 1 data from its closed form start
    on the default schedule at 401 nodes."""
    sub_nodes, example_nodes = [201, 401, 4001], 401
    example_data = [[4, 2, -0.5], [5, 4, -0.5], [4, 2, 0.0]]
    schedule = DEFAULT_T_SCHEDULE + (1.0,)
    measured, finished = {"subsolution": [], "example1": []}, []
    for nodes in sub_nodes:
        problem = subsolution_benchmark(node_count=nodes)
        report = continuation_run(problem, t_schedule=schedule)
        measured["subsolution"].append(_monotone_entry(problem, report))
        finished.append(report.failed_t is None)
    for n, k, c in example_data:
        problem, _, init = example_boundary_problem(n, k, c, node_count=example_nodes)
        report = continuation_run(problem, init=init)
        measured["example1"].append(_monotone_entry(problem, report, n=n, k=k, c=c))
        finished.append(report.failed_t is None)
    bound = {"max_peclet": 1.0}
    worst = max(e["max_peclet"] for entries in measured.values() for e in entries)
    return _row(
        "monotone_scheme",
        {"subsolution": {"node_count": sub_nodes, "t_schedule": list(schedule)},
         "example1": {"data": example_data, "node_count": example_nodes,
                      "t_schedule": list(DEFAULT_T_SCHEDULE)}},
        {**measured, "max_peclet": worst},
        "The centred scheme is monotone: on every converged state of each run, every run "
        "reaching the end of its schedule, the cell Peclet number max |upper - lower| / "
        "(upper + lower) of the tridiagonal Jacobian's interior rows is below 1, so every "
        "interior off-diagonal is positive",
        bound, all(finished) and worst < bound["max_peclet"])


def ledger():
    """The rows of the ledger, in the order CLAIMS.json lists them."""
    return [closed_form_table(), subsolution_uniformity(), blowup_tail(), monotone_scheme()]


def main():
    text = json.dumps(ledger(), allow_nan=False, sort_keys=True, indent=1)
    sys.stdout.buffer.write(text.encode() + b"\n")


if __name__ == "__main__":
    main()
