#!/usr/bin/env python3
"""Continuation with the non-smooth boundary data: curvature growth versus t.

Runs the t-family on the cylinder whose length and right-hand side come from
the closed-form construction, and prints sup|u''_t| together with the scaled
product (1 - t) sup|u''_t| over the schedule tail. Measured on this data,
sup|u''_t| grows like (1-t)^(-p) with p between about 0.45 and 0.58 on
t in [0.9, 0.999], more slowly than 1/(1-t): the scaled product falls by
about a factor of ten over that range and stays within a factor of about
three only over a single decade of 1 - t.

The schedule is the solver's DEFAULT_T_SCHEDULE up to --t-max, which ends
it; the default 0.99 gives that schedule itself, the one acceptance
criterion 9 runs.  At t = 1 the scaled product is zero, so the tail band
factor covers 0.9 <= t < 1.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from yamabe.benchmarks import example_boundary_problem  # noqa: E402
from yamabe.solver import DEFAULT_T_SCHEDULE, NewtonOptions, continuation_run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--c", type=float, default=-0.5)
    ap.add_argument("--grid", type=int, default=1001)
    ap.add_argument("--t-max", type=float, default=0.99,
                    help="last t, in (0, 1]; the schedule is the default one below it")
    args = ap.parse_args()
    if not 0.0 < args.t_max <= 1.0:
        ap.error(f"--t-max must lie in (0, 1], got {args.t_max}")

    problem, params, init = example_boundary_problem(args.n, args.k, args.c,
                                                     node_count=args.grid)
    schedule = tuple(t for t in DEFAULT_T_SCHEDULE if t < args.t_max) + (args.t_max,)

    print(f"n={args.n} k={args.k} c={args.c}  T={problem.geom.half_length:.6f}  "
          f"d={params.d:.6f}  grid={args.grid}  newton tol={NewtonOptions().tol:.1e} "
          f"or the residual's rounding floor")
    report = continuation_run(problem, t_schedule=schedule, init=init)
    print(f"{'t':>8} {'sup|u|':>10} {'sup|du|':>10} {'sup|d2u|':>12} {'(1-t)sup|d2u|':>14} {'iters':>6}")
    for s in report.states:
        print(f"{s.t:8.4f} {s.monitors[0]:10.5f} {s.monitors[1]:10.5f} "
              f"{s.monitors[2]:12.5f} {(1 - s.t) * s.monitors[2]:14.6f} {s.newton_iters:6d}")
    # (1 - t) sup|u''| vanishes at t = 1, so the band leaves it out
    scaled = [(1 - s.t) * s.monitors[2] for s in report.states if 0.9 <= s.t < 1.0]
    if scaled:
        print(f"tail band factor (0.9 <= t < 1): {max(scaled) / min(scaled):.3f}")


if __name__ == "__main__":
    main()
