#!/usr/bin/env python3
"""Continuation with the non-smooth boundary data: curvature growth versus t.

Runs the t-family on the cylinder whose length and right-hand side come from
the closed-form construction, and prints sup|u''_t| together with the scaled
product (1 - t) sup|u''_t| over the schedule tail. Measured on this data,
sup|u''_t| grows like (1-t)^(-p) with p between about 0.45 and 0.58 on
t in [0.9, 0.999], more slowly than 1/(1-t): the scaled product falls by
about a factor of ten over that range and stays within a factor of about
three only over a single decade of 1 - t.
"""

import argparse

import numpy as np

from yamabe.benchmarks import example_boundary_problem
from yamabe.solver import NewtonOptions, continuation_run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--c", type=float, default=-0.5)
    ap.add_argument("--grid", type=int, default=1001)
    ap.add_argument("--t-max", type=float, default=0.99)
    args = ap.parse_args()

    problem, params, init = example_boundary_problem(args.n, args.k, args.c,
                                                     node_count=args.grid)
    h = 2 * problem.geom.half_length / (args.grid - 1)
    tol = max(1e-7, 100 * np.finfo(float).eps * (1 + abs(args.c)) * 2.0 / h ** 2)
    ramp = [t for t in np.arange(0.0, 0.86, 0.1)]
    tail = [0.9, 0.95, 0.975, args.t_max] if args.t_max > 0.975 else [0.9, 0.95, args.t_max]
    schedule = tuple(ramp + tail)

    print(f"n={args.n} k={args.k} c={args.c}  T={problem.geom.half_length:.6f}  "
          f"d={params.d:.6f}  grid={args.grid}  newton tol={tol:.1e}")
    report = continuation_run(problem, t_schedule=schedule, init=init,
                              opts=NewtonOptions(tol=tol))
    print(f"{'t':>8} {'sup|u|':>10} {'sup|du|':>10} {'sup|d2u|':>12} {'(1-t)sup|d2u|':>14} {'iters':>6}")
    for s in report.states:
        print(f"{s.t:8.4f} {s.monitors[0]:10.5f} {s.monitors[1]:10.5f} "
              f"{s.monitors[2]:12.5f} {(1 - s.t) * s.monitors[2]:14.6f} {s.newton_iters:6d}")
    scaled = [(1 - s.t) * s.monitors[2] for s in report.states if s.t >= 0.9 - 1e-12]
    if scaled:
        print(f"tail band factor (t >= 0.9): {max(scaled) / min(scaled):.3f}")


if __name__ == "__main__":
    main()
