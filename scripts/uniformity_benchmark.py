#!/usr/bin/env python3
"""Subsolution-anchored continuation: monitors stay bounded along the family.

Builds the benchmark with psi a fixed fraction of the curvature function of a
convex profile (which is then a strict subsolution), runs the default t
schedule and prints the monitor table plus the growth factors relative to the
first solve.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from yamabe.benchmarks import subsolution_benchmark  # noqa: E402
from yamabe.solver import check_subsolution, continuation_run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--amplitude", type=float, default=0.3)
    ap.add_argument("--theta", type=float, default=0.5)
    ap.add_argument("--half-length", type=float, default=1.0)
    ap.add_argument("--grid", type=int, default=401)
    args = ap.parse_args()

    problem = subsolution_benchmark(n=args.n, k=args.k, half_length=args.half_length,
                                    amplitude=args.amplitude, theta=args.theta,
                                    node_count=args.grid)
    sub = check_subsolution(problem)
    print(f"subsolution check: {'pass' if sub.passed else 'FAIL'} "
          f"(min margin {sub.min_margin:.4f}, cone margin {sub.min_cone_margin:.4f})")

    report = continuation_run(problem)
    print(f"{'t':>8} {'sup|u|':>10} {'sup|du|':>10} {'sup|d2u|':>10} {'margin':>10} {'iters':>6}")
    for s in report.states:
        print(f"{s.t:8.4f} {s.monitors[0]:10.5f} {s.monitors[1]:10.5f} "
              f"{s.monitors[2]:10.5f} {s.cone_margin:10.2e} {s.newton_iters:6d}")
    g = report.monitor_growth()
    spread = report.monitor_spread()
    print(f"growth vs first solve: sup|u| {g[0]:.3f}, sup|du| {g[1]:.3f}, sup|d2u| {g[2]:.3f}")
    print(f"max/min spread:        sup|u| {spread[0]:.3f}, sup|du| {spread[1]:.3f}, "
          f"sup|d2u| {spread[2]:.3f}")
    gap = min(float(np.min(s.profile.u - problem.subsolution.u)) for s in report.states)
    print(f"min nodewise (u_t - subsolution): {gap:.3e}")


if __name__ == "__main__":
    main()
