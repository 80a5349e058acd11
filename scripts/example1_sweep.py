#!/usr/bin/env python3
"""Tabulate the closed-form construction over a (n, k, c) sweep.

For each parameter set: the center value d, the conserved value H(d,0), the
half length T, the center curvature and the curvature sampled near the ends
(the non-smoothness witness). Prints a table and optionally writes it as CSV.
"""

import argparse
import csv
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from yamabe.example1 import ExampleParams, solve_profile, verify_example  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", default="3,2;4,2;5,3;5,4",
                    help="semicolon-separated n,k pairs")
    ap.add_argument("--c", default="0.0,1.0", help="comma-separated boundary values")
    ap.add_argument("--grid", type=int, default=401)
    ap.add_argument("--csv", help="optional output CSV path")
    args = ap.parse_args()

    pairs = [tuple(int(v) for v in p.split(",")) for p in args.pairs.split(";")]
    cs = [float(v) for v in args.c.split(",")]

    rows = []
    for n, k in pairs:
        for c in cs:
            params = ExampleParams(n, k, c)
            sol = solve_profile(params, node_count=args.grid)
            rep = verify_example(sol)
            rows.append({
                "n": n, "k": k, "c": c,
                "d": params.d, "H0": params.h0, "T": sol.t_max,
                "udd_center": params.center_curvature(),
                "udd_near_end": rep.d2u_samples[-1],
                "curvature_ratio": rep.d2u_last_over_first,
                "drift": rep.max_drift,
            })

    header = list(rows[0].keys())
    widths = [max(len(h), 12) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(
            (f"{r[h]:.6g}" if isinstance(r[h], float) else str(r[h])).ljust(w)
            for h, w in zip(header, widths)))

    if args.csv:
        with open(args.csv, "w", newline="\n") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}", file=sys.stderr)


if __name__ == "__main__":
    main()
