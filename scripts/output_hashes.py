#!/usr/bin/env python3
"""Digests of the CLI output on a fixed list of configs.

    python3 scripts/output_hashes.py

Imports the package from `src/` of the checkout the script lives in, runs
each config below through `yamabe.cli.main` in a fresh temporary directory
(with a relative `out`, so the resolved config embedded in the files does
not depend on where that directory is) and prints one line per config: its
name, the exit code and the first 16 hex digits of sha256 over the sorted
`sha256sum` listing of its output directory (paths relative to it), with
the number of files.  Running it on two commits and diffing the output
checks that the CLI output is byte-identical between them; run it under
`taskset -c 0` as well to cover the one-core path of the profile writer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from yamabe import cli  # noqa: E402

README_SOLVE = {
    "n": 4, "function": {"kind": "sigma_k_root", "k": 2},
    "half_length": 1.0, "grid_size": 401,
    "psi": {"family": "subsolution_scaled", "theta": 0.5},
    "phi": "subsolution",
    "subsolution": {"family": "cosh", "amplitude": 0.3},
}


def _solve(**changes):
    return "solve", {**README_SOLVE, **changes}


def _example1_solve(n, k, c, grid_size, **changes):
    return "solve", {
        "n": n, "function": {"kind": "sigma_k_root", "k": k},
        "half_length": "example1", "grid_size": grid_size,
        "psi": {"family": "example1_rhs", "c": c},
        "phi": {"left": c, "right": c},
        "init": {"family": "example1_profile", "c": c},
        **changes,
    }


# the eight further 401-node subsolution solves: n = 3..9, both kinds
_FUNCTIONS = (
    (3, {"kind": "sigma_k_root", "k": 2}), (3, {"kind": "quotient", "k": 2, "l": 1}),
    (5, {"kind": "quotient", "k": 3, "l": 1}), (6, {"kind": "sigma_k_root", "k": 3}),
    (7, {"kind": "quotient", "k": 2, "l": 1}), (8, {"kind": "sigma_k_root", "k": 2}),
    (9, {"kind": "sigma_k_root", "k": 4}), (9, {"kind": "quotient", "k": 5, "l": 2}),
)


def _function_name(function):
    if function["kind"] == "quotient":
        return f"quotient({function['k']},{function['l']})"
    return f"sigma_{function['k']}"


CONFIGS = [
    ("README check", ("check", {"function": {"kind": "sigma_k_root", "n": 4, "k": 2},
                                "samples": 1000, "seed": 0})),
    ("README example1", ("example1", {"n": 4, "k": 2, "c": 0.0, "grid_size": 401})),
    ("README solve", _solve()),
    ("README Example 1 solve", _example1_solve(4, 2, 0.0, 401)),
    ("criterion 9 data", _example1_solve(5, 4, -0.5, 1001, newton={"tol": 1.2e-4})),
    ("4001-node subsolution", _solve(grid_size=4001, newton={"tol": 1e-7})),
    ("broken fixture", _solve(function={"kind": "sigma1_squared_broken"})),
    ("n5 sigma_3", _solve(n=5, function={"kind": "sigma_k_root", "k": 3})),
    *((f"n{n} {_function_name(f)}", _solve(n=n, function=f)) for n, f in _FUNCTIONS),
    ("seed-108 draw", _solve(grid_size=4001, newton={"tol": 1e-7},
                             psi={"family": "subsolution_scaled", "theta": 0.4783579320626279},
                             subsolution={"family": "cosh", "amplitude": 0.2480217780855284})),
    ("n3 sigma_2 cosh 0.2", _solve(n=3, subsolution={"family": "cosh", "amplitude": 0.2})),
    ("broken fixture check", ("check", {"function": {"kind": "sigma1_squared_broken", "n": 4},
                                        "samples": 1000, "seed": 0})),
    ("n4 quotient(3,1) check", ("check", {"function": {"kind": "quotient", "n": 4, "k": 3, "l": 1},
                                          "samples": 1000, "seed": 0})),
    ("example1 curvature floor 1e9", ("example1", {"n": 4, "k": 2, "c": 0.0, "grid_size": 401,
                                                   "thresholds": {"d2u_floor": 1e9}})),
    ("constant psi 100", _solve(psi={"family": "constant", "value": 100.0})),
]


def _digest(out):
    """sha256 of the sorted `sha256sum` listing of out, and the file count."""
    files = [p for p in out.rglob("*") if p.is_file()]
    listing = sorted(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out)}\n"
                     for p in files)
    return hashlib.sha256("".join(listing).encode()).hexdigest()[:16], len(files)


def main():
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for i, (name, (command, config)) in enumerate(CONFIGS):
                config = {**config, "out": f"out{i:02d}"}
                Path("config.json").write_text(json.dumps(config))
                with contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([command, "config.json"])
                digest, count = _digest(Path(config["out"]))
                print(f"{name}: exit {code}, {digest} ({count} file{'' if count == 1 else 's'})",
                      flush=True)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
