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
checks that the CLI output is byte-identical between them.  Each `solve`
config runs a second time with `cli._FORK_ROWS` out of reach, so that no
writer child is forked and every profile is written in this process; only
when that run's exit code or digest differs does its line end in
", one-core differs".
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

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


def _check(n, function):
    """`yamabe check` in the benchmark's shape: 1000 samples, 200 separation samples."""
    return "check", {"function": {"n": n, **function}, "samples": 1000,
                     "separation": {"samples": 200}, "seed": 0}


# the decay check, the one-pass scores and ESP kernels across orders and kinds
_CHECK_FUNCTIONS = (
    (3, {"kind": "sigma_k_root", "k": 3}), (5, {"kind": "sigma_k_root", "k": 2}),
    (5, {"kind": "sigma_k_root", "k": 5}), (3, {"kind": "quotient", "k": 2, "l": 1}),
    (5, {"kind": "quotient", "k": 2, "l": 1}),
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
    ("4001-node subsolution", _solve(grid_size=4001, newton={"tol": 1e-7})),
    ("n5 sigma_3", _solve(n=5, function={"kind": "sigma_k_root", "k": 3})),
    *((f"n{n} {_function_name(f)}", _solve(n=n, function=f)) for n, f in _FUNCTIONS),
    ("seed-108 draw", _solve(grid_size=4001, newton={"tol": 1e-7},
                             psi={"family": "subsolution_scaled", "theta": 0.4783579320626279},
                             subsolution={"family": "cosh", "amplitude": 0.2480217780855284})),
    ("n3 sigma_2 cosh 0.2", _solve(n=3, subsolution={"family": "cosh", "amplitude": 0.2})),
    ("n4 quotient(3,1) check", ("check", {"function": {"kind": "quotient", "n": 4, "k": 3, "l": 1},
                                          "samples": 1000, "seed": 0})),
    ("example1 curvature floor 1e9", ("example1", {"n": 4, "k": 2, "c": 0.0, "grid_size": 401,
                                                   "thresholds": {"d2u_floor": 1e9}})),
    ("constant psi 100", _solve(psi={"family": "constant", "value": 100.0})),
    *((f"n{n} {_function_name(f)} check", _check(n, f)) for n, f in _CHECK_FUNCTIONS),
    ("README solve to t = 1", _solve(t_schedule=[0.0, 0.5, 0.9, 0.99, 1.0], newton={"tol": 1e-7})),
    ("README Example 1 solve, constant init",
     _example1_solve(4, 2, 0.0, 401, init={"family": "constant", "value": 0.0})),
    # no floating-point Example 1 data at n c = 18: config errors, no output
    ("example1 c = 3 at (6, 3)", ("example1", {"n": 6, "k": 3, "c": 3.0, "grid_size": 401})),
    ("Example 1 solve c = 3 at (6, 3)", _example1_solve(6, 3, 3.0, 401)),
    # the default Newton tol, below the residual's rounding floor on both grids
    ("4001-node subsolution, default tol", _solve(grid_size=4001)),
    ("criterion 9 data, default tol", _example1_solve(5, 4, -0.5, 1001)),
    # the verification beyond the README grid: one passing, one with failing rows
    ("example1 (5, 4, -0.5) on 1001 nodes",
     ("example1", {"n": 5, "k": 4, "c": -0.5, "grid_size": 1001})),
    ("example1 (3, 2, 1.0) on 2001 nodes",
     ("example1", {"n": 3, "k": 2, "c": 1.0, "grid_size": 2001})),
    # every node outside the cone: no finite subsolution margin, written as null
    ("101-node linear subsolution, constant psi",
     _solve(grid_size=101, subsolution={"family": "linear", "slope": 2.0},
            psi={"family": "constant", "value": 1.0})),
    # roots of degree 10 and 8, whose growth and decay bounds follow the
    # degree, and a suite that raises (sigma_1 has no separated normals),
    # whose report keeps the rows of the suites before it
    ("check sigma_10 at n = 10", ("check", {"function": {"kind": "sigma_k_root", "n": 10, "k": 10}})),
    ("check sigma_8 at n = 8", ("check", {"function": {"kind": "sigma_k_root", "n": 8, "k": 8}})),
    ("check sigma_1 at n = 3", ("check", {"function": {"kind": "sigma_k_root", "n": 3, "k": 1}})),
    # beyond n = 5 in the benchmark's shape: the degree-8 decay bound, and a
    # quotient whose ESP columns run past its order
    *((f"n{n} {_function_name(f)} check", _check(n, f)) for n, f in (
        (8, {"kind": "sigma_k_root", "k": 8}), (6, {"kind": "quotient", "k": 4, "l": 2}))),
    # a homogeneity gap of 1.17e-12 near the cone boundary, within its
    # sample's bound; it failed the fixed bound 1e-12 (exit 1)
    ("n4 quotient(2,1) check, seed 776354507",
     ("check", {**_check(4, {"kind": "quotient", "k": 2, "l": 1})[1], "seed": 776354507})),
    # an orbit of 109 integrator steps near the separatrix, whose
    # verification fails (exit 1)
    ("example1 (5, 3, 3.0) on 4001 nodes",
     ("example1", {"n": 5, "k": 3, "c": 3.0, "grid_size": 4001})),
    # psi = e^800 overflows at the constant start -400: a start whose
    # residual is not finite is an error (exit 1), reported at t = 0
    ("criterion 9 data on 101 nodes, constant init -400",
     _example1_solve(5, 4, -0.5, 101, init={"family": "constant", "value": -400.0})),
    # grids too fine for finite stencil weights: config errors, no output
    ("README solve, half length 1e-300", _solve(half_length=1e-300)),
    ("Example 1 solve c = -100 at (4, 2)", _example1_solve(4, 2, -100.0, 401)),
    ("example1 c = -100 at (4, 2)", ("example1", {"n": 4, "k": 2, "c": -100.0, "grid_size": 401})),
]


# The reports embed the resolved config with its relative `out`, out<number>.
# The numbers of configs dropped from the list stay unused, so that each
# remaining config prints the same line as on older commits.
_DROPPED = (4, 6, 18)


def _out_numbers():
    return (i for i in itertools.count() if i not in _DROPPED)


def _digest(out):
    """sha256 of the sorted `sha256sum` listing of out, and the file count."""
    files = [p for p in out.rglob("*") if p.is_file()]
    listing = sorted(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out)}\n"
                     for p in files)
    return hashlib.sha256("".join(listing).encode()).hexdigest()[:16], len(files)


def _run(command, config):
    """The exit code, digest and file count of one CLI run in the current
    directory, whose output directory is removed afterwards."""
    Path("config.json").write_text(json.dumps(config))
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "config.json"])
    out = Path(config["out"])
    digest, count = _digest(out)
    shutil.rmtree(out, ignore_errors=True)
    return code, digest, count


def _run_in_one_process(command, config):
    """_run with no writer child: no stream reaches cli._FORK_ROWS."""
    with mock.patch.object(cli, "_FORK_ROWS", math.inf):
        return _run(command, config)


def main():
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for i, (name, (command, config)) in zip(_out_numbers(), CONFIGS):
                config = {**config, "out": f"out{i:02d}"}
                code, digest, count = result = _run(command, config)
                line = f"{name}: exit {code}, {digest} ({count} file{'' if count == 1 else 's'})"
                if command == "solve" and _run_in_one_process(command, config) != result:
                    line += ", one-core differs"
                print(line, flush=True)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
