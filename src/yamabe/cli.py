"""Command line front end: config-driven experiment runs with archivable output.

Three subcommands, each taking a single JSON config path:

    yamabe check    <config.json>   structural suites for a symmetric function
    yamabe example1 <config.json>   closed-form non-smooth profile + verification
    yamabe solve    <config.json>   continuation solve of a Dirichlet problem

Exit codes: 0 pass, 1 domain/check failure, 2 config error, 3 partial
convergence.  --out, --seed and --verbose override the config.  A command
reads the types of its whole config (unknown keys rejected), and reports a
ValueError or NumericalError of the library, which states every rule of the
data once, as a config error (_checked), before it makes the output
directory; _out_dir removes the files of an earlier run.  Output files embed the resolved config
and a format version line, use 17 significant digits and LF line endings, so
identical configs produce byte-identical files.  `solve` writes its profiles
while the continuation goes on, in a forked writer or in this process,
which changes no byte (_ProfileStream), and with --verbose prints the line
of each t as that t converges.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import mmap
import os
import sys
import time
from pathlib import Path

import numpy as np

from ._errors import (
    ConeDomainError,
    ConeViolationError,
    ConfigError,
    ContinuationError,
    NewtonError,
    NumericalError,
    YamabeError,
)
from . import _format, benchmarks, example1, solver, symfun
from .geometry import CylinderGeometry

FORMAT_VERSION = "yamabe/1"


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _check_keys(mapping, allowed, context):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: expected an object")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


def _need(mapping, key, context):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _as_int(value, context, lo=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{context}: must be >= {lo}, got {value}")
    return value


def _as_real(value, context):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{context}: expected a finite number, got {value!r}")
    return float(value)


def _checked(context, call, *args, **kwargs):
    """call(*args, **kwargs), a library call on config data, with its
    ValueError or NumericalError a ConfigError naming context: the one place
    where a library error becomes a config error.  A ConeDomainError passes
    through, for cmd_solve to report."""
    try:
        return call(*args, **kwargs)
    except ConeDomainError:
        raise
    except (NumericalError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _run_keys(config, out):
    """The resolved out, seed and verbose of a config, with `out` the
    default output directory."""
    out = config.get("out", out)
    if not isinstance(out, str) or not out:
        raise ConfigError(f"out: expected a non-empty string, got {out!r}")
    verbose = config.get("verbose", False)
    if not isinstance(verbose, bool):
        raise ConfigError(f"verbose: expected true or false, got {verbose!r}")
    return {"out": out, "seed": _as_int(config.get("seed", 0), "seed", lo=0), "verbose": verbose}


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return data


def _function_spec(cfg):
    """The SymFuncSpec of a function entry; the spec checks the kind and the
    ranges of n, k and l."""
    _check_keys(cfg, {"kind", "n", "k", "l"}, "function")
    kind = _need(cfg, "kind", "function")
    n = _as_int(_need(cfg, "n", "function"), "function.n")
    k, l = (_as_int(cfg[key], f"function.{key}") if key in cfg else None for key in ("k", "l"))
    return _checked("function", symfun.SymFuncSpec, kind, n, k, l)


# the keys each family reads beside "family"
_PROFILE_KEYS = {"cosh": {"amplitude", "offset"}, "linear": {"slope", "offset"}, "constant": {"value"}}
_PSI_KEYS = {"subsolution_scaled": {"theta"}, "example1_rhs": {"c"}, "constant": {"value"}}


def _family(cfg, families, context):
    """The family cfg names, one of `families`; cfg may hold only its keys."""
    _check_keys(cfg, {"family"}.union(*families.values()), context)
    family = _need(cfg, "family", context)
    if family not in list(families):
        raise ConfigError(f"{context}.family: unknown family {family!r}")
    _check_keys(cfg, {"family", *families[family]}, context)
    return family


def _profile_family(cfg, context):
    family = _family(cfg, _PROFILE_KEYS, context)
    if family == "cosh":
        amp = _as_real(_need(cfg, "amplitude", context), f"{context}.amplitude")
        off = _as_real(cfg.get("offset", 0.0), f"{context}.offset")
        return benchmarks.cosh_profile(amp, off)
    if family == "linear":
        slope = _as_real(_need(cfg, "slope", context), f"{context}.slope")
        off = _as_real(cfg.get("offset", 0.0), f"{context}.offset")
        return benchmarks.linear_profile(slope, off)
    return benchmarks.constant_profile(_as_real(_need(cfg, "value", context), f"{context}.value"))


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _header(kind, resolved):
    """The format and config lines that open a CSV file of this kind."""
    config = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return [f"# format {FORMAT_VERSION} {kind}", f"# config {config}"]


def _write_profile_rows(path, resolved, comments, grid_cells, columns):
    """One row per node: the grid, from its Cells (_format.cells), then the
    columns u, du, d2u and residual, each value as '%.17g' formats it.  A
    4001-row profile takes 5-8 ms to format and write against 10-19 ms with
    Python's per-row formatting (2-core Xeon)."""
    head = [*_header("profile", resolved), *comments, "x,u,du,d2u,residual"]
    with open(path, "wb") as f:
        f.write(("\n".join(head) + "\n").encode())
        for chunk in _format.csv_rows(grid_cells, columns):
            f.write(chunk)


# Profile rows from which the stream forks its writer child.  A fork costs
# the parent copy-on-write faults on its own working set, not contention
# between cores: on the README solve at 4001 nodes (Newton tol 1e-7, 2-core
# Xeon) the parent took about 2800 minor faults per solve with a writer child
# against 410 alone, and its continuation 52 against 42 ms (medians of 10
# runs of scripts/bench.py, its `minor_faults_self` and `continuation_ms`).
# The README solve (13 profiles, Newton tol 1e-7, medians of 8 alternating
# rounds of 20 solves, 6 at 1201 to 2401 nodes) took 59.0 ms in one process
# and 84.2 ms in two at 201 nodes, 69.4 and 89.8 ms at 401, 85.9 and 103.5
# at 801, 111 and 116 at 1201, 126 and 130 at 1601, 169 and 141 at 2401, 241
# and 165 at 4001: a second writer pays from about 2000 nodes, 26000 rows.
# Every timing comes from a 2-core host, so the stream forks one child or
# none: a second child was never measured.
_FORK_ROWS = 26000


class _ProfileStream:
    """Calls write(i, table[i]) for every slot i that add() fills, while the
    caller goes on computing the next ones.

    The table is an anonymous shared mmap of `shape`, one slot of 4 columns
    per state.  add() fills the next slot and writes its index (4 bytes) to
    a pipe without blocking, or writes the job here when the pipe is full.
    One writer child is forked at once where os.fork and CPU affinity exist,
    this process may run on two or more cores and the table holds at least
    _FORK_ROWS rows (shape[0] * shape[2]).  The child reads an index
    whenever it is free: it makes no BLAS call and takes no lock that
    another thread may hold at the fork.  finish() closes the write end,
    drains the pipe here beside the child and waits for it; if it failed,
    every job is written again here, so that its error surfaces with its
    own message.  With no child every job is written here.  As a context
    manager, the stream waits for its child on error paths too.
    """

    def __init__(self, write, shape):
        self.write, self.added = write, 0
        self.table = np.ndarray(shape, buffer=mmap.mmap(-1, 8 * int(np.prod(shape))))
        self.read_end, self.write_end = os.pipe()
        os.set_blocking(self.write_end, False)
        self.child = None
        if (shape[0] * shape[2] >= _FORK_ROWS and hasattr(os, "fork")
                and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2):
            with contextlib.suppress(OSError):
                self.child = os.fork()
            if self.child == 0:
                try:
                    # the parent alone keeps the write end, so that the
                    # child reads the end of the pipe once it closes or dies
                    os.close(self.write_end)
                    self._drain()
                    os._exit(0)
                finally:
                    os._exit(1)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.write_end is not None:      # finish() has not run
            os.close(self.write_end)
        self._wait()
        os.close(self.read_end)

    def add(self, columns):
        i = self.added
        self.table[i] = columns
        self.added += 1
        try:
            os.write(self.write_end, i.to_bytes(4, sys.byteorder))
        except BlockingIOError:     # the pipe is full
            self.write(i, self.table[i])

    def _drain(self):
        """Write the job of each index read from the pipe, up to its end."""
        while index := os.read(self.read_end, 4):
            i = int.from_bytes(index, sys.byteorder)
            self.write(i, self.table[i])

    def finish(self):
        """Write every added job and wait for the child."""
        os.close(self.write_end)        # the readers drain the pipe and stop
        self.write_end = None
        self._drain()
        if self._wait():
            for i in range(self.added):
                self.write(i, self.table[i])

    def _wait(self):
        """Wait for the child; true if it failed."""
        child, self.child = self.child, None
        return child is not None and os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) != 0


def _write_monitors_csv(path, resolved, states):
    lines = [*_header("monitors", resolved),
             "t,sup_u,sup_du,sup_d2u,residual_norm,cone_margin,newton_iters"]
    lines += ["%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d"
              % (s.t, *s.monitors, s.residual_norm, s.cone_margin, s.newton_iters) for s in states]
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _check_rows(prefix, results):
    """The report.json rows of the library's CheckResults, names prefixed."""
    return [{"name": prefix + c.name, "status": "pass" if c.passed else "fail",
             "value": c.worst, "threshold": c.threshold} for c in results]


def _write_report(path, resolved, checks, extra=None):
    """Write report.json and return its verdict `passed`, the one rule of
    every command: no "error" entry in extra, and every row passing."""
    extra = extra or {}
    passed = "error" not in extra and all(c["status"] == "pass" for c in checks)
    doc = {
        "format_version": FORMAT_VERSION,
        "config": resolved,
        "checks": checks,
        "passed": passed,
        **extra,
    }
    # NaN and +-inf, which strict JSON lacks, are written as null
    doc = json.loads(json.dumps(doc), parse_constant=lambda name: None)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", newline="\n")
    return passed


_OUTPUT_NAMES = ("report.json", "profile.csv", "monitors.csv", "profile_*_t*.csv")


def _out_dir(resolved):
    """The output directory, without the files of an earlier run, of any
    command: a run that stops on an error leaves no report.json behind, and
    no file of another run passes for its own.  Only regular files go."""
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    for name in _OUTPUT_NAMES:
        for path in out.glob(name):
            if path.is_file():
                path.unlink()
    return out


# ---------------------------------------------------------------------------
# check command
# ---------------------------------------------------------------------------

_CHECK_KEYS = {"function", "samples", "seed", "ball", "separation", "out", "verbose"}


def cmd_check(config):
    _check_keys(config, _CHECK_KEYS, "config")
    spec = _function_spec(_need(config, "function", "config"))
    samples = _as_int(config.get("samples", 1000), "samples")
    ball_cfg = config.get("ball", {})
    _check_keys(ball_cfg, {"t_values", "directions"}, "ball")
    t_values = ball_cfg.get("t_values", list(symfun.DEFAULT_BALL_T_VALUES))
    if not isinstance(t_values, list):
        raise ConfigError("ball.t_values: expected a list of numbers")
    t_values = tuple(_as_real(t, "ball.t_values") for t in t_values)
    directions = _as_int(ball_cfg.get("directions", 1000), "ball.directions")
    sep_cfg = config.get("separation", {})
    _check_keys(sep_cfg, {"samples", "beta"}, "separation")
    sep_samples = _as_int(sep_cfg.get("samples", 2000), "separation.samples")
    beta = _as_real(sep_cfg.get("beta", 0.2), "separation.beta")
    # each suite's own input check, before any work
    _checked("samples", symfun.check_suite_inputs, sample_count=samples)
    _checked("ball", symfun.check_suite_inputs, t_values=t_values, directions=directions)
    _checked("separation", symfun.check_suite_inputs, samples=sep_samples, beta=beta)
    resolved = {
        "command": "check",
        "function": config["function"],
        "samples": samples,
        "ball": {"t_values": list(t_values), "directions": directions},
        "separation": {"samples": sep_samples, "beta": beta},
        **_run_keys(config, "results/check"),
    }
    seed = resolved["seed"]
    out = _out_dir(resolved)

    # a suite that raises ends the run with the rows of those before it, an
    # error entry and passed false
    checks, extra = [], {"label": spec.label}
    try:
        checks += _check_rows("structure.", symfun.verify_structure(spec, sample_count=samples,
                                                                    seed=seed))
        classification = symfun.classify_type(spec)
        extra["classification"] = {"cone_type": classification.cone_type,
                                   "f_type": classification.f_type}
        checks += _check_rows("ball.", symfun.interpolation_ball_report(
            spec, t_values=t_values, directions=directions, seed=seed))
        checks += _check_rows("separation.", symfun.concavity_margin_suite(
            spec, samples=sep_samples, beta=beta, seed=seed))
    except YamabeError as exc:
        extra["error"] = str(exc)
        print(f"error: {exc}", file=sys.stderr)
    passed = _write_report(out / "report.json", resolved, checks, extra=extra)
    if resolved["verbose"]:
        for c in checks:
            print(f"{c['name']}: {c['status']} (value {c['value']:.17g})", file=sys.stderr)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# example1 command
# ---------------------------------------------------------------------------

_EXAMPLE_KEYS = {"n", "k", "c", "grid_size", "thresholds", "out", "seed", "verbose"}


def cmd_example1(config):
    """Run `yamabe example1`.  The library's errors on (n, k, c) and while
    building the profile are config errors (_checked), met before the
    output directory is touched."""
    _check_keys(config, _EXAMPLE_KEYS, "config")
    n = _as_int(_need(config, "n", "config"), "n")
    k = _as_int(_need(config, "k", "config"), "k")
    c = _as_real(_need(config, "c", "config"), "c")
    grid_size = _as_int(config.get("grid_size", 401), "grid_size")
    th_cfg = config.get("thresholds", {})
    names = [f.name for f in dataclasses.fields(example1.VerifyThresholds)]
    _check_keys(th_cfg, names, "thresholds")
    defaults = example1.VerifyThresholds()
    thresholds = example1.VerifyThresholds(**{
        name: _as_real(th_cfg.get(name, getattr(defaults, name)), f"thresholds.{name}")
        for name in names})
    resolved = {
        "command": "example1", "n": n, "k": k, "c": c, "grid_size": grid_size,
        "thresholds": dataclasses.asdict(thresholds),
        **_run_keys(config, "results/example1"),
    }
    params = _checked("config", example1.ExampleParams, n, k, c)
    solution = _checked("config", example1.solve_profile, params, node_count=grid_size)
    out = _out_dir(resolved)

    residual, rows = example1.verify_example(solution, thresholds=thresholds)

    derived = {
        "d": params.d,
        "c": params.c,
        "h0": params.h0,
        "half_length": solution.t_max,
        "boundary_value": params.boundary_value,
    }
    profile = solution.profile
    _write_profile_rows(
        out / "profile.csv", resolved,
        ["# derived " + json.dumps({k2: float(v) for k2, v in derived.items()}, sort_keys=True)],
        _format.cells(profile.grid), (profile.u, profile.du, profile.d2u, residual),
    )

    passed = _write_report(out / "report.json", resolved, _check_rows("", rows),
                           extra={"derived": derived})
    if resolved["verbose"]:
        print(f"d={params.d:.17g} T={solution.t_max:.17g}", file=sys.stderr)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# solve command
# ---------------------------------------------------------------------------

_SOLVE_KEYS = {"n", "function", "half_length", "grid_size", "t_schedule", "psi", "phi",
               "subsolution", "init", "newton", "uniformity_factor", "out", "seed", "verbose"}


def _parse_solve(config):
    """Read a solve config: check every key's type and presence, and raise
    the config errors of the library's rules that need no computation.
    Returns the resolved document and `build`, which computes the
    DirichletProblem (benchmarks.dirichlet_problem) and the init profile
    (or None); cmd_solve calls it through _checked.  build raises
    ConeDomainError, with the minimum cone margin score, when psi is built
    on a subsolution that leaves the cone.  The geometry is built first,
    then psi, so a grid error is a config error whatever the subsolution,
    and so is theta, checked before psi samples the subsolution."""
    _check_keys(config, _SOLVE_KEYS, "config")
    n = _as_int(_need(config, "n", "config"), "n")
    function = _need(config, "function", "config")
    spec = _function_spec({"n": n, **function} if isinstance(function, dict) else function)
    if spec.n != n:
        raise ConfigError("function.n: must equal n")
    grid_size = _as_int(config.get("grid_size", 401), "grid_size")

    # psi_of(L) is the pair (psi, psi_z) on [-L, L], of the subsolution read below
    psi_cfg = _need(config, "psi", "config")
    psi_family = _family(psi_cfg, _PSI_KEYS, "psi")
    if psi_family == "subsolution_scaled":
        theta = _as_real(psi_cfg.get("theta", 0.5), "psi.theta")
        psi_of = lambda ell: benchmarks.subsolution_scaled_psi(spec, subsolution, ell, theta)
    elif psi_family == "example1_rhs":
        c = _as_real(_need(psi_cfg, "c", "psi"), "psi.c")
        example = _checked("psi", example1.ExampleParams, n, spec.k, c)
        example_psi = _checked("psi", benchmarks.example1_rhs_psi, spec, example)
        psi_of = lambda ell: example_psi
    else:
        value = _as_real(_need(psi_cfg, "value", "psi"), "psi.value")
        psi_of = lambda ell: benchmarks.constant_psi(value)

    half_length = _need(config, "half_length", "config")
    if half_length == "example1":
        if psi_family != "example1_rhs":
            raise ConfigError("half_length: 'example1' requires psi.family example1_rhs")
        ell_of = lambda: example1.half_length(example)
    else:
        half_length = _as_real(half_length, "half_length")
        ell_of = lambda: half_length

    subsolution = None
    if "subsolution" in config:
        subsolution = _profile_family(config["subsolution"], "subsolution")
    elif psi_family == "subsolution_scaled":
        raise ConfigError("psi.family subsolution_scaled requires a subsolution")

    # a subsolution takes the boundary values, so it sets them
    phi = config.get("phi", "subsolution")
    boundary = None
    if phi == "subsolution":
        if subsolution is None:
            raise ConfigError("phi: 'subsolution' requires a subsolution")
    else:
        _check_keys(phi, {"left", "right"}, "phi")
        if subsolution is not None:
            raise ConfigError("phi: with a subsolution, phi must be 'subsolution'")
        boundary = (_as_real(_need(phi, "left", "phi"), "phi.left"),
                    _as_real(_need(phi, "right", "phi"), "phi.right"))

    # start() is the geometry and the init profile on it (None without init)
    start = lambda: (CylinderGeometry(ell_of(), grid_size), None)
    if "init" in config:
        init_cfg = config["init"]
        if _family(init_cfg, {**_PROFILE_KEYS, "example1_profile": {"c"}}, "init") == "example1_profile":
            if half_length != "example1" or _as_real(_need(init_cfg, "c", "init"), "init.c") != example.c:
                raise ConfigError("init example1_profile requires half_length 'example1' "
                                  "and init.c equal to psi.c")
            def start():    # its geometry comes with the profile
                solution = example1.solve_profile(example, node_count=grid_size)
                return solution.profile.geom, solution.profile
        else:
            init_u = _profile_family(init_cfg, "init")[0]
            def start():
                geom = CylinderGeometry(ell_of(), grid_size)
                return geom, geom.profile(init_u)
    elif subsolution is None:
        raise ConfigError("solve needs a subsolution or an init profile")

    schedule = config.get("t_schedule")
    if schedule is not None:
        if not isinstance(schedule, list):
            raise ConfigError("t_schedule: expected a list of numbers")
        schedule = [_as_real(t, "t_schedule") for t in schedule]
    schedule = _checked("t_schedule", solver.check_t_schedule, schedule)
    factor = _as_real(config.get("uniformity_factor", 2.0), "uniformity_factor")
    if not factor >= 1.0:   # each monitor's growth is at least 1, its first value's
        raise ConfigError(f"uniformity_factor must be >= 1, got {factor}")
    newton_cfg = config.get("newton", {})
    _check_keys(newton_cfg, {"tol", "max_iter"}, "newton")
    defaults = solver.NewtonOptions()
    newton = {"tol": _as_real(newton_cfg.get("tol", defaults.tol), "newton.tol"),
              "max_iter": _as_int(newton_cfg.get("max_iter", defaults.max_iter), "newton.max_iter")}
    _checked("newton", solver.NewtonOptions, **newton)
    resolved = {
        "command": "solve", "n": n, "function": function, "half_length": half_length,
        "grid_size": grid_size, "t_schedule": list(schedule), "psi": psi_cfg, "phi": phi,
        "subsolution": config.get("subsolution"), "init": config.get("init"), "newton": newton,
        "uniformity_factor": factor,
        **_run_keys(config, "results/solve"),
    }

    def build():
        geom, init = start()
        return benchmarks.dirichlet_problem(spec, geom, psi_of(geom.half_length),
                                            subsolution, boundary), init

    return resolved, build


def cmd_solve(config):
    resolved, build = _parse_solve(config)
    schedule, verbose = resolved["t_schedule"], resolved["verbose"]
    try:
        problem, init_profile = _checked("config", build)
    except ConeDomainError as exc:      # psi is f on the subsolution, outside the cone
        checks = _check_rows("subsolution.", [solver.cone_margin_check(exc.min_score)])
        _write_report(_out_dir(resolved) / "report.json", resolved, checks,
                      extra={"error": str(exc)})
        if verbose:
            print(f"subsolution outside the cone: {exc}", file=sys.stderr)
        return 1
    opts = solver.NewtonOptions(**resolved["newton"])
    out = _out_dir(resolved)

    checks = []
    anchored = problem.subsolution is not None
    if anchored:
        _, rows = solver.check_subsolution(problem)
        checks = _check_rows("subsolution.", rows)
        if not all(row.passed for row in rows):
            _write_report(out / "report.json", resolved, checks)
            return 1

    # The profiles are written while the continuation runs: each state goes
    # to the stream as soon as it has converged (see _ProfileStream).
    started = time.perf_counter()
    grid_cells = _format.cells(problem.geom.stencils.grid)

    def write_profile(i, columns):
        t = schedule[i]
        _write_profile_rows(out / f"profile_{i:03d}_t{t:.6f}.csv", resolved,
                            [f"# t {t:.17g}"], grid_cells, columns)

    states, failure = [], None
    m = problem.geom.node_count
    with _ProfileStream(write_profile, (len(schedule), 4, m)) as stream:
        try:
            for s in solver.continuation_states(problem, schedule, opts, init_profile):
                stream.add((s.profile.u, s.profile.du, s.profile.d2u, s.residual))
                states.append(s)
                if verbose:
                    print(f"t={s.t:.6g} newton_iters={s.newton_iters} residual={s.residual_norm:.3e} "
                          f"cone_margin={s.cone_margin:.3e}", file=sys.stderr)
        except ContinuationError as exc:
            failure = exc
            if verbose:
                print(f"t={exc.t_failed:.6g} failed: {exc.__cause__}", file=sys.stderr)
        solved = time.perf_counter()
        _write_monitors_csv(out / "monitors.csv", resolved, states)
        stream.finish()
    report = solver.ContinuationReport(states=states,
                                       failed_t=None if failure is None else failure.t_failed)
    failed_t = report.failed_t

    # Newton giving up, or a warm start no blend brings back into the cone,
    # is partial convergence (exit 3); any other cause, a failed Jacobian
    # check, is an error (exit 1), reported with the states solved before it.
    # Either way the report names the cause.
    partial = failure is None or isinstance(failure.__cause__, (NewtonError, ConeViolationError))
    extra = {"failed_t": failed_t}
    if failure is not None:
        extra["error"] = str(failure.__cause__)
    if not partial:
        print(f"error: {failure.__cause__}", file=sys.stderr)
    if states:
        extra["monitor_growth"] = list(report.monitor_growth())
        extra["monitor_spread"] = list(report.monitor_spread())
        extra["curvature_scaled"] = [[t, v] for t, v in report.curvature_scaled()]
    checks += _check_rows("continuation.", report.checks(
        resolved["uniformity_factor"] if anchored else None))
    passed = _write_report(out / "report.json", resolved, checks, extra=extra)
    if verbose:
        print(f"continuation {solved - started:.4f} s, output {time.perf_counter() - solved:.4f} s "
              f"after the last t", file=sys.stderr)
    if failed_t is not None and partial:
        return 3
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _parser():
    """The argument parser, built once per process: building it takes about
    20 times as long as a parse (0.8 against 0.035 ms on a 2-core Xeon)."""
    parser = argparse.ArgumentParser(
        prog="yamabe",
        description="Experiments for fully nonlinear Yamabe-type Dirichlet problems "
                    "on the round cylinder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "example1", "solve"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON config")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--seed", type=int, help="override the seed")
        p.add_argument("--verbose", action="store_true", help="progress on stderr")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
        config = _load_config(args.config)
        if args.out is not None:
            config["out"] = args.out
        if args.seed is not None:
            config["seed"] = args.seed
        if args.verbose:
            config["verbose"] = True
        handler = {"check": cmd_check, "example1": cmd_example1, "solve": cmd_solve}[args.command]
        with np.errstate(all="ignore"):   # the checks report non-finite values themselves
            return handler(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (YamabeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
