"""Command line front end: config-driven experiment runs with archivable output.

Three subcommands, each taking a single JSON config path:

    yamabe check    <config.json>   structural suites for a symmetric function
    yamabe example1 <config.json>   closed-form non-smooth profile + verification
    yamabe solve    <config.json>   continuation solve of a Dirichlet problem

Exit codes: 0 pass, 1 domain/check failure, 2 config error, 3 partial
convergence.  Configs are validated strictly (unknown keys rejected) before
any computation; --out, --seed and --verbose override the config.  Output
files embed the resolved config and a format version line, use 17 significant
digits and LF line endings, so identical configs produce byte-identical
files.  `solve` writes its profiles with one process per available core
and per 2000 rows (see _ROWS_PER_WRITER); the bytes do not depend on the
core count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
    YamabeError,
)
from . import benchmarks, example1, solver, symfun
from .geometry import CylinderGeometry, RadialProfile

FORMAT_VERSION = "yamabe/1"


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


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


def _as_int(value, context, lo=None, hi=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{context}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{context}: must be <= {hi}, got {value}")
    return value


def _as_real(value, context):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    return float(value)


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


def _function_spec(cfg, context="function"):
    _check_keys(cfg, {"kind", "n", "k", "l"}, context)
    kind = _need(cfg, "kind", context)
    n = _as_int(_need(cfg, "n", context), f"{context}.n", lo=3)
    if kind == "sigma1_squared_broken":
        if "k" in cfg or "l" in cfg:
            raise ConfigError(f"{context}: the broken fixture takes only n")
        return symfun.BrokenHomogeneitySpec(n=n)
    if kind == "sigma_k_root":
        k = _as_int(_need(cfg, "k", context), f"{context}.k", lo=1, hi=n)
        if "l" in cfg:
            raise ConfigError(f"{context}: l is only for the quotient kind")
        return symfun.SymFuncSpec("sigma_k_root", n=n, k=k)
    if kind == "quotient":
        k = _as_int(_need(cfg, "k", context), f"{context}.k", lo=2, hi=n)
        l = _as_int(_need(cfg, "l", context), f"{context}.l", lo=1, hi=k - 1)
        return symfun.SymFuncSpec("quotient", n=n, k=k, l=l)
    raise ConfigError(f"{context}.kind: unknown kind {kind!r}")


def _profile_family(cfg, context):
    _check_keys(cfg, {"family", "amplitude", "offset", "slope", "value"}, context)
    family = _need(cfg, "family", context)
    if family == "cosh":
        amp = _as_real(_need(cfg, "amplitude", context), f"{context}.amplitude")
        off = _as_real(cfg.get("offset", 0.0), f"{context}.offset")
        return benchmarks.cosh_profile(amp, off)
    if family == "linear":
        slope = _as_real(_need(cfg, "slope", context), f"{context}.slope")
        off = _as_real(cfg.get("offset", 0.0), f"{context}.offset")
        return benchmarks.linear_profile(slope, off)
    if family == "constant":
        return benchmarks.constant_profile(_as_real(_need(cfg, "value", context), f"{context}.value"))
    raise ConfigError(f"{context}.family: unknown family {family!r}")


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _config_comment(resolved):
    return json.dumps(resolved, sort_keys=True, separators=(",", ":"))


def _format_column(values):
    # '%.17g' % x equals _fmt(x) for every float, nan, infinities and -0.0 included
    return list(map("%.17g".__mod__, np.asarray(values, dtype=float).tolist()))


def _write_profile_csv(path, resolved, profile, residual_column, extra_comments=(),
                       grid_text=None):
    """One row per node; `grid_text` is the grid column already formatted,
    for callers that write several profiles on one grid."""
    lines = [f"# format {FORMAT_VERSION} profile", f"# config {_config_comment(resolved)}"]
    lines += list(extra_comments)
    lines.append("x,u,du,d2u,residual")
    if grid_text is None:
        grid_text = _format_column(profile.grid)
    columns = (profile.u, profile.du, profile.d2u, residual_column)
    lines += ["%s,%.17g,%.17g,%.17g,%.17g" % row
              for row in zip(grid_text, *(np.asarray(col, dtype=float).tolist() for col in columns))]
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _cores():
    """The cores the writers may use: those this process may run on, or a
    single unnamed one where os.fork or CPU affinity is missing."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None]


def _write_in_processes(jobs, write, cores):
    """Call write(job) for every job, dealt round-robin over one process per
    core in `cores` (see _cores).

    This process writes the last share, the smallest.  Children made with
    os.fork write the others from copy-on-write memory and always leave
    through os._exit, never returning into the caller.  A child formats
    and writes files only: it makes no BLAS call and takes no lock that
    another thread of this process may hold at the fork.  Each process is
    bound to a core of its own while it writes, since the scheduler can
    leave freshly forked processes sharing one core; this process gets its
    own binding back afterwards.  Every child is waited for, on error paths
    too.  The share of a child that failed, or could not be forked, is
    written again here, so that its error surfaces with its own message.
    With one core every job is written here.
    """
    count = max(1, min(len(cores), len(jobs)))
    shares = [jobs[i::count] for i in range(count)]
    children, redo = {}, []
    own = os.sched_getaffinity(0) if count > 1 else None
    try:
        for core, share in zip(cores, shares[:-1]):
            try:
                pid = os.fork()
            except OSError:
                redo.append(share)
                continue
            if pid == 0:
                code = 1
                try:
                    os.sched_setaffinity(0, {core})
                    for job in share:
                        write(job)
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = share
        if own is not None:
            os.sched_setaffinity(0, {cores[count - 1]})
        for job in shares[-1]:
            write(job)
    finally:
        if own is not None:
            os.sched_setaffinity(0, own)
        for pid, share in children.items():
            if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) != 0:
                redo.append(share)
    for share in redo:
        for job in share:
            write(job)


# Profile rows per writer process.  A second writer pays off from about
# 4000 rows: on a 2-core Xeon a whole `yamabe solve` with 13 profiles
# (medians of 15 solves) took 27.0 ms writing in one process and 27.9 ms on
# two at 201 nodes, 30.3 and 30.2 ms at 301 nodes, 33.6 and 32.2 ms at 401.
_ROWS_PER_WRITER = 2000


def _writer_cores(cores, rows):
    """The first of `cores`, one per _ROWS_PER_WRITER rows and at least one."""
    return cores[:max(1, rows // _ROWS_PER_WRITER)]


def _write_solve_outputs(out, resolved, states, cores):
    """monitors.csv and the profile CSV of every state, written on
    _writer_cores(cores, rows).  The states of one continuation share one
    grid, formatted once here."""
    _write_monitors_csv(out / "monitors.csv", resolved, states)
    grid_text = _format_column(states[0].profile.grid) if states else []
    cores = _writer_cores(cores, len(states) * len(grid_text))

    def write_profile(i):
        s = states[i]
        _write_profile_csv(out / f"profile_{i:03d}_t{s.t:.6f}.csv", resolved, s.profile,
                           s.residual, extra_comments=[f"# t {_fmt(s.t)}"], grid_text=grid_text)

    _write_in_processes(list(range(len(states))), write_profile, cores)


def _write_monitors_csv(path, resolved, states):
    lines = [f"# format {FORMAT_VERSION} monitors", f"# config {_config_comment(resolved)}"]
    lines.append("t,sup_u,sup_du,sup_d2u,residual_norm,cone_margin,newton_iters")
    for s in states:
        row = (s.t, *s.monitors, s.residual_norm, s.cone_margin, s.newton_iters)
        lines.append(",".join(_fmt(float(v) if not isinstance(v, int) else v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _check_rows(prefix, results):
    """The report.json rows of the library's CheckResults, names prefixed."""
    return [{"name": prefix + c.name, "status": "pass" if c.passed else "fail",
             "value": c.worst, "threshold": c.threshold} for c in results]


def _write_report(path, resolved, checks, passed, extra=None):
    doc = {
        "format_version": FORMAT_VERSION,
        "config": resolved,
        "checks": checks,
        "passed": bool(passed),
    }
    if extra:
        doc.update(extra)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", newline="\n")


def _out_dir(resolved):
    """The output directory, without the report of an earlier run: a run
    that stops on an error leaves no report.json behind."""
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").unlink(missing_ok=True)
    return out


# ---------------------------------------------------------------------------
# check command
# ---------------------------------------------------------------------------

_CHECK_KEYS = {"function", "samples", "seed", "ball", "separation", "out", "verbose"}


def cmd_check(config):
    _check_keys(config, _CHECK_KEYS, "config")
    spec = _function_spec(_need(config, "function", "config"))
    samples = _as_int(config.get("samples", 1000), "samples", lo=1)
    seed = _as_int(config.get("seed", 0), "seed")
    ball_cfg = config.get("ball", {})
    _check_keys(ball_cfg, {"t_values", "directions"}, "ball")
    t_values = tuple(_as_real(t, "ball.t_values") for t in ball_cfg.get("t_values", (0.0, 0.25, 0.5, 0.9, 0.99)))
    directions = _as_int(ball_cfg.get("directions", 1000), "ball.directions", lo=1)
    sep_cfg = config.get("separation", {})
    _check_keys(sep_cfg, {"samples", "beta"}, "separation")
    sep_samples = _as_int(sep_cfg.get("samples", 2000), "separation.samples", lo=1)
    beta = _as_real(sep_cfg.get("beta", 0.2), "separation.beta")
    resolved = {
        "command": "check",
        "function": dict(_need(config, "function", "config")),
        "samples": samples,
        "seed": seed,
        "ball": {"t_values": list(t_values), "directions": directions},
        "separation": {"samples": sep_samples, "beta": beta},
        "out": str(config.get("out", "results/check")),
        "verbose": bool(config.get("verbose", False)),
    }
    out = _out_dir(resolved)

    # row name prefix -> report, in row order
    reports = {"structure.": symfun.verify_structure(spec, sample_count=samples, seed=seed)}
    broken = getattr(spec, "kind", "") == "sigma1_squared_broken"
    classification = None
    if not broken:
        classification = symfun.classify_type(spec)
        reports["ball."] = symfun.interpolation_ball_report(spec, t_values=t_values,
                                                            directions=directions, seed=seed)
        reports["separation."] = symfun.concavity_margin_suite(spec, samples=sep_samples,
                                                               beta=beta, seed=seed)
    checks = [row for prefix, r in reports.items() for row in _check_rows(prefix, r.checks)]
    passed = all(r.passed for r in reports.values())
    extra = {"label": spec.label}
    if classification is not None:
        extra["classification"] = {"cone_type": classification.cone_type,
                                   "f_type": classification.f_type}
    _write_report(out / "report.json", resolved, checks, passed, extra=extra)
    if resolved["verbose"]:
        for c in checks:
            print(f"{c['name']}: {c['status']} (value {_fmt(c['value'])})", file=sys.stderr)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# example1 command
# ---------------------------------------------------------------------------

_EXAMPLE_KEYS = {"n", "k", "c", "grid_size", "thresholds", "out", "seed", "verbose"}


def cmd_example1(config):
    _check_keys(config, _EXAMPLE_KEYS, "config")
    n = _as_int(_need(config, "n", "config"), "n", lo=3)
    k = _as_int(_need(config, "k", "config"), "k", lo=2, hi=n)
    c = _as_real(_need(config, "c", "config"), "c")
    grid_size = _as_int(config.get("grid_size", 401), "grid_size", lo=5)
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
        "out": str(config.get("out", "results/example1")),
        "seed": _as_int(config.get("seed", 0), "seed"),
        "verbose": bool(config.get("verbose", False)),
    }
    out = _out_dir(resolved)

    params = example1.ExampleParams.from_c(n, k, c)
    solution = example1.solve_profile(params, node_count=grid_size)
    report = example1.verify_example(params, solution, thresholds=thresholds)

    derived = {
        "d": params.d,
        "c": params.c,
        "h0": params.h0,
        "half_length": solution.t_max,
        "boundary_value": params.boundary_value,
    }
    _write_profile_csv(
        out / "profile.csv", resolved, solution.profile, report.residual,
        extra_comments=[f"# derived " + json.dumps({k2: float(v) for k2, v in derived.items()},
                                                   sort_keys=True)],
    )

    _write_report(out / "report.json", resolved, _check_rows("", report.checks), report.passed,
                  extra={"derived": derived})
    if resolved["verbose"]:
        print(f"d={_fmt(params.d)} T={_fmt(solution.t_max)}", file=sys.stderr)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# solve command
# ---------------------------------------------------------------------------

_SOLVE_KEYS = {"n", "function", "half_length", "grid_size", "t_schedule", "psi", "phi",
               "subsolution", "init", "newton", "uniformity_factor", "out", "seed", "verbose"}


class _SubsolutionOutsideCone(YamabeError):
    """psi scales f on the subsolution, which leaves the cone: no problem
    can be built.  Carries the subsolution's minimum cone margin score on
    the points psi is sampled on."""

    def __init__(self, message, cone_margin):
        super().__init__(message)
        self.cone_margin = cone_margin


def _build_solve_problem(config):
    n = _as_int(_need(config, "n", "config"), "n", lo=3)
    spec = _function_spec({"n": n, **_need(config, "function", "config")})
    grid_size = _as_int(config.get("grid_size", 401), "grid_size", lo=5)

    psi_cfg = _need(config, "psi", "config")
    _check_keys(psi_cfg, {"family", "theta", "c", "value"}, "psi")
    psi_family = _need(psi_cfg, "family", "psi")

    ell_cfg = _need(config, "half_length", "config")
    example_params = None
    if ell_cfg == "example1":
        if psi_family != "example1_rhs":
            raise ConfigError("half_length: 'example1' requires psi.family example1_rhs")
        c = _as_real(_need(psi_cfg, "c", "psi"), "psi.c")
        if not 2 <= spec.k <= n:
            raise ConfigError("half_length: the closed form requires 2 <= k <= n")
        example_params = example1.ExampleParams.from_c(n, spec.k, c)
        ell = example1.half_length(example_params)
    else:
        ell = _as_real(ell_cfg, "half_length")
        if ell <= 0:
            raise ConfigError("half_length must be positive")

    geom = CylinderGeometry(n=n, half_length=ell)
    grid = np.linspace(-ell, ell, grid_size)

    sub_profile = None
    sub_funcs = None
    if "subsolution" in config:
        sub_funcs = _profile_family(config["subsolution"], "subsolution")
        sub_profile = RadialProfile(grid, sub_funcs[0](grid))

    if psi_family == "subsolution_scaled":
        if sub_funcs is None:
            raise ConfigError("psi.family subsolution_scaled requires a subsolution")
        theta = _as_real(psi_cfg.get("theta", 0.5), "psi.theta")
        if not 0.0 < theta < 1.0:
            raise ConfigError("psi.theta must lie in (0, 1)")
        try:
            psi, psi_z = benchmarks.subsolution_scaled_psi(spec, sub_funcs, ell, theta)
        except ConeDomainError as exc:
            raise _SubsolutionOutsideCone(str(exc), exc.min_score) from exc
    elif psi_family == "example1_rhs":
        c = _as_real(_need(psi_cfg, "c", "psi"), "psi.c")
        if example_params is None:
            example_params = example1.ExampleParams.from_c(n, spec.k, c)
        psi, psi_z = benchmarks.example1_rhs_psi(example_params)
    elif psi_family == "constant":
        value = _as_real(_need(psi_cfg, "value", "psi"), "psi.value")
        if value <= 0:
            raise ConfigError("psi.value must be positive")

        def psi(x, z):
            return np.full_like(np.asarray(x, dtype=float) * np.asarray(z, dtype=float), value)

        def psi_z(x, z):
            return np.zeros_like(np.asarray(x, dtype=float) * np.asarray(z, dtype=float))
    else:
        raise ConfigError(f"psi.family: unknown family {psi_family!r}")

    phi_cfg = config.get("phi", "subsolution")
    if phi_cfg == "subsolution":
        if sub_profile is None:
            raise ConfigError("phi: 'subsolution' requires a subsolution")
        phi_left = float(sub_profile.u[0])
        phi_right = float(sub_profile.u[-1])
    else:
        _check_keys(phi_cfg, {"left", "right"}, "phi")
        phi_left = _as_real(_need(phi_cfg, "left", "phi"), "phi.left")
        phi_right = _as_real(_need(phi_cfg, "right", "phi"), "phi.right")

    init_profile = None
    if "init" in config:
        init_cfg = config["init"]
        _check_keys(init_cfg, {"family", "amplitude", "offset", "slope", "value", "c"}, "init")
        if init_cfg.get("family") == "example1_profile":
            c = _as_real(_need(init_cfg, "c", "init"), "init.c")
            ep = example1.ExampleParams.from_c(n, spec.k, c)
            t_max = example1.half_length(ep)
            if abs(t_max - ell) > 1e-9 * max(1.0, ell):
                raise ConfigError("init example1_profile requires half_length 'example1'")
            init_profile = example1.solve_profile(ep, node_count=grid_size).profile
        else:
            funcs = _profile_family(init_cfg, "init")
            init_profile = RadialProfile(grid, funcs[0](grid))

    if sub_profile is None and init_profile is None:
        raise ConfigError("solve needs a subsolution or an init profile")

    problem = solver.DirichletProblem(
        geom=geom, spec=spec, psi=psi, psi_z=psi_z,
        phi_left=phi_left, phi_right=phi_right, subsolution=sub_profile,
    )
    return problem, init_profile


def cmd_solve(config):
    _check_keys(config, _SOLVE_KEYS, "config")
    try:
        problem, init_profile = _build_solve_problem(config)
        outside = None
    except _SubsolutionOutsideCone as exc:
        problem, init_profile, outside = None, None, exc

    schedule = config.get("t_schedule")
    if schedule is not None:
        schedule = tuple(_as_real(t, "t_schedule") for t in schedule)
    newton_cfg = config.get("newton", {})
    _check_keys(newton_cfg, {"tol", "max_iter"}, "newton")
    defaults = solver.NewtonOptions()
    opts = solver.NewtonOptions(
        tol=_as_real(newton_cfg.get("tol", defaults.tol), "newton.tol"),
        max_iter=_as_int(newton_cfg.get("max_iter", defaults.max_iter), "newton.max_iter", lo=1),
    )
    factor = _as_real(config.get("uniformity_factor", 2.0), "uniformity_factor")

    resolved = {
        "command": "solve",
        "n": config["n"],
        "function": dict(_need(config, "function", "config")),
        "half_length": config["half_length"] if config["half_length"] == "example1" else float(config["half_length"]),
        "grid_size": config.get("grid_size", 401),
        "t_schedule": list(schedule) if schedule is not None else list(solver.DEFAULT_T_SCHEDULE),
        "psi": dict(config["psi"]),
        "phi": config.get("phi", "subsolution") if isinstance(config.get("phi", "subsolution"), str) else dict(config["phi"]),
        "subsolution": dict(config["subsolution"]) if "subsolution" in config else None,
        "init": dict(config["init"]) if "init" in config else None,
        "newton": {"tol": opts.tol, "max_iter": opts.max_iter},
        "uniformity_factor": factor,
        "out": str(config.get("out", "results/solve")),
        "seed": _as_int(config.get("seed", 0), "seed"),
        "verbose": bool(config.get("verbose", False)),
    }
    verbose = resolved["verbose"]
    out = _out_dir(resolved)

    if outside is not None:
        checks = _check_rows("subsolution.", [solver.cone_margin_check(outside.cone_margin)])
        _write_report(out / "report.json", resolved, checks, False, extra={"error": str(outside)})
        if verbose:
            print(f"subsolution outside the cone: {outside}", file=sys.stderr)
        return 1

    checks = []
    anchored = problem.subsolution is not None
    if anchored:
        sub_report = solver.check_subsolution(problem)
        checks = _check_rows("subsolution.", sub_report.checks)
        if not sub_report.passed:
            _write_report(out / "report.json", resolved, checks, False)
            return 1

    started = time.perf_counter()
    failure = None
    try:
        report = solver.continuation_run(problem, t_schedule=schedule, opts=opts,
                                         init=init_profile)
    except ContinuationError as exc:
        failure = exc
        report = solver.ContinuationReport(states=exc.states, failed_t=exc.t_failed)
    states = report.states
    failed_t = report.failed_t
    solved = time.perf_counter()
    if verbose:
        for s in states:
            print(f"t={s.t:.6g} newton_iters={s.newton_iters} residual={s.residual_norm:.3e} "
                  f"cone_margin={s.cone_margin:.3e}", file=sys.stderr)
        if failure is not None:
            print(f"t={failed_t:.6g} failed: {failure.cause}", file=sys.stderr)

    _write_solve_outputs(out, resolved, states, _cores())

    # Newton giving up, or a warm start no blend brings back into the cone,
    # is partial convergence (exit 3); any other cause, a failed Jacobian
    # check, is an error (exit 1), reported with the states solved before it
    partial = failure is None or isinstance(failure.cause, (NewtonError, ConeViolationError))
    extra = {"failed_t": failed_t}
    if not partial:
        extra["error"] = str(failure.cause)
        print(f"error: {failure.cause}", file=sys.stderr)
    if states:
        extra["monitor_growth"] = list(report.monitor_growth())
        extra["monitor_spread"] = list(report.monitor_spread())
        extra["curvature_scaled"] = [[t, v] for t, v in report.curvature_scaled()]
    # a run gets here only with a passing subsolution, or without one
    results = report.checks(factor if anchored else None)
    checks += _check_rows("continuation.", results)
    passed = all(c.passed for c in results)
    _write_report(out / "report.json", resolved, checks, passed, extra=extra)
    if verbose:
        print(f"continuation {solved - started:.3f} s, output {time.perf_counter() - solved:.3f} s",
              file=sys.stderr)
    if failed_t is not None and partial:
        return 3
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
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
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        if args.out is not None:
            config["out"] = args.out
        if args.seed is not None:
            config["seed"] = args.seed
        if args.verbose:
            config["verbose"] = True
        handler = {"check": cmd_check, "example1": cmd_example1, "solve": cmd_solve}[args.command]
        return handler(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (YamabeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
