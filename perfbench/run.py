#!/usr/bin/env python3
"""Benchmark of the yamabe package.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from `src/` of the
same checkout.  One process serves one client in a closed loop: the next op
starts when the previous one has finished.  Op inputs come from `--seed`
(workloads.py).  Each op's output is checked; a failed op counts against
`failed` under its cause, and `correct` is false when the program reported
success but its output failed the check.

Times are in reference-speed seconds.  On a shared host the speed of a core
drifts by up to 1.6x over seconds (a fixed pure-Python loop took 27 ms or
42 ms depending on the moment), which moves the median of a 30-second run
by more than 20%.  So a short fixed kernel (`speed_kernel`) is timed before
the first op and after every op, and each op's time is scaled by
KERNEL_REF_S over the mean of the two kernel times around it.  The raw
figures are printed in the `detail` line.

With `--trace 0` the ops run untraced and the last line of standard output
carries the end-to-end metrics:

    wall_s       median wall time per passing op
    wall_s_tail  75th percentile (nearest rank) of passing-op wall time; the
                 number of passing ops beyond it is in `detail`.  The
                 percentile is fixed so that runs stay comparable.  75 is
                 as high as the shorter runs allow: at --seconds 35, 175
                 ops on blowup_example1_1001 put 43 beyond it, but 24 on
                 check_structure put 6 and 8 passing ops on
                 solve_subsolution_4001 put 2
    cpu_s        median process CPU time per passing op
    peak_rss_mb  peak resident memory of the process
    setup_s      this process's set-up: import numpy, scipy and yamabe, and
                 draw the inputs

The error rate, broken down by cause, is in the `detail` line printed just
before the last one; the last line carries the same count as `attempted`
and `failed`.

With `--trace 1` each op's inputs run twice, untraced and traced, in
alternating order.  The last line carries the per-layer metrics of spans.py
as means per passing traced op, times in reference-speed seconds, and two
figures of the tracing cost per op: `trace.overhead_s`, the median over
inputs of traced minus untraced wall time, and
`trace.overhead_calibrated_s`, the wrapper's cost per call, timed on a
no-op, times the traced calls per op.  The first is the cost as seen, but
within the host's noise; the second leaves out the cost of the spans in
memory but does not drift.

A run is a number of passing ops, not a span of the clock: as many as the
machine the baseline was recorded on passes in `--seconds` (each workload's
`op_s`), rounded up to whole rounds (check_structure runs its twelve
functions in rounds).  So the same seed makes the same ops, and the same
failures, in every run; a clock would cut runs after a varying number of
ops, and `attempted` and `failed` would move with the host's speed.  Two
caps end a run early: ATTEMPTS_PER_PASS attempts per passing op wanted, and
HARD_CAP_S of wall time, which only a host far slower than the reference
reaches (`capped` in the detail line says so).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HARD_CAP_S = 120.0        # no run measures longer, so each exits well within 180 s
ATTEMPTS_PER_PASS = 8     # seed-state solve ops pass about one time in three
TAIL_PERCENTILE = 75
KERNEL_CHUNKS, KERNEL_LOOPS = 5, 12_000
# speed_kernel() on an uncontended core of the machine the baseline was
# recorded on (Intel Xeon at 2.1 GHz, 2 vCPUs): its 5th percentile there
KERNEL_REF_S = 0.0034


def speed_kernel():
    """Seconds a fixed pure-Python loop takes now: the core's current speed.

    The loop runs in chunks and the median chunk counts, so a single
    preemption does not move it.
    """
    chunks = []
    for _ in range(KERNEL_CHUNKS):
        start = time.perf_counter()
        acc = 0
        for i in range(KERNEL_LOOPS):
            acc += i * i
        chunks.append(time.perf_counter() - start)
    return KERNEL_CHUNKS * statistics.median(chunks)


class SpeedProbe:
    """Kernel timings between ops; `scale` converts the op that just ended
    to reference-speed seconds."""

    def __init__(self):
        self._last = speed_kernel()

    def scale(self):
        now = speed_kernel()
        factor = KERNEL_REF_S / (0.5 * (self._last + now))
        self._last = now
        return factor


def _set_threads():
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = nproc


def _setup(workload_name, seed, work_dir):
    """Import numpy, scipy and the package, and draw the inputs.

    Returns the workload and its set-up time, (raw s, reference-speed s).
    """
    probe = SpeedProbe()
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    sys.path.insert(0, str(ROOT / "src"))
    import yamabe
    if not Path(yamabe.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"yamabe was imported from {yamabe.__file__}, not from this checkout")
    from workloads import WORKLOADS
    if workload_name not in WORKLOADS:
        raise ValueError(f"unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name](seed, work_dir)
    raw = time.perf_counter() - start
    return workload, (raw, raw * probe.scale())


def environment():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_set": {v: os.environ.get(v) for v in THREAD_VARS},
    }


@dataclass(frozen=True)
class _Op:
    wall: float           # raw seconds
    cpu: float
    scale: float          # raw to reference-speed seconds
    failure: object       # workloads.Failure, or None for a passing op
    bytes_out: int        # bytes the op left in its output directory (traced ops only)

    @property
    def ref_wall(self):
        return self.wall * self.scale

    @property
    def ref_cpu(self):
        return self.cpu * self.scale


def _run_op(workload, inputs, probe, tracer=None, op_id=None):
    from workloads import Failure
    workload.prepare(inputs)
    with tracer.recording(op_id) if tracer is not None else contextlib.nullcontext():
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            result, failure = workload.execute(inputs), None
        except Exception as exc:  # a crash of the program is a failed op, not a failed run
            traceback.print_exc(file=sys.stderr)
            result, failure = None, Failure(f"crash:{type(exc).__name__}")
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    scale = probe.scale()
    if failure is None:
        failure = workload.verify(inputs, result)
    return _Op(wall, cpu, scale, failure, workload.output_bytes() if tracer is not None else 0)


def passing_wanted(workload, seconds, traced=False):
    """Passing ops (traced: passing inputs, each run twice) a run collects."""
    ops = seconds / workload.op_s / (2 if traced else 1)   # 35 / 0.2 gives 175.00000000000003
    return workload.round_size * max(1, math.ceil(ops / workload.round_size - 1e-9))


def measure(workload, seconds, tracer=None):
    """Closed loop over the workload's inputs; returns (op records, capped).

    Untraced, each entry is one op.  Traced, each entry is the pair
    (untraced op, traced op) for one input, traced op id = its index.
    """
    wanted = passing_wanted(workload, seconds, tracer is not None)
    records = []
    passing = 0
    probe = SpeedProbe()
    start = time.perf_counter()
    i = 0
    while not (passing >= wanted and i % workload.round_size == 0):
        if i >= ATTEMPTS_PER_PASS * wanted or time.perf_counter() - start >= HARD_CAP_S:
            return records, True
        inputs = workload.inputs[i % len(workload.inputs)]
        if tracer is None:
            rec = _run_op(workload, inputs, probe)
            ok = rec.failure is None
        else:
            if i % 2 == 0:
                plain = _run_op(workload, inputs, probe)
                traced = _run_op(workload, inputs, probe, tracer, i)
            else:
                traced = _run_op(workload, inputs, probe, tracer, i)
                plain = _run_op(workload, inputs, probe)
            rec = (plain, traced)
            ok = plain.failure is None and traced.failure is None
        records.append(rec)
        passing += ok
        i += 1
    return records, False


def _tail(values):
    """(TAIL_PERCENTILE-th percentile by nearest rank, values beyond it)."""
    ordered = sorted(values)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def _error_rate(ops):
    causes = {}
    for op in ops:
        if op.failure is not None:
            causes[op.failure.cause] = causes.get(op.failure.cause, 0) + 1
    return {"value": sum(causes.values()) / len(ops), "unit": "ratio", "by_cause": causes}


def end_to_end(ops, setup):
    passing = [op for op in ops if op.failure is None]
    tail, beyond = _tail([op.ref_wall for op in passing])
    metrics = {
        "wall_s": {"value": statistics.median(op.ref_wall for op in passing), "unit": "s"},
        "wall_s_tail": {"value": tail, "unit": "s"},
        "cpu_s": {"value": statistics.median(op.ref_cpu for op in passing), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "setup_s": {"value": setup[1], "unit": "s"},
    }
    detail = {
        "passing_ops": len(passing),
        "wall_s_tail": {"percentile": TAIL_PERCENTILE, "ops_beyond": beyond},
        "error_rate": _error_rate(ops),
        "raw": {
            "wall_s": statistics.median(op.wall for op in passing),
            "wall_s_tail": _tail([op.wall for op in passing])[0],
            "cpu_s": statistics.median(op.cpu for op in passing),
            "setup_s": setup[0],
            "unit": "s",
        },
        "speed_scale": statistics.median(op.scale for op in ops),
    }
    return metrics, detail


def per_layer(workload, tracer, pairs):
    from spans import metric_units
    passing = [i for i, (plain, traced) in enumerate(pairs)
               if plain.failure is None and traced.failure is None]
    values, calls = tracer.layer_metrics({i: pairs[i][1].scale for i in passing})
    values["cli.bytes_written"] = statistics.fmean(pairs[i][1].bytes_out for i in passing)
    # both runs of an input do the same work, so their difference is the
    # tracing cost without the spread between inputs
    values["trace.overhead_s"] = statistics.median(
        pairs[i][1].ref_wall - pairs[i][0].ref_wall for i in passing)
    # the same cost from the wrapper's price per call, free of host drift
    probe = SpeedProbe()
    call_cost = tracer.call_cost() * probe.scale()
    values["trace.overhead_calibrated_s"] = call_cost * sum(calls.values()) / len(passing)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in metric_units().items()}
    ops = [op for pair in pairs for op in pair]
    detail = {
        "passing_inputs": len(passing),
        "untraced_wall_s": statistics.median(pairs[i][0].ref_wall for i in passing),
        "traced_wall_s": statistics.median(pairs[i][1].ref_wall for i in passing),
        # the layers' self times are means per op, so they add up to this
        "traced_wall_s_mean": statistics.fmean(pairs[i][1].ref_wall for i in passing),
        "trace_call_cost_us": 1e6 * call_cost,
        "zero_layers": {layer: workload.skipped_layers.get(layer, "not called on this workload")
                        for layer, n in calls.items() if n == 0},
        "missing_layers": tracer.missing,
        "error_rate": _error_rate(ops),
    }
    return metrics, detail, ops


def run(workload, args, setup, out=sys.stdout):
    """Measure, then print the detail line and the result line."""
    from spans import Tracer
    if args.trace:
        tracer = Tracer()
        pairs, capped = measure(workload, args.seconds, tracer)
        if not any(p.failure is None and t.failure is None for p, t in pairs):
            raise RuntimeError(f"no passing op in {len(pairs)} inputs: nothing to report")
        metrics, detail, ops = per_layer(workload, tracer, pairs)
    else:
        ops, capped = measure(workload, args.seconds)
        if not any(op.failure is None for op in ops):
            raise RuntimeError(f"no passing op in {len(ops)} attempts: nothing to report")
        metrics, detail = end_to_end(ops, setup)
    detail.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, capped=capped, environment=environment())
    print(json.dumps({"detail": detail}, sort_keys=True), file=out)
    result = {
        "correct": not any(op.failure is not None and op.failure.wrong_output for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failure is not None for op in ops),
        "metrics": metrics,
    }
    print(json.dumps(result), file=out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _set_threads()
    work_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        workload, setup = _setup(args.workload, args.seed, work_dir)
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        run(workload, args, setup)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
