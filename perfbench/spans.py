"""In-memory span tracing of the program's layers, installed from outside.

While installed, the tracer rebinds public functions of the yamabe modules
(and three methods of SymFuncSpec) to wrappers that record one span per call:
its layer, its parent span, its duration and its self time, which is the
duration minus the time of its child spans.  A function imported by name into
several modules is rebound in each of them.  Spans of one op occupy one index
range, which is the op's identifier.  Spans stay in memory until the run
ends, when `layer_metrics` turns them into per-op figures, in
reference-speed seconds like the rest of the benchmark (see run.py).

A span's self time holds part of the wrappers' own cost: the bookkeeping of
its child spans.  `call_cost` measures that cost per call on a no-op.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from contextlib import contextmanager


def _rows(args):
    return len(args[1])            # (self, values): one row per eigenvalue tuple


def _dense_bytes(args):
    return 8 * args[0].shape[1] ** 2   # the m x m float64 array banded_to_dense allocates


# (layer, module, attribute, per-call size or None, fields reported per op)
LAYERS = (
    ("symfun.margin_scores", "yamabe.symfun", "SymFuncSpec.margin_scores", _rows,
     ("calls", "self_s", "rows")),
    ("symfun.value_many", "yamabe.symfun", "SymFuncSpec.value_many", _rows,
     ("calls", "self_s", "rows")),
    ("symfun.grad_many", "yamabe.symfun", "SymFuncSpec.grad_many", _rows,
     ("calls", "self_s", "rows")),
    ("symfun.concavity_margin", "yamabe.symfun", "concavity_margin", None, ("calls", "self_s")),
    ("symfun.sample_cone", "yamabe.symfun", "sample_cone", None, ("calls", "self_s")),
    ("geometry.first_derivative", "yamabe.geometry", "first_derivative", None,
     ("calls", "self_s")),
    ("geometry.second_derivative", "yamabe.geometry", "second_derivative", None,
     ("calls", "self_s")),
    ("geometry.radial_w_eigenvalues", "yamabe.geometry", "radial_w_eigenvalues", None,
     ("calls", "self_s")),
    ("solver.residual", "yamabe.solver", "residual", None, ("calls", "self_s")),
    ("solver.jacobian", "yamabe.solver", "jacobian", None, ("calls", "self_s")),
    ("solver.solve_banded", "yamabe.solver", "solve_banded", None, ("calls", "self_s")),
    ("solver.check_subsolution", "yamabe.solver", "check_subsolution", None, ("self_s",)),
    ("solver.fd_jacobian_column", "yamabe.solver", "fd_jacobian_column", None,
     ("calls", "self_s")),
    ("solver.banded_to_dense", "yamabe.solver", "banded_to_dense", _dense_bytes,
     ("calls", "self_s", "bytes")),
    ("solver.newton_solve", "yamabe.solver", "newton_solve", None, ("self_s",)),
    ("solver.continuation_run", "yamabe.solver", "continuation_run", None, ("self_s",)),
    ("example1.half_length", "yamabe.example1", "half_length", None, ("calls", "self_s")),
    ("example1.solve_profile", "yamabe.example1", "solve_profile", None, ("calls", "self_s")),
    ("benchmarks.example_boundary_problem", "yamabe.benchmarks", "example_boundary_problem",
     None, ("self_s",)),
    ("cli.main", "yamabe.cli", "main", None, ("self_s",)),
)

FIELD_UNITS = {"calls": "calls/op", "self_s": "s/op", "rows": "rows/op", "bytes": "B/op"}

# Figures derived from several layers, or measured by the benchmark itself.
DERIVED_UNITS = {
    "symfun.rows_per_call": "rows/call",
    "solver.newton_iters": "iters/op",
    "solver.t_steps": "steps/op",
    "solver.accept_ratio": "ratio",
    "cli.bytes_written": "B/op",
    "trace.overhead_s": "s",
    "trace.overhead_calibrated_s": "s",
}


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, _, _, _, fields in LAYERS:
        for f in fields:
            units[f"{layer}.{f}"] = FIELD_UNITS[f]
    units.update(DERIVED_UNITS)
    return units


class Tracer:
    """Span recorder for the layers in LAYERS.

    `missing` names the layers whose function no longer exists in the
    program; they read zero.
    """

    def __init__(self):
        self.layer = array("h")
        self.parent = array("l")
        self.size = array("q")
        self.duration = array("d")
        self.self_time = array("d")
        self.op_ranges = {}
        self._stack = []          # indices of the open spans
        self._child = []          # child time accumulated by each open span
        self.missing = []
        self._sites = []          # (owner, attribute, original, wrapper)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "yamabe" or name.startswith("yamabe.")]
        for layer_id, (layer, module, attr, size_of, _) in enumerate(LAYERS):
            owner = sys.modules.get(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer_id, original, size_of)
            if path:
                self._sites.append((owner, leaf, original, wrapper))
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._sites.append((mod, name, original, wrapper))

    def _wrap(self, layer_id, fn, size_of):
        perf = time.perf_counter
        stack, child = self._stack, self._child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.layer)
            self.layer.append(layer_id)
            self.parent.append(stack[-1] if stack else -1)
            self.size.append(size_of(args) if size_of is not None else 0)
            self.duration.append(0.0)
            self.self_time.append(0.0)
            stack.append(idx)
            child.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                self.duration[idx] = elapsed
                self.self_time[idx] = elapsed - child.pop()
                if child:
                    child[-1] += elapsed

        return traced

    @contextmanager
    def recording(self, op_id):
        """Install the wrappers for the duration of one op."""
        first = len(self.layer)
        for owner, name, _, wrapper in self._sites:
            setattr(owner, name, wrapper)
        try:
            yield
        finally:
            for owner, name, original, _ in self._sites:
                setattr(owner, name, original)
            self._stack.clear()
            self._child.clear()
            self.op_ranges[op_id] = (first, len(self.layer))

    def call_cost(self):
        """Raw seconds a wrapper adds to one call.

        A no-op is called with and without a wrapper, in five alternating
        trials, and the median difference counts.  The spans it records are
        dropped.
        """
        def noop(*args):
            return None

        wrapped = self._wrap(0, noop, _rows)
        first = len(self.layer)
        perf = time.perf_counter
        calls = 20_000
        diffs = []
        for _ in range(5):
            t0 = perf()
            for _ in range(calls):
                noop(None, ())
            t1 = perf()
            for _ in range(calls):
                wrapped(None, ())
            t2 = perf()
            diffs.append(((t2 - t1) - (t1 - t0)) / calls)
            for column in (self.layer, self.parent, self.size, self.duration, self.self_time):
                del column[first:]
        return statistics.median(diffs)

    def layer_metrics(self, scales):
        """Per-op means of every metric in metric_units() but those run.py
        measures itself, over the ops in `scales`, which maps an op id to
        the factor that turns its raw seconds into reference-speed seconds.
        """
        count = len(LAYERS)
        calls = [0] * count
        self_s = [0.0] * count
        size = [0] * count
        ids = {layer: i for i, (layer, *_) in enumerate(LAYERS)}
        newton, jac, res = ids["solver.newton_solve"], ids["solver.jacobian"], ids["solver.residual"]
        iters = newton_residuals = 0
        for op, scale in scales.items():
            lo, hi = self.op_ranges[op]
            for i in range(lo, hi):
                lid = self.layer[i]
                calls[lid] += 1
                self_s[lid] += self.self_time[i] * scale
                size[lid] += self.size[i]
                p = self.parent[i]
                if p >= 0 and self.layer[p] == newton:
                    # one Jacobian per Newton iteration; residuals evaluated
                    # directly by newton_solve are its line-search trials
                    # (the spot check's residuals sit under fd_jacobian_column)
                    if lid == jac:
                        iters += 1
                    elif lid == res:
                        newton_residuals += 1
        ops = max(len(scales), 1)
        totals = {"calls": calls, "self_s": self_s, "rows": size, "bytes": size}
        out = {}
        for lid, (layer, _, _, _, fields) in enumerate(LAYERS):
            for f in fields:
                out[f"{layer}.{f}"] = totals[f][lid] / ops
        sym = [ids["symfun.margin_scores"], ids["symfun.value_many"], ids["symfun.grad_many"]]
        sym_calls = sum(calls[i] for i in sym)
        out["symfun.rows_per_call"] = sum(size[i] for i in sym) / sym_calls if sym_calls else 0.0
        out["solver.newton_iters"] = iters / ops
        out["solver.t_steps"] = calls[newton] / ops
        out["solver.accept_ratio"] = iters / newton_residuals if newton_residuals else 0.0
        return out, {LAYERS[i][0]: calls[i] for i in range(count)}
