"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import math
import time

import numpy as np
import pytest

from yamabe.benchmarks import (
    example_boundary_problem,
    manufactured_problem,
    subsolution_benchmark,
)
from yamabe.example1 import (
    ExampleParams,
    d_from_c,
    first_integral,
    half_length,
    solve_profile,
    verify_example,
)
from yamabe.solver import (
    NewtonOptions,
    check_subsolution,
    continuation_run,
    newton_solve,
)
from yamabe.symfun import (
    SymFuncSpec,
    concavity_margin_suite,
    interpolation_ball_report,
    matrix_value_and_derivative,
    sample_cone,
    verify_structure,
)

from oracles import stopping_time_by_ivp


def report(criterion, passed, budget_s, elapsed, detail):
    status = "PASS" if passed and elapsed < budget_s else "FAIL"
    print(f"[criterion {criterion:02d}] {status} ({elapsed:.2f}s / budget {budget_s:.0f}s) {detail}")
    assert passed, detail
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeded the {budget_s}s budget"


def test_criterion_01_example_closed_form():
    start = time.perf_counter()
    d = d_from_c(4, 2, 0.0)
    d_err = abs(d - (-math.log(2.0) / 4.0))
    params = ExampleParams(4, 2, 0.0)
    h_err = abs(first_integral(params, d, 0.0) - (-1.0))
    elapsed = time.perf_counter() - start
    report(1, d_err <= 1e-10 and h_err <= 1e-12, 1.0, elapsed,
           f"|d + ln2/4| = {d_err:.2e}, |H(d,0)+1| = {h_err:.2e}")


def test_criterion_02_half_length_vs_ivp_oracle():
    start = time.perf_counter()
    worst = 0.0
    for (n, k) in ((3, 2), (4, 2), (5, 3)):
        for c in (0.0, 1.0):
            p = ExampleParams(n, k, c)
            t_quad = half_length(p)
            t_ivp = stopping_time_by_ivp(p)
            worst = max(worst, abs(t_quad - t_ivp) / t_quad)
    elapsed = time.perf_counter() - start
    report(2, worst <= 1e-6, 10.0, elapsed, f"max relative gap = {worst:.2e}")


def test_criterion_03_non_smoothness_witness():
    # run on (5, 3, 0): for k = 2 the endpoint rate is delta^(-1/2) and the
    # two-decade curvature ratio tends to 10 from below (measured 9.69), so
    # the 10x threshold needs k >= 3; see the k = 2 coverage in test_example1
    start = time.perf_counter()
    params = ExampleParams(5, 3, 0.0)
    solution = solve_profile(params, node_count=401)
    rows = {row.name: row for row in verify_example(solution)[1]}
    drift = rows["first_integral_drift"].worst
    slope = rows["slope_subunit"].worst
    boundary = rows["boundary_error"].worst
    ratio = rows["curvature_increasing"].worst
    ok = (drift <= 1e-8
          and slope > 0.0
          and boundary <= 1e-6
          and rows["curvature_increasing"].passed
          and ratio > 10.0)
    elapsed = time.perf_counter() - start
    report(3, ok, 5.0, elapsed,
           f"drift = {drift:.2e}, min(1-u'^2) = {slope:.3f}, "
           f"boundary = {boundary:.2e}, curvature ratio = {ratio:.2f}")


def test_criterion_04_structural_suite():
    start = time.perf_counter()
    failures = []

    def check(spec, seed):
        rows = verify_structure(spec, sample_count=1000, seed=seed)
        failed = [row.name for row in rows if not row.passed]
        if failed:
            failures.append((spec.label, failed))

    for n in (3, 4, 5):
        for k in range(1, n + 1):
            check(SymFuncSpec("sigma_k_root", n=n, k=k), n * 10 + k)
        check(SymFuncSpec("quotient", n=n, k=2, l=1), n)
    elapsed = time.perf_counter() - start
    report(4, not failures, 30.0, elapsed,
           f"15 specs x 1000 samples, failures: {failures or 'none'}")


def test_criterion_05_interpolated_ball_suite():
    start = time.perf_counter()
    worst_member = math.inf
    worst_corner = math.inf
    for n in (3, 4, 5):
        for k in range(1, n + 1):
            spec = SymFuncSpec("sigma_k_root", n=n, k=k)
            membership, value_bound = interpolation_ball_report(
                spec, t_values=(0.0, 0.25, 0.5, 0.9, 0.99), directions=1000, seed=k)
            worst_member = min(worst_member, membership.worst)
            worst_corner = min(worst_corner, value_bound.worst)
    elapsed = time.perf_counter() - start
    report(5, worst_member > 0.0 and worst_corner >= 0.0, 10.0, elapsed,
           f"worst membership score = {worst_member:.2e}, worst value margin = {worst_corner:.2e}")


def test_criterion_06_matrix_identity_and_invariance():
    start = time.perf_counter()
    spec = SymFuncSpec("sigma_k_root", n=4, k=2)
    rng = np.random.default_rng(42)
    lams = sample_cone(spec, 1000, rng)
    worst_identity = 0.0
    worst_invariance = 0.0
    for lam in lams:
        t = float(rng.uniform(0.0, 1.0))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        w = (q * np.sort(lam)) @ q.T
        value, deriv = matrix_value_and_derivative(spec, t, w)
        lam_sorted = np.sort(lam)
        lhs = float(np.einsum("ij,il,jl->", deriv, w, w))
        rhs = float(spec.grad(lam_sorted, t) @ lam_sorted ** 2)
        worst_identity = max(worst_identity, abs(lhs - rhs) / max(abs(rhs), 1e-300))
        q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        value2, _ = matrix_value_and_derivative(spec, t, q2 @ w @ q2.T)
        worst_invariance = max(worst_invariance, abs(value2 - value) / abs(value))
    elapsed = time.perf_counter() - start
    report(6, worst_identity <= 1e-8 and worst_invariance <= 1e-8, 10.0, elapsed,
           f"identity rel err = {worst_identity:.2e}, invariance rel err = {worst_invariance:.2e}")


def test_criterion_07_manufactured_convergence():
    start = time.perf_counter()
    orders = {}
    for t in (0.0, 0.5, 0.99):
        errs = []
        for m in (101, 201, 401):
            problem, exact = manufactured_problem(t, node_count=m)
            init = exact.with_values(exact.u + 1e-3 * np.cos(np.pi * exact.grid / 2))
            rep = continuation_run(problem, t_schedule=(t,), init=init)
            errs.append(np.abs(rep.states[0].profile.u - exact.u).max())
        orders[t] = math.log(errs[0] / errs[-1]) / math.log(4.0)
    elapsed = time.perf_counter() - start
    report(7, all(o >= 1.9 for o in orders.values()), 60.0, elapsed,
           "observed orders " + ", ".join(f"t={t}: {o:.3f}" for t, o in orders.items()))


def test_criterion_08_uniformity_monitor():
    start = time.perf_counter()
    problem = subsolution_benchmark(n=4, k=2, half_length=1.0, amplitude=0.3,
                                    theta=0.5, node_count=401)
    sub_ok = all(row.passed for row in check_subsolution(problem)[1])
    rep = continuation_run(problem)
    growth = rep.monitor_growth()
    above = min(np.min(s.profile.u - problem.subsolution.u) for s in rep.states)
    ok = (sub_ok
          and all(s.converged for s in rep.states)
          and all(g <= 2.0 for g in growth)
          and above >= -1e-8)
    elapsed = time.perf_counter() - start
    report(8, ok, 60.0, elapsed,
           f"monitor growth factors = ({growth[0]:.3f}, {growth[1]:.3f}, {growth[2]:.3f}), "
           f"min(u_t - usub) = {above:.2e}")


def test_criterion_09_blow_up_shape():
    # Example-data run: (n, k, c) = (5, 4, -0.5) engages the curvature growth
    # regime inside the monitored window; see the ledgered scan
    start = time.perf_counter()
    problem, params, init = example_boundary_problem(5, 4, -0.5, node_count=1001)
    schedule = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.975, 0.99)
    rep = continuation_run(problem, t_schedule=schedule, init=init)
    tol = NewtonOptions().tol
    solved = all(s.converged and s.residual_norm <= (tol if s.rounding_floor is None
                                                     else s.rounding_floor)
                 for s in rep.states)
    tail = [s for s in rep.states if s.t >= 0.9 - 1e-12]
    sup = [s.monitors[2] for s in tail]
    scaled = [(1.0 - s.t) * s.monitors[2] for s in tail]
    nondecreasing = all(a <= b + 1e-12 for a, b in zip(sup, sup[1:]))
    band = max(scaled) / min(scaled)
    elapsed = time.perf_counter() - start
    report(9, solved and nondecreasing and band <= 3.0, 120.0, elapsed,
           f"sup|u''| tail = {[f'{v:.2f}' for v in sup]}, scaled band = {band:.3f}, "
           f"{sum(s.rounding_floor is not None for s in rep.states)} of {len(rep.states)} "
           f"states stopped at the rounding floor")


def test_criterion_10_concavity_margin_property():
    start = time.perf_counter()
    # the suite returns only once it has kept all 10000 separated samples
    [row] = concavity_margin_suite(SymFuncSpec("sigma_k_root", n=3, k=2),
                                   samples=10000, beta=0.2, seed=7)
    elapsed = time.perf_counter() - start
    report(10, row.worst > 0.0, 30.0, elapsed,
           f"kept 10000 separated samples, min margin = {row.worst:.3e}")
