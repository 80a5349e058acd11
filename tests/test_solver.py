"""Tests of the damped Newton solver and the t-continuation."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded

from yamabe import solver, symfun
from yamabe._errors import (
    ConeDomainError,
    ConeViolationError,
    ContinuationError,
    NonconvergenceError,
    NumericalError,
)
from yamabe.benchmarks import (
    example_boundary_problem,
    manufactured_problem,
    radial_curvature_value,
    subsolution_benchmark,
)
from yamabe.geometry import CylinderGeometry, RadialProfile
from yamabe.solver import (
    DEFAULT_T_SCHEDULE,
    ContinuationReport,
    DirichletProblem,
    NewtonOptions,
    check_subsolution,
    continuation_run,
    estimate_monitors,
    jacobian,
    newton_solve,
    residual,
)
from yamabe.symfun import BrokenHomogeneitySpec, SymFuncSpec

from oracles import banded_to_dense, fd_jacobian_column, radial_rows


class TestProblemValidation:
    def test_rejects_nonpositive_psi(self):
        geom = CylinderGeometry(n=4, half_length=1.0)
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        with pytest.raises(ValueError):
            DirichletProblem(
                geom=geom, spec=spec,
                psi=lambda x, z: np.zeros_like(np.asarray(x, float) * np.asarray(z, float)),
                psi_z=lambda x, z: np.zeros_like(np.asarray(x, float) * np.asarray(z, float)),
                phi_left=0.0, phi_right=0.0,
            )

    def test_rejects_increasing_psi_in_z(self):
        geom = CylinderGeometry(n=4, half_length=1.0)
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        with pytest.raises(ValueError):
            DirichletProblem(
                geom=geom, spec=spec,
                psi=lambda x, z: np.exp(np.asarray(z, float)) * np.ones_like(np.asarray(x, float)),
                psi_z=lambda x, z: np.exp(np.asarray(z, float)) * np.ones_like(np.asarray(x, float)),
                phi_left=0.0, phi_right=0.0,
            )

    def test_rejects_subsolution_boundary_mismatch(self):
        geom = CylinderGeometry(n=4, half_length=1.0)
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        sub = RadialProfile.uniform(1.0, 11, lambda x: 0.3 * np.cosh(x))
        with pytest.raises(ValueError):
            DirichletProblem(
                geom=geom, spec=spec,
                psi=lambda x, z: np.ones_like(np.asarray(x, float) * np.asarray(z, float)),
                psi_z=lambda x, z: np.zeros_like(np.asarray(x, float) * np.asarray(z, float)),
                phi_left=0.0, phi_right=0.0, subsolution=sub,
            )

    def test_subsolution_grid_outside_cylinder_rejected(self):
        geom = CylinderGeometry(n=4, half_length=0.5)
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        sub = RadialProfile.uniform(1.0, 11, 0.0)
        with pytest.raises(ValueError, match="span exactly"):
            DirichletProblem(
                geom=geom, spec=spec,
                psi=lambda x, z: np.ones_like(np.asarray(x, float) * np.asarray(z, float)),
                psi_z=lambda x, z: np.zeros_like(np.asarray(x, float) * np.asarray(z, float)),
                phi_left=0.0, phi_right=0.0, subsolution=sub,
            )

    def test_profile_grid_outside_cylinder_rejected(self):
        problem, exact = manufactured_problem(0.5, node_count=101)
        wide = RadialProfile.uniform(2.0, 101, exact.u)
        with pytest.raises(ValueError, match="span exactly"):
            residual(problem, 0.5, wide)
        with pytest.raises(ValueError, match="span exactly"):
            jacobian(problem, 0.5, wide)


class TestResidual:
    def test_manufactured_residual_second_order(self):
        errs = []
        for m in (101, 201, 401):
            problem, exact = manufactured_problem(0.5, node_count=m)
            res = residual(problem, 0.5, exact)
            errs.append(np.abs(res).max())
        order = math.log(errs[0] / errs[-1]) / math.log(4.0)
        assert order >= 1.9

    def test_subsolution_residual_nonnegative(self):
        problem = subsolution_benchmark(node_count=201)
        for t in (0.0, 0.3, 0.7, 1.0):
            res = residual(problem, t, problem.subsolution)
            assert res[1:-1].min() >= -1e-10

    def test_boundary_rows(self):
        problem, exact = manufactured_problem(0.5, node_count=101)
        res = residual(problem, 0.5, exact)
        assert res[0] == pytest.approx(0.0, abs=1e-14)
        assert res[-1] == pytest.approx(0.0, abs=1e-14)
        shifted = exact.with_values(exact.u + 0.25)
        res2 = residual(problem, 0.5, shifted)
        assert res2[0] == pytest.approx(0.25, abs=1e-14)

    def test_cone_violation_names_node(self):
        problem, exact = manufactured_problem(0.5, node_count=101)
        bad = exact.u.copy()
        bad[50] -= 1.0  # a deep dent makes the curvature leave the cone nearby
        with pytest.raises(ConeViolationError) as err:
            residual(problem, 1.0, exact.with_values(bad))
        assert err.value.node is not None
        assert str(err.value.node) in str(err.value)


class TestJacobian:
    def test_banded_against_finite_differences(self):
        problem, exact = manufactured_problem(0.7, node_count=101)
        rng = np.random.default_rng(2)
        prof = exact.with_values(exact.u + 1e-3 * np.sin(3 * exact.grid))
        dense = banded_to_dense(jacobian(problem, 0.7, prof))
        for j in rng.choice(np.arange(1, 100), size=6, replace=False):
            col = fd_jacobian_column(problem, 0.7, prof, int(j))
            scale = max(np.abs(col).max(), 1.0)
            assert np.abs(col - dense[:, int(j)]).max() / scale <= 1e-6

    def test_t_zero_quasilinear_closed_form(self):
        # at t = 0 the equation is f(e) * trace(W[u]) = psi, so rows reduce to
        # f(e) (c2 - (n-2) u' c1) with no other eigenvalue coupling
        problem, exact = manufactured_problem(0.0, node_count=101)
        prof = exact
        n = problem.geom.n
        f_e = problem.spec.f_at_ones()
        grid = prof.grid
        h = grid[1] - grid[0]
        dense = banded_to_dense(jacobian(problem, 0.0, prof))
        du = prof.du
        for i in (25, 50, 75):
            row_expected = np.zeros(grid.size)
            row_expected[i - 1] = f_e * (1.0 / h ** 2 - (n - 2) * du[i] * (-1.0 / (2 * h)))
            row_expected[i] = f_e * (-2.0 / h ** 2)
            row_expected[i + 1] = f_e * (1.0 / h ** 2 - (n - 2) * du[i] * (1.0 / (2 * h)))
            assert np.allclose(dense[i], row_expected, rtol=1e-12, atol=1e-12)

    def test_boundary_rows_identity(self):
        problem, exact = manufactured_problem(0.5, node_count=101)
        dense = banded_to_dense(jacobian(problem, 0.5, exact))
        assert dense[0, 0] == 1.0 and np.all(dense[0, 1:] == 0.0)
        assert dense[-1, -1] == 1.0 and np.all(dense[-1, :-1] == 0.0)


def _swap_bands(ab, problem, profile):
    ab[0, 2:], ab[2, :-2] = ab[2, :-2].copy(), ab[0, 2:].copy()


def _wrong_boundary_row(ab, problem, profile):
    ab[1, -1] = 2.0


def _drop_psi_z(ab, problem, profile):
    ab[1, 1:-1] += problem.psi_z(profile.grid[1:-1], profile.u[1:-1])


def _perturb_one_diagonal_entry(ab, problem, profile):
    ab[1, ab.shape[1] // 3] *= 1.0 + 1e-6


class TestJacobianCheck:
    @pytest.mark.parametrize("corrupt", [
        _swap_bands, _wrong_boundary_row, _drop_psi_z, _perturb_one_diagonal_entry,
    ])
    def test_wrong_jacobian_is_caught(self, corrupt, monkeypatch):
        if corrupt is _drop_psi_z:
            # psi_z vanishes on the subsolution benchmark
            problem, _, init = example_boundary_problem(5, 4, -0.5, node_count=1001)
            t = 0.0
        else:
            problem = subsolution_benchmark(node_count=401)
            init, t = problem.subsolution, 0.5
        original = solver.jacobian

        def corrupted(problem, t, profile):
            ab = original(problem, t, profile)
            corrupt(ab, problem, profile)
            return ab

        monkeypatch.setattr(solver, "jacobian", corrupted)
        with pytest.raises(NumericalError, match="deviates from the directional"):
            newton_solve(problem, t, init)

    def test_fine_grid_continuation_passes(self):
        # a draw the dense column check rejected as a false alarm
        problem = subsolution_benchmark(amplitude=0.357, theta=0.537, node_count=4001)
        report = continuation_run(problem, opts=NewtonOptions(tol=1e-7))
        assert len(report.states) == len(DEFAULT_T_SCHEDULE)
        assert all(s.converged for s in report.states)

    def test_memory_stays_linear_in_grid_size(self):
        # the m x m float64 array a dense check needs is 128 MB at m = 4001
        problem = subsolution_benchmark(node_count=4001)
        tracemalloc.start()
        try:
            newton_solve(problem, 0.5, problem.subsolution, NewtonOptions(tol=1e-7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestNewton:
    def test_manufactured_convergence_and_contraction(self):
        problem, exact = manufactured_problem(0.5, node_count=201)
        init = exact.with_values(exact.u + 1e-3 * np.cos(np.pi * exact.grid / 2))
        state = newton_solve(problem, 0.5, init)
        assert state.converged
        assert np.abs(state.profile.u - exact.u).max() <= 5e-6  # O(h^2)
        if len(state.increment_norms) >= 2:
            first, last = state.increment_norms[0], state.increment_norms[-1]
            assert last <= first ** 2 * 10 + 1e-12  # quadratic endgame

    def test_exact_discrete_solution_needs_no_iterations(self):
        problem, exact = manufactured_problem(0.5, node_count=101)
        state = newton_solve(problem, 0.5, exact)
        refined = newton_solve(problem, 0.5, state.profile)
        assert refined.newton_iters == 0

    def test_cone_violating_init_rejected(self):
        problem, exact = manufactured_problem(0.5, node_count=101)
        steep = exact.with_values(1.2 * exact.grid)
        with pytest.raises(ConeViolationError):
            newton_solve(problem, 0.5, steep)

    def test_iteration_budget_raises_with_state(self):
        problem, exact = manufactured_problem(0.5, node_count=101)
        init = exact.with_values(exact.u + 1e-3 * np.cos(np.pi * exact.grid / 2))
        with pytest.raises(NonconvergenceError) as err:
            newton_solve(problem, 0.5, init, NewtonOptions(tol=1e-16, max_iter=2))
        assert err.value.state is not None
        assert err.value.state.residual_norm < 1.0


class TestStateEvaluation:
    """Each Newton state is evaluated once; the state carries what it found."""

    @pytest.fixture(scope="class")
    def solved(self):
        problem = subsolution_benchmark(node_count=401)
        return problem, newton_solve(problem, 0.5, problem.subsolution, NewtonOptions(tol=1e-9))

    def test_state_residual_is_the_residual_of_its_profile(self, solved):
        problem, state = solved
        assert state.converged
        assert np.array_equal(state.residual, residual(problem, 0.5, state.profile))
        assert state.residual_norm == np.abs(state.residual).max()

    def test_state_cone_margin_is_the_minimum_margin_score(self, solved):
        problem, state = solved
        prof = state.profile
        rows = radial_rows(problem.geom.n, prof.du[1:-1], prof.d2u[1:-1])
        assert state.cone_margin == problem.spec.margin_scores_t(0.5, rows).min()

    def test_increment_norms_always_recorded(self, solved):
        _, state = solved
        assert isinstance(state.increment_norms, tuple)
        assert len(state.increment_norms) == state.newton_iters >= 1

    def test_one_margin_evaluation_per_state(self, monkeypatch):
        # the radial kernel is the solver's only cone evaluation; its
        # gradient calls are the Jacobians
        problem = subsolution_benchmark(node_count=401)
        calls = {"margins": 0, "gradients": 0, "residual": 0}
        radial_eval = SymFuncSpec.radial_eval
        evaluate = solver._residual

        def counted_kernel(self, t, a, s, grad=False):
            calls["gradients" if grad else "margins"] += 1
            return radial_eval(self, t, a, s, grad=grad)

        def counted_residual(*args):
            calls["residual"] += 1
            return evaluate(*args)

        monkeypatch.setattr(SymFuncSpec, "radial_eval", counted_kernel)
        monkeypatch.setattr(solver, "_residual", counted_residual)
        state = newton_solve(problem, 0.5, problem.subsolution, NewtonOptions(tol=1e-9))
        assert state.converged
        assert calls["residual"] > state.newton_iters
        assert calls["margins"] == calls["residual"]
        assert calls["gradients"] == state.newton_iters

    def test_newton_never_builds_eigen_rows(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the (m, n) ESP path ran inside newton_solve")

        problem = subsolution_benchmark(node_count=401)
        monkeypatch.setattr(symfun, "_esp", forbidden)
        monkeypatch.setattr(symfun, "_esp_removed", forbidden)
        state = newton_solve(problem, 0.5, problem.subsolution, NewtonOptions(tol=1e-9))
        assert state.converged and state.newton_iters >= 1

    def test_cone_exit_in_line_search_is_damped(self):
        # at t = 0 the undamped first Newton step from the subsolution leaves
        # the cone; the line search must halve it instead of failing
        problem = subsolution_benchmark(node_count=401)
        sub = problem.subsolution
        delta = solve_banded((1, 1), jacobian(problem, 0.0, sub), -residual(problem, 0.0, sub))
        with pytest.raises(ConeViolationError):
            residual(problem, 0.0, sub.with_values(sub.u + delta))
        state = newton_solve(problem, 0.0, sub)
        assert state.converged
        assert state.increment_norms[0] < np.abs(delta).max()


class TestMonitors:
    def test_constant(self):
        prof = RadialProfile.uniform(1.0, 101, 3.0)
        # derivative crumbs come from the 1/h^2 stencil weights times rounding
        assert estimate_monitors(prof) == pytest.approx((3.0, 0.0, 0.0), abs=1e-10)

    def test_linear(self):
        a = 0.7
        prof = RadialProfile.uniform(2.0, 101, lambda x: a * x)
        m = estimate_monitors(prof)
        assert m[0] == pytest.approx(a * 2.0, rel=1e-14)
        assert m[1] == pytest.approx(a, rel=1e-12)
        assert m[2] == pytest.approx(0.0, abs=1e-11)

    def test_sine_against_analytic(self):
        for m_nodes in (201, 401):
            prof = RadialProfile.uniform(1.0, m_nodes, lambda x: np.sin(x) / 4)
            sup_u, sup_du, sup_d2u = estimate_monitors(prof)
            h = 2.0 / (m_nodes - 1)
            assert sup_u == pytest.approx(math.sin(1.0) / 4, abs=1e-10)
            assert sup_du == pytest.approx(0.25, abs=h ** 2)
            assert sup_d2u == pytest.approx(math.sin(1.0) / 4, abs=h ** 2 * 2)


class TestSubsolutionCheck:
    def test_scaled_problem_passes(self):
        problem = subsolution_benchmark(theta=0.5, node_count=201)
        report = check_subsolution(problem)
        assert report.passed
        # psi = f/2 leaves a margin of about half the curvature values
        assert report.min_margin > 0.25 * np.nanmin(report.margins + 1)

    def test_oversized_psi_fails_everywhere(self):
        problem = subsolution_benchmark(theta=0.5, node_count=201)
        doubled = DirichletProblem(
            geom=problem.geom, spec=problem.spec,
            psi=lambda x, z: 4.0 * problem.psi(x, z),
            psi_z=problem.psi_z,
            phi_left=problem.phi_left, phi_right=problem.phi_right,
            subsolution=problem.subsolution,
        )
        report = check_subsolution(doubled)
        assert not report.passed
        assert np.nanmax(report.margins) < 0

    def test_supersonic_slope_reports_cone_violation(self):
        geom = CylinderGeometry(n=4, half_length=1.0)
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        grid = np.linspace(-1, 1, 101)
        sub = RadialProfile(grid, 1.2 * grid)
        problem = DirichletProblem(
            geom=geom, spec=spec,
            psi=lambda x, z: np.ones_like(np.asarray(x, float) * np.asarray(z, float)),
            psi_z=lambda x, z: np.zeros_like(np.asarray(x, float) * np.asarray(z, float)),
            phi_left=-1.2, phi_right=1.2, subsolution=sub,
        )
        report = check_subsolution(problem)
        assert report.cone_violations
        assert not report.passed

    def test_margins_nan_exactly_at_cone_violations(self):
        # u' exceeds 1 on the left part of the grid, so W leaves Gamma_2 there
        geom = CylinderGeometry(n=4, half_length=1.0)
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        sub = RadialProfile.uniform(1.0, 101, lambda x: 0.6 * np.sinh(x) + 0.3 * np.cosh(x))
        problem = DirichletProblem(
            geom=geom, spec=spec,
            psi=lambda x, z: 0.1 * np.ones_like(np.asarray(x, float) * np.asarray(z, float)),
            psi_z=lambda x, z: np.zeros_like(np.asarray(x, float) * np.asarray(z, float)),
            phi_left=float(sub.u[0]), phi_right=float(sub.u[-1]), subsolution=sub,
        )
        report = check_subsolution(problem)
        rows = radial_rows(4, sub.du, sub.d2u)
        scores = spec.margin_scores(rows)
        outside = np.nonzero(scores <= spec.margin)[0]
        assert 0 < outside.size < 101
        assert report.cone_violations == tuple(int(i) for i in outside)
        assert report.min_cone_margin == float(scores.min())
        assert np.all(np.isnan(report.margins[outside]))
        inside = scores > spec.margin
        expected = spec.value_many(rows[inside]) - 0.1
        assert np.allclose(report.margins[inside], expected, rtol=1e-13, atol=1e-15)
        assert report.min_margin == pytest.approx(float(expected.min()), rel=1e-13)
        assert not report.passed

    def test_missing_subsolution_raises(self):
        problem, _ = manufactured_problem(0.5, node_count=101)
        with pytest.raises(ValueError):
            check_subsolution(problem)

    def test_rows_carry_the_verdict(self):
        report = check_subsolution(subsolution_benchmark(theta=0.5, node_count=201))
        margin, cone = report.checks
        assert (margin.name, margin.threshold) == ("margin", -1e-10)
        assert (cone.name, cone.threshold) == ("cone_margin", 0.0)
        assert margin.worst == report.min_margin and cone.worst == report.min_cone_margin
        assert margin.passed and cone.passed and report.passed

    def test_cone_violation_fails_both_rows(self):
        # the margin row stands for the whole check, so a cone violation
        # fails it even where every margin inside the cone is positive
        geom = CylinderGeometry(n=4, half_length=1.0)
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        sub = RadialProfile.uniform(1.0, 101, lambda x: 0.6 * np.sinh(x) + 0.3 * np.cosh(x))
        problem = DirichletProblem(
            geom=geom, spec=spec,
            psi=lambda x, z: 1e-9 * np.ones_like(np.asarray(x, float) * np.asarray(z, float)),
            psi_z=lambda x, z: np.zeros_like(np.asarray(x, float) * np.asarray(z, float)),
            phi_left=float(sub.u[0]), phi_right=float(sub.u[-1]), subsolution=sub,
        )
        report = check_subsolution(problem)
        assert report.min_margin > 0
        assert [c.passed for c in report.checks] == [False, False]
        assert not report.passed


class TestRadialCurvatureValue:
    def test_matches_the_rows(self):
        spec = SymFuncSpec("quotient", n=5, k=3, l=1)
        grid = np.linspace(-1.0, 1.0, 51)
        du, d2u = 0.3 * np.sinh(grid), 0.3 * np.cosh(grid)
        rows = radial_rows(5, du, d2u)
        for t in (0.0, 0.5, 1.0):
            assert np.array_equal(radial_curvature_value(spec, t, du, d2u),
                                  spec.value_t_many(t, rows))

    def test_scalar_input(self):
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        value = radial_curvature_value(spec, 1.0, 0.2, 1.0)
        assert value.shape == (1,)
        assert value[0] == spec.value_t(1.0, radial_rows(4, [0.2], [1.0])[0])

    def test_outside_cone_raises_with_the_row_path_text(self):
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        du = np.array([0.1, 1.5, 0.1])
        d2u = np.array([1.0, 0.0, 1.0])
        with pytest.raises(ConeDomainError) as exc:
            radial_curvature_value(spec, 1.0, du, d2u)
        with pytest.raises(ConeDomainError) as expected:
            spec.value_t_many(1.0, radial_rows(4, du, d2u))
        assert str(exc.value) == str(expected.value)

    @pytest.mark.parametrize("spec", [SymFuncSpec("sigma_k_root", n=4, k=2),
                                      BrokenHomogeneitySpec(n=4)])
    def test_outside_cone_error_carries_the_minimum_score(self, spec):
        du = np.array([0.1, 1.5, 0.1, 2.0])
        d2u = np.array([1.0, 0.0, 1.0, -3.0])
        with pytest.raises(ConeDomainError) as exc:
            radial_curvature_value(spec, 1.0, du, d2u)
        scores = spec.margin_scores(radial_rows(4, du, d2u))
        assert exc.value.min_score == float(scores.min()) < 0.0


class TestContinuation:
    def test_benchmark_full_schedule(self):
        problem = subsolution_benchmark(node_count=201)
        report = continuation_run(problem)
        assert len(report.states) == len(DEFAULT_T_SCHEDULE)
        assert all(s.converged for s in report.states)
        assert all(s.cone_margin > 0 for s in report.states)
        # warm starts keep the iteration count small after the first solve
        assert max(s.newton_iters for s in report.states[1:]) <= 10
        # monitors never grow beyond twice their initial values
        assert report.uniform_within(2.0)
        # the solution stays above the subsolution
        ubar = problem.subsolution.u
        for s in report.states:
            assert np.min(s.profile.u - ubar) >= -1e-8

    def test_rows_of_a_run_and_of_a_stopped_one(self):
        states = continuation_run(subsolution_benchmark(node_count=101),
                                  t_schedule=(0.0, 0.5)).states
        growth, full = ContinuationReport(states=states, failed_t=None).checks(2.0)
        assert (growth.name, growth.passed, growth.threshold) == ("uniform_growth", True, 2.0)
        assert growth.worst == max(ContinuationReport(states, None).monitor_growth())
        assert (full.name, full.passed, full.worst, full.threshold) == (
            "full_schedule", True, -1.0, -1.0)
        [stopped] = ContinuationReport(states=states[:1], failed_t=0.5).checks(None)
        assert (stopped.name, stopped.passed, stopped.worst) == ("full_schedule", False, 0.5)
        assert [c.name for c in ContinuationReport([], 0.0).checks(2.0)] == ["full_schedule"]

    def test_feasible_warm_starts_are_not_screened(self, monkeypatch):
        # Newton's first evaluation is the cone screen of a warm start; only
        # the blend ladder of an infeasible one calls _inside_cone.  The
        # counts per t were one higher when every warm start was screened,
        # with the same Newton iterations.
        calls = {}
        inside = solver._inside_cone

        def counted(problem, t, profile):
            calls[t] = calls.get(t, 0) + 1
            return inside(problem, t, profile)

        monkeypatch.setattr(solver, "_inside_cone", counted)
        report = continuation_run(subsolution_benchmark(node_count=401))
        assert [calls.get(s.t, 0) for s in report.states] == [0, 0, 0, 0, 4, 5, 6, 6, 7, 7, 6, 0, 0]
        assert [s.newton_iters for s in report.states] == [5, 3, 4, 4, 4, 4, 5, 5, 6, 5, 3, 4, 4]

    def test_jacobian_check_failure_carries_partial_states(self, monkeypatch):
        def alarm(problem, t, profile, ab):
            raise NumericalError(f"alarm at t={t}")

        monkeypatch.setattr(solver, "_check_jacobian", alarm)
        problem = subsolution_benchmark(node_count=101)
        with pytest.raises(ContinuationError) as err:
            continuation_run(problem, t_schedule=(0.0, 0.5))
        assert err.value.t_failed == 0.0 and err.value.states == []
        assert str(err.value.cause) == "alarm at t=0.0"

    def test_manufactured_t_family_shares_solution(self):
        # psi is built per t from the DISCRETE curvature of one grid profile,
        # so that same grid function is the exact discrete solution of every
        # family member and the recovered states coincide to solver tolerance
        geom = CylinderGeometry(n=4, half_length=1.0)
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        grid = np.linspace(-1.0, 1.0, 201)
        star = RadialProfile(grid, 0.3 * np.cosh(grid))
        results = []
        for t in (0.0, 0.5, 0.99):
            nodal = radial_curvature_value(spec, t, star.du, star.d2u)

            def psi(x, z, nodal=nodal):
                return np.interp(np.asarray(x, float), grid, nodal) \
                    * np.ones_like(np.asarray(z, float))

            def psi_z(x, z):
                return np.zeros_like(np.asarray(x, float) * np.asarray(z, float))

            problem = DirichletProblem(geom=geom, spec=spec, psi=psi, psi_z=psi_z,
                                       phi_left=float(star.u[0]), phi_right=float(star.u[-1]))
            init = star.with_values(star.u + 1e-3 * np.cos(np.pi * grid / 2))
            report = continuation_run(problem, t_schedule=(t,), init=init)
            results.append(report.states[0].profile.u)
        assert np.abs(results[0] - results[1]).max() <= 1e-8
        assert np.abs(results[0] - results[2]).max() <= 1e-8

    def test_schedule_validation(self):
        problem = subsolution_benchmark(node_count=101)
        with pytest.raises(ValueError):
            continuation_run(problem, t_schedule=(0.5, 0.2))
        with pytest.raises(ValueError):
            continuation_run(problem, t_schedule=(0.0, 1.0))

    def test_missing_start_profile(self):
        problem, _ = manufactured_problem(0.5, node_count=101)
        with pytest.raises(ValueError):
            continuation_run(problem, t_schedule=(0.5,))

    def test_failure_carries_partial_states(self):
        problem = subsolution_benchmark(node_count=101)
        opts = NewtonOptions(tol=1e-10, max_iter=1)
        with pytest.raises(ContinuationError) as err:
            continuation_run(problem, opts=opts)
        assert err.value.t_failed is not None
        assert isinstance(err.value.states, list)

    def test_example_data_curvature_grows(self):
        problem, params, init = example_boundary_problem(4, 2, 0.0, node_count=201)
        schedule = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99)
        report = continuation_run(problem, t_schedule=schedule, init=init)
        tail = [s.monitors[2] for s in report.states if s.t >= 0.9 - 1e-12]
        assert all(a <= b + 1e-12 for a, b in zip(tail, tail[1:]))
        scaled = dict(report.curvature_scaled())
        assert len(scaled) == len(schedule)


class TestGridConvergence:
    @pytest.mark.parametrize("t", [0.0, 0.5, 0.99])
    def test_manufactured_order(self, t):
        errs = []
        for m in (101, 201, 401):
            problem, exact = manufactured_problem(t, node_count=m)
            init = exact.with_values(exact.u + 1e-3 * np.cos(np.pi * exact.grid / 2))
            state = newton_solve(problem, t, init)
            errs.append(np.abs(state.profile.u - exact.u).max())
        order = math.log(errs[0] / errs[-1]) / math.log(4.0)
        assert order >= 1.9
