"""Tests of the damped Newton solver and the t-continuation."""

import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from scipy import optimize
from scipy.linalg import solve_banded

from yamabe import solver, symfun
from yamabe._errors import (
    ConeDomainError,
    ConeViolationError,
    ContinuationError,
    NewtonError,
    NonconvergenceError,
    NumericalError,
    StepFailureError,
)
from yamabe.benchmarks import (
    SCALED_PSI_NODES,
    constant_psi,
    cosh_profile,
    dirichlet_problem,
    example1_rhs_psi,
    example_boundary_problem,
    linear_profile,
    manufactured_problem,
    radial_curvature_value,
    subsolution_benchmark,
    subsolution_scaled_psi,
)
from yamabe.example1 import ExampleParams
from yamabe.geometry import CylinderGeometry, RadialProfile, radial_w_eigenvalues
from yamabe.solver import (
    DEFAULT_T_SCHEDULE,
    ContinuationReport,
    DirichletProblem,
    NewtonOptions,
    check_subsolution,
    check_t_schedule,
    continuation_run,
    continuation_states,
    estimate_monitors,
    jacobian,
    newton_solve,
    residual,
)
from yamabe.symfun import RadialEvaluation, SymFuncSpec

from oracles import (
    all_specs,
    banded_to_dense,
    even_shot,
    example1_residual_in_long_double,
    fd_jacobian_column,
    interior_spectrum,
    radial_rows,
    restore_by_full_passes,
    rounding_floor_by_nodes,
    scaled_psi_by_closed_form,
    semilinear_even_orbit,
    semilinear_solution,
    semilinear_travel_time,
)


class TestProblemValidation:
    def test_rejects_nonpositive_psi(self):
        geom = CylinderGeometry(half_length=1.0, node_count=11)
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        with pytest.raises(ValueError):
            DirichletProblem(
                geom=geom, spec=spec,
                psi=lambda x, z: np.zeros_like(np.asarray(x, float) * np.asarray(z, float)),
                psi_z=lambda x, z: np.zeros_like(np.asarray(x, float) * np.asarray(z, float)),
                phi_left=0.0, phi_right=0.0,
            )

    # psi = e^z, with its true psi_z, or with psi_z declared 0, which only
    # the sampled derivative contradicts
    @pytest.mark.parametrize("psi_z, message", [
        (lambda x, z: np.exp(np.asarray(z, float)) * np.ones_like(np.asarray(x, float)),
         "psi_z must be nonpositive on the working range"),
        (lambda x, z: np.zeros_like(np.asarray(x, float) * np.asarray(z, float)),
         "sampled z-derivative of psi contradicts the declared psi_z"),
    ], ids=["declared", "sampled"])
    def test_rejects_increasing_psi_in_z(self, psi_z, message):
        geom = CylinderGeometry(half_length=1.0, node_count=11)
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        with pytest.raises(ValueError, match=message):
            DirichletProblem(
                geom=geom, spec=spec,
                psi=lambda x, z: np.exp(np.asarray(z, float)) * np.ones_like(np.asarray(x, float)),
                psi_z=psi_z,
                phi_left=0.0, phi_right=0.0,
            )

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_subsolution_benchmark_rejects_theta_outside_the_open_interval(self, theta):
        with pytest.raises(ValueError, match=r"theta must lie in \(0, 1\)"):
            subsolution_benchmark(theta=theta)

    def test_rejects_subsolution_boundary_mismatch(self):
        geom = CylinderGeometry(half_length=1.0, node_count=11)
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        sub = geom.profile(lambda x: 0.3 * np.cosh(x))
        with pytest.raises(ValueError):
            DirichletProblem(
                geom=geom, spec=spec,
                psi=lambda x, z: np.ones_like(np.asarray(x, float) * np.asarray(z, float)),
                psi_z=lambda x, z: np.zeros_like(np.asarray(x, float) * np.asarray(z, float)),
                phi_left=0.0, phi_right=0.0, subsolution=sub,
            )

    def test_rejects_a_nan_subsolution_end(self):
        # abs(nan - phi) > 1e-12 is False: the comparison must count NaN as a mismatch
        geom = CylinderGeometry(half_length=1.0, node_count=11)
        u = 0.3 * np.cosh(geom.stencils.grid)
        u[-1] = math.nan
        psi, psi_z = constant_psi(1.0)
        with pytest.raises(ValueError, match="match the boundary values"):
            DirichletProblem(
                geom=geom, spec=SymFuncSpec("sigma_k_root", n=4, k=2),
                psi=psi, psi_z=psi_z, phi_left=float(u[0]), phi_right=float(u[0]),
                subsolution=RadialProfile(geom, u),
            )

    @pytest.mark.parametrize("phi_left", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_boundary_values(self, phi_left):
        psi, psi_z = constant_psi(1.0)
        with pytest.raises(ValueError, match="boundary values must be finite"):
            DirichletProblem(
                geom=CylinderGeometry(half_length=1.0, node_count=11),
                spec=SymFuncSpec("sigma_k_root", n=4, k=2),
                psi=psi, psi_z=psi_z, phi_left=phi_left, phi_right=0.0,
            )

    def test_subsolution_grid_outside_cylinder_rejected(self):
        geom = CylinderGeometry(half_length=0.5, node_count=11)
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        sub = CylinderGeometry(half_length=1.0, node_count=11).profile(np.zeros_like)
        with pytest.raises(ValueError, match="problem's grid"):
            DirichletProblem(
                geom=geom, spec=spec,
                psi=lambda x, z: np.ones_like(np.asarray(x, float) * np.asarray(z, float)),
                psi_z=lambda x, z: np.zeros_like(np.asarray(x, float) * np.asarray(z, float)),
                phi_left=0.0, phi_right=0.0, subsolution=sub,
            )

    def test_profile_grid_outside_cylinder_rejected(self):
        problem, exact = manufactured_problem(0.5, node_count=101)
        wide = RadialProfile(CylinderGeometry(2.0, 101), exact.u)
        with pytest.raises(ValueError, match="problem's grid"):
            residual(problem, 0.5, wide)
        with pytest.raises(ValueError, match="problem's grid"):
            jacobian(problem, 0.5, wide)

    def test_profile_on_an_equal_geometry_accepted(self):
        # a geometry built apart but equal to the problem's has the same
        # nodes and weights, so a profile on it is the problem's bit for bit
        problem, exact = manufactured_problem(0.5, node_count=101)
        twin = RadialProfile(CylinderGeometry(1.0, 101), exact.u)
        assert twin.geom is not problem.geom and twin.geom == problem.geom
        assert np.array_equal(residual(problem, 0.5, twin), residual(problem, 0.5, exact))
        assert np.array_equal(jacobian(problem, 0.5, twin), jacobian(problem, 0.5, exact))
        init = twin.with_values(twin.u + 1e-3 * np.cos(np.pi * twin.grid / 2))
        state = newton_solve(problem, 0.5, init)
        reference = newton_solve(problem, 0.5, exact.with_values(init.u))
        assert state.converged and state.newton_iters == reference.newton_iters
        assert np.array_equal(state.profile.u, reference.profile.u)


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


@pytest.fixture(scope="module")
def subsolution_runs_to_one():
    """Per node count 201, 401 and 4001: the subsolution benchmark, its
    continuation on the default schedule and t = 1, and every Jacobian
    Newton built along it, one run per size for the tests that read it."""
    runs, assemble = {}, solver.jacobian
    for m in (201, 401, 4001):
        problem, matrices = subsolution_benchmark(node_count=m), []

        def record(*args, matrices=matrices):
            matrices.append(assemble(*args))
            return matrices[-1]

        with mock.patch.object(solver, "jacobian", record):
            report = continuation_run(problem, t_schedule=DEFAULT_T_SCHEDULE + (1.0,))
        runs[m] = problem, report, matrices
    return runs


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
        n = problem.spec.n
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

    @pytest.mark.parametrize("n", range(3, 10))
    def test_held_evaluation_gives_the_same_jacobian(self, n):
        # a profile inside Gamma_n, so inside every cone and every
        # interpolated cone; the residual's evaluation of it builds the
        # same Jacobian as a fresh evaluation
        for spec in all_specs(n):
            problem = dirichlet_problem(spec, CylinderGeometry(1.0, 101), constant_psi(1.0),
                                        subsolution=cosh_profile(0.8))
            sub = problem.subsolution
            prof = sub.with_values(sub.u + 0.01 * np.sin(2.0 * sub.grid))
            for t in (0.0, 0.3, 0.99, 1.0):
                _, evaluation = solver._residual(problem, t, prof.u, prof.du, prof.d2u)
                assert np.array_equal(jacobian(problem, t, prof, evaluation.gradient()),
                                      jacobian(problem, t, prof))

    def test_newton_path_jacobian_on_example1_data(self, spy):
        # every state stops at its rounding floor, and each floor stop builds
        # one Jacobian beyond its Newton iterations, for the step no damping
        # makes acceptable: 29 = 25 + 4
        problem, _, init = example_boundary_problem(5, 4, -0.5, node_count=1001)
        jacobians = spy(solver, "jacobian")
        schedule = (0.0, 0.3, 0.99, 1.0)
        report = continuation_run(problem, t_schedule=schedule, init=init)
        assert [s.t for s in report.states if s.rounding_floor is not None] == list(schedule)
        assert sum(s.newton_iters for s in report.states) == 25
        assert jacobians.call_count == 25 + 4
        for call in jacobians.call_args_list:
            _, t, profile, gradient = call.args
            assert gradient is not None
            assert np.array_equal(jacobian(*call.args), jacobian(problem, t, profile))

    @pytest.mark.parametrize("m", [201, 401, 4001])
    def test_newton_path_jacobian_is_monotone(self, m, subsolution_runs_to_one):
        # every Jacobian of the subsolution benchmark's continuation to t = 1
        # has positive interior off-diagonals, a negative diagonal, a cell
        # Peclet number below 0.01, and zero row sums to rounding, as psi_z
        # is 0 on these data
        _, report, matrices = subsolution_runs_to_one[m]
        assert report.failed_t is None and matrices
        for ab in matrices:
            lower, diag, upper = ab[2, :-2], ab[1, 1:-1], ab[0, 2:]
            assert (lower > 0).all() and (upper > 0).all() and (diag < 0).all()
            assert (np.abs(upper - lower) / (upper + lower)).max() < 0.01
            assert (np.abs(lower + diag + upper) <= 1e-14 * np.abs(diag)).all()

    @pytest.mark.parametrize("case", ["subsolution", "example1"])
    def test_difference_oracle_jacobian_is_an_m_matrix(self, case):
        # M, the finite-difference J of every column (the two ends too) with
        # its interior rows negated, is a Z-matrix with a nonnegative
        # inverse at each state; on Example 1 data psi_z < 0 makes M 1 < 0,
        # so diagonal dominance fails there, yet M is an M-matrix
        if case == "subsolution":
            problem, init, schedule, agree = subsolution_benchmark(node_count=201), None, \
                (0.0, 0.5, 0.99, 1.0), 1e-7
        else:
            (problem, _, init), schedule, agree = \
                example_boundary_problem(4, 2, -0.5, node_count=201), (0.0, 0.5, 0.99), 1e-5
        report = continuation_run(problem, t_schedule=schedule, init=init)
        assert [s.t for s in report.states] == list(schedule)
        m = problem.geom.node_count
        for s in report.states:
            fd = np.column_stack([fd_jacobian_column(problem, s.t, s.profile, j) for j in range(m)])
            banded = banded_to_dense(jacobian(problem, s.t, s.profile))
            assert np.abs(fd - banded).max() <= agree * np.abs(banded).max()
            M = fd.copy()
            M[1:-1] *= -1.0
            assert (M[~np.eye(m, dtype=bool)] <= 0).all()
            inverse = np.linalg.inv(M)
            assert inverse.min() >= -1e-12 * np.abs(inverse).max()
            if case == "example1":     # the banded J's interior rows sum to -psi_z
                assert (banded[1:-1].sum(axis=1) > 0).all()

    @pytest.mark.parametrize("data", [None, (4, 2, -0.5), (5, 4, -0.5), (4, 2, 0.0), (4, 3, -0.5)],
                             ids=["subsolution", "4-2-c-0.5", "5-4-c-0.5", "4-2-c0", "4-3-c-0.5"])
    def test_interior_block_has_positive_eigenvalues(self, data):
        # the interior block of -J, symmetrized by a diagonal similarity
        # (its off-diagonal pairs have positive products), has a positive
        # smallest eigenvalue at every continuation state on 201 nodes;
        # measured minima 5.36 (subsolution), 78.8, 809.7, 2.96 and 159
        if data is None:
            problem, init = subsolution_benchmark(node_count=201), None
            schedule = DEFAULT_T_SCHEDULE + (1.0,)
        else:
            (problem, _, init), schedule = example_boundary_problem(*data, node_count=201), None
        report = continuation_run(problem, t_schedule=schedule, init=init)
        assert report.failed_t is None and report.states
        for s in report.states:
            [lowest] = interior_spectrum(jacobian(problem, s.t, s.profile), 1)
            assert lowest > 0

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
    def test_wrong_jacobian_is_caught(self, corrupt, spy):
        if corrupt is _drop_psi_z:
            # psi_z vanishes on the subsolution benchmark
            problem, _, init = example_boundary_problem(5, 4, -0.5, node_count=1001)
            t = 0.0
        else:
            problem = subsolution_benchmark(node_count=401)
            init, t = problem.subsolution, 0.5

        def corrupted(problem, t, profile, gradient=None):
            ab = jacobian(problem, t, profile, gradient)
            corrupt(ab, problem, profile)
            return ab

        jacobians = spy(solver, "jacobian", corrupted)
        with pytest.raises(NumericalError, match="deviates from the directional"):
            newton_solve(problem, t, init)
        # Newton hands the Jacobian the gradient of its state
        assert [call.args[3] is not None for call in jacobians.call_args_list] == [True]

    def test_nan_deviation_is_caught(self):
        # one NaN entry in J makes J v, and so the deviation, NaN
        problem = subsolution_benchmark(node_count=401)
        sub = problem.subsolution
        ab = jacobian(problem, 0.5, sub)
        ab[1, 200] = np.nan
        with pytest.raises(NumericalError, match="deviates from the directional .* by nan"):
            solver._check_jacobian(problem, 0.5, sub, ab)

    def test_cone_exit_of_the_first_step_shrinks_it(self, spy):
        # a bump in u lowers u'' near x = 0.3 until the state's cone margin
        # at t = 0.5 is 3e-7: the probe's first step 1e-6 leaves the cone
        problem = subsolution_benchmark(node_count=401)
        sub = problem.subsolution
        bump = np.exp(-((sub.grid - 0.3) / 0.05) ** 2)

        def margin(theta):
            bumped = sub.with_values(sub.u - theta * bump)
            return solver._radial_eval(problem, 0.5, bumped.du, bumped.d2u).scores.min()

        lo, hi = 0.0, 1.0
        while margin(hi) > 0.0:
            hi *= 2.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if margin(mid) > 3e-7 else (lo, mid)
        state = sub.with_values(sub.u - lo * bump)
        assert 3e-7 < margin(lo) < 3.1e-7
        residuals = spy(solver, "_residual")
        solver._check_jacobian(problem, 0.5, state, jacobian(problem, 0.5, state))
        first, second = residuals.call_args_list[:2]
        exits = [solver._radial_eval(problem, 0.5, *call.args[3:5]).outside.size > 0
                 for call in (first, second)]
        steps = [np.abs(call.args[2] - state.u).max() for call in (first, second)]
        assert exits == [True, False]
        assert steps[1] == pytest.approx(0.1 * steps[0], rel=1e-6, abs=0.0)

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

    def test_singular_jacobian_raises_with_the_state(self, monkeypatch):
        def singular(ab, b):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(solver, "solve_banded", singular)
        problem = subsolution_benchmark(node_count=101)
        sub = problem.subsolution
        with pytest.raises(StepFailureError, match="singular Jacobian at t=0.5") as err:
            newton_solve(problem, 0.5, sub)
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
        state = err.value.state
        assert state.profile is sub and state.newton_iters == 0 and not state.converged
        assert np.array_equal(state.residual, residual(problem, 0.5, sub))

    def test_non_finite_jacobian_raises_with_the_state(self, monkeypatch):
        # solve_banded's ValueError on a NaN in J ends Newton as a step
        # failure carrying the state, as a singular J does; the Jacobian
        # check, which would reject that J first, is taken out
        original = solver.jacobian

        def one_nan(problem, t, profile, evaluation=None):
            ab = original(problem, t, profile, evaluation)
            ab[1, 50] = np.nan
            return ab

        monkeypatch.setattr(solver, "jacobian", one_nan)
        monkeypatch.setattr(solver, "_check_jacobian", lambda *args: None)
        problem = subsolution_benchmark(node_count=101)
        sub = problem.subsolution
        with pytest.raises(StepFailureError, match="Newton system at t=0.5: .*NaN") as err:
            newton_solve(problem, 0.5, sub)
        assert isinstance(err.value.__cause__, ValueError)
        state = err.value.state
        assert state.profile is sub and state.newton_iters == 0 and not state.converged

    def test_non_finite_start_residual_is_its_own_cause(self, monkeypatch):
        # psi = e^800 overflows at the constant start -400 on the (5, 4)
        # Example 1 data, so the residual is -inf at every interior node:
        # Newton names the first, before its Jacobian check would deviate
        # by NaN, as a NumericalError that carries no state
        def unreached(*args):
            raise AssertionError("the Jacobian check ran")

        monkeypatch.setattr(solver, "_check_jacobian", unreached)
        problem, _, _ = example_boundary_problem(5, 4, -0.5, node_count=101)
        start = problem.geom.profile(lambda x: np.full_like(x, -400.0))
        with np.errstate(over="ignore"), pytest.raises(NumericalError) as err:
            newton_solve(problem, 0.0, start)
        assert str(err.value) == ("residual of the start at t=0.0 is not finite at node 1 "
                                  f"(x={start.grid[1]:.6g}, psi inf)")
        assert not isinstance(err.value, NewtonError)

    @pytest.mark.parametrize("options", [
        {"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf},
        {"max_iter": 0}, {"max_iter": 1.5}, {"max_iter": True},
    ], ids=["tol-0", "tol-negative", "tol-nan", "tol-inf", "max-iter-0", "max-iter-float",
            "max-iter-bool"])
    def test_options_outside_their_ranges_rejected(self, options):
        [name] = options
        with pytest.raises(ValueError, match=f"^{name} must be "):
            NewtonOptions(**options)

    def test_iteration_budget_raises_with_state(self):
        problem, exact = manufactured_problem(0.5, node_count=101)
        init = exact.with_values(exact.u + 1e-3 * np.cos(np.pi * exact.grid / 2))
        with pytest.raises(NonconvergenceError) as err:
            newton_solve(problem, 0.5, init, NewtonOptions(tol=1e-16, max_iter=2))
        assert err.value.state is not None
        assert err.value.state.residual_norm < 1.0


class TestTridiagonalSolve:
    """solver.solve_banded calls LAPACK's dgtsv as scipy's
    solve_banded((1, 1), ...) does: the same bits and the same errors."""

    @staticmethod
    def _system(rng, m, dominant):
        ab = rng.standard_normal((3, m))
        if dominant:
            ab[1] = np.sign(ab[1]) * (np.abs(ab[0]) + np.abs(ab[2]) + 1.0)
        return ab, rng.standard_normal(m)

    @pytest.mark.parametrize("m", [2, 3, 401, 4001])
    @pytest.mark.parametrize("dominant", [True, False], ids=["dominant", "pivoting"])
    def test_bit_identical_to_scipy(self, m, dominant):
        rng = np.random.default_rng(m)
        for _ in range(5):
            ab, b = self._system(rng, m, dominant)
            kept = ab.copy(), b.copy()
            x = solver.solve_banded(ab, b)
            assert np.array_equal(x, solve_banded((1, 1), ab, b))
            assert np.array_equal(ab, kept[0]) and np.array_equal(b, kept[1])
        if not dominant and m > 3:
            # some sub-diagonal entries outweigh their diagonal ones, so
            # partial pivoting exchanges rows
            ab, b = self._system(np.random.default_rng(m), m, dominant)
            assert np.any(np.abs(ab[2, :-1]) > np.abs(ab[1, :-1]))

    def test_singular(self):
        ab, b = np.ones((3, 4)), np.ones(4)
        ab[1, 0] = ab[2, 0] = 0.0
        for solve in (lambda: solver.solve_banded(ab, b), lambda: solve_banded((1, 1), ab, b)):
            with pytest.raises(np.linalg.LinAlgError, match="^singular matrix$"):
                solve()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["ab", "b", "unused corner"])
    def test_non_finite_entries(self, bad, where):
        ab, b = self._system(np.random.default_rng(7), 6, True)
        if where == "ab":
            ab[1, 3] = bad
        elif where == "b":
            b[2] = bad
        else:
            ab[0, 0] = bad     # scipy checks every entry of ab
        with pytest.raises(ValueError) as expected:
            solve_banded((1, 1), ab, b)
        with pytest.raises(ValueError) as err:
            solver.solve_banded(ab, b)
        assert str(err.value) == str(expected.value) == "array must not contain infs or NaNs"


def _spy_restores(spy, kernel=None):
    """Spies on the full radial kernel pass `_radial_eval` and the
    feasibility restore; `kernel`, when given, takes the kernel's place
    while a restore runs.  Returns the kernel spy and a list that gets, per
    restore, its arguments and the t of each kernel pass made inside it."""
    evaluate, restore, restores = solver._radial_eval, solver._restore_feasibility, []
    passes = spy(solver, "_radial_eval")

    def restoring(*args):
        kernel_calls = passes.call_count
        passes.side_effect = kernel or evaluate
        restored = restore(*args)
        passes.side_effect = evaluate
        restores.append((args, [call.args[1] for call in passes.call_args_list[kernel_calls:]]))
        return restored

    spy(solver, "_restore_feasibility", restoring)
    return passes, restores


def _restore_passes(restores):
    """The t of each full kernel pass of the restores `_spy_restores`
    recorded."""
    return [t for _, passes in restores for t in passes]


class TestRoundingFloor:
    """Newton returns a state whose residual sits at or below its rounding
    floor F as converged, when no damped step is acceptable."""

    def test_example_data_converges_at_the_default_tol(self):
        # criterion 9's data: F lies near 1e-7 on this short cylinder, far
        # above the default tol 1e-10, at every t of the default schedule
        problem, _, init = example_boundary_problem(5, 4, -0.5, node_count=1001)
        report = continuation_run(problem, init=init)
        assert [s.t for s in report.states] == list(DEFAULT_T_SCHEDULE)
        for s in report.states:
            assert s.converged
            assert NewtonOptions().tol < s.residual_norm <= s.rounding_floor

    def test_residual_above_the_floor_still_fails(self, monkeypatch):
        # a Jacobian scaled by 1e-20 makes every damped step overshoot, at a
        # residual far above F; the Jacobian check, which would reject it
        # first, is taken out
        assemble = solver.jacobian
        monkeypatch.setattr(solver, "jacobian", lambda *args: 1e-20 * assemble(*args))
        monkeypatch.setattr(solver, "_check_jacobian", lambda *args: None)
        problem, exact = manufactured_problem(0.5, node_count=101)
        init = exact.with_values(exact.u + 1e-3 * np.cos(np.pi * exact.grid / 2))
        with pytest.raises(StepFailureError) as err:
            newton_solve(problem, 0.5, init)
        state = err.value.state
        prof = state.profile
        _, evaluation = solver._residual(problem, 0.5, prof.u, prof.du, prof.d2u)
        floor = solver._rounding_floor(problem, prof, evaluation, evaluation.gradient())
        assert state.residual_norm > floor
        assert f"rounding floor {floor:.3e}" in str(err.value)
        assert not state.converged and state.rounding_floor is None

    @pytest.mark.parametrize("case", ["subsolution", "example1"])
    def test_floor_agrees_with_the_node_by_node_oracle(self, case):
        if case == "subsolution":
            t, problem = 0.5, subsolution_benchmark(node_count=401)
            profile = problem.subsolution
        else:
            t, (problem, _, profile) = 0.9, example_boundary_problem(5, 4, -0.5, node_count=1001)
        _, evaluation = solver._residual(problem, t, profile.u, profile.du, profile.d2u)
        floor = solver._rounding_floor(problem, profile, evaluation, evaluation.gradient())
        # F is about 1e-11 on the subsolution, so approx's default abs 1e-12 is off
        assert floor == pytest.approx(rounding_floor_by_nodes(problem, t, profile),
                                      rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("n, k, c", [(4, 2, -0.5), (4, 3, -0.5), (5, 4, -0.5)])
    def test_evaluation_rounding_against_long_double(self, n, k, c):
        # the float residual of a state differs from its long-double value,
        # on the same float state and weights, by the evaluation's own
        # rounding, which F does not count; it stays below F at every state
        # of the default continuation on 1001 nodes and at t = 0 on 2001
        # and 4001 nodes (measured 0.32-0.44 F at every t)
        assert np.finfo(np.longdouble).eps < 1e-18
        for m, schedule in ((1001, None), (2001, (0.0,)), (4001, (0.0,))):
            problem, _, init = example_boundary_problem(n, k, c, m)
            report = continuation_run(problem, t_schedule=schedule, init=init)
            assert [s.t for s in report.states] == list(schedule or DEFAULT_T_SCHEDULE)
            stencils = problem.geom.stencils
            for state in report.states:
                prof = state.profile
                _, evaluation = solver._residual(problem, state.t, prof.u, prof.du, prof.d2u)
                floor = solver._rounding_floor(problem, prof, evaluation, evaluation.gradient())
                exact = example1_residual_in_long_double(n, k, state.t, prof.u,
                                                         stencils.first.inner,
                                                         stencils.second.inner)
                assert np.abs(state.residual[1:-1] - exact).max() <= floor

    # the rounding floor's known failures (ROADMAP item 22): at t = 0 the
    # float residual creeps past F on fine grids (32001 nodes: 4.129e-05
    # against F = 4.085e-05; 64001 nodes: 1.670e-04 against 1.634e-04),
    # while 16001 nodes converges (9.67e-6 against F = 1.02e-5)
    @pytest.mark.parametrize("m", [
        16001,
        pytest.param(32001, marks=pytest.mark.xfail(strict=True, raises=StepFailureError)),
        pytest.param(64001, marks=pytest.mark.xfail(strict=True, raises=StepFailureError)),
    ])
    def test_fine_grid_t0_solve_converges(self, m):
        problem, _, init = example_boundary_problem(4, 2, -0.5, node_count=m)
        state = newton_solve(problem, 0.0, init)
        assert state.converged

    def test_floor_recorded_only_where_the_rule_fired(self):
        # the README-shaped (5, 3) solve stops at its rounding floor at
        # t = 0.4 to 0.8 and meets tol at the other t
        tol = NewtonOptions().tol
        report = continuation_run(subsolution_benchmark(n=5, k=3))
        fired = [s.t for s in report.states if s.rounding_floor is not None]
        assert 0 < len(fired) < len(report.states)
        for s in report.states:
            if s.rounding_floor is None:
                assert s.residual_norm <= tol
            else:
                assert tol < s.residual_norm <= s.rounding_floor

    def test_floor_reads_the_state_evaluation(self, spy):
        # the same (5, 3) solve: the floor rule makes no kernel call of its own
        kernel, restores = _spy_restores(spy)
        residuals = spy(solver, "_residual")
        report = continuation_run(subsolution_benchmark(n=5, k=3))
        assert any(s.rounding_floor is not None for s in report.states)
        restore_passes = _restore_passes(restores)
        assert restore_passes
        # a start comes with the evaluation the continuation or the
        # restore's ladder made
        evaluating = sum(len(call.args) == 5 or call.args[5] is None
                         for call in residuals.call_args_list)
        # one pass more per warm start, which the continuation evaluates
        assert kernel.call_count == evaluating + len(restore_passes) + len(report.states)

    def test_each_state_takes_one_gradient(self, spy):
        # the same (5, 3) solve: the floor rule reads the gradient that the
        # state's Jacobian took, so no gradient pass is made beside them
        gradients, jacobians = spy(RadialEvaluation, "gradient"), spy(solver, "jacobian")
        report = continuation_run(subsolution_benchmark(n=5, k=3))
        assert any(s.rounding_floor is not None for s in report.states)
        assert gradients.call_count == jacobians.call_count > 0

    def test_no_state_is_evaluated_twice(self, spy):
        # a stalled line search ends at its first step that moves no node,
        # and Newton takes a restored start's evaluation from the blend ladder
        kernel, restore = spy(solver, "_radial_eval"), spy(solver, "_restore_feasibility")
        report = continuation_run(subsolution_benchmark(n=5, k=3))
        assert any(s.rounding_floor is not None for s in report.states)
        # a restore that brought no blend back would have ended the run
        assert restore.call_count
        seen = [(t, du.tobytes(), d2u.tobytes()) for _, t, du, d2u in
                (call.args for call in kernel.call_args_list)]
        assert len(set(seen)) == len(seen)


class TestOneConeRule:
    """A tuple or a node with a NaN entry is outside the cone at every layer."""

    SPEC = SymFuncSpec("sigma_k_root", n=4, k=2)

    def test_rows(self):
        row = np.array([1.0, 2.0, np.nan, 1.0])
        assert not self.SPEC.contains(row)
        with pytest.raises(ConeDomainError):
            self.SPEC.value(row)
        with pytest.raises(ConeDomainError):
            self.SPEC.grad(row)

    @pytest.mark.parametrize("which", ["du", "d2u"])
    def test_radial_nodes(self, which):
        derivatives = {"du": np.array([0.1, 0.2, 0.1]), "d2u": np.array([1.0, 1.0, 1.0])}
        derivatives[which][1] = np.nan
        du, d2u = derivatives["du"], derivatives["d2u"]
        ev = self.SPEC.radial_eval(0.5, *radial_w_eigenvalues(du, d2u))
        assert ev.outside.tolist() == [1]
        assert np.isnan(ev.value[1]) and np.isfinite(ev.value[[0, 2]]).all()
        with pytest.raises(ConeDomainError):
            ev.gradient()
        with pytest.raises(ConeDomainError):
            radial_curvature_value(self.SPEC, 0.5, du, d2u)

    def test_residual_names_the_nan_node(self):
        problem, exact = manufactured_problem(0.5, node_count=101)
        d2u = exact.d2u.copy()
        d2u[40] = np.nan
        with pytest.raises(ConeViolationError) as err:
            solver._residual(problem, 0.5, exact.u, exact.du, d2u)
        assert err.value.node == 40 and "node 40 " in str(err.value)
        nan_u = exact.with_values(np.where(np.arange(101) == 40, np.nan, exact.u))
        with pytest.raises(ConeViolationError) as err:
            solver._residual(problem, 0.5, nan_u.u, nan_u.du, nan_u.d2u)
        assert err.value.node == 39


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
        rows = radial_rows(problem.spec.n, prof.du[1:-1], prof.d2u[1:-1])
        assert state.cone_margin == problem.spec.margin_scores(rows, 0.5).min()

    def test_increment_norms_always_recorded(self, solved):
        _, state = solved
        assert isinstance(state.increment_norms, tuple)
        assert len(state.increment_norms) == state.newton_iters >= 1

    def test_one_margin_evaluation_per_state(self, spy):
        # the radial kernel is the solver's only cone evaluation: one ESP
        # pass per residual call, and a Jacobian adds only its gradient's
        # one pass, over the evaluation its state's residual made
        problem = subsolution_benchmark(node_count=401)
        passes, kernels = spy(symfun, "_esp"), spy(SymFuncSpec, "radial_eval")
        gradients, residuals = spy(RadialEvaluation, "gradient"), spy(solver, "_residual")
        state = newton_solve(problem, 0.5, problem.subsolution, NewtonOptions(tol=1e-9))
        assert state.converged
        assert residuals.call_count > state.newton_iters
        assert kernels.call_count == residuals.call_count
        assert gradients.call_count == state.newton_iters
        assert passes.call_count == residuals.call_count + state.newton_iters

    def test_newton_never_builds_eigen_rows(self, monkeypatch, spy):
        # every ESP pass inside newton_solve runs on the radial columns
        # (a, s, ..., s), never on an (n, m) array of eigenvalue rows
        def forbidden(*args):
            raise AssertionError("the (m, n) ESP path ran inside newton_solve")

        problem = subsolution_benchmark(node_count=401)
        esp = spy(symfun, "_esp")
        monkeypatch.setattr(symfun, "_esp_removed", forbidden)
        monkeypatch.setattr(symfun, "_cone_scores", forbidden)
        state = newton_solve(problem, 0.5, problem.subsolution, NewtonOptions(tol=1e-9))
        assert state.converged and state.newton_iters >= 1
        assert esp.call_count
        for columns, _ in (call.args for call in esp.call_args_list):
            assert isinstance(columns, tuple | list)
            assert all(isinstance(x, np.ndarray) and x.ndim == 1 for x in columns)
            assert all(x is columns[1] for x in columns[2:])

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
    def test_growth_from_a_zero_monitor(self):
        # a first value below 1e-14 counts as zero: a monitor that stays
        # there grows by 1, one that leaves it without bound
        states = [SimpleNamespace(monitors=m) for m in ((0.0, 1e-15, 1.0), (1e-15, 0.5, 2.0))]
        assert ContinuationReport(states, None).monitor_growth() == (1.0, math.inf, 2.0)

    def test_constant(self):
        prof = CylinderGeometry(1.0, 101).profile(lambda x: np.full_like(x, 3.0))
        # derivative crumbs come from the 1/h^2 stencil weights times rounding
        assert estimate_monitors(prof) == pytest.approx((3.0, 0.0, 0.0), abs=1e-10)

    def test_linear(self):
        a = 0.7
        prof = CylinderGeometry(2.0, 101).profile(lambda x: a * x)
        m = estimate_monitors(prof)
        assert m[0] == pytest.approx(a * 2.0, rel=1e-14, abs=0.0)
        assert m[1] == pytest.approx(a, rel=1e-12, abs=0.0)
        assert m[2] == pytest.approx(0.0, abs=1e-11)

    def test_sine_against_analytic(self):
        for m_nodes in (201, 401):
            prof = CylinderGeometry(1.0, m_nodes).profile(lambda x: np.sin(x) / 4)
            sup_u, sup_du, sup_d2u = estimate_monitors(prof)
            h = 2.0 / (m_nodes - 1)
            assert sup_u == pytest.approx(math.sin(1.0) / 4, abs=1e-10)
            assert sup_du == pytest.approx(0.25, abs=h ** 2)
            assert sup_d2u == pytest.approx(math.sin(1.0) / 4, abs=h ** 2 * 2)


class TestSubsolutionCheck:
    def test_scaled_problem_passes(self):
        problem = subsolution_benchmark(theta=0.5, node_count=201)
        margins, (margin, cone) = check_subsolution(problem)
        assert margin.passed and cone.passed
        # psi = f/2 leaves a margin of about half the curvature values
        assert margin.worst == margins.min() > 0.25 * np.nanmin(margins + 1)

    def test_oversized_psi_fails_everywhere(self):
        problem = subsolution_benchmark(theta=0.5, node_count=201)
        doubled = DirichletProblem(
            geom=problem.geom, spec=problem.spec,
            psi=lambda x, z: 4.0 * problem.psi(x, z),
            psi_z=problem.psi_z,
            phi_left=problem.phi_left, phi_right=problem.phi_right,
            subsolution=problem.subsolution,
        )
        margins, (margin, cone) = check_subsolution(doubled)
        assert not margin.passed and cone.passed
        assert np.nanmax(margins) < 0

    def test_supersonic_slope_reports_cone_violation(self):
        geom = CylinderGeometry(half_length=1.0, node_count=101)
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        sub = geom.profile(lambda x: 1.2 * x)
        problem = DirichletProblem(
            geom=geom, spec=spec,
            psi=lambda x, z: np.ones_like(np.asarray(x, float) * np.asarray(z, float)),
            psi_z=lambda x, z: np.zeros_like(np.asarray(x, float) * np.asarray(z, float)),
            phi_left=-1.2, phi_right=1.2, subsolution=sub,
        )
        margins, rows = check_subsolution(problem)
        assert np.isnan(margins).any()
        assert not any(row.passed for row in rows)

    def test_margins_nan_exactly_at_cone_violations(self):
        # u' exceeds 1 on the left part of the grid, so W leaves Gamma_2 there
        geom = CylinderGeometry(half_length=1.0, node_count=101)
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        sub = geom.profile(lambda x: 0.6 * np.sinh(x) + 0.3 * np.cosh(x))
        problem = DirichletProblem(
            geom=geom, spec=spec,
            psi=lambda x, z: 0.1 * np.ones_like(np.asarray(x, float) * np.asarray(z, float)),
            psi_z=lambda x, z: np.zeros_like(np.asarray(x, float) * np.asarray(z, float)),
            phi_left=float(sub.u[0]), phi_right=float(sub.u[-1]), subsolution=sub,
        )
        margins, (margin, cone) = check_subsolution(problem)
        rows = radial_rows(4, sub.du, sub.d2u)
        scores = spec.margin_scores(rows)
        outside = np.nonzero(scores <= spec.margin)[0]
        assert 0 < outside.size < 101
        assert np.array_equal(np.flatnonzero(np.isnan(margins)), outside)
        assert cone.worst == float(scores.min())
        inside = scores > spec.margin
        expected = spec.value_many(rows[inside]) - 0.1
        assert np.allclose(margins[inside], expected, rtol=1e-13, atol=1e-15)
        assert margin.worst == pytest.approx(float(expected.min()), rel=1e-13, abs=0.0)
        assert not margin.passed and not cone.passed

    def test_one_kernel_call_with_nodes_outside(self, spy):
        # the margins inside the cone come from the one evaluation of every
        # node, bit for bit the row path's f minus psi
        kernel = spy(SymFuncSpec, "radial_eval")
        spec = SymFuncSpec("quotient", n=5, k=3, l=1)
        geom = CylinderGeometry(half_length=1.0, node_count=101)
        sub = geom.profile(lambda x: 0.6 * np.sinh(x) + 0.3 * np.cosh(x))
        psi = lambda x, z: 0.1 + 0.05 * np.asarray(x, float) * np.ones_like(np.asarray(z, float))
        problem = DirichletProblem(
            geom=geom, spec=spec, psi=psi,
            psi_z=lambda x, z: np.zeros_like(np.asarray(x, float) * np.asarray(z, float)),
            phi_left=float(sub.u[0]), phi_right=float(sub.u[-1]), subsolution=sub,
        )
        margins, _ = check_subsolution(problem)
        assert [call.args[1] for call in kernel.call_args_list] == [1.0]
        rows = radial_rows(5, sub.du, sub.d2u)
        inside = spec.margin_scores(rows) > spec.margin
        assert 0 < inside.sum() < inside.size
        expected = spec.value_many(rows[inside], 1.0) - psi(sub.grid[inside], sub.u[inside])
        assert np.array_equal(margins[inside], expected)
        assert np.array_equal(np.isnan(margins), ~inside)

    def test_missing_subsolution_raises(self):
        problem, _ = manufactured_problem(0.5, node_count=101)
        with pytest.raises(ValueError):
            check_subsolution(problem)

    def test_rows_carry_the_verdict(self):
        problem = subsolution_benchmark(theta=0.5, node_count=201)
        margins, (margin, cone) = check_subsolution(problem)
        assert (margin.name, margin.threshold) == ("margin", -1e-10)
        assert (cone.name, cone.threshold) == ("cone_margin", 0.0)
        sub = problem.subsolution
        scores = problem.spec.margin_scores(radial_rows(4, sub.du, sub.d2u))
        assert margin.worst == margins.min() and cone.worst == float(scores.min())
        assert margin.passed and cone.passed

    def test_cone_violation_fails_both_rows(self):
        # the margin row stands for the whole check, so a cone violation
        # fails it even where every margin inside the cone is positive
        geom = CylinderGeometry(half_length=1.0, node_count=101)
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        sub = geom.profile(lambda x: 0.6 * np.sinh(x) + 0.3 * np.cosh(x))
        problem = DirichletProblem(
            geom=geom, spec=spec,
            psi=lambda x, z: 1e-9 * np.ones_like(np.asarray(x, float) * np.asarray(z, float)),
            psi_z=lambda x, z: np.zeros_like(np.asarray(x, float) * np.asarray(z, float)),
            phi_left=float(sub.u[0]), phi_right=float(sub.u[-1]), subsolution=sub,
        )
        _, rows = check_subsolution(problem)
        assert rows[0].worst > 0
        assert [row.passed for row in rows] == [False, False]


class TestRadialCurvatureValue:
    def test_matches_the_rows(self):
        spec = SymFuncSpec("quotient", n=5, k=3, l=1)
        grid = np.linspace(-1.0, 1.0, 51)
        du, d2u = 0.3 * np.sinh(grid), 0.3 * np.cosh(grid)
        rows = radial_rows(5, du, d2u)
        for t in (0.0, 0.5, 1.0):
            assert np.array_equal(radial_curvature_value(spec, t, du, d2u),
                                  spec.value_many(rows, t))

    def test_scalar_input(self):
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        value = radial_curvature_value(spec, 1.0, 0.2, 1.0)
        assert value.shape == (1,)
        assert value[0] == spec.value(radial_rows(4, [0.2], [1.0])[0], 1.0)

    def test_outside_cone_raises_with_the_row_path_text(self):
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        du = np.array([0.1, 1.5, 0.1])
        d2u = np.array([1.0, 0.0, 1.0])
        with pytest.raises(ConeDomainError) as exc:
            radial_curvature_value(spec, 1.0, du, d2u)
        with pytest.raises(ConeDomainError) as expected:
            spec.value_many(radial_rows(4, du, d2u), 1.0)
        assert str(exc.value) == str(expected.value)

    @pytest.mark.parametrize("spec", [SymFuncSpec("sigma_k_root", n=4, k=2),
                                      SymFuncSpec("quotient", n=4, k=2, l=1)],
                             ids=lambda s: s.label)
    def test_outside_cone_error_carries_the_minimum_score(self, spec):
        du = np.array([0.1, 1.5, 0.1, 2.0])
        d2u = np.array([1.0, 0.0, 1.0, -3.0])
        with pytest.raises(ConeDomainError) as exc:
            radial_curvature_value(spec, 1.0, du, d2u)
        scores = spec.margin_scores(radial_rows(4, du, d2u))
        assert exc.value.min_score == float(scores.min()) < 0.0


class TestSubsolutionScaledPsi:
    @pytest.mark.parametrize("spec", [SymFuncSpec("sigma_k_root", n=4, k=2),
                                      SymFuncSpec("quotient", n=6, k=4, l=2)],
                             ids=lambda s: s.label)
    def test_nodes_match_the_closed_form_in_plain_floats(self, spec):
        # psi = theta f(W[u_sub]) of the README subsolution 0.3 cosh x; the
        # 401 nodes are nodes of psi's sampling grid, so the interpolation
        # adds nothing (relative gaps of 3.3e-16 and 1.0e-15 measured)
        assert (SCALED_PSI_NODES - 1) % 400 == 0
        grid = CylinderGeometry(1.0, 401).stencils.grid
        psi, _ = subsolution_scaled_psi(spec, cosh_profile(0.3), 1.0, 0.5)
        reference = scaled_psi_by_closed_form(spec.n, spec.k, spec.l or 0, 0.3, 0.5, grid)
        assert psi(grid, 0.0) == pytest.approx(reference, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_rejects_theta_before_it_samples_the_subsolution(self, theta):
        # a subsolution of slope 2 leaves the cone, and theta is named first
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        with pytest.raises(ValueError, match=r"theta must lie in \(0, 1\)"):
            subsolution_scaled_psi(spec, linear_profile(2.0), 1.0, theta)


@pytest.mark.parametrize("spec", [SymFuncSpec("quotient", n=4, k=2, l=1),
                                  SymFuncSpec("sigma_k_root", n=4, k=3),
                                  SymFuncSpec("sigma_k_root", n=5, k=2)],
                         ids=lambda s: s.label)
def test_example1_rhs_psi_takes_only_its_own_sigma_k_root(spec):
    # Example 1's psi poses sigma_2^(1/2) data at n = 4, no other problem
    params = ExampleParams(4, 2, 0.0)
    with pytest.raises(ValueError, match=r"are for sigma_2_root\(n=4\), not "):
        example1_rhs_psi(spec, params)
    psi, psi_z = example1_rhs_psi(SymFuncSpec("sigma_k_root", n=4, k=2), params)
    assert psi_z(0.0, 0.5) == -2.0 * psi(0.0, 0.5)


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

    @pytest.mark.parametrize("m", [201, 401, 4001])
    def test_subsolution_is_a_lower_barrier(self, m, subsolution_runs_to_one):
        # the barrier argument's first steps on every state: u_t - u_sub is
        # 0 at the two ends and positive inside, so its stencil slope is
        # <= 0 at L and >= 0 at -L; measured: smallest gaps 2.66e-3, 1.34e-3
        # and 1.34e-4, at t = 1, and end slopes from -+1.02 (t = 0) to -+0.268
        problem, report, _ = subsolution_runs_to_one[m]
        sub = problem.subsolution
        assert report.failed_t is None
        for s in report.states:
            gap = s.profile.u - sub.u
            assert gap[0] == 0.0 and gap[-1] == 0.0 and (gap[1:-1] > 0).all()
            slope = s.profile.du - sub.du
            assert slope[-1] <= 0.0 <= slope[0]

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

    def test_feasible_warm_starts_are_not_screened(self, spy):
        # the continuation's evaluation is the cone screen of a warm start; only
        # the blend ladder of an infeasible one tests blends, one full kernel
        # pass per rung up to the first feasible rung and its headroom rung
        _, restores = _spy_restores(spy)
        report = continuation_run(subsolution_benchmark(node_count=401))
        passes = _restore_passes(restores)
        assert [passes.count(s.t) for s in report.states] == [0, 0, 0, 0, 4, 5, 6, 6, 7, 7, 6, 0, 0]
        assert [s.newton_iters for s in report.states] == [5, 3, 4, 4, 4, 4, 5, 5, 6, 5, 3, 4, 4]

    def test_ladder_carries_a_run_whose_warm_starts_all_leave_the_cone(self, spy, monkeypatch):
        # (7, 6) data with a small theta, on which the warm start of every t
        # from 0.1 on leaves its cone: one restore per t carries the run to
        # t = 1, at a smallest cone margin of 9.2e-9, and without the ladder
        # the run stops at t = 0.1.  A predictor that would retire the
        # ladder (ROADMAP item 26) must keep this run going
        problem = subsolution_benchmark(7, 6, 0.4615056672141719, 201, 0.4388907881068685,
                                        0.1225692201970556)
        schedule, opts = DEFAULT_T_SCHEDULE + (1.0,), NewtonOptions(tol=1e-10)
        _, restores = _spy_restores(spy)
        report = continuation_run(problem, schedule, opts)
        assert [s.t for s in report.states] == list(schedule)
        assert [args[1] for args, _ in restores] == list(schedule[1:])
        assert all(s.converged and s.cone_margin > 0 for s in report.states)
        monkeypatch.setattr(solver, "_restore_feasibility", lambda *args: None)
        with pytest.raises(ContinuationError) as err:
            continuation_run(problem, schedule, opts)
        assert err.value.t_failed == 0.1 and isinstance(err.value.__cause__, ConeViolationError)

    def test_check_jacobian_failure_carries_partial_states(self, monkeypatch):
        def alarm(problem, t, profile, ab):
            raise NumericalError(f"alarm at t={t}")

        monkeypatch.setattr(solver, "_check_jacobian", alarm)
        problem = subsolution_benchmark(node_count=101)
        with pytest.raises(ContinuationError) as err:
            continuation_run(problem, t_schedule=(0.0, 0.5))
        assert err.value.t_failed == 0.0 and err.value.states == []
        assert str(err.value.__cause__) == "alarm at t=0.0"

    def test_manufactured_t_family_shares_solution(self):
        # psi is built per t from the DISCRETE curvature of one grid profile,
        # so that same grid function is the exact discrete solution of every
        # family member and the recovered states coincide to solver tolerance
        geom = CylinderGeometry(half_length=1.0, node_count=201)
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        star = geom.profile(lambda x: 0.3 * np.cosh(x))
        grid = star.grid
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
            continuation_run(problem, t_schedule=(0.0, 1.5))

    @pytest.mark.parametrize("schedule", [(0.5, 0.2), (0.0, 1.5), (), (0.0, math.nan),
                                          (math.nan,), (-0.1, 0.5)])
    def test_states_check_the_schedule_before_the_first_t(self, schedule):
        problem = subsolution_benchmark(node_count=101)
        with pytest.raises(ValueError):
            continuation_states(problem, t_schedule=schedule)
        with pytest.raises(ValueError):
            check_t_schedule(schedule)

    def test_states_check_the_init_grid_before_the_first_t(self):
        problem = subsolution_benchmark(node_count=401)
        cosh = cosh_profile(0.3)[0]
        with pytest.raises(ValueError, match="problem's grid"):
            continuation_states(problem, init=CylinderGeometry(2.0, 401).profile(cosh))
        # on [-L, L] but not on the problem's nodes, the blend towards the
        # subsolution cannot be formed: the run solved t = 0 to 0.3 and then failed
        with pytest.raises(ValueError, match="problem's grid"):
            continuation_states(problem, init=CylinderGeometry(1.0, 201).profile(cosh))
        free, _ = manufactured_problem(0.5, node_count=101)
        with pytest.raises(ValueError, match="problem's grid"):
            continuation_states(free, init=CylinderGeometry(2.0, 101).profile(cosh))

    def test_exhausted_blend_ladder_ends_the_run(self, spy):
        # the warm start of t = 0.4 leaves its cone (see the call counts of
        # test_feasible_warm_starts_are_not_screened); no blend is let back
        # in, so every rung takes its pass and the run ends there
        evaluate = solver._radial_eval

        def outside(problem, t, du, d2u):
            return evaluate(problem, t, du, d2u)._replace(outside=np.array([0]))

        _, restores = _spy_restores(spy, outside)
        problem = subsolution_benchmark(node_count=401)
        with pytest.raises(ContinuationError) as err:
            continuation_run(problem)
        assert err.value.t_failed == 0.4 and _restore_passes(restores) == [0.4] * 9
        assert [s.t for s in err.value.states] == [0.0, 0.1, 0.2, 0.3]
        # the cause is the warm start's own cone exit, as Newton names it
        cause = err.value.__cause__
        with pytest.raises(ConeViolationError) as direct:
            newton_solve(problem, 0.4, err.value.states[-1].profile)
        assert (type(cause), str(cause), cause.node) == (
            ConeViolationError, str(direct.value), direct.value.node)

    def test_last_rung_of_the_ladder_is_the_anchor(self, spy):
        # only the full blend is let back in: it has no rung after it, and
        # the solve at t = 0.4 starts from the subsolution itself
        problem = subsolution_benchmark(node_count=401)
        sub = problem.subsolution
        evaluate = solver._radial_eval

        def anchor_only(problem, t, du, d2u):
            evaluation = evaluate(problem, t, du, d2u)
            if np.array_equal(du, sub.du):
                return evaluation
            return evaluation._replace(outside=np.array([0]))

        _, restores = _spy_restores(spy, anchor_only)
        states = continuation_run(problem, t_schedule=DEFAULT_T_SCHEDULE[:5]).states
        assert _restore_passes(restores) == [0.4] * 9
        # Newton took the anchor's evaluation from the ladder: the same state
        expected = newton_solve(problem, 0.4, sub)
        assert np.array_equal(states[-1].profile.u, expected.profile.u)
        assert np.array_equal(states[-1].residual, expected.residual)
        assert (states[-1].newton_iters, states[-1].cone_margin, states[-1].increment_norms) == (
            expected.newton_iters, expected.cone_margin, expected.increment_norms)

    @staticmethod
    def _assert_restored_as(restored, expected):
        (blend, evaluation), (want_blend, want) = restored, expected
        assert np.array_equal(blend.u, want_blend.u)
        for got, wanted in zip(evaluation, want):
            if isinstance(got, np.ndarray):
                assert np.array_equal(got, wanted, equal_nan=True)
            else:
                assert got == wanted

    @pytest.mark.parametrize("kind", ["401-node benchmark", "(5, 3) floor run"])
    def test_ladder_matches_full_passes(self, spy, kind):
        # every restore returns the blend and the evaluation of the frozen
        # ladder, with as many full passes: one per rung up to the first
        # feasible rung and its headroom rung
        problem = (subsolution_benchmark(node_count=401) if kind == "401-node benchmark"
                   else subsolution_benchmark(n=5, k=3))
        restore = solver._restore_feasibility
        _, restores = _spy_restores(spy)
        continuation_run(problem)
        assert len(restores) == (7 if kind == "401-node benchmark" else 11)
        for args, passes in restores:
            expected, expected_passes = restore_by_full_passes(*args)
            # a restore returns the same on the same arguments
            self._assert_restored_as(restore(*args), expected)
            assert len(passes) == expected_passes

    def test_check_t_schedule_returns_floats(self):
        assert check_t_schedule(None) == DEFAULT_T_SCHEDULE
        assert check_t_schedule([0, 0.5, 1.0]) == (0.0, 0.5, 1.0)
        assert all(type(t) is float for t in check_t_schedule([0, 1e-3]))

    def test_states_yield_the_run_states(self):
        problem = subsolution_benchmark(node_count=101)
        schedule = (0.0, 0.3, 0.6, 0.9)
        run = continuation_run(problem, t_schedule=schedule).states
        streamed = list(continuation_states(problem, t_schedule=schedule))
        assert [s.t for s in streamed] == [s.t for s in run] == list(schedule)
        for a, b in zip(streamed, run):
            assert np.array_equal(a.profile.u, b.profile.u)
            assert np.array_equal(a.residual, b.residual)
            assert (a.newton_iters, a.cone_margin, a.increment_norms) == \
                (b.newton_iters, b.cone_margin, b.increment_norms)

    def test_states_error_carries_the_yielded_states(self, monkeypatch):
        check = solver._check_jacobian

        def alarm_at_half(problem, t, profile, ab):
            if t == 0.5:
                raise NumericalError("alarm at t=0.5")
            check(problem, t, profile, ab)

        monkeypatch.setattr(solver, "_check_jacobian", alarm_at_half)
        yielded = []
        with pytest.raises(ContinuationError) as err:
            for state in continuation_states(subsolution_benchmark(node_count=101),
                                             t_schedule=(0.0, 0.2, 0.5, 0.9)):
                yielded.append(state)
        assert err.value.t_failed == 0.5 and str(err.value.__cause__) == "alarm at t=0.5"
        assert [s.t for s in yielded] == [0.0, 0.2]
        assert len(err.value.states) == 2
        assert all(a is b for a, b in zip(err.value.states, yielded))

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


ORACLE_TS = (0.0, 0.5, 0.99)

# (n, k) of the subsolution benchmark in the order test: the README's sigma_2
# and the `n5 sigma_3` config of scripts/output_hashes.py
ORACLE_ORDERS = ((4, 2), (5, 3))


@pytest.fixture(scope="module")
def subsolution_oracle_errors():
    """Per (n, k) of ORACLE_ORDERS and t of ORACLE_TS, the sup distance of
    the default continuation's state of the subsolution benchmark from its
    even shot, on 201, 401, 801 and 1601 nodes: one continuation per grid,
    one shot per t."""
    errs = {}
    for n, k in ORACLE_ORDERS:
        reference = subsolution_benchmark(n=n, k=k)
        shots = {t: even_shot(n, k, t, reference.psi, 1.0, reference.phi_right) for t in ORACLE_TS}
        for t in ORACLE_TS:
            errs[n, k, t] = []
        for m in (201, 401, 801, 1601):
            for state in continuation_run(subsolution_benchmark(n=n, k=k, node_count=m)).states:
                if state.t in shots:
                    errs[n, k, state.t].append(
                        np.abs(state.profile.u - shots[state.t](state.profile.grid)).max())
    return errs


def _first_root_errors(n, k, c, bracket):
    """|u_h(0) - d| of the default continuation's t = 0 state on Example 1's
    data on 1001, 2001 and 4001 nodes, d the root of tau_0(d) = L that
    brentq finds in the bracket."""
    errs = []
    for m in (1001, 2001, 4001):
        problem, _, init = example_boundary_problem(n, k, c, m)
        half = problem.geom.half_length
        root = optimize.brentq(lambda d: semilinear_travel_time(n, k, c, d) - half,
                               *bracket, xtol=1e-15, rtol=8.9e-16)
        [state] = continuation_run(problem, t_schedule=(0.0,), init=init).states
        assert state.converged
        errs.append(abs(state.profile.u[m // 2] - root))
    return errs


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

    @pytest.mark.parametrize("n, k", [(4, 2), (5, 3)])
    def test_smooth_exact_order_at_t_one(self, n, k):
        # u = log cosh x solves Example 1's equation on [-L, L] with c = log cosh L
        c = math.log(math.cosh(1.0))
        spec = SymFuncSpec("sigma_k_root", n=n, k=k)
        psi = example1_rhs_psi(spec, ExampleParams(n, k, c))
        errs = []
        for m in (201, 401, 801, 1601):
            problem = dirichlet_problem(spec, CylinderGeometry(1.0, m), psi, boundary=(c, c))
            exact = problem.geom.profile(lambda x: np.log(np.cosh(x)))
            init = exact.with_values(exact.u + 1e-3 * np.cos(np.pi * exact.grid / 2))
            state = newton_solve(problem, 1.0, init)
            errs.append(np.abs(state.profile.u - exact.u).max())
        assert np.log2(np.divide(errs[:-1], errs[1:])) == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("spec, psi, half_length", [
        (SymFuncSpec("sigma_k_root", n=4, k=2), 1.0, 1.0),
        (SymFuncSpec("sigma_k_root", n=4, k=2), 4.0, 1.0),     # omega^2 < 0: the cos branch
        (SymFuncSpec("sigma_k_root", n=5, k=3), 0.5, 1.5),
        (SymFuncSpec("quotient", n=6, k=4, l=2), 1.0, 1.0),
    ], ids=["sigma2-n4-cosh", "sigma2-n4-cos", "sigma3-n5", "quotient42-n6"])
    def test_semilinear_closed_form_order(self, spec, psi, half_length):
        # at t = 0 the continuation from u = 0 meets the closed form in
        # v = e^(-p u) at order 2 (2.000 measured, in 4 to 6 Newton steps)
        errs = []
        for m in (101, 201, 401, 801):
            problem = dirichlet_problem(spec, CylinderGeometry(half_length, m), constant_psi(psi),
                                        boundary=(0.0, 0.0))
            init = problem.geom.profile(np.zeros_like)
            [state] = continuation_run(problem, t_schedule=(0.0,), init=init).states
            assert state.converged
            exact = semilinear_solution(spec.n, spec.k, spec.l or 0, psi, half_length,
                                        state.profile.grid)
            errs.append(np.abs(state.profile.u - exact).max())
        assert np.log2(np.divide(errs[:-1], errs[1:])) == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("n, k, c, bracket", [
        (4, 2, 0.0, (0.0, 0.1)),
        (4, 2, 0.1, (0.15, 0.22)),
    ], ids=["c0", "c0.1"])
    def test_semilinear_first_root_order(self, n, k, c, bracket):
        # at t = 0 the continuation from Example 1's t = 1 profile meets the
        # even solution whose travel time tau_0(d) is the half length: the
        # root d = 0.0443 (c = 0) and 0.1851 (c = 0.1) in the bracket, the
        # first root, at order 2 (2.001 and 1.998 measured at c = 0, 2.003
        # and 2.026 at c = 0.1)
        errs = _first_root_errors(n, k, c, bracket)
        assert np.log2(np.divide(errs[:-1], errs[1:])) == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("n, k, c, bracket", [
        (4, 2, -0.5, (-0.52, -0.5000001)),
        (4, 3, -0.5, (-0.51, -0.5000001)),
        (5, 4, -0.5, (-0.49999, -0.4999)),
    ], ids=["n4k2", "n4k3", "n5k4"])
    def test_semilinear_first_root_bound(self, n, k, c, bracket):
        # every state stops at its rounding floor, and u_h(0) lies within
        # 2e-11 of the root (-0.50123737244, -0.50025029887 and
        # -0.49998803325) on every grid with no trend in h, so a bound
        # holds and not an order
        assert max(_first_root_errors(n, k, c, bracket)) <= 1e-10

    @pytest.mark.parametrize("t", ORACLE_TS)
    @pytest.mark.parametrize("n, k", ORACLE_ORDERS, ids=["n4_sigma_2", "n5_sigma_3"])
    def test_subsolution_oracle_order(self, n, k, t, subsolution_oracle_errors):
        # FD minus the even shot falls at order 2: for sigma_2 at n = 4,
        # 2.000/1.999/2.001 at t = 0, 1.999/1.998/2.002 at 0.5 and
        # 1.990/1.962/2.004 at 0.99; for sigma_3 at n = 5, 2.000/2.000/2.000
        # at t = 0 and 0.5, 1.990/1.962/2.013 at 0.99
        errs = subsolution_oracle_errors[n, k, t]
        assert np.log2(np.divide(errs[:-1], errs[1:])) == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("psi", [1.0, 4.0], ids=["cosh", "cos"])
    def test_shot_reproduces_the_semilinear_closed_form(self, psi):
        # the shot knows nothing of v = e^(-p u); at t = 0 with constant
        # psi it meets item 20's closed form (6e-13 measured)
        x = np.linspace(-1.0, 1.0, 201)
        shot = even_shot(4, 2, 0.0, constant_psi(psi)[0], 1.0, 0.0)
        assert np.abs(shot(x) - semilinear_solution(4, 2, 0, psi, 1.0, x)).max() <= 1e-10

    @pytest.mark.parametrize("n, k, c, bracket", [
        (4, 2, 0.0, (-1.9, -1.6)),
        (3, 2, 0.0, (-2.0, -1.7)),
    ], ids=["n4", "n3"])
    def test_semilinear_second_root_order(self, n, k, c, bracket):
        # the second root of tau_0(d) = L, d = -1.75807 on (4, 2, 0) and
        # -1.84924 on (3, 2, 0), is the even solution of Morse index 1:
        # Newton from its sampled shot meets it at order 2 (2.000 measured,
        # sup errors 1.9e-6 to 1.2e-7 and 4.4e-7 to 2.8e-8 on 1001-4001
        # nodes), and -J has one negative eigenvalue there (-57.514 and
        # -42.092, the next 80.506 and 44.738, to three decimals on every grid)
        errs, spectra = [], []
        for m in (1001, 2001, 4001):
            problem, _, _ = example_boundary_problem(n, k, c, m)
            half = problem.geom.half_length
            root = optimize.brentq(lambda d: semilinear_travel_time(n, k, c, d) - half,
                                   *bracket, xtol=1e-15, rtol=8.9e-16)
            exact = problem.geom.profile(semilinear_even_orbit(n, k, root))
            state = newton_solve(problem, 0.0, exact)
            errs.append(np.abs(state.profile.u - exact.u).max())
            # the oracle's spectrum, until the solver reports it itself
            spectrum = interior_spectrum(jacobian(problem, 0.0, state.profile), 2)
            assert spectrum[0] < 0.0 < spectrum[1]
            spectra.append(spectrum)
        assert np.log2(np.divide(errs[:-1], errs[1:])) == pytest.approx(2.0, abs=0.1)
        assert np.ptp(spectra, axis=0).max() <= 1e-3
