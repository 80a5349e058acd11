"""Tests of the closed-form non-smooth radial construction."""

import math

import numpy as np
import pytest

from yamabe._errors import ConeDomainError
from yamabe.example1 import (
    ExampleParams,
    VerifyThresholds,
    d_from_c,
    equation_residual,
    first_integral,
    half_length,
    solve_profile,
    verify_example,
)

from oracles import reference_profile_by_first_integral, stopping_time_by_ivp


P420 = ExampleParams.from_c(4, 2, 0.0)


class TestFirstIntegral:
    def test_vanishes_at_origin(self):
        assert first_integral(P420, 0.0, 0.0) == pytest.approx(0.0, abs=0)

    def test_closed_form_at_rest(self):
        # 2k = n makes the first term one, so H(d, 0) = 1 - e^{-n d}
        d = -math.log(2.0) / 4.0
        assert first_integral(P420, d, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_rest_value_general(self):
        p = ExampleParams.from_c(5, 3, 0.4)
        for d in (-0.3, -1.0, -2.5):
            expected = math.exp((2 * 3 - 5) * d) - math.exp(-5 * d)
            assert first_integral(p, d, 0.0) == pytest.approx(expected, rel=1e-15)

    def test_unit_slope_rejected(self):
        with pytest.raises(ConeDomainError):
            first_integral(P420, 0.0, 1.0)

    def test_vectorized(self):
        xs = np.array([-0.2, -0.1, 0.0])
        ys = np.array([0.0, 0.3, 0.6])
        vals = first_integral(P420, xs, ys)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(first_integral(P420, -0.2, 0.0), rel=1e-15)


class TestDFromC:
    def test_closed_form_n4_k2_c0(self):
        assert d_from_c(4, 2, 0.0) == pytest.approx(-math.log(2.0) / 4.0, abs=1e-10)

    def test_monotone_in_c(self):
        assert d_from_c(4, 2, 10.0) > d_from_c(4, 2, 0.0)

    def test_round_trip(self):
        for (n, k, c) in ((3, 2, 0.0), (4, 2, 1.0), (5, 3, -0.7), (5, 5, 2.0)):
            d = d_from_c(n, k, c)
            h0 = math.exp((2 * k - n) * d) - math.exp(-n * d)
            assert -math.log(abs(h0)) / n == pytest.approx(c, abs=1e-10)

    def test_k_range_rejected(self):
        with pytest.raises(ValueError):
            d_from_c(4, 1, 0.0)


class TestExampleParams:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            ExampleParams(n=4, k=2, d=-0.5, c=0.0)

    def test_nonnegative_d_rejected(self):
        with pytest.raises(ValueError):
            ExampleParams(n=4, k=2, d=0.1, c=0.0)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            ExampleParams.from_c(4, 1, 0.0)
        with pytest.raises(ValueError):
            ExampleParams.from_c(4, 5, 0.0)

    def test_center_curvature_positive(self):
        for (n, k, c) in ((4, 2, 0.0), (3, 2, 1.0), (5, 3, -0.5)):
            assert ExampleParams.from_c(n, k, c).center_curvature() > 0

    def test_rhs_constant(self):
        assert P420.rhs_constant == pytest.approx(4 / (2 * 4) * math.comb(3, 1), rel=1e-15)
        assert P420.rhs_root == pytest.approx(math.sqrt(1.5), rel=1e-15)


class TestHalfLength:
    def test_integrand_limit_at_upper_end(self):
        # at x* the inner factor of the slope expression vanishes, so the
        # x-space integrand equals one exactly
        from yamabe.example1 import _slope_squared
        x_star = P420.boundary_value
        assert _slope_squared(P420, x_star) == pytest.approx(1.0, abs=1e-12)

    def test_positive_for_sampled_d(self):
        for d in (-0.1, -0.5, -1.5):
            # n = 4, k = 2: H(d, 0) = 1 - e^(-4d), so c = -ln(e^(-4d) - 1) / 4
            p = ExampleParams.from_c(4, 2, -math.log(math.expm1(-4.0 * d)) / 4.0)
            assert p.d == pytest.approx(d, rel=1e-12)
            assert half_length(p) > 0

    @pytest.mark.parametrize("n,k,c", [(3, 2, 0.0), (4, 2, 0.0), (5, 3, 0.0),
                                       (3, 2, 1.0), (4, 2, 1.0), (5, 3, 1.0)])
    def test_against_ivp_stopping_time(self, n, k, c):
        p = ExampleParams.from_c(n, k, c)
        t_quad = half_length(p)
        t_ivp = stopping_time_by_ivp(p)
        assert abs(t_quad - t_ivp) / t_quad <= 1e-6


class TestSolveProfile:
    def test_initial_conditions(self):
        sol = solve_profile(P420, node_count=101)
        mid = 50
        assert sol.profile.u[mid] == pytest.approx(P420.d, abs=1e-12)
        assert sol.du_at(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_center_curvature_formula(self):
        sol = solve_profile(P420, node_count=101)
        expected = (4 * math.exp(-4 * P420.d) - 0) / 4  # (n e^{-2kd} - (n-2k)) / (2k)
        assert sol.d2u_at(0.0) == pytest.approx(expected, rel=1e-10)
        assert expected > 0

    def test_conserved_quantity_drift(self):
        sol = solve_profile(P420, node_count=401)
        grid = sol.profile.grid
        interior = np.abs(grid) < sol.t_max
        u = sol.u_at(grid[interior])
        du = sol.du_at(grid[interior])
        drift = np.abs(first_integral(P420, u, du) - P420.h0)
        assert drift.max() <= 1e-8

    def test_endpoint_values(self):
        sol = solve_profile(P420, node_count=401)
        assert sol.profile.u[0] == pytest.approx(P420.boundary_value, abs=1e-6)
        assert sol.profile.u[-1] == pytest.approx(P420.boundary_value, abs=1e-6)
        # the slope approaches unit magnitude at the ends; 1 - slope^2 decays
        # like the square root of the remaining time
        slopes = [abs(sol.du_at(sol.t_max * (1.0 - e))) for e in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert all(a < b for a, b in zip(slopes, slopes[1:]))
        assert slopes[-1] > 0.999999

    def test_evenness(self):
        sol = solve_profile(P420, node_count=401)
        assert np.abs(sol.profile.u - sol.profile.u[::-1]).max() <= 1e-10

    def test_against_first_integral_reference(self):
        sol = solve_profile(P420, node_count=101)
        grid = sol.profile.grid
        pick = grid[np.abs(np.abs(grid) - sol.t_max) > 1e-12][::10]
        ref = reference_profile_by_first_integral(P420, pick)
        mine = sol.u_at(pick)
        assert np.abs(mine - ref).max() <= 1e-9

    def test_grid_refinement_improves_residual(self):
        # stencil-based residual of the grid profile, away from the ends
        errs = []
        for m in (101, 201, 401):
            sol = solve_profile(P420, node_count=m)
            prof = sol.profile
            core = slice(m // 4, 3 * m // 4)
            resid = equation_residual(P420, prof.u[core], prof.du[core], prof.d2u[core])
            errs.append(np.abs(resid).max())
        order = math.log(errs[0] / errs[-1]) / math.log(4.0)
        assert order >= 1.5

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            solve_profile(P420, node_count=3)


class TestVerifyExample:
    def test_exact_profile_passes(self):
        sol = solve_profile(P420, node_count=401)
        report = verify_example(P420, sol)
        assert report.max_interior_residual <= 1e-7
        assert report.boundary_error <= 1e-6
        assert report.min_one_minus_slope_sq > 0
        assert report.max_drift <= 1e-8
        assert report.passed

    def test_residual_column_and_rows(self):
        sol = solve_profile(P420, node_count=101)
        report = verify_example(P420, sol)
        grid, u = sol.profile.grid, sol.profile.u
        assert report.residual[[0, -1]].tolist() == (u[[0, -1]] - P420.c).tolist()
        xs = grid[1:-1]
        inner = equation_residual(P420, u[1:-1], sol.du_at(xs), sol.d2u_at(xs))
        assert np.array_equal(report.residual[1:-1], inner)
        assert report.max_interior_residual == float(np.abs(inner).max())
        assert [c.name for c in report.checks] == [
            "interior_residual", "slope_subunit", "boundary_error", "first_integral_drift",
            "curvature_increasing", "curvature_floor"]
        assert report.passed is all(c.passed for c in report.checks) is True

    def test_curvature_samples_increase(self):
        sol = solve_profile(P420, node_count=401)
        report = verify_example(P420, sol)
        assert report.d2u_increasing
        assert report.d2u_samples[-1] > 10.0
        # k = 2 is the marginal case: the two-decade ratio approaches 10 from
        # below (the rate is delta^(-1/2)), so only a weaker bound can hold
        assert report.d2u_last_over_first > 9.0

    def test_curvature_ratio_exceeds_ten_for_k3(self):
        p = ExampleParams.from_c(5, 3, 0.0)
        sol = solve_profile(p, node_count=401)
        report = verify_example(p, sol)
        assert report.d2u_increasing
        assert report.d2u_last_over_first > 10.0

    def test_thresholds_configurable(self):
        sol = solve_profile(P420, node_count=401)
        strict = verify_example(P420, sol, thresholds=VerifyThresholds(interior_residual=1e-18))
        assert not strict.passed
        assert [c.name for c in strict.checks if not c.passed] == ["interior_residual"]
