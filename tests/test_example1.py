"""Tests of the closed-form non-smooth radial construction."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from yamabe import example1
from yamabe._errors import ConeDomainError
from yamabe.benchmarks import example_boundary_problem
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

from oracles import even_shot, reference_profile_by_first_integral, stopping_time_by_ivp


P420 = ExampleParams(4, 2, 0.0)
# (n, k, c) of the README, criterion 9 and the ends of the blow-up benchmark's range
ORBIT_DATA = [(4, 2, 0.0), (3, 2, 1.0), (5, 3, 0.0), (5, 4, -0.6), (5, 4, -0.5), (5, 4, -0.4)]
# the ends of the range -1 <= c <= 3 of the Example 1 sweeps: a small T,
# and an orbit near the separatrix (d = -5e-8)
EDGE_DATA = [(4, 4, -1.0), (5, 3, 3.0)]


class TestFirstIntegral:
    def test_vanishes_at_origin(self):
        assert first_integral(P420, 0.0, 0.0) == pytest.approx(0.0, abs=0)

    def test_closed_form_at_rest(self):
        # 2k = n makes the first term one, so H(d, 0) = 1 - e^{-n d}
        d = -math.log(2.0) / 4.0
        assert first_integral(P420, d, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_rest_value_general(self):
        p = ExampleParams(5, 3, 0.4)
        for d in (-0.3, -1.0, -2.5):
            expected = math.exp((2 * 3 - 5) * d) - math.exp(-5 * d)
            assert first_integral(p, d, 0.0) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_unit_slope_rejected(self):
        with pytest.raises(ConeDomainError):
            first_integral(P420, 0.0, 1.0)

    def test_vectorized(self):
        xs = np.array([-0.2, -0.1, 0.0])
        ys = np.array([0.0, 0.3, 0.6])
        vals = first_integral(P420, xs, ys)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(first_integral(P420, -0.2, 0.0), rel=1e-15, abs=0.0)


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
    def test_d_is_derived_from_c(self):
        # d is no argument: it is d_from_c's value, bit for bit, and c a float
        for n, k, c in ORBIT_DATA:
            p = ExampleParams(n, k, c)
            assert p.d == d_from_c(n, k, c)
        assert type(ExampleParams(4, 2, 0).c) is float
        with pytest.raises(TypeError):
            ExampleParams(n=4, k=2, d=-0.5, c=0.0)

    def test_consistency_enforced(self, monkeypatch):
        # a d whose implied c is off by more than 1e-10
        monkeypatch.setattr(example1, "d_from_c", lambda n, k, c: -0.5)
        with pytest.raises(ValueError, match="inconsistent"):
            ExampleParams(n=4, k=2, c=0.0)

    def test_nonnegative_d_rejected(self, monkeypatch):
        monkeypatch.setattr(example1, "d_from_c", lambda n, k, c: 0.1)
        with pytest.raises(ValueError, match="must be negative"):
            ExampleParams(n=4, k=2, c=0.0)

    def test_dimension_at_least_three(self):
        with pytest.raises(ValueError, match="dimension must be at least 3"):
            ExampleParams(2, 2, 0.0)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            ExampleParams(4, 1, 0.0)
        with pytest.raises(ValueError):
            ExampleParams(4, 5, 0.0)

    @pytest.mark.parametrize("n, k, c, reason", [
        (3, 2, -200.0, "d lies below -177.25"),
        (3, 2, 20.0, "H(d, 0) rounds to 0"),
        (3, 2, 300.0, "H(d, 0) rounds to 0"),
        (4, 2, math.nan, "c must be finite"),
        (4, 2, -math.inf, "c must be finite"),
        (6, 3, 3.0, "inconsistent (c, d)"),
    ])
    def test_c_without_a_floating_point_center_value(self, n, k, c, reason):
        # a ValueError of its own, naming (n, k, c), from the params and from
        # the boundary problem built on them: no OverflowError, bare math
        # error or scipy message
        for build in (ExampleParams, example_boundary_problem):
            with pytest.raises(ValueError) as err:
                build(n, k, c)
            assert type(err.value) is ValueError
            assert str(err.value).startswith(f"no Example 1 data at (n, k, c) = ({n}, {k}, {c!r}): ")
            assert reason in str(err.value)

    def test_c_down_to_the_exponent_range(self):
        # d_from_c searches d down to -709 / max(n, 2k), where e^(-n d) and
        # e^(-2k d) are still floats, so the center curvature is finite; at
        # (6, 3, -118) it is 3.0234e307, where n e^(-2k d) overflows
        for n, k, c in ((3, 2, -128.0), (3, 2, -177.0), (6, 3, -100.0), (6, 3, -118.0)):
            p = ExampleParams(n, k, c)
            assert p.d == pytest.approx(c, abs=1e-12) and -709.0 / max(n, 2 * k) <= p.d
            assert math.isfinite(p.center_curvature())

    def test_center_curvature_positive(self):
        for (n, k, c) in ((4, 2, 0.0), (3, 2, 1.0), (5, 3, -0.5)):
            assert ExampleParams(n, k, c).center_curvature() > 0

    def test_rhs_constant(self):
        assert P420.rhs_constant == pytest.approx(4 / (2 * 4) * math.comb(3, 1), rel=1e-15, abs=0.0)
        assert P420.rhs_root == pytest.approx(math.sqrt(1.5), rel=1e-15, abs=0.0)


class TestHalfLength:
    def test_positive_for_sampled_d(self):
        for d in (-0.1, -0.5, -1.5):
            # n = 4, k = 2: H(d, 0) = 1 - e^(-4d), so c = -ln(e^(-4d) - 1) / 4
            p = ExampleParams(4, 2, -math.log(math.expm1(-4.0 * d)) / 4.0)
            assert p.d == pytest.approx(d, rel=1e-12, abs=0.0)
            assert half_length(p) > 0

    # the last three have a small T (4.5e-6 to 3.7e-5): a relative bound
    # checks T there, an absolute one would not
    @pytest.mark.parametrize("n,k,c", [(3, 2, 0.0), (4, 2, 0.0), (5, 3, 0.0),
                                       (3, 2, 1.0), (4, 2, 1.0), (5, 3, 1.0),
                                       (5, 4, -1.5), (3, 2, -3.0), (5, 5, -1.0)])
    def test_against_ivp_stopping_time(self, n, k, c):
        p = ExampleParams(n, k, c)
        t_orbit = half_length(p)
        t_ivp = stopping_time_by_ivp(p)
        assert abs(t_orbit - t_ivp) / t_orbit <= 1e-6


class TestSolveProfile:
    def test_initial_conditions(self):
        sol = solve_profile(P420, node_count=101)
        mid = 50
        assert sol.profile.u[mid] == pytest.approx(P420.d, abs=1e-12)
        assert sol.at(0.0)[1] == pytest.approx(0.0, abs=1e-12)

    def test_center_curvature_formula(self):
        sol = solve_profile(P420, node_count=101)
        expected = (4 * math.exp(-4 * P420.d) - 0) / 4  # (n e^{-2kd} - (n-2k)) / (2k)
        assert sol.at(0.0)[2] == pytest.approx(expected, rel=1e-10)
        assert expected > 0

    @pytest.mark.parametrize("n,k,c", ORBIT_DATA + EDGE_DATA)
    def test_conserved_quantity_drift(self, n, k, c):
        # the interior nodes, and two sub-grid points near the degenerate end
        p = ExampleParams(n, k, c)
        sol = solve_profile(p, node_count=401)
        grid = sol.profile.grid
        xs = np.append(grid[np.abs(grid) < sol.t_max], sol.t_max * (1.0 - np.array([1e-4, 1e-6])))
        u, du, _ = sol.at(xs)
        drift = np.abs(first_integral(p, u, du) - p.h0)
        assert drift.max() <= 1e-8

    def test_endpoint_values(self):
        sol = solve_profile(P420, node_count=401)
        assert sol.profile.u[0] == pytest.approx(P420.boundary_value, abs=1e-6)
        assert sol.profile.u[-1] == pytest.approx(P420.boundary_value, abs=1e-6)
        # the slope approaches unit magnitude at the ends; 1 - slope^2 decays
        # like the square root of the remaining time
        slopes = np.abs(sol.at(sol.t_max * (1.0 - np.array([1e-3, 1e-6, 1e-9, 1e-12])))[1])
        assert np.all(np.diff(slopes) > 0.0)
        assert slopes[-1] > 0.999999

    def test_empty_times(self):
        sol = solve_profile(P420, node_count=101)
        assert [a.shape for a in sol.at(np.array([]))] == [(0,)] * 3

    def test_evenness(self):
        sol = solve_profile(P420, node_count=401)
        assert np.abs(sol.profile.u - sol.profile.u[::-1]).max() <= 1e-10

    @pytest.mark.parametrize("n,k,c", ORBIT_DATA + EDGE_DATA)
    def test_against_first_integral_reference(self, n, k, c):
        p = ExampleParams(n, k, c)
        sol = solve_profile(p, node_count=101)
        grid = sol.profile.grid
        pick = grid[np.abs(np.abs(grid) - sol.t_max) > 1e-12][::10]
        ref = reference_profile_by_first_integral(p, pick)
        mine = sol.at(pick)[0]
        assert np.abs(mine - ref).max() <= 1e-9

    @pytest.mark.parametrize("n,k,c", ORBIT_DATA)
    def test_one_slope_ivp_ends_at_the_half_length(self, n, k, c, monkeypatch, spy):
        # u, |u'| and T come from one run of the slope system, and no first
        # integral enters them; its end X(1) is half_length, and agrees with
        # the equation's own stopping time
        p = ExampleParams(n, k, c)
        t_half = half_length(p)
        t_ivp = stopping_time_by_ivp(p)

        def forbidden(*args):
            raise AssertionError("the first integral entered the profile")

        ivp = spy(example1.integrate, "solve_ivp")
        monkeypatch.setattr(example1, "half_length", forbidden)
        monkeypatch.setattr(example1, "first_integral", forbidden)
        sol = solve_profile(p, node_count=101)
        sol.at(sol.t_max * (1.0 - np.array([1e-2, 1e-6])))
        assert ivp.call_count == 1
        # the one run again, on the arguments it was given
        run = solve_ivp(*ivp.call_args.args, **ivp.call_args.kwargs)
        assert run.t[0] == 0.0 and run.t[-1] == 1.0
        assert sol.t_max == run.y[0, -1] == sol.profile.grid[-1]
        assert t_half == sol.t_max
        assert abs(sol.t_max - t_ivp) <= 1e-11 * sol.t_max

    @pytest.mark.parametrize("n,k,c", ORBIT_DATA + EDGE_DATA)
    def test_reaches_c_at_the_half_length(self, n, k, c):
        # |u'| -> 1 at T, so c - u(T - gap) is gap up to O(gap^1.5); near the
        # separatrix (c = 3) an inaccurate orbit ends away from c
        p = ExampleParams(n, k, c)
        sol = solve_profile(p, node_count=401)
        gap = 1e-9 * sol.t_max
        assert abs(c - sol.at(sol.t_max - gap)[0] - gap) <= 1e-9
        failed = [row.name for row in verify_example(sol)[1] if not row.passed]
        assert set(failed) <= {"curvature_floor"}

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


class _ScipyDense:
    """The orbit's dense output through scipy's `OdeSolution`, in the shape
    of example1._DenseOrbit: the reference the table is held to."""

    def __init__(self, orbit):
        self.ts, self.ends, self.sol = orbit.t, orbit.y[0], orbit.sol

    def __call__(self, v):
        return self.sol(v)


class TestDenseOrbit:
    """_DenseOrbit reads scipy's private interpolant attributes; these tests
    fail when a scipy release changes them, instead of the profile moving."""

    # EDGE_DATA's (5, 3, 3.0) takes 109 integrator steps; two more with k = n
    DATA = ORBIT_DATA + EDGE_DATA + [(5, 5, -1.0), (3, 3, -3.0)]

    @pytest.mark.parametrize("n,k,c", DATA)
    def test_matches_scipy_bit_for_bit(self, n, k, c):
        # at every knot (each belongs to the step that ends there, as in
        # OdeSolution), at the ends and at seeded random slopes in no order
        orbit = example1._slope_orbit(ExampleParams(n, k, c))
        dense = example1._DenseOrbit(orbit)
        assert dense.ts.tobytes() == orbit.t.tobytes()
        v = np.concatenate([orbit.t, [0.0, 1.0], np.random.default_rng(29).random(5000)])
        got = dense(v)
        assert got.shape == (2, v.size)
        assert got.tobytes() == orbit.sol(v).tobytes()

    @pytest.mark.parametrize("n,k,c", DATA)
    def test_inversion_matches_scipy_bit_for_bit(self, n, k, c):
        p = ExampleParams(n, k, c)
        orbit = example1._slope_orbit(p)
        dense, scipy_dense = example1._DenseOrbit(orbit), _ScipyDense(orbit)
        for m in (101, 1001, 4001):
            grid = np.linspace(-1.0, 1.0, m)[1:-1] * orbit.y[0, -1]
            got = example1._orbit(p, dense, grid)
            want = example1._orbit(p, scipy_dense, grid)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestAt:
    """ExampleSolution.at: (u, u', u'') in the shape of x from one inversion."""

    def test_array_matches_the_orbit_point_by_point(self):
        sol = solve_profile(P420, node_count=101)
        xs = sol.t_max * np.array([[-1.0, -0.5, 0.0], [0.25, 1.0 - 1e-9, 1.0]])
        u, du, d2u = sol.at(xs)
        assert u.shape == du.shape == d2u.shape == xs.shape
        dense = example1._DenseOrbit(example1._slope_orbit(P420))
        for x, got in zip(xs.ravel(), zip(u.ravel(), du.ravel(), d2u.ravel())):
            u_x, v_x = example1._orbit(P420, dense, x)
            with np.errstate(divide="ignore"):
                acc = example1._acceleration(P420, u_x, v_x)
            assert got == (u_x, np.sign(x) * v_x, acc)

    @pytest.mark.parametrize("n,k,c", [(4, 2, 0.0), (5, 3, 3.0)])
    def test_interior_nodes_give_the_profile(self, n, k, c):
        sol = solve_profile(ExampleParams(n, k, c), node_count=1001)
        assert sol.at(sol.profile.grid[1:-1])[0].tobytes() == sol.profile.u[1:-1].tobytes()

    def test_scalar(self):
        sol = solve_profile(P420, node_count=101)
        values = sol.at(0.5 * sol.t_max)
        assert all(isinstance(v, float) and np.ndim(v) == 0 for v in values)
        assert values == tuple(a[0] for a in sol.at(np.array([0.5 * sol.t_max])))

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_ends_have_unit_slope_and_infinite_curvature(self, side):
        sol = solve_profile(P420, node_count=101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, du, d2u = sol.at(side * sol.t_max)
        assert du == side and d2u == math.inf
        assert abs(u - P420.c) <= 1e-12

    @pytest.mark.parametrize("factor", [1.0 + 1e-9, -1.5, np.array([0.0, 2.0])],
                             ids=["past-the-end", "left", "array"])
    def test_outside_the_interval_is_rejected(self, factor):
        sol = solve_profile(P420, node_count=101)
        with pytest.raises(ValueError, match=r"outside \[-T, T\]"):
            sol.at(factor * sol.t_max)

    @pytest.mark.parametrize("n, k, c", [(4, 2, 0.0), (4, 3, -0.5), (5, 4, -0.5)])
    def test_the_shot_from_d_reproduces_u_and_its_slope(self, n, k, c):
        # the t = 1 equation sigma_k^(1/k) = R e^(-2u) shot from u(0) = d in
        # plain floats, R = (n/(k 2^k) C(n-1, k-1))^(1/k): on [0, 0.9 T] it
        # meets `at` within 2.9e-13, 1.2e-13 and 5.5e-14 in u and 1.7e-12,
        # 1.2e-12 and 3.9e-12 in u' (measured)
        root = (n / (k * 2.0 ** k) * math.comb(n - 1, k - 1)) ** (1.0 / k)
        sol = solve_profile(ExampleParams(n, k, c), node_count=101)
        shot = even_shot(n, k, 1.0, lambda x, z: root * math.exp(-2.0 * z), 0.9 * sol.t_max,
                         d=d_from_c(n, k, c))
        x = np.linspace(0.0, 0.9 * sol.t_max, 401)
        u, du, _ = sol.at(x)
        assert np.abs(shot(x) - u).max() <= 1e-10
        assert np.abs(shot(x, derivative=1) - du).max() <= 1e-10

    def test_verify_example_inverts_the_orbit_once(self, spy):
        # solve_profile binds _orbit into the solution, so the spy goes in first
        orbit = spy(example1, "_orbit")
        sol = solve_profile(P420, node_count=401)
        orbit.reset_mock()
        verify_example(sol)
        assert [np.size(call.args[-1]) for call in orbit.call_args_list] == [
            399 + len(example1.D2U_FRACTIONS)]


def _rows(solution, thresholds=None):
    """verify_example's rows by name."""
    return {row.name: row for row in verify_example(solution, thresholds)[1]}


class TestVerifyExample:
    def test_exact_profile_passes(self):
        rows = _rows(solve_profile(P420, node_count=401))
        assert rows["interior_residual"].worst <= 1e-7
        assert rows["boundary_error"].worst <= 1e-6
        assert rows["slope_subunit"].worst > 0
        assert rows["first_integral_drift"].worst <= 1e-8
        assert all(row.passed for row in rows.values())

    def test_residual_column_and_rows(self):
        sol = solve_profile(P420, node_count=101)
        residual, rows = verify_example(sol)
        grid, u = sol.profile.grid, sol.profile.u
        assert residual[[0, -1]].tolist() == (u[[0, -1]] - P420.c).tolist()
        xs = grid[1:-1]
        _, du, d2u = sol.at(xs)
        inner = equation_residual(P420, u[1:-1], du, d2u)
        assert np.array_equal(residual[1:-1], inner)
        assert [row.name for row in rows] == [
            "interior_residual", "slope_subunit", "boundary_error", "first_integral_drift",
            "curvature_increasing", "curvature_floor"]
        assert rows[0].worst == float(np.abs(inner).max())
        assert all(row.passed for row in rows)

    def test_curvature_samples_increase(self):
        sol = solve_profile(P420, node_count=401)
        rows = _rows(sol)
        _, _, d2u = sol.at(sol.t_max * (1.0 - np.array(example1.D2U_FRACTIONS)))
        assert rows["curvature_increasing"].passed
        assert rows["curvature_floor"].worst == d2u[-1] > 10.0
        # k = 2 is the marginal case: the two-decade ratio approaches 10 from
        # below (the rate is delta^(-1/2)), so only a weaker bound can hold
        assert rows["curvature_increasing"].worst == d2u[-1] / d2u[0] > 9.0

    def test_curvature_ratio_exceeds_ten_for_k3(self):
        rows = _rows(solve_profile(ExampleParams(5, 3, 0.0), node_count=401))
        assert rows["curvature_increasing"].passed
        assert rows["curvature_increasing"].worst > 10.0

    def test_thresholds_configurable(self):
        sol = solve_profile(P420, node_count=401)
        strict = _rows(sol, VerifyThresholds(interior_residual=1e-18))
        assert [name for name, row in strict.items() if not row.passed] == ["interior_residual"]
