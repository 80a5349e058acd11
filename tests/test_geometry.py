"""Tests of the cylinder geometry, stencils and conformal curvature."""

import math

import numpy as np
import pytest

from yamabe import geometry
from yamabe._errors import NumericalError
from yamabe.geometry import (
    CylinderGeometry,
    GridStencils,
    RadialProfile,
    first_derivative,
    radial_w_eigenvalues,
    radial_w_linearization,
    second_derivative,
    stencil_weights,
)
from yamabe.symfun import SymFuncSpec

from oracles import conformal_schouten, schouten_eigenvalues, schouten_matrix


class TestSchoutenBase:
    def test_n3(self):
        assert schouten_eigenvalues(3) == (-0.5, 0.5, 0.5)
        assert radial_w_eigenvalues(0.0, 0.0) == (-0.5, 0.5)

    def test_n4(self):
        assert schouten_eigenvalues(4) == (-0.5, 0.5, 0.5, 0.5)
        assert radial_w_eigenvalues(0.0, 0.0) == (-0.5, 0.5)

    def test_trace(self):
        assert sum(schouten_eigenvalues(4)) == pytest.approx((4 - 2) / 2)
        assert np.trace(schouten_matrix(4)) == pytest.approx((4 - 2) / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            CylinderGeometry(half_length=0.0, node_count=11)


class TestStencils:
    def test_uniform_interior_weights(self):
        w1 = stencil_weights(np.array([-0.1, 0.0, 0.1]), 1)
        assert np.allclose(w1, [-5.0, 0.0, 5.0])
        w2 = stencil_weights(np.array([-0.1, 0.0, 0.1]), 2)
        assert np.allclose(w2, [100.0, -200.0, 100.0])

    def test_one_sided_first(self):
        h = 0.25
        w = stencil_weights(np.array([0.0, h, 2 * h]), 1)
        assert np.allclose(w, [-3.0 / (2 * h), 2.0 / h, -1.0 / (2 * h)])

    @pytest.mark.parametrize("offsets, order", [([0.0, 0.1], 2), ([0.0], 1), ([-0.1, 0.0, 0.1], 3)])
    def test_stencil_too_short(self, offsets, order):
        with pytest.raises(ValueError, match="stencil too short"):
            stencil_weights(np.array(offsets), order)

    def test_exact_on_polynomials(self):
        grid = np.array([0.0, 0.3, 0.55, 1.0, 1.2])
        u = 2.0 + 3.0 * grid - 1.5 * grid ** 2
        stencils = GridStencils(grid)
        du = first_derivative(stencils, u)
        d2u = second_derivative(stencils, u)
        assert np.allclose(du, 3.0 - 3.0 * grid, atol=1e-12)
        assert np.allclose(d2u, -3.0, atol=1e-10)

    def test_second_order_convergence_everywhere(self):
        errs1, errs2 = [], []
        for m in (51, 101, 201):
            prof = CylinderGeometry(1.0, m).profile(lambda x: np.sin(x) / 4.0)
            grid = prof.grid
            errs1.append(np.abs(prof.du - np.cos(grid) / 4.0).max())
            errs2.append(np.abs(prof.d2u + np.sin(grid) / 4.0).max())
        order1 = math.log2(errs1[0] / errs1[-1]) / 2.0
        order2 = math.log2(errs2[0] / errs2[-1]) / 2.0
        assert order1 >= 1.9
        assert order2 >= 1.9


class TestGridStencils:
    def test_profile_derivatives_equal_the_free_functions(self):
        prof = CylinderGeometry(2.0, 41).profile(lambda x: np.sin(3.0 * x) + 0.1 * x ** 3)
        shifted = prof.with_values(prof.u + 0.25 * np.cos(prof.grid))
        # a bundle of its own on the same nodes
        stencils = GridStencils(np.linspace(-2.0, 2.0, 41))
        for p in (prof, shifted):
            assert np.array_equal(p.du, first_derivative(stencils, p.u))
            assert np.array_equal(p.d2u, second_derivative(stencils, p.u))

    def test_one_bundle_per_profile_family(self, spy):
        weights = spy(geometry, "stencil_weights")
        prof = CylinderGeometry(2.0, 41).profile(np.cos)
        family = [prof.with_values(prof.u * (1.0 + 0.1 * i)) for i in range(5)]
        for p in [prof] + family:
            p.du, p.d2u
        assert all(p.geom is prof.geom and p.grid is prof.grid for p in family)
        # one-sided stencils at both ends, once
        assert sorted(call.args[1] for call in weights.call_args_list) == [1, 1, 2, 2]

    def test_grid_validated_by_the_bundle(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            GridStencils(np.array([0.0, 1.0, 1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="at least 5 nodes"):
            GridStencils(np.linspace(0.0, 1.0, 4))

    @pytest.mark.parametrize("half_length", [1e-140, 1e-176], ids=["singular-ends", "infinite-inner"])
    def test_grid_too_fine_raises_numerical_error(self, half_length):
        with pytest.raises(NumericalError, match="no finite stencil weights"):
            GridStencils(np.linspace(-half_length, half_length, 101))


class TestCylinderGeometry:
    def test_profiles_share_the_grid_stencils(self):
        geom = CylinderGeometry(1.0, 11)
        cos, sin = geom.profile(np.cos), geom.profile(np.sin)
        assert cos.geom is sin.geom is geom
        assert cos.grid is geom.stencils.grid
        assert (cos.grid[0], cos.grid[-1]) == (-1.0, 1.0)
        assert np.array_equal(sin.u, np.sin(np.linspace(-1.0, 1.0, 11)))
        # the grid follows from (half_length, node_count), so it is not compared
        assert geom == CylinderGeometry(1.0, 11) != CylinderGeometry(1.0, 21)


class TestRadialProfile:
    def test_requires_matching_shapes(self):
        with pytest.raises(ValueError, match="match the grid shape"):
            RadialProfile(CylinderGeometry(1.0, 6), np.zeros(5))

    def test_derived_fields_recompute_on_with_values(self):
        p = CylinderGeometry(1.0, 11).profile(lambda x: x ** 2)
        q = p.with_values(3.0 * p.grid ** 2)
        assert np.allclose(q.d2u, 3.0 * p.d2u, atol=1e-9)

    def test_arrays_read_only(self):
        p = CylinderGeometry(1.0, 11).profile(np.zeros_like)
        with pytest.raises(ValueError):
            p.u[0] = 1.0


class TestRadialEigenvalues:
    def test_constant_profile_reproduces_base(self):
        prof = CylinderGeometry(1.0, 21).profile(lambda x: np.full_like(x, 3.0))
        axis, sphere = radial_w_eigenvalues(prof.du, prof.d2u)
        base = schouten_eigenvalues(4)
        assert np.allclose(axis, base[0], atol=1e-12)
        assert np.allclose(sphere, base[1], atol=1e-12)

    def test_linear_profile(self):
        # u = a t: one eigenvalue -(1 - a^2)/2, the rest (1 - a^2)/2
        a = 0.4
        prof = CylinderGeometry(1.0, 21).profile(lambda x: a * x)
        axis, sphere = radial_w_eigenvalues(prof.du, prof.d2u)
        half = 0.5 * (1.0 - a * a)
        assert np.allclose(axis, -half, atol=1e-10)
        assert np.allclose(sphere, half, atol=1e-12)

    def test_two_distinct_values_and_multiplicity(self):
        # the general law in the axis frame: W is diagonal, and its n - 1
        # sphere entries are the sphere eigenvalue
        prof = CylinderGeometry(1.0, 41).profile(lambda x: 0.2 * np.cosh(x))
        axis, sphere = radial_w_eigenvalues(prof.du, prof.d2u)
        for i in range(prof.grid.size):
            du = np.zeros(5)
            du[0] = prof.du[i]
            hess = np.zeros((5, 5))
            hess[0, 0] = prof.d2u[i]
            w = conformal_schouten(du, hess, schouten_matrix(5))
            assert np.abs(np.diag(w)[1:] - sphere[i]).max() <= 1e-15
            assert np.abs(w[0, 0] - axis[i]) <= 1e-15
            assert np.array_equal(w, np.diag(np.diag(w)))

    def test_matches_general_transformation_law(self):
        prof = CylinderGeometry(1.0, 201).profile(lambda x: 0.3 * np.cosh(x) + 0.1 * np.sin(2 * x))
        axis, sphere = radial_w_eigenvalues(prof.du, prof.d2u)
        rng = np.random.default_rng(0)
        for i in rng.choice(201, size=20, replace=False):
            du = np.zeros(4)
            du[0] = prof.du[i]
            hess = np.zeros((4, 4))
            hess[0, 0] = prof.d2u[i]
            w = conformal_schouten(du, hess, schouten_matrix(4))
            eigs = np.sort(np.append(np.full(3, sphere[i]), axis[i]))
            assert np.abs(np.sort(np.linalg.eigvalsh(w)) - eigs).max() <= 1e-10

    def test_cone_flags(self):
        spec = SymFuncSpec("sigma_k_root", n=4, k=2)
        prof = CylinderGeometry(1.0, 21).profile(lambda x: 0.3 * np.cosh(x))
        scores = spec.radial_eval(0.5, *radial_w_eigenvalues(prof.du, prof.d2u)).scores
        assert np.all(scores > spec.margin)
        flat = CylinderGeometry(1.0, 21).profile(np.zeros_like)
        scores = spec.radial_eval(1.0, *radial_w_eigenvalues(flat.du, flat.d2u)).scores
        assert not np.any(scores > spec.margin)  # base spectrum sits on the cone boundary

    def test_linearization_is_the_chain_rule_of_the_general_law(self):
        # g_a times the axis entry of the general law plus g_s times the
        # mean of its sphere entries, differenced in u'' and in u'; the law
        # is quadratic in u', so central differences are exact but for rounding
        n, h = 4, 1e-4
        du, d2u, g_axis, g_sphere = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 10))
        b2, b1 = radial_w_linearization(g_axis, g_sphere, du)

        def form(i, first, second):
            grad, hess = np.zeros(n), np.zeros((n, n))
            grad[0], hess[0, 0] = first, second
            w = conformal_schouten(grad, hess, schouten_matrix(n))
            return g_axis[i] * w[0, 0] + g_sphere[i] * np.diag(w)[1:].mean()

        for i in range(du.size):
            by_d2u = (form(i, du[i], d2u[i] + h) - form(i, du[i], d2u[i] - h)) / (2 * h)
            by_du = (form(i, du[i] + h, d2u[i]) - form(i, du[i] - h, d2u[i])) / (2 * h)
            assert by_d2u == pytest.approx(b2[i], rel=1e-9, abs=1e-10)
            assert by_du == pytest.approx(b1[i], rel=1e-9, abs=1e-10)


class TestConformalSchouten:
    def test_zero_data_returns_base(self):
        base = np.diag([-0.5, 0.5, 0.5, 0.5])
        w = conformal_schouten(np.zeros(4), np.zeros((4, 4)), base)
        assert np.array_equal(w, base)

    def test_pure_gradient(self):
        du = np.array([1.0, 0.0, 0.0, 0.0])
        w = conformal_schouten(du, np.zeros((4, 4)), np.zeros((4, 4)))
        assert np.allclose(np.diag(w), [0.5, -0.5, -0.5, -0.5])
        assert np.allclose(w, np.diag(np.diag(w)))

    def test_cross_module_consistency(self):
        prof = CylinderGeometry(1.0, 101).profile(lambda x: 0.25 * x ** 2)
        axis, sphere = radial_w_eigenvalues(prof.du, prof.d2u)
        i = 30
        du = np.zeros(5)
        du[0] = prof.du[i]
        hess = np.zeros((5, 5))
        hess[0, 0] = prof.d2u[i]
        w = conformal_schouten(du, hess, schouten_matrix(5))
        eigs = np.sort(np.linalg.eigvalsh(w))
        expected = np.sort(np.append(np.full(4, sphere[i]), axis[i]))
        assert np.abs(eigs - expected).max() <= 1e-12

    def test_frame_rotation_invariance(self):
        rng = np.random.default_rng(1)
        du = rng.standard_normal(4) * 0.3
        hess = rng.standard_normal((4, 4))
        hess = 0.5 * (hess + hess.T)
        base = np.diag([-0.5, 0.5, 0.5, 0.5])
        w = conformal_schouten(du, hess, base)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        w_rot = conformal_schouten(q.T @ du, q.T @ hess @ q, q.T @ base @ q)
        assert np.abs(np.sort(np.linalg.eigvalsh(w_rot))
                      - np.sort(np.linalg.eigvalsh(w))).max() <= 1e-10
