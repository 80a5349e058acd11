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
    second_derivative,
    stencil_weights,
)
from yamabe.symfun import SymFuncSpec

from oracles import conformal_schouten, schouten_eigenvalues, schouten_matrix


class TestSchoutenBase:
    def test_n3(self):
        assert schouten_eigenvalues(3) == (-0.5, 0.5, 0.5)
        assert radial_w_eigenvalues(3, 0.0, 0.0) == (-0.5, 0.5)

    def test_n4(self):
        assert schouten_eigenvalues(4) == (-0.5, 0.5, 0.5, 0.5)
        assert radial_w_eigenvalues(4, 0.0, 0.0) == (-0.5, 0.5)

    def test_trace(self):
        assert sum(schouten_eigenvalues(4)) == pytest.approx((4 - 2) / 2)
        assert np.trace(schouten_matrix(4)) == pytest.approx((4 - 2) / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            CylinderGeometry(n=2, half_length=1.0)
        with pytest.raises(ValueError):
            CylinderGeometry(n=4, half_length=0.0)


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

    def test_exact_on_polynomials(self):
        grid = np.array([0.0, 0.3, 0.55, 1.0, 1.2])
        u = 2.0 + 3.0 * grid - 1.5 * grid ** 2
        du = first_derivative(grid, u)
        d2u = second_derivative(grid, u)
        assert np.allclose(du, 3.0 - 3.0 * grid, atol=1e-12)
        assert np.allclose(d2u, -3.0, atol=1e-10)

    def test_second_order_convergence_everywhere(self):
        errs1, errs2 = [], []
        for m in (51, 101, 201):
            grid = np.linspace(-1.0, 1.0, m)
            prof = RadialProfile(grid, np.sin(grid) / 4.0)
            errs1.append(np.abs(prof.du - np.cos(grid) / 4.0).max())
            errs2.append(np.abs(prof.d2u + np.sin(grid) / 4.0).max())
        order1 = math.log2(errs1[0] / errs1[-1]) / 2.0
        order2 = math.log2(errs2[0] / errs2[-1]) / 2.0
        assert order1 >= 1.9
        assert order2 >= 1.9


class TestGridStencils:
    GRID = np.cumsum(np.random.default_rng(3).uniform(0.01, 0.2, 41)) - 2.0

    def test_profile_derivatives_equal_the_free_functions(self):
        u = np.sin(3.0 * self.GRID) + 0.1 * self.GRID ** 3
        prof = RadialProfile(self.GRID, u)
        shifted = prof.with_values(u + 0.25 * np.cos(self.GRID))
        for p in (prof, shifted):
            assert np.array_equal(p.du, first_derivative(self.GRID, p.u))
            assert np.array_equal(p.d2u, second_derivative(self.GRID, p.u))

    def test_one_bundle_per_profile_family(self, monkeypatch):
        calls = []
        original = geometry.stencil_weights

        def counted(offsets, order):
            calls.append(order)
            return original(offsets, order)

        monkeypatch.setattr(geometry, "stencil_weights", counted)
        prof = RadialProfile(self.GRID, np.cos(self.GRID))
        family = [prof.with_values(prof.u * (1.0 + 0.1 * i)) for i in range(5)]
        for p in [prof] + family:
            p.du, p.d2u
        assert all(p.stencils is prof.stencils and p.grid is prof.grid for p in family)
        assert sorted(calls) == [1, 1, 2, 2]  # one-sided stencils at both ends, once

    def test_stencils_of_another_grid_rejected(self):
        stencils = GridStencils(self.GRID)
        with pytest.raises(ValueError, match="another grid"):
            RadialProfile(self.GRID.copy(), np.zeros(self.GRID.size), stencils)

    def test_grid_validated_by_the_bundle(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            GridStencils(np.array([0.0, 1.0, 1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="at least 5 nodes"):
            GridStencils(np.linspace(0.0, 1.0, 4))

    @pytest.mark.parametrize("half_length", [1e-140, 1e-176], ids=["singular-ends", "infinite-inner"])
    def test_grid_too_fine_raises_numerical_error(self, half_length):
        with pytest.raises(NumericalError, match="no finite stencil weights"):
            GridStencils(np.linspace(-half_length, half_length, 101))


class TestRadialProfile:
    def test_requires_increasing_grid(self):
        with pytest.raises(ValueError):
            RadialProfile(np.array([0.0, 1.0, 1.0, 2.0, 3.0]), np.zeros(5))

    def test_requires_matching_shapes(self):
        with pytest.raises(ValueError):
            RadialProfile(np.linspace(0, 1, 6), np.zeros(5))

    def test_derived_fields_recompute_on_with_values(self):
        grid = np.linspace(-1, 1, 11)
        p = RadialProfile(grid, grid ** 2)
        q = p.with_values(3.0 * grid ** 2)
        assert np.allclose(q.d2u, 3.0 * p.d2u, atol=1e-9)

    def test_arrays_read_only(self):
        p = RadialProfile.uniform(1.0, 11, 0.0)
        with pytest.raises(ValueError):
            p.u[0] = 1.0


class TestRadialEigenvalues:
    def test_constant_profile_reproduces_base(self):
        prof = RadialProfile.uniform(1.0, 21, 3.0)
        axis, sphere = radial_w_eigenvalues(4, prof.du, prof.d2u)
        base = schouten_eigenvalues(4)
        assert np.allclose(axis, base[0], atol=1e-12)
        assert np.allclose(sphere, base[1], atol=1e-12)

    def test_linear_profile(self):
        # u = a t: one eigenvalue -(1 - a^2)/2, the rest (1 - a^2)/2
        a = 0.4
        prof = RadialProfile.uniform(1.0, 21, lambda x: a * x)
        axis, sphere = radial_w_eigenvalues(4, prof.du, prof.d2u)
        half = 0.5 * (1.0 - a * a)
        assert np.allclose(axis, -half, atol=1e-10)
        assert np.allclose(sphere, half, atol=1e-12)

    def test_two_distinct_values_and_multiplicity(self):
        # the general law in the axis frame: W is diagonal, and its n - 1
        # sphere entries are the sphere eigenvalue
        grid = np.linspace(-1, 1, 41)
        prof = RadialProfile(grid, 0.2 * np.cosh(grid))
        axis, sphere = radial_w_eigenvalues(5, prof.du, prof.d2u)
        for i in range(grid.size):
            du = np.zeros(5)
            du[0] = prof.du[i]
            hess = np.zeros((5, 5))
            hess[0, 0] = prof.d2u[i]
            w = conformal_schouten(du, hess, schouten_matrix(5))
            assert np.abs(np.diag(w)[1:] - sphere[i]).max() <= 1e-15
            assert np.abs(w[0, 0] - axis[i]) <= 1e-15
            assert np.array_equal(w, np.diag(np.diag(w)))

    def test_matches_general_transformation_law(self):
        grid = np.linspace(-1, 1, 201)
        prof = RadialProfile(grid, 0.3 * np.cosh(grid) + 0.1 * np.sin(2 * grid))
        axis, sphere = radial_w_eigenvalues(4, prof.du, prof.d2u)
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
        prof = RadialProfile.uniform(1.0, 21, lambda x: 0.3 * np.cosh(x))
        scores = spec.radial_eval(0.5, *radial_w_eigenvalues(4, prof.du, prof.d2u)).scores
        assert np.all(scores > spec.margin)
        flat = RadialProfile.uniform(1.0, 21, 0.0)
        scores = spec.radial_eval(1.0, *radial_w_eigenvalues(4, flat.du, flat.d2u)).scores
        assert not np.any(scores > spec.margin)  # base spectrum sits on the cone boundary


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
        grid = np.linspace(-1, 1, 101)
        prof = RadialProfile(grid, 0.25 * grid ** 2)
        axis, sphere = radial_w_eigenvalues(5, prof.du, prof.d2u)
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
