"""Randomized and hypothesis-driven invariants of the symmetric functions."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from yamabe.symfun import SymFuncSpec, sample_cone

SPECS = [
    SymFuncSpec("sigma_k_root", n=3, k=2),
    SymFuncSpec("sigma_k_root", n=4, k=2),
    SymFuncSpec("sigma_k_root", n=5, k=3),
    SymFuncSpec("quotient", n=4, k=2, l=1),
]

T_GRID = (0.0, 0.25, 0.5, 0.75, 0.99, 1.0)


def cone_tuples(spec):
    return arrays(
        np.float64, (spec.n,),
        elements=st.floats(min_value=-1.5, max_value=3.0, allow_nan=False),
    ).filter(lambda v: spec.margin_scores(v[None, :])[0] > 1e-6)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
class TestRandomizedInvariants:
    def test_homogeneity_thousand_samples(self, spec):
        rng = np.random.default_rng(100)
        pts = sample_cone(spec, 1000, rng)
        s = 10.0 ** rng.uniform(-2.0, 2.0, size=1000)
        vals = spec.value_many(pts)
        scaled = spec.value_many(s[:, None] * pts)
        assert np.max(np.abs(scaled - s * vals) / (s * vals)) <= 1e-12

    def test_gradient_sum_lower_bound_along_t(self, spec):
        rng = np.random.default_rng(101)
        pts = sample_cone(spec, 400, rng)
        f_e = spec.f_at_ones()
        for t in T_GRID:
            sums = spec.grad_many(pts, t).sum(axis=1)
            assert sums.min() >= f_e - 1e-10

    def test_linear_upper_bound(self, spec):
        rng = np.random.default_rng(102)
        pts = sample_cone(spec, 1000, rng)
        bound = pts.sum(axis=1) * spec.f_at_ones() / spec.n
        assert np.max(spec.value_many(pts) - bound) <= 1e-10

    def test_gradient_matches_finite_differences_thousand(self, spec):
        rng = np.random.default_rng(103)
        pts = sample_cone(spec, 1000, rng, scale_low=-0.5, scale_high=0.5)
        grads = spec.grad_many(pts)
        idx = rng.choice(1000, size=60, replace=False)
        for i in idx:
            lam = pts[i]
            fd = np.zeros(spec.n)
            for j in range(spec.n):
                h = 1e-6 * (1.0 + abs(lam[j]))
                e = np.zeros(spec.n)
                e[j] = h
                fd[j] = (spec.value(lam + e) - spec.value(lam - e)) / (2 * h)
            assert np.abs(grads[i] - fd).max() / np.abs(fd).max() < 1e-6

    def test_gradient_descending_for_ascending_input(self, spec):
        rng = np.random.default_rng(104)
        pts = np.sort(sample_cone(spec, 400, rng), axis=1)
        for t in (0.0, 0.5, 1.0):
            g = spec.grad_many(pts, t)
            assert np.all(np.diff(g, axis=1) <= 1e-12)

    def test_axis_ball_inside_interpolated_cones(self, spec):
        rng = np.random.default_rng(105)
        axis = np.zeros(spec.n)
        axis[-1] = 1.0
        f_e = spec.f_at_ones()
        for t in (0.0, 0.25, 0.5, 0.75, 0.99):
            r = 0.99 * (1.0 - t) / (2.0 * spec.n)
            vs = rng.standard_normal((1000, spec.n))
            vs /= np.linalg.norm(vs, axis=1, keepdims=True)
            assert np.all(spec.margin_scores(axis + r * vs, t) > spec.margin)
            corner = np.full(spec.n, -(1.0 - t) / (2.0 * spec.n))
            corner[-1] += 1.0
            assert spec.value(corner, t) >= 0.5 * (1.0 - t) * f_e - 1e-12 * f_e

    def test_interpolated_value_dominates(self, spec):
        rng = np.random.default_rng(106)
        pts = sample_cone(spec, 500, rng)
        base = spec.value_many(pts)
        for t in T_GRID:
            assert np.all(spec.value_many(pts, t) >= base - 1e-11 * np.abs(base))


class TestHypothesisProperties:
    @settings(max_examples=200, deadline=None)
    @given(lam=cone_tuples(SPECS[1]), s=st.floats(min_value=0.01, max_value=100.0))
    def test_homogeneity(self, lam, s):
        spec = SPECS[1]
        v = spec.value(lam)
        assert spec.value(s * lam) == pytest.approx(s * v, rel=1e-11)

    @settings(max_examples=200, deadline=None)
    @given(lam=cone_tuples(SPECS[1]), mu=cone_tuples(SPECS[1]))
    def test_midpoint_concavity(self, lam, mu):
        spec = SPECS[1]
        mid = spec.value(0.5 * (lam + mu))
        assert mid >= 0.5 * (spec.value(lam) + spec.value(mu)) - 1e-10

    @settings(max_examples=200, deadline=None)
    @given(lam=cone_tuples(SPECS[1]))
    def test_value_invariant_under_permutation(self, lam):
        # entries of magnitude 1e-150 or more keep the products in sigma_2
        # normal floats; a subnormal sigma_2 cannot hold a relative error
        # of 1e-12 in any implementation
        assume(np.all((lam == 0.0) | (np.abs(lam) >= 1e-150)))
        spec = SPECS[1]
        assert spec.value(np.sort(lam)[::-1].copy()) == pytest.approx(
            spec.value(lam), rel=1e-12, abs=0.0)

    @settings(max_examples=100, deadline=None)
    @given(lam=cone_tuples(SPECS[1]), t=st.floats(min_value=0.0, max_value=1.0))
    def test_cone_points_in_every_interpolated_cone(self, lam, t):
        spec = SPECS[1]
        assume(spec.contains(lam))
        assert spec.contains(lam, t)
