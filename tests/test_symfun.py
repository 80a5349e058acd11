"""Unit tests of the symmetric-function machinery against independent oracles."""

import math

import numpy as np
import pytest

from yamabe._errors import ConeDomainError, NumericalError
from yamabe.geometry import radial_w_eigenvalues
from yamabe.symfun import (
    BrokenHomogeneitySpec,
    SymFuncSpec,
    _boundary_decay_check,
    _esp,
    _esp_removed,
    _row_sum,
    classify_type,
    concavity_margin,
    concavity_margin_many,
    concavity_margin_suite,
    interpolation_ball_report,
    matrix_value_and_derivative,
    sample_cone,
    sigma,
    verify_structure,
)

from oracles import (
    boundary_decay_by_loop,
    esp_gradient_by_deletion,
    gradient_by_differences,
    matrix_derivative_by_differences,
    radial_rows,
    separation_margin_by_loop,
    sigma_by_enumeration,
)


S23 = SymFuncSpec("sigma_k_root", n=3, k=2)
S24 = SymFuncSpec("sigma_k_root", n=4, k=2)
Q21 = SymFuncSpec("quotient", n=4, k=2, l=1)


class TestSigma:
    def test_symmetric_case(self):
        assert sigma((1, 1, 1), 2) == pytest.approx(3.0, abs=0)

    def test_ones_n4(self):
        assert sigma((1, 1, 1, 1), 2) == pytest.approx(6.0, abs=0)

    def test_mixed_signs_by_enumeration(self):
        lam = (-0.5, 0.5, 0.5)
        assert sigma_by_enumeration(lam, 2) == pytest.approx(-0.25, abs=0)
        assert sigma(lam, 2) == pytest.approx(-0.25, abs=1e-15)

    def test_order_zero_convention(self):
        assert sigma((2.0, 3.0, 4.0), 0) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sigma((1, 2, 3), 4)

    def test_random_against_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(3, 7)
            lam = rng.standard_normal(n) * 2.0
            for k in range(1, n + 1):
                assert sigma(lam, k) == pytest.approx(
                    sigma_by_enumeration(lam, k), rel=1e-12, abs=1e-12)

    def test_gradient_is_reduced_sigma(self):
        # D sigma_k^(1/k) = (f/k) * sigma_(k-1)(lam without slot i) / sigma_k(lam)
        rng = np.random.default_rng(8)
        spec = SymFuncSpec("sigma_k_root", n=5, k=3)
        lam = sample_cone(spec, 1, rng)[0]
        g = spec.grad(lam)
        f = spec.value(lam)
        for i in range(5):
            reduced = np.delete(lam, i)
            expected = f / 3 * sigma_by_enumeration(reduced, 2) / sigma_by_enumeration(lam, 3)
            assert g[i] == pytest.approx(expected, rel=1e-12)


def _sigma_gradient(values, j):
    """Gradient of sigma_j, j >= 1, from the slot of _esp_removed that
    grad_many reads: entry i is e_{j-1} of the tuple without entry i."""
    return _esp_removed(values, j - 1)[j - 1].T


class TestEspGradient:
    def test_equals_deletion_reference_exactly(self):
        rng = np.random.default_rng(21)
        for n in range(3, 7):
            for m in (1, 7, 4001):
                values = 2.0 * rng.standard_normal((m, n))
                for j in range(1, n + 1):
                    assert np.array_equal(_sigma_gradient(values, j),
                                          esp_gradient_by_deletion(values, j)), (n, m, j)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(22)
        for n in range(3, 7):
            values = 2.0 * rng.standard_normal((7, n))
            for j in range(1, n + 1):
                grad = _sigma_gradient(values, j)
                for row, g in zip(values, grad):
                    for i in range(n):
                        reduced = np.delete(row, i)
                        scale = sigma_by_enumeration(np.abs(reduced), j - 1)
                        assert abs(g[i] - sigma_by_enumeration(reduced, j - 1)) <= 1e-12 * scale

    def test_quotient_gradient_from_one_pass(self):
        rng = np.random.default_rng(23)
        for n, k, l in ((4, 2, 1), (5, 4, 2), (6, 5, 3)):
            spec = SymFuncSpec("quotient", n=n, k=k, l=l)
            values = sample_cone(spec, 500, rng)
            e = _esp(values, k)
            log_grad = (esp_gradient_by_deletion(values, k) / e[:, k][:, None]
                        - esp_gradient_by_deletion(values, l) / e[:, l][:, None])
            expected = (spec.value_many(values) / (k - l))[:, None] * log_grad
            assert np.array_equal(spec.grad_many(values), expected)


class TestConeMembership:
    def test_ones_always_inside(self):
        for n in (3, 4, 5):
            for k in range(1, n + 1):
                spec = SymFuncSpec("sigma_k_root", n=n, k=k)
                assert spec.contains(np.ones(n))

    def test_negative_sigma2_outside(self):
        assert not S23.contains((-0.5, 0.5, 0.5))

    def test_boundary_point_excluded(self):
        assert not S23.contains((0.0, 0.0, 1.0))

    def test_margin_is_relative(self):
        # a tiny but uniformly interior tuple must stay inside
        assert S23.contains(1e-8 * np.ones(3))

    def test_zero_vector_outside(self):
        assert not S23.contains(np.zeros(3))


class TestValueAndGradient:
    def test_value_at_ones(self):
        assert S23.value((1.0, 1.0, 1.0)) == pytest.approx(math.sqrt(3), rel=1e-15)
        assert S23.f_at_ones() == pytest.approx(math.sqrt(3), rel=1e-15)

    def test_value_123(self):
        assert S23.value((1.0, 2.0, 3.0)) == pytest.approx(math.sqrt(11), rel=1e-15)

    def test_gradient_at_ones_is_symmetric(self):
        for spec in (S23, S24, Q21, SymFuncSpec("sigma_k_root", n=5, k=4)):
            g = spec.grad(np.ones(spec.n))
            expected = spec.f_at_ones() / spec.n
            assert np.allclose(g, expected, rtol=1e-13)

    def test_gradient_against_finite_differences(self):
        g = S23.grad(np.array([1.0, 2.0, 3.0]))
        fd = gradient_by_differences(S23.value, np.array([1.0, 2.0, 3.0]))
        assert np.abs(g - fd).max() / np.abs(fd).max() < 1e-6

    def test_outside_cone_raises(self):
        with pytest.raises(ConeDomainError):
            S23.value((-0.5, 0.5, 0.5))
        with pytest.raises(ConeDomainError):
            S23.grad((-0.5, 0.5, 0.5))

    def test_quotient_value(self):
        lam = np.array([1.0, 2.0, 3.0, 4.0])
        expected = sigma_by_enumeration(lam, 2) / sigma_by_enumeration(lam, 1)
        assert Q21.value(lam) == pytest.approx(expected, rel=1e-14)

    def test_quotient_gradient_against_finite_differences(self):
        lam = np.array([0.5, 1.0, 2.0, 3.0])
        fd = gradient_by_differences(Q21.value, lam)
        assert np.abs(Q21.grad(lam) - fd).max() / np.abs(fd).max() < 1e-6

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            S23.value([1.0, 2.0])
        with pytest.raises(ValueError):
            S23.value_t(0.5, np.ones((2, 4)))
        with pytest.raises(ValueError):
            S23.value(np.ones((2, 2, 3)))

    def test_accepts_sequences_in_any_order(self):
        expected = S23.value(np.array([1.0, 2.0, 3.0]))
        assert expected == pytest.approx(math.sqrt(11), rel=1e-14)
        for lam in ((1.0, 2.0, 3.0), [3.0, 1.0, 2.0], (2, 3, 1)):
            assert S23.value(lam) == pytest.approx(expected, rel=1e-14)


class TestInterpolatedFamily:
    def test_t_one_is_identity(self):
        lam = np.array([1.0, 2.0, 3.0])
        assert S23.value_t(1.0, lam) == pytest.approx(S23.value(lam), rel=1e-15)
        assert S23.in_cone_t(1.0, (-0.5, 0.5, 0.5)) == S23.contains((-0.5, 0.5, 0.5))

    def test_t_zero_is_trace_times_f_ones(self):
        lam = np.array([1.0, 2.0, 3.0])
        assert S23.value_t(0.0, lam) == pytest.approx(lam.sum() * S23.f_at_ones(), rel=1e-14)

    def test_cone_points_stay_inside_for_all_t(self):
        rng = np.random.default_rng(3)
        pts = sample_cone(S24, 100, rng)
        for t in (0.0, 0.3, 0.7, 1.0):
            assert np.all(S24.margin_scores_t(t, pts) > S24.margin)

    def test_dominates_base_value(self):
        rng = np.random.default_rng(4)
        pts = sample_cone(S24, 200, rng)
        for t in (0.0, 0.25, 0.5, 0.9):
            assert np.all(S24.value_t_many(t, pts) >= S24.value_many(pts) - 1e-12)

    def test_interpolated_gradient_matches_finite_differences(self):
        lam = np.array([0.4, 1.0, 2.5])
        for t in (0.0, 0.5, 0.9):
            fd = gradient_by_differences(lambda x: S23.value_t(t, x), lam)
            g = S23.grad_t(t, lam)
            assert np.abs(g - fd).max() / np.abs(fd).max() < 1e-6


def _unit(g):
    return g / np.linalg.norm(g)


class TestNormalDirection:
    """The level-set normal is the direction of grad_t."""

    def test_at_ones(self):
        nu = _unit(S23.grad_t(1.0, np.ones(3)))
        assert np.allclose(nu, np.ones(3) / math.sqrt(3), atol=1e-14)

    def test_positive(self):
        rng = np.random.default_rng(5)
        for lam in sample_cone(S24, 50, rng):
            for t in (0.2, 1.0):
                assert np.all(S24.grad_t(t, lam) > 0)

    def test_scale_invariance(self):
        # f_t has degree one, so grad_t has degree zero
        rng = np.random.default_rng(6)
        for lam in sample_cone(S24, 50, rng):
            g1 = S24.grad_t(0.7, lam)
            g2 = S24.grad_t(0.7, 2.0 * lam)
            assert np.abs(g1 - g2).max() <= 1e-12 * np.abs(g1).max()

    def test_finite_difference_agreement(self):
        lam = np.array([0.5, 1.5, 2.5])
        fd = gradient_by_differences(lambda x: S23.value_t(0.6, x), lam)
        assert np.abs(_unit(S23.grad_t(0.6, lam)) - _unit(fd)).max() < 1e-6


class TestClassification:
    def test_sigma_1_root(self):
        c = classify_type(SymFuncSpec("sigma_k_root", n=4, k=1))
        assert c.cone_type == 2
        assert c.f_type == "unbounded"

    def test_sigma_k_root_type_one(self):
        for n, k in ((3, 2), (4, 2), (5, 3), (5, 5)):
            c = classify_type(SymFuncSpec("sigma_k_root", n=n, k=k))
            assert c.cone_type == 1
            assert c.f_type == "unbounded"

    def test_quotient_bounded(self):
        c = classify_type(Q21)
        assert c.cone_type == 1
        assert c.f_type == "bounded"

    def test_root_grows_without_bound_in_the_last_slot(self):
        # sigma_2(1, 1, 1, r) = 3 + 3r
        for r in (1e2, 1e4, 1e6):
            assert S24.value((1.0, 1.0, 1.0, r)) == pytest.approx(math.sqrt(3 + 3 * r), rel=1e-12)

    def test_quotient_limit_at_ones(self):
        # (sigma_2 / sigma_1)(1, 1, 1, r) = (3 + 3r) / (3 + r) rises to 3
        values = [Q21.value((1.0, 1.0, 1.0, r)) for r in (1e2, 1e4, 1e6, 1e8)]
        assert all(a < b < 3.0 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(3.0, rel=1e-7)

    def test_higher_quotient_limit(self):
        # (sigma_3 / sigma_1)^(1/2) tends to sigma_2(lam')^(1/2) as the last slot grows
        q31 = SymFuncSpec("quotient", n=5, k=3, l=1)
        lam_p = np.array([0.5, 1.0, 1.5, 2.0])
        limit = math.sqrt(sigma_by_enumeration(lam_p, 2))
        assert q31.value(np.append(lam_p, 1e9)) == pytest.approx(limit, rel=1e-8)

    def test_growth_probe_disagreement_raises(self):
        class BoundedRoot:  # claims the root kind, grows like the quotient
            n, k, kind, label = 4, 2, "sigma_k_root", "bounded root"
            contains = staticmethod(S24.contains)
            value = staticmethod(Q21.value)

        with pytest.raises(NumericalError, match="growth probe"):
            classify_type(BoundedRoot())

    def test_cone_type_probe_disagreement_raises(self):
        class WrongOrder:  # claims order 1, tests membership in Gamma_2
            n, k, kind, label = 4, 1, "sigma_k_root", "wrong order"
            contains = staticmethod(S24.contains)
            value = staticmethod(S24.value)

        with pytest.raises(NumericalError, match="cone type probe"):
            classify_type(WrongOrder())


class TestMatrixFunction:
    def test_diagonal_matrix(self):
        w = np.diag([2.0, 0.4, 0.6, 1.0])
        value, _ = matrix_value_and_derivative(S24, 1.0, w)
        assert value == pytest.approx(S24.value(np.array([0.4, 0.6, 1.0, 2.0])), rel=1e-13)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(13)
        lam = np.array([0.3, 0.5, 1.0, 2.0])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        w = (q * lam) @ q.T
        v1, _ = matrix_value_and_derivative(S24, 0.8, w)
        q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v2, _ = matrix_value_and_derivative(S24, 0.8, q2 @ w @ q2.T)
        assert abs(v1 - v2) <= 1e-10

    def test_trace_identity(self):
        rng = np.random.default_rng(14)
        lam = np.sort(np.array([0.2, 0.7, 1.1, 3.0]))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        w = (q * lam) @ q.T
        _, deriv = matrix_value_and_derivative(S24, 0.6, w)
        lhs = float(np.einsum("ij,il,jl->", deriv, w, w))
        rhs = float(S24.grad_t(0.6, lam) @ lam ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_derivative_against_finite_differences(self):
        rng = np.random.default_rng(15)
        lam = np.array([0.35, 0.8, 1.4, 2.2])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        w = (q * lam) @ q.T
        _, deriv = matrix_value_and_derivative(S24, 0.9, w)
        fd = matrix_derivative_by_differences(
            lambda m: matrix_value_and_derivative(S24, 0.9, m)[0], w)
        assert np.abs(deriv - fd).max() / np.abs(fd).max() < 1e-6

    def test_repeated_eigenvalues(self):
        w = np.diag([1.0, 1.0, 1.0, 2.0])
        value, deriv = matrix_value_and_derivative(S24, 1.0, w)
        fd = matrix_derivative_by_differences(
            lambda m: matrix_value_and_derivative(S24, 1.0, m)[0], w)
        assert np.abs(deriv - fd).max() / np.abs(fd).max() < 1e-6

    def test_spectrum_outside_cone_rejected(self):
        with pytest.raises(ConeDomainError):
            matrix_value_and_derivative(S24, 1.0, np.diag([-1.0, 0.1, 0.1, 0.1]))


class TestVerifyStructure:
    def test_sigma_2_root_passes(self):
        report = verify_structure(S24, sample_count=1000, seed=0)
        assert report.passed, report.failed_names()

    def test_quotient_passes(self):
        report = verify_structure(Q21, sample_count=1000, seed=0)
        assert report.passed, report.failed_names()

    def test_broken_degree_two_fails_homogeneity(self):
        report = verify_structure(BrokenHomogeneitySpec(n=4), sample_count=300, seed=0)
        assert not report.passed
        assert "f4_homogeneity" in report.failed_names()

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            verify_structure(S24, sample_count=0)

    @pytest.mark.parametrize("spec", [S24, Q21, SymFuncSpec("sigma_k_root", n=5, k=5)],
                             ids=lambda s: s.label)
    def test_decay_check_matches_per_ray_reference(self, spec):
        pts = sample_cone(spec, 300, np.random.default_rng(31))
        rng_batched = np.random.default_rng(32)
        rng_loop = np.random.default_rng(32)
        assert _boundary_decay_check(spec, pts, rng_batched) == boundary_decay_by_loop(
            spec, pts, rng_loop)
        assert rng_batched.bit_generator.state == rng_loop.bit_generator.state


class TestBallInclusion:
    def test_passes_default_grid(self):
        report = interpolation_ball_report(S24, directions=300, seed=2)
        assert report.passed

    def test_rows_hold_the_worst_t(self):
        report = interpolation_ball_report(S24, directions=50, seed=2)
        report.rows[2] = (report.rows[2][0], -1e-3, -2e-3)
        membership, value_bound = report.checks
        assert (membership.name, membership.passed, membership.worst) == ("membership", False, -1e-3)
        assert (value_bound.name, value_bound.passed, value_bound.worst) == (
            "value_bound", False, -2e-3)
        assert not report.passed

    def test_corner_bound_tight_at_t_zero(self):
        report = interpolation_ball_report(S24, t_values=(0.0,), directions=10, seed=2)
        _, _, corner = report.rows[0]
        # equality case: the slack is the 1e-12 relative epsilon only
        assert 0.0 <= corner <= 1e-10


class TestConcavityMargin:
    def test_equal_points_return_none(self):
        assert concavity_margin(S23, 1.0, np.ones(3), np.ones(3), 0.2) is None

    def test_separated_normals_give_positive_margin(self):
        eps = concavity_margin(S23, 1.0, np.ones(3), np.array([0.01, 0.01, 100.0]), 0.2)
        assert eps is not None and eps > 0
        # direct evaluation of both sides at t = 1
        lam = np.array([0.01, 0.01, 100.0])
        mu = np.ones(3)
        g = S23.grad(lam)
        lhs = g @ (mu - lam)
        rhs = S23.value(mu) - S23.value(lam)
        assert eps == pytest.approx((lhs - rhs) / (g.sum() + 1.0), rel=1e-12)

    def test_mu_outside_cone_rejected(self):
        with pytest.raises(ConeDomainError):
            concavity_margin(S23, 1.0, np.array([-1.0, 0.0, 0.5]), np.ones(3), 0.2)

    def test_randomized_suite_positive(self):
        report = concavity_margin_suite(S23, samples=2000, beta=0.2, seed=0)
        assert report.passed
        assert report.min_margin > 0
        [row] = report.checks
        assert (row.name, row.passed, row.worst, row.threshold) == (
            "margin_positive", True, report.min_margin, 0.0)

    @pytest.mark.parametrize("spec", [S23, SymFuncSpec("sigma_k_root", n=5, k=4),
                                      SymFuncSpec("quotient", n=4, k=2, l=1)],
                             ids=lambda s: s.label)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_suite_matches_per_sample_reference(self, spec, seed):
        report = concavity_margin_suite(spec, samples=300, beta=0.2, seed=seed)
        kept, min_margin = separation_margin_by_loop(spec, 300, 0.2, seed)
        assert report.kept == kept
        assert report.min_margin == pytest.approx(min_margin, rel=1e-12)

    def test_suite_draws_unchanged(self):
        # the pair budget replaced a cap of 60 rounds; runs that finished
        # under the cap draw the same numbers
        report = concavity_margin_suite(S24, samples=2000, beta=0.2, seed=0)
        assert report.kept == 2000
        assert report.min_margin == 0.04686606150077809

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_suite_with_few_separated_pairs_completes(self, seed):
        # about 3.5% of the pairs separate for sigma_2 at n = 5: 60 rounds
        # of the 256-row floor kept about 1790 of 2000
        report = concavity_margin_suite(SymFuncSpec("sigma_k_root", n=5, k=2),
                                        samples=2000, beta=0.2, seed=seed)
        assert report.kept == 2000
        assert report.passed

    def test_suite_without_separated_pairs_raises(self):
        # unit normals are at most 2 apart, so no pair separates beyond 2.5
        with pytest.raises(NumericalError, match="stalled"):
            concavity_margin_suite(S24, samples=50, beta=2.5, seed=0)

    def test_batched_kernel_rejects_mu_outside_cone(self):
        mus = np.ones((3, 3))
        mus[1] = (-1.0, 0.0, 0.5)
        with pytest.raises(ConeDomainError, match="mu"):
            concavity_margin_many(S23, [1.0, 0.5, 0.2], mus, np.ones((3, 3)), 0.2)

    def test_batched_kernel_rejects_lam_outside_interpolated_cone(self):
        lams = np.ones((3, 3))
        lams[2] = (-1.0, -1.0, 0.5)  # sigma_1 < 0: outside Gamma_t for every t
        with pytest.raises(ConeDomainError, match="lam"):
            concavity_margin_many(S23, [1.0, 0.5, 0.2], np.ones((3, 3)), lams, 0.2)
        with pytest.raises(ConeDomainError, match="lam"):
            concavity_margin(S23, 0.2, np.ones(3), lams[2], 0.2)


def _all_specs(n):
    yield from (SymFuncSpec("sigma_k_root", n=n, k=k) for k in range(1, n + 1))
    yield from (SymFuncSpec("quotient", n=n, k=k, l=l) for k in range(2, n + 1) for l in range(1, k))


class TestRadialKernel:
    """radial_eval on (a, s, ..., s) against the (m, n) path on the same rows."""

    @pytest.mark.parametrize("n", range(3, 10))
    def test_bit_identical_to_the_row_path(self, n):
        rng = np.random.default_rng(n)
        du = rng.uniform(-0.8, 0.8, 300)
        d2u = rng.uniform(-0.5, 3.0, 300)
        du[0], d2u[0] = 1.0, 0.0  # the zero tuple: outside every cone
        a, s = radial_w_eigenvalues(n, du, d2u)
        rows = radial_rows(n, du, d2u)
        for spec in _all_specs(n):
            for t in (0.0, 0.3, 0.99, 1.0):
                scores = spec.margin_scores_t(t, rows)
                inside = scores > spec.margin
                assert 0 < inside.sum() < inside.size
                ev = spec.radial_eval(t, a, s)
                assert np.array_equal(ev.scores, scores)
                assert ev.value is None and ev.grad_axis is None and ev.grad_sphere is None
                with pytest.raises(ConeDomainError) as exc:
                    spec.radial_eval(t, a, s, grad=True)
                with pytest.raises(ConeDomainError) as expected:
                    spec.grad_t_many(t, rows)
                assert str(exc.value) == str(expected.value)

                ev = spec.radial_eval(t, a[inside], s[inside], grad=True)
                g = spec.grad_t_many(t, rows[inside])
                assert np.array_equal(ev.scores, scores[inside])
                assert np.array_equal(ev.value, spec.value_t_many(t, rows[inside]))
                assert np.array_equal(ev.grad_axis, g[:, 0])
                assert np.array_equal(ev.grad_sphere, g[:, 1:].sum(axis=1))
                assert np.array_equal(spec.radial_eval(t, a[inside], s[inside]).value, ev.value)

    def test_generic_version_on_the_rows(self):
        spec = BrokenHomogeneitySpec(n=4)
        a, s = np.array([2.0, 1.0, 0.5]), np.array([0.5, 0.1, -0.5])  # the last row is outside
        rows = np.column_stack([a, s, s, s])
        ev = spec.radial_eval(0.3, a, s)
        assert np.array_equal(ev.scores, spec.margin_scores_t(0.3, rows))
        assert ev.value is None
        with pytest.raises(ConeDomainError):
            spec.radial_eval(0.3, a, s, grad=True)
        ev = spec.radial_eval(0.3, a[:2], s[:2], grad=True)
        g = spec.grad_t_many(0.3, rows[:2])
        assert np.array_equal(ev.value, spec.value_t_many(0.3, rows[:2]))
        assert np.array_equal(ev.grad_axis, g[:, 0])
        assert np.array_equal(ev.grad_sphere, g[:, 1:].sum(axis=1))

    def test_kernel_ignores_slot_order(self):
        # f_t is symmetric: the axis value may sit in any slot of the row
        rng = np.random.default_rng(31)
        du = rng.uniform(-0.5, 0.5, 200)
        d2u = rng.uniform(0.5, 3.0, 200)
        a, s = radial_w_eigenvalues(5, du, d2u)
        rows = np.column_stack([s, s, a, s, s])
        for spec in (SymFuncSpec("sigma_k_root", n=5, k=3), SymFuncSpec("quotient", n=5, k=4, l=2)):
            for t in (0.2, 1.0):
                ev = spec.radial_eval(t, a, s, grad=True)
                g = spec.grad_t_many(t, rows)
                assert np.allclose(ev.value, spec.value_t_many(t, rows), rtol=1e-13, atol=0)
                assert np.allclose(ev.grad_axis, g[:, 2], rtol=1e-12, atol=0)
                assert np.allclose(ev.grad_sphere, g.sum(axis=1) - g[:, 2], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [*range(2, 40), 127, 128, 129, 200, 517])
    def test_row_sum_follows_numpy(self, n):
        rng = np.random.default_rng(n)
        head = rng.standard_normal(50) * 10.0 ** rng.uniform(-5, 5, 50)
        tail = rng.standard_normal(50) * 10.0 ** rng.uniform(-5, 5, 50)
        head[0] = tail[0] = -0.0  # numpy's sum starts from 0.0, so this row sums to +0.0
        rows = np.concatenate([head[:, None], np.repeat(tail[:, None], n - 1, axis=1)], axis=1)
        total = _row_sum(head, tail, n)
        assert np.array_equal(total, rows.sum(axis=1))
        assert np.array_equal(np.signbit(total), np.signbit(rows.sum(axis=1)))
        assert np.array_equal(_row_sum(tail, tail, n), np.repeat(tail[:, None], n, axis=1).sum(axis=1))


class TestSuiteCallCounts:
    """The structure suites evaluate in batches: one cone test per sampling
    round and per bisection step, not per sample or per ray."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        score = SymFuncSpec.margin_scores

        def counting(self, values):
            calls.append(len(values))
            return score(self, values)

        monkeypatch.setattr(SymFuncSpec, "margin_scores", counting)
        return calls

    def test_separation_suite(self, monkeypatch):
        calls = self._counted(monkeypatch)
        counts = []
        for samples in (500, 5000):
            calls.clear()
            concavity_margin_suite(S23, samples=samples, beta=0.2, seed=0)
            counts.append(len(calls))
        # only the number of sampling rounds grows, like log(samples)
        assert counts[1] < 3 * counts[0]
        assert counts[1] < 5000 // 10

    def test_verify_structure(self, monkeypatch):
        calls = self._counted(monkeypatch)
        counts = []
        for samples in (200, 2000):
            calls.clear()
            verify_structure(S24, sample_count=samples, seed=0)
            counts.append(len(calls))
        # flat up to the cone sampler's rejection rounds; the decay check's
        # 64 rays bisect in lockstep (100 calls, not 6400)
        assert counts[1] < counts[0] + 20
        assert counts[0] < 400


class TestSpecValidation:
    def test_quotient_requires_l(self):
        with pytest.raises(ValueError):
            SymFuncSpec("quotient", n=4, k=2)

    def test_k_range(self):
        with pytest.raises(ValueError):
            SymFuncSpec("sigma_k_root", n=4, k=5)

    def test_root_rejects_l(self):
        with pytest.raises(ValueError):
            SymFuncSpec("sigma_k_root", n=4, k=2, l=1)
