"""Unit tests of the symmetric-function machinery against independent oracles."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from yamabe._errors import ConeDomainError, NumericalError
from yamabe.geometry import radial_w_eigenvalues
from yamabe import symfun
from yamabe.symfun import (
    SymFuncSpec,
    _bisect_exits,
    _boundary_decay_check,
    _cone_scores,
    _esp,
    _esp_removed,
    _row_copy,
    _row_sum,
    _t_map,
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
    BrokenHomogeneitySpec,
    all_specs,
    bisect_exit_by_loop,
    boundary_decay_by_loop,
    cone_scores_by_strided_columns,
    esp_by_columns,
    esp_gradient_by_deletion,
    gradient_by_differences,
    matrix_derivative_by_differences,
    radial_eval_by_stacked_pass,
    radial_gradient_by_two_passes,
    radial_rows,
    row_sum_in_order,
    separation_margin_by_loop,
    sigma_by_enumeration,
)


S23 = SymFuncSpec("sigma_k_root", n=3, k=2)
S24 = SymFuncSpec("sigma_k_root", n=4, k=2)
Q21 = SymFuncSpec("quotient", n=4, k=2, l=1)

# the functions `yamabe check` is benchmarked on: sigma_k roots for n = 3..5
# and 2 <= k <= n, and quotient(2,1) for n = 3..5
CHECK_SPECS = tuple(
    [SymFuncSpec("sigma_k_root", n=n, k=k) for n in (3, 4, 5) for k in range(2, n + 1)]
    + [SymFuncSpec("quotient", n=n, k=2, l=1) for n in (3, 4, 5)]
)

# tuples of 8 and more entries, where numpy's pairwise sum and the in-order
# `_row_sum` round differently
WIDE_SPECS = (SymFuncSpec("sigma_k_root", n=10, k=5), SymFuncSpec("sigma_k_root", n=8, k=8))


def failing(rows):
    """The names of the CheckResult rows that fail."""
    return [row.name for row in rows if not row.passed]


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
        assert sigma([], 0) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sigma((1, 2, 3), 4)

    def test_rejects_a_stack(self):
        # not sigma_1 of row 0, 3.0
        with pytest.raises(ValueError, match="expected one tuple"):
            sigma([[1, 1, 1], [2, 2, 2]], 1)

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
            assert g[i] == pytest.approx(expected, rel=1e-12, abs=0.0)


def _oracle_rows(values, kmax):
    """e_1..e_kmax of the (m, n) rows by the oracle, in `_esp`'s (kmax, m)
    layout: its e_0 column dropped."""
    return esp_by_columns(values, kmax).T[1:]


def _assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestEsp:
    """The one ESP recurrence against the oracle on (m, n) rows; the radial
    columns are TestRadialKernel's."""

    def test_equals_the_tuple_per_row_recurrence_exactly(self):
        rng = np.random.default_rng(20)
        for n in range(1, 8):
            for m in (1, 2, 64, 4001):
                values = 2.0 * rng.standard_normal((m, n))
                for kmax in range(n + 1):
                    e = _esp(values.T, kmax)
                    assert e.shape == (kmax, m) and e.flags.c_contiguous
                    _assert_same_bits(e, _oracle_rows(values, kmax))

    def test_strided_input(self):
        values = np.random.default_rng(24).standard_normal((9, 12))[::2, 1::3]
        assert np.array_equal(_esp(values.T, 3), _oracle_rows(values, 3))

    def test_an_array_knows_m_without_entries(self):
        # the empty tuple: no column to read m from, e_0 = 1 through the accessor
        e = _esp(np.zeros((0, 3)), 0)
        assert e.shape == (0, 3)
        assert np.array_equal(_row_copy(e, 0), np.ones(3))

    def test_row_copy_is_e_j_with_e_0_one(self):
        values = np.random.default_rng(25).standard_normal((5, 4))
        e = _esp(values.T, 3)
        oracle = esp_by_columns(values, 3).T
        for j in range(4):
            row = _row_copy(e, j)
            assert np.array_equal(row, oracle[j]) and not np.shares_memory(row, e)


def _sigma_gradient(values, j):
    """Gradient of sigma_j, j >= 1, from the slot of _esp_removed that
    grad_many reads: entry i is e_{j-1} of the tuple without entry i (the
    accessor's ones for j = 1)."""
    return _row_copy(_esp_removed(values, j - 1).transpose(0, 2, 1), j - 1)


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
            e = _esp(values.T, k)
            log_grad = (esp_gradient_by_deletion(values, k) / e[k - 1][:, None]
                        - esp_gradient_by_deletion(values, l) / e[l - 1][:, None])
            expected = (spec.value_many(values) / (k - l))[:, None] * log_grad
            assert np.array_equal(spec.grad_many(values), expected)

    def test_sigma_1_root_gradient_reads_e_0(self):
        # Df = (f / 1) e_0 / e_1 with e_0 = 1 of each reduced tuple
        spec = SymFuncSpec("sigma_k_root", n=4, k=1)
        values = sample_cone(spec, 200, np.random.default_rng(26))
        f = spec.value_many(values)
        expected = f[:, None] * esp_gradient_by_deletion(values, 1) / f[:, None]
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


class TestConeScoresKernel:
    """_cone_scores on contiguous (n, 2m) columns against the frozen kernel on
    strided columns: the same bits, signed zeros and NaN included."""

    @staticmethod
    def _rows(rng, m, n):
        values = rng.standard_normal((m, n)) + rng.uniform(-0.5, 2.0, size=(m, 1))
        special = [np.zeros(n), np.full(n, -0.0), np.full(n, np.nan), np.full(n, 1e-310),
                   np.r_[np.zeros(n - 1), 2.0], np.r_[np.nan, np.ones(n - 1)],
                   np.r_[-0.0, np.ones(n - 1)], np.r_[np.inf, np.ones(n - 1)]]
        if m >= 64:
            for row, tuple_ in zip(values[::7], special):
                row[:] = tuple_
        return values

    @pytest.mark.parametrize("n", range(3, 13))
    def test_bit_identical_to_the_strided_kernel(self, n):
        rng = np.random.default_rng(60 + n)
        for m in (0, 1, 64, 1000):
            values = self._rows(rng, m, n)
            for order in range(1, n + 1):
                with np.errstate(invalid="ignore"):
                    scores, e = _cone_scores(values, order)
                    want_scores, want_e = cone_scores_by_strided_columns(values, order)
                assert scores.tobytes() == want_scores.tobytes(), (m, order)
                # the kernel keeps e_1..e_order, the frozen one e_0 too
                assert np.ascontiguousarray(e).tobytes() == np.ascontiguousarray(want_e[1:]).tobytes()

    def test_special_rows_are_covered(self):
        with np.errstate(invalid="ignore"):
            scores, _ = _cone_scores(self._rows(np.random.default_rng(0), 64, 4), 2)
        assert np.isneginf(scores[[0, 7]]).all() and np.isnan(scores[[14, 35]]).all()


class TestValueAndGradient:
    def test_value_at_ones(self):
        assert S23.value((1.0, 1.0, 1.0)) == pytest.approx(math.sqrt(3), rel=1e-15, abs=0.0)
        assert S23.f_at_ones() == pytest.approx(math.sqrt(3), rel=1e-15, abs=0.0)

    def test_value_123(self):
        assert S23.value((1.0, 2.0, 3.0)) == pytest.approx(math.sqrt(11), rel=1e-15, abs=0.0)

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

    @pytest.mark.parametrize("spec", [*CHECK_SPECS, SymFuncSpec("quotient", n=6, k=5, l=3)],
                             ids=lambda s: s.label)
    def test_value_and_grad_many_equal_the_separate_calls(self, spec):
        values = sample_cone(spec, 257, np.random.default_rng(25))
        value, grad = spec.value_and_grad_many(values)
        assert np.array_equal(value, spec.value_many(values))
        assert np.array_equal(grad, spec.grad_many(values))

    @pytest.mark.parametrize("spec", [S23, SymFuncSpec("quotient", n=3, k=2, l=1)],
                             ids=lambda s: s.label)
    def test_value_and_grad_many_raise_the_cone_error(self, spec):
        values = np.array([[1.0, 1.0, 1.0], [-3.0, 0.5, 0.5]])
        with pytest.raises(ConeDomainError) as separate:
            spec.value_many(values)
        with pytest.raises(ConeDomainError) as joint:
            spec.value_and_grad_many(values)
        assert str(joint.value) == str(separate.value)
        assert joint.value.min_score == separate.value.min_score

    def test_quotient_value(self):
        lam = np.array([1.0, 2.0, 3.0, 4.0])
        expected = sigma_by_enumeration(lam, 2) / sigma_by_enumeration(lam, 1)
        assert Q21.value(lam) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_quotient_gradient_against_finite_differences(self):
        lam = np.array([0.5, 1.0, 2.0, 3.0])
        fd = gradient_by_differences(Q21.value, lam)
        assert np.abs(Q21.grad(lam) - fd).max() / np.abs(fd).max() < 1e-6

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            S23.value([1.0, 2.0])
        with pytest.raises(ValueError):
            S23.value(np.ones((2, 4)), 0.5)
        with pytest.raises(ValueError):
            S23.value(np.ones((2, 2, 3)))

    @pytest.mark.parametrize("name, t", [("contains", ()), ("contains", (0.5,)), ("value", ()),
                                         ("grad", ()), ("value", (0.5,)), ("grad", (0.5,))])
    def test_single_tuple_methods_reject_a_stack(self, name, t):
        # a stack is not read as its row 0: contains would be True on the
        # first, value sqrt(6) on the second
        for stack in ([[1, 1, 1, 1], [-1, -1, -1, -1]], [[1, 1, 1, 1], [2, 2, 2, 2]], [[1, 1, 1, 1]]):
            with pytest.raises(ValueError, match="expected one tuple"):
                getattr(S24, name)(stack, *t)

    @pytest.mark.parametrize("name", ["margin_scores", "value_many", "grad_many",
                                      "value_and_grad_many"])
    def test_batch_methods_reject_a_wrong_row_length(self, name):
        # rows of three on n = 4 are not read as 3-tuples (value_many gave sqrt(3))
        with pytest.raises(ValueError, match="expected tuples of length 4, got 3"):
            getattr(S24, name)([[1.0, 1.0, 1.0]])

    def test_accepts_sequences_in_any_order(self):
        expected = S23.value(np.array([1.0, 2.0, 3.0]))
        assert expected == pytest.approx(math.sqrt(11), rel=1e-14, abs=0.0)
        for lam in ((1.0, 2.0, 3.0), [3.0, 1.0, 2.0], (2, 3, 1)):
            assert S23.value(lam) == pytest.approx(expected, rel=1e-14, abs=0.0)


# the seven evaluation methods, the single-tuple ones first
_SINGLE = ("contains", "value", "grad")
_EVALUATIONS = _SINGLE + ("margin_scores", "value_many", "grad_many", "value_and_grad_many")


def _by_the_t_map(spec, name, x, t):
    """spec.name(x, t) by hand: the t-free method on the t-mapped tuples,
    and gradients carried back through the map, which is symmetric."""
    mapped = symfun._t_map(t, np.atleast_2d(np.asarray(x, dtype=float)))
    if name in _SINGLE:
        out = getattr(spec, name)(mapped[0])
        return symfun._t_map(t, out[None, :])[0] if name == "grad" else out
    out = getattr(spec, name)(mapped)
    if name == "grad_many":
        return symfun._t_map(t, out)
    if name == "value_and_grad_many":
        return out[0], symfun._t_map(t, out[1])
    return out


def _identical(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_identical(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and np.array_equal(a, b)


class TestOneEvaluationApi:
    """Each method evaluates f without t and f_t with t, a number or an
    (m, 1) column, as its last argument."""

    @pytest.mark.parametrize("name", _EVALUATIONS)
    @pytest.mark.parametrize("spec", [S24, SymFuncSpec("quotient", n=5, k=3, l=1)],
                             ids=lambda spec: spec.label)
    def test_t_is_the_last_argument(self, spec, name):
        rng = np.random.default_rng(42)
        pts = sample_cone(spec, 16, rng)
        x = pts[0] if name in _SINGLE else pts
        m = np.atleast_2d(x).shape[0]
        method = getattr(spec, name)
        assert _identical(method(x), method(x, None))
        for t in (0.0, 0.37, 1.0, rng.uniform(0.0, 1.0, size=(m, 1))):
            assert _identical(method(x, t), _by_the_t_map(spec, name, x, t))
        # f_t differs from f off t = 1 (the scores of these positive tuples are all 1)
        if name not in ("contains", "margin_scores"):
            assert not _identical(method(x, 0.37), method(x))

    def test_no_second_set_of_methods(self):
        for name in ("in_cone_t", "margin_scores_t", "value_t", "value_t_many", "grad_t",
                     "grad_t_many", "_grads_t", "_inside"):
            assert not hasattr(SymFuncSpec, name)

    def test_contains_follows_the_interpolated_cone(self):
        # near the last axis: outside Gamma_2, inside every Gamma_t with t < 1
        lam = np.array([-0.05, -0.05, -0.05, 1.0])
        assert not S24.contains(lam) and not S24.contains(lam, 1.0)
        assert S24.margin_scores(lam)[0] < 0.0
        for t in (0.0, 0.5, np.array([[0.9]])):
            assert S24.contains(lam, t) is _by_the_t_map(S24, "contains", lam, t) is True
            assert S24.margin_scores(lam, t)[0] > S24.margin


class TestInterpolatedFamily:
    def test_t_one_is_identity(self):
        lam = np.array([1.0, 2.0, 3.0])
        assert S23.value(lam, 1.0) == pytest.approx(S23.value(lam), rel=1e-15, abs=0.0)
        assert S23.contains((-0.5, 0.5, 0.5), 1.0) == S23.contains((-0.5, 0.5, 0.5))

    def test_t_zero_is_trace_times_f_ones(self):
        lam = np.array([1.0, 2.0, 3.0])
        assert S23.value(lam, 0.0) == pytest.approx(lam.sum() * S23.f_at_ones(), rel=1e-14, abs=0.0)

    def test_cone_points_stay_inside_for_all_t(self):
        rng = np.random.default_rng(3)
        pts = sample_cone(S24, 100, rng)
        for t in (0.0, 0.3, 0.7, 1.0):
            assert np.all(S24.margin_scores(pts, t) > S24.margin)

    def test_dominates_base_value(self):
        rng = np.random.default_rng(4)
        pts = sample_cone(S24, 200, rng)
        for t in (0.0, 0.25, 0.5, 0.9):
            assert np.all(S24.value_many(pts, t) >= S24.value_many(pts) - 1e-12)

    def test_interpolated_gradient_matches_finite_differences(self):
        lam = np.array([0.4, 1.0, 2.5])
        for t in (0.0, 0.5, 0.9):
            fd = gradient_by_differences(lambda x: S23.value(x, t), lam)
            g = S23.grad(lam, t)
            assert np.abs(g - fd).max() / np.abs(fd).max() < 1e-6


def _unit(g):
    return g / np.linalg.norm(g)


class TestNormalDirection:
    """The level-set normal is the direction of grad(lam, t)."""

    def test_at_ones(self):
        nu = _unit(S23.grad(np.ones(3), 1.0))
        assert np.allclose(nu, np.ones(3) / math.sqrt(3), atol=1e-14)

    def test_positive(self):
        rng = np.random.default_rng(5)
        for lam in sample_cone(S24, 50, rng):
            for t in (0.2, 1.0):
                assert np.all(S24.grad(lam, t) > 0)

    def test_scale_invariance(self):
        # f_t has degree one, so its gradient has degree zero
        rng = np.random.default_rng(6)
        for lam in sample_cone(S24, 50, rng):
            g1 = S24.grad(lam, 0.7)
            g2 = S24.grad(2.0 * lam, 0.7)
            assert np.abs(g1 - g2).max() <= 1e-12 * np.abs(g1).max()

    def test_finite_difference_agreement(self):
        lam = np.array([0.5, 1.5, 2.5])
        fd = gradient_by_differences(lambda x: S23.value(x, 0.6), lam)
        assert np.abs(_unit(S23.grad(lam, 0.6)) - _unit(fd)).max() < 1e-6


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

    @pytest.mark.parametrize("n", range(3, 13))
    def test_growth_type_of_every_function(self, n):
        # a root of sigma_k grows like x^(1/k) in the last slot, less than
        # 1000^(1/k) < 2 over three decades from k = 10 on
        for spec in all_specs(n):
            expected = "bounded" if spec.kind == "quotient" else "unbounded"
            assert classify_type(spec).f_type == expected, spec.label

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
        assert value == pytest.approx(S24.value(np.array([0.4, 0.6, 1.0, 2.0])), rel=1e-13, abs=0.0)

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
        rhs = float(S24.grad(lam, 0.6) @ lam ** 2)
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

    @pytest.mark.parametrize("w", [np.ones((4, 3)), np.ones(4), np.ones((2, 2, 2))],
                             ids=["4x3", "vector", "3d"])
    def test_rejects_a_non_square_array(self, w):
        with pytest.raises(ValueError, match="expected a square matrix"):
            matrix_value_and_derivative(S24, 1.0, w)

    def test_rejects_a_non_symmetric_matrix(self):
        w = np.diag([1.0, 2.0, 3.0, 4.0])
        w[0, 1] = 1e-6
        with pytest.raises(ValueError, match="expected a symmetric matrix"):
            matrix_value_and_derivative(S24, 1.0, w)

    def test_spectrum_outside_cone_rejected(self):
        with pytest.raises(ConeDomainError, match="matrix spectrum outside the interpolated cone"):
            matrix_value_and_derivative(S24, 1.0, np.diag([-1.0, 0.1, 0.1, 0.1]))

    @pytest.mark.parametrize("lam", [[0.3, 0.5, 1.0, 2.0], [1.0, 1.0, 1.0, 2.0]],
                             ids=["distinct", "repeated"])
    def test_one_cone_pass(self, spy, lam):
        # the value and the derivative from one cone pass, as from the cone
        # test, value and gradient of the spectrum taken one by one
        rng = np.random.default_rng(16)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        w = (q * np.array(lam)) @ q.T
        w = 0.5 * (w + w.T)
        cone_scores = spy(symfun, "_cone_scores")
        value, deriv = matrix_value_and_derivative(S24, 0.6, w)
        assert [call.args[0].shape for call in cone_scores.call_args_list] == [(1, 4)]
        spectrum, vectors = np.linalg.eigh(w)
        assert S24.contains(spectrum, 0.6)
        g = S24.grad(spectrum, 0.6)
        scale = max(1.0, float(np.abs(spectrum).max()))
        start = 0
        for i in range(1, 5):
            if i == 4 or spectrum[i] - spectrum[start] > 1e-12 * scale:
                g[start:i] = g[start:i].mean()
                start = i
        expected = (vectors * g) @ vectors.T
        assert value == S24.value(spectrum, 0.6)
        assert np.array_equal(deriv, 0.5 * (expected + expected.T))


class TestVerifyStructure:
    def test_sigma_2_root_passes(self):
        rows = verify_structure(S24, sample_count=1000, seed=0)
        assert failing(rows) == []

    def test_quotient_passes(self):
        rows = verify_structure(Q21, sample_count=1000, seed=0)
        assert failing(rows) == []

    def test_broken_degree_two_fails_homogeneity(self):
        rows = verify_structure(BrokenHomogeneitySpec(n=4), sample_count=300, seed=0)
        assert "f4_homogeneity" in failing(rows)
        # the row shows the bound its sample failed
        row = rows[4]
        assert row.name == "f4_homogeneity" and 1e-12 <= row.threshold < row.worst

    # seeds whose homogeneity row failed the fixed bound 1e-12: a sample
    # near the cone boundary, where sigma_j rounds to about eps / score
    @pytest.mark.parametrize("spec, seed", [
        *((SymFuncSpec("quotient", n=3, k=2, l=1), seed) for seed in (21, 121)),
        *((Q21, seed) for seed in (70, 95, 273)),
        (SymFuncSpec("quotient", n=5, k=2, l=1), 19),
        *((S24, seed) for seed in (70, 95)),
    ], ids=lambda v: v.label if isinstance(v, SymFuncSpec) else str(v))
    def test_homogeneity_bound_follows_the_margin_score(self, spec, seed):
        rows = verify_structure(spec, sample_count=1000, seed=seed)
        row = rows[4]
        assert row.name == "f4_homogeneity" and failing(rows) == []
        assert 1e-12 < row.worst <= row.threshold

    def test_homogeneity_row_within_the_fixed_bound(self):
        # every gap within 1e-12: the row holds the largest and 1e-12
        row = verify_structure(S24, sample_count=1000, seed=0)[4]
        assert row.passed and row.worst <= 1e-12 and row.threshold == 1e-12

    @pytest.mark.parametrize("n", range(3, 13))
    def test_boundary_decay_of_every_function(self, n):
        # the ratio is about (1e-4)^(1/degree), 0.318 at degree 8: the bound
        # grows with the degree from there, and is 0.3 below it
        for spec in all_specs(n):
            row = verify_structure(spec, sample_count=64, seed=0)[1]
            assert row.name == "f1_boundary_decay"
            assert row.passed, (spec.label, row.worst, row.threshold)
            assert row.threshold == (0.3 if spec.degree <= 7 else 1.1 * 1e-4 ** (1.0 / spec.degree))

    # seeds on which numpy's pairwise row sums give another worst f5 (seed
    # 3; seed 0 at n = 8) or f6 (seed 1 at n = 10, seed 0 at n = 8) than
    # the in-order sum
    @pytest.mark.parametrize("seed", [0, 1, 3])
    @pytest.mark.parametrize("spec", WIDE_SPECS, ids=lambda s: s.label)
    def test_sum_rows_add_in_order(self, spec, seed):
        # f5's gradient sums and f6's sigma_1 add each tuple's entries left
        # to right, bit for bit
        rows = verify_structure(spec, sample_count=1000, seed=seed)
        pts = sample_cone(spec, 1000, np.random.default_rng(seed))
        f_e = spec.f_at_ones()
        f5 = min(float(row_sum_in_order(spec.grad_many(pts, t)).min() - f_e)
                 for t in (0.0, 0.25, 0.5, 0.75, 0.99, 1.0))
        f6 = float((spec.value_many(pts) - row_sum_in_order(pts) * f_e / spec.n).max())
        assert (rows[5].name, rows[5].worst) == ("f5_gradient_sum", f5)
        assert (rows[6].name, rows[6].worst) == ("f6_linear_bound", f6)

    def test_gradient_sum_row_fails_on_nan(self, monkeypatch):
        # one NaN gradient entry at t = 0.5 fails f5, as a NaN fails the
        # other rows
        grad_many = SymFuncSpec.grad_many

        def nan_at_half(self, values, t=None):
            g = grad_many(self, values, t)
            if t == 0.5:
                g[3, 1] = np.nan
            return g

        monkeypatch.setattr(SymFuncSpec, "grad_many", nan_at_half)
        row = verify_structure(S24, sample_count=200, seed=0)[5]
        assert row.name == "f5_gradient_sum" and not row.passed and np.isnan(row.worst)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            verify_structure(S24, sample_count=0)

    @pytest.mark.parametrize("seed", [32, 33, 34])
    @pytest.mark.parametrize("spec", CHECK_SPECS, ids=lambda s: s.label)
    def test_decay_check_matches_per_ray_reference(self, spec, seed):
        # same result and same draws as one ray, one try and one bisection
        # step at a time, over 100 steps
        pts = sample_cone(spec, 300, np.random.default_rng(31))
        rng_batched = np.random.default_rng(seed)
        rng_loop = np.random.default_rng(seed)
        assert _boundary_decay_check(spec, pts, rng_batched) == boundary_decay_by_loop(
            spec, pts, rng_loop)
        assert rng_batched.bit_generator.state == rng_loop.bit_generator.state

    @pytest.mark.parametrize("spec", CHECK_SPECS, ids=lambda s: s.label)
    def test_level_bisection_matches_the_step_loop(self, spec):
        # each cone call tests the midpoint tree of _BISECT_LEVELS steps; the
        # walk down it ends at the loop's ends, bit for bit, after its fixed
        # point (the loop takes all 100 steps, which move no end from there)
        rng = np.random.default_rng(38)
        pts = sample_cone(spec, 64, rng)
        directions = rng.standard_normal(pts.shape)
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        reach = 64.0 * np.abs(pts).max()
        lo, hi = _bisect_exits(spec, pts, directions, np.full(64, reach))
        for i in range(64):
            assert (lo[i], hi[i]) == bisect_exit_by_loop(spec, pts[i], directions[i], reach)

    def test_decay_check_at_the_step_cap(self, spy):
        # the margin flips sign from octave to octave of the distance to the
        # ray starts below 2^-46 and is negative above: the ends move at
        # every step, and the cap of 100 ends the bisection inside a call
        def flapping(self, values, t=None):
            r = np.abs(values - 1.0).max(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                even = np.floor(np.log2(r)) % 2 == 0
            return np.where((r < 2.0 ** -46) & even, 1.0, -1.0)

        scores = spy(SymFuncSpec, "margin_scores", flapping)
        pts = np.ones((64, 4))
        for seed in (40, 41):
            scores.reset_mock()
            rng_batched = np.random.default_rng(seed)
            rng_loop = np.random.default_rng(seed)
            batched = _boundary_decay_check(S24, pts, rng_batched)
            # 8 exit rounds of 8 rays by 60 reaches, then full calls of
            # _BISECT_LEVELS steps and one of the steps left up to 100
            levels = symfun._BISECT_LEVELS
            full, last = divmod(100, levels)
            bisection = [64 * (2 ** levels - 1)] * full + [64 * (2 ** last - 1)] * (last > 0)
            assert [len(call.args[1]) for call in scores.call_args_list] == [8 * 60] * 8 + bisection
            assert batched == boundary_decay_by_loop(S24, pts, rng_loop)
            assert rng_batched.bit_generator.state == rng_loop.bit_generator.state

    def test_decay_check_keeps_late_exits(self, monkeypatch, spy):
        # a direction with d_0 > 0 leaves the cone at once, one with
        # d_0 <= 0 < d_1 only beyond the reach 2^12, and the rest never:
        # each ray's bisection starts at its first reach outside, and the
        # result and the draws are those of the per-ray reference (f falls
        # with the distance from the ray starts, which leaves sigma_2's cone)
        def late_exits(self, values):
            offset = values - 1.0
            r = np.abs(offset).max(axis=1)
            return np.where((offset[:, 0] > 0.0) | ((offset[:, 1] > 0.0) & (r > 2.0 ** 12)),
                            -1.0, 1.0)

        def falling(self, values):
            return 1.0 / (1.0 + np.abs(values - 1.0).max(axis=-1))

        monkeypatch.setattr(SymFuncSpec, "margin_scores", late_exits)
        monkeypatch.setattr(SymFuncSpec, "value", falling)
        monkeypatch.setattr(SymFuncSpec, "value_many", falling)
        bisect = spy(symfun, "_bisect_exits")
        pts = np.ones((64, 4))
        reach = 2.0 ** np.arange(60)
        for seed in (42, 43):
            rng_batched = np.random.default_rng(seed)
            rng_loop = np.random.default_rng(seed)
            batched = _boundary_decay_check(S24, pts, rng_batched)
            _, _, directions, hi = bisect.call_args.args
            probes = pts[:, None, :] + reach[:, None] * directions[:, None, :]
            outside = late_exits(S24, probes.reshape(-1, 4)).reshape(64, 60) <= 0.0
            assert outside.any(axis=1).all()
            assert np.array_equal(hi, reach[outside.argmax(axis=1)])
            assert batched == boundary_decay_by_loop(S24, pts, rng_loop)
            assert rng_batched.bit_generator.state == rng_loop.bit_generator.state

    def test_decay_check_without_an_exiting_ray_raises(self, monkeypatch):
        pts = sample_cone(S24, 100, np.random.default_rng(31))
        monkeypatch.setattr(SymFuncSpec, "margin_scores", lambda self, values: np.ones(len(values)))
        rng_batched = np.random.default_rng(32)
        rng_loop = np.random.default_rng(32)
        with pytest.raises(NumericalError, match="exiting ray"):
            _boundary_decay_check(S24, pts, rng_batched)
        with pytest.raises(NumericalError):
            boundary_decay_by_loop(S24, pts, rng_loop)
        # both gave up after the first ray's 40 draws
        assert rng_batched.bit_generator.state == rng_loop.bit_generator.state

    def test_decay_check_counts_the_draws_of_each_ray(self, monkeypatch):
        # a ray exits only along directions with d_0 - d_1 > 1.15, about one
        # draw in 20: some ray runs out of its 40 draws after others needed many
        def rare_exits(self, values):
            offset = values - 1.0
            return np.where(offset[:, 0] - offset[:, 1] > 1.15 * np.linalg.norm(offset, axis=1),
                            -1.0, 1.0)

        monkeypatch.setattr(SymFuncSpec, "margin_scores", rare_exits)
        pts = np.ones((64, 4))
        for seed in (35, 36, 37):
            rng_batched = np.random.default_rng(seed)
            rng_loop = np.random.default_rng(seed)
            with pytest.raises(NumericalError):
                _boundary_decay_check(S24, pts, rng_batched)
            with pytest.raises(NumericalError):
                boundary_decay_by_loop(S24, pts, rng_loop)
            assert rng_batched.bit_generator.state == rng_loop.bit_generator.state


class TestBallInclusion:
    def test_passes_default_grid(self):
        rows = interpolation_ball_report(S24, directions=300, seed=2)
        assert failing(rows) == []

    def test_rows_hold_the_worst_t(self):
        # probe scores and a corner value that dip at t = 0.5 alone; with
        # f(e) = 0 the corner margin is the corner value itself
        stub = SimpleNamespace(
            n=4, f_at_ones=lambda: 0.0,
            margin_scores=lambda values, t: np.full(len(values), -1e-3 if t == 0.5 else 1.0),
            value=lambda lam, t: -2e-3 if t == 0.5 else 1.0)
        membership, value_bound = interpolation_ball_report(stub, directions=50, seed=2)
        assert (membership.name, membership.passed, membership.worst) == ("membership", False, -1e-3)
        assert (value_bound.name, value_bound.passed, value_bound.worst) == (
            "value_bound", False, -2e-3)

    def test_membership_fails_on_nan(self, monkeypatch):
        # one NaN probe score at t = 0.5, after a t with finite scores
        margin_scores = SymFuncSpec.margin_scores

        def nan_at_half(self, values, t=None):
            scores = margin_scores(self, values, t)
            if t == 0.5:
                scores[7] = np.nan
            return scores

        monkeypatch.setattr(SymFuncSpec, "margin_scores", nan_at_half)
        membership, value_bound = interpolation_ball_report(S24, directions=50, seed=2)
        assert not membership.passed and np.isnan(membership.worst) and value_bound.passed

    def test_value_bound_fails_on_nan(self, monkeypatch):
        # a NaN corner value at t = 0.5, after a t with a finite one
        value = SymFuncSpec.value
        monkeypatch.setattr(SymFuncSpec, "value",
                            lambda self, lam, t=None: np.nan if t == 0.5 else value(self, lam, t))
        membership, value_bound = interpolation_ball_report(S24, directions=50, seed=2)
        assert not value_bound.passed and np.isnan(value_bound.worst) and membership.passed

    def test_corner_bound_tight_at_t_zero(self):
        _, value_bound = interpolation_ball_report(S24, t_values=(0.0,), directions=10, seed=2)
        # equality case: the slack is the 1e-12 relative epsilon only
        assert 0.0 <= value_bound.worst <= 1e-10


@pytest.mark.parametrize("suite, kwargs, argument", [
    (interpolation_ball_report, {"directions": 0}, "directions"),
    (interpolation_ball_report, {"t_values": ()}, "t_values"),
    (interpolation_ball_report, {"t_values": (1.5,)}, "t_values"),
    (concavity_margin_suite, {"samples": 0}, "samples"),
    (concavity_margin_suite, {"beta": -1.0}, "beta"),
    (concavity_margin_suite, {"beta": 1.5}, "beta"),
], ids=["no-directions", "no-t", "t-above-one", "no-samples", "beta-negative", "beta-no-pair"])
def test_suites_reject_bad_inputs(suite, kwargs, argument):
    with pytest.raises(ValueError, match=f"^{argument} must"):
        suite(S24, **kwargs)


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
        assert eps == pytest.approx((lhs - rhs) / (g.sum() + 1.0), rel=1e-12, abs=0.0)

    def test_mu_outside_cone_rejected(self):
        with pytest.raises(ConeDomainError):
            concavity_margin(S23, 1.0, np.array([-1.0, 0.0, 0.5]), np.ones(3), 0.2)

    def test_randomized_suite_positive(self):
        [row] = concavity_margin_suite(S23, samples=2000, beta=0.2, seed=0)
        assert (row.name, row.passed, row.threshold) == ("margin_positive", True, 0.0)
        assert row.worst > 0

    @pytest.mark.parametrize("spec", [S23, SymFuncSpec("sigma_k_root", n=5, k=4),
                                      SymFuncSpec("quotient", n=4, k=2, l=1)],
                             ids=lambda s: s.label)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_suite_matches_per_sample_reference(self, spec, seed):
        [row] = concavity_margin_suite(spec, samples=300, beta=0.2, seed=seed)
        kept, min_margin = separation_margin_by_loop(spec, 300, 0.2, seed)
        assert kept == 300
        assert row.worst == pytest.approx(min_margin, rel=1e-12, abs=0.0)

    def test_suite_draws_unchanged(self):
        # the pair budget replaced a cap of 60 rounds; runs that finished
        # under the cap draw the same numbers
        [row] = concavity_margin_suite(S24, samples=2000, beta=0.2, seed=0)
        assert row.worst == 0.04686606150077809

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_suite_with_few_separated_pairs_completes(self, seed):
        # about 3.5% of the pairs separate for sigma_2 at n = 5: 60 rounds
        # of the 256-row floor kept about 1790 of 2000; the suite returns
        # only once it has kept all of them
        [row] = concavity_margin_suite(SymFuncSpec("sigma_k_root", n=5, k=2),
                                       samples=2000, beta=0.2, seed=seed)
        assert row.passed

    def test_suite_without_separated_pairs_raises(self):
        # each f_t of sigma_1 is a multiple of sigma_1, so every gradient is
        # parallel to (1, ..., 1) and no two unit normals differ at all
        with pytest.raises(NumericalError, match="stalled"):
            concavity_margin_suite(SymFuncSpec("sigma_k_root", n=3, k=1),
                                   samples=50, beta=0.2, seed=0)

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

    @pytest.mark.parametrize("spec", WIDE_SPECS, ids=lambda s: s.label)
    def test_batched_kernel_sums_in_order(self, spec):
        # the margins' dot products, gradient sums and normal lengths add
        # each tuple's entries left to right, bit for bit
        rng = np.random.default_rng(7)
        lams = sample_cone(spec, 500, rng)
        mus = 1.0 + rng.uniform(-0.45, 0.45, size=lams.shape)
        ts = rng.uniform(0.0, 1.0, size=(500, 1))
        f_lam, g_lam = spec.value_and_grad_many(lams, ts)
        f_mu, g_mu = spec.value_and_grad_many(mus, ts)

        def unit(rows):
            return rows / np.sqrt(row_sum_in_order(rows * rows))[:, None]

        separated = np.sqrt(row_sum_in_order((unit(g_mu) - unit(g_lam)) ** 2)) > 0.2
        margin = ((row_sum_in_order(g_lam * (mus - lams)) - (f_mu - f_lam))
                  / (row_sum_in_order(g_lam) + 1.0))
        eps = concavity_margin_many(spec, ts.ravel(), mus, lams, 0.2)
        assert separated.any()
        assert np.array_equal(eps, np.where(separated, margin, np.nan), equal_nan=True)

    def test_batched_kernel_tests_each_stack_once(self, spy):
        # the mus, the t-mapped mus and the t-mapped lams: one cone test each
        cone_scores = spy(symfun, "_cone_scores")
        lams = np.ones((3, 3)) + np.diag([0.0, 0.5, 1.0])
        concavity_margin_many(S23, [1.0, 0.5, 0.2], np.ones((3, 3)), lams, 0.2)
        assert [call.args[0].shape for call in cone_scores.call_args_list] == [(3, 3)] * 3


class TestRadialKernel:
    """radial_eval on (a, s, ..., s) against the (m, n) path on the same rows."""

    @pytest.mark.parametrize("n", range(3, 10))
    def test_bit_identical_to_the_row_path(self, n):
        rng = np.random.default_rng(n)
        du = rng.uniform(-0.8, 0.8, 300)
        d2u = rng.uniform(-0.5, 3.0, 300)
        du[0], d2u[0] = 1.0, 0.0  # the zero tuple: outside every cone
        a, s = radial_w_eigenvalues(du, d2u)
        rows = radial_rows(n, du, d2u)
        for spec in all_specs(n):
            for t in (0.0, 0.3, 0.99, 1.0):
                scores = spec.margin_scores(rows, t)
                inside = scores > spec.margin
                assert 0 < inside.sum() < inside.size
                # the mixed batch: one verdict, f_t on the rows inside
                ev = spec.radial_eval(t, a, s)
                assert np.array_equal(ev.scores, scores)
                assert np.array_equal(ev.outside, np.flatnonzero(~inside))
                assert np.isnan(ev.value[~inside]).all()
                assert np.array_equal(ev.value[inside], spec.value_many(rows[inside], t))
                for call, row_path in ((ev.gradient, spec.grad_many),
                                       (ev.inside_value, spec.value_many)):
                    with pytest.raises(ConeDomainError) as exc:
                        call()
                    with pytest.raises(ConeDomainError) as expected:
                        row_path(rows, t)
                    assert str(exc.value) == str(expected.value)
                    assert exc.value.min_score == expected.value.min_score

                ev = spec.radial_eval(t, a[inside], s[inside])
                g = spec.grad_many(rows[inside], t)
                grad_axis, grad_sphere = ev.gradient()
                assert np.array_equal(ev.scores, scores[inside])
                assert ev.outside.size == 0
                assert np.array_equal(ev.inside_value(), spec.value_many(rows[inside], t))
                assert np.array_equal(grad_axis, g[:, 0])
                assert np.array_equal(grad_sphere, row_sum_in_order(g[:, 1:]))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_gradient_matches_the_two_pass_form(self, n):
        # the gradient reads the rows of the cut and e_k (e_l) that the
        # kernel's pass held, and matches the two passes it used to make, bit
        # for bit; t is a number or one per row (the radial form of the row
        # path's (m, 1) column)
        rng = np.random.default_rng(200 + n)
        du = rng.uniform(-0.8, 0.8, 300)
        d2u = rng.uniform(-0.5, 3.0, 300)
        a, s = radial_w_eigenvalues(du, d2u)
        outside_seen = 0
        for spec in all_specs(n):
            for t in (0.0, 0.37, 1.0, rng.uniform(0.0, 1.0, 300)):
                ev = spec.radial_eval(t, a, s)
                if ev.outside.size:
                    outside_seen += 1
                    with pytest.raises(ConeDomainError) as exc:
                        ev.gradient()
                    with pytest.raises(ConeDomainError) as expected:
                        radial_gradient_by_two_passes(spec, t, a, s)
                    assert str(exc.value) == str(expected.value)
                    assert exc.value.min_score == expected.value.min_score
                inside = np.setdiff1d(np.arange(300), ev.outside)
                t_in = t if np.ndim(t) == 0 else t[inside]
                grad = spec.radial_eval(t_in, a[inside], s[inside]).gradient()
                expected = radial_gradient_by_two_passes(spec, t_in, a[inside], s[inside])
                for got, want in zip(grad, expected):
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))
        assert outside_seen

    @pytest.mark.parametrize("n", range(3, 10))
    def test_radial_columns_match_the_row_recurrence(self, n):
        # _esp skips the rows that are still zero; on the radial columns of
        # finite entries, signed zeros included, it stays bit-identical to
        # itself on the rows and to the full recurrence
        rng = np.random.default_rng(100 + n)
        a, s = rng.standard_normal(64), rng.standard_normal(64)
        a[:3], s[1:4] = -0.0, -0.0
        rows = np.column_stack([a] + [s] * (n - 1))
        for kmax in range(n + 1):
            e = _esp((a, *[s] * (n - 1)), kmax)
            for expected in (_esp(rows.T, kmax), _oracle_rows(rows, kmax)):
                assert np.array_equal(e, expected)
                assert np.array_equal(np.signbit(e), np.signbit(expected))

    @pytest.mark.parametrize("n", range(3, 10))
    def test_every_batch_takes_the_stacked_pass(self, n, spy):
        # all entries positive, one negative row, or signed zeros, NaN and
        # inf: the pass always runs on the stacked (a, |a|) columns, 2m
        # wide.  The scores and the rows outside match the frozen stacked
        # pass on every row, and the ESP rows, f_t and the gradient on the
        # rows inside, bit for bit; the row sums add in order for every n,
        # 8 and up included
        step = spy(symfun, "_esp_step")
        rng = np.random.default_rng(300 + n)
        a, s = rng.uniform(0.05, 3.0, 64), rng.uniform(0.05, 1.0, 64)
        negative = a.copy()
        negative[7] = -10.0 * n
        special_a, special_s = a.copy(), s.copy()
        special_a[:8] = 0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -0.0, 2.0
        special_s[:8] = -0.0, 0.0, 1.0, 1.0, 1.0, np.nan, -0.0, np.inf
        batches = {"positive": (a, s), "one negative row": (negative, s),
                   "zeros, NaN, inf": (special_a, special_s)}
        for spec, t, (name, (x, y)) in itertools.product(all_specs(n), (0.0, 0.3, 0.99, 1.0),
                                                         batches.items()):
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                step.reset_mock()
                ev = spec.radial_eval(t, x, y)
                _, col, first = step.call_args_list[0].args
                assert col == 0 and first.size == 128
                want = radial_eval_by_stacked_pass(spec, t, x, y)
                rows = np.column_stack([x] + [y] * (n - 1))
                for scores in (want["scores"], spec.margin_scores(rows, t)):
                    assert np.array_equal(ev.scores, scores, equal_nan=True)
                assert np.array_equal(ev.outside, want["outside"])
                assert np.array_equal(ev.sphere, want["sphere"], equal_nan=True)
                inside = np.setdiff1d(np.arange(64), ev.outside)
                assert inside.size
                for field in ("value", "e_k", "cut_k", "e_l", "cut_l"):
                    got, wanted = getattr(ev, field), want[field]
                    if wanted is None:
                        assert got is None
                        continue
                    assert np.array_equal(got[inside], wanted[inside])
                    assert np.array_equal(np.signbit(got[inside]), np.signbit(wanted[inside]))
                assert np.isnan(ev.value[ev.outside]).all()
                grad = spec.radial_eval(t, x[inside], y[inside]).gradient()
                expected = radial_gradient_by_two_passes(spec, t, x[inside], y[inside])
                g = spec.grad_many(rows[inside], t)
                for got, wanted, row_path in zip(grad, expected, (g[:, 0], row_sum_in_order(g[:, 1:]))):
                    assert np.array_equal(got, wanted)
                    assert np.array_equal(np.signbit(got), np.signbit(wanted))
                    assert np.array_equal(got, row_path)

    def test_one_esp_pass_for_scores_and_values(self, spy):
        # (a, s) and (|a|, |s|) go through one recurrence stacked, whose
        # first n - 1 steps are the sphere slot's cut; the gradient adds
        # only the pass over the tuple without the axis slot.  A pass is
        # told by the entries its steps take in, the columns 0, 1, ...
        step = spy(symfun, "_esp_step")
        a, s = radial_w_eigenvalues(np.linspace(-0.5, 0.5, 50), np.full(50, 1.0))
        for spec in (S24, SymFuncSpec("quotient", n=4, k=3, l=1)):
            step.reset_mock()
            ev = spec.radial_eval(0.5, a, s)
            assert ev.outside.size == 0
            assert [call.args[1] for call in step.call_args_list] == [0, 1, 2, 3]
            ev.gradient()
            assert [call.args[1] for call in step.call_args_list] == [0, 1, 2, 3, 0, 1, 2]

    def test_evaluation_holds_only_vector_copies(self):
        # an evaluation holds (m,) arrays of its own and the indices of the
        # rows outside, so it keeps no stacked (k, 2m) ESP array alive
        du = np.linspace(-0.5, 0.5, 50)
        du[[3, 17]] = 1.5, np.nan
        a, s = radial_w_eigenvalues(du, np.full(50, 1.0))
        for spec in (SymFuncSpec("sigma_k_root", n=5, k=3), SymFuncSpec("quotient", n=5, k=4, l=2)):
            ev = spec.radial_eval(0.5, a, s)
            assert ev._fields == ("spec", "t", "scores", "outside", "value", "sphere",
                                  "e_k", "cut_k", "e_l", "cut_l")
            vectors = [ev.scores, ev.value, ev.sphere, ev.e_k, ev.cut_k]
            if spec.kind == "quotient":
                vectors += [ev.e_l, ev.cut_l]
            else:
                assert ev.e_l is None and ev.cut_l is None
            for v in vectors:
                assert v.shape == (50,) and v.base is None
            assert ev.outside.tolist() == [3, 17] and ev.outside.base.size == 2

    def test_kernel_ignores_slot_order(self):
        # f_t is symmetric: the axis value may sit in any slot of the row
        rng = np.random.default_rng(31)
        du = rng.uniform(-0.5, 0.5, 200)
        d2u = rng.uniform(0.5, 3.0, 200)
        a, s = radial_w_eigenvalues(du, d2u)
        rows = np.column_stack([s, s, a, s, s])
        for spec in (SymFuncSpec("sigma_k_root", n=5, k=3), SymFuncSpec("quotient", n=5, k=4, l=2)):
            for t in (0.2, 1.0):
                ev = spec.radial_eval(t, a, s)
                grad_axis, grad_sphere = ev.gradient()
                g = spec.grad_many(rows, t)
                assert np.allclose(ev.value, spec.value_many(rows, t), rtol=1e-13, atol=0)
                assert np.allclose(grad_axis, g[:, 2], rtol=1e-12, atol=0)
                assert np.allclose(grad_sphere, g.sum(axis=1) - g[:, 2], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [*range(2, 40), 127, 128, 129, 200, 517])
    def test_row_sum_and_t_map_add_in_order(self, n):
        # both paths of the t-map sum a tuple's entries left to right, then
        # add 0.0: on general rows (_t_map) and on the radial columns
        # (head, tail, ..., tail) alike, so a row of signed zeros sums to +0.0
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((50, n)) * 10.0 ** rng.uniform(-5, 5, (50, n))
        rows[0] = -0.0
        head, tail = rows[:, 0].copy(), rows[:, 1].copy()
        radial = np.column_stack([head] + [tail] * (n - 1))
        for total, wanted in ((_row_sum(rows.T), row_sum_in_order(rows)),
                              (_row_sum((head, *[tail] * (n - 1))), row_sum_in_order(radial)),
                              (_row_sum([tail] * n), row_sum_in_order(np.column_stack([tail] * n)))):
            assert np.array_equal(total, wanted)
            assert np.array_equal(np.signbit(total), np.signbit(wanted))
            assert total[0] == 0.0 and not np.signbit(total[0])
        for t in (0.0, 0.3, 1.0, rng.uniform(0.0, 1.0, (50, 1))):
            mapped, wanted = _t_map(t, rows), t * rows + (1.0 - t) * row_sum_in_order(rows)[:, None]
            assert np.array_equal(mapped, wanted)
            assert np.array_equal(np.signbit(mapped), np.signbit(wanted))


class TestSuiteCallCounts:
    """The structure suites evaluate in batches: one cone test per sampling
    round and per bisection step, not per sample or per ray."""

    def test_separation_suite(self, spy):
        scores = spy(SymFuncSpec, "margin_scores")
        counts = []
        for samples in (500, 5000):
            scores.reset_mock()
            concavity_margin_suite(S23, samples=samples, beta=0.2, seed=0)
            counts.append(scores.call_count)
        # only the number of sampling rounds grows, like log(samples)
        assert counts[1] < 3 * counts[0]
        assert counts[1] < 5000 // 10

    def test_verify_structure(self, spy):
        scores = spy(SymFuncSpec, "margin_scores")
        counts = []
        for samples in (200, 2000):
            scores.reset_mock()
            verify_structure(S24, sample_count=samples, seed=0)
            counts.append(scores.call_count)
        # flat up to the cone sampler's rejection rounds; the decay check's
        # 64 rays bisect in lockstep, three steps per call (at most 34
        # calls, not 6400)
        assert counts[1] < counts[0] + 20
        assert counts[0] < 400

    def test_verify_structure_tests_each_sample_batch_once(self, spy):
        # one cone pass on the samples (f and Df), the midpoints, the scaled
        # samples and the five t-maps of the f5 row below t = 1; the midpoint
        # row reads the permuted samples' values off the first pass, and f5
        # its t = 1 gradients; one gradient pass for Df and each t-map
        cone_scores, removed = spy(symfun, "_cone_scores"), spy(symfun, "_esp_removed")
        verify_structure(S24, sample_count=200, seed=0)
        shapes = [call.args[0].shape for call in cone_scores.call_args_list]
        assert shapes.count((200, 4)) == 8
        assert removed.call_count == 6


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind 'sigma_k'"):
            SymFuncSpec("sigma_k", n=4, k=2)

    def test_dimension_at_least_three(self):
        with pytest.raises(ValueError, match="dimension must be at least 3"):
            SymFuncSpec("sigma_k_root", n=2, k=1)

    def test_quotient_requires_l(self):
        with pytest.raises(ValueError):
            SymFuncSpec("quotient", n=4, k=2)

    def test_k_range(self):
        with pytest.raises(ValueError):
            SymFuncSpec("sigma_k_root", n=4, k=5)

    def test_root_rejects_l(self):
        with pytest.raises(ValueError):
            SymFuncSpec("sigma_k_root", n=4, k=2, l=1)

    def test_sampling_stalls_on_an_empty_cone(self):
        # every candidate scores 0, so no round of draws keeps one
        stub = SimpleNamespace(n=3, label="stub", margin_scores=lambda cand: np.zeros(len(cand)))
        with pytest.raises(NumericalError, match="stub: cone sampling stalled"):
            sample_cone(stub, 1, np.random.default_rng(0))
