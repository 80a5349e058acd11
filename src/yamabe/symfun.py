"""Symmetric concave functions on Garding cones and their interpolation family.

The building blocks are the elementary symmetric polynomials

    sigma_j(lam) = sum over all j-element subsets of products of the entries,

the cones Gamma_k = {lam in R^n : sigma_j(lam) > 0 for all j <= k}, and two
classical degree-one concave families defined on Gamma_k:

* ``sigma_k_root``   f(lam) = sigma_k(lam)^(1/k),
* ``quotient``       f(lam) = (sigma_k(lam)/sigma_l(lam))^(1/(k-l)), l < k.

For t in [0, 1] the interpolated family

    f_t(lam)  = f(t*lam + (1-t)*sigma_1(lam)*e),   e = (1, ..., 1),
    Gamma_t   = {lam : t*lam + (1-t)*sigma_1(lam)*e in Gamma},

connects the semilinear trace equation (t = 0, where f_0 = sigma_1 * f(e)) to
the fully nonlinear one (t = 1).  Everything here is a pure function of its
inputs; the spec objects are frozen and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._errors import ConeDomainError, NumericalError

__all__ = [
    "CONE_MARGIN",
    "DEFAULT_BALL_T_VALUES",
    "SymFuncSpec",
    "Classification",
    "CheckResult",
    "RadialEvaluation",
    "sigma",
    "matrix_value_and_derivative",
    "classify_type",
    "concavity_margin",
    "concavity_margin_many",
    "concavity_margin_suite",
    "interpolation_ball_report",
    "verify_structure",
    "check_suite_inputs",
    "sample_cone",
]


# a tuple is inside the cone when its margin score exceeds this
CONE_MARGIN = 1e-12


# ---------------------------------------------------------------------------
# elementary symmetric polynomials
# ---------------------------------------------------------------------------

def _as_batch(lam, single=False):
    """lam as an (m, n) array; a single vector becomes one row, and with
    `single` it is the only form accepted."""
    v = np.asarray(lam, dtype=float)
    if v.ndim == 1:
        return v[None, :]
    if single or v.ndim != 2:
        wanted = "one tuple" if single else "a vector or a stack of vectors"
        raise ValueError(f"expected {wanted}, got shape {v.shape}")
    return v


def _esp(columns, kmax):
    """The elementary symmetric polynomials e_1..e_kmax of m tuples at once.

    columns: the entries of the tuples in order, as n vectors of length m
    (the rows of an (n, m) array, best C-ordered so that each is contiguous,
    or a sequence such as the radial (a, s, ..., s)); returns a C-ordered
    (kmax, m) array whose row j - 1 is e_j.  e_0 = 1 is not stored: read
    e_j through `_row_copy`, which gives ones for j = 0.  Uses the standard
    one-pass recurrence e_j <- e_j + x * e_{j-1} over the entries in order,
    each step on contiguous rows of length m (`_esp_step`); it is exact in
    exact arithmetic and stable for the small n used here.
    """
    # an array knows m even with no entries (the empty tuple has e_0 = 1)
    m = columns.shape[1] if isinstance(columns, np.ndarray) else len(columns[0])
    out = np.zeros((kmax, m))
    for col, x in enumerate(columns if kmax else ()):
        _esp_step(out, col, x)
    return out


def _esp_step(out, col, x):
    """One step of `_esp` in place: x, entry col of the tuples, enters the
    (kmax, m) array out of e_1..e_kmax.  Before it, e_j is zero for
    j > col + 1, so the step skips those rows (on finite entries no bit
    changes); rows 2 and up are updated first, from the old rows, and e_1
    gains x, which is x * e_0 exactly."""
    top = min(col + 1, out.shape[0])
    if top > 1:
        out[1:top] += x * out[:top - 1]
    out[0] += x


def _row_copy(e, j):
    """e_j from the `_esp` array e (or a view of it), as an array of its
    own shaped like one of its rows: a copy of row j - 1, ones for e_0 = 1."""
    return e[j - 1].copy() if j else np.ones(e.shape[1:])


def _esp_removed(values, kmax):
    """e_1..e_kmax of the rows of (m, n) values with one entry removed, as a
    (kmax, n, m) array: slot [j - 1, i, r] is e_j of row r without entry i.

    One `_esp` pass runs over the n reduced tuples of every row, stacked
    along the contiguous row axis, so each slot is bit-identical to `_esp`
    of the reduced tuple.
    """
    m, n = values.shape
    p = np.arange(n - 1)[:, None]
    # entry p of the tuple without entry i is entry p + (p >= i) of the tuple
    columns = values.T[p + (p >= np.arange(n))].reshape(n - 1, n * m)
    return _esp(columns, kmax).reshape(kmax, n, m)


def sigma(lam, k):
    """k-th elementary symmetric polynomial of the entries of lam (sigma_0 = 1)."""
    v = _as_batch(lam, single=True)
    n = v.shape[1]
    if not 0 <= k <= n:
        raise ValueError(f"order k={k} out of range for n={n}")
    return float(_row_copy(_esp(v.T, k), k)[0])


def _cone_scores(values, order):
    """min over j <= order of sigma_j(lam) / sigma_j(|lam|), per row of (m, n),
    and the ESP vectors e_1..e_order of the rows as an (order, m) array.

    Zero rows score -inf (see _scores); rows with a vanishing
    sigma_j(|lam|) (fewer than j entries off zero) score at most zero.
    One `_esp` pass runs over the entries of the rows beside their
    absolute values (`_with_abs`).
    """
    m = values.shape[0]
    both = _esp(_with_abs(values.T), order)
    return _scores(both[:, :m], both[:, m:]), both[:, :m]


def _with_abs(columns):
    """The (n, m) columns in the left half of one C-ordered (n, 2m) array
    and their absolute values in its right, so that every column the
    `_esp` recurrence reads is contiguous."""
    n, m = columns.shape
    both = np.empty((n, 2 * m))
    both[:, :m] = columns
    np.abs(columns, out=both[:, m:])
    return both


# the floor of the score denominators sigma_j(|lam|)
_TINY = np.finfo(float).tiny


def _scores(e, scale):
    """The scores of `_cone_scores` from the (order, m) rows e_1..e_order of
    m tuples and of their absolute values.

    The zero tuple lies in no open cone and scores -inf.  scale[0] is
    sigma_1(|lam|), a sum of absolute values, so it is zero exactly on the
    zero tuples; on a row with a NaN entry it is NaN, not zero, and the row
    keeps the NaN its ratios carry.  The min over j is folded into +inf,
    and min(+inf, r) is r bit for bit, so signed zeros and NaN keep their
    bits (np.minimum.reduce returns a NaN without its sign).
    """
    scores = np.full(e.shape[1], np.inf)
    for ratio in e / np.maximum(scale, _TINY):
        np.minimum(scores, ratio, out=scores)
    scores[scale[0] == 0.0] = -np.inf
    return scores


# ---------------------------------------------------------------------------
# the radial tuples (a, s, ..., s)
# ---------------------------------------------------------------------------

def _row_sum(columns):
    """The sums of m tuples whose entries are the (m,) vectors of columns
    (or the rows of an (n, m) array): the entries added left to right, then
    0.0, so a sum of signed zeros is +0.0.  It is the one row sum of symfun:
    the t-map's, on the rows (`_t_map`) and the radial tuples alike, and the
    structure suites' (`_row_norm` too), so no result depends on numpy's
    summation order or memory layout.  An in-order sum of n entries is off
    by at most gamma_(n-1) = (n - 1) u / (1 - (n - 1) u) times the sum of
    their absolute values, u = eps / 2 (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 4); adding 0.0 is exact."""
    total = columns[0]
    for x in columns[1:]:
        total = total + x
    return total + 0.0


def _row_norm(rows):
    """The Euclidean norm of each row of an (m, n) array, by `_row_sum`."""
    return np.sqrt(_row_sum((rows * rows).T))


class RadialEvaluation(NamedTuple):
    """What one `SymFuncSpec.radial_eval` pass found: the margin scores, the
    indices of the rows outside the cone, f_t (NaN on those rows), the
    t-mapped sphere vector and the ESP rows the gradient reads, each an
    (m,) array of its own: e_k (and e_l) of the t-mapped tuple, and
    e_{k-1} (and e_{l-1}) of its cut, the tuple without one sphere slot;
    e_l and cut_l are None for roots.  "rows" below are the (m, n) tuples
    (a, s, ..., s) before the t-map."""

    spec: SymFuncSpec
    t: float
    scores: np.ndarray
    outside: np.ndarray
    value: np.ndarray
    sphere: np.ndarray
    e_k: np.ndarray
    cut_k: np.ndarray
    e_l: np.ndarray | None
    cut_l: np.ndarray | None

    def inside_value(self):
        """f_t, when every row is inside the cone; else the ConeDomainError of
        value_many(rows, t)."""
        self.spec._require_scores_inside(self.scores, self.outside)
        return self.value

    def gradient(self):
        """The axis slot of Df_t = grad_many(rows, t) and the sum of its n - 1
        sphere slots; outside the cone raises its ConeDomainError.

        d sigma_j is e_{j-1} of the tuple without that slot: of the cut for a
        sphere slot, and of rest = (s, ..., s) of length n - 1 for the axis
        slot, the one `_esp` pass made here.  The chain rule through the
        t-map sums the slots with `_row_sum`, as `_t_map` does on the rows.
        """
        spec, t, f, s = self.spec, self.t, self.inside_value(), self.sphere
        n, k, l = spec.n, spec.k, spec.l
        rest = _esp([s] * (n - 1), k - 1)
        rest_l = None if l is None else _row_copy(rest, l - 1)
        g_a = spec._grad_of(f, _row_copy(rest, k - 1), self.e_k, rest_l, self.e_l)
        g_s = spec._grad_of(f, self.cut_k, self.e_k, self.cut_l, self.e_l)
        shift = (1.0 - t) * _row_sum((g_a, *[g_s] * (n - 1)))
        g_s = t * g_s + shift
        return t * g_a + shift, _row_sum([g_s] * (n - 1))


# ---------------------------------------------------------------------------
# the two classical families and their interpolation
# ---------------------------------------------------------------------------

def _t_map(t, v):
    """Rows of v sent to t*lam + (1-t)*sigma_1(lam)*e, sigma_1 by `_row_sum`;
    t is a scalar or an (m, 1) column.  The map is symmetric, so it also
    carries gradients back (the chain rule)."""
    return t * v + (1.0 - t) * _row_sum(v.T)[:, None]


@dataclass(frozen=True)
class SymFuncSpec:
    """A concrete (f, Gamma_k) pair and its interpolation family f_t.

    kind is "sigma_k_root" (f = sigma_k^(1/k)) or "quotient"
    (f = (sigma_k/sigma_l)^(1/(k-l)) with 1 <= l < k).  Both live on Gamma_k.
    Membership uses a relative strictness margin: lam is accepted when
    sigma_j(lam) > CONE_MARGIN * sigma_j(|lam|) for every j <= k, that is
    when its margin score exceeds `margin`.  The comparison scale sigma_j of
    the absolute values bounds the attainable magnitude of sigma_j tightly
    even for very anisotropic tuples, keeps the test scale invariant and
    avoids boundary flapping inside line searches.
    """

    kind: str
    n: int
    k: int
    l: int | None = None

    margin = CONE_MARGIN

    def __post_init__(self):
        if self.kind not in ("sigma_k_root", "quotient"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.n < 3:
            raise ValueError("dimension must be at least 3")
        if self.k is None:
            raise ValueError("k is required")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k={self.k} out of range for n={self.n}")
        if self.kind == "quotient":
            if self.l is None or not 1 <= self.l < self.k:
                raise ValueError("quotient requires 1 <= l < k")
        elif self.l is not None:
            raise ValueError("l is only meaningful for the quotient kind")

    @property
    def label(self):
        if self.kind == "sigma_k_root":
            return f"sigma_{self.k}_root(n={self.n})"
        return f"quotient({self.k},{self.l})(n={self.n})"

    @property
    def degree(self):
        """The degree of the polynomial f is the root of: k for roots, k - l
        for quotients."""
        return self.k if self.kind == "sigma_k_root" else self.k - self.l

    def f_at_ones(self):
        """f(e); equals C(n,k)^(1/k) for roots, (C(n,k)/C(n,l))^(1/(k-l)) for quotients."""
        if self.kind == "sigma_k_root":
            return math.comb(self.n, self.k) ** (1.0 / self.k)
        ratio = math.comb(self.n, self.k) / math.comb(self.n, self.l)
        return ratio ** (1.0 / (self.k - self.l))

    def _validated(self, lam, single=False, t=None):
        """lam as (m, n) rows (see _as_batch) of length n, sent through the
        t-map when t is given: the one shape check and the one t-map of each
        public entry point."""
        v = _as_batch(lam, single)
        if v.shape[1] != self.n:
            raise ValueError(f"expected tuples of length {self.n}, got {v.shape[1]}")
        return v if t is None else _t_map(t, v)

    # -- membership and evaluation ------------------------------------------------
    #
    # Each method evaluates f for t=None and f_t for t given, a number or an
    # (m, 1) column (see _t_map).

    def margin_scores(self, values, t=None):
        """min over j <= k of sigma_j(lam) / sigma_j(|lam|), per row (see _cone_scores)."""
        return _cone_scores(self._validated(values, t=t), self.k)[0]

    def _outside(self, scores):
        """The cone test: rows whose score is not above the margin, NaN included."""
        return np.where(~(scores > self.margin))[0]

    def _require_scores_inside(self, scores, bad):
        """Raise ConeDomainError naming the first of the `_outside` rows bad."""
        if bad.size:
            raise ConeDomainError(
                f"{self.label}: tuple outside the cone "
                f"(first offender index {bad[0]}, margin score {scores[bad[0]]:.3e})",
                min_score=float(scores.min()),
            )

    def contains(self, lam, t=None):
        scores = _cone_scores(self._validated(lam, True, t), self.k)[0]
        return self._outside(scores).size == 0

    def value(self, lam, t=None):
        return float(self._value_from(self._inside_esp(self._validated(lam, True, t)))[0])

    def grad(self, lam, t=None):
        return self.value_and_grad_many(_as_batch(lam, single=True), t)[1][0]

    def value_many(self, values, t=None):
        return self._value_from(self._inside_esp(self._validated(values, t=t)))

    def grad_many(self, values, t=None):
        return self.value_and_grad_many(values, t)[1]

    def value_and_grad_many(self, values, t=None):
        """(value_many, grad_many) of the rows, from one pass of each ESP
        kernel; with t, Df is carried back through the t-map."""
        values = self._validated(values, t=t)
        e = self._inside_esp(values)
        # d sigma_j is e_{j-1} of the reduced tuples: one pass serves k and l
        k, l = self.k, self.l
        removed = _esp_removed(values, k - 1)
        gl, el = (None, None) if l is None else (_row_copy(removed, l - 1).T, e[l - 1][:, None])
        f = self._value_from(e)
        g = self._grad_of(f[:, None], _row_copy(removed, k - 1).T, e[k - 1][:, None], gl, el)
        return f, g if t is None else _t_map(t, g)

    def _inside_esp(self, values):
        """e_1..e_k of the (m, n) rows, after their cone test."""
        scores, e = _cone_scores(values, self.k)
        self._require_scores_inside(scores, self._outside(scores))
        return e

    def _value_from(self, e):
        """f from the ESP vectors e_1..e_k of the tuples."""
        return self._value_of(e[self.k - 1], None if self.l is None else e[self.l - 1])

    def _value_of(self, e_k, e_l):
        """f from e_k (and e_l, None for roots) of the tuples."""
        if self.kind == "sigma_k_root":
            return e_k ** (1.0 / self.k)
        return (e_k / e_l) ** (1.0 / (self.k - self.l))

    def _grad_of(self, f, d_k, e_k, d_l, e_l):
        """Df from f, e_k (and e_l) of the tuples and d_k (and d_l), the
        matching entries of d sigma_k (and d sigma_l); d_l and e_l are None
        for roots.  f is the `degree`-th root of sigma_k (over sigma_l), so
        Df is f / degree times d_k / e_k (minus d_l / e_l)."""
        if self.kind == "sigma_k_root":
            return (f / self.k) * d_k / e_k
        return (f / (self.k - self.l)) * (d_k / e_k - d_l / e_l)

    # -- the radial kernel -------------------------------------------------------

    def radial_eval(self, t, a, s):
        """Cone scores and f_t on the radial tuples (a, s, ..., s), as a
        RadialEvaluation whose `gradient()` gives Df_t.

        a and s are (m,) vectors of axis and sphere eigenvalues (see
        geometry.radial_w_eigenvalues); s fills the n - 1 sphere slots.  The
        cone test is made here, once: callers read its `outside` rows.

        One `_esp` pass over the t-mapped columns (a, s, ..., s) beside
        their absolute values, stacked by `_with_abs` as `_cone_scores`
        stacks the rows, serves the scores and f_t.  Before its last step,
        the pass holds e_j of the cut (a, s, ..., s) of length n - 1, and
        the rows the gradient reads are copied then.  Each result, the
        gradient's too, repeats the additions and multiplications of
        margin_scores, value_many and grad_many(rows, t) on the (m, n) rows
        (a, s, ..., s) in their order, the t-map's row sums included
        (_row_sum), so it is bit-identical to them inside the cone.
        """
        n, k, l = self.n, self.k, self.l
        a = np.asarray(a, dtype=float)
        s = np.asarray(s, dtype=float)
        m = a.shape[0]
        shift = (1.0 - t) * _row_sum((a, *[s] * (n - 1)))
        lead, other = _with_abs(t * np.array((a, s)) + shift)
        rows = _esp((lead, *[other] * (n - 2)), k)
        head = rows[:, :m]      # a view: the signed tuples, after each step
        cut_k = _row_copy(head, k - 1)
        cut_l = None if l is None else _row_copy(head, l - 1)
        _esp_step(rows, n - 1, other)
        scores = _scores(head, rows[:, m:])
        outside = self._outside(scores)
        e_k = _row_copy(head, k)
        e_l = None if l is None else _row_copy(head, l)
        # only rows outside the cone can warn, and they are set to NaN
        with np.errstate(invalid="ignore", divide="ignore"):
            value = self._value_of(e_k, e_l)
        value[outside] = np.nan
        return RadialEvaluation(self, t, scores, outside, value, other[:m].copy(),
                                e_k, cut_k, e_l, cut_l)


# ---------------------------------------------------------------------------
# classification: cone type and growth type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    cone_type: int          # 1: positive axes on the cone boundary, 2: inside
    f_type: str             # "bounded" or "unbounded" growth in the last slot


def classify_type(spec):
    """Classify the cone and the growth type of f, with a numeric cross-check."""
    n = spec.n
    axis_probe = np.full(n, -1e-3)
    axis_probe[-1] = 1.0
    cone_type = 2 if spec.contains(axis_probe) else 1
    expected_type = 2 if spec.k == 1 else 1
    if cone_type != expected_type:
        raise NumericalError(f"{spec.label}: cone type probe disagrees with the cone order")

    # f(1, ..., 1, x) grows like x^(1/k) for roots, at least x^(1/n), and
    # tends to a limit for quotients; the exponent read off two probes six
    # decades apart tells them apart
    lam_p = np.ones(n - 1)
    lo = spec.value(np.append(lam_p, 1e6))
    hi = spec.value(np.append(lam_p, 1e12))
    numeric_unbounded = math.log(hi / lo) / math.log(1e6) > 1.0 / (2 * n)
    closed_form_unbounded = spec.kind != "quotient"
    if numeric_unbounded != closed_form_unbounded:
        raise NumericalError(f"{spec.label}: growth probe disagrees with the closed form")
    f_type = "unbounded" if closed_form_unbounded else "bounded"
    return Classification(cone_type=cone_type, f_type=f_type)


# ---------------------------------------------------------------------------
# spectral evaluation on symmetric matrices
# ---------------------------------------------------------------------------

def matrix_value_and_derivative(spec, t, w):
    """Evaluate F_t(W) = f_t(eigenvalues of W) and its matrix derivative.

    The derivative dF_t/dW is Q diag(Df_t(lam)) Q^T for an eigendecomposition
    W = Q diag(lam) Q^T; gradient entries are averaged over groups of equal
    eigenvalues, where symmetry of f makes them coincide, so the result does
    not depend on the eigenvector choice inside degenerate blocks.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(w, w.T, atol=1e-12 * max(1.0, np.abs(w).max())):
        raise ValueError("expected a symmetric matrix")
    lam, q = np.linalg.eigh(w)
    try:
        value, g = spec.value_and_grad_many(lam, t)
    except ConeDomainError:
        raise ConeDomainError("matrix spectrum outside the interpolated cone") from None
    value, g = float(value[0]), g[0]

    scale = max(1.0, float(np.abs(lam).max()))
    start = 0
    for i in range(1, lam.size + 1):
        if i == lam.size or lam[i] - lam[start] > 1e-12 * scale:
            g[start:i] = g[start:i].mean()
            start = i

    deriv = (q * g) @ q.T
    return value, 0.5 * (deriv + deriv.T)


# ---------------------------------------------------------------------------
# randomized structure verification
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    """One pass/fail row of a check: the worst value met and the threshold
    it was held against.  These are the rows of `report.json`."""

    name: str
    passed: bool
    worst: float
    threshold: float


def check_suite_inputs(sample_count=None, t_values=None, directions=None, samples=None,
                       beta=None):
    """Raise ValueError naming the first input of the structure suites out
    of its range; an input left None is not checked.  `verify_structure`
    passes sample_count, `interpolation_ball_report` t_values and
    directions, `concavity_margin_suite` samples and beta."""
    for name, count in (("sample_count", sample_count), ("directions", directions),
                        ("samples", samples)):
        if count is not None and count < 1:
            raise ValueError(f"{name} must be positive, got {count}")
    # the ball of radius (1-t)/(2n) exists only for t < 1
    if t_values is not None and not (len(t_values) and all(0.0 <= t < 1.0 for t in t_values)):
        raise ValueError(f"t_values must be non-empty and lie in [0, 1), got {list(t_values)}")
    # positive gradients have unit normals in the positive orthant, less
    # than sqrt(2) apart: from sqrt(2) on no pair would count
    if beta is not None and not 0.0 <= beta < math.sqrt(2.0):
        raise ValueError(f"beta must lie in [0, sqrt(2)), got {beta}")


def sample_cone(spec, count, rng, scale_low=-1.0, scale_high=1.0):
    """Rejection-sample `count` points of the cone, spread over magnitudes."""
    n = spec.n
    out = np.empty((count, n))
    have = 0
    tries = 0
    while have < count:
        tries += 1
        if tries > 2000:
            raise NumericalError(f"{spec.label}: cone sampling stalled")
        m = max(64, 2 * (count - have))
        shift = rng.uniform(0.3, 1.5, size=(m, 1))
        spread = rng.uniform(0.1, 1.0, size=(m, 1))
        cand = shift + spread * rng.standard_normal((m, n))
        keep = cand[spec.margin_scores(cand) > 1e-10]
        take = keep[: count - have]
        out[have:have + take.shape[0]] = take
        have += take.shape[0]
    out *= 10.0 ** rng.uniform(scale_low, scale_high, size=(count, 1))
    return out


# rays per round of the decay check's direction search (one draw in 5 to 20
# stays inside the cone)
_DECAY_ROUND = 8

# bisection steps per cone call of the decay check: each call tests the
# 2^L - 1 midpoints the next L steps can reach; on 64 rays the bisection
# took 5.8, 4.9, 4.6, 4.7 and 5.4 ms with L = 1..5
_BISECT_LEVELS = 3

# the decay check's bisection stops at its fixed point or after this many steps
_BISECT_STEPS = 100


def _boundary_decay_check(spec, samples, rng):
    """f must vanish continuously on the cone boundary along straight rays,
    the rays from 64 of the samples (all of them, when there are fewer)."""
    fractions = np.array([1e-2, 1e-4, 1e-6])[:, None, None]
    pts = samples[rng.choice(samples.shape[0], size=min(64, samples.shape[0]), replace=False)]
    count, n = pts.shape
    # a ray's 60 doublings of its reach test in the same call
    reach = np.maximum(1.0, np.abs(pts).max(axis=1))[:, None] * 2.0 ** np.arange(60)
    directions = np.empty_like(pts)
    hi = np.empty(count)
    first = tries = 0
    while first < count:
        # Directions are drawn ray by ray until one leaves the cone.  A round
        # draws one for each of the next _DECAY_ROUND pending rays as if each
        # exits; the rays up to the first that does not are kept, with the
        # draws they used, and the generator restarts after that ray's draw.
        state = rng.bit_generator.state
        drawn = rng.standard_normal((min(count - first, _DECAY_ROUND), n))
        for direction in drawn:
            direction /= math.sqrt(direction.dot(direction))
        window = slice(first, first + len(drawn))
        probes = pts[window, None, :] + reach[window, :, None] * drawn[:, None, :]
        outside = (spec.margin_scores(probes.reshape(-1, n)) <= 0.0).reshape(len(drawn), -1)
        exits = outside.any(axis=1)
        kept = len(drawn) if exits.all() else int(np.argmin(exits))
        rows = slice(first, first + kept)
        directions[rows] = drawn[:kept]
        hi[rows] = reach[rows][np.arange(kept), outside[:kept].argmax(axis=1)]
        first += kept
        tries = tries if kept == 0 else 0     # failed draws of ray `first`
        if kept < len(drawn):
            rng.bit_generator.state = state
            rng.standard_normal((kept + 1, n))
            tries += 1
            if tries == 40:
                raise NumericalError("could not find an exiting ray for the decay check")
    lo, hi = _bisect_exits(spec, pts, directions, hi)
    boundary = pts + (0.5 * (lo + hi))[:, None] * directions
    probes = pts + (1.0 - fractions) * (boundary - pts)
    vals = spec.value_many(probes.reshape(-1, pts.shape[1])).reshape(probes.shape[:2])
    ordered = bool(np.all((vals[0] > vals[1]) & (vals[1] > vals[2])))
    return ordered, max(0.0, float((vals[2] / vals[0]).max()))


def _bisect_exits(spec, pts, directions, hi):
    """Bisect each ray pts + r * directions, r in [0, hi], towards where it
    leaves the cone, and return the ends (lo, hi) of its last step.

    The steps are those of a plain bisection, mid = 0.5 * (lo + hi) and the
    end on its side moves to it, to the fixed point (a step that moves no
    end repeats forever) or _BISECT_STEPS steps.  A cone call tests, per
    ray, the midpoint tree of the next _BISECT_LEVELS steps, built level by
    level from the same ends (node b's children 2b and 2b + 1 follow an
    inside and an outside midpoint), and a walk down it takes the steps.
    """
    count = hi.shape[0]
    rays = np.arange(count)
    lo = np.zeros_like(hi)
    step = 0
    while step < _BISECT_STEPS:
        levels = min(_BISECT_LEVELS, _BISECT_STEPS - step)
        ends_lo, ends_hi = lo[None], hi[None]
        mids = [0.5 * (ends_lo + ends_hi)]
        for _ in range(levels - 1):
            ends_lo = np.stack([mids[-1], ends_lo], axis=1).reshape(-1, count)
            ends_hi = np.stack([ends_hi, mids[-1]], axis=1).reshape(-1, count)
            mids.append(0.5 * (ends_lo + ends_hi))
        mids = np.concatenate(mids)
        probes = pts + mids[:, :, None] * directions
        inside = (spec.margin_scores(probes.reshape(-1, pts.shape[1])) > 0.0).reshape(mids.shape)
        node = np.zeros(count, dtype=np.intp)
        for level in range(levels):
            at = (1 << level) - 1 + node
            mid, ins = mids[at, rays], inside[at, rays]
            new_lo = np.where(ins, mid, lo)
            new_hi = np.where(ins, hi, mid)
            step += 1
            if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                return lo, hi
            lo, hi = new_lo, new_hi
            node = 2 * node + ~ins
    return lo, hi


def _homogeneity_row(spec, pts, hom):
    """The f4_homogeneity row of the relative gaps hom = |f(s x) - s f(x)| /
    (s f(x)) at the samples x of pts.

    Each sample's bound is max(1e-12, C eps / score), with its margin score
    and C = 5 n / degree.  sigma_j from the recurrence over the n entries
    is off by at most about (n + j) u sigma_j(|x|), u = eps / 2, and the
    rounded entries of s x add j u sigma_j(|x|): relative to sigma_j(x),
    at most (n + 2j) u / score.  So f = (sigma_k / sigma_l)^(1/degree)
    (sigma_0 = 1 for roots) at x and at s x is off by at most
    (4n + 3(k + l)) u / (degree score), plus a few u, which is below
    C eps / score as k + l < 2n.  Near the cone boundary this exceeds
    1e-12.  While every gap is within 1e-12, the row holds the largest gap
    and 1e-12, and no cone scores are computed; else it holds the sample
    with the largest ratio of gap to bound (a NaN gap first) and that
    bound.
    """
    if hom.max() <= 1e-12:
        return CheckResult("f4_homogeneity", True, float(hom.max()), 1e-12)
    c = 5.0 * spec.n / spec.degree
    bound = np.maximum(1e-12, c * np.finfo(float).eps / spec.margin_scores(pts))
    worst = int(np.argmax(hom / bound))
    return CheckResult("f4_homogeneity", bool(hom[worst] <= bound[worst]),
                       float(hom[worst]), float(bound[worst]))


def verify_structure(spec, sample_count=1000, seed=0):
    """Randomized verification of the structural conditions of (f, Gamma).

    Checks, over seeded cone samples: positivity of f and its decay towards
    the cone boundary, strict positivity of the gradient, midpoint concavity,
    degree-one homogeneity, the lower bound sum_i d_i f_t >= f(e) along a t
    grid, and the upper bound f <= sigma_1 f(e)/n.  Returns one CheckResult
    row per check; failures land in the rows, not in exceptions, and a NaN
    in a row's sample fails that row.
    """
    check_suite_inputs(sample_count=sample_count)
    rng = np.random.default_rng(seed)
    pts = sample_cone(spec, sample_count, rng)
    f_e = spec.f_at_ones()
    checks = []

    vals, grads = spec.value_and_grad_many(pts)
    checks.append(CheckResult("f1_positive", bool(vals.min() > 0.0), float(vals.min()), 0.0))

    # f vanishes like the distance to the boundary to the power 1/degree,
    # so the ratio of the probes 1e-6 and 1e-2 of the way back from it is
    # about (1e-4)^(1/degree)
    ordered, ratio = _boundary_decay_check(spec, pts, rng)
    bound = max(0.3, 1.1 * 1e-4 ** (1.0 / spec.degree))
    checks.append(CheckResult("f1_boundary_decay", bool(ordered and ratio <= bound), float(ratio), bound))

    checks.append(CheckResult("f2_gradient_positive", bool(grads.min() > 0.0), float(grads.min()), 0.0))

    perm = rng.permutation(pts.shape[0])
    mid_gap = spec.value_many(0.5 * (pts + pts[perm])) - 0.5 * (vals + vals[perm])
    checks.append(CheckResult("f3_concavity_midpoint", bool(mid_gap.min() >= -1e-10),
                              float(mid_gap.min()), -1e-10))

    s = 10.0 ** rng.uniform(-2.0, 2.0, size=pts.shape[0])
    hom = np.abs(spec.value_many(s[:, None] * pts) - s * vals) / (s * vals)
    checks.append(_homogeneity_row(spec, pts, hom))

    # the t-map at t = 1 adds +0.0 to each entry, so t = 1 reads grads;
    # np.min keeps a NaN, which fails the row
    sums = [_row_sum(spec.grad_many(pts, t).T) for t in (0.0, 0.25, 0.5, 0.75, 0.99)]
    worst_f5 = float(np.min([*sums, _row_sum(grads.T)]) - f_e)
    checks.append(CheckResult("f5_gradient_sum", bool(worst_f5 >= -1e-10), worst_f5, -1e-10))

    f6_gap = vals - _row_sum(pts.T) * f_e / spec.n
    checks.append(CheckResult("f6_linear_bound", bool(f6_gap.max() <= 1e-10),
                              float(f6_gap.max()), 1e-10))

    return checks


# ---------------------------------------------------------------------------
# ball inclusion of the interpolated cones
# ---------------------------------------------------------------------------

# the share of the guaranteed ball radius (1-t)/(2n) that the ball is probed at
_BALL_RADIUS_FRACTION = 0.99

# the t values at which interpolation_ball_report probes the ball by default
DEFAULT_BALL_T_VALUES = (0.0, 0.25, 0.5, 0.9, 0.99)


def interpolation_ball_report(spec, t_values=DEFAULT_BALL_T_VALUES, directions=1000, seed=0):
    """Check the guaranteed ball around the last coordinate axis inside Gamma_t.

    For each t the ball of radius (1-t)/(2n) about (0, ..., 0, 1) lies in
    Gamma_t, and at the extreme corner point
    lam_hat = (-(1-t)/(2n), ..., -(1-t)/(2n), 1-(1-t)/(2n)) the interpolated
    function is at least (1-t) f(e) / 2.  Probed at 0.99 of the guaranteed
    radius; the corner bound is checked with a relative slack of 1e-12
    since it is an equality at t = 0.  Returns the rows `membership` (the
    worst score of a probe over every t) and `value_bound` (the worst
    corner margin); a NaN at any t fails its row.
    """
    check_suite_inputs(t_values=t_values, directions=directions)
    rng = np.random.default_rng(seed)
    n = spec.n
    axis = np.zeros(n)
    axis[-1] = 1.0
    f_e = spec.f_at_ones()
    scores, corner_margins = [], []
    for t in t_values:
        r = _BALL_RADIUS_FRACTION * (1.0 - t) / (2.0 * n)
        vs = rng.standard_normal((directions, n))
        vs /= _row_norm(vs)[:, None]
        scores.append(float(spec.margin_scores(axis + r * vs, t).min()))
        corner = np.full(n, -(1.0 - t) / (2.0 * n))
        corner[-1] += 1.0
        corner_margins.append(float(spec.value(corner, t) - 0.5 * (1.0 - t) * f_e + 1e-12 * f_e))
    worst_score, worst_corner = float(np.min(scores)), float(np.min(corner_margins))
    return [CheckResult("membership", worst_score > 0.0, worst_score, 0.0),
            CheckResult("value_bound", worst_corner >= 0.0, worst_corner, 0.0)]


# ---------------------------------------------------------------------------
# concavity margin under separated normals
# ---------------------------------------------------------------------------

def concavity_margin(spec, t, mu, lam, beta):
    """Extra slack in the concavity inequality when level-set normals differ.

    Returns None when |nu(mu) - nu(lam)| <= beta.  Otherwise returns the
    largest eps with

        Df_t(lam) . (mu - lam) >= f_t(mu) - f_t(lam) + eps (sum_i d_i f_t(lam) + 1),

    which is positive, uniformly over mu in a compact subset of the cone.
    """
    eps = concavity_margin_many(spec, [t], mu, lam, beta)[0]
    return None if np.isnan(eps) else float(eps)


def concavity_margin_many(spec, ts, mus, lams, beta):
    """Row-wise :func:`concavity_margin` over stacks of t values, mus and lams.

    ts has one entry per row; mus and lams are (m, n).  Rows whose normals are
    within beta of each other read NaN.  Raises ConeDomainError when any mu
    lies outside the cone or any lam outside its interpolated cone.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1, 1)
    mus = spec._validated(mus)
    lams = spec._validated(lams)
    if spec._outside(spec.margin_scores(mus)).size:
        raise ConeDomainError("mu must lie in the cone")
    try:
        f_lam, g_lam = spec.value_and_grad_many(lams, ts)
    except ConeDomainError:
        raise ConeDomainError("lam must lie in the interpolated cone") from None
    f_mu, g_mu = spec.value_and_grad_many(mus, ts)
    nu_mu = g_mu / _row_norm(g_mu)[:, None]
    nu_lam = g_lam / _row_norm(g_lam)[:, None]
    separated = _row_norm(nu_mu - nu_lam) > beta
    lhs = _row_sum((g_lam * (mus - lams)).T)
    rhs = f_mu - f_lam
    eps = (lhs - rhs) / (_row_sum(g_lam.T) + 1.0)
    return np.where(separated, eps, np.nan)


def concavity_margin_suite(spec, samples=10000, beta=0.2, seed=0):
    """Randomized positivity check of :func:`concavity_margin`.

    mu is drawn from the fixed compact box e + [-0.45, 0.45]^n (inside every
    cone used here), lam from a broad mixture of cone samples and points near
    the axis ball, t uniformly in [0, 1].  Only pairs with normal separation
    beyond beta contribute; NumericalError is raised when 200 * max(samples,
    256) drawn pairs have not yielded samples of them.  Returns the one row
    `margin_positive`, whose worst is the least margin of the pairs.
    """
    check_suite_inputs(samples=samples, beta=beta)
    rng = np.random.default_rng(seed)
    n = spec.n
    axis = np.zeros(n)
    axis[-1] = 1.0
    kept = 0
    min_margin = math.inf
    # where few pairs separate, rounds shrink to the 256-row floor, so the
    # budget counts drawn pairs, not rounds
    budget = 200 * max(samples, 256)
    drawn = 0
    while kept < samples:
        if drawn >= budget:
            raise NumericalError("separation sampling stalled; beta may be too large")
        pool = max(256, samples - kept)
        drawn += pool
        lams = sample_cone(spec, pool, rng, scale_low=-1.0, scale_high=1.5)
        ts = rng.uniform(0.0, 1.0, size=pool)
        mus = 1.0 + rng.uniform(-0.45, 0.45, size=(pool, n))
        use_ball = rng.uniform(size=pool) >= 0.7
        # one draw of n normals per ball row, in row order: the same stream
        # as drawing row by row
        r = _BALL_RADIUS_FRACTION * (1.0 - ts[use_ball]) / (2.0 * n)
        v = rng.standard_normal((r.size, n))
        lams[use_ball] = axis + r[:, None] * v / _row_norm(v)[:, None]
        usable = ~use_ball
        usable[use_ball] = spec.margin_scores(lams[use_ball], ts[use_ball][:, None]) > spec.margin
        eps = concavity_margin_many(spec, ts[usable], mus[usable], lams[usable], beta)
        eps = eps[~np.isnan(eps)][: samples - kept]
        kept += eps.size
        min_margin = float(np.min(eps, initial=min_margin))
    return [CheckResult("margin_positive", min_margin > 0.0, min_margin, 0.0)]
