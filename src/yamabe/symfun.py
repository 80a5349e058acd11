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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._errors import ConeDomainError, NumericalError

__all__ = [
    "CONE_MARGIN",
    "SymFuncSpec",
    "BrokenHomogeneitySpec",
    "Classification",
    "CheckResult",
    "StructureReport",
    "BallInclusionReport",
    "SeparationReport",
    "RadialEvaluation",
    "sigma",
    "matrix_value_and_derivative",
    "classify_type",
    "concavity_margin",
    "concavity_margin_many",
    "concavity_margin_suite",
    "interpolation_ball_report",
    "verify_structure",
    "sample_cone",
]


# a tuple is inside the cone when its margin score exceeds this
CONE_MARGIN = 1e-12


# ---------------------------------------------------------------------------
# elementary symmetric polynomials
# ---------------------------------------------------------------------------

def _as_batch(lam):
    """lam as an (m, n) array; a single vector becomes one row."""
    v = np.asarray(lam, dtype=float)
    if v.ndim == 1:
        return v[None, :]
    if v.ndim != 2:
        raise ValueError(f"expected a vector or a stack of vectors, got shape {v.shape}")
    return v


def _esp(values, kmax):
    """All elementary symmetric polynomials e_0..e_kmax, batched.

    values: (m, n); returns (m, kmax + 1).  Uses the standard one-pass
    recurrence e_j <- e_j + x * e_{j-1}, which is exact in exact arithmetic
    and stable for the small n used here.
    """
    m, n = values.shape
    out = np.zeros((m, kmax + 1))
    out[:, 0] = 1.0
    for col in range(n):
        x = values[:, col:col + 1]
        out[:, 1:] = out[:, 1:] + x * out[:, :-1]
    return out


def _esp_removed(values, kmax):
    """e_0..e_kmax of every tuple with one entry removed, as a (kmax + 1, n, m) array.

    Slot [j, i, r] is e_j of row r without its entry i.  Every slot runs the
    recurrence of `_esp` over the remaining entries in their order, so each
    slot is bit-identical to `_esp` of the reduced tuple; the row axis is the
    contiguous one.  Lower orders do not depend on kmax.  Callers copy a
    slot's transpose to C order, so that row sums of the gradient (pairwise
    from n = 8 on) round as for any C-ordered (m, n) array.
    """
    m, n = values.shape
    out = np.zeros((kmax + 1, n, m))
    out[0] = 1.0
    for col in range(n):
        x = values[:, col]
        for slots in (slice(0, col), slice(col + 1, n)):
            out[1:, slots] += x * out[:-1, slots]
    return out


def sigma(lam, k):
    """k-th elementary symmetric polynomial of the entries of lam (sigma_0 = 1)."""
    v = _as_batch(lam)
    n = v.shape[1]
    if not 0 <= k <= n:
        raise ValueError(f"order k={k} out of range for n={n}")
    return float(_esp(v, k)[0, k])


def _cone_scores(values, order):
    """min over j <= order of sigma_j(lam) / sigma_j(|lam|), per row of (m, n).

    Zero rows score -inf (the origin is not in the open cone); rows with a
    vanishing sigma_j(|lam|) (too few nonzero entries) score at most zero.
    """
    absolute = np.abs(values)
    return _min_ratio(_esp(values, order).T, _esp(absolute, order).T,
                      absolute.max(axis=1) > 0.0, order)


def _min_ratio(e, scale, nonzero, order):
    """The score loop of `_cone_scores`; e[j] and scale[j] are per-row vectors."""
    scores = np.where(nonzero, np.inf, -np.inf)
    tiny = np.finfo(float).tiny
    for j in range(1, order + 1):
        scores = np.minimum(scores, e[j] / np.maximum(scale[j], tiny))
    return scores


# ---------------------------------------------------------------------------
# the radial tuples (a, s, ..., s)
# ---------------------------------------------------------------------------

def _radial_rows(a, s, n):
    """The (m, n) rows (a, s, ..., s) from the (m,) vectors a and s."""
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    return np.concatenate([a[:, None], np.repeat(s[:, None], n - 1, axis=1)], axis=1)


def _row_sum(head, tail, n):
    """numpy's sum of each length-n row (head, tail, ..., tail), head and tail (m,).

    numpy adds the pairwise sum of a row to a 0.0 start.  Repeating its
    additions keeps the two-value path bit-identical to the row sums of the
    (m, n) path.  Summing the built rows instead is bit-identical on any
    numpy but makes the Jacobian kernel about 1.7x slower at 4001 nodes;
    tests compare this order with ndarray.sum, so a numpy that changes its
    order fails them.
    """
    return 0.0 + _pairwise_sum(head, tail, n)


def _pairwise_sum(head, tail, n):
    """numpy's pairwise_sum: in order below 8 entries, with eight strided
    accumulators from 8 on, and by halves at a multiple of 8 above 128."""
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(head, tail, half) + _pairwise_sum(tail, tail, n - half)
    if n < 8:
        total = head
        for _ in range(n - 1):
            total = total + tail
        return total
    first, other = head, tail
    for _ in range(n // 8 - 1):
        first = first + tail
        other = other + tail
    pair = other + other
    total = ((first + other) + pair) + (pair + pair)
    for _ in range(n % 8):
        total = total + tail
    return total


def _esp_radial(a, s, n, kmax):
    """e_0..e_kmax of the tuples (a, s, ..., s) of length n, as lists of (m,) vectors.

    Returns the list for the whole tuple and the one for the tuple without
    one s.  The `_esp` recurrence runs over the entries in the same order, so
    each vector is bit-identical to the matching column of `_esp` (and of a
    `_esp_removed` slot) on the (m, n) rows.
    """
    e = [np.ones_like(a)] + [np.zeros_like(a)] * kmax
    for col in range(n):
        cut = e
        x = a if col == 0 else s
        e = [e[0]] + [e[j] + x * e[j - 1] for j in range(1, kmax + 1)]
    return e, cut


class RadialEvaluation(NamedTuple):
    """What `SymFuncSpec.radial_eval` computes in one pass; see there."""

    scores: np.ndarray
    value: np.ndarray | None
    grad_axis: np.ndarray | None
    grad_sphere: np.ndarray | None


# ---------------------------------------------------------------------------
# the interpolation family shared by all cone-function specs
# ---------------------------------------------------------------------------

def _t_map(t, v):
    """Rows of v sent to t*lam + (1-t)*sigma_1(lam)*e; t is a scalar or an (m, 1) column.

    The map is symmetric, so it also carries gradients back (the chain rule
    of the t-family).
    """
    return t * v + (1.0 - t) * v.sum(axis=1, keepdims=True)


class _InterpolationFamily:
    """Mixin deriving the t-family from value/grad/margin of the base pair.

    Requires the host to provide n, value_many, grad_many, margin_scores and
    _require_scores_inside.  A tuple is inside the cone when its margin
    score exceeds `margin`.
    """

    margin = CONE_MARGIN

    def _validated(self, lam):
        v = _as_batch(lam)
        if v.shape[1] != self.n:
            raise ValueError(f"expected tuples of length {self.n}, got {v.shape[1]}")
        return v

    # -- membership -------------------------------------------------------

    def _require_inside(self, values):
        self._require_scores_inside(self.margin_scores(values))

    def contains(self, lam):
        v = self._validated(lam)
        return bool(self.margin_scores(v)[0] > self.margin)

    def in_cone_t(self, t, lam):
        v = self._validated(lam)
        return bool(self.margin_scores_t(t, v)[0] > self.margin)

    def margin_scores_t(self, t, lam):
        v = self._validated(lam)
        return self.margin_scores(_t_map(t, v))

    # -- values and derivatives --------------------------------------------

    def value(self, lam):
        v = self._validated(lam)
        return float(self.value_many(v)[0])

    def grad(self, lam):
        v = self._validated(lam)
        return self.grad_many(v)[0]

    def value_t(self, t, lam):
        v = self._validated(lam)
        return float(self.value_t_many(t, v)[0])

    def value_t_many(self, t, lam):
        v = self._validated(lam)
        return self.value_many(_t_map(t, v))

    def grad_t(self, t, lam):
        v = self._validated(lam)
        return self.grad_t_many(t, v)[0]

    def grad_t_many(self, t, lam):
        """Chain rule through lam -> t*lam + (1-t)*sigma_1(lam)*e."""
        v = self._validated(lam)
        return _t_map(t, self.grad_many(_t_map(t, v)))

    # -- radial tuples -------------------------------------------------------

    def radial_eval(self, t, a, s, grad=False):
        """Cone scores, f_t and its gradient on the radial tuples (a, s, ..., s).

        a and s are (m,) vectors of axis and sphere eigenvalues (see
        geometry.radial_w_eigenvalues); s fills the n - 1 sphere slots.
        Returns the margin scores, and when every row scores above the
        margin also f_t and, with grad, the axis slot of Df_t and the sum of
        its n - 1 sphere slots.  Outside the cone value is None, and asking
        for the gradient raises ConeDomainError, as grad_t_many does.  This
        version evaluates the full (m, n) rows.
        """
        rows = _radial_rows(a, s, self.n)
        scores = self.margin_scores_t(t, rows)
        if grad:
            g = self.grad_t_many(t, rows)
            return RadialEvaluation(scores, self.value_t_many(t, rows), g[:, 0], g[:, 1:].sum(axis=1))
        if np.any(scores <= self.margin):
            return RadialEvaluation(scores, None, None, None)
        return RadialEvaluation(scores, self.value_t_many(t, rows), None, None)


# ---------------------------------------------------------------------------
# the two classical families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymFuncSpec(_InterpolationFamily):
    """A concrete (f, Gamma_k) pair.

    kind is "sigma_k_root" (f = sigma_k^(1/k)) or "quotient"
    (f = (sigma_k/sigma_l)^(1/(k-l)) with 1 <= l < k).  Both live on Gamma_k.
    Membership uses a relative strictness margin: lam is accepted when
    sigma_j(lam) > CONE_MARGIN * sigma_j(|lam|) for every j <= k.  The
    comparison scale sigma_j of the absolute values bounds the attainable
    magnitude of sigma_j tightly even for very anisotropic tuples, keeps the
    test scale invariant and avoids boundary flapping inside line searches.
    """

    kind: str
    n: int
    k: int
    l: int | None = None

    def __post_init__(self):
        if self.kind not in ("sigma_k_root", "quotient"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.n < 3:
            raise ValueError("dimension must be at least 3")
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

    def f_at_ones(self):
        """f(e); equals C(n,k)^(1/k) for roots, (C(n,k)/C(n,l))^(1/(k-l)) for quotients."""
        if self.kind == "sigma_k_root":
            return math.comb(self.n, self.k) ** (1.0 / self.k)
        ratio = math.comb(self.n, self.k) / math.comb(self.n, self.l)
        return ratio ** (1.0 / (self.k - self.l))

    # -- membership scores ---------------------------------------------------

    def margin_scores(self, values):
        """min over j <= k of sigma_j(lam) / sigma_j(|lam|), per row (see _cone_scores)."""
        return _cone_scores(np.asarray(values, dtype=float), self.k)

    def _require_scores_inside(self, scores):
        bad = np.nonzero(scores <= self.margin)[0]
        if bad.size:
            raise ConeDomainError(
                f"{self.label}: tuple outside the cone "
                f"(first offender index {bad[0]}, margin score {scores[bad[0]]:.3e})",
                min_score=float(scores.min()),
            )

    # -- values ---------------------------------------------------------------

    def value_many(self, values):
        values = np.asarray(values, dtype=float)
        self._require_inside(values)
        return self._value_from(_esp(values, self.k).T)

    def grad_many(self, values):
        values = np.asarray(values, dtype=float)
        self._require_inside(values)
        e = _esp(values, self.k)
        # d sigma_j is e_{j-1} of the reduced tuples: one pass serves k and l
        removed = _esp_removed(values, self.k - 1)
        gk = removed[self.k - 1].T.copy()
        f = self._value_from(e.T)
        if self.kind == "sigma_k_root":
            return (f / self.k)[:, None] * gk / e[:, self.k][:, None]
        gl = removed[self.l - 1].T.copy()
        log_grad = gk / e[:, self.k][:, None] - gl / e[:, self.l][:, None]
        return (f / (self.k - self.l))[:, None] * log_grad

    def _value_from(self, e):
        """f from the ESP vectors e_0..e_k of the tuples."""
        if self.kind == "sigma_k_root":
            return e[self.k] ** (1.0 / self.k)
        return (e[self.k] / e[self.l]) ** (1.0 / (self.k - self.l))

    # -- the radial kernel -------------------------------------------------------

    def radial_eval(self, t, a, s, grad=False):
        """The radial kernel of the interpolation family, in one pass.

        One ESP pass over the two distinct t-mapped values yields what the
        generic version computes from the (m, n) rows.  Each result repeats
        the additions and multiplications of margin_scores_t, value_t_many
        and grad_t_many on those rows in their order, numpy's row sums
        included, so it is bit-identical to them.
        """
        n, k = self.n, self.k
        a = np.asarray(a, dtype=float)
        s = np.asarray(s, dtype=float)
        shift = (1.0 - t) * _row_sum(a, s, n)
        a, s = t * a + shift, t * s + shift
        abs_a, abs_s = np.abs(a), np.abs(s)
        e, cut = _esp_radial(a, s, n, k)
        scale, _ = _esp_radial(abs_a, abs_s, n, k)
        scores = _min_ratio(e, scale, np.maximum(abs_a, abs_s) > 0.0, k)
        if np.any(scores <= self.margin):
            if grad:
                self._require_scores_inside(scores)
            return RadialEvaluation(scores, None, None, None)
        f = self._value_from(e)
        if not grad:
            return RadialEvaluation(scores, f, None, None)
        # d sigma_j is e_{j-1} of the tuple without that slot: the axis slot
        # leaves n - 1 copies of s, a sphere slot leaves (a, s^(n-2)) = cut
        rest, _ = _esp_radial(s, s, n - 1, k - 1)
        if self.kind == "sigma_k_root":
            g_a = (f / k) * rest[k - 1] / e[k]
            g_s = (f / k) * cut[k - 1] / e[k]
        else:
            l = self.l
            g_a = (f / (k - l)) * (rest[k - 1] / e[k] - rest[l - 1] / e[l])
            g_s = (f / (k - l)) * (cut[k - 1] / e[k] - cut[l - 1] / e[l])
        shift = (1.0 - t) * _row_sum(g_a, g_s, n)
        g_s = t * g_s + shift
        return RadialEvaluation(scores, f, t * g_a + shift, _row_sum(g_s, g_s, n - 1))


@dataclass(frozen=True)
class BrokenHomogeneitySpec(_InterpolationFamily):
    """Verification fixture: f = sigma_1^2 on Gamma_1.

    Degree two instead of one, so the homogeneity check of
    :func:`verify_structure` must flag it.  Positivity, monotonicity and the
    cone test are all genuine.
    """

    n: int
    kind: str = field(default="sigma1_squared_broken", init=False)
    k: int = field(default=1, init=False)

    @property
    def label(self):
        return f"sigma1_squared_broken(n={self.n})"

    def f_at_ones(self):
        return float(self.n ** 2)

    def margin_scores(self, values):
        values = np.asarray(values, dtype=float)
        scale = np.abs(values).sum(axis=1)
        s1 = values.sum(axis=1)
        tiny = np.finfo(float).tiny
        return np.where(scale > 0, s1 / np.maximum(scale, tiny), -np.inf)

    def _require_scores_inside(self, scores):
        if np.any(scores <= self.margin):
            raise ConeDomainError(f"{self.label}: tuple outside the cone",
                                  min_score=float(scores.min()))

    def value_many(self, values):
        values = np.asarray(values, dtype=float)
        self._require_inside(values)
        return values.sum(axis=1) ** 2

    def grad_many(self, values):
        values = np.asarray(values, dtype=float)
        self._require_inside(values)
        return 2.0 * values.sum(axis=1)[:, None] * np.ones_like(values)


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

    lam_p = np.ones(n - 1)
    lo = spec.value(np.append(lam_p, 1e3))
    hi = spec.value(np.append(lam_p, 1e6))
    numeric_unbounded = hi / lo > 2.0
    closed_form_unbounded = getattr(spec, "kind", "") != "quotient"
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
    if not spec.in_cone_t(t, lam):
        raise ConeDomainError("matrix spectrum outside the interpolated cone")
    value = spec.value_t(t, lam)
    g = spec.grad_t(t, lam)

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
    """One pass/fail verdict of a report: the worst value met and the
    threshold it was held against.  These are the rows of `report.json`."""

    name: str
    passed: bool
    worst: float
    threshold: float
    note: str = ""


@dataclass
class StructureReport:
    label: str
    sample_count: int
    seed: int
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failed_names(self):
        return [c.name for c in self.checks if not c.passed]


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


def _boundary_decay_check(spec, samples, rng, rays=64):
    """f must vanish continuously on the cone boundary along straight rays."""
    fractions = np.array([1e-2, 1e-4, 1e-6])[:, None, None]
    pts = samples[rng.choice(samples.shape[0], size=min(rays, samples.shape[0]), replace=False)]
    doublings = 2.0 ** np.arange(60)
    directions = np.empty_like(pts)
    hi = np.empty(pts.shape[0])
    for r, lam in enumerate(pts):
        # directions are drawn ray by ray until one leaves the cone, so the
        # draw count depends on the outcomes; all doublings test in one call
        reach = max(1.0, float(np.abs(lam).max())) * doublings
        for _ in range(40):
            direction = rng.standard_normal(lam.size)
            direction /= np.linalg.norm(direction)
            outside = np.nonzero(spec.margin_scores(lam + reach[:, None] * direction) <= 0.0)[0]
            if outside.size:
                directions[r] = direction
                hi[r] = reach[outside[0]]
                break
        else:
            raise NumericalError("could not find an exiting ray for the decay check")
    lo = np.zeros_like(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        inside = spec.margin_scores(pts + mid[:, None] * directions) > 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    boundary = pts + (0.5 * (lo + hi))[:, None] * directions
    probes = pts + (1.0 - fractions) * (boundary - pts)
    vals = spec.value_many(probes.reshape(-1, pts.shape[1])).reshape(probes.shape[:2])
    ordered = bool(np.all((vals[0] > vals[1]) & (vals[1] > vals[2])))
    return ordered, max(0.0, float((vals[2] / vals[0]).max()))


def verify_structure(spec, sample_count=1000, seed=0):
    """Randomized verification of the structural conditions of (f, Gamma).

    Checks, over seeded cone samples: positivity of f and its decay towards
    the cone boundary, strict positivity of the gradient, midpoint concavity,
    degree-one homogeneity, the lower bound sum_i d_i f_t >= f(e) along a t
    grid, and the upper bound f <= sigma_1 f(e)/n.  Failures land in the
    report, not in exceptions.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    rng = np.random.default_rng(seed)
    pts = sample_cone(spec, sample_count, rng)
    f_e = spec.f_at_ones()
    checks = []

    vals = spec.value_many(pts)
    checks.append(CheckResult("f1_positive", bool(vals.min() > 0.0), float(vals.min()), 0.0))

    ordered, ratio = _boundary_decay_check(spec, pts, rng)
    checks.append(CheckResult(
        "f1_boundary_decay", bool(ordered and ratio <= 0.3), float(ratio), 0.3,
        "max of f(nearest)/f(farthest) along rays to the boundary",
    ))

    grads = spec.grad_many(pts)
    checks.append(CheckResult("f2_gradient_positive", bool(grads.min() > 0.0), float(grads.min()), 0.0))

    other = pts[rng.permutation(pts.shape[0])]
    mid_gap = spec.value_many(0.5 * (pts + other)) - 0.5 * (vals + spec.value_many(other))
    checks.append(CheckResult("f3_concavity_midpoint", bool(mid_gap.min() >= -1e-10),
                              float(mid_gap.min()), -1e-10))

    s = 10.0 ** rng.uniform(-2.0, 2.0, size=pts.shape[0])
    hom = np.abs(spec.value_many(s[:, None] * pts) - s * vals) / (s * vals)
    checks.append(CheckResult("f4_homogeneity", bool(hom.max() <= 1e-12), float(hom.max()), 1e-12))

    worst_f5 = math.inf
    for t in (0.0, 0.25, 0.5, 0.75, 0.99, 1.0):
        sums = spec.grad_t_many(t, pts).sum(axis=1)
        worst_f5 = min(worst_f5, float(sums.min() - f_e))
    checks.append(CheckResult("f5_gradient_sum", bool(worst_f5 >= -1e-10), worst_f5, -1e-10,
                              "min over t grid of sum_i d_i f_t - f(e)"))

    f6_gap = vals - pts.sum(axis=1) * f_e / spec.n
    checks.append(CheckResult("f6_linear_bound", bool(f6_gap.max() <= 1e-10),
                              float(f6_gap.max()), 1e-10))

    return StructureReport(label=spec.label, sample_count=sample_count, seed=seed, checks=checks)


# ---------------------------------------------------------------------------
# ball inclusion of the interpolated cones
# ---------------------------------------------------------------------------

# the share of the guaranteed ball radius (1-t)/(2n) that the ball is probed at
_BALL_RADIUS_FRACTION = 0.99


@dataclass
class BallInclusionReport:
    label: str
    directions: int
    rows: list  # (t, worst membership score, corner bound margin)

    @property
    def checks(self):
        """Every probe inside Gamma_t, and the corner bound met at every t."""
        worst_score = min(row[1] for row in self.rows)
        worst_corner = min(row[2] for row in self.rows)
        return [CheckResult("membership", worst_score > 0.0, worst_score, 0.0),
                CheckResult("value_bound", worst_corner >= 0.0, worst_corner, 0.0)]

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def interpolation_ball_report(spec, t_values=(0.0, 0.25, 0.5, 0.9, 0.99),
                              directions=1000, seed=0):
    """Check the guaranteed ball around the last coordinate axis inside Gamma_t.

    For each t the ball of radius (1-t)/(2n) about (0, ..., 0, 1) lies in
    Gamma_t, and at the extreme corner point
    lam_hat = (-(1-t)/(2n), ..., -(1-t)/(2n), 1-(1-t)/(2n)) the interpolated
    function is at least (1-t) f(e) / 2.  Probed at 0.99 of the guaranteed
    radius; the corner bound is checked with a relative slack of 1e-12
    since it is an equality at t = 0.
    """
    rng = np.random.default_rng(seed)
    n = spec.n
    axis = np.zeros(n)
    axis[-1] = 1.0
    f_e = spec.f_at_ones()
    rows = []
    for t in t_values:
        r = _BALL_RADIUS_FRACTION * (1.0 - t) / (2.0 * n)
        vs = rng.standard_normal((directions, n))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        scores = spec.margin_scores_t(t, axis + r * vs)
        corner = np.full(n, -(1.0 - t) / (2.0 * n))
        corner[-1] += 1.0
        corner_margin = spec.value_t(t, corner) - 0.5 * (1.0 - t) * f_e + 1e-12 * f_e
        rows.append((float(t), float(scores.min()), float(corner_margin)))
    return BallInclusionReport(label=spec.label, directions=directions, rows=rows)


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
    mapped_mu = _t_map(ts, mus)
    mapped_lam = _t_map(ts, lams)
    if np.any(spec.margin_scores(mus) <= spec.margin):
        raise ConeDomainError("mu must lie in the cone")
    if np.any(spec.margin_scores(mapped_lam) <= spec.margin):
        raise ConeDomainError("lam must lie in the interpolated cone")
    g_mu = _t_map(ts, spec.grad_many(mapped_mu))
    g_lam = _t_map(ts, spec.grad_many(mapped_lam))
    nu_mu = g_mu / np.linalg.norm(g_mu, axis=1, keepdims=True)
    nu_lam = g_lam / np.linalg.norm(g_lam, axis=1, keepdims=True)
    separated = np.linalg.norm(nu_mu - nu_lam, axis=1) > beta
    lhs = (g_lam * (mus - lams)).sum(axis=1)
    rhs = spec.value_many(mapped_mu) - spec.value_many(mapped_lam)
    eps = (lhs - rhs) / (g_lam.sum(axis=1) + 1.0)
    return np.where(separated, eps, np.nan)


@dataclass
class SeparationReport:
    label: str
    beta: float
    kept: int
    min_margin: float

    @property
    def checks(self):
        return [CheckResult("margin_positive", self.kept > 0 and self.min_margin > 0.0,
                            self.min_margin, 0.0)]

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def concavity_margin_suite(spec, samples=10000, beta=0.2, seed=0):
    """Randomized positivity check of :func:`concavity_margin`.

    mu is drawn from the fixed compact box e + [-0.45, 0.45]^n (inside every
    cone used here), lam from a broad mixture of cone samples and points near
    the axis ball, t uniformly in [0, 1].  Only pairs with normal separation
    beyond beta contribute; NumericalError is raised when 200 * max(samples,
    256) drawn pairs have not yielded samples of them.
    """
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
        lams[use_ball] = axis + r[:, None] * v / np.linalg.norm(v, axis=1, keepdims=True)
        usable = ~use_ball
        usable[use_ball] = spec.margin_scores_t(ts[use_ball][:, None], lams[use_ball]) > spec.margin
        eps = concavity_margin_many(spec, ts[usable], mus[usable], lams[usable], beta)
        eps = eps[~np.isnan(eps)][: samples - kept]
        kept += eps.size
        min_margin = float(np.min(eps, initial=min_margin))
    return SeparationReport(label=spec.label, beta=beta, kept=kept, min_margin=float(min_margin))
