"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the code paths it validates: elementary
symmetric polynomials come from subset enumeration (and, for bit-exact
comparisons, from the recurrence on a tuple-per-row layout), the cone
scores, for bit-exact comparisons, from a frozen copy of the row kernel on
strided columns, their gradients from deleting one coordinate at a time,
the radial kernel and its gradient, bit for bit, from frozen copies of the
kernel's stacked pass with the row e_0 and of the gradient's two-pass form,
with the t-map's row sums in order by np.cumsum,
other gradients from central differences, the feasibility restore's blends
from a frozen copy of its ladder with a full pass per rung, the structure
suites from one sample and one bisection step at a time, Jacobian columns
from bumping one nodal value of the residual, the spectrum of -J's interior
block from its symmetrized tridiagonal form, the rounding floor node by
node from the general stencil weights and central differences, the
conformal curvature from the general transformation law, the stopping time
of the radial problem from integrating the second-order equation itself
(never its first integral), the residual at any t on Example 1's psi in
long double from the float state and stencil weights, the t = 0 solution for
constant psi from its closed form in v = e^(-p u), its half length for
Example 1's psi by
quadrature of the first integral in v and its even solution by a shot in
v, the even solution of the radial problem at any t by a shot in u whose
axis eigenvalue is a polynomial root found in plain floats (for psi free of
z, or from a given u(0)), the subsolution benchmark's psi from the closed
form of sigma_k on (a, s, ..., s) in plain floats, and profile CSVs from
Python's own '%.17g', one row at a time.  `BrokenHomogeneitySpec` is a cone
function built to fail a structure check.
"""

import itertools
import json
import math

import numpy as np
from scipy import integrate
from scipy.linalg import eigvalsh_tridiagonal

from yamabe._errors import ConeDomainError, ConeViolationError, NumericalError
from yamabe.geometry import radial_w_eigenvalues, stencil_weights
from yamabe.solver import residual
from yamabe.symfun import CONE_MARGIN, SymFuncSpec, sample_cone


def sigma_by_enumeration(values, k):
    """Sum over all k-element subsets of products, the textbook definition."""
    if k == 0:
        return 1.0
    return float(sum(math.prod(c) for c in itertools.combinations(values, k)))


def esp_by_columns(values, kmax):
    """e_0..e_kmax of each row as an (m, kmax + 1) array.

    The one-pass recurrence e_j <- e_j + x e_{j-1} over the entries in
    order, run along the short kmax + 1 axis of a C-ordered (m, kmax + 1)
    array, one new array per entry.
    """
    values = np.asarray(values, dtype=float)
    m, n = values.shape
    out = np.zeros((m, kmax + 1))
    out[:, 0] = 1.0
    for col in range(n):
        out[:, 1:] = out[:, 1:] + values[:, col:col + 1] * out[:, :-1]
    return out


def esp_gradient_by_deletion(values, j):
    """Gradient of sigma_j row by row: column i is e_{j-1} of the row without entry i.

    Deletes one coordinate at a time and runs the one-pass recurrence
    e_j <- e_j + x e_{j-1} over the remaining columns in their order.
    """
    values = np.asarray(values, dtype=float)
    m, n = values.shape
    grad = np.zeros((m, n))
    if j == 0:
        return grad
    for i in range(n):
        reduced = np.delete(values, i, axis=1)
        e = np.zeros((m, j))
        e[:, 0] = 1.0
        for col in range(n - 1):
            e[:, 1:] = e[:, 1:] + reduced[:, col:col + 1] * e[:, :-1]
        grad[:, i] = e[:, j - 1]
    return grad


def cone_scores_by_strided_columns(values, order):
    """The cone scores and e_0..e_order of (m, n) rows, as the row kernel
    computed them before its columns were made contiguous: one recurrence
    over the strided columns of the (2m, n) stack of the rows on their
    absolute values, and the min over j of e_j / max(e_j(|lam|), tiny),
    folded in order from +inf (-inf on zero rows).  A frozen copy, which
    the contiguous kernel must match bit for bit."""
    absolute = np.abs(values)
    m = values.shape[0]
    both = _skipping_recurrence(np.concatenate([values, absolute]).T, order)
    e, scale = both[:, :m], both[:, m:]
    scores = np.where(absolute.max(axis=1) > 0.0, np.inf, -np.inf)
    tiny = np.finfo(float).tiny
    for j in range(1, order + 1):
        scores = np.minimum(scores, e[j] / np.maximum(scale[j], tiny))
    return scores, e


def _skipping_recurrence(columns, kmax):
    """e_0..e_kmax of the tuples whose entries are the vectors of columns, as
    a (kmax + 1, m) array: e_j <- e_j + x e_{j-1} over the entries in
    order, on the rows e_1..e_{col+1} that entry col can reach."""
    out = np.zeros((kmax + 1, len(columns[0])))
    out[0] = 1.0
    for col, x in enumerate(columns):
        top = min(col, kmax - 1) + 2
        out[1:top] += x * out[:top - 1]
    return out


def row_sum_in_order(rows):
    """The sum of each row of an (m, n) array, its entries added left to
    right and then 0.0, as the last column of np.cumsum along the rows, an
    in-order accumulation (ndarray.sum and np.add.reduce add pairwise from
    8 entries on)."""
    return np.cumsum(rows, axis=1)[:, -1] + 0.0


def radial_gradient_by_two_passes(spec, t, a, s):
    """(axis slot of Df_t, sum of its sphere slots) on the radial rows
    (a, s, ..., s), as the radial kernel's gradient computed it with two
    ESP passes of its own over the t-mapped a and s: cut = e(a, s^(n-2))
    and rest = e(s^(n-1)), with e_k (and e_l) as cut[k] + s cut[k-1].  A
    frozen copy, which the one-pass gradient must match bit for bit.  t is
    a number or a vector of one t per row; the row sums add the slots of the
    (m, n) rows in order (`row_sum_in_order`), and f_t is value_many of the
    rows, which raises the ConeDomainError of grad_many on rows outside the
    cone."""
    n, k = spec.n, spec.k
    rows = np.column_stack([a] + [s] * (n - 1))
    f = spec.value_many(rows, t if np.ndim(t) == 0 else np.reshape(t, (-1, 1)))
    shift = (1.0 - t) * row_sum_in_order(rows)
    a, s = t * a + shift, t * s + shift
    cut = _skipping_recurrence((a, *[s] * (n - 2)), k)
    rest = _skipping_recurrence([s] * (n - 1), k - 1)
    e_k = cut[k] + s * cut[k - 1]
    if spec.kind == "sigma_k_root":
        g_a = (f / k) * rest[k - 1] / e_k
        g_s = (f / k) * cut[k - 1] / e_k
    else:
        l = spec.l
        e_l = cut[l] + s * cut[l - 1]
        g_a = (f / (k - l)) * (rest[k - 1] / e_k - rest[l - 1] / e_l)
        g_s = (f / (k - l)) * (cut[k - 1] / e_k - cut[l - 1] / e_l)
    shift = (1.0 - t) * row_sum_in_order(np.column_stack([g_a] + [g_s] * (n - 1)))
    g_s = t * g_s + shift
    return t * g_a + shift, row_sum_in_order(np.column_stack([g_s] * (n - 1)))


def radial_eval_by_stacked_pass(spec, t, a, s):
    """The fields scores, outside, value, sphere, e_k, cut_k, e_l and cut_l
    of the radial kernel's evaluation at a number t, as the kernel computed
    them with the full recurrence, its row e_0 included, over the t-mapped
    columns (a, s, ..., s) stacked on their absolute values, whatever their
    signs, as a dict.  A frozen copy, which the kernel must match."""
    n, k, l = spec.n, spec.k, spec.l
    m = len(a)
    shift = (1.0 - t) * row_sum_in_order(np.column_stack([a] + [s] * (n - 1)))
    a, s = t * a + shift, t * s + shift
    lead, other = np.concatenate([a, np.abs(a)]), np.concatenate([s, np.abs(s)])
    cut = _skipping_recurrence((lead, *[other] * (n - 2)), k)[:, :m]
    both = _skipping_recurrence((lead, *[other] * (n - 1)), k)
    e = both[:, :m]
    scores = np.where(np.maximum(np.abs(a), np.abs(s)) > 0.0, np.inf, -np.inf)
    for ratio in e[1:] / np.maximum(both[1:, m:], np.finfo(float).tiny):
        np.minimum(scores, ratio, out=scores)
    outside = np.flatnonzero(~(scores > spec.margin))
    with np.errstate(invalid="ignore", divide="ignore"):
        value = e[k] ** (1.0 / k) if l is None else (e[k] / e[l]) ** (1.0 / (k - l))
    value[outside] = np.nan
    return {"scores": scores, "outside": outside, "value": value, "sphere": s,
            "e_k": e[k], "cut_k": cut[k - 1], "e_l": None if l is None else e[l],
            "cut_l": None if l is None else cut[l - 1]}


def restore_by_full_passes(problem, t, profile, anchor):
    """The feasibility restore's blend ladder with one full kernel pass per
    rung: the smallest feasible blend towards the anchor, or the rung after
    it when that is feasible too.  A frozen copy; returns ((blend,
    evaluation) or None, the number of full passes)."""
    ladder = (1e-3, 3e-3, 0.01, 0.03, 0.1, 0.2, 0.4, 0.7, 1.0)
    passes = 0

    def inside(theta):
        nonlocal passes
        passes += 1
        blend = profile.with_values((1.0 - theta) * profile.u + theta * anchor.u)
        axis, sphere = radial_w_eigenvalues(blend.du[1:-1], blend.d2u[1:-1])
        evaluation = problem.spec.radial_eval(t, axis, sphere)
        return None if evaluation.outside.size else (blend, evaluation)

    for i, theta in enumerate(ladder):
        restored = inside(theta)
        if restored is not None:
            for theta2 in ladder[i + 1:i + 2]:
                headroom = inside(theta2)
                if headroom is not None:
                    return headroom, passes
            return restored, passes
    return None, passes


class BrokenHomogeneitySpec:
    """f = sigma_1^2 on Gamma_1, with what `verify_structure` calls of a spec.

    Degree two instead of one, so the homogeneity check must flag it.
    Positivity, monotonicity and the cone test are genuine.
    """

    degree = 1      # of sigma_1, whose cone it has: the decay row's bound is 0.3

    def __init__(self, n):
        self.n = n
        self.label = f"sigma1_squared(n={n})"

    def f_at_ones(self):
        return float(self.n ** 2)

    def margin_scores(self, values):
        """sigma_1(lam) / sigma_1(|lam|) per row; -inf on zero rows."""
        values = np.asarray(values, dtype=float)
        scale = np.abs(values).sum(axis=1)
        tiny = np.finfo(float).tiny
        return np.where(scale > 0, values.sum(axis=1) / np.maximum(scale, tiny), -np.inf)

    def value_many(self, values):
        return self.value_and_grad_many(values)[0]

    def value_and_grad_many(self, values):
        values = np.asarray(values, dtype=float)
        scores = self.margin_scores(values)
        if np.any(scores <= CONE_MARGIN):
            raise ConeDomainError(f"{self.label}: tuple outside the cone",
                                  min_score=float(scores.min()))
        s1 = values.sum(axis=1)
        return s1 ** 2, 2.0 * s1[:, None] * np.ones_like(values)

    def grad_many(self, values, t):
        """Df_t through lam -> t*lam + (1-t)*sigma_1(lam)*e, which is symmetric."""
        def t_map(v):
            return t * v + (1.0 - t) * v.sum(axis=1, keepdims=True)
        return t_map(self.value_and_grad_many(t_map(np.asarray(values, dtype=float)))[1])


def schouten_eigenvalues(n):
    """Curvature eigenvalues (-1/2, 1/2, ..., 1/2) of the round cylinder, ascending."""
    return (-0.5,) + (0.5,) * (n - 1)


def schouten_matrix(n):
    """The cylinder's curvature tensor in a frame whose first vector is the axis."""
    return np.diag(schouten_eigenvalues(n))


def conformal_schouten(du, hess, base):
    """Curvature tensor of e^(-2u) g from first and second derivatives of u.

    All inputs are expressed in a g-orthonormal frame: du is the gradient
    vector, hess the covariant Hessian and base the curvature tensor of g.
    """
    du = np.asarray(du, dtype=float)
    hess = np.asarray(hess, dtype=float)
    base = np.asarray(base, dtype=float)
    n = du.size
    return hess + np.outer(du, du) - 0.5 * float(du @ du) * np.eye(n) + base


def all_specs(n):
    """Every cone function of dimension n: each sigma_k root and each quotient."""
    yield from (SymFuncSpec("sigma_k_root", n=n, k=k) for k in range(1, n + 1))
    yield from (SymFuncSpec("quotient", n=n, k=k, l=l) for k in range(2, n + 1) for l in range(1, k))


def radial_rows(n, du, d2u):
    """The (m, n) eigenvalue rows (axis, sphere, ..., sphere) of W[u] for a
    radial profile, with axis = u'' - (1 - u'^2)/2 and sphere = (1 - u'^2)/2."""
    sphere = 0.5 * (1.0 - np.asarray(du, dtype=float) ** 2)
    axis = np.asarray(d2u, dtype=float) - sphere
    return np.column_stack([axis] + [sphere] * (n - 1))


def gradient_by_differences(func, x, step=1e-6):
    """Central differences with the step 1e-6 * (1 + |x_i|) per coordinate."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        h = step * (1.0 + abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (func(x + e) - func(x - e)) / (2 * h)
    return out


def rounding_floor_by_nodes(problem, t, profile):
    """The rounding floor F of `solver._rounding_floor`, node by node: eps
    times the largest interior

        |g_a| sum_j |w2_j u_j| + |g_a - g_s| |u'| sum_j |w1_j u_j| + |f_t| + |psi|,

    with w1, w2 the three-point weights of `stencil_weights` at the node,
    u' and u'' taken with them, and g_a and g_s the axis slot and the summed
    sphere slots of a central-difference gradient of spec.value(., t) on the
    node's row (a, s, ..., s)."""
    spec, grid, u = problem.spec, profile.grid, profile.u
    terms = []
    for i in range(1, grid.size - 1):
        offsets = grid[i - 1:i + 2] - grid[i]
        w1, w2 = stencil_weights(offsets, 1), stencil_weights(offsets, 2)
        near = u[i - 1:i + 2]
        [row] = radial_rows(spec.n, [w1 @ near], [w2 @ near])
        g = gradient_by_differences(lambda x: spec.value(x, t), row)
        g_a, g_s = g[0], g[1:].sum()
        terms.append(abs(g_a) * (np.abs(w2) @ np.abs(near))
                     + abs(g_a - g_s) * abs(w1 @ near) * (np.abs(w1) @ np.abs(near))
                     + abs(spec.value(row, t)) + abs(float(problem.psi(grid[i], u[i]))))
    return np.finfo(float).eps * max(terms)


def example1_residual_in_long_double(n, k, t, u, first, second):
    """The residual of sigma_k_root at t at the interior nodes, on Example
    1's psi, in np.longdouble:

        sigma_k(A, S, ..., S)^(1/k) - psi,
        sigma_k(A, S, ..., S) = C(n-1, k) S^k + C(n-1, k-1) A S^(k-1),

    with (A, S) = t (a, s) + (1 - t)(a + (n - 1) s), the t-map of the radial
    tuple (a, s, ..., s), a = u'' - (1 - u'^2)/2, s = (1 - u'^2)/2 and
    psi = (n/(k 2^k) C(n-1, k-1))^(1/k) e^(-2u); u' and u'' are the
    three-point sums of the interior weights `first` and `second` (each the
    triple (w_minus, w_center, w_plus) of (m-2,) arrays).  The float values
    t, u and the float weights are taken as exact, so what it differs by
    from the float residual is the float evaluation's own rounding."""
    ld = np.longdouble
    u, t = np.asarray(u, dtype=ld), ld(t)

    def derivative(weights):
        wm, w0, wp = (np.asarray(w, dtype=ld) for w in weights)
        return wm * u[:-2] + w0 * u[1:-1] + wp * u[2:]

    du, d2u = derivative(first), derivative(second)
    s = (1 - du * du) / 2
    a = d2u - s
    shift = (1 - t) * (a + (n - 1) * s)
    big_a, big_s = t * a + shift, t * s + shift
    sigma_k = math.comb(n - 1, k) * big_s ** k + math.comb(n - 1, k - 1) * big_a * big_s ** (k - 1)
    rhs_root = (ld(n) / (k * 2 ** k) * math.comb(n - 1, k - 1)) ** (1 / ld(k))
    return sigma_k ** (1 / ld(k)) - rhs_root * np.exp(-2 * u[1:-1])


def banded_to_dense(ab):
    """Expand tridiagonal (3, m) solve_banded storage to a dense matrix."""
    m = ab.shape[1]
    dense = np.zeros((m, m))
    dense[np.arange(m), np.arange(m)] = ab[1]
    dense[np.arange(m - 1), np.arange(1, m)] = ab[0, 1:]
    dense[np.arange(1, m), np.arange(m - 1)] = ab[2, :-1]
    return dense


def interior_spectrum(ab, count):
    """The `count` smallest eigenvalues of the interior block of -J, for J
    in banded (3, m) storage: each off-diagonal pair J[i, i+1] J[i+1, i]
    must be positive, so that a diagonal similarity makes the block the
    symmetric tridiagonal matrix with off-diagonals -sqrt(J[i, i+1] J[i+1, i])."""
    pairs = ab[0, 2:-1] * ab[2, 1:-2]
    if not (pairs > 0).all():
        raise AssertionError("an off-diagonal pair of the interior block is not positive")
    return eigvalsh_tridiagonal(-ab[1, 1:-1], -np.sqrt(pairs), select="i",
                                select_range=(0, count - 1))


def fd_jacobian_column(problem, t, profile, j):
    """Richardson-extrapolated central-difference column j of the residual.

    Bumping u_j alone puts an eps/h^2 rounding into every second difference,
    so the base step scales with the local spacing squared; it shrinks
    tenfold while a bumped profile leaves the cone.
    """
    grid, u = profile.grid, profile.u
    h_loc = np.diff(grid)[max(j - 1, 0):j + 1].min()    # one-sided at the two ends
    step = 1e-4 * h_loc ** 2 * (1.0 + abs(u[j]))

    def central(s):
        s = (u[j] + s) - u[j]  # exactly representable
        bump = np.zeros(u.size)
        bump[j] = s
        plus = residual(problem, t, profile.with_values(u + bump))
        minus = residual(problem, t, profile.with_values(u - bump))
        return (plus - minus) / (2 * s)

    for _ in range(8):
        try:
            return (4.0 * central(0.5 * step) - central(step)) / 3.0
        except ConeViolationError:
            step *= 0.1
    raise AssertionError(f"could not finite-difference column {j} inside the cone")


def matrix_derivative_by_differences(func, w, step=1e-7):
    """Entrywise symmetric-matrix derivative of a scalar matrix function."""
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    out = np.zeros_like(w)
    for i in range(n):
        for j in range(i, n):
            e = np.zeros_like(w)
            e[i, j] = step
            e[j, i] = step
            d = (func(w + e) - func(w - e)) / (2 * step)
            if i == j:
                out[i, i] = d / 2.0  # symmetric bump counts the diagonal once
            else:
                out[i, j] = out[j, i] = d / 2.0
    # func(W + t(Eij + Eji)) differentiates to F_ij + F_ji = 2 F_ij off the
    # diagonal and F_ii on it; undo the packing
    for i in range(n):
        out[i, i] *= 2.0
    return out


def stopping_time_by_ivp(params, degenerate_level=1e-10):
    """Independent route to the half length: integrate the equation itself.

    Runs the second-order equation in time until the slope reaches 1/2, then
    switches the independent variable to the slope (dt/dv = 1/u'' stays
    regular up to unit slope) until 1 - v^2 = degenerate_level, and closes
    with the local-model tail of the equation.  The conserved quantity is
    never used.
    """
    n, k = params.n, params.k

    def acc(u, v):
        one_minus = 1.0 - v * v
        return (n / (2 * k)) * math.exp(-2 * k * u) * one_minus ** (1 - k) \
            - (n - 2 * k) / (2 * k) * one_minus

    def rhs_time(_, y):
        return [y[1], acc(y[0], y[1])]

    def half_slope(_, y):
        return y[1] - 0.5

    half_slope.terminal = True
    half_slope.direction = 1.0

    sol_a = integrate.solve_ivp(rhs_time, (0.0, 1e3), [params.d, 0.0], method="DOP853",
                                rtol=1e-12, atol=1e-14, events=half_slope)
    assert sol_a.t_events[0].size, "the slope never reached 1/2"
    t_half = float(sol_a.t_events[0][0])
    u_half = float(sol_a.y_events[0][0][0])

    v_star = math.sqrt(1.0 - degenerate_level)

    def rhs_slope(v, y):
        a = acc(y[1], v)
        return [1.0 / a, v / a]

    sol_b = integrate.solve_ivp(rhs_slope, (0.5, v_star), [t_half, u_half],
                                method="DOP853", rtol=1e-12, atol=1e-14)
    t_end = float(sol_b.y[0, -1])
    u_end = float(sol_b.y[1, -1])
    tail = math.exp(2 * k * u_end) * degenerate_level ** k / n
    return t_end + tail


def reference_profile_by_first_integral(params, times):
    """u(t) recovered by inverting t(u) = integral of the conserved relation.

    Quadrature in u with the square-root substitution at the center, plus a
    scalar root find per requested time; independent of any time stepping.
    The quadrature warning is silenced: near the outer value the requested
    tolerance is beyond what subdivision can certify, while the result is
    still far more accurate than the 1e-9 comparisons using it.
    """
    import warnings

    from scipy import optimize

    n, k, h0 = params.n, params.k, params.h0
    x_star = params.boundary_value

    def slope_sq(x):
        inner = max(math.exp(-n * x) + h0, 0.0)
        return 1.0 - math.exp((n - 2 * k) / k * x) * inner ** (1.0 / k)

    udd0 = params.center_curvature()

    def time_of(u):
        s_max = math.sqrt(u - params.d)
        if s_max == 0.0:
            return 0.0

        def integrand(s):
            if s < 1e-8 * s_max:
                return math.sqrt(2.0 / udd0)
            q = slope_sq(params.d + s * s)
            if q <= 0.0:
                return math.sqrt(2.0 / udd0)
            return 2.0 * s / math.sqrt(q)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(integrand, 0.0, s_max, epsabs=1e-12, epsrel=1e-12,
                                    limit=200)
        return val

    out = np.empty(len(times))
    for i, t in enumerate(times):
        target = abs(float(t))

        def shifted(u):
            return time_of(u) - target

        lo, hi = params.d, x_star - 1e-15 * max(1.0, abs(x_star))
        if shifted(hi) < 0:
            out[i] = x_star
            continue
        out[i] = optimize.brentq(shifted, lo, hi, xtol=1e-14, rtol=8.9e-16)
    return out


def semilinear_solution(n, k, l, psi, half_length, x):
    """The closed-form solution u at x of the t = 0 problem with constant
    psi and u(-L) = u(L) = 0, for f = (sigma_k / sigma_l)^(1/(k - l))
    (l = 0 for the root sigma_k^(1/k)).

    At t = 0 the equation is the classical Yamabe equation in v = e^(-p u),
    p = (n - 2)/2, and for constant psi it is linear: v'' = omega^2 v with
    omega^2 = p (p - psi / f(e)), f(e) = (C(n, k) / C(n, l))^(1/(k - l)).
    So v = cosh(omega x) / cosh(omega L), or cos(|omega| x) / cos(|omega| L)
    where omega^2 < 0, and u = -log(v) / p.
    """
    p = (n - 2) / 2
    f_e = (math.comb(n, k) / math.comb(n, l)) ** (1.0 / (k - l))
    omega_sq = p * (p - psi / f_e)
    x = np.asarray(x, dtype=float)
    if omega_sq >= 0.0:
        omega = math.sqrt(omega_sq)
        v = np.cosh(omega * x) / math.cosh(omega * half_length)
    else:
        omega = math.sqrt(-omega_sq)
        v = np.cos(omega * x) / math.cos(omega * half_length)
    return -np.log(v) / p


def _semilinear_constants(n, k):
    """(p, q, a) of the t = 0 equation v'' = p^2 v - a v^q of Example 1's
    data in v = e^(-p u): p = (n - 2)/2, q = (n + 2)/(n - 2) and
    a = p R / f(e), with R = (n/(k 2^k) C(n-1, k-1))^(1/k) and
    f(e) = C(n, k)^(1/k)."""
    p = (n - 2) / 2
    rhs_root = (n / (k * 2.0 ** k) * math.comb(n - 1, k - 1)) ** (1.0 / k)
    return p, (n + 2) / (n - 2), p * rhs_root / math.comb(n, k) ** (1.0 / k)


def semilinear_travel_time(n, k, c, d):
    """tau_0(d): the half length L on which the t = 0 problem of Example 1's
    data (f = sigma_k^(1/k), psi = R e^(-2u), u(-L) = u(L) = c) has the
    even solution with u(0) = d.

    At t = 0 the equation is the classical Yamabe equation in v = e^(-p u),
    p = (n - 2)/2: v'' = V'(v) with V(v) = p^2 v^2/2 - (p R/f(e))
    v^(q+1)/(q+1), q = (n + 2)/(n - 2), R = (n/(k 2^k) C(n-1, k-1))^(1/k)
    and f(e) = C(n, k)^(1/k).  From the turning point v0 = e^(-p d), energy
    conservation gives tau_0(d) as the integral from v0 to e^(-p c) of
    dv / sqrt(2 (V(v) - V(v0))).  The substitution v = v0 + s sigma^2, s the
    direction of travel, takes out the turning point's singularity: the
    integrand is sqrt(2 / D) with D = (V(v) - V(v0)) / sigma^2, whose
    differences are formed without cancellation.  V rises and then falls,
    so where the orbit turns back before it reaches c, D < 0 at the far
    end, and a ValueError says so.
    """
    p, q, a = _semilinear_constants(n, k)
    v0, v1 = math.exp(-p * d), math.exp(-p * c)
    s = math.copysign(1.0, v1 - v0)

    def scaled_gap(sigma):
        x = s * sigma * sigma
        power_gap = v0 ** (q + 1) * math.expm1((q + 1) * math.log1p(x / v0))
        return 0.5 * p * p * s * (2.0 * v0 + x) - a / (q + 1) * power_gap / sigma ** 2

    end = math.sqrt(abs(v1 - v0))
    if end == 0.0:
        return 0.0
    if not scaled_gap(end) > 0.0:
        raise ValueError(f"the t = 0 orbit from u(0) = {d} turns back before it reaches u = {c}")
    tau, _ = integrate.quad(lambda sigma: math.sqrt(2.0 / scaled_gap(sigma)), 0.0, end,
                            epsabs=0.0, epsrel=1e-13, limit=200)
    return tau


def semilinear_even_orbit(n, k, d):
    """The even solution u of the t = 0 problem of Example 1's data with
    u(0) = d, as a callable on arrays of x, by a shot in v = e^(-p u):
    v'' = p^2 v - a v^q (`_semilinear_constants`) from v(0) = e^(-p d),
    v'(0) = 0, integrated by DOP853 at rtol 1e-13 with dense output, and
    u = -log(v) / p at |x|.  Where d is a root of tau_0(d) = L
    (`semilinear_travel_time`), it solves the problem on [-L, L]."""
    p, q, a = _semilinear_constants(n, k)

    def rhs(x, y):
        return [y[1], p * p * y[0] - a * y[0] ** q]

    def u(x):
        x = np.abs(np.asarray(x, dtype=float))
        orbit = integrate.solve_ivp(rhs, (0.0, x.max()), [math.exp(-p * d), 0.0],
                                    method="DOP853", rtol=1e-13, atol=1e-14, dense_output=True)
        return -np.log(orbit.sol(x)[0]) / p

    return u


def _radial_sigma_k_polynomial(n, k, t, s, rhs):
    """Coefficients, lowest first, of P(a) = sigma_k(T(a, s, ..., s)) - rhs
    with n - 1 entries s, T the t-mapping lam -> t lam + (1 - t) sigma_1(lam) e.

    T(a, s, ..., s) = (a + alpha, beta a + gamma, ..., beta a + gamma) with
    alpha = (1 - t)(n - 1) s, beta = 1 - t and gamma = (t + (1 - t)(n - 1)) s,
    and sigma_k of (A, S, ..., S) is C(n-1, k-1) A S^(k-1) + C(n-1, k) S^k.
    Zero leading coefficients are dropped (at t = 1 the degree is 1).
    """
    alpha, beta, gamma = (1.0 - t) * (n - 1) * s, 1.0 - t, (t + (1.0 - t) * (n - 1)) * s

    def power(j):   # (beta a + gamma)^j
        return [math.comb(j, i) * beta ** i * gamma ** (j - i) for i in range(j + 1)]

    low, top = power(k - 1), power(k)
    coeffs = [math.comb(n - 1, k) * c for c in top]
    for i, c in enumerate(low):     # C(n-1, k-1) (a + alpha) (beta a + gamma)^(k-1)
        coeffs[i] += math.comb(n - 1, k - 1) * alpha * c
        coeffs[i + 1] += math.comb(n - 1, k - 1) * c
    coeffs[0] -= rhs
    while coeffs[-1] == 0.0:
        coeffs.pop()
    return coeffs


def _taylor_coefficients(coeffs, x):
    """The coefficients, lowest first, of P(x + h) in h (repeated synthetic
    division); the first is P(x), the second P'(x)."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += x * c[j + 1]
    return c


def _largest_root(coeffs, start):
    """The largest real root of P by Newton from `start`, a point where
    every derivative of P is positive.

    sigma_k on the line a -> T(a, s, ..., s) is real-rooted (Garding: the
    line's direction (1, 1 - t, ..., 1 - t) lies in the positive cone), so
    the roots of all its derivatives lie below its largest root, and
    P = sigma_k - psi^k has its largest root above that one.  From start
    on, P is convex and increasing, so Newton's first step lands above the
    root and from there it falls monotonically onto it; it stops where
    rounding no longer lets it fall.
    """
    a = start
    for i in range(200):
        value, slope = _taylor_coefficients(coeffs, a)[:2]
        if i and not a - value / slope < a:
            return a
        a -= value / slope
    raise RuntimeError(f"Newton found no root of {coeffs} from {start}")


def even_shot(n, k, t, psi, half_length, phi=None, d=None):
    """The even solution u on [-L, L] of the radial problem of
    f_t = sigma_k^(1/k) with u(-L) = u(L) = phi, or with u(0) = d where d is
    given, as a callable on arrays of x, by one shot in plain floats.

    The axis eigenvalue a = u'' - s and the sphere one s = (1 - u'^2)/2
    satisfy sigma_k(T(a, s, ..., s)) = psi^k, and a is its largest real
    root (`_largest_root`), the one in the cone.  Newton starts from the
    previous a where the Taylor coefficients of P there past the first are
    all positive, and from the Cauchy bound 1 + max |c_i / c_d| on the
    roots of P, which lies above those of its derivatives, otherwise.

    psi(x, z) is a callable on arrays like `DirichletProblem.psi`, even in
    x.  Without d, psi must not depend on z: y = (u, u') is integrated with
    u'' = a + s from (0, 0) at x = 0 by DOP853 at rtol 1e-12, with psi read
    at z = 0, and shifted so that u(L) = phi.  With d, psi may depend on z:
    the shot starts from (d, 0), reads psi at z = u and is not shifted.
    The callable's `derivative=1` gives u' (odd in x) in place of u.
    """
    previous = [None]

    def axis(x, s, z):
        coeffs = _radial_sigma_k_polynomial(n, k, t, s, float(psi(x, z)) ** k)
        a = previous[0]
        if a is None or not all(c > 0.0 for c in _taylor_coefficients(coeffs, a)[1:]):
            a = 1.0 + max(abs(c / coeffs[-1]) for c in coeffs[:-1])
        previous[0] = a = _largest_root(coeffs, a)
        return a

    def rhs(x, y):
        s = 0.5 * (1.0 - y[1] * y[1])
        return [y[1], axis(x, s, 0.0 if d is None else y[0]) + s]

    orbit = integrate.solve_ivp(rhs, (0.0, half_length), [0.0 if d is None else d, 0.0],
                                method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True)
    if not orbit.success:
        raise RuntimeError(f"the shot failed: {orbit.message}")
    shift = phi - orbit.y[0, -1] if d is None else 0.0

    def u(x, derivative=0):
        x = np.asarray(x, dtype=float)
        y = orbit.sol(np.abs(x))
        return y[0] + shift if derivative == 0 else np.sign(x) * y[1]

    return u


def scaled_psi_by_closed_form(n, k, l, amplitude, theta, xs):
    """theta f(W[u]) at the points xs for u = amplitude cosh(x) and
    f = (sigma_k / sigma_l)^(1/(k - l)) (l = 0 for the root sigma_k^(1/k)),
    one point at a time in plain floats.

    u' = A sinh x and u'' = A cosh x give the sphere eigenvalue
    s = (1 - u'^2)/2, n - 1 times, and the axis one a = u'' - s, and
    sigma_j(a, s, ..., s) = C(n-1, j) s^j + C(n-1, j-1) a s^(j-1).
    """
    def sigma(j, a, s):
        return math.comb(n - 1, j) * s ** j + (math.comb(n - 1, j - 1) * a * s ** (j - 1) if j else 0.0)

    out = []
    for x in xs:
        s = 0.5 * (1.0 - (amplitude * math.sinh(x)) ** 2)
        a = amplitude * math.cosh(x) - s
        out.append(theta * (sigma(k, a, s) / sigma(l, a, s)) ** (1.0 / (k - l)))
    return out


def separation_margin_by_loop(spec, samples, beta, seed):
    """The separated-normal concavity margins, one (t, mu, lam) sample at a time.

    Draws exactly as the structure suite does (cone pool, t, mu, ball choice
    per round, then one ball direction per ball row in row order) and
    evaluates each sample with the per-row value, gradient and normal of the
    spec.  Returns (kept, min_margin).
    """
    rng = np.random.default_rng(seed)
    n = spec.n
    axis = np.zeros(n)
    axis[-1] = 1.0
    kept = 0
    min_margin = math.inf
    rounds = 0
    while kept < samples:
        rounds += 1
        if rounds > 60:
            raise NumericalError("separation sampling stalled")
        pool = max(256, samples - kept)
        cone_pool = sample_cone(spec, pool, rng, scale_low=-1.0, scale_high=1.5)
        ts = rng.uniform(0.0, 1.0, size=pool)
        mus = 1.0 + rng.uniform(-0.45, 0.45, size=(pool, n))
        use_ball = rng.uniform(size=pool) >= 0.7
        for i in range(pool):
            if kept >= samples:
                break
            t = float(ts[i])
            mu = mus[i]
            if use_ball[i]:
                r = 0.99 * (1.0 - t) / (2.0 * n)
                v = rng.standard_normal(n)
                lam = axis + r * v / np.linalg.norm(v)
                if not spec.contains(lam, t):
                    continue
            else:
                lam = cone_pool[i]
            if not spec.contains(mu) or not spec.contains(lam, t):
                raise ConeDomainError("sample outside the cone")
            g = spec.grad(lam, t)
            g_mu = spec.grad(mu, t)
            if np.linalg.norm(g_mu / np.linalg.norm(g_mu) - g / np.linalg.norm(g)) <= beta:
                continue
            lhs = float(g @ (mu - lam))
            rhs = spec.value(mu, t) - spec.value(lam, t)
            kept += 1
            min_margin = min(min_margin, (lhs - rhs) / (float(g.sum()) + 1.0))
    return kept, min_margin


def boundary_decay_by_loop(spec, samples, rng, rays=64):
    """Decay of f towards the cone boundary, one ray and one bisection step at a time.

    Draws ray directions until one leaves the cone within 60 doublings,
    bisects the exit to 100 halvings, and compares f at 1e-2, 1e-4 and
    1e-6 of the way back from the boundary.  Returns (ordered, worst ratio).
    """
    worst_ratio = 0.0
    ordered = True
    pts = samples[rng.choice(samples.shape[0], size=min(rays, samples.shape[0]), replace=False)]
    for lam in pts:
        scale = max(1.0, float(np.abs(lam).max()))
        for _ in range(40):
            direction = rng.standard_normal(lam.size)
            direction /= np.linalg.norm(direction)
            hi = scale
            for _ in range(60):
                if spec.margin_scores((lam + hi * direction)[None, :])[0] <= 0.0:
                    break
                hi *= 2.0
            else:
                continue
            break
        else:
            raise NumericalError("no exiting ray")
        lo, hi = bisect_exit_by_loop(spec, lam, direction, hi)
        boundary = lam + 0.5 * (lo + hi) * direction
        vals = [spec.value(lam + (1.0 - frac) * (boundary - lam)) for frac in (1e-2, 1e-4, 1e-6)]
        ordered = ordered and vals[0] > vals[1] > vals[2]
        worst_ratio = max(worst_ratio, vals[2] / vals[0])
    return ordered, worst_ratio


def bisect_exit_by_loop(spec, lam, direction, hi):
    """The ends (lo, hi) after 100 plain bisection steps of the ray
    lam + r * direction, r in [0, hi], towards where it leaves the cone,
    one cone test per step."""
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if spec.margin_scores((lam + mid * direction)[None, :])[0] > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def write_profile_by_rows(path, resolved, comments, columns):
    """A profile CSV written the plain way: the two format lines, the
    comments and the column names, then one '%s,%.17g,...' row per node,
    its first column formatted on its own."""
    lines = ["# format yamabe/1 profile",
             "# config " + json.dumps(resolved, sort_keys=True, separators=(",", ":")),
             *comments, "x,u,du,d2u,residual"]
    first, *rest = (np.asarray(col, dtype=float).tolist() for col in columns)
    lines += ["%s,%.17g,%.17g,%.17g,%.17g" % row for row in zip(map("%.17g".__mod__, first), *rest)]
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
