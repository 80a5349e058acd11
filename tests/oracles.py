"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the code paths it validates: elementary
symmetric polynomials come from subset enumeration (and, for bit-exact
comparisons, from the recurrence on a tuple-per-row layout), their
gradients from deleting one coordinate at a time, other gradients from
central differences, the structure suites from one sample and one bisection
step at a time, Jacobian columns from bumping one nodal value of the
residual, the conformal curvature from the general transformation law, the
stopping time of the radial problem from integrating the second-order
equation itself (never its first integral), and profile CSVs from Python's
own '%.17g', one row at a time.  `BrokenHomogeneitySpec` is a cone function
built to fail a structure check.
"""

import itertools
import json
import math

import numpy as np
from scipy import integrate

from yamabe._errors import ConeDomainError, ConeViolationError, NumericalError
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


class BrokenHomogeneitySpec:
    """f = sigma_1^2 on Gamma_1, with what `verify_structure` calls of a spec.

    Degree two instead of one, so the homogeneity check must flag it.
    Positivity, monotonicity and the cone test are genuine.
    """

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

    def grad_t_many(self, t, values):
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


def banded_to_dense(ab):
    """Expand tridiagonal (3, m) solve_banded storage to a dense matrix."""
    m = ab.shape[1]
    dense = np.zeros((m, m))
    dense[np.arange(m), np.arange(m)] = ab[1]
    dense[np.arange(m - 1), np.arange(1, m)] = ab[0, 1:]
    dense[np.arange(1, m), np.arange(m - 1)] = ab[2, :-1]
    return dense


def fd_jacobian_column(problem, t, profile, j):
    """Richardson-extrapolated central-difference column j of the residual.

    Bumping u_j alone puts an eps/h^2 rounding into every second difference,
    so the base step scales with the local spacing squared; it shrinks
    tenfold while a bumped profile leaves the cone.
    """
    grid, u = profile.grid, profile.u
    h_loc = min(grid[j] - grid[j - 1], grid[j + 1] - grid[j])
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
                if not spec.in_cone_t(t, lam):
                    continue
            else:
                lam = cone_pool[i]
            if not spec.contains(mu) or not spec.in_cone_t(t, lam):
                raise ConeDomainError("sample outside the cone")
            g = spec.grad_t(t, lam)
            g_mu = spec.grad_t(t, mu)
            if np.linalg.norm(g_mu / np.linalg.norm(g_mu) - g / np.linalg.norm(g)) <= beta:
                continue
            lhs = float(g @ (mu - lam))
            rhs = spec.value_t(t, mu) - spec.value_t(t, lam)
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
        lo = 0.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if spec.margin_scores((lam + mid * direction)[None, :])[0] > 0.0:
                lo = mid
            else:
                hi = mid
        boundary = lam + 0.5 * (lo + hi) * direction
        vals = [spec.value(lam + (1.0 - frac) * (boundary - lam)) for frac in (1e-2, 1e-4, 1e-6)]
        ordered = ordered and vals[0] > vals[1] > vals[2]
        worst_ratio = max(worst_ratio, vals[2] / vals[0])
    return ordered, worst_ratio


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
