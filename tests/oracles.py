"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the code paths it validates: elementary
symmetric polynomials come from subset enumeration, gradients from central
differences, Jacobian columns from bumping one nodal value of the residual,
cone distances from dense direction sampling, and the stopping time of the
radial problem from integrating the second-order equation itself (never its
first integral).
"""

import itertools
import math

import numpy as np
from scipy import integrate

from yamabe._errors import ConeViolationError
from yamabe.solver import residual


def sigma_by_enumeration(values, k):
    """Sum over all k-element subsets of products, the textbook definition."""
    if k == 0:
        return 1.0
    return float(sum(math.prod(c) for c in itertools.combinations(values, k)))


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


def cone_distance_brute_force(inside_batch, point, rounds=6, batch=2000, seed=0):
    """Distance from an interior point to the boundary of a convex region.

    Samples ray directions, finds the first crossing along each by a
    vectorized bisection and refines around the best direction.  inside_batch
    takes an (m, dim) array and returns a boolean mask of strictly interior
    rows.
    """
    rng = np.random.default_rng(seed)
    point = np.asarray(point, dtype=float)
    dim = point.size
    scale = max(1.0, float(np.abs(point).max()))

    def exit_distances(dirs):
        m = dirs.shape[0]
        hi = np.full(m, scale)
        for _ in range(80):
            inside = inside_batch(point + hi[:, None] * dirs)
            if not inside.any():
                break
            hi[inside] *= 2.0
        lo = np.zeros(m)
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            inside = inside_batch(point + mid[:, None] * dirs)
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        return 0.5 * (lo + hi)

    best = math.inf
    center = rng.standard_normal(dim)
    center /= np.linalg.norm(center)
    spread = 1.0
    for _ in range(rounds):
        dirs = center + spread * rng.standard_normal((batch, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dists = exit_distances(dirs)
        idx = int(np.argmin(dists))
        if dists[idx] < best:
            best = float(dists[idx])
            center = dirs[idx]
        spread *= 0.35
    return best


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
