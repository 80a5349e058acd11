"""Closed-form non-smooth radial solution on the round cylinder.

The radial reduction of

    sigma_k(eigenvalues of W[u]) = n/(k 2^k) C(n-1, k-1) e^(-2k u)

on [-L, L] x S^(n-1) is the second-order equation

    (1 - u'^2)^(k-1) (u'' + (n-2k)/(2k) (1 - u'^2)) = n/(2k) e^(-2k u),

which conserves H(u, u') with

    H(x, y) = e^((2k-n) x) (1 - y^2)^k - e^(-n x).

Starting from u(0) = d < 0, u'(0) = 0, the solution is even, increases to the
value x* = -(1/n) ln|H(d, 0)| in the finite time

    T_d = integral from d to x* of
          (1 - e^((n-2k)/k x) (e^(-n x) + H(d, 0))^(1/k))^(-1/2) dx,

and arrives there with |u'| -> 1 and u'' -> +infinity.  The even extension on
[-T_d, T_d] with boundary value c = x* is therefore C^1 but not C^2 at the two
ends.

u'' stays positive on the orbit, so the slope v = |u'| increases from 0 to 1
on [0, T_d] and parametrizes the half orbit.  In v the equation becomes the
system for (x, u) with dx/dv = 1/u'' and du/dv = v/u'', where

    1/u'' = w^(k-1) / ((n/2k) e^(-2ku) - ((n-2k)/2k) w^k),   w = 1 - v^2,

which is regular on the whole of [0, 1]: 1/u'' is finite at v = 0 and zero at
the degenerate end v = 1.  This module evaluates the closed forms, integrates
that system in one run, whose end x(1) is T_d, inverts x(v) at the grid nodes
and verifies computed profiles against the equation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, optimize

from ._errors import ConeDomainError, NumericalError
from .geometry import CylinderGeometry, RadialProfile, radial_w_eigenvalues
from .symfun import CheckResult

__all__ = [
    "ExampleParams",
    "ExampleSolution",
    "VerifyThresholds",
    "first_integral",
    "d_from_c",
    "equation_residual",
    "half_length",
    "solve_profile",
    "verify_example",
]


@dataclass(frozen=True)
class ExampleParams:
    """Dimension n, symmetric-function order k and boundary value c; the
    center value d < 0 follows from c = -(1/n) ln|H(d, 0)| (d_from_c), and
    the c it implies must agree with c to 1e-10.  Any rule the data break
    raises ValueError naming (n, k, c): n below 3, k outside [2, n], and a c
    that leaves no floating-point d: c not finite or d too far below 0
    (d_from_c), or, from about n c = 16 on, H(d, 0), the difference of two
    numbers within a few ulp of 1, rounding to 0 or implying another c.
    """

    n: int
    k: int
    d: float = field(init=False)
    c: float

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))
        try:
            if self.n < 3:
                raise ValueError("dimension must be at least 3")
            object.__setattr__(self, "d", d_from_c(self.n, self.k, self.c))
            if not self.d < 0:
                raise ValueError("the center value d must be negative")
            if not self.h0 < 0:
                raise ValueError("no floating-point center value d: H(d, 0) rounds to 0")
            if abs(self.boundary_value - self.c) > 1e-10:
                raise ValueError(
                    f"inconsistent (c, d): c={self.c!r} but d implies {self.boundary_value!r}"
                )
        except ValueError as exc:
            raise ValueError(f"no Example 1 data at (n, k, c) = ({self.n}, {self.k}, {self.c!r}): "
                             f"{exc}") from exc

    @property
    def h0(self):
        """Conserved value H(d, 0) < 0."""
        return _h_at_rest(self.n, self.k, self.d)

    @property
    def boundary_value(self):
        """The limit value x* = -(1/n) ln|H(d, 0)| reached at the ends."""
        return -math.log(abs(self.h0)) / self.n + 0.0  # normalize -0.0

    @property
    def rhs_constant(self):
        """The constant n/(k 2^k) C(n-1, k-1) multiplying e^(-2ku)."""
        return self.n / (self.k * 2.0 ** self.k) * math.comb(self.n - 1, self.k - 1)

    @property
    def rhs_root(self):
        """k-th root of rhs_constant, for the degree-one-normalized equation."""
        return self.rhs_constant ** (1.0 / self.k)

    def center_curvature(self):
        """u''(0) = (n e^(-2kd) - (n - 2k)) / (2k), positive for d < 0: the
        second-order equation at (u, u') = (d, 0)."""
        return _acceleration(self, self.d, 0.0)


_EXP_MAX = 709.0    # math.exp overflows above about 709.78


def _h_at_rest(n, k, x):
    return math.exp((2 * k - n) * x) - math.exp(-n * x)


def first_integral(params, x, y):
    """H(x, y) = e^((2k-n)x) (1 - y^2)^k - e^(-nx); requires |y| < 1."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(y) >= 1.0):
        raise ConeDomainError("the slope argument must satisfy |y| < 1")
    n, k = params.n, params.k
    val = np.exp((2 * k - n) * x) * (1.0 - y ** 2) ** k - np.exp(-n * x)
    return float(val) if val.ndim == 0 else val


def d_from_c(n, k, c):
    """The unique d < 0 with -(1/n) ln|H(d, 0)| = c.

    H(., 0) increases from -infinity to 0 on (-infinity, 0), so bisection
    brackets are easy to find; a Newton polish pushes the round-trip residual
    to the rounding level.  d is sought where e^(-n d) and the center's
    right-hand side e^(-2k d) stay below e^_EXP_MAX; ValueError is raised
    where c is not finite or d lies below that range (d < c).
    """
    if not 2 <= k <= n:
        raise ValueError("the construction requires 2 <= k <= n")
    if not math.isfinite(c):
        raise ValueError("c must be finite")
    floor = -_EXP_MAX / max(n, 2 * k)
    no_d = (f"no floating-point center value d: d lies below {floor:.6g}, where "
            f"e^(-n d) or e^(-2k d) exceeds e^{_EXP_MAX:g}")
    if c < floor:
        raise ValueError(no_d)
    target = -math.exp(-n * c)

    def g(d):
        return _h_at_rest(n, k, d) - target

    hi = -1e-8
    while g(hi) < 0.0:
        hi *= 0.5
        if hi > -1e-300:
            raise NumericalError("bracket search failed near zero")
    lo = max(-1.0, floor)
    while g(lo) > 0.0:
        if lo == floor:
            raise ValueError(no_d)
        lo = max(2.0 * lo, floor)
    d = optimize.brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    for _ in range(3):
        h = _h_at_rest(n, k, d)
        dh = (2 * k - n) * math.exp((2 * k - n) * d) + n * math.exp(-n * d)
        step = (h - target) / dh
        if not math.isfinite(step):
            break
        d -= step
    return float(d)


def half_length(params):
    """Half length T_d of the maximal interval: the end X(1) of the slope
    orbit (see _slope_orbit), the same run that solve_profile samples."""
    return float(_slope_orbit(params).y[0, -1])


def _acceleration(params, x, v):
    """u'' from the second-order equation, explicit in (u, u')."""
    n, k = params.n, params.k
    one_minus = 1.0 - v * v
    return (n / (2.0 * k)) * math.exp(-2.0 * k * x) * one_minus ** (1 - k) \
        - (n - 2.0 * k) / (2.0 * k) * one_minus


def _slope_rate(params, u, v):
    """dx/dv = 1/u'' at (u, |u'| = v), with the degenerate factor in the
    numerator: finite at v = 0 and zero at v = 1.  Scalars or arrays."""
    n, k = params.n, params.k
    w = 1.0 - v * v
    return w ** (k - 1) / ((n / (2.0 * k)) * np.exp(-2.0 * k * u) - (n - 2.0 * k) / (2.0 * k) * w ** k)


def _slope_orbit(params):
    """The half orbit as one initial value problem in the slope v, the
    system of the module docstring from (x, u)(0) = (0, d): it is regular on
    [0, 1], so one DOP853 run with dense output reaches the degenerate end,
    and its end X(1) is the half length T."""
    def rhs(v, y):
        rate = _slope_rate(params, y[1], v)
        return [rate, v * rate]

    # near the separatrix (H(d, 0) -> 0-, large c) an integration error du
    # moves the orbit to another level of H and its end by about du / (n |H|),
    # so the tolerance tightens with |H(d, 0)| below 1e-4, down to 1e-13
    # (at (5, 3, 3) the end X(1) is 8.6e-9 T short at 1e-12, 2.1e-10 T at
    # 1e-13 and 1.2e-10 T at 3e-14)
    rtol = min(1e-12, max(1e-13, 1e-8 * abs(params.h0)))
    orbit = integrate.solve_ivp(
        rhs, (0.0, 1.0), [0.0, params.d],
        method="DOP853", rtol=rtol, atol=1e-14, dense_output=True,
    )
    if not orbit.success:
        raise NumericalError(f"initial value integration failed: {orbit.message}")
    return orbit


class _DenseOrbit:
    """The DOP853 dense output of a slope orbit, evaluated in one pass.

    scipy's `OdeSolution` sorts the points, groups them by integrator step
    and calls one `Dop853DenseOutput` per step.  This keeps the same
    interpolant as one table, the F rows of every step in reversed order as
    a (7, 2, nseg) array with t_old, h and y_old per step, and runs scipy's
    Horner loop on all points at once: each point gets the operations
    scipy applies, in scipy's order, so the values agree bit for bit.  The
    table reads the private attributes of scipy's interpolants.
    """

    def __init__(self, orbit):
        steps = orbit.sol.interpolants
        self.ts = orbit.sol.ts          # the knots, ascending from v = 0 to 1
        self.ends = orbit.y[0]          # X at the knots
        self.t_old = np.array([s.t_old for s in steps])
        self.h = np.array([s.h for s in steps])
        self.y_old = np.stack([s.y_old for s in steps], axis=1)
        self.coeffs = np.stack([s.F[::-1] for s in steps], axis=2)

    def __call__(self, v):
        """(X, U) at the slopes v, shape (2, v.size)."""
        # OdeSolution's segment rule for ascending knots: a knot belongs to
        # the step that ends there
        seg = np.clip(np.searchsorted(self.ts, v, side="left") - 1, 0, self.h.size - 1)
        x = (v - self.t_old.take(seg)) / self.h.take(seg)
        one_minus = 1 - x
        y = np.zeros((2, v.size))
        for j, f in enumerate(self.coeffs):
            y += f.take(seg, axis=1)
            y *= one_minus if j % 2 else x
        y += self.y_old.take(seg, axis=1)
        return y


_MAX_SWEEPS = 100   # safeguarded Newton; bisection alone needs about 60


def _orbit(params, dense, times):
    """(u, |u'|) at times in [-T, T] from the slope-parametrized orbit.

    X(v) = |t| is solved by Newton steps in v with X' = 1/u'', safeguarded
    by bisection inside the integrator step that brackets the root (closed,
    since t = 0 has its root at v = 0).  Each sweep evaluates the orbit at
    the open times in one pass of the _DenseOrbit table.  A time stops at
    |X(v) - |t|| <= 4 eps T or at a step within 4 ulp of v; times beyond the
    orbit's end X(1) = T take v = 1.
    """
    knots, ends = dense.ts, dense.ends
    t_max = ends[-1]
    times = np.abs(np.asarray(times, dtype=float))
    if np.any(times > t_max * (1.0 + 1e-12)):
        raise ValueError("evaluation time outside [-T, T]")
    x = np.minimum(times.ravel(), t_max)
    seg = np.clip(np.searchsorted(ends, x, side="right") - 1, 0, knots.size - 2)
    lo, hi = knots[seg], knots[seg + 1]
    v = lo + (hi - lo) * (x - ends[seg]) / (ends[seg + 1] - ends[seg])
    xv, u = np.empty_like(x), np.empty_like(x)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(_MAX_SWEEPS):
        idx = np.flatnonzero(~done)
        if idx.size == 0:
            return u.reshape(times.shape), v.reshape(times.shape)
        xv[idx], u[idx] = dense(v[idx])
        gap = xv - x
        lo = np.where(gap < 0.0, v, lo)
        hi = np.where(gap > 0.0, v, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            trial = v - gap / _slope_rate(params, u, v)
        trial = np.where((trial >= lo) & (trial <= hi), trial, 0.5 * (lo + hi))
        done |= (np.abs(gap) <= 4.0 * np.finfo(float).eps * t_max) \
            | (np.abs(trial - v) <= 4.0 * np.spacing(v))
        v = np.where(done, v, trial)
    raise NumericalError(f"slope inversion did not converge in {_MAX_SWEEPS} sweeps")


@dataclass(frozen=True)
class ExampleSolution:
    """Computed radial solution: the profile, whose geometry's half length
    is the blow-up time T (`t_max`), and a dense evaluator.

    `at` gives the smooth solution at any points of [-T, T], which
    verify_example uses at sub-grid distances from the ends.  It
    inverts the _DenseOrbit table that sampled the profile, so at an
    interior node it gives the profile's u bit for bit.
    """

    params: ExampleParams
    profile: RadialProfile                  # on the geometry of [-T, T]
    _eval_uv: object = field(repr=False)    # times -> (u, |u'|), see _orbit

    @property
    def t_max(self):
        return self.profile.geom.half_length

    def at(self, x):
        """(u, u', u'') at the times x, each with the shape of x, from one
        inversion of the orbit.  At x = +-T, where |u'| = 1, u'' is +inf."""
        x = np.asarray(x, dtype=float)
        u, v = self._eval_uv(x)
        with np.errstate(divide="ignore"):
            d2u = np.array([_acceleration(self.params, ui, vi) for ui, vi in zip(u.ravel(), v.ravel())])
        return u[()], (np.sign(x) * v)[()], d2u.reshape(x.shape)[()]


def solve_profile(params, node_count=401):
    """Integrate the orbit in the slope and sample it on a uniform grid.

    One run of _slope_orbit gives the half length T = X(1) and the dense
    solution.  At each interior node of the grid on [-T, T], X(v) = |x| is
    inverted (_orbit), which gives u = U(v) and |u'| = v; the end nodes take
    the boundary value x* = c.  The grid is the CylinderGeometry of [-T, T]
    with node_count nodes, which raises ValueError below 5 nodes.
    """
    orbit = _slope_orbit(params)
    t_max = float(orbit.y[0, -1])

    eval_uv = functools.partial(_orbit, params, _DenseOrbit(orbit))

    def u_of(grid):
        u = np.full(grid.size, params.boundary_value)
        interior = np.abs(grid) < t_max
        u[interior], _ = eval_uv(grid[interior])
        return u

    geom = CylinderGeometry(t_max, node_count)
    return ExampleSolution(params=params, profile=geom.profile(u_of), _eval_uv=eval_uv)


@dataclass(frozen=True)
class VerifyThresholds:
    interior_residual: float = 1e-7
    boundary_error: float = 1e-6
    drift: float = 1e-8
    d2u_floor: float = 10.0  # the nearest curvature sample must exceed this


# curvature is sampled at t_max * (1 - fraction), nearest the end last
D2U_FRACTIONS = (1e-2, 1e-3, 1e-4)


def _signed_root(values, k):
    """Odd extension of x -> x^(1/k), so out-of-cone residuals stay reportable."""
    return np.sign(values) * np.abs(values) ** (1.0 / k)


def _sigma_k_of_radial(n, k, du, d2u):
    axis, sphere = radial_w_eigenvalues(du, d2u)
    total = math.comb(n - 1, k) * sphere ** k if k <= n - 1 else np.zeros_like(sphere)
    total = total + math.comb(n - 1, k - 1) * axis * sphere ** (k - 1)
    return total


def equation_residual(params, u, du, d2u):
    """sigma_k(W[u])^(1/k) - rhs_root e^(-2u) from u, u' and u''.

    The k-th root is the odd extension (_signed_root), so nodes outside the
    cone keep a finite residual.
    """
    sigk = _sigma_k_of_radial(params.n, params.k, du, d2u)
    return _signed_root(sigk, params.k) - params.rhs_root * np.exp(-2.0 * u)


def verify_example(solution, thresholds=None):
    """Check an :class:`ExampleSolution` against the closed-form construction.

    The equation is evaluated with the solution's dense derivatives at the
    interior nodes, and curvature at the exact sub-grid offsets of
    D2U_FRACTIONS; one `at` call serves both.  Returns the residual column
    of profile.csv (the equation inside, u - c at the two ends) and the
    CheckResult rows of report.json; nothing raises.
    """
    params = solution.params
    th = thresholds or VerifyThresholds()
    profile = solution.profile
    t_max = solution.t_max
    interior = np.abs(profile.grid) < t_max
    u = profile.u[interior]
    offsets = np.array([t_max * (1.0 - f) for f in D2U_FRACTIONS])
    _, du, d2u = solution.at(np.concatenate([profile.grid[interior], offsets]))
    curvature = [float(x) for x in d2u[u.size:]]
    du, d2u = du[:u.size], d2u[:u.size]

    column = profile.u - params.c
    column[interior] = equation_residual(params, u, du, d2u)
    residual = float(np.abs(column[interior]).max())
    one_minus = float((1.0 - du ** 2).min())
    safe = np.abs(du) < 1.0
    drift = float(np.abs(
        first_integral(params, u[safe], du[safe]) - params.h0
    ).max()) if np.any(safe) else math.inf
    boundary_error = float(max(abs(column[0]), abs(column[-1])))
    increasing = all(a < b for a, b in zip(curvature, curvature[1:]))

    return column, [
        CheckResult("interior_residual", residual <= th.interior_residual,
                    residual, th.interior_residual),
        CheckResult("slope_subunit", one_minus > 0.0, one_minus, 0.0),
        CheckResult("boundary_error", boundary_error <= th.boundary_error,
                    boundary_error, th.boundary_error),
        CheckResult("first_integral_drift", drift <= th.drift, drift, th.drift),
        CheckResult("curvature_increasing", increasing, curvature[-1] / curvature[0], 1.0),
        CheckResult("curvature_floor", curvature[-1] > th.d2u_floor, curvature[-1], th.d2u_floor),
    ]
