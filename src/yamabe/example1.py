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
ends.  This module evaluates the closed forms, integrates the initial value
problem and verifies computed profiles against the equation.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, optimize

from ._errors import ConeDomainError, NumericalError
from .geometry import RadialProfile, radial_w_eigenvalues
from .symfun import CheckResult

__all__ = [
    "ExampleParams",
    "ExampleSolution",
    "ExampleReport",
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
    """Dimension n, symmetric-function order k, center value d and boundary value c.

    d < 0 and c are linked by c = -(1/n) ln|H(d, 0)|; both are stored and the
    pair must be consistent to 1e-10.
    """

    n: int
    k: int
    d: float
    c: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("dimension must be at least 3")
        if not 2 <= self.k <= self.n:
            raise ValueError("the construction requires 2 <= k <= n")
        if not self.d < 0:
            raise ValueError("the center value d must be negative")
        implied = -math.log(abs(_h_at_rest(self.n, self.k, self.d))) / self.n
        if abs(implied - self.c) > 1e-10:
            raise ValueError(
                f"inconsistent (c, d): c={self.c!r} but d implies {implied!r}"
            )

    @classmethod
    def from_c(cls, n, k, c):
        return cls(n=n, k=k, d=d_from_c(n, k, c), c=float(c))

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
        """u''(0) = (n e^(-2kd) - (n - 2k)) / (2k), positive for d < 0."""
        return (self.n * math.exp(-2.0 * self.k * self.d) - (self.n - 2.0 * self.k)) / (2.0 * self.k)


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
    to the rounding level.
    """
    if not 2 <= k <= n:
        raise ValueError("the construction requires 2 <= k <= n")
    target = -math.exp(-n * c)

    def g(d):
        return _h_at_rest(n, k, d) - target

    hi = -1e-8
    while g(hi) < 0.0:
        hi *= 0.5
        if hi > -1e-300:
            raise NumericalError("bracket search failed near zero")
    lo = -1.0
    while g(lo) > 0.0:
        lo *= 2.0
        if lo < -1e6:
            raise NumericalError("bracket search failed towards -infinity")
    d = optimize.brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    for _ in range(3):
        h = _h_at_rest(n, k, d)
        dh = (2 * k - n) * math.exp((2 * k - n) * d) + n * math.exp(-n * d)
        step = (h - target) / dh
        if not math.isfinite(step):
            break
        d -= step
    return float(d)


def _slope_squared(params, x):
    """u'^2 as a function of u along the orbit through (d, 0).

    Equals 1 - e^((n-2k)/k x) (e^(-nx) + H(d,0))^(1/k); the inner factor is
    clamped at zero since it crosses zero at x* up to rounding.
    """
    n, k, h0 = params.n, params.k, params.h0
    x = np.asarray(x, dtype=float)
    inner = np.maximum(np.exp(-n * x) + h0, 0.0)
    val = 1.0 - np.exp((n - 2 * k) / k * x) * inner ** (1.0 / k)
    return float(val) if val.ndim == 0 else val


def half_length(params):
    """Half length T_d of the maximal interval, by singular quadrature.

    The integrand behaves like (x - d)^(-1/2) at the lower endpoint; the
    substitution x = d + s^2 removes the singularity (the transformed
    integrand tends to sqrt(2/u''(0)) as s -> 0) and equals
    2 s / sqrt(u'^2(d + s^2)) elsewhere.
    """
    span = params.boundary_value - params.d
    s_max = math.sqrt(span)
    limit_value = math.sqrt(2.0 / params.center_curvature())
    cut = 1e-6 * s_max

    def integrand(s):
        if s < cut:
            return limit_value
        q = _slope_squared(params, params.d + s * s)
        if q <= 0.0:
            return limit_value
        return 2.0 * s / math.sqrt(q)

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, abserr = integrate.quad(
                integrand, 0.0, s_max, epsabs=1e-12, epsrel=1e-12, limit=200
            )
        except integrate.IntegrationWarning as exc:
            raise NumericalError(f"half-length quadrature did not converge: {exc}") from exc
    if abserr > 1e-10:
        raise NumericalError(
            f"half-length quadrature error estimate {abserr:.3e} exceeds 1e-10"
        )
    return float(value)


def _acceleration(params, x, v):
    """u'' from the second-order equation, explicit in (u, u')."""
    n, k = params.n, params.k
    one_minus = 1.0 - v * v
    return (n / (2.0 * k)) * math.exp(-2.0 * k * x) * one_minus ** (1 - k) \
        - (n - 2.0 * k) / (2.0 * k) * one_minus


_SWITCH_LEVEL = 1e-4  # switch when the degeneracy factor (1 - u'^2)^(k-1) drops below


def _orbit(params, t_max, phase1, phase2, switch_time, times):
    """(u, |u'|) at times in [-T, T] from the two initial value solutions:
    the second-order one up to switch_time, the reduced one after it."""
    times = np.abs(np.asarray(times, dtype=float))
    if np.any(times > t_max * (1.0 + 1e-12)):
        raise ValueError("evaluation time outside [-T, T]")
    times = np.minimum(times, t_max)
    u, v = np.empty_like(times), np.empty_like(times)
    early = times <= switch_time
    if np.any(early):
        u[early], v[early] = phase1.sol(times[early])
    late = ~early
    if np.any(late):
        u[late] = phase2.sol(times[late])[0]
        v[late] = np.sqrt(np.maximum(_slope_squared(params, u[late]), 0.0))
    return u, v


@dataclass(frozen=True)
class ExampleSolution:
    """Computed radial solution: grid profile plus dense evaluators.

    The profile stores u on the grid (derivatives on the grid are stencil
    based, as for any profile).  The callables u_at, du_at and d2u_at give the
    underlying smooth solution at arbitrary interior points, which the
    verification report uses at sub-grid distances from the ends.
    """

    params: ExampleParams
    t_max: float
    profile: RadialProfile
    _eval_uv: object = field(repr=False)    # times -> (u, |u'|), see _orbit

    def u_at(self, t):
        t = np.asarray(t, dtype=float)
        u, _ = self._eval_uv(t)
        return float(u) if t.ndim == 0 else u

    def du_at(self, t):
        t = np.asarray(t, dtype=float)
        _, v = self._eval_uv(t)
        signed = np.sign(t) * v
        return float(signed) if t.ndim == 0 else signed

    def d2u_at(self, t):
        t = np.asarray(t, dtype=float)
        u, v = self._eval_uv(t)
        acc = np.array([_acceleration(self.params, ui, vi) for ui, vi in zip(np.atleast_1d(u), np.atleast_1d(v))])
        return float(acc[0]) if t.ndim == 0 else acc.reshape(t.shape)


def solve_profile(params, node_count=401):
    """Integrate the initial value problem and sample it on a uniform grid.

    The second-order equation is integrated from the center until
    1 - u'^2 < 1e-4, where it degenerates; from there the first-order reduced
    form u' = sqrt(1 - e^((n-2k)/k u) (e^(-nu) + H(d,0))^(1/k)) carries the
    solution to the end of the interval.  End values are attached by
    continuity (u = x*, |u'| = 1), since no integrator reaches the degenerate
    endpoint itself.
    """
    if node_count < 5:
        raise ValueError("node_count must be at least 5")
    t_max = half_length(params)

    def rhs1(_, y):
        return [y[1], _acceleration(params, y[0], y[1])]

    switch_at = _SWITCH_LEVEL ** (1.0 / max(params.k - 1, 1))

    def near_degenerate(_, y):
        return (1.0 - y[1] ** 2) - switch_at

    near_degenerate.terminal = True
    near_degenerate.direction = -1.0

    sol1 = integrate.solve_ivp(
        rhs1, (0.0, t_max * 1.01), [params.d, 0.0],
        method="DOP853", rtol=1e-12, atol=1e-14,
        dense_output=True, events=near_degenerate,
    )
    if not sol1.success:
        raise NumericalError(f"initial value integration failed: {sol1.message}")

    if sol1.t_events[0].size:
        switch_time = float(sol1.t_events[0][0])
    else:
        switch_time = float(sol1.t[-1])

    sol2 = None
    if switch_time < t_max:
        u_switch = float(sol1.sol(switch_time)[0])

        def rhs2(_, y):
            return [math.sqrt(max(_slope_squared(params, y[0]), 0.0))]

        sol2 = integrate.solve_ivp(
            rhs2, (switch_time, t_max), [u_switch],
            method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True,
        )
        if not sol2.success:
            raise NumericalError(f"reduced-form integration failed: {sol2.message}")

    eval_uv = functools.partial(_orbit, params, t_max, sol1, sol2, switch_time)

    def u_of(grid):
        u = np.full(grid.size, params.boundary_value)
        interior = np.abs(grid) < t_max
        u[interior], _ = eval_uv(grid[interior])
        return u

    profile = RadialProfile.uniform(t_max, node_count, u_of)
    return ExampleSolution(params=params, t_max=t_max, profile=profile, _eval_uv=eval_uv)


@dataclass(frozen=True)
class VerifyThresholds:
    interior_residual: float = 1e-7
    boundary_error: float = 1e-6
    drift: float = 1e-8
    d2u_floor: float = 10.0  # the nearest curvature sample must exceed this


# curvature is sampled at t_max * (1 - fraction), nearest the end last
D2U_FRACTIONS = (1e-2, 1e-3, 1e-4)


@dataclass
class ExampleReport:
    """Verification record for a computed radial solution."""

    thresholds: VerifyThresholds
    residual: np.ndarray        # per node: the equation inside, u - c at the two ends
    max_interior_residual: float
    min_one_minus_slope_sq: float
    boundary_error: float
    max_drift: float
    d2u_samples: tuple          # curvature at t_max * (1 - D2U_FRACTIONS)

    @property
    def d2u_increasing(self):
        return all(a < b for a, b in zip(self.d2u_samples, self.d2u_samples[1:]))

    @property
    def d2u_last_over_first(self):
        return self.d2u_samples[-1] / self.d2u_samples[0]

    @property
    def checks(self):
        th = self.thresholds
        return [
            CheckResult("interior_residual", self.max_interior_residual <= th.interior_residual,
                        self.max_interior_residual, th.interior_residual),
            CheckResult("slope_subunit", self.min_one_minus_slope_sq > 0.0,
                        self.min_one_minus_slope_sq, 0.0),
            CheckResult("boundary_error", self.boundary_error <= th.boundary_error,
                        self.boundary_error, th.boundary_error),
            CheckResult("first_integral_drift", self.max_drift <= th.drift,
                        self.max_drift, th.drift),
            CheckResult("curvature_increasing", self.d2u_increasing,
                        self.d2u_last_over_first, 1.0),
            CheckResult("curvature_floor", self.d2u_samples[-1] > th.d2u_floor,
                        self.d2u_samples[-1], th.d2u_floor),
        ]

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def _signed_root(values, k):
    """Odd extension of x -> x^(1/k), so out-of-cone residuals stay reportable."""
    return np.sign(values) * np.abs(values) ** (1.0 / k)


def _sigma_k_of_radial(n, k, du, d2u):
    axis, sphere = radial_w_eigenvalues(n, du, d2u)
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


def verify_example(params, solution, thresholds=None):
    """Check an :class:`ExampleSolution` against the closed-form construction.

    The equation is evaluated with the solution's dense derivatives at the
    interior nodes, and curvature at the exact sub-grid offsets of
    D2U_FRACTIONS.  All findings go into the report; nothing raises.
    """
    thresholds = thresholds or VerifyThresholds()
    profile = solution.profile
    t_max = solution.t_max
    interior = np.abs(profile.grid) < t_max
    xs = profile.grid[interior]
    u = profile.u[interior]
    du = solution.du_at(xs)
    d2u = solution.d2u_at(xs)
    offsets = np.array([t_max * (1.0 - f) for f in D2U_FRACTIONS])
    d2u_samples = tuple(float(x) for x in solution.d2u_at(offsets))

    column = profile.u - params.c
    column[interior] = equation_residual(params, u, du, d2u)
    one_minus = 1.0 - du ** 2
    safe = np.abs(du) < 1.0
    drift = np.abs(
        first_integral(params, u[safe], du[safe]) - params.h0
    ) if np.any(safe) else np.array([math.inf])
    boundary_error = max(abs(profile.u[0] - params.c), abs(profile.u[-1] - params.c))

    return ExampleReport(
        thresholds=thresholds,
        residual=column,
        max_interior_residual=float(np.abs(column[interior]).max()),
        min_one_minus_slope_sq=float(one_minus.min()),
        boundary_error=float(boundary_error),
        max_drift=float(drift.max()),
        d2u_samples=d2u_samples,
    )
