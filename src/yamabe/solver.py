"""Damped Newton solver with continuation in t for the radial Dirichlet problem.

The unknown is a radial profile u on [-L, L]; the discrete system is

    G_i(u) = f_t(eigenvalues of W[u](x_i)) - psi(x_i, u_i)   at interior nodes,
    G_0(u) = u_0 - phi_left,   G_{m-1}(u) = u_{m-1} - phi_right,

with the eigenvalues coming from the two radial expressions (axis and sphere
directions), so each interior row couples only to the three-point stencil and
the Jacobian is tridiagonal.  The Jacobian is assembled analytically through
the chain rule in (u_i, u'_i, u''_i).  On every solve it is checked once
against a Richardson finite difference of the residual along one smooth
probe direction, in O(m) memory and with a fixed relative tolerance.

Newton evaluates each state once: one residual call supplies the residual
vector and the minimum cone margin (a trial outside the cone raises there),
and the returned state carries them with the norm of every accepted step.
Residual, Jacobian and cone screen go through the spec's two-value kernel
`radial_eval` on the (axis, sphere) eigenvalue vectors; it is bit-identical
to the spec's `margin_scores_t`, `value_t_many` and `grad_t_many` on the full
(m, n) eigenvalue rows.

Continuation walks an ascending t schedule, warm-starting each solve from the
previous profile, and records per-t monitors: sup norms of u and its first
two differences, the residual norm, a distance-like cone margin and the
Newton iteration count.  Divergence of sup|u''| as t approaches 1 is expected
behavior for boundary data without a smooth subsolution, so nonconvergence is
reported rather than retried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from ._errors import (
    ConeViolationError,
    ContinuationError,
    NonconvergenceError,
    NumericalError,
    StepFailureError,
)
from .geometry import (
    RadialProfile,
    first_derivative,
    radial_w_eigenvalues,
    second_derivative,
)
from .symfun import CONE_MARGIN, CheckResult

__all__ = [
    "DirichletProblem",
    "NewtonOptions",
    "ContinuationState",
    "ContinuationReport",
    "SubsolutionReport",
    "DEFAULT_T_SCHEDULE",
    "residual",
    "jacobian",
    "newton_solve",
    "continuation_run",
    "continuation_states",
    "check_t_schedule",
    "check_subsolution",
    "cone_margin_check",
    "estimate_monitors",
]

DEFAULT_T_SCHEDULE = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.975, 0.99)
JACOBIAN_CHECK_TOL = 1e-6
MAX_BACKTRACKS = 50          # step halvings per Newton iteration
SUBSOLUTION_TOL = -1e-10     # f(W[u]) - psi may fall this far below zero


@dataclass(frozen=True)
class DirichletProblem:
    """Problem data for the radial Dirichlet boundary value problem.

    psi(x, z) > 0 with psi_z <= 0 is the prescribed right-hand side; both
    callables must accept numpy arrays in x and z.  The optional subsolution
    profile must match the boundary values exactly (to 1e-12); it doubles as
    the default continuation start.  psi is validated on the window from 2
    below to 2 above the boundary values and the subsolution's range.
    """

    geom: object
    spec: object
    psi: object
    psi_z: object
    phi_left: float
    phi_right: float
    subsolution: RadialProfile | None = None

    def __post_init__(self):
        if self.geom.n != self.spec.n:
            raise ValueError("geometry and symmetric function disagree on the dimension")
        zs = [self.phi_left, self.phi_right]
        if self.subsolution is not None:
            zs += [float(self.subsolution.u.min()), float(self.subsolution.u.max())]
        z_lo, z_hi = min(zs) - 2.0, max(zs) + 2.0
        xs = np.linspace(-self.geom.half_length, self.geom.half_length, 41)
        xx, zz = np.meshgrid(xs, np.linspace(z_lo, z_hi, 21))
        if not np.all(np.asarray(self.psi(xx, zz)) > 0.0):
            raise ValueError("psi must be positive on the working range")
        if not np.all(np.asarray(self.psi_z(xx, zz)) <= 1e-10):
            raise ValueError("psi_z must be nonpositive on the working range")
        dz = 1e-6 * max(1.0, abs(z_lo), abs(z_hi))
        sampled = (np.asarray(self.psi(xx, zz + dz)) - np.asarray(self.psi(xx, zz - dz))) / (2 * dz)
        if not np.all(sampled <= 1e-10):
            raise ValueError("sampled z-derivative of psi contradicts the declared psi_z")
        if self.subsolution is not None:
            sub = self.subsolution
            if sub.grid[0] != -self.geom.half_length or sub.grid[-1] != self.geom.half_length:
                raise ValueError("subsolution grid must span exactly [-L, L]")
            if abs(sub.u[0] - self.phi_left) > 1e-12 or abs(sub.u[-1] - self.phi_right) > 1e-12:
                raise ValueError("subsolution must match the boundary values")


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-10
    max_iter: int = 50
    jacobian_check: bool = True   # False only in perfbench's blow-up workload, kept for it


@dataclass(frozen=True)
class ContinuationState:
    """One converged (or best-effort) solve at a fixed t."""

    t: float
    profile: RadialProfile
    residual: np.ndarray     # per-node residual vector of the profile
    monitors: tuple          # (sup|u|, sup|u'|, sup|u''|)
    cone_margin: float       # minimum interior margin score at t
    newton_iters: int
    converged: bool
    increment_norms: tuple   # alpha * sup|delta| of each accepted Newton step

    @property
    def residual_norm(self):
        return float(np.abs(self.residual).max())


def estimate_monitors(profile):
    """Sup norms of the grid function and its stencil derivatives."""
    return (
        float(np.abs(profile.u).max()),
        float(np.abs(profile.du).max()),
        float(np.abs(profile.d2u).max()),
    )


def _grid_for(problem, profile):
    ell = problem.geom.half_length
    if profile.grid[0] != -ell or profile.grid[-1] != ell:
        raise ValueError("profile grid must span exactly [-L, L]")
    return profile.grid


def _radial_eval(problem, t, du, d2u, grad=False):
    """The spec's radial kernel at the interior nodes."""
    axis, sphere = radial_w_eigenvalues(problem.geom.n, du[1:-1], d2u[1:-1])
    return problem.spec.radial_eval(t, axis, sphere, grad=grad)


def _inside_cone(problem, t, profile):
    scores = _radial_eval(problem, t, profile.du, profile.d2u).scores
    return scores.min() > problem.spec.margin


def _residual(problem, t, grid, u, du, d2u):
    """Residual vector and minimum cone margin score from nodal values and
    their stencil derivatives; raises when a node leaves the cone."""
    scores, value, _, _ = _radial_eval(problem, t, du, d2u)
    bad = np.nonzero(scores <= problem.spec.margin)[0]
    if bad.size:
        node = int(bad[0]) + 1
        raise ConeViolationError(
            f"eigenvalues at node {node} (x={grid[node]:.6g}) left the cone "
            f"(margin score {scores[bad[0]]:.3e})",
            node=node,
        )
    out = np.empty(grid.size)
    out[0] = u[0] - problem.phi_left
    out[-1] = u[-1] - problem.phi_right
    out[1:-1] = value - np.asarray(problem.psi(grid[1:-1], u[1:-1]), dtype=float)
    return out, float(scores.min())


def residual(problem, t, profile):
    """Per-node residual vector; raises when a node leaves the cone."""
    grid = _grid_for(problem, profile)
    return _residual(problem, t, grid, profile.u, profile.du, profile.d2u)[0]


def jacobian(problem, t, profile):
    """Tridiagonal Jacobian in banded (3, m) storage (solve_banded layout).

    Interior rows follow from the chain rule: with a = axis eigenvalue,
    s = sphere eigenvalue, da/du'' = 1, da/du' = u', ds/du' = -u', so

        dG_i/du_j = g_a c2_ij + (g_a - g_s) u'_i c1_ij - psi_z delta_ij,

    where g_a is the f_t gradient in the axis slot, g_s the summed sphere
    slots and c1, c2 the interior stencil weights of u' and u'', which the
    profile's GridStencils holds.  Boundary rows are identity rows.
    """
    grid = _grid_for(problem, profile)
    m = grid.size
    _, _, g_axis, g_sphere = _radial_eval(problem, t, profile.du, profile.d2u, grad=True)
    du = profile.du[1:-1]
    psi_z = np.asarray(problem.psi_z(grid[1:-1], profile.u[1:-1]), dtype=float)
    c1 = profile.stencils.first.inner
    c2 = profile.stencils.second.inner

    coeff = (g_axis - g_sphere) * du
    lower = g_axis * c2[0] + coeff * c1[0]
    diag = g_axis * c2[1] + coeff * c1[1] - psi_z
    upper = g_axis * c2[2] + coeff * c1[2]

    ab = np.zeros((3, m))
    ab[1, 0] = 1.0
    ab[1, -1] = 1.0
    ab[1, 1:-1] = diag
    ab[0, 2:] = upper          # ab[0, j] holds A[j-1, j]
    ab[2, :-2] = lower         # ab[2, j] holds A[j+1, j]
    return ab


def _check_jacobian(problem, t, profile, ab):
    """Guard the analytic Jacobian with one directional derivative.

    J v, a banded matvec, is compared with a Richardson-extrapolated central
    difference of the residual along the smooth probe
    v = cos(pi x / 3L) + x / 4L.  The probe is nonzero at both ends and not
    even, so the boundary rows and both off-diagonal bands enter J v.  The
    stencils are linear, so the perturbed state is (u, u', u'') + s (v, v', v'')
    with v', v'' taken once from v: the eps/h^2 rounding of differencing
    u + s v never enters the quotient, and memory stays O(m).  The step
    starts at 1e-6 and shrinks tenfold, at most three times, on a cone exit
    or while the central differences at s and s/2 disagree by more than the
    tolerance.
    """
    grid = profile.grid
    ell = problem.geom.half_length
    v = np.cos(np.pi * grid / (3.0 * ell)) + grid / (4.0 * ell)
    dv = first_derivative(grid, v, profile.stencils)
    d2v = second_derivative(grid, v, profile.stencils)
    jv = ab[1] * v
    jv[:-1] += ab[0, 1:] * v[1:]
    jv[1:] += ab[2, :-1] * v[:-1]

    def central(s):
        plus, _ = _residual(problem, t, grid, profile.u + s * v, profile.du + s * dv,
                            profile.d2u + s * d2v)
        minus, _ = _residual(problem, t, grid, profile.u - s * v, profile.du - s * dv,
                             profile.d2u - s * d2v)
        return (plus - minus) / (2.0 * s)

    step, err = 1e-6, None
    for _ in range(4):
        try:
            coarse, fine = central(step), central(0.5 * step)
        except ConeViolationError:
            step *= 0.1
            continue
        fd = (4.0 * fine - coarse) / 3.0
        scale = max(np.abs(fd).max(), 1.0)
        err = np.abs(jv - fd).max() / scale
        # A deviation counts once the two central differences agree: while
        # they do not, the step is too coarse for the residual's curvature,
        # as it is close to the cone boundary, and a smaller one is tried.
        if err <= JACOBIAN_CHECK_TOL or np.abs(fine - coarse).max() / scale <= JACOBIAN_CHECK_TOL:
            break
        step *= 0.1
    if err is None:
        raise NumericalError(f"could not difference the residual inside the cone at t={t}")
    if err > JACOBIAN_CHECK_TOL:
        raise NumericalError(
            f"analytic Jacobian deviates from the directional finite difference "
            f"by {err:.3e} at t={t} (tolerance {JACOBIAN_CHECK_TOL:.0e})"
        )


def _state_from(t, profile, res, margin, iters, converged, increments):
    return ContinuationState(
        t=t,
        profile=profile,
        residual=res,
        monitors=estimate_monitors(profile),
        cone_margin=margin,
        newton_iters=iters,
        converged=converged,
        increment_norms=tuple(increments),
    )


def newton_solve(problem, t, init, opts=None):
    """Damped Newton iteration at fixed t.

    A trial step is accepted only when every interior node keeps a positive
    cone margin and the residual sup norm decreases; the step is halved up to
    MAX_BACKTRACKS times otherwise.  Raises ConeViolationError when the
    initial profile leaves the cone, StepFailureError when no damped step is
    acceptable and NonconvergenceError when the iteration budget runs out;
    the last two carry the best state reached.
    """
    opts = opts or NewtonOptions()
    grid = _grid_for(problem, init)
    profile = init
    res, margin = _residual(problem, t, grid, init.u, init.du, init.d2u)
    norm = float(np.abs(res).max())
    increments = []
    if norm <= opts.tol:
        return _state_from(t, profile, res, margin, 0, True, increments)

    checked = not opts.jacobian_check
    for iteration in range(1, opts.max_iter + 1):
        ab = jacobian(problem, t, profile)
        if not checked:
            _check_jacobian(problem, t, profile, ab)
            checked = True
        try:
            delta = solve_banded((1, 1), ab, -res)
        except np.linalg.LinAlgError as exc:
            raise StepFailureError(
                f"singular Jacobian at t={t}",
                state=_state_from(t, profile, res, margin, iteration - 1, False, increments),
            ) from exc

        alpha = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            trial = profile.with_values(profile.u + alpha * delta)
            try:
                trial_res, trial_margin = _residual(problem, t, grid, trial.u, trial.du, trial.d2u)
            except ConeViolationError:
                pass
            else:
                trial_norm = float(np.abs(trial_res).max())
                if trial_norm < norm or trial_norm <= opts.tol:
                    break
            alpha *= 0.5
        else:
            raise StepFailureError(
                f"no acceptable damped step at t={t} (residual {norm:.3e})",
                state=_state_from(t, profile, res, margin, iteration - 1, False, increments),
            )

        increments.append(float(alpha * np.abs(delta).max()))
        profile, res, margin, norm = trial, trial_res, trial_margin, trial_norm
        if norm <= opts.tol:
            return _state_from(t, profile, res, margin, iteration, True, increments)

    raise NonconvergenceError(
        f"Newton did not reach tol={opts.tol:.1e} in {opts.max_iter} iterations "
        f"at t={t} (residual {norm:.3e})",
        state=_state_from(t, profile, res, margin, opts.max_iter, False, increments),
    )


def _ratio(hi, lo):
    """hi / lo, where a monitor below 1e-14 counts as zero and 0 / 0 as 1."""
    if lo > 1e-14:
        return float(hi / lo)
    return 1.0 if hi <= 1e-14 else math.inf


@dataclass
class ContinuationReport:
    """Converged states of a continuation run plus derived summaries.

    failed_t is the t at which the run stopped, None when it went through
    the whole schedule.
    """

    states: list
    failed_t: float | None

    def monitor_growth(self):
        """Max over the schedule of each monitor relative to its first value.

        This is the boundedness statement the continuation is expected to
        exhibit when a subsolution anchors it: monitors may relax, but none
        may grow beyond a modest factor of where the schedule started.
        """
        table = np.array([s.monitors for s in self.states])
        return tuple(_ratio(col.max(), base) for col, base in zip(table.T, table[0]))

    def monitor_spread(self):
        """Max/min ratio of each monitor across the schedule (informational)."""
        table = np.array([s.monitors for s in self.states])
        return tuple(_ratio(col.max(), col.min()) for col in table.T)

    def uniform_within(self, factor):
        return all(f <= factor for f in self.monitor_growth())

    def checks(self, factor):
        """The rows uniform_growth (when a factor is given and some t was
        solved) and full_schedule.  Bounded monitors are only promised when
        a subsolution anchors the family; without one, callers pass None."""
        rows = []
        if factor is not None and self.states:
            rows.append(CheckResult("uniform_growth", self.uniform_within(factor),
                                    max(self.monitor_growth()), factor))
        failed = self.failed_t is not None
        rows.append(CheckResult("full_schedule", not failed,
                                self.failed_t if failed else -1.0, -1.0))
        return rows

    def curvature_scaled(self):
        """(1 - t) * sup|u''| per state.

        On the non-smooth Example 1 data sup|u''| grows like (1-t)^(-p), with
        p measured between about 0.45 and 0.58 on t in [0.9, 0.999], so this
        product falls as t approaches 1 rather than staying in a band.
        """
        return [(s.t, (1.0 - s.t) * s.monitors[2]) for s in self.states]


def _restore_feasibility(problem, t, profile, anchor):
    """Blend a warm start that left the cone of t towards the anchor.

    The cones shrink as t grows, so the converged profile of the previous t
    can sit slightly outside the next cone.  The anchor (subsolution or the
    run's start profile) lies in the t = 1 cone with a real margin, hence in
    every interpolated cone; the smallest blend restoring a positive margin
    wins.  Returns None when no blend does.
    """
    ladder = (1e-3, 3e-3, 0.01, 0.03, 0.1, 0.2, 0.4, 0.7, 1.0)
    for i, theta in enumerate(ladder):
        blend = profile.with_values((1.0 - theta) * profile.u + theta * anchor.u)
        if _inside_cone(problem, t, blend):
            # take one more rung for headroom; the blend at the first feasible
            # theta can sit arbitrarily close to the cone boundary
            for theta2 in ladder[i + 1:i + 2]:
                blend2 = profile.with_values((1.0 - theta2) * profile.u + theta2 * anchor.u)
                if _inside_cone(problem, t, blend2):
                    return blend2
            return blend
    return None


def check_t_schedule(t_schedule):
    """The schedule as a tuple of floats, DEFAULT_T_SCHEDULE for None.
    Raises ValueError unless it is non-empty, strictly ascending and within [0, 1]."""
    schedule = tuple(map(float, DEFAULT_T_SCHEDULE if t_schedule is None else t_schedule))
    if not schedule:
        raise ValueError("empty t schedule")
    # written so that a NaN fails the checks
    if not all(b > a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("t schedule must be strictly ascending")
    if not 0.0 <= schedule[0] <= schedule[-1] <= 1.0:
        raise ValueError("t schedule must stay within [0, 1]")
    return schedule


def continuation_states(problem, t_schedule=None, opts=None, init=None):
    """Solve along an ascending t schedule with warm starts, yielding each
    state as soon as it has converged.

    The arguments are checked here, before the first t (ValueError); the
    returned generator does the solving.  The start profile is the explicit
    init when given, else the problem's subsolution.  A warm start that
    falls outside the shrunken cone of the next t (Newton's first
    evaluation raises ConeViolationError) is pulled back by blending
    towards the subsolution (or the start profile).  Any failure, Newton's
    and the Jacobian check's alike, surfaces as ContinuationError carrying
    the failing t, the states yielded so far and the cause.
    """
    schedule = check_t_schedule(t_schedule)
    current = init if init is not None else problem.subsolution
    if current is None:
        raise ValueError("continuation needs a subsolution or an explicit init profile")
    anchor = problem.subsolution if problem.subsolution is not None else current
    return _continuation(problem, schedule, opts, current, anchor)


def _continuation(problem, schedule, opts, current, anchor):
    states = []
    for t in schedule:
        try:
            try:
                state = newton_solve(problem, t, current, opts)
            except ConeViolationError:
                start = _restore_feasibility(problem, t, current, anchor)
                if start is None:
                    raise
                state = newton_solve(problem, t, start, opts)
        except (NumericalError, ConeViolationError) as exc:
            raise ContinuationError(
                f"continuation failed at t={t}: {exc}",
                t_failed=t, states=states, cause=exc,
            ) from exc
        states.append(state)
        yield state
        current = state.profile


def continuation_run(problem, t_schedule=None, opts=None, init=None):
    """All states of continuation_states, which see."""
    return ContinuationReport(
        states=list(continuation_states(problem, t_schedule, opts, init)), failed_t=None)


@dataclass
class SubsolutionReport:
    """Nodewise margins of the subsolution inequality f(W[u]) >= psi."""

    margins: np.ndarray          # NaN where the cone is violated
    min_margin: float
    min_cone_margin: float
    cone_violations: tuple
    boundary_ok: bool

    @property
    def checks(self):
        """The rows margin and cone_margin.  The margin row also fails on a
        cone violation or a boundary mismatch, so it carries the verdict of
        the whole check."""
        margin_ok = (not self.cone_violations and self.boundary_ok
                     and self.min_margin >= SUBSOLUTION_TOL)
        return [CheckResult("margin", margin_ok, self.min_margin, SUBSOLUTION_TOL),
                cone_margin_check(self.min_cone_margin)]

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def cone_margin_check(min_score):
    """The cone_margin row of a subsolution whose minimum margin score is
    min_score: it passes when every node is inside the cone."""
    return CheckResult("cone_margin", min_score > CONE_MARGIN, min_score, 0.0)


def check_subsolution(problem):
    """Validate the stored subsolution against the t = 1 inequality."""
    sub = problem.subsolution
    if sub is None:
        raise ValueError("the problem has no subsolution to check")
    grid = _grid_for(problem, sub)
    spec = problem.spec
    axis, sphere = radial_w_eigenvalues(problem.geom.n, sub.du, sub.d2u)
    scores, value, _, _ = spec.radial_eval(1.0, axis, sphere)
    ok = scores > spec.margin
    margins = np.full(grid.size, np.nan)
    if np.any(ok):
        if value is None:  # f only where the cone holds
            value = spec.radial_eval(1.0, axis[ok], sphere[ok]).value
        margins[ok] = value - np.asarray(problem.psi(grid[ok], sub.u[ok]), dtype=float)
    boundary_ok = (abs(sub.u[0] - problem.phi_left) <= 1e-12
                   and abs(sub.u[-1] - problem.phi_right) <= 1e-12)
    finite = margins[np.isfinite(margins)]
    return SubsolutionReport(
        margins=margins,
        min_margin=float(finite.min()) if finite.size else math.nan,
        min_cone_margin=float(scores.min()),
        cone_violations=tuple(int(i) for i in np.nonzero(~ok)[0]),
        boundary_ok=bool(boundary_ok),
    )
