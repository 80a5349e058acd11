"""Damped Newton solver with continuation in t for the radial Dirichlet problem.

The unknown is a radial profile u on [-L, L]; the discrete system is

    G_i(u) = f_t(eigenvalues of W[u](x_i)) - psi(x_i, u_i)   at interior nodes,
    G_0(u) = u_0 - phi_left,   G_{m-1}(u) = u_{m-1} - phi_right,

with the eigenvalues coming from the two radial expressions (axis and sphere
directions), so each interior row couples only to the three-point stencil and
the Jacobian is tridiagonal.  The Jacobian is assembled analytically through
the chain rule in (u_i, u'_i, u''_i) and checked against a finite
difference (`_check_jacobian`) once per Newton solve, at its first
iteration, so once per t.  Each state is evaluated once, by the
spec's radial kernel `radial_eval`, whose record of the nodes outside the
cone is the one cone test that the residual, the gradient, the feasibility
restore (one pass per blend it tries) and `check_subsolution` read.
`newton_solve` says how a Newton step is taken and when a state counts as
converged.

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
from scipy.linalg.lapack import dgtsv

from ._errors import (
    ConeViolationError,
    ContinuationError,
    NonconvergenceError,
    NumericalError,
    StepFailureError,
)
from .geometry import (
    CylinderGeometry,
    RadialProfile,
    first_derivative,
    radial_w_eigenvalues,
    radial_w_linearization,
    second_derivative,
)
from .symfun import CONE_MARGIN, CheckResult

__all__ = [
    "DirichletProblem",
    "NewtonOptions",
    "ContinuationState",
    "ContinuationReport",
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
    callables must accept numpy arrays in x and z.  The boundary values must
    be finite, and the optional subsolution profile must match them to 1e-12;
    it doubles as the default continuation start.  psi is validated on the
    window from 2 below to 2 above them and the subsolution's range.
    """

    geom: CylinderGeometry
    spec: object
    psi: object
    psi_z: object
    phi_left: float
    phi_right: float
    subsolution: RadialProfile | None = None

    def __post_init__(self):
        if not (math.isfinite(self.phi_left) and math.isfinite(self.phi_right)):
            raise ValueError("boundary values must be finite")
        zs = [self.phi_left, self.phi_right]
        if self.subsolution is not None:
            sub = self.subsolution
            _grid_for(self, sub)
            # in the `not ... <=` form, a NaN end is a mismatch
            if not (abs(sub.u[0] - self.phi_left) <= 1e-12
                    and abs(sub.u[-1] - self.phi_right) <= 1e-12):
                raise ValueError("subsolution must match the boundary values")
            zs += [float(sub.u.min()), float(sub.u.max())]
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


@dataclass(frozen=True)
class NewtonOptions:
    """tol, a finite positive bound on the residual's sup norm, and
    max_iter, an integer of at least 1, for `newton_solve`."""

    tol: float = 1e-10
    max_iter: int = 50
    jacobian_check: bool = True   # set False by perfbench's blow-up workload alone

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:     # a NaN tol fails too
            raise ValueError(f"tol must be a finite positive number, got {self.tol!r}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, int) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


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
    rounding_floor: float | None = None   # F where Newton stopped at it, None where tol was met

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
    """The problem's grid, on which the profile must lie: its geometry
    equals `problem.geom`, so its (half_length, node_count) and nodes are
    the problem's."""
    if profile.geom != problem.geom:
        raise ValueError("profile must lie on the problem's grid")
    return problem.geom.stencils.grid


def _radial_eval(problem, t, du, d2u):
    """The spec's radial kernel at the interior nodes."""
    axis, sphere = radial_w_eigenvalues(du[1:-1], d2u[1:-1])
    return problem.spec.radial_eval(t, axis, sphere)


def _residual(problem, t, u, du, d2u, evaluation=None):
    """Residual vector and the kernel's evaluation from nodal values on the
    problem's grid and their stencil derivatives; raises ConeViolationError
    when a node leaves the cone.  An evaluation the caller already holds for
    du, d2u at t is used as is."""
    grid = problem.geom.stencils.grid
    if evaluation is None:
        evaluation = _radial_eval(problem, t, du, d2u)
    if evaluation.outside.size:
        node = int(evaluation.outside[0]) + 1
        raise ConeViolationError(
            f"eigenvalues at node {node} (x={grid[node]:.6g}) left the cone "
            f"(margin score {evaluation.scores[node - 1]:.3e})",
            node=node)
    out = np.empty(grid.size)
    out[0] = u[0] - problem.phi_left
    out[-1] = u[-1] - problem.phi_right
    out[1:-1] = evaluation.value - np.asarray(problem.psi(grid[1:-1], u[1:-1]), dtype=float)
    return out, evaluation


def residual(problem, t, profile):
    """Per-node residual vector; raises when a node leaves the cone."""
    _grid_for(problem, profile)
    return _residual(problem, t, profile.u, profile.du, profile.d2u)[0]


def jacobian(problem, t, profile, gradient=None):
    """Tridiagonal Jacobian in banded (3, m) storage (solve_banded layout).

    Interior rows follow from the chain rule in (u_i, u'_i, u''_i):

        dG_i/du_j = b2_i c2_ij + b1_i c1_ij - psi_z delta_ij,

    where b2 and b1 are the u'' and u' coefficients that
    `geometry.radial_w_linearization` takes from the pair (g_a, g_s) of
    Df_t (axis slot, summed sphere slots), and c1, c2 the interior stencil
    weights of u' and u'', which the grid's GridStencils holds.
    Boundary rows are identity rows.  The pair (g_a, g_s) is `gradient`
    when the caller holds the gradient of this profile's evaluation at
    this t; else the kernel evaluates it.
    """
    grid = _grid_for(problem, profile)
    m = grid.size
    if gradient is None:
        gradient = _radial_eval(problem, t, profile.du, profile.d2u).gradient()
    b2, b1 = radial_w_linearization(*gradient, profile.du[1:-1])
    psi_z = np.asarray(problem.psi_z(grid[1:-1], profile.u[1:-1]), dtype=float)
    c1 = problem.geom.stencils.first.inner
    c2 = problem.geom.stencils.second.inner

    lower = b2 * c2[0] + b1 * c1[0]
    diag = b2 * c2[1] + b1 * c1[1] - psi_z
    upper = b2 * c2[2] + b1 * c1[2]

    ab = np.zeros((3, m))
    ab[1, 0] = 1.0
    ab[1, -1] = 1.0
    ab[1, 1:-1] = diag
    ab[0, 2:] = upper          # ab[0, j] holds A[j-1, j]
    ab[2, :-2] = lower         # ab[2, j] holds A[j+1, j]
    return ab


def solve_banded(ab, b):
    """The solution of J x = b for the tridiagonal J in banded (3, m) storage.

    LAPACK's dgtsv (Gaussian elimination with partial pivoting), called as
    scipy.linalg.solve_banded((1, 1), ab, b) calls it, so x is bit-identical
    to it, without that wrapper's generic validation.  As there, non-finite
    entries in ab or b raise ValueError and a singular J raises LinAlgError.
    """
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    _, _, _, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbsv/gtsv")
    return x


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
    stencils, ell = problem.geom.stencils, problem.geom.half_length
    v = np.cos(np.pi * stencils.grid / (3.0 * ell)) + stencils.grid / (4.0 * ell)
    dv = first_derivative(stencils, v)
    d2v = second_derivative(stencils, v)
    jv = ab[1] * v
    jv[:-1] += ab[0, 1:] * v[1:]
    jv[1:] += ab[2, :-1] * v[:-1]

    def central(s):
        plus = _residual(problem, t, profile.u + s * v, profile.du + s * dv,
                         profile.d2u + s * d2v)[0]
        minus = _residual(problem, t, profile.u - s * v, profile.du - s * dv,
                          profile.d2u - s * d2v)[0]
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
    if not err <= JACOBIAN_CHECK_TOL:   # a NaN deviation fails too
        raise NumericalError(
            f"analytic Jacobian deviates from the directional finite difference "
            f"by {err:.3e} at t={t} (tolerance {JACOBIAN_CHECK_TOL:.0e})"
        )


def _state_from(t, profile, res, evaluation, iters, converged, increments, floor=None):
    return ContinuationState(
        t=t,
        profile=profile,
        residual=res,
        monitors=estimate_monitors(profile),
        cone_margin=float(evaluation.scores.min()),
        newton_iters=iters,
        converged=converged,
        increment_norms=tuple(increments),
        rounding_floor=floor,
    )


def _rounding_floor(problem, profile, evaluation, gradient):
    """The rounding floor of the residual at profile, node by node: eps
    times T_i, the sum at interior node i of the magnitudes its rounding
    scales with,

        |b2_i| sum_j |c2_ij u_j| + |b1_i| sum_j |c1_ij u_j| + |f_t| + |psi|,

    with f_t of the state's evaluation, b2 and b1 the u'' and u'
    coefficients of Newton's Jacobian (`geometry.radial_w_linearization`
    of its gradient, the pair that Jacobian took) and the stencil weights
    of the grid's GridStencils.  Its maximum is the floor F of
    `newton_solve`, which grows like eps/h^2, so on fine grids it can lie
    above a fixed Newton tolerance.
    """
    stencils, u = problem.geom.stencils, np.abs(profile.u)
    b2, b1 = radial_w_linearization(*gradient, profile.du[1:-1])

    def spread(weights):
        wm, w0, wp = weights.inner
        return np.abs(wm) * u[:-2] + np.abs(w0) * u[1:-1] + np.abs(wp) * u[2:]

    psi = np.asarray(problem.psi(stencils.grid[1:-1], profile.u[1:-1]), dtype=float)
    terms = (np.abs(b2) * spread(stencils.second) + np.abs(b1) * spread(stencils.first)
             + np.abs(evaluation.value) + np.abs(psi))
    return np.finfo(float).eps * terms


def newton_solve(problem, t, init, opts=None, _evaluation=None):
    """Damped Newton iteration at fixed t.

    A trial step is accepted only when every interior node keeps a positive
    cone margin and the residual sup norm decreases; the step is halved up to
    MAX_BACKTRACKS times otherwise, and the search ends early at a step that
    moves no node, since each half of it moves none either.  When no damped
    step is acceptable at a residual at or below its rounding floor F (the
    largest node floor of `_rounding_floor`), which no step can improve on,
    the state is returned as converged with F recorded on it; F is computed
    only then.  Raises ConeViolationError when the initial profile leaves
    the cone, NumericalError when its residual is not finite (psi
    overflows there), StepFailureError when no damped step is acceptable
    above F or the Newton system has no solution (a singular J, or infs or
    NaNs), and NonconvergenceError when the iteration budget runs out; the
    last two carry the best state reached.  `_evaluation`, the radial
    kernel's evaluation of init at t when the caller holds it, saves
    evaluating init again.
    """
    opts = opts or NewtonOptions()
    grid = _grid_for(problem, init)
    profile = init
    res, evaluation = _residual(problem, t, init.u, init.du, init.d2u, _evaluation)
    bad = np.flatnonzero(~np.isfinite(res[1:-1]))
    if bad.size:
        node = int(bad[0]) + 1
        psi = float(problem.psi(grid[node], init.u[node]))
        raise NumericalError(f"residual of the start at t={t} is not finite at node {node} "
                             f"(x={grid[node]:.6g}, psi {psi:.3e})")
    norm = float(np.abs(res).max())
    increments = []
    for iteration in range(opts.max_iter + 1):
        converged = norm <= opts.tol
        if converged or iteration == opts.max_iter:
            state = _state_from(t, profile, res, evaluation, iteration, converged, increments)
            if not converged:
                raise NonconvergenceError(f"Newton did not reach tol={opts.tol:.1e} in {opts.max_iter} "
                                          f"iterations at t={t} (residual {norm:.3e})", state=state)
            return state
        gradient = evaluation.gradient()
        ab = jacobian(problem, t, profile, gradient)
        if opts.jacobian_check and iteration == 0:
            _check_jacobian(problem, t, profile, ab)
        try:
            delta = solve_banded(ab, -res)
        except (np.linalg.LinAlgError, ValueError) as exc:
            # a singular J, or infs or NaNs in J or the residual
            singular = isinstance(exc, np.linalg.LinAlgError)
            raise StepFailureError(
                f"singular Jacobian at t={t}" if singular else f"Newton system at t={t}: {exc}",
                state=_state_from(t, profile, res, evaluation, iteration, False, increments),
            ) from exc

        alpha, accepted = 1.0, False
        for _ in range(MAX_BACKTRACKS + 1):
            u = profile.u + alpha * delta
            if np.array_equal(u, profile.u):
                break   # each half of this step moves no node either
            trial = profile.with_values(u)
            try:
                trial_res, trial_evaluation = _residual(problem, t, u, trial.du, trial.d2u)
            except ConeViolationError:
                pass
            else:
                trial_norm = float(np.abs(trial_res).max())
                accepted = trial_norm < norm or trial_norm <= opts.tol
                if accepted:
                    break
            alpha *= 0.5
        if not accepted:
            floor = float(_rounding_floor(problem, profile, evaluation, gradient).max())
            if norm <= floor:
                return _state_from(t, profile, res, evaluation, iteration, True, increments, floor)
            raise StepFailureError(
                f"no acceptable damped step at t={t} (residual {norm:.3e}, "
                f"rounding floor {floor:.3e})",
                state=_state_from(t, profile, res, evaluation, iteration, False, increments),
            )
        increments.append(float(alpha * np.abs(delta).max()))
        profile, res, evaluation, norm = trial, trial_res, trial_evaluation, trial_norm


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

        On the non-smooth Example 1 data sup|u''| grows like (1-t)^(-p) with
        p < 1, so this product falls as t approaches 1 rather than staying in
        a band; the `blowup_tail` row of CLAIMS.json (scripts/claims.py)
        records the local exponents on the default schedule's tail.
        """
        return [(s.t, (1.0 - s.t) * s.monitors[2]) for s in self.states]


# the blends (1 - theta) u + theta anchor that the feasibility restore tries
_LADDER = (1e-3, 3e-3, 0.01, 0.03, 0.1, 0.2, 0.4, 0.7, 1.0)


def _restore_feasibility(problem, t, profile, anchor):
    """Blend a warm start that left the cone of t towards the anchor.

    The cones shrink as t grows, so the converged profile of the previous t
    can sit slightly outside the next cone.  The anchor (subsolution or the
    run's start profile) lies in the t = 1 cone with a real margin, hence in
    every interpolated cone; the smallest blend restoring a positive margin
    wins.  Each rung is tested by one radial kernel pass at t, up to the
    first feasible rung and its headroom rung.  Returns the blend with that
    evaluation, or None when no blend restores the margin.
    """
    def inside(theta):
        blend = profile.with_values((1.0 - theta) * profile.u + theta * anchor.u)
        evaluation = _radial_eval(problem, t, blend.du, blend.d2u)
        return None if evaluation.outside.size else (blend, evaluation)

    for i, theta in enumerate(_LADDER):
        restored = inside(theta)
        if restored is not None:
            # take one more rung for headroom; the blend at the first feasible
            # theta can sit arbitrarily close to the cone boundary
            if i + 1 < len(_LADDER):
                headroom = inside(_LADDER[i + 1])
                if headroom is not None:
                    return headroom
            return restored
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

    The arguments are checked here, before the first t (ValueError): the
    schedule, and the start profile's grid, which must be the problem's
    (the subsolution's, when one anchors the run).  The returned
    generator does the solving.  The start profile is the explicit init
    when given, else the problem's subsolution.  A warm start is evaluated
    here, which tells whether it left the cone of the next t; one that did
    is pulled back by `_restore_feasibility`.  Newton starts from the
    evaluation of the profile it is handed, the warm start's or the
    restored blend's.  Any
    failure, Newton's and the Jacobian check's alike, surfaces as
    ContinuationError carrying the failing t and the states yielded so far,
    with the cause as its __cause__.
    """
    schedule = check_t_schedule(t_schedule)
    current = init if init is not None else problem.subsolution
    if current is None:
        raise ValueError("continuation needs a subsolution or an explicit init profile")
    _grid_for(problem, current)
    anchor = problem.subsolution if problem.subsolution is not None else current
    return _continuation(problem, schedule, opts, current, anchor)


def _continuation(problem, schedule, opts, current, anchor):
    states = []
    for t in schedule:
        try:
            evaluation = _radial_eval(problem, t, current.du, current.d2u)
            if evaluation.outside.size:
                restored = _restore_feasibility(problem, t, current, anchor)
                if restored is not None:    # else Newton's first residual raises
                    current, evaluation = restored
            state = newton_solve(problem, t, current, opts, _evaluation=evaluation)
        except (NumericalError, ConeViolationError) as exc:
            raise ContinuationError(f"continuation failed at t={t}: {exc}",
                                    t_failed=t, states=states) from exc
        states.append(state)
        yield state
        current = state.profile


def continuation_run(problem, t_schedule=None, opts=None, init=None):
    """All states of continuation_states, which see."""
    return ContinuationReport(
        states=list(continuation_states(problem, t_schedule, opts, init)), failed_t=None)


def cone_margin_check(min_score):
    """The cone_margin row of a subsolution whose minimum margin score is
    min_score: it passes when every node is inside the cone."""
    return CheckResult("cone_margin", min_score > CONE_MARGIN, min_score, 0.0)


def check_subsolution(problem):
    """Validate the stored subsolution against the t = 1 inequality
    f(W[u]) >= psi.  Returns the nodewise margins, NaN at the nodes outside
    the cone, and the rows margin and cone_margin.  The margin row also
    fails on a cone violation, so it carries the verdict of the whole check
    (the problem itself holds the subsolution to its boundary values)."""
    sub = problem.subsolution
    if sub is None:
        raise ValueError("the problem has no subsolution to check")
    axis, sphere = radial_w_eigenvalues(sub.du, sub.d2u)
    evaluation = problem.spec.radial_eval(1.0, axis, sphere)
    # f is NaN at the nodes outside the cone, and so is their margin
    margins = evaluation.value - np.asarray(problem.psi(sub.grid, sub.u), dtype=float)
    finite = margins[np.isfinite(margins)]
    min_margin = float(finite.min()) if finite.size else math.nan
    margin_ok = evaluation.outside.size == 0 and min_margin >= SUBSOLUTION_TOL
    return margins, [CheckResult("margin", margin_ok, min_margin, SUBSOLUTION_TOL),
                     cone_margin_check(float(evaluation.scores.min()))]
