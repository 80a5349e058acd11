"""Round-cylinder geometry, radial grid profiles and conformal curvature.

The model manifold is [-L, L] x S^(n-1) with the product metric g = dt^2 + h,
h the unit round metric.  Its Schouten-type curvature tensor is
diag(-1/2, 1/2, ..., 1/2) in the obvious orthonormal frame.  Under the
conformal change g -> e^(-2u) g the tensor becomes

    W[u] = Hess(u) + du (x) du - |du|^2/2 g + A_g,

and for a radial profile u = u(t) its eigenvalues with respect to g are

    u'' - (1 - u'^2)/2          once (axis direction),
    (1 - u'^2)/2                with multiplicity n - 1 (sphere directions).

Profiles are values on a CylinderGeometry's grid; first and second
differences are derived from the values with second-order stencils (central
inside, one-sided at the two end nodes) and are recomputed rather than
stored.  The stencil weights depend on the grid alone and are built once per
grid (GridStencils), by the CylinderGeometry that owns it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._errors import NumericalError

__all__ = [
    "CylinderGeometry",
    "GridStencils",
    "RadialProfile",
    "first_derivative",
    "second_derivative",
    "stencil_weights",
    "radial_w_eigenvalues",
    "radial_w_linearization",
]


def stencil_weights(offsets, order):
    """Finite-difference weights for the given derivative order.

    offsets are node positions relative to the evaluation point; len(offsets)
    conditions are imposed, so a J-point stencil reproduces polynomials of
    degree J-1 exactly.
    """
    offsets = np.asarray(offsets, dtype=float)
    j = offsets.size
    if order >= j:
        raise ValueError("stencil too short for the requested derivative")
    a = np.vander(offsets, j, increasing=True).T
    a /= np.array([math.factorial(p) for p in range(j)])[:, None]
    rhs = np.zeros(j)
    rhs[order] = 1.0
    return np.linalg.solve(a, rhs)


class _Weights(NamedTuple):
    """Stencil weights of one derivative order on one grid."""

    inner: tuple         # (w_minus, w_center, w_plus) at nodes 1..m-2, each (m-2,)
    left: np.ndarray     # one-sided stencil of node 0
    right: np.ndarray    # one-sided stencil of node m-1


def _first_weights(grid):
    """Closed-form 3-point weights inside, one-sided 3-point at the ends."""
    h1 = grid[1:-1] - grid[:-2]
    h2 = grid[2:] - grid[1:-1]
    return _Weights(
        (-h2 / (h1 * (h1 + h2)), (h2 - h1) / (h1 * h2), h1 / (h2 * (h1 + h2))),
        stencil_weights(grid[:3] - grid[0], 1),
        stencil_weights(grid[-3:] - grid[-1], 1),
    )


def _second_weights(grid):
    """Closed-form 3-point weights inside, one-sided 4-point at the ends to
    keep second order."""
    h1 = grid[1:-1] - grid[:-2]
    h2 = grid[2:] - grid[1:-1]
    return _Weights(
        (2.0 / (h1 * (h1 + h2)), -2.0 / (h1 * h2), 2.0 / (h2 * (h1 + h2))),
        stencil_weights(grid[:4] - grid[0], 2),
        stencil_weights(grid[-4:] - grid[-1], 2),
    )


def _apply(weights, u):
    wm, w0, wp = weights.inner
    out = np.empty_like(u)
    out[1:-1] = wm * u[:-2] + w0 * u[1:-1] + wp * u[2:]
    out[0] = weights.left @ u[:weights.left.size]
    out[-1] = weights.right @ u[-weights.right.size:]
    return out


class GridStencils:
    """The first and second derivative weights of one grid.

    The grid is validated and frozen here.  A CylinderGeometry builds the
    bundle of its grid once, and every RadialProfile on the geometry reads
    it, so a continuation builds its weights once however many states and
    derivatives it takes.
    A grid too fine for floating point, where the powers of the spacing in
    the one-sided systems underflow or the weights overflow, raises
    NumericalError.
    """

    def __init__(self, grid):
        grid = np.ascontiguousarray(np.asarray(grid, dtype=float))
        if grid.ndim != 1 or grid.size < 5:
            raise ValueError(f"grid must be one-dimensional with at least 5 nodes, got shape {grid.shape}")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        grid.flags.writeable = False
        self.grid = grid
        try:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                self.first = _first_weights(grid)
                self.second = _second_weights(grid)
        except np.linalg.LinAlgError:
            finite = False
        else:
            finite = all(np.isfinite(w).all() for weights in (self.first, self.second)
                         for w in (*weights.inner, weights.left, weights.right))
        if not finite:
            raise NumericalError(f"no finite stencil weights on a grid with spacing "
                                 f"{np.diff(grid).min():.3g}")


def first_derivative(stencils, u):
    """Second-order first differences of u on the grid of `stencils`, its
    GridStencils; one-sided 3-point at the two ends."""
    return _apply(stencils.first, np.asarray(u, dtype=float))


def second_derivative(stencils, u):
    """Second differences of u on the grid of `stencils`, its GridStencils;
    one-sided 4-point at the ends to keep second order."""
    return _apply(stencils.second, np.asarray(u, dtype=float))


@dataclass(frozen=True)
class RadialProfile:
    """A grid function: the values u at the nodes of its CylinderGeometry.

    The grid and its stencil weights are the geometry's (`geom.stencils`),
    which `with_values` hands on to the new profile.  du and d2u are derived
    from u with those stencils on first access; they cannot be set
    independently.
    """

    geom: CylinderGeometry
    u: np.ndarray

    def __post_init__(self):
        u = np.ascontiguousarray(np.asarray(self.u, dtype=float))
        if u.shape != (self.geom.node_count,):
            raise ValueError("u must match the grid shape")
        u.flags.writeable = False
        object.__setattr__(self, "u", u)

    @property
    def grid(self):
        return self.geom.stencils.grid

    def with_values(self, u):
        return RadialProfile(self.geom, u)

    @cached_property
    def du(self):
        return first_derivative(self.geom.stencils, self.u)

    @cached_property
    def d2u(self):
        return second_derivative(self.geom.stencils, self.u)


@dataclass(frozen=True)
class CylinderGeometry:
    """The cylinder [-half_length, half_length] x S^(n-1) and its grid of
    node_count uniform nodes; the dimension n is the symmetric function's
    (`DirichletProblem.spec.n`).  The grid's GridStencils are built here,
    once, and every profile on the geometry reads them; a grid too fine
    for finite weights raises NumericalError."""

    half_length: float
    node_count: int
    stencils: GridStencils = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.half_length > 0:
            raise ValueError(f"half_length must be positive, got {self.half_length}")
        grid = np.linspace(-self.half_length, self.half_length, self.node_count)
        object.__setattr__(self, "stencils", GridStencils(grid))

    def profile(self, func):
        """The RadialProfile of func, a callable on grid arrays, on the grid."""
        return RadialProfile(self, func(self.stencils.grid))


def radial_w_eigenvalues(du, d2u):
    """(axis, sphere) eigenvalue pair of W[u] for a radial profile.

    axis = u'' - (1 - u'^2)/2 appears once; sphere = (1 - u'^2)/2 appears
    n - 1 times.
    """
    sphere = 0.5 * (1.0 - du ** 2)
    axis = d2u - sphere
    return axis, sphere


def radial_w_linearization(g_axis, g_sphere, du):
    """The u'' and u' coefficients of the linearization of f_t(axis, sphere)
    in a radial profile, where g_axis is the axis slot of Df_t and g_sphere
    the sum of its n - 1 sphere slots at the nodes of du.

    The chain rule through `radial_w_eigenvalues` reads d axis/du'' = 1,
    d sphere/du'' = 0, d axis/du' = u' and d sphere/du' = -u', so the
    coefficients are g_axis and (g_axis - g_sphere) u'.
    """
    return g_axis, (g_axis - g_sphere) * du
