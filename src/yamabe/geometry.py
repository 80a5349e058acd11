"""Round-cylinder geometry, radial grid profiles and conformal curvature.

The model manifold is [-L, L] x S^(n-1) with the product metric g = dt^2 + h,
h the unit round metric.  Its Schouten-type curvature tensor is
diag(-1/2, 1/2, ..., 1/2) in the obvious orthonormal frame.  Under the
conformal change g -> e^(-2u) g the tensor becomes

    W[u] = Hess(u) + du (x) du - |du|^2/2 g + A_g,

and for a radial profile u = u(t) its eigenvalues with respect to g are

    u'' - (1 - u'^2)/2          once (axis direction),
    (1 - u'^2)/2                with multiplicity n - 1 (sphere directions).

Profiles are plain grid functions; first and second differences are derived
from the values with second-order stencils (central inside, one-sided at the
two end nodes) and are recomputed rather than stored.  The stencil weights
depend on the grid alone and are built once per grid (GridStencils).
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
]


@dataclass(frozen=True)
class CylinderGeometry:
    """The cylinder [-half_length, half_length] x S^(n-1), n >= 3."""

    n: int
    half_length: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("dimension must be at least 3")
        if not self.half_length > 0:
            raise ValueError("half_length must be positive")


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

    The grid is validated and frozen here.  Profiles on one grid share one
    bundle (`RadialProfile.with_values` passes it on), so a continuation
    builds its weights once however many states and derivatives it takes.
    A grid too fine for floating point, where the powers of the spacing in
    the one-sided systems underflow or the weights overflow, raises
    NumericalError.
    """

    def __init__(self, grid):
        grid = np.ascontiguousarray(np.asarray(grid, dtype=float))
        if grid.ndim != 1 or grid.size < 5:
            raise ValueError("grid must be one-dimensional with at least 5 nodes")
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


def first_derivative(grid, u, stencils=None):
    """Second-order first differences; one-sided 3-point at the two ends.

    `stencils` is the grid's GridStencils when the caller holds one.
    """
    weights = stencils.first if stencils is not None else _first_weights(np.asarray(grid, dtype=float))
    return _apply(weights, np.asarray(u, dtype=float))


def second_derivative(grid, u, stencils=None):
    """Second differences; one-sided 4-point at the ends to keep second order.

    `stencils` is the grid's GridStencils when the caller holds one.
    """
    weights = stencils.second if stencils is not None else _second_weights(np.asarray(grid, dtype=float))
    return _apply(weights, np.asarray(u, dtype=float))


@dataclass(frozen=True)
class RadialProfile:
    """A grid function on a strictly increasing coordinate grid.

    du and d2u are derived from u with the declared stencils on first access;
    they cannot be set independently.  The stencil weights live in the
    grid's GridStencils, which `with_values` hands on to the new profile.
    """

    grid: np.ndarray
    u: np.ndarray
    stencils: GridStencils | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.stencils is None:
            stencils = GridStencils(self.grid)
        elif self.grid is self.stencils.grid:
            stencils = self.stencils
        else:
            raise ValueError("the stencils belong to another grid")
        u = np.ascontiguousarray(np.asarray(self.u, dtype=float))
        if u.shape != stencils.grid.shape:
            raise ValueError("u must match the grid shape")
        u.flags.writeable = False
        object.__setattr__(self, "grid", stencils.grid)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "stencils", stencils)

    @classmethod
    def uniform(cls, half_length, node_count, func_or_values):
        grid = np.linspace(-half_length, half_length, node_count)
        if callable(func_or_values):
            return cls(grid, np.asarray(func_or_values(grid), dtype=float))
        values = np.asarray(func_or_values, dtype=float)
        if values.ndim == 0:
            values = np.full(node_count, float(values))
        return cls(grid, values)

    def with_values(self, u):
        return RadialProfile(self.grid, u, self.stencils)

    @property
    def node_count(self):
        return self.grid.size

    @cached_property
    def du(self):
        return first_derivative(self.grid, self.u, self.stencils)

    @cached_property
    def d2u(self):
        return second_derivative(self.grid, self.u, self.stencils)


def radial_w_eigenvalues(n, du, d2u):
    """(axis, sphere) eigenvalue pair of W[u] for a radial profile.

    axis = u'' - (1 - u'^2)/2 appears once; sphere = (1 - u'^2)/2 appears
    n - 1 times.
    """
    sphere = 0.5 * (1.0 - du ** 2)
    axis = d2u - sphere
    return axis, sphere
