"""Reusable problem constructions for experiments, the CLI and the test suite.

`dirichlet_problem` builds every Dirichlet problem here and in `yamabe solve`,
on the uniform grid of its `CylinderGeometry`.  Three families cover the
interesting regimes:

* a subsolution-anchored benchmark where psi is a fixed fraction of the
  curvature function of a strictly convex profile, so the profile is a strict
  subsolution and the continuation stays tame up to t close to 1;
* manufactured problems whose exact solution is known in closed form, for
  convergence studies (psi is built per t so the same profile solves every
  member of the family);
* the boundary data of the explicit non-smooth construction, where sup|u''|
  grows without bound as t approaches 1 (see
  `ContinuationReport.curvature_scaled`).
"""

from __future__ import annotations

import math

import numpy as np

from .example1 import ExampleParams, solve_profile
from .geometry import CylinderGeometry, radial_w_eigenvalues
from .solver import DirichletProblem
from .symfun import SymFuncSpec

__all__ = [
    "cosh_profile",
    "linear_profile",
    "constant_profile",
    "radial_curvature_value",
    "constant_psi",
    "subsolution_scaled_psi",
    "example1_rhs_psi",
    "dirichlet_problem",
    "subsolution_benchmark",
    "manufactured_problem",
    "example_boundary_problem",
]


def cosh_profile(amplitude, offset=0.0):
    """u(x) = amplitude cosh(x) + offset with its exact derivatives."""
    return (
        lambda x: amplitude * np.cosh(x) + offset,
        lambda x: amplitude * np.sinh(x),
        lambda x: amplitude * np.cosh(x),
    )


def linear_profile(slope, offset=0.0):
    return (
        lambda x: slope * np.asarray(x, dtype=float) + offset,
        lambda x: np.full_like(np.asarray(x, dtype=float), slope),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def constant_profile(value):
    return (
        lambda x: np.full_like(np.asarray(x, dtype=float), value),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def radial_curvature_value(spec, t, du, d2u):
    """f_t of the radial eigenvalues built from pointwise derivative values;
    raises ConeDomainError when a point leaves the cone."""
    du = np.atleast_1d(np.asarray(du, dtype=float))
    d2u = np.atleast_1d(np.asarray(d2u, dtype=float))
    return spec.radial_eval(t, *radial_w_eigenvalues(du, d2u)).inside_value()


def _no_z_dependence(x, z):
    """psi_z = 0, of a psi that does not depend on z."""
    return np.zeros_like(np.asarray(x, dtype=float) * np.asarray(z, dtype=float))


def constant_psi(value):
    """(psi, psi_z) with psi = value everywhere."""

    def psi(x, z):
        return np.full_like(np.asarray(x, dtype=float) * np.asarray(z, dtype=float), value)

    return psi, _no_z_dependence


# points of [-L, L] on which subsolution_scaled_psi samples f(W[u])
SCALED_PSI_NODES = 4001


def subsolution_scaled_psi(spec, funcs, half_length, theta):
    """(psi, psi_z) with psi = theta * f(W[u]) for u given as (u, u', u'') callables,
    sampled on SCALED_PSI_NODES points of [-L, L] and interpolated linearly in x;
    no z dependence.  theta must lie in (0, 1): then u is a strict subsolution,
    with margin (1 - theta) f.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    dense = np.linspace(-half_length, half_length, SCALED_PSI_NODES)
    f_values = theta * radial_curvature_value(spec, 1.0, funcs[1](dense), funcs[2](dense))

    def psi(x, z):
        return np.interp(np.asarray(x, dtype=float), dense, f_values) * np.ones_like(np.asarray(z, dtype=float))

    return psi, _no_z_dependence


def example1_rhs_psi(spec, params):
    """psi(x, z) = (n/(k 2^k) C(n-1,k-1))^(1/k) e^(-2z) and psi_z = -2 psi,
    Example 1's right-hand side for f = sigma_k^(1/k) at the (n, k) of
    `params`.  Raises ValueError for any other `spec`: these data pose no
    problem of Example 1 for it."""
    if (spec.kind, spec.n, spec.k) != ("sigma_k_root", params.n, params.k):
        raise ValueError(f"Example 1's data at (n, k) = ({params.n}, {params.k}) are for "
                         f"sigma_{params.k}_root(n={params.n}), not {spec.label}")
    root = params.rhs_root

    def psi(x, z):
        return root * np.exp(-2.0 * np.asarray(z, dtype=float)) \
            * np.ones_like(np.asarray(x, dtype=float))

    def psi_z(x, z):
        return -2.0 * psi(x, z)

    return psi, psi_z


def dirichlet_problem(spec, geom, psi, subsolution=None, boundary=None):
    """The DirichletProblem of `spec` on the CylinderGeometry `geom`, with
    `psi` the pair (psi, psi_z) and the subsolution, (u, u', u'') callables,
    sampled on the grid of geom.  The boundary values are the pair
    `boundary`, else the subsolution's end values.  Raises ValueError when
    the problem rejects its data."""
    sub = None if subsolution is None else geom.profile(subsolution[0])
    left, right = boundary if boundary is not None else (float(sub.u[0]), float(sub.u[-1]))
    return DirichletProblem(
        geom=geom, spec=spec,
        psi=psi[0], psi_z=psi[1], phi_left=left, phi_right=right, subsolution=sub,
    )


def subsolution_benchmark(n=4, k=2, half_length=1.0, node_count=401,
                          amplitude=0.3, theta=0.5):
    """Problem with psi = theta * f(W[underline u]) for a convex profile.

    The profile is then a strict subsolution with margin (1-theta) f, and the
    boundary data match it (see subsolution_scaled_psi).
    """
    spec = SymFuncSpec("sigma_k_root", n=n, k=k)
    geom = CylinderGeometry(half_length, node_count)
    funcs = cosh_profile(amplitude)
    return dirichlet_problem(spec, geom, subsolution_scaled_psi(spec, funcs, half_length, theta),
                             subsolution=funcs)


def manufactured_problem(t, n=4, k=2, half_length=1.0, node_count=401,
                         amplitude=0.3):
    """Problem whose continuum solution at parameter t is the cosh profile.

    psi(x) = f_t of the exact radial eigenvalues of the profile, so the
    discrete solution differs from the profile only by the stencil error.
    Returns (problem, exact profile on the grid).
    """
    spec = SymFuncSpec("sigma_k_root", n=n, k=k)
    f, df, d2f = cosh_profile(amplitude)

    def psi(x, z):
        x = np.asarray(x, dtype=float)
        vals = radial_curvature_value(spec, t, df(x).ravel(), d2f(x).ravel())
        return vals.reshape(x.shape) * np.ones_like(np.asarray(z, dtype=float))

    phi = float(amplitude * math.cosh(half_length))
    problem = dirichlet_problem(spec, CylinderGeometry(half_length, node_count),
                                (psi, _no_z_dependence), boundary=(phi, phi))
    return problem, problem.geom.profile(f)


def example_boundary_problem(n, k, c, node_count=401):
    """Dirichlet data of the explicit non-smooth solution.

    psi is example1_rhs_psi, phi = c, and the half length is the blow-up
    time of the closed-form construction.  Returns (problem, params, init
    profile); the init is the exact t = 1 profile sampled on the grid, which
    lies inside every interpolated cone.
    """
    params = ExampleParams(n, k, c)
    spec = SymFuncSpec("sigma_k_root", n=n, k=k)
    solution = solve_profile(params, node_count=node_count)
    problem = dirichlet_problem(spec, solution.profile.geom, example1_rhs_psi(spec, params),
                                boundary=(c, c))
    return problem, params, solution.profile
