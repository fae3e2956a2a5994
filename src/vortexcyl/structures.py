"""Poisson structure matrices for both charts and their certification helpers.

Matrices act on flat states ordered (body triple, X1, Y1, ...). Skew
symmetry is exact by construction: only the upper triangle is filled and the
matrix is completed as U - U^T.

Sign conventions (fixed once, globally): the algebra block of the momentum
chart is {A, Lx} = -Ly, {A, Ly} = Lx, the cocycle contributes
{Lx, Ly} = +Gamma_total, and the vortex block is {X_i, Y_i} = -1/Gamma_i in
BOTH charts (the shift map is the identity on vortex coordinates, so the two
charts cannot differ there). Every entry of the velocity-chart matrix is the
exact pushforward of this structure through the shift map.

The certification helpers take their stencils from ``oracle.fd_stencil``: the
interaction bracket validates all order-6 stencil configurations at once and
evaluates the magnetic potential on them in one batched call, and the Jacobi
verifier sums the cyclic terms of all index triples as whole tensors.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .energetics import BodyParams, effective_mass
from .fluid import MIN_CLEARANCE, FluidParams, ValidationError, VortexSet, batch_momentum_shift
from .oracle import FdSpec, fd_combine, fd_stencil
from .state import MOMENTUM, VELOCITY, ChartState

FloatArray = NDArray[np.float64]

__all__ = [
    "BRACKET_KINDS",
    "momentum_structure_matrix",
    "velocity_structure_matrix",
    "structure_matrix",
    "interaction_bracket_coefficients",
    "jacobi_residual",
]

BRACKET_KINDS = ("momentum", "velocity", "interaction")


def _check_strengths(strengths: FloatArray) -> FloatArray:
    g = np.asarray(strengths, dtype=np.float64).reshape(-1)
    if np.any(g == 0.0):
        raise ValidationError("vortex strengths must be nonzero")
    return g


def momentum_structure_matrix(
    state: ChartState, strengths: FloatArray, gamma_total: float | None = None
) -> FloatArray:
    """Product structure of the momentum chart: algebra block + cocycle + vortex block."""
    if state.chart != MOMENTUM:
        raise ValidationError("expected a momentum-chart state")
    g = _check_strengths(strengths)
    if gamma_total is None:
        gamma_total = float(g.sum())
    lx, ly = state.body[1], state.body[2]
    upper = np.zeros((state.dim, state.dim))
    upper[0, 1] = -ly
    upper[0, 2] = lx
    upper[1, 2] = gamma_total
    for i in range(state.n):
        upper[3 + 2 * i, 4 + 2 * i] = -1.0 / g[i]
    return upper - upper.T


def velocity_structure_matrix(
    state: ChartState, strengths: FloatArray, body: BodyParams
) -> FloatArray:
    """Velocity-chart structure in closed form.

    The (V, X) blocks carry the fluid interaction; the Omega row is the
    analytic pushforward of the momentum-chart structure through the shift
    map (certified against the numerical pushforward in the tests).
    """
    if state.chart != VELOCITY:
        raise ValidationError("expected a velocity-chart state")
    g = _check_strengths(strengths)
    vset = VortexSet(g, state.positions)
    vset.validate(body.fluid)
    em = effective_mass(body)
    c, inertia = em.c, em.i_eff
    r2 = body.radius**2
    vx, vy = state.body[1], state.body[2]
    x = state.positions
    d2 = np.sum(x * x, axis=1)
    d4 = d2 * d2
    lam = 1.0 - r2 / d2
    gamma_total = float(g.sum())

    upper = np.zeros((state.dim, state.dim))
    sum_xlam = float(np.sum(g * x[:, 0] * lam)) if state.n else 0.0
    sum_ylam = float(np.sum(g * x[:, 1] * lam)) if state.n else 0.0
    upper[0, 1] = (-c * vy + 2.0 * sum_xlam) / (c * inertia)
    upper[0, 2] = (c * vx + 2.0 * sum_ylam) / (c * inertia)
    upper[1, 2] = (gamma_total - float(np.sum(g * (d4 - r2 * r2) / d4))) / c**2
    for i in range(state.n):
        xi, yi = x[i]
        col_x, col_y = 3 + 2 * i, 4 + 2 * i
        upper[0, col_x] = yi / inertia
        upper[0, col_y] = -xi / inertia
        upper[1, col_x] = -(d4[i] - r2 * (xi * xi - yi * yi)) / (c * d4[i])
        upper[1, col_y] = 2.0 * r2 * xi * yi / (c * d4[i])
        upper[2, col_x] = 2.0 * r2 * xi * yi / (c * d4[i])
        upper[2, col_y] = -(d4[i] + r2 * (xi * xi - yi * yi)) / (c * d4[i])
        upper[col_x, col_y] = -1.0 / g[i]
    return upper - upper.T


def structure_matrix(state: ChartState, strengths: FloatArray, body: BodyParams) -> FloatArray:
    """Dispatch on the state's chart tag."""
    if state.chart == MOMENTUM:
        return momentum_structure_matrix(state, strengths)
    return velocity_structure_matrix(state, strengths, body)


def _vortex_bracket(grad_f: FloatArray, grad_k: FloatArray, strengths: FloatArray) -> float:
    """{f, k} over the vortex plane with the chart convention {X_i, Y_i} = -1/Gamma_i.

    Gradients are flat (dX1, dY1, ...).
    """
    gx_f, gy_f = grad_f[0::2], grad_f[1::2]
    gx_k, gy_k = grad_k[0::2], grad_k[1::2]
    return float(np.sum((-1.0 / strengths) * (gx_f * gy_k - gx_k * gy_f)))


def _validate_stencil(configs: FloatArray, strengths: FloatArray, params: FluidParams) -> None:
    """Validate at once the (M, N, 2) ``fd_stencil`` configurations around valid
    positions, raising the ValidationError of the first inadmissible one in
    visiting order."""
    n = configs.shape[1]
    bad = ~(np.hypot(configs[..., 0], configs[..., 1]) > params.radius * (1.0 + MIN_CLEARANCE)).all(axis=-1)
    same = (configs[:, :, None] == configs[:, None]).all(axis=-1)
    same[:, np.arange(n), np.arange(n)] = False
    bad |= same.any(axis=(1, 2))
    if bad.any():
        VortexSet(strengths, configs[bad.argmax()]).validate(params)


def interaction_bracket_coefficients(
    state: ChartState, strengths: FloatArray, body: BodyParams
) -> dict[tuple[str, str], float]:
    """Pairwise brackets of the reduced interaction structure, assembled from theory.

    Uses only the magnetic potential (differentiated numerically), the vortex
    bracket, and the generator pairings; it never touches the closed-form
    matrix, so agreement with ``velocity_structure_matrix`` certifies the
    reduction theorem numerically. Entries are momentum-level:
    {Pi_a, Pi_b}, {Pi_a, X_i}, {X_i, Y_j} for translations a, b.
    """
    from .maps import magnetic_pairing

    g = _check_strengths(strengths)
    vset = VortexSet(g, state.positions)
    vset.validate(body.fluid)
    pos = state.positions.reshape(-1)
    n = state.n
    spec = FdSpec(h=1e-3 * (1.0 + float(np.max(np.abs(pos), initial=0.0))), order=6)
    configs = fd_stencil(state.positions, spec)
    _validate_stencil(configs, g, body.fluid)
    phi_xy, _ = batch_momentum_shift(configs, g, body.radius)
    grad_x, grad_y = fd_combine(phi_xy, spec).T
    grad_phi = {"x": grad_x, "y": grad_y}

    def coord_grad(i: int, comp: int) -> FloatArray:
        e = np.zeros(2 * n)
        e[2 * i + comp] = 1.0
        return e

    table: dict[tuple[str, str], float] = {}
    # translation-translation: star term minus the generator pairing
    star = _vortex_bracket(grad_phi["x"], grad_phi["y"], g)
    table[("Pi_x", "Pi_y")] = star - magnetic_pairing("x", "y", vset, body.fluid)
    # translation-vortex: the potential acts through the vortex bracket
    for i in range(n):
        for a in ("x", "y"):
            table[(f"Pi_{a}", f"X{i}")] = _vortex_bracket(grad_phi[a], coord_grad(i, 0), g)
            table[(f"Pi_{a}", f"Y{i}")] = _vortex_bracket(grad_phi[a], coord_grad(i, 1), g)
    # vortex-vortex
    for i in range(n):
        for j in range(n):
            table[(f"X{i}", f"Y{j}")] = _vortex_bracket(coord_grad(i, 0), coord_grad(j, 1), g)
    return table


def jacobi_residual(
    structure_field: Callable[[FloatArray], FloatArray], point: FloatArray, h: float
) -> float:
    """Max over index triples of the cyclic Jacobi sum, derivatives by central differences."""
    z = np.asarray(point, dtype=np.float64)
    lam = structure_field(z)
    spec = FdSpec(h=h, order=2)
    dlam = fd_combine([structure_field(p) for p in fd_stencil(z, spec)], spec)
    # every triple's cyclic sum at once; summing over l in index order, term by
    # term (not in one einsum), fixes the rounding to that of the scalar sum
    total = np.zeros(dlam.shape)
    for l, d in enumerate(dlam):
        a = lam[:, l]
        total += a[:, None, None] * d + a[:, None] * d.T[:, None, :] + a * d[:, :, None]
    i, j, k = np.ogrid[: z.size, : z.size, : z.size]
    return np.max(np.abs(total[(i < j) & (j < k)]), initial=0.0)
