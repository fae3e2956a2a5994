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

Each ingredient has one batch-first core, private array code on a stack of
flat states (leading axes, strengths with matching leading axes): the two
structure matrices, the interaction-bracket table and the cyclic Jacobi sum.
The public functions validate one state and run its core on a stack of one,
returning row 0 as is: ``interaction_bracket_coefficients`` gives the table as
(pi_pi, pi_vortex, vortex), a float, a (2, 2N) and an (N, N) array. ``cli``
certifies whole stacks of drawn states through the cores at once.
Stencils come from ``oracle``: the interaction table validates all order-6
stencil configurations of a stack at once and evaluates the magnetic
potential on them in one batched call, and the Jacobi verifier sums the
cyclic terms of all index triples as whole tensors.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .energetics import BodyParams
from .fluid import ValidationError, VortexSet, _check_strengths, batch_momentum_shift, validate_stack
from .oracle import _check_fd, _combine_stack, _stencil_stack
from .state import MOMENTUM, VELOCITY, ChartState

FloatArray = NDArray[np.float64]

__all__ = [
    "momentum_structure_matrix",
    "velocity_structure_matrix",
    "structure_matrix",
    "interaction_bracket_coefficients",
    "jacobi_residual",
]

def momentum_structure_matrix(state: ChartState, strengths: FloatArray) -> FloatArray:
    """Product structure of the momentum chart: algebra block + cocycle + vortex block."""
    if state.chart != MOMENTUM:
        raise ValidationError("expected a momentum-chart state")
    g = VortexSet(strengths, state.positions).strengths
    _check_strengths(g)
    return _momentum_matrix_stack(state.flat()[None], g[None])[0]


def _momentum_matrix_stack(z: FloatArray, g: FloatArray) -> FloatArray:
    """``momentum_structure_matrix`` of flat states z (..., D) with strengths g (..., N)."""
    upper = np.zeros(z.shape + z.shape[-1:])
    upper[..., 0, 1] = -z[..., 2]
    upper[..., 0, 2] = z[..., 1]
    upper[..., 1, 2] = g.sum(axis=-1)
    i = np.arange(g.shape[-1])
    upper[..., 3 + 2 * i, 4 + 2 * i] = -1.0 / g
    return upper - upper.swapaxes(-1, -2)


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
    vset = VortexSet(strengths, state.positions)
    vset.validate(body.radius)
    return _velocity_matrix_stack(state.flat()[None], vset.strengths[None], body)[0]


def _velocity_matrix_stack(z: FloatArray, g: FloatArray, body: BodyParams) -> FloatArray:
    """``velocity_structure_matrix`` of flat states z (..., D) with strengths g (..., N)."""
    c, inertia = body.c, body.inertia
    r2 = body.radius**2
    vx, vy = z[..., 1], z[..., 2]
    x, y = z[..., 3::2], z[..., 4::2]
    d2 = x * x + y * y
    d4 = d2 * d2
    lam = 1.0 - r2 / d2
    upper = np.zeros(z.shape + z.shape[-1:])
    upper[..., 0, 1] = (-c * vy + 2.0 * (g * x * lam).sum(axis=-1)) / (c * inertia)
    upper[..., 0, 2] = (c * vx + 2.0 * (g * y * lam).sum(axis=-1)) / (c * inertia)
    upper[..., 1, 2] = (g.sum(axis=-1) - (g * (d4 - r2 * r2) / d4).sum(axis=-1)) / c**2
    col_x = 3 + 2 * np.arange(g.shape[-1])
    col_y = col_x + 1
    upper[..., 0, col_x] = y / inertia
    upper[..., 0, col_y] = -x / inertia
    upper[..., 1, col_x] = -(d4 - r2 * (x * x - y * y)) / (c * d4)
    upper[..., 1, col_y] = 2.0 * r2 * x * y / (c * d4)
    upper[..., 2, col_x] = 2.0 * r2 * x * y / (c * d4)
    upper[..., 2, col_y] = -(d4 + r2 * (x * x - y * y)) / (c * d4)
    upper[..., col_x, col_y] = -1.0 / g
    return upper - upper.swapaxes(-1, -2)


def structure_matrix(state: ChartState, strengths: FloatArray, body: BodyParams) -> FloatArray:
    """Dispatch on the state's chart tag."""
    if state.chart == MOMENTUM:
        return momentum_structure_matrix(state, strengths)
    return velocity_structure_matrix(state, strengths, body)


def interaction_bracket_coefficients(
    state: ChartState, strengths: FloatArray, body: BodyParams
) -> tuple[float, FloatArray, FloatArray]:
    """Pairwise brackets of the reduced interaction structure, assembled from theory.

    Uses only the magnetic potential (differentiated numerically), the vortex
    bracket, and the generator pairings; it never touches the closed-form
    matrix, so agreement with ``velocity_structure_matrix`` certifies the
    reduction theorem numerically. Entries are momentum-level, returned as
    (pi_pi, pi_vortex, vortex): the float {Pi_x, Pi_y}; {Pi_a, X_i} and
    {Pi_a, Y_i} as a (2, 2N) array, row a in (x, y), columns in flat vortex
    order (X_0, Y_0, X_1, ...); and {X_i, Y_j} as an (N, N) array.
    """
    vset = VortexSet(strengths, state.positions)
    vset.validate(body.radius)
    pi_pi, pi_vortex, vortex = _interaction_table_stack(vset.positions[None], vset.strengths[None], body.radius)
    return float(pi_pi[0]), pi_vortex[0], vortex[0]


def _interaction_table_stack(
    x: FloatArray, g: FloatArray, radius: float
) -> tuple[FloatArray, FloatArray, FloatArray]:
    """The interaction table of each configuration in x (K, N, 2) with strengths g (K, N):
    {Pi_x, Pi_y} (K,), {Pi_a, X_i} and {Pi_a, Y_i} as (K, 2, 2N) in flat vortex order, and
    {X_i, Y_j} (K, N, N). Raises the ValidationError of the first inadmissible stencil point."""
    k, n = g.shape
    flat = x.reshape(k, -1)
    h = 1e-3 * (1.0 + np.max(np.abs(flat), axis=-1, initial=0.0))
    configs = _stencil_stack(flat, 6, h).reshape(k, -1, n, 2)
    validate_stack(np.repeat(g, configs.shape[1], axis=0), configs.reshape(-1, n, 2), radius)
    phi_xy = batch_momentum_shift(configs, g[:, None], radius)[..., 1:]
    grad = _combine_stack(phi_xy, 6, h).swapaxes(1, 2)  # (K, 2, 2N): d(phi_x, phi_y)/dz
    inv = (-1.0 / g)[:, None]  # the vortex bracket {X_i, Y_i} = -1/Gamma_i
    # phi_x and phi_y under the vortex bracket, minus the translations' pairing -Gamma_total
    star = (inv[:, 0] * (grad[:, 0, 0::2] * grad[:, 1, 1::2] - grad[:, 1, 0::2] * grad[:, 0, 1::2])).sum(axis=-1)
    # {Pi_a, X_i} = -1/Gamma_i * -dphi_a/dY_i and {Pi_a, Y_i} = -1/Gamma_i * dphi_a/dX_i
    pi_vortex = (inv[..., None] * np.stack([-grad[..., 1::2], grad[..., 0::2]], axis=-1)).reshape(grad.shape)
    return star + g.sum(axis=-1), pi_vortex, np.eye(n) * inv.swapaxes(1, 2)


def jacobi_residual(
    structure_field: Callable[[FloatArray], FloatArray], point: FloatArray, h: float
) -> float:
    """Max over index triples of the cyclic Jacobi sum, derivatives by central differences.

    ``structure_field`` is called once per point: at ``point``, then at each
    ``oracle.fd_stencil`` point in its order."""
    z = np.asarray(point, dtype=np.float64).reshape(1, -1)

    def field(points: FloatArray) -> FloatArray:
        return np.array([[structure_field(p) for p in row] for row in points])

    return float(_jacobi_stack(field, z, _check_fd(h, 2))[0])


def _jacobi_stack(field: Callable[[FloatArray], FloatArray], z: FloatArray, h: FloatArray) -> FloatArray:
    """``jacobi_residual`` at each flat point of z (K, D) with step h (K,); ``field``
    maps flat states (K, M, D) to structure matrices (K, M, D, D)."""
    lam = field(np.concatenate([z[:, None], _stencil_stack(z, 2, h)], axis=1))
    dlam = _combine_stack(lam[:, 1:], 2, h)
    d = z.shape[1]
    # every triple's cyclic sum at once; summing over l in index order, term by
    # term (not in one einsum), fixes the rounding to that of the scalar sum
    total = np.zeros(dlam.shape)
    for l in range(d):
        a, dl = lam[:, 0, :, l], dlam[:, l]
        total += (a[:, :, None, None] * dl[:, None] + a[:, None, :, None] * dl.swapaxes(1, 2)[:, :, None, :]
                  + a[:, None, None, :] * dl[..., None])
    i, j, k = np.ogrid[:d, :d, :d]
    return np.max(np.abs(total[:, (i < j) & (j < k)]), axis=-1, initial=0.0)
