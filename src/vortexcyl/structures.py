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

One function per ingredient, on one state or on a stack of states with
leading axes (strengths broadcast against them): each structure matrix and
the interaction-bracket table check the chart tag and validate the states
through ``state.admit``, then give one entry per state. The table is
(pi_pi, pi_vortex, vortex), a float, a (2, 2N) and an (N, N) array for one
state. ``jacobi_residual`` takes one flat point or a stack of them and calls
its structure field once, on the whole stencil stack.
The interaction table differentiates the magnetic potential one vortex at a
time through ``maps``' stream stencil, which the magnetic pairing also uses;
the Jacobi verifier takes its stencils from ``oracle.fd_stencil`` and sums
the cyclic terms of all index triples as whole tensors.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .energetics import BodyParams
from .maps import _stream_gradient
from .oracle import fd_combine, fd_stencil
from .state import MOMENTUM, VELOCITY, ChartState, admit

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
    z, g = admit(state, MOMENTUM, strengths)
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
    z, g = admit(state, VELOCITY, strengths, body.radius)
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

    Uses only the magnetic potential, differentiated one vortex at a time by
    ``maps._stream_gradient``, the vortex bracket, and the generator pairings;
    it never touches the closed-form matrix, so agreement with
    ``velocity_structure_matrix`` certifies the reduction theorem numerically.
    It takes velocity-chart states, whose bracket this is. Entries are
    momentum-level, returned as (pi_pi, pi_vortex, vortex): {Pi_x, Pi_y}, a
    float for one state and (...) for a stack; {Pi_a, X_i} and {Pi_a, Y_i} as
    (..., 2, 2N), row a in (x, y), columns in flat vortex order
    (X_0, Y_0, X_1, ...); and {X_i, Y_j} as (..., N, N). Raises the
    ValidationError of the first inadmissible state.
    """
    _, g = admit(state, VELOCITY, strengths, body.radius)
    lead, n = state.shape, state.n
    # d(phi_x, phi_y)/d(X_i, Y_i) = Gamma_i (grad Psi(X_i) + d(-Y_i, X_i)/d(X_i, Y_i)), (..., N, coordinate, stream)
    grad = g[..., None, None] * (_stream_gradient(state.positions, body.radius) + [[0.0, 1.0], [-1.0, 0.0]])
    grad = np.moveaxis(grad, -1, -3).reshape(lead + (2, 2 * n))  # (..., 2, 2N): d(phi_x, phi_y)/dz
    inv = -1.0 / g  # the vortex bracket {X_i, Y_i} = -1/Gamma_i
    # phi_x and phi_y under the vortex bracket, minus the translations' pairing -Gamma_total
    star = (inv * (grad[..., 0, 0::2] * grad[..., 1, 1::2] - grad[..., 1, 0::2] * grad[..., 0, 1::2])).sum(axis=-1)
    # {Pi_a, X_i} = -1/Gamma_i * -dphi_a/dY_i and {Pi_a, Y_i} = -1/Gamma_i * dphi_a/dX_i
    pi_vortex = (inv[..., None, :, None] * np.stack([-grad[..., 1::2], grad[..., 0::2]], axis=-1)).reshape(grad.shape)
    pi_pi = star + g.sum(axis=-1)
    return float(pi_pi) if lead == () else pi_pi, pi_vortex, np.eye(n) * inv[..., None]


def jacobi_residual(
    structure_field: Callable[[FloatArray], FloatArray], points: FloatArray, h: float | FloatArray
) -> float | FloatArray:
    """Max over index triples of the cyclic Jacobi sum, derivatives by central differences,
    at one flat point (D,) or each point of a stack (..., D), with step h, a float or one
    per point; a float for one point.

    ``structure_field`` is called once, on the stencil stack (..., M, D): each point,
    then its ``oracle.fd_stencil`` points in their order; it returns the structure
    matrices there, (..., M, D, D)."""
    z = np.asarray(points, dtype=np.float64)
    lead, d = z.shape[:-1], z.shape[-1]
    h = np.broadcast_to(h, lead)
    stencils = np.concatenate([z[..., None, :], fd_stencil(z, h, 2)], axis=-2)
    lam = np.asarray(structure_field(stencils)).reshape((-1,) + stencils.shape[-2:] + (d,))
    dlam = fd_combine(lam[:, 1:], h.reshape(-1), 2)
    # every triple's cyclic sum at once; summing over l in index order, term by
    # term (not in one einsum), fixes the rounding to that of the scalar sum
    total = np.zeros(dlam.shape)
    for l in range(d):
        a, dl = lam[:, 0, :, l], dlam[:, l]
        total += (a[:, :, None, None] * dl[:, None] + a[:, None, :, None] * dl.swapaxes(1, 2)[:, :, None, :]
                  + a[:, None, None, :] * dl[..., None])
    i, j, k = np.ogrid[:d, :d, :d]
    worst = np.max(np.abs(total[:, (i < j) & (j < k)]), axis=-1, initial=0.0)
    return float(worst[0]) if lead == () else worst.reshape(lead)
