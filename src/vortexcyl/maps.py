"""Chart-to-chart and symmetry maps.

The momentum shift between the velocity chart (Omega, V, X) and the momentum
chart (A, L, X), its analytic Jacobian D(A, L, X) -> (Omega, V, X), the
conserved planar momentum of the combined system in body and spatial form, the
magnetic potential whose identity evaluation generates the shift, the magnetic
pairing on the symmetry generators, and the non-equivariance cocycle built
from those ingredients.
The shift, its Jacobian, the pairing and the cocycle each have one batch-first
core on stacks of configurations; ``shift_map``, ``shift_jacobian``,
``magnetic_pairing`` and ``cocycle_sigma`` validate one state and run it on a
stack of one. Everything on the symmetry algebra is a plain float array on its
(omega, x, y) basis: momenta and the magnetic potential (``fluid``'s
``batch_momentum_shift``, (..., 3) on a stack) are (3,) covectors, and the
pairing and the cocycle are antisymmetric (3, 3) two-forms, (K, 3, 3) on a
stack. A pose is the (beta, x0_x, x0_y) array of ``se2``.
"""
from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from . import fluid
from .energetics import BodyParams, _body_velocity_stack, shift_term_jacobian
from .fluid import VortexSet
from .oracle import _combine_stack, _stencil_stack
from .se2 import rotation, to_inertial
from .state import MOMENTUM, VELOCITY, ChartState

FloatArray = NDArray[np.float64]

__all__ = [
    "magnetic_potential",
    "shift_map",
    "inverse_shift_map",
    "shift_jacobian",
    "momentum_map",
    "magnetic_pairing",
    "cocycle_sigma",
]

def magnetic_potential(vortices: VortexSet, radius: float) -> FloatArray:
    """Momentum carried by the vortex system, evaluated at the identity pose, as
    (phi_omega, phi_x, phi_y).

    Components combine the bare vortex momentum with the stream-function
    contribution of the body's image system:
        phi_x = sum Gamma_i (-Y_i + Psi_X(X_i)),  phi_y = sum Gamma_i (X_i + Psi_Y(X_i)),
        phi_omega = sum Gamma_i |X_i|^2 / 2.
    """
    vortices.validate(radius)
    return fluid.batch_momentum_shift(vortices.positions, vortices.strengths, radius)


def shift_map(state: ChartState, strengths: FloatArray, body: BodyParams) -> ChartState:
    """Velocity chart -> momentum chart; the identity on vortex positions.

    L = c V + sum Gamma_k X_k x e3 + sum Gamma_k R^2 (e3 x X_k)/|X_k|^2
    A = I Omega - sum Gamma_i |X_i|^2 / 2.
    """
    if state.chart != VELOCITY:
        raise ValueError("shift_map expects a velocity-chart state")
    g = VortexSet(strengths, state.positions).strengths
    return ChartState(MOMENTUM, _shift_stack(state.flat()[None], g[None], body)[0, :3], state.positions)


def _shift_stack(z: FloatArray, g: FloatArray, body: BodyParams) -> FloatArray:
    """``shift_map`` of flat velocity-chart states z (..., 3 + 2N) with strengths g (..., N)."""
    phi = fluid.batch_momentum_shift(z[..., 3:].reshape(*z.shape[:-1], -1, 2), g, body.radius)
    out = z.copy()
    out[..., 0] = body.inertia * z[..., 0] - phi[..., 0]
    out[..., 1:3] = body.c * z[..., 1:3] - phi[..., 1:]
    return out


def inverse_shift_map(state: ChartState, strengths: FloatArray, body: BodyParams) -> ChartState:
    """Momentum chart -> velocity chart, solving the shift linearly for (Omega, V)."""
    if state.chart != MOMENTUM:
        raise ValueError("inverse_shift_map expects a momentum-chart state")
    g = VortexSet(strengths, state.positions).strengths
    return ChartState(VELOCITY, _body_velocity_stack(MOMENTUM, state.flat()[None], g[None], body)[0], state.positions)


def shift_jacobian(positions: FloatArray, strengths: FloatArray, body: BodyParams) -> FloatArray:
    """Analytic Jacobian of the chart map (A, L, X) -> (Omega, V, X); depends on
    positions only. Row/column layout matches the flat state layout.
    """
    x = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    g = np.asarray(strengths, dtype=np.float64)
    return _shift_jacobian_stack(x[None], g[None], body)[0]


def _shift_jacobian_stack(x: FloatArray, g: FloatArray, body: BodyParams) -> FloatArray:
    """``shift_jacobian`` of each configuration in x (..., N, 2) with strengths g (..., N)."""
    dim = 3 + 2 * x.shape[-2]
    jac = np.broadcast_to(np.eye(dim), x.shape[:-2] + (dim, dim)).copy()
    jac[..., 0, 0] = 1.0 / body.inertia
    jac[..., 1, 1] = jac[..., 2, 2] = 1.0 / body.c
    jac[..., 0, 3:] = (g[..., None] * x).reshape(*x.shape[:-2], -1) / body.inertia
    jac[..., 1:3, 3:] = shift_term_jacobian(x, g, body.radius) / body.c
    return jac


def momentum_map(
    pose: FloatArray,
    pi: FloatArray,
    vortices: VortexSet,
    radius: float,
    via: str = "body",
) -> FloatArray:
    """Spatial momentum (J_omega, J_x, J_y) of the solid-fluid system at a pose
    (beta, x0_x, x0_y), given the body momentum pi on the (omega, x, y) basis.

    ``via='body'`` shifts the body momentum and pushes it to the spatial
    frame; ``via='spatial'`` evaluates directly from inertial vortex
    positions. The two agree identically and at the identity pose both
    reduce to the body momentum map pi - phi.
    """
    vortices.validate(radius)
    pose = np.asarray(pose, dtype=np.float64).reshape(3)
    pi = np.asarray(pi, dtype=np.float64).reshape(3)
    x0 = pose[1:]
    g = vortices.strengths
    rot = rotation(pose[0])
    if via == "body":
        j_body = pi - magnetic_potential(vortices, radius)
        j_xy = rot @ j_body[1:] + vortices.total_strength * np.array([x0[1], -x0[0]])
        j_om = j_body[0] + x0[0] * j_xy[1] - x0[1] * j_xy[0]
        return np.array([j_om, *j_xy])
    if via != "spatial":
        raise ValueError("via must be 'body' or 'spatial'")
    inertial = to_inertial(pose, vortices.positions)
    rel = inertial - x0
    d2 = np.sum(rel * rel, axis=1)
    # spatial elementary streams evaluated at the inertial vortex positions
    psi = np.stack(fluid.elementary_streams(rel, radius, check=False)[:2], axis=1)
    cross = np.stack([inertial[:, 1], -inertial[:, 0]], axis=1)
    # No standalone total-strength pose term here: the frame change of the
    # vortex sum generates it, which is exactly what the body-to-spatial
    # relation adds back on the other path.
    j_xy = rot @ pi[1:]
    if vortices.n:
        j_xy = j_xy + (g[:, None] * (cross - psi)).sum(axis=0)
    j_om = pi[0] - float(0.5 * np.sum(g * d2)) + x0[0] * j_xy[1] - x0[1] * j_xy[0]
    return np.array([j_om, *j_xy])


def magnetic_pairing(vortices: VortexSet, radius: float) -> FloatArray:
    """Magnetic two-form on the (omega, x, y) basis of the symmetry generators:
    antisymmetric, shape (3, 3)."""
    vortices.validate(radius)
    return _pairing_stack(vortices.positions[None], vortices.strengths[None], radius)[0]


def _pairing_stack(x: FloatArray, g: FloatArray, radius: float) -> FloatArray:
    """The magnetic two-form on the (omega, x, y) basis of each configuration in x (K, N, 2)
    with strengths g (K, N), unvalidated: antisymmetric, shape (K, 3, 3).

    Sums over vortices the area form of the two generator velocities, (1, 0) and
    (0, 1) for the translations and (-Y_i, X_i) for the rotation, plus the
    stream-function coupling: translation-translation pairs reduce to minus the
    total strength, and pairs with the rotation pick up the gradient of the
    matching elementary stream along the rotational flow. The pose derivative of
    a stream function under a translation cancels its spatial gradient exactly,
    so those contributions are identically zero. Each stream gradient is an
    order-6 central difference with step 1e-3 (1 + |X_i|).
    """
    k, n = g.shape
    points = x.reshape(k * n, 2)
    h = 1e-3 * (1.0 + np.hypot(points[:, 0], points[:, 1]))
    psi_x, psi_y, _ = fluid.elementary_streams(_stencil_stack(points, 6, h), radius, check=False)
    grad = _combine_stack(np.stack([psi_x, psi_y], axis=-1), 6, h).reshape(k, n, 2, 2)  # (K, N, coordinate, stream)
    px, py = x[..., 0], x[..., 1]
    along = grad[:, :, 0] * -py[..., None] + grad[:, :, 1] * px[..., None]  # (K, N, stream)
    upper = np.zeros((k, 3, 3))
    upper[:, 0, 1] = (g * (px - along[..., 0])).sum(axis=-1)
    upper[:, 0, 2] = (g * (py - along[..., 1])).sum(axis=-1)
    upper[:, 1, 2] = (-g).sum(axis=-1)
    return upper - upper.swapaxes(1, 2)


def cocycle_sigma(vortices: VortexSet, radius: float) -> FloatArray:
    """Non-equivariance cocycle Sigma(xi, eta) = -<phi, [xi, eta]> + beta(xi, eta)
    on the (omega, x, y) basis: antisymmetric, shape (3, 3).

    The mixed components cancel numerically; the surviving component is
    Sigma(e_x, e_y) = -(total vortex strength).
    """
    vortices.validate(radius)
    return _cocycle_stack(vortices.positions[None], vortices.strengths[None], radius)[0]


def _cocycle_stack(x: FloatArray, g: FloatArray, radius: float) -> FloatArray:
    """``cocycle_sigma`` of each configuration in x (K, N, 2) with strengths g (K, N),
    unvalidated, as an antisymmetric (K, 3, 3) on the (omega, x, y) basis."""
    phi = fluid.batch_momentum_shift(x, g, radius)
    # <phi, [e_a, e_b]> with the planar Euclidean structure constants
    # [e_omega, e_x] = e_y, [e_omega, e_y] = -e_x, [e_x, e_y] = 0
    upper = np.zeros((len(g), 3, 3))
    upper[:, 0, 1] = phi[:, 2]
    upper[:, 0, 2] = -phi[:, 1]
    return _pairing_stack(x, g, radius) - (upper - upper.swapaxes(1, 2))
