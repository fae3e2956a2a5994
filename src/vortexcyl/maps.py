"""Chart-to-chart and symmetry maps.

The momentum shift between the velocity chart (Omega, V, X) and the momentum
chart (A, L, X), its analytic Jacobian D(A, L, X) -> (Omega, V, X), the
conserved spatial momentum J of the combined system in closed form from a pose
and a momentum-chart triple, the magnetic potential whose identity evaluation
generates the shift, the magnetic pairing on the symmetry generators, and the
non-equivariance cocycle built from those ingredients.
One function per ingredient, on one state or configuration or on a stack
with leading axes: the shift maps take a ``ChartState`` and check it through
``state.admit``; the Jacobian, the magnetic potential, the pairing and the
cocycle take positions (..., N, 2) and strengths (..., N), and all but the
Jacobian validate them. ``integrate`` runs the shift's private core,
``_shift_stack``, on its recorded states unvalidated. The pairing and the
interaction table of ``structures`` share one stream stencil,
``_stream_gradient``. Everything on the symmetry algebra is a plain float
array on its (omega, x, y) basis: momenta and the magnetic potential are
(..., 3) covectors, and the pairing and the cocycle are antisymmetric
(..., 3, 3) two-forms. A pose is the (beta, x0_x, x0_y) array of ``se2``,
and ``momentum_map`` takes stacks of poses and triples alike.
"""
from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from . import fluid
from .energetics import BodyParams, _body_velocity_stack, shift_term_jacobian
from .oracle import fd_combine, fd_stencil
from .state import MOMENTUM, VELOCITY, ChartState, admit

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

def magnetic_potential(positions: FloatArray, strengths: FloatArray, radius: float) -> FloatArray:
    """Momentum carried by the vortex system, evaluated at the identity pose, as
    (phi_omega, phi_x, phi_y), of configurations (..., N, 2) with strengths (..., N).

    Components combine the bare vortex momentum with the stream-function
    contribution of the body's image system:
        phi_x = sum Gamma_i (-Y_i + Psi_X(X_i)),  phi_y = sum Gamma_i (X_i + Psi_Y(X_i)),
        phi_omega = sum Gamma_i |X_i|^2 / 2.
    """
    fluid.validate_stack(strengths, positions, radius)
    return fluid.batch_momentum_shift(positions, strengths, radius)


def shift_map(state: ChartState, strengths: FloatArray, body: BodyParams) -> ChartState:
    """Velocity chart -> momentum chart; the identity on vortex positions.

    L = c V + sum Gamma_k X_k x e3 + sum Gamma_k R^2 (e3 x X_k)/|X_k|^2
    A = I Omega - sum Gamma_i |X_i|^2 / 2.
    """
    z, g = admit(state, VELOCITY, strengths, body.radius)
    return ChartState(MOMENTUM, _shift_stack(z, g, body)[..., :3], state.positions)


def _shift_stack(z: FloatArray, g: FloatArray, body: BodyParams) -> FloatArray:
    """``shift_map`` of flat velocity-chart states z (..., 3 + 2N) with strengths g (..., N), unvalidated."""
    phi = fluid.batch_momentum_shift(z[..., 3:].reshape(*z.shape[:-1], -1, 2), g, body.radius)
    out = z.copy()
    out[..., 0] = body.inertia * z[..., 0] - phi[..., 0]
    out[..., 1:3] = body.c * z[..., 1:3] - phi[..., 1:]
    return out


def inverse_shift_map(state: ChartState, strengths: FloatArray, body: BodyParams) -> ChartState:
    """Momentum chart -> velocity chart, solving the shift linearly for (Omega, V)."""
    z, g = admit(state, MOMENTUM, strengths, body.radius)
    return ChartState(VELOCITY, _body_velocity_stack(MOMENTUM, z, g, body), state.positions)


def shift_jacobian(positions: FloatArray, strengths: FloatArray, body: BodyParams) -> FloatArray:
    """Analytic Jacobian of the chart map (A, L, X) -> (Omega, V, X) of configurations
    (..., N, 2) with strengths (..., N), unvalidated; it depends on positions only. Row
    and column layout match the flat state layout: shape (..., 3 + 2N, 3 + 2N).
    """
    x = np.asarray(positions, dtype=np.float64)
    g = np.asarray(strengths, dtype=np.float64)
    dim = 3 + 2 * x.shape[-2]
    jac = np.broadcast_to(np.eye(dim), x.shape[:-2] + (dim, dim)).copy()
    jac[..., 0, 0] = 1.0 / body.inertia
    jac[..., 1, 1] = jac[..., 2, 2] = 1.0 / body.c
    jac[..., 0, 3:] = (g[..., None] * x).reshape(*x.shape[:-2], -1) / body.inertia
    jac[..., 1:3, 3:] = shift_term_jacobian(x, g, body.radius) / body.c
    return jac


def momentum_map(pose: FloatArray, momentum: FloatArray, total_strength: float) -> FloatArray:
    """Spatial momentum (J_omega, J_x, J_y) of the solid-fluid system at poses
    (..., 3) ordered (beta, x0_x, x0_y) and momentum-chart triples (..., 3) ordered
    (A, Lx, Ly); shape (..., 3). A velocity-chart state reaches its triple
    through ``shift_map``.

        J_xy = R(beta) L + Gamma (-x0_y, x0_x),
        J_omega = A + x0 x R(beta) L + Gamma |x0|^2 / 2,

    with Gamma the total vortex strength. J is conserved along the flow, equals the
    momentum triple at the identity pose, and |J_xy|^2 - 2 Gamma J_omega equals the
    Casimir Lx^2 + Ly^2 - 2 Gamma A of the momentum chart.
    """
    pose = np.asarray(pose, dtype=np.float64)
    momentum = np.asarray(momentum, dtype=np.float64)
    cos_b, sin_b = np.cos(pose[..., 0]), np.sin(pose[..., 0])
    x, y = pose[..., 1], pose[..., 2]
    lx, ly = momentum[..., 1], momentum[..., 2]
    rx, ry = cos_b * lx - sin_b * ly, sin_b * lx + cos_b * ly  # R(beta) L
    j_omega = momentum[..., 0] + (x * ry - y * rx) + 0.5 * total_strength * (x * x + y * y)
    return np.stack([j_omega, rx - total_strength * y, ry + total_strength * x], axis=-1)


def magnetic_pairing(positions: FloatArray, strengths: FloatArray, radius: float) -> FloatArray:
    """Magnetic two-form on the (omega, x, y) basis of the symmetry generators of
    configurations (..., N, 2) with strengths (..., N): antisymmetric, shape (..., 3, 3).

    Sums over vortices the area form of the two generator velocities, (1, 0) and
    (0, 1) for the translations and (-Y_i, X_i) for the rotation, plus the
    stream-function coupling: translation-translation pairs reduce to minus the
    total strength, and pairs with the rotation pick up the gradient of the
    matching elementary stream along the rotational flow. The pose derivative of
    a stream function under a translation cancels its spatial gradient exactly,
    so those contributions are identically zero. Each stream gradient is an
    order-6 central difference with step 1e-3 |X_i| (``_stream_gradient``).
    """
    fluid.validate_stack(strengths, positions, radius)
    x = np.asarray(positions, dtype=np.float64)
    g = np.asarray(strengths, dtype=np.float64)
    grad = _stream_gradient(x, radius)
    px, py = x[..., 0], x[..., 1]
    along = grad[..., 0, :] * -py[..., None] + grad[..., 1, :] * px[..., None]  # (..., N, stream)
    upper = np.zeros(x.shape[:-2] + (3, 3))
    upper[..., 0, 1] = (g * (px - along[..., 0])).sum(axis=-1)
    upper[..., 0, 2] = (g * (py - along[..., 1])).sum(axis=-1)
    upper[..., 1, 2] = (-g).sum(axis=-1)
    return upper - upper.swapaxes(-1, -2)


def _stream_gradient(positions: FloatArray, radius: float) -> FloatArray:
    """Gradients (..., N, coordinate, stream) of (Psi_X, Psi_Y) at the vortices (..., N, 2),
    unvalidated: order-6 central differences of step 1e-3 |X_i|, which scales with the
    system; a stencil may step inside the body, where the streams continue analytically."""
    h = 1e-3 * np.hypot(positions[..., 0], positions[..., 1])
    psi_x, psi_y, _ = fluid.elementary_streams(fd_stencil(positions, h, 6), radius, check=False)
    return fd_combine(np.stack([psi_x, psi_y], axis=-1), h, 6)


def cocycle_sigma(positions: FloatArray, strengths: FloatArray, radius: float) -> FloatArray:
    """Non-equivariance cocycle Sigma(xi, eta) = -<phi, [xi, eta]> + beta(xi, eta)
    of configurations (..., N, 2) with strengths (..., N) on the (omega, x, y) basis:
    antisymmetric, shape (..., 3, 3).

    The mixed components cancel numerically; the surviving component is
    Sigma(e_x, e_y) = -(total vortex strength).
    """
    pairing = magnetic_pairing(positions, strengths, radius)  # validates the configurations
    phi = fluid.batch_momentum_shift(positions, strengths, radius)
    # <phi, [e_a, e_b]> with the planar Euclidean structure constants
    # [e_omega, e_x] = e_y, [e_omega, e_y] = -e_x, [e_x, e_y] = 0
    upper = np.zeros(phi.shape[:-1] + (3, 3))
    upper[..., 0, 1] = phi[..., 2]
    upper[..., 0, 2] = -phi[..., 1]
    return pairing - (upper - upper.swapaxes(-1, -2))
