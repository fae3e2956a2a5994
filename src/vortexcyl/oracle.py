"""Independent cross-checks: finite differences, the classical image system,
and the chart-change pushforward test.

These deliberately avoid the code paths they certify: the image-system
velocity is built from first principles (two image vortices), not from the
Green's function, and the pushforward check sandwiches the momentum-chart
structure through the shift Jacobian instead of reusing the closed-form
velocity-chart matrix.

Central differences are built in one place: ``fd_stencil(point, h, order)``
stacks every point a stencil visits and ``fd_combine(values, h, order)`` turns
field values there into derivatives. Both take the accuracy order and the
step, checked by one rule (a positive finite step, an order of 2, 4 or 6). A
float step means one point of any shape; an array of steps (...) means a stack
of points with those leading axes and a step each, so that a certificate
differentiates all its states or vortices at once.
``fd_gradient(f, point, h, order)`` and ``fd_jacobian`` evaluate a one-point
field on the stack; a caller with a batched field evaluates the whole stack in
one call. The pushforward check is one function on one velocity-chart state or
a stack of them, built from the public structure matrices, shift Jacobian and
shift map, and compares every entry.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .fluid import ValidationError, validate_stack
from .state import ChartState

FloatArray = NDArray[np.float64]

__all__ = [
    "fd_stencil", "fd_combine", "fd_gradient", "fd_jacobian", "image_vortex_velocity", "pushforward_check",
]

# Central-difference weights for first derivatives, by order of accuracy.
_STENCILS = {
    2: ((1,), (0.5,)),
    4: ((1, 2), (2.0 / 3.0, -1.0 / 12.0)),
    6: ((1, 2, 3), (0.75, -0.15, 1.0 / 60.0)),
}


def _check_fd(h: float | FloatArray, order: int, shape: tuple[int, ...]) -> FloatArray:
    """The central-difference step and order rule for one step or one per point of a stack
    whose array has shape ``shape``, led by the steps' shape; the steps."""
    h = np.asarray(h, dtype=np.float64)
    if not (np.isfinite(h) & (h > 0)).all():
        raise ValidationError("h must be positive")
    if order not in _STENCILS:
        raise ValidationError(f"order must be one of {sorted(_STENCILS)}")
    if shape[: h.ndim] != h.shape:
        raise ValidationError(f"an array {shape} does not lead with the steps' shape {h.shape}")
    return h


def fd_stencil(point: FloatArray, h: float | FloatArray, order: int) -> FloatArray:
    """Every point a central difference of step h and accuracy order ``order``
    visits around ``point``, stacked as one (size * offsets * 2, *point.shape)
    array in visiting order: flat coordinate, then offset, then sign (+ before -);
    for a stack of points (..., *point shape) with a step array h (...), a step each,
    (..., M, *point shape). Evaluate a field there, then call ``fd_combine``."""
    z = np.asarray(point, dtype=np.float64)
    h = _check_fd(h, order, z.shape)
    lead, shape = h.shape, z.shape[h.ndim :]
    d = int(np.prod(shape))
    offsets, _ = _STENCILS[order]
    steps = np.zeros(lead + (d, len(offsets), d))
    steps[..., np.arange(d), :, np.arange(d)] = h[..., None] * np.array(offsets)
    flat = z.reshape(lead + (1, 1, d))
    return np.stack([flat + steps, flat - steps], axis=-2).reshape(lead + (2 * len(offsets) * d,) + shape)


def fd_combine(values: FloatArray, h: float | FloatArray, order: int) -> FloatArray:
    """Derivatives from field values at the ``fd_stencil`` points (leading axis in
    its order), shape (dim, *value shape): sum of w (f+ - f-) over offsets, over h.
    A step array h (...) takes values (..., M, *value shape) at a stack's stencils
    and gives (..., dim, *value shape)."""
    values = np.asarray(values)
    h = _check_fd(h, order, values.shape)
    offsets, weights = _STENCILS[order]
    if values.ndim <= h.ndim or values.shape[h.ndim] % (2 * len(offsets)):
        raise ValidationError(f"values {values.shape} hold no order-{order} stencil axis after the steps {h.shape}")
    lead, m = h.shape, values.shape[h.ndim]
    v = values.reshape(lead + (m // (2 * len(offsets)), len(offsets), 2) + values.shape[h.ndim + 1 :])
    at = (slice(None),) * (h.ndim + 1)  # the stack's axes and the coordinate
    acc = sum(w * (v[at + (k, 0)] - v[at + (k, 1)]) for k, w in enumerate(weights))
    return acc / h.reshape(h.shape + (1,) * (acc.ndim - h.ndim))


def fd_gradient(f: Callable[[FloatArray], float], point: FloatArray, h: float = 1e-5, order: int = 4) -> FloatArray:
    """Central-difference gradient of a scalar field."""
    return fd_combine([f(p) for p in fd_stencil(point, h, order)], h, order)


def fd_jacobian(f: Callable[[FloatArray], FloatArray], point: FloatArray, h: float = 1e-5, order: int = 4) -> FloatArray:
    """Central-difference Jacobian of a vector field (rows = outputs)."""
    return fd_combine([np.asarray(f(p)) for p in fd_stencil(point, h, order)], h, order).T


def image_vortex_velocity(point: FloatArray, gamma: float, radius: float) -> FloatArray:
    """Velocity a vortex feels from its zero-circulation image system.

    Images: strength -gamma at the inverse point (R^2/|X|^2) X and +gamma at
    the center. Self-induction is excluded. The swirl orientation matches
    this package's bracket convention (a positive-strength vortex drives
    clockwise swirl, so the induced orbit here is counterclockwise); speeds
    and decay rates agree with the textbook image system either way. The vortex
    is admitted as ``fluid.validate_stack`` admits one.
    """
    validate_stack([gamma], np.reshape(point, (1, -1)), radius)
    p = np.asarray(point, dtype=np.float64).reshape(2)
    d2 = float(p @ p)
    velocity = np.zeros(2)
    for strength, source in ((-gamma, (radius**2 / d2) * p), (gamma, np.zeros(2))):
        rel = p - source
        r2 = float(rel @ rel)
        velocity += (strength / (2.0 * np.pi * r2)) * np.array([rel[1], -rel[0]])
    return velocity


def pushforward_check(state: ChartState, body, strengths: FloatArray) -> float | FloatArray:
    """Max deviation of DS Lambda_momentum DS^T from the closed-form velocity matrix.

    ``state`` is a velocity-chart point, or a stack of them with a deviation
    each (a float for one point); every entry is compared.
    """
    from .maps import shift_jacobian, shift_map
    from .structures import momentum_structure_matrix, velocity_structure_matrix

    lam = velocity_structure_matrix(state, strengths, body)
    g = np.broadcast_to(strengths, state.shape + (state.n,))
    ds = shift_jacobian(state.positions, g, body)
    pushed = ds @ momentum_structure_matrix(shift_map(state, g, body), g) @ ds.swapaxes(-1, -2)
    deviation = np.max(np.abs(pushed - lam), axis=(-2, -1))
    return float(deviation) if state.shape == () else deviation
