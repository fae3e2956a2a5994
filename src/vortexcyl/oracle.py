"""Independent cross-checks: finite differences, the classical image system,
and the chart-change pushforward test.

These deliberately avoid the code paths they certify: the image-system
velocity is built from first principles (two image vortices), not from the
Green's function, and the pushforward check sandwiches the momentum-chart
structure through the shift Jacobian instead of reusing the closed-form
velocity-chart matrix.

Central differences are built in one place: ``fd_stencil(point, h, order)``
stacks every point a stencil visits and ``fd_combine(values, h, order)`` turns
field values there into derivatives. Both take the step and the accuracy order
as plain values, checked by one rule (a positive finite step, an order of 2, 4
or 6), and run a batch-first core on a stack of one point; the cores take a
stack of flat points, each with its own step, so that a certificate row
differentiates all its states at once. ``fd_gradient(f, point, h, order)`` and
``fd_jacobian`` evaluate a one-point field on the stack; a caller with a
batched field evaluates the whole stack in one call. The pushforward check
likewise runs one core on a stack of states, built from the batch cores of
``maps`` and ``structures``.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .fluid import VortexSet

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


def _check_fd(h: float, order: int) -> FloatArray:
    """The central-difference step and order rule; returns h as a stack of one."""
    if not (np.isfinite(h) and h > 0):
        raise ValueError("h must be positive")
    if order not in _STENCILS:
        raise ValueError(f"order must be one of {sorted(_STENCILS)}")
    return np.array([h], dtype=np.float64)


def fd_stencil(point: FloatArray, h: float, order: int) -> FloatArray:
    """Every point a central difference of step h and accuracy order ``order``
    visits around ``point``, stacked as one (size * offsets * 2, *point.shape)
    array in visiting order: flat coordinate, then offset, then sign (+ before -).
    Evaluate a field on all of them at once, then hand the values to ``fd_combine``."""
    z = np.asarray(point, dtype=np.float64)
    return _stencil_stack(z.reshape(1, -1), order, _check_fd(h, order))[0].reshape(-1, *z.shape)


def fd_combine(values: FloatArray, h: float, order: int) -> FloatArray:
    """Derivatives from field values at the ``fd_stencil`` points (leading axis in
    its order), shape (dim, *value shape): sum of w (f+ - f-) over offsets, over h."""
    return _combine_stack(np.asarray(values)[None], order, _check_fd(h, order))[0]


def _stencil_stack(points: FloatArray, order: int, h: FloatArray) -> FloatArray:
    """``fd_stencil`` of each flat point in points (K, D) with its own step h (K,): (K, M, D)."""
    k, d = points.shape
    offsets, _ = _STENCILS[order]
    steps = np.zeros((k, d, len(offsets), d))
    steps[:, np.arange(d), :, np.arange(d)] = h[:, None] * np.array(offsets)
    flat = points[:, None, None, :]
    return np.stack([flat + steps, flat - steps], axis=3).reshape(k, 2 * len(offsets) * d, d)


def _combine_stack(values: FloatArray, order: int, h: FloatArray) -> FloatArray:
    """``fd_combine`` of each stack entry, values (K, M, ...) at the ``_stencil_stack``
    points with step h (K,): (K, D, ...)."""
    offsets, weights = _STENCILS[order]
    v = values.reshape(values.shape[0], values.shape[1] // (2 * len(offsets)), len(offsets), 2, *values.shape[2:])
    acc = 0.0
    for k, w in enumerate(weights):
        acc += w * (v[:, :, k, 0] - v[:, :, k, 1])
    return acc / h.reshape(-1, *[1] * (acc.ndim - 1))


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
    and decay rates agree with the textbook image system either way.
    """
    p = np.asarray(point, dtype=np.float64).reshape(2)
    d2 = float(p @ p)
    if d2 <= radius**2:
        raise ValueError("point must lie outside the body")
    velocity = np.zeros(2)
    for strength, source in ((-gamma, (radius**2 / d2) * p), (gamma, np.zeros(2))):
        rel = p - source
        r2 = float(rel @ rel)
        velocity += (strength / (2.0 * np.pi * r2)) * np.array([rel[1], -rel[0]])
    return velocity


def pushforward_check(state, body, strengths: FloatArray) -> float:
    """Max deviation of DS Lambda_momentum DS^T from the closed-form velocity matrix.

    ``state`` is a velocity-chart point; only the (V, X) block is compared
    (the Omega row of the closed-form matrix is itself defined by
    pushforward, so including it would be circular).
    """
    if state.chart != "velocity":
        raise ValueError("pushforward_check expects a velocity-chart state")
    vset = VortexSet(strengths, state.positions)
    vset.validate(body.radius)
    return float(_pushforward_stack(state.flat()[None], vset.strengths[None], body)[0])


def _pushforward_stack(z: FloatArray, g: FloatArray, body) -> FloatArray:
    """``pushforward_check`` of each flat velocity-chart state in z (K, D) with strengths g (K, N)."""
    from .maps import _shift_jacobian_stack, _shift_stack
    from .structures import _momentum_matrix_stack, _velocity_matrix_stack

    ds = _shift_jacobian_stack(z[:, 3:].reshape(len(z), -1, 2), g, body)
    pushed = ds @ _momentum_matrix_stack(_shift_stack(z, g, body), g) @ ds.swapaxes(1, 2)
    return np.max(np.abs(pushed - _velocity_matrix_stack(z, g, body))[:, 1:, 1:], axis=(1, 2))
