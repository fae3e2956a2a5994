"""Independent cross-checks: finite differences, the classical image system,
and the chart-change pushforward test.

These deliberately avoid the code paths they certify: the image-system
velocity is built from first principles (two image vortices), not from the
Green's function, and the pushforward check sandwiches the momentum-chart
structure through the shift Jacobian instead of reusing the closed-form
velocity-chart matrix.

Central differences are built in one place: ``fd_stencil`` stacks every point
a stencil visits and ``fd_combine`` turns field values there into derivatives.
``fd_gradient`` and ``fd_jacobian`` evaluate a one-point field on the stack;
a caller with a batched field evaluates the whole stack in one call.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

__all__ = [
    "FdSpec", "fd_stencil", "fd_combine", "fd_gradient", "fd_jacobian", "image_vortex_velocity", "pushforward_check",
]

# Central-difference weights for first derivatives, by order of accuracy.
_STENCILS = {
    2: ((1,), (0.5,)),
    4: ((1, 2), (2.0 / 3.0, -1.0 / 12.0)),
    6: ((1, 2, 3), (0.75, -0.15, 1.0 / 60.0)),
}


@dataclass(frozen=True)
class FdSpec:
    """Step size and accuracy order for central differences."""

    h: float = 1e-5
    order: int = 4

    def __post_init__(self) -> None:
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError("h must be positive")
        if self.order not in _STENCILS:
            raise ValueError(f"order must be one of {sorted(_STENCILS)}")


def fd_stencil(point: FloatArray, spec: FdSpec) -> FloatArray:
    """Every point a central difference visits around ``point``, stacked as one
    (size * offsets * 2, *point.shape) array in visiting order: flat coordinate,
    then offset, then sign (+ before -). Evaluate a field on all of them at
    once, then hand the values to ``fd_combine``."""
    z = np.asarray(point, dtype=np.float64)
    offsets, _ = _STENCILS[spec.order]
    steps = np.zeros((z.size, len(offsets), z.size))
    steps[np.arange(z.size), :, np.arange(z.size)] = np.array(offsets) * spec.h
    flat = z.reshape(-1)
    return np.stack([flat + steps, flat - steps], axis=2).reshape(2 * len(offsets) * z.size, *z.shape)


def fd_combine(values: FloatArray, spec: FdSpec) -> FloatArray:
    """Derivatives from field values at the ``fd_stencil`` points (leading axis in
    its order), shape (dim, *value shape): sum of w (f+ - f-) over offsets, over h."""
    offsets, weights = _STENCILS[spec.order]
    v = np.asarray(values)
    v = v.reshape(-1, len(offsets), 2, *v.shape[1:])
    acc = 0.0
    for k, w in enumerate(weights):
        acc += w * (v[:, k, 0] - v[:, k, 1])
    return acc / spec.h


def fd_gradient(f: Callable[[FloatArray], float], point: FloatArray, spec: FdSpec = FdSpec()) -> FloatArray:
    """Central-difference gradient of a scalar field."""
    return fd_combine([f(p) for p in fd_stencil(point, spec)], spec)


def fd_jacobian(
    f: Callable[[FloatArray], FloatArray], point: FloatArray, spec: FdSpec = FdSpec()
) -> FloatArray:
    """Central-difference Jacobian of a vector field (rows = outputs)."""
    return fd_combine([np.asarray(f(p)) for p in fd_stencil(point, spec)], spec).T


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
    from .maps import shift_jacobian, shift_map
    from .structures import momentum_structure_matrix, velocity_structure_matrix

    g = np.asarray(strengths, dtype=np.float64)
    z = shift_map(state, g, body)
    ds = shift_jacobian(z.positions, g, body, direction="to_velocity")
    pushed = ds @ momentum_structure_matrix(z, g) @ ds.T
    target = velocity_structure_matrix(state, g, body)
    return float(np.max(np.abs(pushed[1:, 1:] - target[1:, 1:])))
