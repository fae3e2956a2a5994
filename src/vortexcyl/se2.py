"""SE(2) poses and costates, the rotation matrix and the body-to-inertial frame change.

A pose is stored as (angle, center) rather than as a matrix, so it cannot
drift away from orthogonality; ``rotation`` builds the matrix on demand.
``to_inertial`` maps body-frame points to inertial ones for a whole stack of
poses at once. The exact screw step that advances a pose during integration
is ``_kernels._pose_step``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

__all__ = [
    "Se2Element",
    "Se2Costate",
    "normalize_angle",
    "rotation",
    "to_inertial",
]


def normalize_angle(beta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    beta = float(beta)
    wrapped = np.remainder(beta + np.pi, 2.0 * np.pi) - np.pi
    if wrapped == -np.pi:
        wrapped = np.pi
    return float(wrapped)


def rotation(beta: float) -> FloatArray:
    """2x2 counterclockwise rotation matrix."""
    c, s = np.cos(beta), np.sin(beta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class Se2Element:
    """Planar pose: rotation angle ``beta`` and center position ``x0``."""

    beta: float = 0.0
    x0: FloatArray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", normalize_angle(self.beta))
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=np.float64).reshape(2))


@dataclass(frozen=True)
class Se2Costate:
    """Momentum covector: angular part ``pi_omega`` and linear part ``pi_xy``."""

    pi_omega: float = 0.0
    pi_xy: FloatArray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self) -> None:
        object.__setattr__(self, "pi_omega", float(self.pi_omega))
        object.__setattr__(self, "pi_xy", np.asarray(self.pi_xy, dtype=np.float64).reshape(2))

    def as_array(self) -> FloatArray:
        """Components ordered (omega, x, y)."""
        return np.array([self.pi_omega, self.pi_xy[0], self.pi_xy[1]])


def to_inertial(poses: FloatArray, points: FloatArray) -> FloatArray:
    """Inertial coordinates x = R(beta) X + x0 of body-frame points (..., N, 2) under
    poses (..., 3) ordered (beta, x0_x, x0_y); shape (..., N, 2)."""
    cos_b, sin_b = np.cos(poses[..., 0:1]), np.sin(poses[..., 0:1])
    x, y = points[..., 0], points[..., 1]
    return np.stack(
        [
            cos_b * x - sin_b * y + poses[..., 1:2],
            sin_b * x + cos_b * y + poses[..., 2:3],
        ],
        axis=-1,
    )
