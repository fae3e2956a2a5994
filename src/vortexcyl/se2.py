"""The SE(2) rotation matrix and the body-to-inertial frame change.

A pose is a float array ordered (beta, x0_x, x0_y), an angle and a center
rather than a matrix, so it cannot drift away from orthogonality; ``rotation``
builds the matrix on demand. ``to_inertial`` maps body-frame points to
inertial ones for a whole stack of poses at once. The exact screw step that
advances a pose during integration is ``_kernels._pose_step``.
"""
from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

__all__ = ["rotation", "to_inertial"]


def rotation(beta: float) -> FloatArray:
    """2x2 counterclockwise rotation matrix."""
    c, s = np.cos(beta), np.sin(beta)
    return np.array([[c, -s], [s, c]])


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
