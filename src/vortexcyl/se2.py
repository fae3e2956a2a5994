"""SE(2) group arithmetic: poses, costates and frame changes.

The exact screw step that advances a pose during integration is
``_kernels._pose_step``.

Poses are stored as (angle, center) rather than matrices so repeated
composition cannot drift away from orthogonality; rotation matrices are
built on demand.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

__all__ = [
    "Se2Element",
    "Se2Costate",
    "identity",
    "normalize_angle",
    "rotation",
    "se2_compose",
    "se2_body_to_inertial",
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

    def matrix(self) -> FloatArray:
        """Homogeneous 3x3 representation."""
        m = np.eye(3)
        m[:2, :2] = rotation(self.beta)
        m[:2, 2] = self.x0
        return m


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


def identity() -> Se2Element:
    return Se2Element(0.0, np.zeros(2))


def se2_compose(g1: Se2Element, g2: Se2Element) -> Se2Element:
    """Group product; equals the product of the homogeneous matrices."""
    beta = normalize_angle(g1.beta + g2.beta)
    x0 = rotation(g1.beta) @ g2.x0 + g1.x0
    return Se2Element(beta, x0)


def se2_body_to_inertial(g: Se2Element, point: FloatArray, inverse: bool = False) -> FloatArray:
    """Map body-frame coordinates to inertial ones, x = R X + x0.

    With ``inverse=True`` maps the other way, X = R^T (x - x0).
    """
    p = np.asarray(point, dtype=np.float64)
    if inverse:
        return (p - g.x0) @ rotation(g.beta)  # right-multiplying by R equals R^T p
    return p @ rotation(g.beta).T + g.x0

