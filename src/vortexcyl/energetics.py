"""The body's parameters and locked inertia, and the chart Hamiltonians.

The body enters the energy through its locked inertia only: c = m + pi R^2 on
the translations and I on the rotation, since the circle adds no inertia.
Both charts share one energy: H = |V|^2 c/2 + Omega^2 I/2 - W_G(X). In the
velocity chart that is the formula verbatim; in the momentum chart the body
velocities are recovered from (A, L, X) through the momentum shift
    L = c V - phi_xy(X),   A = I Omega - phi_omega(X),
so the two charts agree identically under the shift map.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import fluid
from .fluid import ValidationError, VortexSet
from .state import VELOCITY, ChartState, canonical_chart

FloatArray = NDArray[np.float64]

__all__ = [
    "BodyParams",
    "hamiltonian",
    "hamiltonian_gradient",
    "shift_term_jacobian",
]


@dataclass(frozen=True)
class BodyParams:
    """Intrinsic body mass, moment of inertia, and radius."""

    mass: float
    inertia: float
    radius: float

    def __post_init__(self) -> None:
        for name in ("mass", "inertia", "radius"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValidationError(f"{name} must be a positive finite float")
            object.__setattr__(self, name, float(v))
        # the drive loop divides by radius**2, taken with Python's float **, which raises on overflow
        if not np.finfo(float).tiny <= self.radius * self.radius < np.inf:
            raise ValidationError(f"radius = {self.radius:g} has a square outside the float range")
        if self.c == np.inf:
            raise ValidationError(f"mass + pi * radius**2 = inf at mass = {self.mass:g}, radius = {self.radius:g}")

    @property
    def c(self) -> float:
        """Translational inertia of body plus fluid, m + pi R^2; the rotational one is ``inertia``."""
        return self.mass + np.pi * self.radius**2


def _body_velocity_stack(chart: str, z: FloatArray, g: FloatArray, body: BodyParams) -> FloatArray:
    """(Omega, Vx, Vy), shape (..., 3), of flat states z (..., 3 + 2N) of one chart
    with strengths g (..., N)."""
    if chart == VELOCITY:
        return z[..., :3]
    phi = fluid.batch_momentum_shift(z[..., 3:].reshape(*z.shape[:-1], -1, 2), g, body.radius)
    return (z[..., :3] + phi) / np.array([body.inertia, body.c, body.c])


def hamiltonian(chart: str, state: ChartState, body: BodyParams, strengths: FloatArray) -> float:
    """Total energy at a state of the requested chart."""
    chart = canonical_chart(chart)
    if state.chart != chart:
        raise ValidationError(f"state belongs to chart {state.chart!r}, not {chart!r}")
    vset = VortexSet(strengths, state.positions)
    vset.validate(body.radius)
    return float(_energy_stack(chart, state.flat()[None], vset.strengths[None], body)[0])


def _energy_stack(chart: str, z: FloatArray, g: FloatArray, body: BodyParams) -> FloatArray:
    """Energy of flat states z (..., 3 + 2N) of one chart with strengths g (..., N), unvalidated."""
    w = _body_velocity_stack(chart, z, g, body)
    omega, v = w[..., 0], w[..., 1:]
    wg = fluid.batch_kirchhoff_routh(z[..., 3:].reshape(*z.shape[:-1], -1, 2), g, body.radius)
    # |V|^2 as an elementwise square and sum: a dot product may round differently,
    # and integrate's energy column, which this core computes, keeps these bits
    return 0.5 * body.c * (v * v).sum(axis=-1) + 0.5 * body.inertia * omega**2 - wg


def shift_term_jacobian(positions: FloatArray, strengths: FloatArray, radius: float) -> FloatArray:
    """d(phi_x, phi_y)/d(X_i, Y_i) of each configuration in positions (..., N, 2) with
    strengths (..., N), stacked as shape (..., 2, 2N)."""
    x = np.asarray(positions, dtype=np.float64)
    g = np.asarray(strengths, dtype=np.float64)
    r2 = radius**2
    xi, yi = x[..., 0], x[..., 1]
    d2 = xi * xi + yi * yi
    d4 = d2 * d2
    out = np.zeros(x.shape[:-2] + (2, 2 * x.shape[-2]))
    out[..., 0, 0::2] = -2.0 * g * r2 * xi * yi / d4
    out[..., 0, 1::2] = -g * (d4 - r2 * (xi * xi - yi * yi)) / d4
    out[..., 1, 0::2] = g * (d4 + r2 * (xi * xi - yi * yi)) / d4
    out[..., 1, 1::2] = 2.0 * g * r2 * xi * yi / d4
    return out


def hamiltonian_gradient(chart: str, state: ChartState, body: BodyParams, strengths: FloatArray) -> FloatArray:
    """Flat gradient, ordered (body triple, X1, Y1, ...)."""
    chart = canonical_chart(chart)
    if state.chart != chart:
        raise ValidationError(f"state belongs to chart {state.chart!r}, not {chart!r}")
    strengths = np.asarray(strengths, dtype=np.float64)
    vset = VortexSet(strengths, state.positions)
    wg_grad = fluid.grad_kirchhoff_routh(vset, body.radius)
    w = _body_velocity_stack(chart, state.flat()[None], vset.strengths[None], body)[0]
    omega, v = w[0], w[1:]
    grad = np.zeros(state.dim)
    if chart == VELOCITY:
        grad[0] = body.inertia * omega
        grad[1:3] = body.c * v
        grad[3:] = -wg_grad.reshape(-1)
        return grad
    grad[0] = omega
    grad[1:3] = v
    dphi = shift_term_jacobian(state.positions, strengths, body.radius)
    grad[3:] = v @ dphi - wg_grad.reshape(-1)
    pos_term = omega * (strengths[:, None] * state.positions) if state.n else np.zeros((0, 2))
    grad[3:] += pos_term.reshape(-1)
    return grad
