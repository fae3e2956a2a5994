"""Effective inertia of the body-plus-fluid system and the chart Hamiltonians.

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
from .fluid import FluidParams, ValidationError, VortexSet
from .state import VELOCITY, ChartState, canonical_chart

FloatArray = NDArray[np.float64]

__all__ = [
    "BodyParams",
    "EffectiveMass",
    "effective_mass",
    "hamiltonian",
    "hamiltonian_gradient",
    "body_velocities",
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

    @property
    def fluid(self) -> FluidParams:
        return FluidParams(self.radius)


@dataclass(frozen=True)
class EffectiveMass:
    """Diagonal effective inertia diag(i_eff, c, c) in (Omega, V) order."""

    c: float
    i_eff: float
    c_body: float

    @property
    def matrix(self) -> FloatArray:
        return np.diag([self.i_eff, self.c, self.c])

    @property
    def added(self) -> FloatArray:
        """Fluid contribution alone, diag(0, pi R^2, pi R^2)."""
        a = self.c - self.c_body
        return np.diag([0.0, a, a])


def effective_mass(body: BodyParams) -> EffectiveMass:
    """Total translational mass c = m + pi R^2; the circle adds no inertia."""
    added = np.pi * body.radius**2
    return EffectiveMass(c=body.mass + added, i_eff=body.inertia, c_body=body.mass)


def body_velocities(state: ChartState, strengths: FloatArray, body: BodyParams) -> tuple[float, FloatArray]:
    """(Omega, V) at a state of either chart."""
    g = VortexSet(strengths, state.positions).strengths
    omega, v = _body_velocity_stack(state.chart, state.flat()[None], g[None], body)
    return float(omega[0]), v[0]


def _body_velocity_stack(chart: str, z: FloatArray, g: FloatArray, body: BodyParams) -> tuple[FloatArray, FloatArray]:
    """(Omega, V) of flat states z (..., 3 + 2N) of one chart with strengths g (..., N)."""
    if chart == VELOCITY:
        return z[..., 0], z[..., 1:3]
    em = effective_mass(body)
    phi_xy, phi_om = fluid.batch_momentum_shift(z[..., 3:].reshape(*z.shape[:-1], -1, 2), g, body.radius)
    return (z[..., 0] + phi_om) / em.i_eff, (z[..., 1:3] + phi_xy) / em.c


def hamiltonian(chart: str, state: ChartState, body: BodyParams, strengths: FloatArray) -> float:
    """Total energy at a state of the requested chart."""
    chart = canonical_chart(chart)
    if state.chart != chart:
        raise ValidationError(f"state belongs to chart {state.chart!r}, not {chart!r}")
    vset = VortexSet(strengths, state.positions)
    vset.validate(body.fluid)
    return float(_energy_stack(chart, state.flat()[None], vset.strengths[None], body)[0])


def _energy_stack(chart: str, z: FloatArray, g: FloatArray, body: BodyParams) -> FloatArray:
    """Energy of flat states z (..., 3 + 2N) of one chart with strengths g (..., N), unvalidated."""
    em = effective_mass(body)
    omega, v = _body_velocity_stack(chart, z, g, body)
    wg = fluid.batch_kirchhoff_routh(z[..., 3:].reshape(*z.shape[:-1], -1, 2), g, body.radius)
    # |V|^2 as an elementwise square and sum: a dot product may round differently,
    # and integrate's energy column, which this core computes, keeps these bits
    return 0.5 * em.c * (v * v).sum(axis=-1) + 0.5 * em.i_eff * omega**2 - wg


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


def hamiltonian_gradient(
    chart: str,
    state: ChartState,
    body: BodyParams,
    strengths: FloatArray,
    method: str = "analytic",
) -> FloatArray:
    """Flat gradient, ordered (body triple, X1, Y1, ...).

    ``method="fd"`` swaps in a 6th-order central difference of the energy,
    kept as a verification path for the analytic formulas.
    """
    chart = canonical_chart(chart)
    if state.chart != chart:
        raise ValidationError(f"state belongs to chart {state.chart!r}, not {chart!r}")
    strengths = np.asarray(strengths, dtype=np.float64)
    if method == "fd":
        from .oracle import FdSpec, fd_gradient

        z0 = state.flat()
        h = 1e-5 * (1.0 + float(np.max(np.abs(z0), initial=0.0)))

        def f(z: FloatArray) -> float:
            return hamiltonian(chart, ChartState.from_flat(chart, z), body, strengths)

        return fd_gradient(f, z0, FdSpec(h=h, order=6))
    if method != "analytic":
        raise ValueError("method must be 'analytic' or 'fd'")

    em = effective_mass(body)
    vset = VortexSet(strengths, state.positions)
    wg_grad = fluid.grad_kirchhoff_routh(vset, body.fluid)
    omega, v = body_velocities(state, strengths, body)
    grad = np.zeros(state.dim)
    if chart == VELOCITY:
        grad[0] = em.i_eff * omega
        grad[1:3] = em.c * v
        grad[3:] = -wg_grad.reshape(-1)
        return grad
    grad[0] = omega
    grad[1:3] = v
    dphi = shift_term_jacobian(state.positions, strengths, body.radius)
    grad[3:] = v @ dphi - wg_grad.reshape(-1)
    pos_term = omega * (strengths[:, None] * state.positions) if state.n else np.zeros((0, 2))
    grad[3:] += pos_term.reshape(-1)
    return grad
