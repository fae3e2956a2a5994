"""Time integration of either chart, pose reconstruction, and diagnostics.

The public ``rhs`` is the literal structure-matrix-times-gradient product,
kept as the test oracle. ``integrate`` runs fixed-step RK4 or implicit
midpoint through the fused kernels of ``_kernels``, which evaluate the same
product without assembling the matrix; without numba, the loops run on
Python floats below ``_kernels.PAIR_ARRAY_MIN`` vortices, and the whole
right-hand side and the clearance scan run as array expressions from there up.
Poses are reconstructed during integration by exact screw increments using
each step's midpoint body velocity. Energy, Casimir, momentum drift and
inertial positions are then computed for all recorded samples at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from . import _kernels
from .energetics import BodyParams, effective_mass, hamiltonian_gradient
from .fluid import ValidationError, VortexSet, batch_kirchhoff_routh, batch_momentum_shift, min_pair_distance
from .state import MOMENTUM, ChartState, canonical_chart
from .structures import structure_matrix

FloatArray = NDArray[np.float64]

__all__ = [
    "SimConfig",
    "HaltInfo",
    "Trajectory",
    "DiagnosticsReport",
    "rhs",
    "integrate",
    "diagnostics",
    "active_backend",
]

_HALT_REASONS = {
    _kernels.HALT_BODY: "vortex reached the body clearance",
    _kernels.HALT_PAIR: "two vortices closer than the clearance",
    _kernels.HALT_NO_CONVERGENCE: "implicit midpoint iteration did not converge",
    _kernels.HALT_NONFINITE: "state became non-finite",
    _kernels.HALT_DOMAIN: "stage left the fluid domain",
}


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one run."""

    chart: str
    body: BodyParams
    vortices: VortexSet
    body_state: FloatArray
    dt: float
    t_end: float
    integrator: str = "rk4"
    stride: int = 1
    clearance: float | None = None
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "chart", canonical_chart(self.chart))
        object.__setattr__(self, "body_state", np.asarray(self.body_state, dtype=np.float64).reshape(3))
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValidationError("dt must be positive")
        if not (np.isfinite(self.t_end) and self.t_end >= 0):
            raise ValidationError("t_end must be nonnegative")
        if self.integrator not in ("rk4", "midpoint"):
            raise ValidationError("integrator must be 'rk4' or 'midpoint'")
        if not (float(self.stride).is_integer() and self.stride >= 1):
            raise ValidationError("stride must be a positive integer")
        object.__setattr__(self, "stride", int(self.stride))
        eps = self.clearance if self.clearance is not None else 1e-3 * self.body.radius
        if not (np.isfinite(eps) and eps > 0):
            raise ValidationError("clearance must be positive")
        object.__setattr__(self, "clearance", float(eps))
        self.vortices.validate(self.body.fluid)

    @property
    def initial_state(self) -> ChartState:
        return ChartState(self.chart, self.body_state, self.vortices.positions)

    @property
    def nsteps(self) -> int:
        return int(round(self.t_end / self.dt))

    def with_overrides(self, **kwargs) -> "SimConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class HaltInfo:
    reason: str
    vortex_index: int
    time: float


@dataclass
class Trajectory:
    """Recorded samples of one run plus conservation diagnostics."""

    chart: str
    times: FloatArray
    states: FloatArray  # (M, 3 + 2N) flat chart states
    poses: FloatArray  # (M, 3) as (beta, x0_x, x0_y)
    inertial_positions: FloatArray  # (M, N, 2)
    energy: FloatArray
    casimir: FloatArray  # Lx^2 + Ly^2 in momentum variables
    l_drift: FloatArray  # |L(t) - L(0)| in momentum variables
    halt: HaltInfo | None = None
    config: SimConfig | None = None

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]

    def state_at(self, k: int) -> ChartState:
        return ChartState.from_flat(self.chart, self.states[k])


@dataclass(frozen=True)
class DiagnosticsReport:
    max_rel_energy_drift: float
    max_casimir_drift: float
    max_l_drift: float
    min_body_clearance: float
    min_pair_distance: float


def active_backend() -> str:
    """Which compiler runs ``_kernels``: "numba" when importable, else "numpy"."""
    return "numba" if _kernels.HAVE_NUMBA else "numpy"


def rhs(chart: str, state: ChartState, body: BodyParams, strengths: FloatArray) -> FloatArray:
    """Structure matrix times energy gradient; the equations of motion."""
    chart = canonical_chart(chart)
    if state.chart != chart:
        raise ValidationError(f"state belongs to chart {state.chart!r}, not {chart!r}")
    VortexSet(strengths, state.positions).validate(body.fluid)
    lam = structure_matrix(state, strengths, body)
    grad = hamiltonian_gradient(chart, state, body, strengths)
    return lam @ grad


def integrate(config: SimConfig) -> Trajectory:
    """Run one simulation; deterministic for a given config and backend."""
    body = config.body
    # a diverging midpoint iterate is detected explicitly, not warned about;
    # scalars go in as Python floats, as numpy scalars would slow the loops
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        states, poses, steps, halt_code, halt_index, halt_step = _kernels.run(
            _kernels.CHART_MOMENTUM if config.chart == MOMENTUM else _kernels.CHART_VELOCITY,
            np.concatenate([config.body_state, config.vortices.positions.reshape(-1)]),
            config.vortices.strengths,
            float(body.radius**2),
            float(effective_mass(body).c),
            float(body.inertia),
            float(config.vortices.total_strength),
            float(config.dt),
            config.nsteps,
            config.stride,
            float((body.radius + config.clearance) ** 2),
            float(config.clearance**2),
            _kernels.RK4 if config.integrator == "rk4" else _kernels.MIDPOINT,
        )

    times = steps * config.dt
    n = config.vortices.n
    g = config.vortices.strengths
    em = effective_mass(body)
    pos = states[:, 3:].reshape(states.shape[0], n, 2)

    phi_xy, phi_om = batch_momentum_shift(pos, g, body.radius)
    if config.chart == MOMENTUM:
        omega = (states[:, 0] + phi_om) / em.i_eff
        v = (states[:, 1:3] + phi_xy) / em.c
        l_mom = states[:, 1:3]
    else:
        omega, v = states[:, 0], states[:, 1:3]
        l_mom = em.c * v - phi_xy
    kinetic = 0.5 * em.c * np.sum(v * v, axis=1) + 0.5 * em.i_eff * omega**2
    energy = kinetic - batch_kirchhoff_routh(pos, g, body.radius)
    casimir = np.sum(l_mom * l_mom, axis=1)
    l_drift = np.linalg.norm(l_mom - l_mom[0], axis=1)
    cos_b, sin_b = np.cos(poses[:, 0:1]), np.sin(poses[:, 0:1])
    inertial = np.stack(
        [
            cos_b * pos[:, :, 0] - sin_b * pos[:, :, 1] + poses[:, 1:2],
            sin_b * pos[:, :, 0] + cos_b * pos[:, :, 1] + poses[:, 2:3],
        ],
        axis=2,
    )

    halt = None
    if halt_code != _kernels.HALT_NONE:
        halt = HaltInfo(
            reason=_HALT_REASONS[halt_code],
            vortex_index=int(halt_index),
            time=float(halt_step * config.dt),
        )
    return Trajectory(
        chart=config.chart,
        times=times.astype(np.float64),
        states=states,
        poses=poses,
        inertial_positions=inertial,
        energy=energy,
        casimir=casimir,
        l_drift=l_drift,
        halt=halt,
        config=config,
    )


def diagnostics(traj: Trajectory) -> DiagnosticsReport:
    """Conservation drifts and closest approaches over a trajectory."""
    if traj.n_samples == 0:
        raise ValidationError("empty trajectory")
    e0 = traj.energy[0]
    scale = abs(e0) if e0 != 0.0 else 1.0
    rel_h = float(np.max(np.abs(traj.energy - e0))) / scale
    cas = float(np.max(np.abs(traj.casimir - traj.casimir[0])))
    ldr = float(np.max(traj.l_drift))
    pos = traj.states[:, 3:].reshape(traj.n_samples, -1, 2)
    if pos.shape[1]:
        radius = traj.config.body.radius if traj.config else 0.0
        min_clear = float(np.linalg.norm(pos, axis=2).min()) - radius
    else:
        min_clear = math.inf
    min_pair = min_pair_distance(pos)
    return DiagnosticsReport(
        max_rel_energy_drift=rel_h,
        max_casimir_drift=cas,
        max_l_drift=ldr,
        min_body_clearance=min_clear,
        min_pair_distance=min_pair,
    )
