"""Time integration of either chart, pose reconstruction, and diagnostics.

The public ``rhs`` is the literal structure-matrix-times-gradient product,
kept as the test oracle. ``integrate`` hands the config to ``_kernels.run``,
the one fixed-step RK4 and implicit midpoint loop, whose fused kernels evaluate
the same product in complex form without assembling the matrix: as scalar loops
on Python lists below ``_kernels.PAIR_ARRAY_MIN`` vortices, as array
expressions from there up. The loop names the reason it halted.
Poses are reconstructed during integration by exact screw increments using
the average of each step's two endpoint body velocities, from the config's
starting pose. Energy, Casimir, momentum drift and inertial positions are
then computed for all recorded samples at once: the energy by the batch core
of ``energetics``, in the velocity chart the momentum triple (A, L) by the
shift core of ``maps``, the Casimir Lx^2 + Ly^2 - 2 Gamma_total A of the
momentum chart from it, and the inertial positions by the frame change
``se2.to_inertial``.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import _kernels
from .energetics import BodyParams, _energy_stack, hamiltonian_gradient
from .fluid import ValidationError, VortexSet, _admit_floats, min_pair_distance
from .maps import _shift_stack
from .se2 import to_inertial
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
    pose: FloatArray = (0.0, 0.0, 0.0)  # (beta, x0_x, x0_y) at t = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "chart", canonical_chart(self.chart))
        for name in ("body_state", "pose"):
            object.__setattr__(self, name, _admit_floats(getattr(self, name), name, (3,)))
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"{name} must be 3 finite numbers")
        for name in ("dt", "t_end", "stride"):
            object.__setattr__(self, name, _admit_floats(getattr(self, name), name))
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError("dt must be positive")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValidationError("t_end must be nonnegative")
        if math.isinf(self.t_end / self.dt):
            # both finite, but the quotient overflows: there is no step count to round
            raise ValidationError(f"t_end / dt = {self.t_end / self.dt} steps, more than 2**53")
        steps = round(self.t_end / self.dt)
        if abs(self.t_end - steps * self.dt) > 1e-9 * self.t_end:
            raise ValidationError(
                f"t_end = {self.t_end} is not a whole number of dt = {self.dt} steps (nearest: {steps} steps)"
            )
        if self.integrator not in ("rk4", "midpoint"):
            raise ValidationError("integrator must be 'rk4' or 'midpoint'")
        if not (self.stride.is_integer() and self.stride >= 1):
            raise ValidationError("stride must be a positive integer")
        object.__setattr__(self, "stride", int(self.stride))
        samples = -(-self.nsteps // self.stride) + 1  # t = 0, every stride-th step and the last
        table = 8 * samples * (6 + 2 * self.vortices.n)  # recorded states and poses, float64
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if table > memory:
            raise ValidationError(
                f"{self.nsteps} steps at stride {self.stride} record {samples} samples, "
                f"a table of {table / 2**30:.3g} GiB, more than the {memory / 2**30:.3g} GiB of physical memory"
            )
        if self.nsteps > 2**53:
            # past 2**53 float step times stop being distinct, so the whole-step check rejects nothing
            raise ValidationError(f"t_end / dt = {self.nsteps} steps, more than 2**53")
        eps = 1e-3 * self.body.radius if self.clearance is None else _admit_floats(self.clearance, "clearance")
        if not (math.isfinite(eps) and eps > 0):
            raise ValidationError("clearance must be positive")
        if math.isinf((self.body.radius + eps) * (self.body.radius + eps)):
            raise ValidationError(f"clearance = {eps:g} puts (radius + clearance)**2 outside the float range")
        object.__setattr__(self, "clearance", eps)
        self.vortices.validate(self.body.radius)

    @property
    def initial_state(self) -> ChartState:
        return ChartState(self.chart, self.body_state, self.vortices.positions)

    @property
    def nsteps(self) -> int:
        return int(round(self.t_end / self.dt))


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
    casimir: FloatArray  # Lx^2 + Ly^2 - 2 Gamma_total A in momentum variables
    l_drift: FloatArray  # |L(t) - L(0)| in momentum variables
    config: SimConfig
    halt: HaltInfo | None = None
    rhs_evals: int = 0  # right-hand side evaluations of the drive loop
    max_midpoint_iterations: int = 0  # most fixed-point iterations in one step; 0 under RK4

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
    """What runs ``_kernels``: always "numpy" (Python and numpy, nothing compiled)."""
    return "numpy"


def rhs(chart: str, state: ChartState, body: BodyParams, strengths: FloatArray) -> FloatArray:
    """Structure matrix times energy gradient; the equations of motion."""
    grad = hamiltonian_gradient(chart, state, body, strengths)  # checks the chart and validates
    return structure_matrix(state, strengths, body) @ grad


def integrate(config: SimConfig) -> Trajectory:
    """Run one simulation; deterministic for a given config and backend."""
    body = config.body
    # a diverging midpoint iterate and a halted run's non-finite sums are reported, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        states, poses, steps, reason, halt_index, halt_step, rhs_evals, max_iters = _kernels.run(config)
        g = config.vortices.strengths
        pos = states[:, 3:].reshape(states.shape[0], config.vortices.n, 2)
        energy = _energy_stack(config.chart, states, g, body)
        momentum = states[:, :3] if config.chart == MOMENTUM else _shift_stack(states, g, body)[:, :3]
        l_mom = momentum[:, 1:]
        # the cocycle {Lx, Ly} = Gamma_total of the momentum chart's bracket enters its Casimir
        casimir = np.sum(l_mom * l_mom, axis=1) - 2.0 * config.vortices.total_strength * momentum[:, 0]
        l_drift = np.linalg.norm(l_mom - l_mom[0], axis=1)
        inertial = to_inertial(poses, pos)

    times = steps * config.dt

    halt = None
    if reason is not None:
        halt = HaltInfo(reason=reason, vortex_index=int(halt_index), time=float(halt_step * config.dt))
    return Trajectory(
        chart=config.chart,
        times=times.astype(np.float64),
        states=states,
        poses=poses,
        inertial_positions=inertial,
        energy=energy,
        casimir=casimir,
        l_drift=l_drift,
        config=config,
        halt=halt,
        rhs_evals=rhs_evals,
        max_midpoint_iterations=max_iters,
    )


def diagnostics(traj: Trajectory) -> DiagnosticsReport:
    """Conservation drifts and closest approaches over a trajectory."""
    if traj.n_samples == 0:
        raise ValidationError("empty trajectory")
    e0 = traj.energy[0]
    scale = abs(e0) if e0 != 0.0 else 1.0
    # the samples before a halt can be huge: a drift or a distance that overflows reads inf
    with np.errstate(over="ignore"):
        rel_h = float(np.max(np.abs(traj.energy - e0))) / scale
        cas = float(np.max(np.abs(traj.casimir - traj.casimir[0])))
        ldr = float(np.max(traj.l_drift))
        pos = traj.states[:, 3:].reshape(traj.n_samples, -1, 2)
        min_clear = float(np.linalg.norm(pos, axis=2).min(initial=math.inf)) - traj.config.body.radius
        min_pair = min_pair_distance(pos)
    return DiagnosticsReport(
        max_rel_energy_drift=rel_h,
        max_casimir_drift=cas,
        max_l_drift=ldr,
        min_body_clearance=min_clear,
        min_pair_distance=min_pair,
    )
