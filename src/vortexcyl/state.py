"""Phase-space points for the two Hamiltonian charts.

The momentum chart carries the body triple (A, Lx, Ly); the velocity chart
carries (Omega, Vx, Vy). Vortex positions are body-frame and identical in
both charts. Flat layout is (body triple, X1, Y1, ..., XN, YN). A state may
carry leading axes, a stack of phase points of one chart: body (..., 3),
positions (..., N, 2) and flat (..., 3 + 2N).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .fluid import ValidationError, _admit_floats, _check_strengths, validate_stack

FloatArray = NDArray[np.float64]

MOMENTUM = "momentum"
VELOCITY = "velocity"

# Short aliases accepted anywhere a chart tag is read (CLI flags, configs).
CHART_ALIASES = {
    "momentum": MOMENTUM,
    "velocity": VELOCITY,
    "smbk": MOMENTUM,
    "bmr": VELOCITY,
}

__all__ = ["MOMENTUM", "VELOCITY", "CHART_ALIASES", "canonical_chart", "ChartState", "admit"]


def canonical_chart(tag: str) -> str:
    if not isinstance(tag, str):
        raise ValidationError(f"chart must be a string naming one of {sorted(CHART_ALIASES)}, not {type(tag).__name__}")
    try:
        return CHART_ALIASES[tag.lower()]
    except KeyError:
        raise ValidationError(f"unknown chart {tag!r}; expected one of {sorted(CHART_ALIASES)}") from None


@dataclass(frozen=True)
class ChartState:
    """A phase point in one chart, or a stack of them: body triples (..., 3) plus
    body-frame vortex positions (..., N, 2) with the same leading axes."""

    chart: str
    body: FloatArray = field(default_factory=lambda: np.zeros(3))
    positions: FloatArray = field(default_factory=lambda: np.zeros((0, 2)))

    def __post_init__(self) -> None:
        object.__setattr__(self, "chart", canonical_chart(self.chart))
        object.__setattr__(self, "body", _admit_floats(self.body, "body", (..., 3)))
        object.__setattr__(self, "positions", _admit_floats(self.positions, "positions", (*self.shape, None, 2)))

    @property
    def shape(self) -> tuple[int, ...]:
        """The leading axes; () for one phase point."""
        return self.body.shape[:-1]

    @property
    def n(self) -> int:
        return self.positions.shape[-2]

    @property
    def dim(self) -> int:
        return 3 + 2 * self.n

    def flat(self) -> FloatArray:
        return np.concatenate([self.body, self.positions.reshape(self.shape + (2 * self.n,))], axis=-1)

    @classmethod
    def from_flat(cls, chart: str, z: FloatArray) -> "ChartState":
        z = np.asarray(z, dtype=np.float64)
        if z.ndim == 0 or z.shape[-1] < 3 or (z.shape[-1] - 3) % 2:
            raise ValidationError("flat state must have length 3 + 2N")
        return cls(chart, z[..., :3], z[..., 3:].reshape(z.shape[:-1] + ((z.shape[-1] - 3) // 2, 2)))


def admit(
    state: ChartState, chart: str, strengths: FloatArray, radius: float | None = None
) -> tuple[FloatArray, FloatArray]:
    """The flat states (..., 3 + 2N) of ``state`` and its strengths broadcast to (..., N),
    once the state is found to be of chart ``chart`` (an alias will do) and every
    configuration admissible by ``fluid.validate_stack``. Without a radius only the
    strengths are checked, for a structure that does not depend on the positions."""
    chart = canonical_chart(chart)
    if state.chart != chart:
        raise ValidationError(f"state belongs to chart {state.chart!r}, not {chart!r}")
    g = np.asarray(strengths, dtype=np.float64)
    if radius is None:
        _check_strengths(g, state.n)
    else:
        validate_stack(g, state.positions, radius)
    return state.flat(), np.broadcast_to(g, state.shape + (state.n,))
