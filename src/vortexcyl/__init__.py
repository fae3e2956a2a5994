"""Coupled dynamics of a circular rigid body and point vortices in a 2D ideal fluid.

Two equivalent Hamiltonian formulations are implemented side by side: a
momentum chart (A, L, X) with a product Poisson structure plus a cocycle,
and a velocity chart (Omega, V, X) whose noncanonical bracket carries the
fluid interaction. The momentum shift map converts between them, and the
package numerically certifies that it is a Poisson map, that both charts
generate the same flow, and that the bracket assembled from reduction theory
matches the closed-form structure matrix.
"""
from .energetics import BodyParams, hamiltonian, hamiltonian_gradient
from .fluid import (
    FluidParams,
    ValidationError,
    VortexSet,
    elementary_potentials,
    elementary_streams,
    grad_kirchhoff_routh,
    green_function,
    kirchhoff_routh,
)
from .dynamics import SimConfig, diagnostics, integrate, rhs
from .maps import (
    cocycle_sigma,
    inverse_shift_map,
    magnetic_pairing,
    magnetic_potential,
    momentum_map,
    shift_jacobian,
    shift_map,
)
from .oracle import FdSpec, fd_gradient, fd_jacobian, image_vortex_velocity, pushforward_check
from .state import ChartState
from .structures import (
    interaction_bracket_coefficients,
    jacobi_residual,
    momentum_structure_matrix,
    structure_matrix,
    velocity_structure_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BodyParams",
    "ChartState",
    "FdSpec",
    "FluidParams",
    "SimConfig",
    "ValidationError",
    "VortexSet",
    "cocycle_sigma",
    "diagnostics",
    "elementary_potentials",
    "elementary_streams",
    "fd_gradient",
    "fd_jacobian",
    "grad_kirchhoff_routh",
    "green_function",
    "hamiltonian",
    "hamiltonian_gradient",
    "image_vortex_velocity",
    "integrate",
    "interaction_bracket_coefficients",
    "inverse_shift_map",
    "jacobi_residual",
    "kirchhoff_routh",
    "magnetic_pairing",
    "magnetic_potential",
    "momentum_map",
    "momentum_structure_matrix",
    "pushforward_check",
    "rhs",
    "shift_jacobian",
    "shift_map",
    "structure_matrix",
    "velocity_structure_matrix",
]
