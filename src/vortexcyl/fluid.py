"""Closed-form potential flow around a circular cylinder of radius R.

Elementary potentials/streams for the unit translations and the rotation,
the Green's function of the exterior domain built from the circle-theorem
image system, and the Kirchhoff-Routh interaction energy W_G with its
analytic gradient.

All positions are body-frame coordinates; the cylinder is centered at the
origin. The fluid has density 1, so the radius R is its only parameter and
every function takes it as a plain float. The elementary fields carry an R^2
scale so the Neumann boundary condition dPhi_X/dn = n_x holds on |X| = R for
every radius (the R = 1 forms are recovered exactly).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

__all__ = [
    "DomainError",
    "ValidationError",
    "VortexSet",
    "validate_stack",
    "elementary_potentials",
    "elementary_streams",
    "green_function",
    "green_regular_part",
    "regularized_self",
    "kirchhoff_routh",
    "batch_kirchhoff_routh",
    "grad_kirchhoff_routh",
    "batch_momentum_shift",
    "min_pair_distance",
]

FOUR_PI = 4.0 * np.pi

# Points closer to the body than this relative clearance are rejected.
MIN_CLEARANCE = 1e-9


class DomainError(ValueError):
    """Evaluation requested at a point outside the fluid domain."""


class ValidationError(ValueError):
    """A vortex configuration violates its invariants."""


def _check_radius(radius: float) -> None:
    """The radius rule, checked first by each validating function."""
    if not (math.isfinite(radius) and radius > 0):
        raise ValidationError("radius must be a positive finite float")


@dataclass(frozen=True)
class VortexSet:
    """Vortex strengths and body-frame positions.

    Invariants: every strength nonzero, every position strictly outside the
    body, positions pairwise distinct.
    """

    strengths: FloatArray = field(default_factory=lambda: np.zeros(0))
    positions: FloatArray = field(default_factory=lambda: np.zeros((0, 2)))

    def __post_init__(self) -> None:
        g = np.asarray(self.strengths, dtype=np.float64).reshape(-1)
        x = np.asarray(self.positions, dtype=np.float64).reshape(-1, 2)
        if g.shape[0] != x.shape[0]:
            raise ValidationError("strengths and positions must have matching length")
        object.__setattr__(self, "strengths", g)
        object.__setattr__(self, "positions", x)

    @property
    def n(self) -> int:
        return self.strengths.shape[0]

    @property
    def total_strength(self) -> float:
        return float(self.strengths.sum())

    def validate(self, radius: float) -> None:
        """Raise ValidationError naming the first offending vortex or pair."""
        validate_stack(self.strengths, self.positions[None], radius)


def validate_stack(strengths: FloatArray, positions: FloatArray, radius: float) -> None:
    """``VortexSet.validate`` of every configuration in positions (K, N, 2) at once, with
    strengths (K, N) or one (N,) for all, raising the ValidationError of the first
    inadmissible configuration in stack order. A radius that is not positive and
    finite is rejected first.

    Within it the first failed rule names its offender: the first vortex whose
    strength is not finite and nonzero, else the first not strictly outside the
    body, else the lowest coincident pair (i, j).
    """
    _check_radius(radius)
    x = np.ascontiguousarray(positions, dtype=np.float64)
    g = np.asarray(strengths, dtype=np.float64)
    weak = ~(np.isfinite(g) & (g != 0.0))
    inside = ~(np.hypot(x[..., 0], x[..., 1]) > radius * (1.0 + MIN_CLEARANCE))
    # complex numbers sort by real part, then imaginary part, and compare equal
    # exactly when both coordinates do, so coincident vortices end up adjacent
    points = np.sort(x.view(np.complex128)[..., 0], axis=-1)
    paired = points[:, 1:] == points[:, :-1]
    if not (weak.any() or inside.any() or paired.any()):
        return
    first = ((weak | inside).any(axis=-1) | paired.any(axis=-1)).argmax()
    _check_strengths(np.broadcast_to(g, inside.shape)[first])
    if inside[first].any():
        raise ValidationError(f"vortex {inside[first].argmax()}: position must lie strictly outside the body")
    same = (x[first, :, None] == x[first, None]).all(axis=-1)
    np.fill_diagonal(same, False)
    # same is symmetric, so its first entry in row order is the pair with the lowest i, then j
    i, j = divmod(int(same.argmax()), len(same))
    raise ValidationError(f"vortices {i} and {j} coincide")


def _check_strengths(g: FloatArray) -> None:
    """Raise the ValidationError of the first strength in g (N,) that is not finite and nonzero."""
    weak = ~(np.isfinite(g) & (g != 0.0))
    if weak.any():
        raise ValidationError(f"vortex {weak.argmax()}: strength must be finite and nonzero")


def _check_exterior(point: FloatArray, radius: float, boundary_ok: bool) -> FloatArray:
    _check_radius(radius)
    p = np.asarray(point, dtype=np.float64).reshape(2)
    d = float(np.hypot(p[0], p[1]))
    limit = radius * (1.0 - 1e-12) if boundary_ok else radius * (1.0 + MIN_CLEARANCE)
    if d < limit:
        raise DomainError(f"point at distance {d:.6g} lies inside the body of radius {radius:.6g}")
    return p


def elementary_potentials(
    point: FloatArray, radius: float, check: bool = True
) -> tuple[float, float, float]:
    """Velocity potentials (Phi_X, Phi_Y, Phi_Omega) of the unit body motions.

    Phi_Omega vanishes identically for the circle.
    """
    p = _check_exterior(point, radius, boundary_ok=True) if check else np.asarray(point, float)
    r2 = radius**2
    d2 = p[0] ** 2 + p[1] ** 2
    return (-r2 * p[0] / d2, -r2 * p[1] / d2, 0.0)


def elementary_streams(
    point: FloatArray, radius: float, check: bool = True
) -> tuple[float, float, float]:
    """Stream functions (Psi_X, Psi_Y, Psi_Omega) conjugate to the potentials.

    Conjugacy convention: dPsi/dX = -dPhi/dY and dPsi/dY = dPhi/dX. With
    ``check=False`` it takes points (..., 2) and gives Psi_X and Psi_Y of shape (...).
    """
    p = _check_exterior(point, radius, boundary_ok=True) if check else np.asarray(point, float)
    r2 = radius**2
    d2 = p[..., 0] ** 2 + p[..., 1] ** 2
    return (r2 * p[..., 1] / d2, -r2 * p[..., 0] / d2, 0.0)


def green_regular_part(x0: FloatArray, x1: FloatArray, radius: float) -> float:
    """Image contribution g(X, Y): harmonic in the domain, symmetric in its arguments."""
    p = _check_exterior(x0, radius, boundary_ok=True)
    q = _check_exterior(x1, radius, boundary_ok=True)
    r2 = radius**2
    a2 = p @ p
    b2 = q @ q
    denom = a2 * b2 - 2.0 * r2 * (p @ q) + r2 * r2
    return float(np.log(a2 * b2 / denom) / FOUR_PI)


def green_function(x0: FloatArray, x1: FloatArray, radius: float) -> float:
    """Exterior-domain Green's function: free-space log plus the image term."""
    p = _check_exterior(x0, radius, boundary_ok=True)
    q = _check_exterior(x1, radius, boundary_ok=True)
    sep2 = float((p - q) @ (p - q))
    if sep2 == 0.0:
        raise DomainError("coincident points; use regularized_self for the self-energy term")
    return float(np.log(sep2) / FOUR_PI) + green_regular_part(p, q, radius)


def regularized_self(point: FloatArray, radius: float) -> float:
    """Self-interaction term g(X, X) = log(d^2/(d^2 - R^2)) / (2 pi)."""
    p = _check_exterior(point, radius, boundary_ok=False)
    d2 = float(p @ p)
    r2 = radius**2
    return float(np.log(d2 / (d2 - r2)) / (2.0 * np.pi))


def kirchhoff_routh(vortices: VortexSet, radius: float) -> float:
    """Interaction energy W_G: pairwise Green's terms plus quadratic self terms."""
    vortices.validate(radius)
    return float(batch_kirchhoff_routh(vortices.positions, vortices.strengths, radius))


def _sample_blocks(x: FloatArray):
    """Slices of the sample axis of x (M, N, 2), each holding at most 65536 pair
    entries (samples x N^2), so that memory does not grow with the samples."""
    m, n = x.shape[0], x.shape[1]
    step = max(1, 65536 // (n * n))
    return [slice(s, s + step) for s in range(0, m, step)]


def _diagonal(n: int) -> slice:
    """The diagonal of an (N, N) grid flattened to N^2 entries."""
    return slice(None, None, n + 1)


def batch_kirchhoff_routh(positions: FloatArray, strengths: FloatArray, radius: float) -> FloatArray:
    """W_G of each configuration in positions (..., N, 2), unvalidated; shape (...).

    strengths is one (N,) for every configuration or (..., N), one row each.
    The self terms g_i^2 regularized_self(X_i) / 2 plus green_function(X_i, X_j)
    summed over the (N, N) grid of pairs with its diagonal masked, and halved.
    """
    x = np.asarray(positions, dtype=np.float64)
    lead, n = x.shape[:-2], x.shape[-2]
    x = x.reshape(math.prod(lead), n, 2)
    g = np.asarray(strengths, dtype=np.float64)
    if g.ndim > 1:
        g = np.broadcast_to(g, lead + (n,)).reshape(x.shape[0], n)
    r2 = radius**2
    px, py = x[:, :, 0], x[:, :, 1]
    d2 = px * px + py * py
    total = (g * g * np.log(d2 / (d2 - r2))).sum(axis=1) / FOUR_PI
    if n > 1:
        gg = (g[..., :, None] * g[..., None, :]).reshape(*g.shape[:-1], n * n)
        gg[..., _diagonal(n)] = 0.0
        for blk in _sample_blocks(x):
            qx, qy, a2 = px[blk, :, None], py[blk, :, None], d2[blk, :, None]
            dx, dy = qx - px[blk, None, :], qy - py[blk, None, :]
            sep2 = (dx * dx + dy * dy).reshape(-1, n * n)
            sep2[:, _diagonal(n)] = 1.0  # carries zero weight; keeps the log finite
            a2b2 = a2 * d2[blk, None, :]
            denom = a2b2 - 2.0 * r2 * (qx * px[blk, None, :] + qy * py[blk, None, :]) + r2 * r2
            terms = np.log(sep2) + np.log(a2b2 / denom).reshape(-1, n * n)
            # per-row weights take one dot product per row, as a single configuration does
            pair = terms @ gg if gg.ndim == 1 else (terms[:, None] @ gg[blk, :, None])[:, 0, 0]
            total[blk] += pair / (2.0 * FOUR_PI)
    return total.reshape(lead)


def min_pair_distance(positions: FloatArray) -> float:
    """Smallest distance between two vortices over every configuration in positions (..., N, 2)."""
    x = np.asarray(positions, dtype=np.float64)
    n = x.shape[-2]
    if n < 2 or x.size == 0:
        return math.inf
    x = x.reshape(-1, n, 2)
    best = math.inf
    for blk in _sample_blocks(x):
        diff = x[blk, :, None, :] - x[blk, None, :, :]
        sep2 = (diff * diff).sum(axis=-1).reshape(-1, n * n)
        sep2[:, _diagonal(n)] = math.inf
        best = min(best, float(sep2.min()))
    return math.sqrt(best)


def _grad_green_first(p: FloatArray, q: FloatArray, r2: float) -> FloatArray:
    """d/dX of green_function(X, Y) at X=p, Y=q."""
    diff = p - q
    a2 = p @ p
    b2 = q @ q
    denom = a2 * b2 - 2.0 * r2 * (p @ q) + r2 * r2
    return (2.0 * diff / (diff @ diff) + 2.0 * p / a2 - (2.0 * b2 * p - 2.0 * r2 * q) / denom) / FOUR_PI


def grad_kirchhoff_routh(vortices: VortexSet, radius: float) -> FloatArray:
    """Analytic dW_G/dX_k for each vortex, shape (N, 2)."""
    vortices.validate(radius)
    g = vortices.strengths
    x = vortices.positions
    r2 = radius**2
    out = np.zeros_like(x)
    for k in range(vortices.n):
        p = x[k]
        d2 = p @ p
        # gradient of the regularized self term
        out[k] = 0.5 * g[k] ** 2 * (p / np.pi) * (1.0 / d2 - 1.0 / (d2 - r2))
        for j in range(vortices.n):
            if j != k:
                out[k] += g[k] * g[j] * _grad_green_first(p, x[j], r2)
    return out


def batch_momentum_shift(positions: FloatArray, strengths: FloatArray, radius: float) -> FloatArray:
    """The fluid momentum (phi_omega, phi_x, phi_y) carried by the vortices, shape (..., 3),
    for each configuration in positions (..., N, 2) with strengths (..., N) or (N,):

        phi_omega      = sum_i Gamma_i * d_i^2 / 2,
        (phi_x, phi_y) = sum_i Gamma_i * (-Y_i, X_i) * (1 - R^2/d_i^2).

    This is the magnetic potential at the identity pose and the exact offset
    between body momenta and velocities in the momentum chart.
    """
    x = np.asarray(positions, dtype=np.float64)
    g = np.asarray(strengths, dtype=np.float64)
    d2 = (x * x).sum(axis=-1)
    lam = 1.0 - radius**2 / d2
    phi = np.empty(x.shape[:-2] + (3,))
    phi[..., 0] = 0.5 * (g * d2).sum(axis=-1)
    phi[..., 1] = (-g * x[..., 1] * lam).sum(axis=-1)
    phi[..., 2] = (g * x[..., 0] * lam).sum(axis=-1)
    return phi
