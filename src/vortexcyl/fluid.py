"""Closed-form potential flow around a circular cylinder of radius R.

Elementary potentials/streams for the unit translations and the rotation,
the Green's function of the exterior domain built from the circle-theorem
image system, and the Kirchhoff-Routh interaction energy W_G with its
analytic gradient.

All positions are body-frame coordinates; the cylinder is centered at the
origin. The fluid has density 1, so the radius R is its only parameter and
every function takes it as a plain float. The elementary fields carry an R^2
scale so the Neumann boundary condition dPhi_X/dn = n_x holds on |X| = R for
every radius (the R = 1 forms are recovered exactly). One rule with two fixed
margins admits every point: a vortex strictly beyond R(1 + MIN_CLEARANCE), a
field point from R(1 - 1e-12) outward, so the fields are defined on |X| = R.
A rejection is a ``ValidationError``; the fields take points (..., 2).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

__all__ = [
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

MIN_CLEARANCE = 1e-9


class ValidationError(ValueError):
    """An input the library does not admit: a point outside the fluid, a radius, a config."""


def _admit_floats(value, name: str, shape: tuple | None = None):
    """The field ``name``'s value as a float, or, given a shape, as a float array of that
    shape, where None is any length and a leading ... any leading axes; an empty array
    takes the shape with 0 for each None. Else a ValidationError naming the field."""
    try:
        if shape is None:
            return float(value)
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be {'a number' if shape is None else 'an array of numbers'}") from None
    except OverflowError:  # an integer too large for a float
        raise ValidationError(f"{name} {'is' if shape is None else 'holds a number'} outside the float range") from None
    if shape[:1] == (...,):
        shape = arr.shape[: max(arr.ndim - len(shape) + 1, 0)] + shape[1:]
    if arr.size == 0 and None in shape:
        arr = arr.reshape([d or 0 for d in shape])
    if arr.ndim != len(shape) or any(d is not None and d != a for d, a in zip(shape, arr.shape)):
        want = " x ".join("N" if d is None else str(d) for d in shape)
        got = " x ".join(map(str, arr.shape)) or "a scalar"
        raise ValidationError(f"{name} must have shape {want}, got {got}")
    return arr


@dataclass(frozen=True)
class VortexSet:
    """Vortex strengths (N,) and body-frame positions (N, 2).

    Invariants: every strength nonzero, every position strictly outside the
    body, positions pairwise distinct.
    """

    strengths: FloatArray = field(default_factory=lambda: np.zeros(0))
    positions: FloatArray = field(default_factory=lambda: np.zeros((0, 2)))

    def __post_init__(self) -> None:
        g = _admit_floats(self.strengths, "strengths", (None,))
        x = _admit_floats(self.positions, "positions", (None, 2))
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
        validate_stack(self.strengths, self.positions, radius)


def validate_stack(strengths: FloatArray, positions: FloatArray, radius: float) -> None:
    """``VortexSet.validate`` of every configuration in positions (..., N, 2) at once, with
    strengths (..., N) that broadcast against them, such as one (N,) for all, raising the
    ValidationError of the first inadmissible configuration in stack order. Arrays not
    shaped so are rejected first, then a radius that is not positive and finite.

    Within it the first failed rule names its offender: the first vortex whose
    strength is not finite and nonzero, else the first not strictly outside the
    body, else the lowest coincident pair (i, j).
    """
    x = _admit_floats(positions, "positions", (...,))
    g = _admit_floats(strengths, "strengths", (...,))
    if x.ndim < 2 or x.shape[-1] != 2 or g.shape[-1:] != x.shape[-2:-1]:
        raise ValidationError(f"positions {x.shape} and strengths {g.shape} are not (..., N, 2) and (..., N)")
    n, k = x.shape[-2], math.prod(x.shape[:-2])
    inside = _outside_fluid(x, radius, vortex=True).reshape(k, n)
    g = np.broadcast_to(g, x.shape[:-1]).reshape(k, n)
    x = np.ascontiguousarray(x).reshape(k, n, 2)
    weak = ~(np.isfinite(g) & (g != 0.0))
    # complex numbers sort by real part, then imaginary part, and compare equal
    # exactly when both coordinates do, so coincident vortices end up adjacent
    points = np.sort(x.view(np.complex128)[..., 0], axis=-1)
    paired = points[:, 1:] == points[:, :-1]
    if not (weak.any() or inside.any() or paired.any()):
        return
    first = (weak.any(axis=-1) | inside.any(axis=-1) | paired.any(axis=-1)).argmax()
    _check_strengths(g[first], n)
    if inside[first].any():
        raise ValidationError(f"vortex {inside[first].argmax()}: position must lie strictly outside the body")
    same = (x[first, :, None] == x[first, None]).all(axis=-1)
    np.fill_diagonal(same, False)
    # same is symmetric, so its first entry in row order is the pair with the lowest i, then j
    i, j = divmod(int(same.argmax()), len(same))
    raise ValidationError(f"vortices {i} and {j} coincide")


def _check_strengths(g: FloatArray, n: int) -> None:
    """Raise the ValidationError of strengths g (..., N') that are not N each, else of the
    first strength in stack order that is not finite and nonzero."""
    if g.shape[-1:] != (n,):
        raise ValidationError("strengths and positions must have matching length")
    weak = ~(np.isfinite(g) & (g != 0.0))
    if weak.any():
        raise ValidationError(f"vortex {weak.argmax() % n}: strength must be finite and nonzero")


def _outside_fluid(points: FloatArray, radius: float, vortex: bool) -> NDArray[np.bool_]:
    """Mask (...) of the points (..., 2) outside the fluid by the vortex or the field-point
    margin, once the radius is found a positive finite real number; a NaN distance is outside."""
    if not (isinstance(radius, numbers.Real) and math.isfinite(radius) and radius > 0):
        raise ValidationError("radius must be a positive finite float")
    d = np.hypot(points[..., 0], points[..., 1])
    if vortex:
        return ~(d > radius * (1.0 + MIN_CLEARANCE))
    return ~(d >= radius * (1.0 - 1e-12))


def _admit_points(points: FloatArray, radius: float, vortex: bool = False, one: bool = False) -> FloatArray:
    """points (..., 2) as a float array, or with ``one`` a single point of size 2 as (2,),
    once their shape, the radius and then every point pass the fluid's rule."""
    p = _admit_floats(points, "point", (...,))
    if (p.size != 2) if one else (p.shape[-1:] != (2,)):
        raise ValidationError(f"point shape {p.shape} is not {'(2,)' if one else '(..., 2)'}")
    p = p.reshape(2) if one else p
    outside = _outside_fluid(p, radius, vortex)
    if outside.any():
        d = float(np.hypot(*p[outside][0]))
        raise ValidationError(f"point at distance {d:.6g} is not in the fluid around radius {radius:.6g}")
    return p


def elementary_potentials(
    point: FloatArray, radius: float, check: bool = True
) -> tuple[float, float, float]:
    """Velocity potentials (Phi_X, Phi_Y, Phi_Omega) of the unit body motions at points
    (..., 2), Phi_X and Phi_Y of shape (...).

    Phi_Omega vanishes identically for the circle.
    """
    p = _admit_points(point, radius) if check else np.asarray(point, float)
    r2 = radius**2
    d2 = p[..., 0] ** 2 + p[..., 1] ** 2
    return (-r2 * p[..., 0] / d2, -r2 * p[..., 1] / d2, 0.0)


def elementary_streams(
    point: FloatArray, radius: float, check: bool = True
) -> tuple[float, float, float]:
    """Stream functions (Psi_X, Psi_Y, Psi_Omega) conjugate to the potentials.

    Conjugacy convention: dPsi/dX = -dPhi/dY and dPsi/dY = dPhi/dX. It takes
    points (..., 2) and gives Psi_X and Psi_Y of shape (...).
    """
    p = _admit_points(point, radius) if check else np.asarray(point, float)
    r2 = radius**2
    d2 = p[..., 0] ** 2 + p[..., 1] ** 2
    return (r2 * p[..., 1] / d2, -r2 * p[..., 0] / d2, 0.0)


def green_regular_part(x0: FloatArray, x1: FloatArray, radius: float) -> float:
    """Image contribution g(X, Y): harmonic in the domain, symmetric in its arguments."""
    return _green_regular(_admit_points(x0, radius, one=True), _admit_points(x1, radius, one=True), radius)


def _green_regular(p: FloatArray, q: FloatArray, radius: float) -> float:
    """``green_regular_part`` of two admitted points (2,)."""
    r2 = radius**2
    a2 = p @ p
    b2 = q @ q
    denom = a2 * b2 - 2.0 * r2 * (p @ q) + r2 * r2
    return float(np.log(a2 * b2 / denom) / FOUR_PI)


def green_function(x0: FloatArray, x1: FloatArray, radius: float) -> float:
    """Exterior-domain Green's function: free-space log plus the image term."""
    p = _admit_points(x0, radius, one=True)
    q = _admit_points(x1, radius, one=True)
    sep2 = float((p - q) @ (p - q))
    if sep2 == 0.0:
        raise ValidationError("coincident points; use regularized_self for the self-energy term")
    return float(np.log(sep2) / FOUR_PI) + _green_regular(p, q, radius)


def regularized_self(point: FloatArray, radius: float) -> float:
    """Self-interaction term g(X, X) = log(d^2/(d^2 - R^2)) / (2 pi)."""
    p = _admit_points(point, radius, vortex=True, one=True)
    d2 = float(p @ p)
    return float(np.log(d2 / (d2 - radius**2)) / (2.0 * np.pi))


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
        gg[..., :: n + 1] = 0.0  # the diagonal of the flattened (N, N) grid
        for blk in _sample_blocks(x):
            qx, qy, a2 = px[blk, :, None], py[blk, :, None], d2[blk, :, None]
            dx, dy = qx - px[blk, None, :], qy - py[blk, None, :]
            sep2 = (dx * dx + dy * dy).reshape(-1, n * n)
            a2b2 = (a2 * d2[blk, None, :]).reshape(-1, n * n)
            denom = a2b2 - 2.0 * r2 * (qx * px[blk, None, :] + qy * py[blk, None, :]).reshape(-1, n * n) + r2 * r2
            # the diagonal carries zero weight: 1 there keeps its logs finite, also next to
            # the body, where its image denominator cancels to 0
            sep2[:, :: n + 1] = a2b2[:, :: n + 1] = denom[:, :: n + 1] = 1.0
            terms = np.log(sep2) + np.log(a2b2 / denom)
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
    px, py = x[..., 0], x[..., 1]
    best = math.inf
    for blk in _sample_blocks(x):
        dx = px[blk, :, None] - px[blk, None, :]
        dy = py[blk, :, None] - py[blk, None, :]
        sep2 = (dx * dx + dy * dy).reshape(-1, n * n)
        sep2[:, :: n + 1] = math.inf  # the diagonal
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
    return _grad_kirchhoff_routh(vortices.positions, vortices.strengths, radius)


def _grad_kirchhoff_routh(x: FloatArray, g: FloatArray, radius: float) -> FloatArray:
    """``grad_kirchhoff_routh`` of positions x (N, 2) with strengths g (N,), unvalidated."""
    r2 = radius**2
    out = np.zeros_like(x)
    for k in range(len(g)):
        p = x[k]
        d2 = p @ p
        # gradient of the regularized self term
        out[k] = 0.5 * g[k] ** 2 * (p / np.pi) * (1.0 / d2 - 1.0 / (d2 - r2))
        for j in range(len(g)):
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
