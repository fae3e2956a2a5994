"""Hot inner loops: fused right-hand sides and the fixed-step drive loop.

Each chart's right-hand side evaluates ``structure_matrix @ grad H`` without
assembling the matrix (``dynamics.rhs`` keeps that product as the test oracle),
in one complex-form formula set: with p = X + i Y and V = Vx + i Vy the vortex
rates are V - R^2 V*/p*^2 + i (Omega p - G/g), G = dW_G/dX + i dW_G/dY, and the
velocity chart's body rates are sums of G. Each right-hand side takes a flag for
the momentum chart and returns a new slope; a state with a vortex outside the
fluid domain raises ``_OutsideDomain`` with its index. ``run`` takes a
``SimConfig``, returns why it halted as text (the ``HALT_*`` strings) or None,
and picks a layout per run from the number of vortices (``_ops``). Below
``PAIR_ARRAY_MIN`` the state is a list of three body floats and N ``complex``
positions, the kernels are scalar loops over it and the stages are list
comprehensions; a sample takes the flat float layout (X, Y interleaved) only
when recorded. From there up the state is the
flat ndarray and everything is an array expression, with the Kirchhoff-Routh
pair terms as one (N, N) grid and one matvec. The layouts sum in different
orders, so they agree to rounding, not bit for bit.

The implicit midpoint iterates u = z + (dt/2) f(u) from the midpoint that the
last converged slopes f(u) extrapolate to (Hairer, Lubich and Wanner,
*Geometric Numerical Integration*, ch. VIII.6), which saves iterations and moves
the result only within what the stopping increment leaves.
"""
from __future__ import annotations

import cmath
import math
from types import SimpleNamespace

import numpy as np

from .fluid import MIN_CLEARANCE
from .state import MOMENTUM

# why ``run`` stopped before its last step
HALT_BODY = "vortex reached the body clearance"
HALT_PAIR = "two vortices closer than the clearance"
HALT_NO_CONVERGENCE = "implicit midpoint iteration did not converge"
HALT_NONFINITE = "state became non-finite"
HALT_DOMAIN = "stage left the fluid domain"

# Implicit midpoint: fixed-point iterations stop once the increment is this small.
MIDPOINT_TOL = 1e-12
MIDPOINT_MAX_ITER = 50

# ``run`` works on ndarrays from this many vortices up, on lists below. Lists /
# arrays in us (Python 3.11, numpy 2.4, 2 shared vCPUs, interleaved, best of 60):
#   N                     4         8        10        11        12
#   momentum RHS     8.5/33    33/51     48/53     54/53     56/50
#   clearance scan   2.7/11    13/17     19/18     22/18     16/12
#   RK4 step          55/166  173/255   238/267   271/266   218/172
# Lists win through N = 10, but at 10 and 12 vortices the absolute MIDPOINT_TOL
# leaves 1e-11 to 6e-11 in 100 momentum-chart steps, more than the array path's
# whole-trajectory parity test allows; 8 keeps that test's 8-vortex system.
PAIR_ARRAY_MIN = 8

_TWO_PI = 2.0 * math.pi
# A vortex at distance <= R (1 + MIN_CLEARANCE) is outside the fluid domain.
_DOMAIN_SCALE = (1.0 + MIN_CLEARANCE) ** 2


class _OutsideDomain(Exception):
    """A right-hand side was asked for where vortex ``index`` is outside the fluid domain."""

    def __init__(self, index):
        super().__init__(index)
        self.index = index


def _pair_grid(v):
    """v_i - v_j on the (N, N) grid."""
    return v[:, None] - v[None, :]


def _kr_grad_complex(p, d2, g, r2, gtot):
    """(dW_G/dX_k + i dW_G/dY_k) / g_k, with p = X + i Y and d2 = |p|^2.

    Pair j adds g_j (1/p_k* + 1/(p_k* - p_j*) - 1/(p_k* - R^2/p_j)) / (2 pi), the
    last term from its image; the two fractions combine to (d2_j - R^2)/p_j over
    (p_k* - p_j*)(p_k* - R^2/p_j), one (N, N) grid and one matvec. The self term
    is -g_k R^2 / (2 pi p_k* (d2_k - R^2)).
    """
    pc = p.conj()
    grid = _pair_grid(pc) * (pc[:, None] - r2 / p)
    grid.flat[:: p.shape[0] + 1] = np.inf
    gap = d2 - r2
    return ((gtot - g - g * r2 / gap) / pc + (1.0 / grid) @ (g * gap / p)) / (2.0 * math.pi)


def _omv(z, lam, s2, c, inertia):
    """(Omega, Vx, Vy) of a momentum-chart state from lam = sum g (1 - R^2/|p|^2) p
    and s2 = sum g |p|^2: Omega = (A + s2/2) / I and V = (L + i lam) / c."""
    return (z[0] + 0.5 * s2) / inertia, (z[1] - lam.imag) / c, (z[2] + lam.real) / c


def _rhs_scalar(momentum, u, g, r2, c, inertia, gtot):
    """Right-hand side of the list state u in complex form, as a new list; momentum
    picks the momentum chart, else the velocity chart.

    Raises ``_OutsideDomain`` with the index of the first vortex at distance
    <= R (1 + MIN_CLEARANCE), where the flow is not defined. Its float divisors
    are body constants or exceed zero by the domain check, and it takes no
    modulus, so an overflowing state gives inf or nan entries, not an exception;
    only two vortices at one point would divide by zero.
    """
    domain2 = r2 * _DOMAIN_SCALE
    vortices = []  # (p, p*, |p|^2, g, g (|p|^2 - R^2)/p, R^2/p) per vortex
    lam, s2 = 0j, 0.0
    for gi, p in zip(g, u[3:]):
        d2 = p.real * p.real + p.imag * p.imag
        if d2 <= domain2:
            raise _OutsideDomain(len(vortices))
        vortices.append((p, p.conjugate(), d2, gi, gi * (d2 - r2) / p, r2 / p))
        lam += (gi - gi * r2 / d2) * p
        s2 += gi * d2
    om, vx, vy = _omv(u, lam, s2, c, inertia) if momentum else (u[0], u[1], u[2])
    rates = []
    s4, dv, torque = 0.0, 0j, 0.0
    if vortices:
        v = complex(vx, vy)
        vc = v.conjugate()
        for this in vortices:
            pk, pck, d2k, gk, _, _ = this
            # this vortex's row of _kr_grad_complex: its self term, then each other vortex's pair term
            acc = (gtot - gk - gk * r2 / (d2k - r2)) / pck
            for other in vortices:
                if other is not this:
                    _, pcj, _, _, wj, qj = other
                    acc += wj / ((pck - pcj) * (pck - qj))
            grad = acc / _TWO_PI
            image = r2 / (pck * pck)
            rates.append(v - image * vc + 1j * (om * pk - grad))
            if not momentum:
                s4 += gk / (d2k * d2k)
                dv += gk * (grad - image * grad.conjugate())
                torque += gk * (pck * grad).imag
    if momentum:
        lx, ly = u[1], u[2]
        return [-ly * vx + lx * vy, ly * om + gtot * vy, -lx * om - gtot * vx, *rates]
    l_ov1 = (-c * vy + 2.0 * lam.real) / (c * inertia)
    l_ov2 = (c * vx + 2.0 * lam.imag) / (c * inertia)
    # gtot - sum g (1 - R^4/d2^2), without the cancellation
    l_v12 = r2 * r2 * s4 / (c * c)
    h_om, h_vx, h_vy = inertia * om, c * vx, c * vy
    return [
        l_ov1 * h_vx + l_ov2 * h_vy + torque / inertia,
        -l_ov1 * h_om + l_v12 * h_vy + dv.real / c,
        -l_ov2 * h_om - l_v12 * h_vx + dv.imag / c,
        *rates,
    ]


def _body_velocity_scalar(momentum, z, g, r2, c, inertia):
    """(Omega, Vx, Vy) of a list state in the momentum chart, or else the velocity chart."""
    if not momentum:
        return z[0], z[1], z[2]
    lam, s2 = 0j, 0.0
    for gi, p in zip(g, z[3:]):
        d2 = p.real * p.real + p.imag * p.imag
        lam += (gi - gi * r2 / d2) * p
        s2 += gi * d2
    return _omv(z, lam, s2, c, inertia)


def _collision_scalar(z, n, body_limit2, pair_limit2):
    """Halt reason and vortex index of a clearance violation in the list state z, or (None, -1).

    A body violation names the vortex nearest the body; a pair violation
    names the lower index of the first pair found in row-major order.
    """
    nearest, d2min = -1, math.inf
    for i in range(n):
        p = z[3 + i]
        d2 = p.real * p.real + p.imag * p.imag
        if d2 < d2min:
            nearest, d2min = i, d2
    if d2min < body_limit2:
        return HALT_BODY, nearest
    for i in range(n - 1):
        p = z[3 + i]
        for q in z[4 + i :]:
            d = p - q
            if d.real * d.real + d.imag * d.imag < pair_limit2:
                return HALT_PAIR, i
    return None, -1


def _omv_array(z, d2, g, r2, c, inertia):
    """(Omega, Vx, Vy) of a flat momentum-chart state as dot products with g; d2 holds |X_i|^2."""
    phi = (g - g * r2 / d2) @ z[3:].reshape(-1, 2)
    return (z[0] + 0.5 * (g @ d2)) / inertia, (z[1] - phi[1]) / c, (z[2] + phi[0]) / c


def _rhs_array(momentum, u, g, r2, c, inertia, gtot):
    """``_rhs_scalar`` on the flat ndarray state, as array expressions over the vortices."""
    p = u[3:].view(np.complex128)
    d2 = p.real * p.real + p.imag * p.imag
    inside = d2 <= r2 * _DOMAIN_SCALE
    if inside.any():
        raise _OutsideDomain(int(inside.argmax()))
    grad_g = _kr_grad_complex(p, d2, g, r2, gtot)
    image = r2 / (p * p).conj()
    out = np.empty_like(u)
    if momentum:
        om, vx, vy = _omv_array(u, d2, g, r2, c, inertia)
        lx, ly = u[1], u[2]
        out[0] = -ly * vx + lx * vy
        out[1] = ly * om + gtot * vy
        out[2] = -lx * om - gtot * vx
    else:
        om, vx, vy = u[0], u[1], u[2]
        sum_lam = (g - g * r2 / d2) @ u[3:].reshape(-1, 2)
        l_ov1 = (-c * vy + 2.0 * sum_lam[0]) / (c * inertia)
        l_ov2 = (c * vx + 2.0 * sum_lam[1]) / (c * inertia)
        # gtot - sum g (1 - R^4/d2^2), without the cancellation
        l_v12 = r2 * r2 * (g @ (1.0 / (d2 * d2))) / (c * c)
        h_om, h_vx, h_vy = inertia * om, c * vx, c * vy
        d_v = ((grad_g - image * grad_g.conj()) @ g) / c
        out[0] = l_ov1 * h_vx + l_ov2 * h_vy + ((p.conj() * grad_g).imag @ g) / inertia
        out[1] = -l_ov1 * h_om + l_v12 * h_vy + d_v.real
        out[2] = -l_ov2 * h_om - l_v12 * h_vx + d_v.imag
    v = complex(vx, vy)
    out[3:].view(np.complex128)[:] = v - image * v.conjugate() + 1j * (om * p - grad_g)
    return out


def _collision_array(z, n, body_limit2, pair_limit2):
    """``_collision_scalar`` on the flat ndarray state, with the same reason and index."""
    px, py = z[3::2], z[4::2]
    d2 = px * px + py * py
    nearest = int(d2.argmin())
    if d2[nearest] < body_limit2:
        return HALT_BODY, nearest
    dx, dy = _pair_grid(px), _pair_grid(py)
    close = dx * dx + dy * dy < pair_limit2
    close.flat[:: n + 1] = False
    # the grid is symmetric, so the first row holding a close pair is the
    # lower index of the first such pair in row-major order
    rows = close.any(axis=1)
    if rows.any():
        return HALT_PAIR, int(rows.argmax())
    return None, -1


def _body_velocity_array(momentum, z, g, r2, c, inertia):
    """``_body_velocity_scalar`` of a flat ndarray state."""
    if momentum:
        return _omv_array(z, z[3::2] * z[3::2] + z[4::2] * z[4::2], g, r2, c, inertia)
    return z[:3].tolist()


def _pose_step(beta, comp_b, x0, comp_x, y0, comp_y, om, vx, vy, dt):
    """One exact screw increment with compensated accumulation.

    Returns the six carried floats (angle, position, compensations).
    """
    theta = om * dt
    if abs(theta) < 1e-8:
        a = dt * (1.0 - theta * theta / 6.0)
        b = dt * (theta / 2.0 - theta * theta * theta / 24.0)
    else:
        a = math.sin(theta) / om
        b = (1.0 - math.cos(theta)) / om
    tx = a * vx - b * vy
    ty = b * vx + a * vy
    cb, sb = math.cos(beta), math.sin(beta)
    incx = cb * tx - sb * ty
    incy = sb * tx + cb * ty
    # Kahan-compensated sums keep the straight-line case exact to ~eps.
    yb = theta - comp_b
    tb = beta + yb
    comp_b = (tb - beta) - yb
    beta = tb
    yx = incx - comp_x
    txx = x0 + yx
    comp_x = (txx - x0) - yx
    x0 = txx
    yy = incy - comp_y
    tyy = y0 + yy
    comp_y = (tyy - y0) - yy
    y0 = tyy
    return beta, comp_b, x0, comp_x, y0, comp_y


def _load_list(z):
    """A flat float state as a list: three body floats, then N complex positions."""
    return [*z[:3].tolist(), *z[3:].view(np.complex128).tolist()]


def _store_list(row, z):
    """Write the list state z into the flat float ndarray row."""
    row[:3] = z[:3]
    row[3:].view(np.complex128)[:] = z[3:]


def _predict(stage, z, h, slopes):
    """z + h k with k = k1, 2 k1 - k2 or 3 (k1 - k2) + k3 from the slopes (k1, k2, k3),
    latest first, that there are; z without one."""
    if not slopes:
        return z
    k = slopes[0]
    if len(slopes) > 1:
        diff = stage(k, -1.0, slopes[1])
        k = stage(slopes[2], 3.0, diff) if len(slopes) > 2 else stage(k, 1.0, diff)
    return stage(z, h, k)


def _increment_list(u, v):
    """max |a - b| over the entries of the flat float layout of two list states."""
    delta = 0.0
    for a, b in zip(u, v):
        d = a - b
        re, im = abs(d.real), abs(d.imag)
        if re > delta:
            delta = re
        if im > delta:
            delta = im
    return delta


# How ``run`` works, chosen once per run by ``_ops``. Both namespaces write the
# same operations in the same order: stage(z, h, k) = z + h k,
# rk4(z, h, k1..k4) = z + h (((k1 + 2 k2) + 2 k3) + k4), reflect(m, z) = 2 m - z,
# increment(a, b) = max |a - b| over the flat float entries, and finite(z)
# tests every entry.
_LISTS = SimpleNamespace(
    load=_load_list,
    store=_store_list,
    strengths=np.ndarray.tolist,
    rhs=_rhs_scalar,
    body_velocity=_body_velocity_scalar,
    collision=_collision_scalar,
    stage=lambda z, h, k: [a + h * b for a, b in zip(z, k)],
    rk4=lambda z, h, k1, k2, k3, k4: [
        a + h * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(z, k1, k2, k3, k4)
    ],
    reflect=lambda m, z: [2.0 * a - b for a, b in zip(m, z)],
    increment=_increment_list,
    finite=lambda z: all(map(cmath.isfinite, z)),
)
_ARRAYS = SimpleNamespace(
    load=np.array,
    store=np.copyto,
    strengths=np.array,
    rhs=_rhs_array,
    body_velocity=_body_velocity_array,
    collision=_collision_array,
    stage=lambda z, h, k: z + h * k,
    rk4=lambda z, h, k1, k2, k3, k4: z + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
    reflect=lambda m, z: 2.0 * m - z,
    increment=lambda u, v: np.abs(u - v).max(),
    finite=lambda z: np.isfinite(z).all(),
)


def _ops(n):
    """How ``run`` works on n vortices: Python lists and scalar loops below
    ``PAIR_ARRAY_MIN``, ndarrays and array expressions from there up."""
    return _LISTS if n < PAIR_ARRAY_MIN else _ARRAYS


def run(config):
    """Fixed-step RK4 or implicit midpoint of the ``SimConfig`` config, with exact
    screw pose steps from its pose.

    Returns the recorded states, poses (beta, x0_x, x0_y) and step numbers;
    then the halt reason (None if the run reached its end), vortex index and
    step (0 for a start inside a clearance); then the number of right-hand side
    evaluations, the one that left the domain included, and the largest number
    of midpoint iterations in one step (0 under RK4).
    """
    body, vortices = config.body, config.vortices
    n = vortices.n
    ops = _ops(n)
    rhs, stage, finite = ops.rhs, ops.stage, ops.finite
    momentum, rk4 = config.chart == MOMENTUM, config.integrator == "rk4"
    # the loops take Python floats, as numpy scalars would slow them; BodyParams,
    # total_strength and the clearance are floats already, dt need not be
    r2, c, inertia, gtot, dt = body.radius**2, body.c, body.inertia, vortices.total_strength, float(config.dt)
    body_limit2, pair_limit2 = (body.radius + config.clearance) ** 2, config.clearance**2
    z0 = np.concatenate([config.body_state, vortices.positions.reshape(-1)])
    z, g = ops.load(z0), ops.strengths(vortices.strengths)
    nsteps = config.nsteps
    stride = min(config.stride, max(nsteps, 1))  # a longer stride records the same samples
    n_rec_max = nsteps // stride + 2
    rec_states = np.empty((n_rec_max, len(z0)))
    rec_poses = np.empty((n_rec_max, 3))

    half, sixth = 0.5 * dt, dt / 6.0
    beta, px0, py0 = config.pose.tolist()
    # (beta, its compensation, x0_x, its compensation, x0_y, its compensation)
    pose = (beta, 0.0, px0, 0.0, py0, 0.0)
    slopes = ()  # the last converged midpoint slopes, latest first
    n_evals = max_iters = 0

    ops.store(rec_states[0], z)
    rec_poses[0] = pose[::2]
    n_rec = 1

    # a start inside a clearance halts at step 0, before any evaluation
    halt, halt_index = ops.collision(z, n, body_limit2, pair_limit2)
    halt_step = nsteps if halt is None else 0

    om0, vx0, vy0 = ops.body_velocity(momentum, z, g, r2, c, inertia)
    for step in range(halt_step):
        converged = True
        try:
            if rk4:
                n_evals += 1
                k1 = rhs(momentum, z, g, r2, c, inertia, gtot)
                n_evals += 1
                k2 = rhs(momentum, stage(z, half, k1), g, r2, c, inertia, gtot)
                n_evals += 1
                k3 = rhs(momentum, stage(z, half, k2), g, r2, c, inertia, gtot)
                n_evals += 1
                k4 = rhs(momentum, stage(z, dt, k3), g, r2, c, inertia, gtot)
                z = ops.rk4(z, sixth, k1, k2, k3, k4)
            else:
                # fixed-point iteration on the midpoint state, from the extrapolated
                # start; a non-finite iterate counts as non-convergence
                umid = _predict(stage, z, half, slopes)
                converged = False
                try:
                    for iters in range(1, MIDPOINT_MAX_ITER + 1):
                        k = rhs(momentum, umid, g, r2, c, inertia, gtot)
                        unew = stage(z, half, k)
                        if not finite(unew):
                            break
                        delta = ops.increment(unew, umid)
                        umid = unew
                        if delta <= MIDPOINT_TOL:
                            converged = True
                            break
                finally:
                    n_evals += iters
                    max_iters = max(max_iters, iters)
                if converged:
                    z = ops.reflect(umid, z)
                    slopes = (k, *slopes[:2])
        except _OutsideDomain as outside:
            halt, halt_index = HALT_DOMAIN, outside.index
        else:
            if not converged:
                halt = HALT_NO_CONVERGENCE
            elif not finite(z):
                halt = HALT_NONFINITE
            else:
                halt, halt_index = ops.collision(z, n, body_limit2, pair_limit2)
        if halt is not None:
            halt_step = step
            break

        om1, vx1, vy1 = ops.body_velocity(momentum, z, g, r2, c, inertia)
        pose = _pose_step(*pose, 0.5 * (om0 + om1), 0.5 * (vx0 + vx1), 0.5 * (vy0 + vy1), dt)
        om0, vx0, vy0 = om1, vx1, vy1

        if (step + 1) % stride == 0 or step + 1 == nsteps:
            ops.store(rec_states[n_rec], z)
            rec_poses[n_rec] = pose[::2]
            n_rec += 1

    # sample k is taken after step min(k stride, nsteps)
    rec_steps = np.minimum(np.arange(n_rec, dtype=np.int64) * stride, nsteps)
    return rec_states[:n_rec], rec_poses[:n_rec], rec_steps, halt, halt_index, halt_step, n_evals, max_iters
