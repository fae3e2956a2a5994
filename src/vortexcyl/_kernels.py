"""Hot inner loops: fused right-hand sides and the fixed-step drive loop.

Each chart's right-hand side is written once, as scalar loops that index the
flat chart state (any flat sequence: an ndarray or a list), and evaluates the
product ``structure_matrix @ grad H`` without assembling the matrix.
``dynamics.rhs`` keeps that literal product as the test oracle. Every loop
here is compiled by ``_jit`` (numba's ``njit``) when numba is importable and
left plain Python otherwise.

Without numba, the dispatchers ``_rhs``, ``_body_velocity`` and ``_collision``
run the loops on Python floats (``tolist``) below ``PAIR_ARRAY_MIN`` vortices:
the same IEEE operations as on numpy scalars, so the same bits, three to
five times faster. From ``PAIR_ARRAY_MIN`` up they switch to array forms,
where numpy's per-call overhead costs less than the interpreted loops.
``_rhs_array`` works on complex positions X + i Y, with the Kirchhoff-Routh
gradient as one (N, N) grid and one matvec (``_kr_grad_complex``). Under
numba the loops run, compiled, on the arrays.
"""
from __future__ import annotations

import math

import numpy as np

from .fluid import MIN_CLEARANCE

try:
    import numba

    HAVE_NUMBA = True
    _jit = numba.njit(cache=True)
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def _jit(fn):
        return fn


HALT_NONE = 0
HALT_BODY = 1
HALT_PAIR = 2
HALT_NO_CONVERGENCE = 3
HALT_NONFINITE = 4
HALT_DOMAIN = 5

RK4 = 0
MIDPOINT = 1

CHART_MOMENTUM = 0
CHART_VELOCITY = 1

# Implicit midpoint: fixed-point iterations stop once the increment is this small.
MIDPOINT_TOL = 1e-12
MIDPOINT_MAX_ITER = 50

# Without numba, the right-hand side and the clearance scan run as array
# expressions from this many vortices up, and as loops on Python floats below.
# Measured as lists / arrays (numpy 2.4, Python 3.11, Intel Xeon, 2 shared vCPUs,
# best of 15): the momentum-chart RHS 20 / 35 us at N = 4, 29 / 36 at N = 5,
# 38 / 35 at N = 6, 49 / 35 at N = 7, 60 / 40 at N = 8 (velocity chart alike);
# the clearance scan 5 / 12 us at N = 6, 11 / 13 at N = 10, 16 / 13 at N = 12.
# One threshold for both keeps the arithmetic, and so the output bytes, of
# every run from 6 vortices up as it was.
PAIR_ARRAY_MIN = 6


@_jit
def _kr_grad(u, g, r2, out):
    """dW_G/dX_k into out[2k], out[2k + 1]; u is the flat chart state."""
    n = len(g)
    four_pi = 4.0 * math.pi
    for k in range(n):
        px, py = u[3 + 2 * k], u[4 + 2 * k]
        d2 = px * px + py * py
        coef = 0.5 * g[k] * g[k] * (1.0 / d2 - 1.0 / (d2 - r2)) / math.pi
        gx = coef * px
        gy = coef * py
        for j in range(n):
            if j == k:
                continue
            qx, qy = u[3 + 2 * j], u[4 + 2 * j]
            dx, dy = px - qx, py - qy
            sep2 = dx * dx + dy * dy
            b2 = qx * qx + qy * qy
            denom = d2 * b2 - 2.0 * r2 * (px * qx + py * qy) + r2 * r2
            cc = g[k] * g[j] / four_pi
            gx += cc * (2.0 * dx / sep2 + 2.0 * px / d2 - (2.0 * b2 * px - 2.0 * r2 * qx) / denom)
            gy += cc * (2.0 * dy / sep2 + 2.0 * py / d2 - (2.0 * b2 * py - 2.0 * r2 * qy) / denom)
        out[2 * k] = gx
        out[2 * k + 1] = gy


def _pair_grid(v):
    """v_i - v_j on the (N, N) grid."""
    return v[:, None] - v[None, :]


def _kr_grad_complex(p, d2, g, r2, gtot):
    """(dW_G/dX_k + i dW_G/dY_k) / g_k of ``_kr_grad``, with p = X + i Y and d2 = |p|^2.

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


@_jit
def _omv_from_momentum(z, g, r2, c, inertia):
    """(Omega, Vx, Vy) recovered from a flat momentum-chart state."""
    n = len(g)
    phix = 0.0
    phiy = 0.0
    s2 = 0.0
    for i in range(n):
        px, py = z[3 + 2 * i], z[4 + 2 * i]
        d2 = px * px + py * py
        lam = 1.0 - r2 / d2
        phix -= g[i] * py * lam
        phiy += g[i] * px * lam
        s2 += 0.5 * g[i] * d2
    om = (z[0] + s2) / inertia
    vx = (z[1] + phix) / c
    vy = (z[2] + phiy) / c
    return om, vx, vy


@_jit
def _rhs_momentum(z, g, r2, c, inertia, gtot, wg, out):
    """Fused structure-times-gradient product for the momentum chart."""
    n = len(g)
    lx, ly = z[1], z[2]
    om, vx, vy = _omv_from_momentum(z, g, r2, c, inertia)
    _kr_grad(z, g, r2, wg)
    out[0] = -ly * vx + lx * vy
    out[1] = ly * om + gtot * vy
    out[2] = -lx * om - gtot * vx
    for i in range(n):
        px, py = z[3 + 2 * i], z[4 + 2 * i]
        d2 = px * px + py * py
        d4 = d2 * d2
        split = r2 * (px * px - py * py)
        dphix_dx = -2.0 * g[i] * r2 * px * py / d4
        dphix_dy = -g[i] * (d4 - split) / d4
        dphiy_dx = g[i] * (d4 + split) / d4
        dphiy_dy = 2.0 * g[i] * r2 * px * py / d4
        hx = vx * dphix_dx + vy * dphiy_dx + om * g[i] * px - wg[2 * i]
        hy = vx * dphix_dy + vy * dphiy_dy + om * g[i] * py - wg[2 * i + 1]
        out[3 + 2 * i] = -hy / g[i]
        out[4 + 2 * i] = hx / g[i]


@_jit
def _rhs_velocity(w, g, r2, c, inertia, gtot, wg, out):
    """Fused structure-times-gradient product for the velocity chart."""
    n = len(g)
    om, vx, vy = w[0], w[1], w[2]
    _kr_grad(w, g, r2, wg)
    sum_xlam = 0.0
    sum_ylam = 0.0
    sum_ff = 0.0
    for i in range(n):
        px, py = w[3 + 2 * i], w[4 + 2 * i]
        d2 = px * px + py * py
        d4 = d2 * d2
        lam = 1.0 - r2 / d2
        sum_xlam += g[i] * px * lam
        sum_ylam += g[i] * py * lam
        sum_ff += g[i] * (d4 - r2 * r2) / d4
    l_ov1 = (-c * vy + 2.0 * sum_xlam) / (c * inertia)
    l_ov2 = (c * vx + 2.0 * sum_ylam) / (c * inertia)
    l_v12 = (gtot - sum_ff) / (c * c)
    h_om = inertia * om
    h_vx = c * vx
    h_vy = c * vy
    d_om = l_ov1 * h_vx + l_ov2 * h_vy
    d_vx = -l_ov1 * h_om + l_v12 * h_vy
    d_vy = -l_ov2 * h_om - l_v12 * h_vx
    for i in range(n):
        px, py = w[3 + 2 * i], w[4 + 2 * i]
        d2 = px * px + py * py
        d4 = d2 * d2
        split = r2 * (px * px - py * py)
        l_v1x = -(d4 - split) / (c * d4)
        l_v1y = 2.0 * r2 * px * py / (c * d4)
        l_v2x = 2.0 * r2 * px * py / (c * d4)
        l_v2y = -(d4 + split) / (c * d4)
        hx = -wg[2 * i]
        hy = -wg[2 * i + 1]
        d_om += (py * hx - px * hy) / inertia
        d_vx += l_v1x * hx + l_v1y * hy
        d_vy += l_v2x * hx + l_v2y * hy
        out[3 + 2 * i] = -(py / inertia) * h_om - l_v1x * h_vx - l_v2x * h_vy - hy / g[i]
        out[4 + 2 * i] = (px / inertia) * h_om - l_v1y * h_vx - l_v2y * h_vy + hx / g[i]
    out[0] = d_om
    out[1] = d_vx
    out[2] = d_vy


@_jit
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


@_jit
def _rhs_loops(chart_id, u, g, r2, c, inertia, gtot, wg, out):
    """Chart right-hand side of the flat state u into out.

    Returns -1, or, leaving out untouched, the index of the first vortex at
    distance <= R (1 + MIN_CLEARANCE), where the flow is not defined.
    """
    domain2 = r2 * (1.0 + MIN_CLEARANCE) ** 2
    for i in range(len(g)):
        px, py = u[3 + 2 * i], u[4 + 2 * i]
        if px * px + py * py <= domain2:
            return i
    if chart_id == CHART_MOMENTUM:
        _rhs_momentum(u, g, r2, c, inertia, gtot, wg, out)
    else:
        _rhs_velocity(u, g, r2, c, inertia, gtot, wg, out)
    return -1


@_jit
def _body_velocity_loops(chart_id, z, g, r2, c, inertia):
    """(Omega, Vx, Vy) of a flat state in either chart."""
    if chart_id == CHART_MOMENTUM:
        return _omv_from_momentum(z, g, r2, c, inertia)
    return z[0], z[1], z[2]


def _omv_array(z, d2, g, r2, c, inertia):
    """``_omv_from_momentum`` as dot products with g; d2 holds |X_i|^2."""
    phi = (g - g * r2 / d2) @ z[3:].reshape(-1, 2)
    return (z[0] + 0.5 * (g @ d2)) / inertia, (z[1] - phi[1]) / c, (z[2] + phi[0]) / c


def _rhs_array(chart_id, u, g, r2, c, inertia, gtot, out):
    """``_rhs_loops`` as array expressions over the vortices, in complex form.

    In both charts the vortex rates are V - R^2/p*^2 V* + i (Omega p - G/g),
    with p = X + i Y, V = Vx + i Vy and G = dW_G/dX + i dW_G/dY; the velocity
    chart's body rates are sums of G against the same coefficients.
    """
    p = u[3:].view(np.complex128)
    d2 = p.real * p.real + p.imag * p.imag
    inside = d2 <= r2 * (1.0 + MIN_CLEARANCE) ** 2
    if inside.any():
        return int(inside.argmax())
    grad_g = _kr_grad_complex(p, d2, g, r2, gtot)
    image = r2 / (p * p).conj()
    if chart_id == CHART_MOMENTUM:
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
    return -1


def _collision_loops(z, n, body_limit2, pair_limit2):
    """Halt code and vortex index of a clearance violation in z.

    A body violation names the vortex nearest the body; a pair violation
    names the lower index of the first pair found in row-major order.
    """
    nearest, d2min = -1, math.inf
    for i in range(n):
        qx, qy = z[3 + 2 * i], z[4 + 2 * i]
        d2 = qx * qx + qy * qy
        if d2 < d2min:
            nearest, d2min = i, d2
    if d2min < body_limit2:
        return HALT_BODY, nearest
    for i in range(n):
        for j in range(i + 1, n):
            ddx = z[3 + 2 * i] - z[3 + 2 * j]
            ddy = z[4 + 2 * i] - z[4 + 2 * j]
            if ddx * ddx + ddy * ddy < pair_limit2:
                return HALT_PAIR, i
    return HALT_NONE, -1


def _collision_array(z, n, body_limit2, pair_limit2):
    """``_collision_loops`` as array expressions, with the same code and index."""
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
    return HALT_NONE, -1


if HAVE_NUMBA:
    _rhs = _rhs_loops
    _body_velocity = _body_velocity_loops
    _collision = _jit(_collision_loops)
else:

    def _rhs(chart_id, u, g, r2, c, inertia, gtot, wg, out):
        """Chart right-hand side of the flat state u into out; see ``_rhs_loops``."""
        if len(g) >= PAIR_ARRAY_MIN:
            return _rhs_array(chart_id, u, g, r2, c, inertia, gtot, out)
        res = [0.0] * len(u)
        hit = _rhs_loops(chart_id, u.tolist(), g.tolist(), r2, c, inertia, gtot, [0.0] * len(wg), res)
        if hit < 0:
            out[:] = res
        return hit

    def _body_velocity(chart_id, z, g, r2, c, inertia):
        """(Omega, Vx, Vy) of a flat state in either chart."""
        if chart_id == CHART_MOMENTUM and len(g) >= PAIR_ARRAY_MIN:
            return _omv_array(z, z[3::2] * z[3::2] + z[4::2] * z[4::2], g, r2, c, inertia)
        return _body_velocity_loops(chart_id, z.tolist(), g.tolist(), r2, c, inertia)

    def _collision(z, n, body_limit2, pair_limit2):
        """Halt code and vortex index of a clearance violation in z."""
        if n >= PAIR_ARRAY_MIN:
            return _collision_array(z, n, body_limit2, pair_limit2)
        return _collision_loops(z.tolist(), n, body_limit2, pair_limit2)


@_jit
def run(chart_id, z0, g, r2, c, inertia, gtot, dt, nsteps, stride, body_limit2, pair_limit2, integ_id):
    """Fixed-step RK4 or implicit midpoint with exact screw pose steps.

    Returns the recorded states, poses (beta, x0_x, x0_y) and step numbers,
    then the halt code, vortex index and step.
    """
    dim = z0.shape[0]
    n = g.shape[0]
    n_rec_max = nsteps // stride + 2
    rec_states = np.empty((n_rec_max, dim))
    rec_poses = np.zeros((n_rec_max, 3))
    rec_steps = np.empty(n_rec_max, dtype=np.int64)

    z = z0.copy()
    wg = np.empty(2 * n)
    k1 = np.empty(dim)
    k2 = np.empty(dim)
    k3 = np.empty(dim)
    k4 = np.empty(dim)
    beta, comp_b, px0, comp_x, py0, comp_y = 0.0, 0.0, 0.0, 0.0, 0.0, 0.0

    rec_states[0] = z
    rec_steps[0] = 0
    n_rec = 1

    halt_code = HALT_NONE
    halt_index = -1
    halt_step = nsteps

    om0, vx0, vy0 = _body_velocity(chart_id, z, g, r2, c, inertia)
    for step in range(nsteps):
        converged = True
        if integ_id == RK4:
            hit = _rhs(chart_id, z, g, r2, c, inertia, gtot, wg, k1)
            if hit < 0:
                hit = _rhs(chart_id, z + 0.5 * dt * k1, g, r2, c, inertia, gtot, wg, k2)
            if hit < 0:
                hit = _rhs(chart_id, z + 0.5 * dt * k2, g, r2, c, inertia, gtot, wg, k3)
            if hit < 0:
                hit = _rhs(chart_id, z + dt * k3, g, r2, c, inertia, gtot, wg, k4)
            if hit < 0:
                z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            # fixed-point iteration on the midpoint state; a non-finite iterate
            # counts as non-convergence
            umid = z
            hit = -1
            converged = False
            for _ in range(MIDPOINT_MAX_ITER):
                hit = _rhs(chart_id, umid, g, r2, c, inertia, gtot, wg, k1)
                if hit >= 0:
                    break
                unew = z + 0.5 * dt * k1
                if not np.isfinite(unew).all():
                    break
                delta = np.abs(unew - umid).max()
                umid = unew
                if delta <= MIDPOINT_TOL:
                    converged = True
                    break
            if converged:
                z = 2.0 * umid - z

        if hit >= 0:
            halt_code, halt_index = HALT_DOMAIN, hit
        elif not converged:
            halt_code = HALT_NO_CONVERGENCE
        elif not np.isfinite(z).all():
            halt_code = HALT_NONFINITE
        else:
            halt_code, halt_index = _collision(z, n, body_limit2, pair_limit2)
        if halt_code != HALT_NONE:
            halt_step = step
            break

        om1, vx1, vy1 = _body_velocity(chart_id, z, g, r2, c, inertia)
        beta, comp_b, px0, comp_x, py0, comp_y = _pose_step(
            beta,
            comp_b,
            px0,
            comp_x,
            py0,
            comp_y,
            0.5 * (om0 + om1),
            0.5 * (vx0 + vx1),
            0.5 * (vy0 + vy1),
            dt,
        )
        om0, vx0, vy0 = om1, vx1, vy1

        if (step + 1) % stride == 0 or step + 1 == nsteps:
            rec_states[n_rec] = z
            rec_poses[n_rec, 0] = beta
            rec_poses[n_rec, 1] = px0
            rec_poses[n_rec, 2] = py0
            rec_steps[n_rec] = step + 1
            n_rec += 1

    return rec_states[:n_rec], rec_poses[:n_rec], rec_steps[:n_rec], halt_code, halt_index, halt_step
