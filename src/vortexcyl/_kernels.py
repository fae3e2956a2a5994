"""Hot inner loops: fused right-hand sides and the fixed-step drive loop.

Each chart's right-hand side evaluates ``structure_matrix @ grad H`` without
assembling the matrix (``dynamics.rhs`` keeps that product as the test oracle),
in one complex-form formula set: with p = X + i Y, L = Lx + i Ly and V = Vx + i Vy
the vortex rates are V - R^2 V*/p*^2 + i (Omega p - G/g), G = dW_G/dX + i dW_G/dY,
the momentum chart's body rates A' = Im(L* V) and L' = -i (Omega L + Gamma V), with
V = (L + i lam) / c, and the velocity chart's Omega' = 2 Re(lam* V) / I and
V' = (dv - 2 Omega lam - i (c Omega + R^4 s4) V) / c, with lam = sum g (1 - R^2/|p|^2) p,
s4 = sum g/|p|^4 and dv = sum (G - R^2 G*/p*^2). The product adds sum Im(p* G) / I
to Omega', the derivative of W_G along a rotation about the centre, which leaves
W_G unchanged, so that sum is zero and not formed. A right-hand side takes a flag
for the momentum chart and gives a new slope; a vortex outside the fluid domain
raises ``_OutsideDomain`` with its index and the number of evaluations made in
the step so far (the RK4 stage or the midpoint iteration).

``run`` takes a ``SimConfig``, returns why it halted as text (the ``HALT_*``
strings) or None, and picks a layout per run from the number of vortices
(``_ops``). Each layout gives it the same three operations: ``step``, one RK4
step (its four right-hand sides and the stage arithmetic); ``midpoint``, one
implicit midpoint step (the extrapolated start, the fixed-point iterations and
the reflection); and ``tail``, which ``run`` calls at the start and after each
step: finiteness, clearances and the body velocity (Omega, V) that the next
step starts from. ``step`` and ``midpoint`` return the new state (None if the
midpoint did not converge) and know no clearance or halt reason.
Below ``PAIR_ARRAY_MIN``, in the list layout, the state is a tuple of the body's
Omega or A (a float), its V or L and N positions (``complex``), and each operation
is one function of straight-line code written out for that N from one template
(``_list_source``) and compiled at its first use in a process (``_ListOps``), so a
run compiles only what its integrator calls. A sample takes the flat float layout
(X, Y interleaved) only when recorded. From there up the state is the flat ndarray
and the operations compose array expressions, with the Kirchhoff-Routh pair terms
as one (N, N) grid and one matvec. The layouts sum in different orders, so they
agree to rounding, not bit for bit.

The implicit midpoint iterates u = z + (dt/2) f(u) from the midpoint that the
last converged slopes f(u) extrapolate to (Hairer, Lubich and Wanner,
*Geometric Numerical Integration*, ch. VIII.6), which saves iterations and moves
the result only within what the stopping increment leaves.
"""
from __future__ import annotations

import cmath
import functools
import linecache
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

# ``run`` works on ndarrays from this many vortices up, on the list layout below.
# List layout (its code written out for each N) / arrays in us, momentum chart
# (Python 3.11, numpy 2.4, 2 shared vCPUs, interleaved, best of 3 x 5 x 60):
#   N                       4         8        10        11        12
#   midpoint iteration  7.5/33     18/34     26/36     28/36     33/35
#   RK4 step             26/147    71/147   107/153   120/152   138/153
# The list layout wins through N = 12, but at 10 and 12 vortices the absolute
# MIDPOINT_TOL leaves 1e-11 to 6e-11 in 100 momentum-chart steps, more than the
# array path's whole-trajectory parity test allows; 8 keeps that test's
# 8-vortex system.
PAIR_ARRAY_MIN = 8

_TWO_PI = 2.0 * math.pi
# A vortex at distance <= R (1 + MIN_CLEARANCE) is outside the fluid domain.
_DOMAIN_SCALE = (1.0 + MIN_CLEARANCE) ** 2


class _OutsideDomain(Exception):
    """A right-hand side was asked for where vortex ``index`` is outside the fluid
    domain; ``stage`` is the number of evaluations made in the step so far, this
    one included: the RK4 stage, or the midpoint iteration."""

    def __init__(self, index, stage):
        super().__init__(index, stage)
        self.index, self.stage = index, stage


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


# The list layout, written out for one number of vortices n by ``_list_source``.
# The state is a tuple: the float a0 (Omega or A), the complex a1 (V or L), then n
# complex positions p0, p1, ... Every entry, vortex and pair term is a local, and
# each sum is spelled in the order of the loop it replaces. The locals of one
# right-hand side carry the suffix of its stage (_1 to _4; a midpoint iteration's
# are _1), the step's start carries _0 where it is not the stage-1 state, and the
# new state carries none.
#
# step is one RK4 step: four right-hand sides, each at z + h k of the one before,
# and the combination z + (dt/6) (k1 + 2 k2 + 2 k3 + k4); its first stage takes the
# (Omega, V) of z that the last tail handed back. It returns the new state and its
# 4 evaluations. midpoint is one implicit midpoint step: u starts where the given
# slopes (the last converged ones, latest first) extrapolate to (see the module
# docstring); each iteration evaluates f(u), forms z + (dt/2) f(u) and stops once
# the increment max |new - u| over the flat float entries is at most MIDPOINT_TOL.
# It returns the reflection 2 u - z of the converged midpoint, its iterations and
# the slopes, the converged f(u) first; a new u that is not finite, or
# MIDPOINT_MAX_ITER iterations without that increment, return None in place of the
# state. tail, which run calls at the start and after each step, tests every entry
# for finiteness, then the clearances (the body first: the vortex nearest it, the
# lowest index on a tie; then the pairs in row-major order, naming the lower index),
# then evaluates (Omega, V); it returns (halt reason or None, vortex index or -1,
# Omega, V).
#
# A right-hand side evaluates the complex-form formula set of the module
# docstring; per vortex k, d = |p|^2, pc = p*, w = g (d - R^2)/p and q = R^2/p (both
# only in pair terms), G = dW_G/dX + i dW_G/dY over g (the self term, then each
# other vortex's pair term in ascending order: its row of ``_kr_grad_complex``) and
# i = R^2/p*^2; lam = sum g (1 - R^2/d) p, and in the momentum chart, with
# s2 = sum g d, Omega = (A + s2/2) / I and V = (L + i lam) / c. V and L' are formed
# by parts: Python's complex / float and float * complex take the float as
# complex(x, 0.0), whose zero cross terms can flip the sign of a zero part
# (complex(-0.0, 1.0) / c has real part +0.0). It raises
# ``_OutsideDomain`` with the index of the first vortex at distance
# <= R (1 + MIN_CLEARANCE), where the flow is not defined, and the evaluations of
# the step so far. Its float divisors are body constants or positive by that check,
# and it takes no modulus, so an overflowing state gives inf or nan entries, not an
# exception. A divisor that underflows to 0 (two vortices 1e-175 apart) raises
# ZeroDivisionError where the array layout's 1 / 0 makes its slope non-finite; step
# then returns an all-nan state, which the tail halts as non-finite, and midpoint
# stops iterating and returns None, which run halts as non-convergent.
_LIST_TEMPLATE = """\
def step(momentum, z, om_1, v_1, g, r2, c, inertia, gtot, dt):
    half, sixth = 0.5 * dt, dt / 6.0
    domain2 = r2 * _DOMAIN_SCALE
    [{g}] = g
    {state_1} = z
    try:{rhs_1}{stage_2}{rhs_2}{stage_3}{rhs_3}{stage_4}{rhs_4}
    except ZeroDivisionError:
        return (_NAN,) * {size}, 4{rk4}
    return ({state},), 4


def midpoint(momentum, z, slopes, g, r2, c, inertia, gtot, dt):
    half = 0.5 * dt
    domain2 = r2 * _DOMAIN_SCALE
    [{g}] = g
    {state_0} = z
    if len(slopes) == 3:
        ({slope_1}), ({slope_2}), ({slope_3}) = slopes
        {state_1} = {extrapolated_3}
    elif len(slopes) == 2:
        ({slope_1}), ({slope_2}) = slopes
        {state_1} = {extrapolated_2}
    elif slopes:
        ({slope_1}), = slopes
        {state_1} = {extrapolated_1}
    else:
        {state_1} = z
    for iters in range(1, MIDPOINT_MAX_ITER + 1):
        try:{rhs_midpoint}
        except ZeroDivisionError:
            break{half_step}
        if not ({finite}):
            break
        if max(0.0{increment}) <= MIDPOINT_TOL:
            return ({reflection},), iters, (({slope_1}), *slopes[:2])
        {state_1} = {state}
    return None, iters, slopes


def tail(momentum, z, g, r2, c, inertia, body_limit2, pair_limit2):
    [{g}] = g
    {state} = z
    if not ({finite}):
        return HALT_NONFINITE, -1, None, None{clearance}
    if momentum:
        {lam}
        {s2}
        {omv}
        return None, -1, om, v
    return None, -1, a0, a1
"""

# One right-hand side at the state of one stage, its locals suffixed by s; the
# slope it leaves is ka0, ka1 (body) and kp0, kp1, ... (vortices), suffixed
# alike. {velocity} is where (Omega, V) comes from: computed, or handed back.
_RHS_TEMPLATE = """
        # the slope at {where}{domain}{vortex}{velocity}{grad}
        if momentum:
            ka0{s} = (a1{s}.conjugate() * v{s}).imag
            ka1{s} = complex(a1{s}.imag * om{s} + gtot * v{s}.imag, -a1{s}.real * om{s} - gtot * v{s}.real)
        else:
            s4{s} = 0.0{s4}
            dv{s} = 0j{dv}
            ka0{s} = 2.0 * (lam{s}.conjugate() * v{s}).real / inertia
            ka1{s} = (dv{s} - 2.0 * om{s} * lam{s} - 1j * (c * om{s} + r2 * r2 * s4{s}) * v{s}) / c{rates}"""


def _list_source(n):
    """``_LIST_TEMPLATE`` written out for n vortices; only integers enter the text."""
    vortices = range(n)
    entries = ["a0", "a1", *(f"p{k}" for k in vortices)]

    def each(pattern, sep="", **fields):
        return sep.join(pattern.format(k=k, **fields) for k in vortices)

    def state(s=""):
        return ", ".join(e + s for e in entries)

    def assign(indent, target, expression):
        """One line per entry: its name suffixed by target = expression, with {e} the entry."""
        return "".join(f"\n{indent}{e}{target} = {expression.format(e=e)}" for e in entries)

    def lam(s):
        return f"lam{s} = 0j" + each(" + (g{k} - g{k} * r2 / d{k}{s}) * p{k}{s}", s=s)

    def s2(s):
        return f"s2{s} = 0.0" + each(" + g{k} * d{k}{s}", s=s)

    def omv(s):
        v = f"complex((a1{s}.real - lam{s}.imag) / c, (a1{s}.imag + lam{s}.real) / c)"
        return f"om{s}, v{s} = (a0{s} + 0.5 * s2{s}) / inertia, {v}"

    def rhs(stage, handed=False, count=None):
        """The right-hand side at an RK4 stage, whose exit reports that stage; given the
        text count, the one at the midpoint's iterated state, whose exit reports count."""
        s = f"_{stage}"
        if handed:  # (Omega, V) of z are arguments; the velocity chart's rates need lam
            velocity = f"\n        if not momentum:\n            {lam(s)}"
        else:
            velocity = (
                f"\n        {lam(s)}\n        if momentum:\n            {s2(s)}\n            {omv(s)}"
                f"\n        else:\n            om{s}, v{s} = a0{s}, a1{s}"
            )
        vortex = "\n        pc{k}{s} = p{k}{s}.conjugate()"
        if n > 1:
            vortex += "\n        w{k}{s} = g{k} * (d{k}{s} - r2) / p{k}{s}\n        q{k}{s} = r2 / p{k}{s}"
        grad = "".join(
            f"\n        G{k}{s} = ((gtot - g{k} - g{k} * r2 / (d{k}{s} - r2)) / pc{k}{s}"
            + "".join(f" + w{j}{s} / ((pc{k}{s} - pc{j}{s}) * (pc{k}{s} - q{j}{s}))" for j in vortices if j != k)
            + f") / _TWO_PI\n        i{k}{s} = r2 / (pc{k}{s} * pc{k}{s})"
            for k in vortices
        )
        return _RHS_TEMPLATE.format(
            s=s,
            where=f"stage {stage}" if count is None else "the iterated midpoint",
            domain=each(
                "\n        d{k}{s} = p{k}{s}.real * p{k}{s}.real + p{k}{s}.imag * p{k}{s}.imag"
                "\n        if d{k}{s} <= domain2:\n            raise _OutsideDomain({k}, {count})",
                s=s,
                count=stage if count is None else count,
            ),
            vortex=each(vortex, s=s),
            velocity=velocity + (f"\n        vc{s} = v{s}.conjugate()" if n else ""),
            grad=grad,
            s4=each(" + g{k} / (d{k}{s} * d{k}{s})", s=s),
            dv=each(" + g{k} * (G{k}{s} - i{k}{s} * G{k}{s}.conjugate())", s=s),
            rates=each("\n        kp{k}{s} = v{s} - i{k}{s} * vc{s} + 1j * (om{s} * p{k}{s} - G{k}{s})", s=s),
        )

    clearance = ""
    if n:
        clearance = each("\n    d{k} = p{k}.real * p{k}.real + p{k}.imag * p{k}.imag")
        clearance += (
            f"\n    if {each('d{k} < body_limit2', sep=' or ')}:"
            f"\n        nearest = ({each('d{k}', sep=', ')},)"
            "\n        return HALT_BODY, nearest.index(min(nearest)), None, None"
        )
        for i in vortices:
            for j in range(i + 1, n):
                clearance += (
                    f"\n    e = p{i} - p{j}\n    if e.real * e.real + e.imag * e.imag < pair_limit2:"
                    f"\n        return HALT_PAIR, {i}, None, None"
                )

    return _LIST_TEMPLATE.format(
        g=each("g{k}", sep=", "),
        state=state(),
        state_0=state("_0"),
        state_1=state("_1"),
        **{f"slope_{s}": ", ".join(f"k{e}_{s}" for e in entries) for s in (1, 2, 3)},
        rhs_1=rhs(1, handed=True),
        rhs_2=rhs(2),
        rhs_3=rhs(3),
        rhs_4=rhs(4),
        # one indent deeper, in the iteration loop
        rhs_midpoint=rhs(1, count="iters").replace("\n", "\n    "),
        stage_2=assign("        ", "_2", "{e}_1 + half * k{e}_1"),
        stage_3=assign("        ", "_3", "{e}_1 + half * k{e}_2"),
        stage_4=assign("        ", "_4", "{e}_1 + dt * k{e}_3"),
        rk4=assign("    ", "", "{e}_1 + sixth * (k{e}_1 + 2.0 * k{e}_2 + 2.0 * k{e}_3 + k{e}_4)"),
        size=len(entries),
        # the slopes latest first: z + h k1, z + h (2 k1 - k2), z + h (3 (k1 - k2) + k3)
        extrapolated_1=", ".join(f"{e}_0 + half * k{e}_1" for e in entries),
        extrapolated_2=", ".join(f"{e}_0 + half * (k{e}_1 + 1.0 * (k{e}_1 + -1.0 * k{e}_2))" for e in entries),
        extrapolated_3=", ".join(f"{e}_0 + half * (k{e}_3 + 3.0 * (k{e}_1 + -1.0 * k{e}_2))" for e in entries),
        half_step=assign("        ", "", "{e}_0 + half * k{e}_1"),
        finite=" and ".join(f"_isfinite({e})" for e in entries),
        increment="".join(
            f", abs({e} - {e}_1)" if e == "a0" else f", abs(({e} - {e}_1).real), abs(({e} - {e}_1).imag)"
            for e in entries
        ),
        reflection=", ".join(f"2.0 * {e} - {e}_0" for e in entries),
        clearance=clearance,
        lam=lam(""),
        s2=s2(""),
        omv=omv(""),
    )


def _omv_array(z, d2, g, r2, c, inertia):
    """(Omega, V) of a flat momentum-chart state as dot products with g, V by
    parts as in the list layout; d2 holds |X_i|^2."""
    lam_x, lam_y = ((g - g * r2 / d2) @ z[3:].reshape(-1, 2)).tolist()
    return float((z[0] + 0.5 * (g @ d2)) / inertia), complex((z[1] - lam_y) / c, (z[2] + lam_x) / c)


def _rhs_array(momentum, u, g, r2, c, inertia, gtot, stage=1, omv=None):
    """The list layout's right-hand side on the flat ndarray state, as array
    expressions over the vortices; ``stage`` is the one an exit reports, and
    omv, if given, is the (Omega, V) of u, taken in place of evaluating it. The
    body rates are Python scalars: numpy's complex / float is not part by part."""
    w = u[1:].view(np.complex128)  # the body's L or V, then the vortex positions
    p = w[1:]
    d2 = p.real * p.real + p.imag * p.imag
    inside = d2 <= r2 * _DOMAIN_SCALE
    if inside.any():
        raise _OutsideDomain(int(inside.argmax()), stage)
    grad_g = _kr_grad_complex(p, d2, g, r2, gtot)
    image = r2 / (p * p).conj()
    if omv is None:
        omv = _omv_array(u, d2, g, r2, c, inertia) if momentum else (float(u[0]), complex(w[0]))
    om, v = omv
    out = np.empty_like(u)
    rates = out[1:].view(np.complex128)  # the body's L' or V', then the vortices'
    if momentum:
        lm = complex(w[0])
        out[0] = (lm.conjugate() * v).imag
        rates[0] = complex(lm.imag * om + gtot * v.imag, -lm.real * om - gtot * v.real)
    else:
        lam = complex(*((g - g * r2 / d2) @ u[3:].reshape(-1, 2)).tolist())
        s4 = float(g @ (1.0 / (d2 * d2)))
        dv = complex((grad_g - image * grad_g.conj()) @ g)
        out[0] = 2.0 * (lam.conjugate() * v).real / inertia
        rates[0] = (dv - 2.0 * om * lam - 1j * (c * om + r2 * r2 * s4) * v) / c
    rates[1:] = v - image * v.conjugate() + 1j * (om * p - grad_g)
    return out


def _collision_array(z, n, body_limit2, pair_limit2):
    """Halt reason and vortex index of a clearance violation in the flat ndarray
    state z, or (None, -1), found in the order of the list layout's tail."""
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
    """(Omega, V) of a flat ndarray state as Python scalars: in the momentum chart
    from the state, as the list layout's tail has them; else its body entries."""
    if momentum:
        return _omv_array(z, z[3::2] * z[3::2] + z[4::2] * z[4::2], g, r2, c, inertia)
    return float(z[0]), complex(z[1], z[2])


def _pose_step(beta, comp_b, x0, comp_x, y0, comp_y, om, vx, vy, dt):
    """One exact screw increment with compensated accumulation.

    Returns the six carried floats (angle, position, compensations).
    """
    theta = om * dt
    if abs(theta) < 1e-8:
        a = dt * (1.0 - theta * theta / 6.0)
        b = dt * (theta / 2.0 - theta * theta * theta / 24.0)
    elif abs(theta) < math.inf:
        a = math.sin(theta) / om
        b = (1.0 - math.cos(theta)) / om
    else:  # the angle overflowed: a non-finite pose, which ``run`` halts on
        a = b = math.nan
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


def _tail_array(momentum, z, g, r2, c, inertia, body_limit2, pair_limit2):
    """The list layout's ``tail`` on the flat ndarray state."""
    if not np.isfinite(z).all():
        return HALT_NONFINITE, -1, None, None
    halt, index = _collision_array(z, g.size, body_limit2, pair_limit2)
    if halt is not None:
        return halt, index, None, None
    return (None, -1, *_body_velocity_array(momentum, z, g, r2, c, inertia))


def _step_array(momentum, z, om, v, g, r2, c, inertia, gtot, dt):
    """The list layout's ``step`` on the flat ndarray state; its first stage
    takes the (Omega, V) of z that the last tail handed back."""
    half, sixth = 0.5 * dt, dt / 6.0
    args = (g, r2, c, inertia, gtot)
    k1 = _rhs_array(momentum, z, *args, 1, (om, v))
    k2 = _rhs_array(momentum, z + half * k1, *args, 2)
    k3 = _rhs_array(momentum, z + half * k2, *args, 3)
    k4 = _rhs_array(momentum, z + dt * k3, *args, 4)
    return z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 4


def _midpoint_array(momentum, z, slopes, g, r2, c, inertia, gtot, dt):
    """The list layout's ``midpoint`` on the flat ndarray state."""
    half = 0.5 * dt
    u = z
    if slopes:
        k = slopes[0]
        if len(slopes) > 1:
            diff = k + -1.0 * slopes[1]
            k = slopes[2] + 3.0 * diff if len(slopes) > 2 else k + 1.0 * diff
        u = z + half * k
    for iters in range(1, MIDPOINT_MAX_ITER + 1):
        k = _rhs_array(momentum, u, g, r2, c, inertia, gtot, iters)
        unew = z + half * k
        if not np.isfinite(unew).all():
            break
        if np.abs(unew - u).max() <= MIDPOINT_TOL:
            return 2.0 * unew - z, iters, (k, *slopes[:2])
        u = unew
    return None, iters, slopes


def _load_list(z):
    """A flat float state in the list layout: a tuple of a float, then complex numbers."""
    return (float(z[0]), *z[1:].view(np.complex128).tolist())


def _store_list(row, z):
    """Write the list state z into the flat float ndarray row."""
    row[0] = z[0]
    row[1:].view(np.complex128)[:] = z[1:]


# How ``run`` works, chosen once per run by ``_ops``. Both layouts do the same
# operations in the same order (see ``_LIST_TEMPLATE``): step, midpoint and tail,
# with z + h k, z + h (((k1 + 2 k2) + 2 k3) + k4) and 2 u - z entry by entry.
_ARRAYS = SimpleNamespace(
    load=np.array,
    store=np.copyto,
    strengths=np.array,
    step=_step_array,
    midpoint=_midpoint_array,
    tail=_tail_array,
)


class _ListOps:
    """The list layout for n vortices. Its ``step``, ``midpoint`` and ``tail``
    are each compiled from their own slice of ``_list_source(n)`` at their
    first use and kept as attributes, so a run compiles only what its
    integrator calls. The source is entered in ``linecache`` under its file
    name, each function at its own line numbers, so tracebacks, profilers and
    ``inspect.getsource`` show the written-out lines."""

    def __init__(self, n):
        source, self._filename = _list_source(n), f"<vortexcyl list layout, n = {n}>"
        linecache.cache[self._filename] = (len(source), None, source.splitlines(True), self._filename)
        self.load, self.store, self.strengths = _load_list, _store_list, np.ndarray.tolist
        self._scope = {
            "_DOMAIN_SCALE": _DOMAIN_SCALE,
            "_TWO_PI": _TWO_PI,
            "_OutsideDomain": _OutsideDomain,
            "_isfinite": cmath.isfinite,
            "_NAN": math.nan,
            "HALT_BODY": HALT_BODY,
            "HALT_PAIR": HALT_PAIR,
            "HALT_NONFINITE": HALT_NONFINITE,
            "MIDPOINT_TOL": MIDPOINT_TOL,
            "MIDPOINT_MAX_ITER": MIDPOINT_MAX_ITER,
        }
        # each function's text, led by the blank lines that put it at its own
        # line numbers; compiled alone, as the compiler's peak memory grows with
        # the text it takes in at once
        self._texts, line = {}, 0
        for function in source.split("\n\n\n"):
            self._texts[function[4 : function.index("(")]] = "\n" * line + function
            line += function.count("\n") + 3

    def __getattr__(self, name):
        """Compile the function ``name`` at its first use; from then on it is an
        attribute, found without this call."""
        if name not in ("step", "midpoint", "tail"):
            raise AttributeError(name)
        exec(compile(self._texts.pop(name), self._filename, "exec"), self._scope)
        setattr(self, name, self._scope[name])
        return self._scope[name]


# one list layout per n and process, which compiles nothing until a function is asked for
_list_ops = functools.cache(_ListOps)


def _ops(n):
    """How ``run`` works on n vortices: tuples of Python scalars and code written
    out for n below ``PAIR_ARRAY_MIN``, ndarrays and array expressions from there up."""
    return _list_ops(n) if n < PAIR_ARRAY_MIN else _ARRAYS


def run(config):
    """Fixed-step RK4 or implicit midpoint of the ``SimConfig`` config, with exact
    screw pose steps from its pose.

    Each step is one call of the layout's ``step`` or ``midpoint``, which
    returns the new state and its evaluation count, then one of its ``tail``
    on that state; a stage outside the fluid domain raises ``_OutsideDomain``
    with the count so far. Returns the recorded states,
    poses (beta, x0_x, x0_y) and step numbers; then the halt reason (None if
    the run reached its end), vortex index and step (0 for a start inside a
    clearance); then the number of right-hand side evaluations, the one that
    left the domain included, and the largest number of midpoint iterations in
    one step (0 under RK4).
    """
    body, vortices = config.body, config.vortices
    ops = _ops(vortices.n)
    momentum, rk4 = config.chart == MOMENTUM, config.integrator == "rk4"
    # only the integrator's own function and the tail, fetched once: the list
    # layout compiles each at its first use
    advance, tail = ops.step if rk4 else ops.midpoint, ops.tail
    # the loops take Python floats, as numpy scalars would slow them; BodyParams,
    # total_strength and the clearance are floats already, dt need not be
    r2, c, inertia, gtot, dt = body.radius**2, body.c, body.inertia, vortices.total_strength, config.dt
    body_limit2, pair_limit2 = (body.radius + config.clearance) ** 2, config.clearance**2
    z0 = np.concatenate([config.body_state, vortices.positions.reshape(-1)])
    z, g = ops.load(z0), ops.strengths(vortices.strengths)
    nsteps = config.nsteps
    stride = min(config.stride, max(nsteps, 1))  # a longer stride records the same samples
    n_rec_max = nsteps // stride + 2
    rec_states = np.empty((n_rec_max, len(z0)))
    rec_poses = np.empty((n_rec_max, 3))

    beta, px0, py0 = config.pose.tolist()
    # (beta, its compensation, x0_x, its compensation, x0_y, its compensation)
    pose = (beta, 0.0, px0, 0.0, py0, 0.0)
    slopes = ()  # the midpoint's last converged slopes, latest first
    n_evals = most_evals = 0

    ops.store(rec_states[0], z)
    rec_poses[0] = pose[::2]
    n_rec = 1

    # a start inside a clearance halts at step 0, before any evaluation; else the
    # tail hands back (Omega, V) at the start, as it does after each step
    halt, halt_index, om0, v0 = tail(momentum, z, g, r2, c, inertia, body_limit2, pair_limit2)
    halt_step = nsteps if halt is None else 0

    for step in range(halt_step):
        try:
            if rk4:
                z, evals = advance(momentum, z, om0, v0, g, r2, c, inertia, gtot, dt)
            else:
                z, evals, slopes = advance(momentum, z, slopes, g, r2, c, inertia, gtot, dt)
        except _OutsideDomain as outside:
            halt, halt_index, evals = HALT_DOMAIN, outside.index, outside.stage
        else:
            if z is None:
                halt, halt_index = HALT_NO_CONVERGENCE, -1
            else:
                halt, halt_index, om1, v1 = tail(momentum, z, g, r2, c, inertia, body_limit2, pair_limit2)
        n_evals += evals
        if evals > most_evals:  # not max(): its call costs 4% of an RK4 step at N = 0
            most_evals = evals
        if halt is not None:
            halt_step = step
            break

        pose = _pose_step(*pose, 0.5 * (om0 + om1), 0.5 * (v0 + v1).real, 0.5 * (v0 + v1).imag, dt)
        if not (math.isfinite(pose[0]) and math.isfinite(pose[2]) and math.isfinite(pose[4])):
            halt, halt_step = HALT_NONFINITE, step
            break
        om0, v0 = om1, v1

        if (step + 1) % stride == 0 or step + 1 == nsteps:
            ops.store(rec_states[n_rec], z)
            rec_poses[n_rec] = pose[::2]
            n_rec += 1

    # sample k is taken after step min(k stride, nsteps)
    rec_steps = np.minimum(np.arange(n_rec, dtype=np.int64) * stride, nsteps)
    # a midpoint step's evaluations are its iterations
    max_iters = 0 if rk4 else most_evals
    return rec_states[:n_rec], rec_poses[:n_rec], rec_steps, halt, halt_index, halt_step, n_evals, max_iters
