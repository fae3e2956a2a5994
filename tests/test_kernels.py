"""Fused kernels and the drive loop against the structure-matrix route."""
import cmath
import inspect
import itertools
import linecache
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_state
from vortexcyl import BodyParams, ChartState, hamiltonian_gradient, rhs, shift_map, structure_matrix
from vortexcyl import _kernels
from vortexcyl.dynamics import HaltInfo, SimConfig, integrate
from vortexcyl.fluid import MIN_CLEARANCE, ValidationError, VortexSet, grad_kirchhoff_routh


def _slope(ops, momentum, z, g, r2, c, inertia, gtot):
    """The slope of the layout ops at its state z: the one a midpoint step of
    length 0 takes at its first iteration, which converges."""
    new, iters, slopes = ops.midpoint(momentum, z, (), g, r2, c, inertia, gtot, 0.0)
    assert new is not None and (iters, len(slopes)) == (1, 1)
    return slopes[0]


def _kernel_rhs(chart, state, body, g):
    """The right-hand side as ``run`` evaluates it at this size, in the flat layout:
    the slope a midpoint iteration takes at the state."""
    ops = _kernels._ops(state.n)
    z = ops.load(state.flat())
    slope = _slope(ops, chart == "momentum", z, ops.strengths(g), body.radius**2, body.c, body.inertia, float(g.sum()))
    flat = np.empty(state.flat().size)
    ops.store(flat, slope)
    return flat


def _matrix_rhs(chart, state, body, g):
    return structure_matrix(state, g, body) @ hamiltonian_gradient(chart, state, body, g)


def test_python_kernel_matches_matrix_route(body, rng):
    for chart in ("momentum", "velocity"):
        for _ in range(20):
            state, g = random_state(rng, chart)
            npt.assert_allclose(_kernel_rhs(chart, state, body, g), _matrix_rhs(chart, state, body, g), atol=1e-12)


@st.composite
def _kernel_cases(draw, sizes=st.integers(1, 40)):
    """A chart, body and admissible state: N drawn from sizes (1..40, on both
    sides of PAIR_ARRAY_MIN), any radius, vortices hugging the body or far out,
    body variables up to 1e4."""
    chart = draw(st.sampled_from(["momentum", "velocity"]))
    unit = st.floats(-1.0, 1.0)
    radius = draw(st.floats(0.3, 3.0))
    body = BodyParams(mass=draw(st.floats(0.5, 20.0)), inertia=draw(st.floats(0.1, 10.0)), radius=radius)
    n = draw(sizes)
    ring = st.one_of(st.floats(1.0001, 1.01), st.floats(1.01, 4.0), st.floats(1e3, 1e4))
    phase = draw(st.floats(0.0, 2.0 * np.pi))
    strengths, positions = [], []
    for i in range(n):
        strengths.append(draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1.0, 1.0])))
        # angular spacing keeps every pair apart
        angle = phase + 2.0 * np.pi * i / n + 0.2 * min(1.0, 12 / n) * draw(unit)
        positions.append(radius * draw(ring) * np.array([np.cos(angle), np.sin(angle)]))
    scale = draw(st.sampled_from([1.0, 1e4]))
    body_vars = [scale * draw(unit) for _ in range(3)]
    return chart, body, ChartState(chart, body_vars, np.array(positions).reshape(n, 2)), np.array(strengths)


def _flake_case():
    """Velocity chart, body speed 1e4, one vortex at 1.0078 R: the products
    that cancel in the body rates reach ~3e9 while the output is ~5e3."""
    body = BodyParams(mass=1.0, inertia=1.0, radius=2.0)
    state = ChartState("velocity", [0.0, 1e4, 1e4], np.array([[1.08897, 1.69619]]))
    return "velocity", body, state, np.array([-1.0])


@settings(max_examples=200, deadline=None)
@given(_kernel_cases())
@example(_flake_case())
def test_kernel_matches_matrix_route_everywhere(case):
    chart, body, state, g = case
    VortexSet(g, state.positions).validate(body.radius)
    reference = _matrix_rhs(chart, state, body, g)
    # float64 rounding in either route grows with the magnitude of the terms
    # that cancel in the product, |structure| @ |grad H|, not with the result
    cancelling = np.abs(structure_matrix(state, g, body)) @ np.abs(hamiltonian_gradient(chart, state, body, g))
    atol = 1e-11 * max(1.0, float(np.max(cancelling)))
    npt.assert_allclose(_kernel_rhs(chart, state, body, g), reference, rtol=0, atol=atol)


@settings(max_examples=100, deadline=None)
@given(_kernel_cases())
def test_body_velocity_matches_loops(case):
    """The scalar loop on the list layout and the array form on the flat layout
    agree, and the tail that ``run`` starts with gives the one of its layout."""
    chart, body, state, g = case
    z, rest = state.flat(), (body.radius**2, body.c, body.inertia)
    momentum = chart == "momentum"
    loops = np.array(_loop_body_velocity(momentum, _kernels._load_list(z), g.tolist(), *rest))
    array = np.array(_kernels._body_velocity_array(momentum, z, g, *rest))
    ops = _kernels._ops(state.n)
    halt, _, *started = ops.tail(momentum, ops.load(z), ops.strengths(g), *rest, 0.0, 0.0)
    assert halt is None
    npt.assert_array_equal(started, loops if state.n < _kernels.PAIR_ARRAY_MIN else array)
    # (A + sum g |X|^2 / 2) / I and (L -+ phi) / c sum terms as large as these
    d2 = np.sum(state.positions**2, axis=1)
    scale = max(
        (abs(state.body[0]) + np.abs(g) @ d2) / body.inertia,
        (np.abs(state.body[1:]).max() + np.abs(g) @ np.sqrt(d2)) / body.c,
    )
    npt.assert_allclose(loops.view(float), array.view(float), rtol=0, atol=1e-13 * scale)
    if chart == "velocity":
        body = [state.body[0], complex(*state.body[1:])]
        npt.assert_array_equal(loops, body)
        npt.assert_array_equal(array, body)


@pytest.mark.parametrize("route", ["grad_kirchhoff_routh", "_kr_grad_complex"])
def test_the_kirchhoff_routh_function_has_no_rotation_derivative(route):
    """W_G of a circle is unchanged by rotating every vortex about the centre, so
    sum_k X_k dW/dY_k - Y_k dW/dX_k, the sum the velocity chart's Omega rate
    leaves out, is zero to round-off of sum_k |X_k| |grad_k W|."""
    rng = np.random.default_rng(20261020)
    for _ in range(100):
        n, radius = int(rng.integers(1, 21)), float(rng.uniform(0.5, 2.0))
        g = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        r, th = radius * rng.uniform(1.2, 4.0, n), rng.uniform(0.0, 2.0 * np.pi, n)
        p = r * np.exp(1j * th)
        if route == "grad_kirchhoff_routh":
            grad = grad_kirchhoff_routh(VortexSet(g, np.stack([p.real, p.imag], axis=1)), radius)
            grad = grad[:, 0] + 1j * grad[:, 1]
        else:
            d2 = p.real * p.real + p.imag * p.imag
            grad = g * _kernels._kr_grad_complex(p, d2, g, radius**2, float(g.sum()))
        assert abs(np.sum((p.conj() * grad).imag)) <= 1e-14 * np.sum(np.abs(p) * np.abs(grad))


@pytest.mark.parametrize("chart", ["momentum", "velocity"])
def test_array_rhs_reports_the_loops_domain_halt(body, chart):
    n = 8
    angles = 2.0 * np.pi * np.arange(n) / n
    limit = body.radius * (1.0 + MIN_CLEARANCE)
    cases = {}
    for inside in ((5,), (6, 2, 4), (0, 7), (3,)):
        radii = np.full(n, 2.5 * body.radius)
        # the first listed sits at the limit, the others deeper: the deepest
        # vortex is not always the lowest index
        radii[list(inside)] = np.linspace(limit, 0.5 * limit, len(inside))
        cases[inside] = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    g = np.linspace(-1.0, 1.5, n)
    for inside, pos in cases.items():
        z = np.concatenate([[0.1, -0.2, 0.3], pos.reshape(-1)])
        rest = (body.radius**2, body.c, body.inertia, float(g.sum()))
        with pytest.raises(_kernels._OutsideDomain) as loops:
            # the list layout's code, written out for 8 vortices on request
            _slope(_kernels._list_ops(n), chart == "momentum", _kernels._load_list(z), g.tolist(), *rest)
        assert (loops.value.index, loops.value.stage) == (min(inside), 1)
        with pytest.raises(_kernels._OutsideDomain) as array:
            _kernels._rhs_array(chart == "momentum", z, g, *rest)
        assert (array.value.index, array.value.stage) == (min(inside), 1)


def _loop_rhs(momentum, u, g, r2, c, inertia, gtot, stage=1):
    """The list layout's right-hand side as one loop over the vortices, the
    reference for the code ``_kernels._list_source`` writes out: the same
    operations in the same order, so the same bits and the same halts, which
    report ``stage``. The body rates are real-valued, each part of L or V
    apart; the rate of the complex entry is formed from its two parts."""
    domain2 = r2 * _kernels._DOMAIN_SCALE
    vortices = []  # (p, p*, |p|^2, g, g (|p|^2 - R^2)/p, R^2/p) per vortex
    lam, s2 = 0j, 0.0
    for gi, p in zip(g, u[2:]):
        d2 = p.real * p.real + p.imag * p.imag
        if d2 <= domain2:
            raise _kernels._OutsideDomain(len(vortices), stage)
        vortices.append((p, p.conjugate(), d2, gi, gi * (d2 - r2) / p, r2 / p))
        lam += (gi - gi * r2 / d2) * p
        s2 += gi * d2
    lx, ly = u[1].real, u[1].imag
    try:
        if momentum:
            om, vx, vy = (u[0] + 0.5 * s2) / inertia, (lx - lam.imag) / c, (ly + lam.real) / c
        else:
            om, vx, vy = u[0], lx, ly
        rates = []
        s4, dv = 0.0, 0j
        if vortices:
            v = complex(vx, vy)
            vc = v.conjugate()
            for this in vortices:
                pk, pck, d2k, gk, _, _ = this
                acc = (gtot - gk - gk * r2 / (d2k - r2)) / pck
                for other in vortices:
                    if other is not this:
                        _, pcj, _, _, wj, qj = other
                        acc += wj / ((pck - pcj) * (pck - qj))
                grad = acc / _kernels._TWO_PI
                image = r2 / (pck * pck)
                rates.append(v - image * vc + 1j * (om * pk - grad))
                if not momentum:
                    s4 += gk / (d2k * d2k)
                    dv += gk * (grad - image * grad.conjugate())
        if momentum:
            return [-ly * vx + lx * vy, complex(ly * om + gtot * vy, -lx * om - gtot * vx), *rates]
        spin = c * om + r2 * r2 * s4
        return [
            2.0 * (lam.real * vx + lam.imag * vy) / inertia,
            complex((dv.real - 2.0 * om * lam.real + spin * vy) / c, (dv.imag - 2.0 * om * lam.imag - spin * vx) / c),
            *rates,
        ]
    except ZeroDivisionError:
        return [math.nan] * len(u)


def _loop_body_velocity(momentum, z, g, r2, c, inertia):
    """(Omega, V) of a list state as one loop over the vortices, the reference
    for the tail ``_kernels._list_source`` writes out. In the momentum chart, with
    lam = sum g (1 - R^2/|p|^2) p and s2 = sum g |p|^2, Omega = (A + s2/2) / I and
    V = (L + i lam) / c, each part of V apart; in the velocity chart the body entries."""
    if not momentum:
        return z[0], z[1]
    lam, s2 = 0j, 0.0
    for gi, p in zip(g, z[2:]):
        d2 = p.real * p.real + p.imag * p.imag
        lam += (gi - gi * r2 / d2) * p
        s2 += gi * d2
    return (z[0] + 0.5 * s2) / inertia, complex((z[1].real - lam.imag) / c, (z[1].imag + lam.real) / c)


def _loop_collision(z, n, body_limit2, pair_limit2):
    """Halt reason and vortex index of a clearance violation in the list state z, or
    (None, -1), as loops: a body violation names the vortex nearest the body (the
    lowest index on a tie), a pair violation the lower index of the first pair found
    in row-major order."""
    nearest, d2min = -1, math.inf
    for i in range(n):
        p = z[2 + i]
        d2 = p.real * p.real + p.imag * p.imag
        if d2 < d2min:
            nearest, d2min = i, d2
    if d2min < body_limit2:
        return _kernels.HALT_BODY, nearest
    for i in range(n - 1):
        p = z[2 + i]
        for q in z[3 + i :]:
            d = p - q
            if d.real * d.real + d.imag * d.imag < pair_limit2:
                return _kernels.HALT_PAIR, i
    return None, -1


_SMALL = st.integers(0, _kernels.PAIR_ARRAY_MIN - 1)


def _bits(values):
    """The bytes of a sequence of Python floats and complex numbers."""
    return np.array([complex(v) for v in values], dtype=np.complex128).tobytes()


@settings(max_examples=150, deadline=None)
@given(_kernel_cases(sizes=_SMALL))
def test_loops_on_lists_match_loops_on_arrays_bitwise(case):
    """Below PAIR_ARRAY_MIN ``run`` loads a tuple of the body's Omega or A as a
    float, its V or L and N positions as complex numbers. The right-hand side
    written out for N (here a midpoint iteration's) gives the bits of the loop
    it replaces, on the tuple and on an object ndarray of the same Python
    scalars, the layout ``_reference_run`` drives; the written-out tail finds
    what the loops and the array scan find."""
    chart, body, state, g = case
    z, n = state.flat(), state.n
    ops = _kernels._ops(n)
    assert ops is _kernels._list_ops(n)
    loaded = ops.load(z)
    assert type(loaded) is tuple and [type(v) for v in loaded] == [float] + [complex] * (n + 1)
    flat = np.empty(z.size)
    ops.store(flat, loaded)
    assert flat.tobytes() == z.tobytes()

    momentum, rest = chart == "momentum", (body.radius**2, body.c, body.inertia, float(g.sum()))
    on_list = _slope(ops, momentum, loaded, ops.strengths(g), *rest)
    assert [type(v) for v in on_list] == [float] + [complex] * (n + 1)
    assert _bits(on_list) == _bits(_loop_rhs(momentum, list(loaded), g.tolist(), *rest))
    assert _bits(_loop_rhs(momentum, np.array(loaded, dtype=object), g.tolist(), *rest)) == _bits(on_list)

    # limits between the closest and the farthest vortex hit every outcome
    d2 = np.sum(state.positions**2, axis=1)
    for body_limit2 in (0.0, float(np.median(d2)) if n else 1.0):
        for pair_limit2 in (0.0, 1.0, float(np.max(d2)) if n else 1.0):
            limits = (n, body_limit2, pair_limit2)
            on_flat = _kernels._collision_array(z, *limits) if n else (None, -1)
            halt, index, *end = ops.tail(momentum, loaded, g.tolist(), *rest[:3], body_limit2, pair_limit2)
            assert (halt, index) == _loop_collision(loaded, *limits) == on_flat
            assert _loop_collision(np.array(loaded, dtype=object), *limits) == on_flat
            if halt is None:
                assert _bits(end) == _bits(_loop_body_velocity(momentum, loaded, g.tolist(), *rest[:3]))
            else:
                assert end == [None] * 2


@pytest.mark.parametrize("positions", [[], [[2.0, 0.0]], [[2.0, 0.0], [-3.0, 0.0]]])
@pytest.mark.parametrize("chart", ["momentum", "velocity"])
def test_zero_body_entries_keep_the_loops_signs(body, chart, positions):
    """Zero body entries of either sign, with no vortex or with vortices on the
    x axis (lam = +0 + 0j), where Python's complex / float and float * complex
    can turn the sign of a zero part: the written-out slope and tail keep the
    bits of the real-valued loops."""
    n, momentum = len(positions), chart == "momentum"
    ops = _kernels._ops(n)
    g = [1.0, -0.5][:n]
    rest = (body.radius**2, body.c, body.inertia)
    values = (0.0, -0.0, 1.5, -2.25)
    for triple in itertools.product(values, repeat=3):
        z = ops.load(np.concatenate([triple, np.reshape(positions, -1)]))
        slope = _slope(ops, momentum, z, g, *rest, sum(g))
        assert _bits(slope) == _bits(_loop_rhs(momentum, list(z), g, *rest, sum(g)))
        *_, om, v = ops.tail(momentum, z, g, *rest, 0.0, 0.0)
        assert _bits((om, v)) == _bits(_loop_body_velocity(momentum, z, g, *rest))


@settings(max_examples=100, deadline=None)
@given(_kernel_cases(sizes=_SMALL))
def test_written_out_step_hands_back_the_body_velocity_bitwise(case):
    """The (Omega, V) that the written-out tail hands back after an RK4 step,
    which the next step's first stage takes in place of its own, has the bits of
    the scalar loop at the new state, in both charts; the new state has the bits
    of RK4 on ``_loop_rhs`` over object ndarrays, the arithmetic of
    ``_reference_run``."""
    chart, body, state, g = case
    n, momentum = state.n, chart == "momentum"
    ops = _kernels._ops(n)
    z, strengths = ops.load(state.flat()), g.tolist()
    rest = (body.radius**2, body.c, body.inertia)
    gtot = float(g.sum())
    slope = _slope(ops, momentum, z, strengths, *rest, gtot)
    dt = 1e-9 * body.radius / (1.0 + max(map(abs, slope)))  # a step too short to leave the domain
    *_, om, v = ops.tail(momentum, z, strengths, *rest, 0.0, 0.0)
    assert _bits((om, v)) == _bits(_loop_body_velocity(momentum, z, strengths, *rest))
    new, evals = ops.step(momentum, z, om, v, strengths, *rest, gtot, dt)
    halt, _, *handed = ops.tail(momentum, new, strengths, *rest, 0.0, 0.0)
    assert halt is None and evals == 4
    assert _bits(handed) == _bits(_loop_body_velocity(momentum, new, strengths, *rest))

    u = np.array(z, dtype=object)

    def f(v):
        return np.array(_loop_rhs(momentum, v, strengths, *rest, gtot), dtype=object)

    k1 = f(u)
    k2 = f(u + 0.5 * dt * k1)
    k3 = f(u + 0.5 * dt * k2)
    k4 = f(u + dt * k3)
    assert _bits(new) == _bits(u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def test_written_out_source_is_readable_to_tools():
    """The list layout's code is entered in ``linecache`` under its file name, so
    ``inspect`` and tracebacks show the generated lines, each function at its own."""
    ops = _kernels._list_ops(2)
    source = inspect.getsource(ops.step)
    assert source.startswith("def step(") and "raise _OutsideDomain(1, 4)" in source
    for name in ("step", "midpoint", "tail"):
        code = getattr(ops, name).__code__
        assert code.co_filename == "<vortexcyl list layout, n = 2>"
        assert inspect.getsource(getattr(ops, name)) in _kernels._list_source(2)
        assert linecache.getline(code.co_filename, code.co_firstlineno).startswith(f"def {name}(")


@pytest.mark.parametrize("n", range(1, _kernels.PAIR_ARRAY_MIN))
def test_the_end_of_step_tail_is_written_out_once(n):
    """The clearance scan and the momentum chart's (Omega, V) at the new state
    appear once in the written-out source, in ``tail``: ``step`` and ``midpoint``
    end with the new state, and ``run`` calls the tail after them."""
    source = _kernels._list_source(n)
    assert source.count("HALT_BODY") == 1 and source.count("< body_limit2") == n
    assert source.count("< pair_limit2") == n * (n - 1) // 2
    assert source.count("om, v = (a0 + 0.5 * s2) / inertia") == 1
    ops = _kernels._list_ops(n)
    assert "HALT_" not in inspect.getsource(ops.step) + inspect.getsource(ops.midpoint)
    assert "HALT_BODY" in inspect.getsource(ops.tail)


@pytest.mark.parametrize("n", [2, _kernels.PAIR_ARRAY_MIN])
def test_step_and_midpoint_take_no_clearance_and_name_no_halt(monkeypatch, body, n):
    """On both layouts ``step`` and ``midpoint`` take no clearance and return the
    new state (None from a midpoint that does not converge) with their evaluation
    count; only ``tail`` takes the clearances and returns a halt reason, and
    ``run`` calls it at the start and after each step."""
    ops = _kernels._ops(n)
    clearances = {"body_limit2", "pair_limit2"}
    assert clearances <= set(inspect.signature(ops.tail).parameters)
    for function in (ops.step, ops.midpoint):
        assert not clearances & set(inspect.signature(function).parameters)
    angles = 2.0 * np.pi * np.arange(n) / n
    z = ops.load(np.concatenate([[0.1, -0.2, 0.3], (3.0 * np.stack([np.cos(angles), np.sin(angles)], 1)).ravel()]))
    g, rest = ops.strengths(np.linspace(-1.0, 1.5, n)), (body.radius**2, body.c, body.inertia, 0.5)
    *_, om, v = ops.tail(False, z, g, *rest[:3], 0.0, 0.0)
    new, evals = ops.step(False, z, om, v, g, *rest, 1e-3)
    assert evals == 4 and len(new) == len(z) and not any(isinstance(v, str) for v in new)
    new, iters, slopes = ops.midpoint(False, z, (), g, *rest, 1e-3)
    assert new is not None and len(new) == len(z) and len(slopes) == 1 and 1 <= iters < _kernels.MIDPOINT_MAX_ITER
    # a huge step takes the fixed-point map past contraction
    with np.errstate(over="ignore", invalid="ignore"):
        assert ops.midpoint(False, z, (), g, *rest, 1e6)[0] is None
    halt, _, *velocity = ops.tail(False, z, g, *rest[:3], 100.0, 0.0)
    assert (halt, velocity) == (_kernels.HALT_BODY, [None] * 2)

    calls = []
    tail = ops.tail

    def counted(*args):
        calls.append(1)
        return tail(*args)

    monkeypatch.setattr(ops, "tail", counted)
    vortices = VortexSet(np.linspace(-1.0, 1.5, n), 3.0 * np.stack([np.cos(angles), np.sin(angles)], 1))
    for integrator in ("rk4", "midpoint"):
        calls.clear()
        assert integrate(SimConfig("velocity", body, vortices, [0.1, -0.2, 0.3], 1e-3, 0.01, integrator)).halt is None
        assert len(calls) == 11


@pytest.mark.parametrize("chart", ["momentum", "velocity"])
def test_list_path_reports_the_domain_halt(body, chart):
    n = _kernels.PAIR_ARRAY_MIN - 1
    angles = 2.0 * np.pi * np.arange(n) / n
    radii = np.full(n, 2.5 * body.radius)
    limit = body.radius * (1.0 + MIN_CLEARANCE)
    radii[[3, 1]] = limit, 0.5 * limit
    pos = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    z = np.concatenate([[0.1, -0.2, 0.3], pos.reshape(-1)])
    g = np.linspace(-1.0, 1.5, n)
    rest = (body.radius**2, body.c, body.inertia, float(g.sum()))
    ops = _kernels._ops(n)
    with pytest.raises(_kernels._OutsideDomain) as outside:
        _slope(ops, chart == "momentum", ops.load(z), ops.strengths(g), *rest)
    assert outside.value.index == 1


@pytest.mark.parametrize("n", [_kernels.PAIR_ARRAY_MIN, 16])
def test_collision_array_matches_loops(rng, n):
    radius, body_limit2, pair_limit2 = 1.0, 1.1**2, 0.2**2
    angles = 2.0 * np.pi * np.arange(n) / n
    ring = 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    cases = {"none": ring.copy()}
    body_hit = ring.copy()
    body_hit[[3, 5]] = [[1.05, 0.0], [0.0, -1.05]]  # a tie: the lower index is nearest
    cases["body"] = body_hit
    pairs = ring.copy()
    for i, j in ((n - 1, 4), (2, n - 2), (3, 1)):
        pairs[i] = pairs[j] + 0.1
    cases["pairs"] = pairs
    crowd = rng.uniform(-4.0, 4.0, (n, 2))
    cases["random"] = crowd * (1.5 / np.linalg.norm(crowd, axis=1, keepdims=True)).clip(1.0)
    found = {}
    for name, pos in cases.items():
        z = np.concatenate([[0.1, 0.2, 0.3], pos.reshape(-1)])
        loops = _loop_collision(_kernels._load_list(z), n, body_limit2, pair_limit2)
        assert _kernels._collision_array(z, n, body_limit2, pair_limit2) == loops
        found[name] = loops
    assert found["none"] == (None, -1)
    assert found["body"] == (_kernels.HALT_BODY, 3)
    assert found["pairs"] == (_kernels.HALT_PAIR, 1)


def _oracle_integrate(cfg):
    """States and poses at every step, from RK4 or implicit midpoint on ``vortexcyl.rhs``."""
    g = cfg.vortices.strengths

    def f(z):
        return rhs(cfg.chart, ChartState.from_flat(cfg.chart, z), cfg.body, g)

    def body_velocity(z):
        if cfg.chart == "velocity":
            return z[:3]
        return hamiltonian_gradient("momentum", ChartState.from_flat("momentum", z), cfg.body, g)[:3]

    z = cfg.initial_state.flat()
    carry = (0.0,) * 6
    states, poses = [z], [carry[::2]]
    for _ in range(cfg.nsteps):
        v0 = body_velocity(z)
        if cfg.integrator == "rk4":
            k1 = f(z)
            k2 = f(z + 0.5 * cfg.dt * k1)
            k3 = f(z + 0.5 * cfg.dt * k2)
            k4 = f(z + cfg.dt * k3)
            z = z + (cfg.dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            umid = z
            for _ in range(50):
                unew = z + 0.5 * cfg.dt * f(umid)
                done = np.max(np.abs(unew - umid)) <= 1e-12
                umid = unew
                if done:
                    break
            z = 2.0 * umid - z
        vm = 0.5 * (v0 + body_velocity(z))
        carry = _kernels._pose_step(*carry, vm[0], vm[1], vm[2], cfg.dt)
        states.append(z)
        poses.append(carry[::2])
    return np.array(states), np.array(poses)


_ANGLES8 = np.arange(8) * np.pi / 4 + 0.3
_RING8 = np.tile([3.5, 4.5], 4)[:, None] * np.stack([np.cos(_ANGLES8), np.sin(_ANGLES8)], axis=1)
# N = 3 runs on lists with scalar loops, N = 8 (>= PAIR_ARRAY_MIN) on arrays
SYSTEMS = (
    VortexSet([1.0, -1.0, 0.6], [[3.0, 0.0], [0.0, 3.0], [-2.0, -1.5]]),
    VortexSet([1.0, -0.8, 0.6, -1.2, 0.9, -0.7, 1.1, -0.5], _RING8),
)


@pytest.mark.parametrize("integrator", ["rk4", "midpoint"])
@pytest.mark.parametrize("chart", ["momentum", "velocity"])
def test_integrate_matches_matrix_route_loop(body, chart, integrator):
    for vortices in SYSTEMS:
        cfg = SimConfig(
            chart=chart,
            body=body,
            vortices=vortices,
            body_state=[0.05, 0.1, -0.08],
            dt=5e-3,
            t_end=0.5,
            integrator=integrator,
            stride=20,
        )
        traj = integrate(cfg)
        assert traj.halt is None
        states, poses = _oracle_integrate(cfg)
        steps = np.rint(traj.times / cfg.dt).astype(int)
        assert steps[-1] == cfg.nsteps
        npt.assert_allclose(traj.states, states[steps], rtol=0, atol=1e-11)
        npt.assert_allclose(traj.poses, poses[steps], rtol=0, atol=1e-11)


def test_list_layout_is_written_out_at_the_first_run_of_each_vortex_count(body, tmp_path):
    """Importing vortexcyl and building every preset's config compiles no
    list-layout code, nor does a two-worker sweep in its own process (a fresh
    interpreter); two runs with one N compile it once."""
    script = (
        "import json, sys\n"
        "from vortexcyl import _kernels, cli\n"
        "for raw in cli.PRESETS.values():\n"
        "    cli.config_from_dict(raw)\n"
        "print(_kernels._list_ops.cache_info().misses)\n"
        "paths = []\n"
        "for name, raw in sorted(cli.PRESETS.items()):\n"
        "    paths.append(f'{sys.argv[1]}/{name}.json')\n"
        "    with open(paths[-1], 'w') as f:\n"
        "        json.dump({**raw, 't_end': 0.01}, f)\n"
        "assert cli.sweep(paths, sys.argv[1] + '/out', jobs=2) == 0\n"
        "print(_kernels._list_ops.cache_info().misses)\n"
    )
    src = os.path.dirname(os.path.dirname(_kernels.__file__))
    fresh = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    lines = fresh.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("0", "0")

    _kernels._list_ops.cache_clear()
    config = SimConfig("momentum", body, SYSTEMS[0], [0.05, 0.1, -0.08], 5e-3, 0.05)
    first, second = integrate(config), integrate(config)
    assert first.states.tobytes() == second.states.tobytes()
    info = _kernels._list_ops.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


@pytest.mark.parametrize(
    "integrator, compiled, other",
    [
        ("midpoint", ["midpoint", "tail"], ["step"]),
        ("rk4", ["step", "tail"], ["midpoint"]),
    ],
)
def test_a_run_compiles_only_the_functions_of_its_integrator_once(monkeypatch, body, integrator, compiled, other):
    """At a run's first use of N the list layout compiles only what the run's
    integrator calls: a midpoint run no ``step``, an RK4 run no ``midpoint``.
    A second run of that N compiles nothing, and a
    run under the other integrator only the functions it adds."""
    seen = []

    def spied(*args):
        code = compile(*args)
        seen.extend(const.co_name for const in code.co_consts if inspect.iscode(const))
        return code

    monkeypatch.setattr(_kernels, "compile", spied, raising=False)
    _kernels._list_ops.cache_clear()
    angles = np.arange(4) * np.pi / 2 + 0.3
    vortices = VortexSet([1.0, -0.8, 0.6, -1.2], 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1))
    config = SimConfig("momentum", body, vortices, [0.05, 0.1, -0.08], 5e-3, 0.05, integrator)
    first = integrate(config)
    assert sorted(seen) == compiled
    seen.clear()
    assert integrate(config).states.tobytes() == first.states.tobytes()
    assert seen == []
    integrate(replace(config, integrator="rk4" if integrator == "midpoint" else "midpoint"))
    assert sorted(seen) == other
    assert _kernels._list_ops.cache_info().currsize == 1


@pytest.mark.parametrize("chart", ["momentum", "velocity"])
@pytest.mark.parametrize("n", [8, 12, 32])
def test_array_step_takes_the_handed_body_velocity(monkeypatch, body, n, chart):
    """The array layout's RK4 step takes the (Omega, V) that the last tail handed
    back: a momentum-chart run evaluates it once at the start, then 4 times per
    step (stages 2-4 and the tail), and the run has the bits of
    ``_reference_run``, whose first stage evaluates it again."""
    calls = []
    omv = _kernels._omv_array

    def counted(*args):
        calls.append(1)
        return omv(*args)

    monkeypatch.setattr(_kernels, "_omv_array", counted)
    i = np.arange(n)
    angles = 2.0 * np.pi * i / n + 0.3
    radii = 2.5 + 0.4 * (i % 3)
    vortices = VortexSet((1.0 + 0.1 * i) * (-1.0) ** i, radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], 1))
    cfg = SimConfig(chart, body, vortices, [0.05, 0.1, -0.08], 5e-3, 0.1, "rk4", 7)
    assert _kernels.run(cfg)[3] is None
    assert len(calls) == (1 + 4 * cfg.nsteps if chart == "momentum" else 0)
    traj = _pinned_integrate(monkeypatch, cfg)
    assert traj.halt is None and traj.n_samples == 4


def _reference_run(cfg):
    """``_kernels.run(cfg)`` as an ndarray loop: the state is an array throughout
    and the stages and the midpoint start are array expressions. From
    PAIR_ARRAY_MIN up the array is the flat float state and the kernels are
    the array forms. Below, it is an object array of the Python scalars that
    ``run`` holds in a list (the body's Omega or A as a float, its V or L and N
    positions as complex numbers), so the same expressions do the same Python
    arithmetic, and the kernels are the scalar loops, ``_loop_rhs`` for the code
    ``run`` writes out. Evaluations and midpoint iterations are counted as each
    evaluation starts. A start inside a clearance halts at step 0 before any
    evaluation."""
    body, n = cfg.body, cfg.vortices.n
    momentum, dt, nsteps = cfg.chart == "momentum", float(cfg.dt), cfg.nsteps
    args = (body.radius**2, body.c, body.inertia, cfg.vortices.total_strength)
    limits = (n, (body.radius + cfg.clearance) ** 2, cfg.clearance**2)
    z0, g = np.concatenate([cfg.body_state, cfg.vortices.positions.reshape(-1)]), cfg.vortices.strengths
    loops = n < _kernels.PAIR_ARRAY_MIN
    if loops:
        collision, body_velocity = _loop_collision, _loop_body_velocity
        z = np.array([float(z0[0]), *(complex(x, y) for x, y in z0[1:].reshape(-1, 2).tolist())], dtype=object)
        g = g.tolist()

        def f(u, stage=1):
            return np.array(_loop_rhs(momentum, u, g, *args, stage), dtype=object)

    else:
        collision, body_velocity = _kernels._collision_array, _kernels._body_velocity_array
        z = z0.copy()

        def f(u, stage=1):
            return _kernels._rhs_array(momentum, u, g, *args, stage)

    def flat(z):
        if not loops:
            return z
        return np.array([z[0], *(part for p in z[1:] for part in (p.real, p.imag))], dtype=np.float64)

    def finite(z):
        return all(cmath.isfinite(v) for v in z.tolist())

    def increment(u, v):
        return max(max(abs(d.real), abs(d.imag)) for d in (u - v).tolist())

    pose = tuple(cfg.pose.tolist())
    states, poses, steps = [flat(z)], [pose], [0]
    carry = (pose[0], 0.0, pose[1], 0.0, pose[2], 0.0)
    hit = collision(z, *limits)
    halt = (None, -1, nsteps) if hit[0] is None else (*hit, 0)
    slopes, n_evals, max_iters = [], 0, 0
    v0 = body_velocity(momentum, z, g, *args[:3])
    for step in range(halt[2]):
        converged = True
        try:
            if cfg.integrator == "rk4":
                n_evals += 1
                k1 = f(z)
                n_evals += 1
                k2 = f(z + 0.5 * dt * k1, 2)
                n_evals += 1
                k3 = f(z + 0.5 * dt * k2, 3)
                n_evals += 1
                k4 = f(z + dt * k3, 4)
                z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            else:
                # z + h k1, z + h (2 k1 - k2), then z + h (3 k1 - 3 k2 + k3), with the
                # differences formed as in the list layout's extrapolated start
                umid = z
                if len(slopes) == 1:
                    umid = z + 0.5 * dt * slopes[0]
                elif len(slopes) == 2:
                    umid = z + 0.5 * dt * (slopes[0] + 1.0 * (slopes[0] + -1.0 * slopes[1]))
                elif len(slopes) == 3:
                    umid = z + 0.5 * dt * (slopes[2] + 3.0 * (slopes[0] + -1.0 * slopes[1]))
                converged = False
                for iters in range(1, _kernels.MIDPOINT_MAX_ITER + 1):
                    n_evals += 1
                    max_iters = max(max_iters, iters)
                    k = f(umid, iters)
                    unew = z + 0.5 * dt * k
                    if not finite(unew):
                        break
                    delta = increment(unew, umid)
                    umid = unew
                    if delta <= _kernels.MIDPOINT_TOL:
                        converged = True
                        break
                if converged:
                    z = 2.0 * umid - z
                    slopes = [k, *slopes[:2]]
        except _kernels._OutsideDomain as outside:
            assert outside.stage == (n_evals - 4 * step if cfg.integrator == "rk4" else iters)
            halt = (_kernels.HALT_DOMAIN, outside.index, step)
        else:
            if not converged:
                halt = (_kernels.HALT_NO_CONVERGENCE, -1, step)
            elif not finite(z):
                halt = (_kernels.HALT_NONFINITE, -1, step)
            elif (hit := collision(z, *limits))[0] is not None:
                halt = (*hit, step)
        if halt[0] is not None:
            break
        v1 = body_velocity(momentum, z, g, *args[:3])
        (om0, w0), (om1, w1) = v0, v1
        carry = _kernels._pose_step(*carry, 0.5 * (om0 + om1), 0.5 * (w0.real + w1.real), 0.5 * (w0.imag + w1.imag), dt)
        if not all(map(math.isfinite, carry[::2])):
            halt = (_kernels.HALT_NONFINITE, -1, step)
            break
        v0 = v1
        if (step + 1) % cfg.stride == 0 or step + 1 == nsteps:
            states.append(flat(z))
            poses.append(carry[::2])
            steps.append(step + 1)
    return (
        np.array(states), np.array(poses, dtype=np.float64), np.array(steps, dtype=np.int64), *halt, n_evals, max_iters
    )


def _pinned_integrate(monkeypatch, cfg):
    """``integrate(cfg)``, checking that ``_kernels.run`` gives bit for bit what
    ``_reference_run`` gives on the config ``integrate`` passes it."""
    run = _kernels.run

    def checked(config):
        got, want = run(config), _reference_run(config)
        for a, b in zip(got[:3], want[:3]):
            npt.assert_array_equal(a, b, strict=True)
            assert a.tobytes() == b.tobytes()
        assert got[3:] == want[3:]
        return got

    monkeypatch.setattr(_kernels, "run", checked)
    return integrate(cfg)


@pytest.mark.parametrize("integrator", ["rk4", "midpoint"])
@pytest.mark.parametrize("chart", ["momentum", "velocity"])
@pytest.mark.parametrize("n", range(_kernels.PAIR_ARRAY_MIN + 1))
def test_run_matches_array_reference_bitwise(monkeypatch, body, n, chart, integrator):
    i = np.arange(n)
    angles = 2.0 * np.pi * i / n + 0.3
    radii = 2.5 + 0.4 * (i % 3)
    cfg = SimConfig(
        chart=chart,
        body=body,
        vortices=VortexSet((1.0 + 0.1 * i) * (-1.0) ** i, radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], 1)),
        body_state=[0.05, 0.1, -0.08],
        dt=5e-3,
        t_end=0.2,
        integrator=integrator,
        stride=7,
        pose=[0.3, -1.0, 2.0],
    )
    traj = _pinned_integrate(monkeypatch, cfg)
    assert traj.halt is None and traj.n_samples == 7


# an 8-vortex ring (the array layout) whose vortex 3 sits at 1.02 R with strength 6
_RING_EXIT = 2.5 * np.stack([np.cos(np.arange(8) * np.pi / 4), np.sin(np.arange(8) * np.pi / 4)], axis=1)
_RING_EXIT[3] *= 1.02 / 2.5
# one run of each halt kind, RK4 stage exits and midpoint iteration exits on both
# layouts, and a body-only overflow and pose overflow (no vortices):
# (reason, chart, integrator, strengths, positions, body state, dt, t_end, clearance)
HALTS = {
    "domain": ("stage left the fluid domain", "velocity", "midpoint", [6.0], [[1.02, 0.0]], [0, 0, 0], 0.05, 0.5, None),
    # a vortex of strength -20 beside a unit vortex at 1.1 R: step 1 leaves the domain
    "domain-step-1": (
        "stage left the fluid domain", "momentum", "midpoint", [1.0, -20.0], [[1.1, 0.0], [1.1, 0.2]], [0, 0, 0],
        8e-3, 0.16, 1e-12,
    ),
    "domain-rk4": ("stage left the fluid domain", "velocity", "rk4", [6.0], [[1.02, 0.0]], [0, 0, 0], 0.05, 0.5, None),
    "domain-arrays": (
        "stage left the fluid domain", "momentum", "rk4", [1.0, 1.0, 1.0, 6.0, 1.0, 1.0, 1.0, 1.0], _RING_EXIT,
        [0, 0, 0], 0.05, 0.5, None,
    ),
    "domain-arrays-midpoint": (
        "stage left the fluid domain", "momentum", "midpoint", [1.0, 1.0, 1.0, 6.0, 1.0, 1.0, 1.0, 1.0], _RING_EXIT,
        [0, 0, 0], 0.05, 0.5, None,
    ),
    "body": (
        "vortex reached the body clearance", "momentum", "rk4", [2.0, -2.0], [[2.5, 0.35], [2.5, -0.35]], [0, 0, 0],
        4e-3, 30.0, 0.4,
    ),
    "pair": (
        "two vortices closer than the clearance", "velocity", "rk4", [1.0, 1.0], [[2.5, 0.0], [2.75, 0.0]], [0, 0, 0],
        1e-3, 1.0, 0.3,
    ),
    "nonfinite": ("state became non-finite", "velocity", "rk4", [4.0, 4.0], [[2.5, 0.0], [2.75, 0.0]], [0, 0, 0], 1.0, 5.0, None),
    "nonfinite-body": ("state became non-finite", "momentum", "rk4", [], np.zeros((0, 2)), [1, 0, 1], 1e300, 1e301, None),
    # Omega = 1e154 stays finite, and so does the energy A^2 / 2I at t = 0; the pose angle Omega dt does not
    "nonfinite-pose": (
        "state became non-finite", "momentum", "rk4", [], np.zeros((0, 2)), [1e154, 0, 0], 1e155, 1e155, None
    ),
    "no-convergence": (
        "implicit midpoint iteration did not converge", "momentum", "midpoint", [4.0, 4.0], [[2.5, 0.0], [2.75, 0.0]],
        [0, 0, 0], 1.0, 5.0, None,
    ),
    # A = 1.5e4 spins the body so fast that the fixed-point map neither converges nor diverges
    "no-convergence-in-50": (
        "implicit midpoint iteration did not converge", "momentum", "midpoint", [1.0, -0.7], [[3.0, 0.0], [0.0, 3.0]],
        [1.5e4, 0, 0], 1e-4, 1e-2, None,
    ),
}
# the vortex each RK4 stage exit halts on
RK4_STAGE_EXITS = {"domain-rk4": 0, "domain-arrays": 3}
# each midpoint halt's vortex, halted step, right-hand side evaluations and most
# iterations in one step: an exit counts the iterations up to the one that left,
# the third of step 0, or the 40th of step 1 after 30 in step 0; a run that does
# not converge, those up to a non-finite one, or all MIDPOINT_MAX_ITER
MIDPOINT_HALTS = {
    "domain": (0, 0, 3, 3),
    "domain-step-1": (0, 1, 70, 40),
    "domain-arrays-midpoint": (3, 0, 3, 3),
    "no-convergence": (-1, 0, 6, 6),
    "no-convergence-in-50": (-1, 0, 50, 50),
}


# RK4 runs that leave the fluid domain at each stage, on both layouts and in both
# charts (clearance 1e-12). On the list layout a vortex of strength -50 (or 20, 50)
# beside a unit vortex at 1.01 R or 1.02 R drives it into the body; on the array
# layout the body moves at the given speed toward vortex 3 of an 8-vortex ring, at
# 1.01 R (the halt names the first vortex found inside). A stage-1 exit needs a step
# that ends within R (1 + MIN_CLEARANCE) but outside the clearance: its strength or
# speed is where a bisection put the end of step 0 in that band.
# (layout, chart, strength or body speed, dt) -> (vortex index, halted step, stage)
_STAGE_RING = 2.5 * np.stack([np.cos(np.arange(8) * np.pi / 4), np.sin(np.arange(8) * np.pi / 4)], axis=1)
_STAGE_RING[3] *= 1.01 / 2.5
_TOWARD_3 = _STAGE_RING[3] / np.linalg.norm(_STAGE_RING[3])
RK4_STAGES = {
    ("lists", "momentum", -46.94194802767983, 0.001467799267622069): (0, 1, 1),
    ("lists", "momentum", -50.0, 0.0021544346900318843): (1, 1, 2),
    ("lists", "momentum", -50.0, 0.003831186849557285): (1, 0, 3),
    ("lists", "momentum", -50.0, 0.0026101572156825357): (0, 0, 4),
    ("lists", "velocity", -49.62225814204811, 0.001467799267622069): (0, 1, 1),
    ("lists", "velocity", 50.0, 0.01778279410038923): (0, 0, 2),
    ("lists", "velocity", -50.0, 0.003831186849557285): (0, 0, 3),
    ("lists", "velocity", 20.0, 0.06812920690579612): (0, 0, 4),
    ("arrays", "momentum", 77.47715931367532, 0.03217891350952208): (7, 1, 1),
    ("arrays", "momentum", 20.0, 0.2): (7, 0, 2),
    ("arrays", "momentum", 200.0, 0.04637277659690335): (7, 0, 3),
    ("arrays", "momentum", 20.0, 0.13878363932890272): (6, 0, 4),
    ("arrays", "velocity", 77.32644721341003, 0.03217891350952208): (7, 1, 1),
    ("arrays", "velocity", 20.0, 0.2): (7, 0, 2),
    ("arrays", "velocity", 200.0, 0.04637277659690335): (7, 0, 3),
    ("arrays", "velocity", 20.0, 0.13878363932890272): (6, 0, 4),
}


@pytest.mark.parametrize("case", RK4_STAGES, ids=lambda case: "-".join(map(str, case[:2])) + f"-{RK4_STAGES[case][2]}")
def test_an_exit_at_each_rk4_stage_counts_the_stages_it_evaluated(monkeypatch, body, case):
    layout, chart, push, dt = case
    index, step, stage = RK4_STAGES[case]
    if layout == "lists":
        near = 1.02 if push > 0 else 1.01
        vortices = VortexSet([1.0, push], [[near, 0.0], [near, 0.2]])
        body_state = [0.0, 0.0, 0.0]
    else:
        vortices = VortexSet([1.0, -1.0] * 4, _STAGE_RING)
        velocity = [0.0, *(push * _TOWARD_3)]
        state = ChartState("velocity", velocity, _STAGE_RING)
        body_state = shift_map(state, vortices.strengths, body).body if chart == "momentum" else velocity
    cfg = SimConfig(chart, body, vortices, body_state, dt, 3 * dt, "rk4", 1, 1e-12)
    traj = _pinned_integrate(monkeypatch, cfg)
    assert traj.halt == HaltInfo(_kernels.HALT_DOMAIN, index, step * dt)
    assert traj.rhs_evals == 4 * step + stage


@pytest.mark.parametrize("case", HALTS)
def test_run_matches_array_reference_bitwise_on_halts(monkeypatch, body, case):
    reason, chart, integrator, strengths, positions, body_state, dt, t_end, clearance = HALTS[case]
    cfg = SimConfig(chart, body, VortexSet(strengths, positions), body_state, dt, t_end, integrator, 10, clearance)
    traj = _pinned_integrate(monkeypatch, cfg)
    assert traj.halt is not None and traj.halt.reason == reason
    if case in RK4_STAGE_EXITS:
        # the third stage of step 0 leaves the domain, and its evaluation counts
        assert traj.halt == HaltInfo(reason, RK4_STAGE_EXITS[case], 0.0) and traj.rhs_evals == 3
    if case in MIDPOINT_HALTS:
        index, step, evals, iters = MIDPOINT_HALTS[case]
        assert traj.halt == HaltInfo(reason, index, step * dt)
        assert (traj.rhs_evals, traj.max_midpoint_iterations) == (evals, iters)


# configs that start inside the default clearance (1e-3): a unit pair 1e-4 apart,
# and a vortex 5e-4 R from the body, on the list layout (N = 2) and the array
# layout (an 8-vortex ring of radius 2.5):
# (reason, positions, the vortex the halt names)
_RING_START = 2.5 * np.stack([np.cos(np.arange(8) * np.pi / 4), np.sin(np.arange(8) * np.pi / 4)], axis=1)
_RING_PAIR, _RING_BODY = _RING_START.copy(), _RING_START.copy()
_RING_PAIR[5] = _RING_PAIR[4] + [0.0, 1e-4]
_RING_BODY[6] *= 1.0005 / 2.5
STARTS_INSIDE = {
    "pair": (_kernels.HALT_PAIR, [[3.0, 0.0], [3.0, 1e-4]], 0),
    "body": (_kernels.HALT_BODY, [[3.0, 0.0], [1.0005, 0.0]], 1),
    "pair-arrays": (_kernels.HALT_PAIR, _RING_PAIR, 4),
    "body-arrays": (_kernels.HALT_BODY, _RING_BODY, 6),
}


@pytest.mark.parametrize("integrator", ["rk4", "midpoint"])
@pytest.mark.parametrize("chart", ["momentum", "velocity"])
@pytest.mark.parametrize("case", STARTS_INSIDE)
def test_start_inside_a_clearance_halts_at_step_0_before_any_evaluation(monkeypatch, body, case, chart, integrator):
    reason, positions, index = STARTS_INSIDE[case]
    vortices = VortexSet(np.ones(len(positions)), positions)
    cfg = SimConfig(chart, body, vortices, [0.05, 0.1, -0.08], 5e-3, 0.5, integrator, 10)
    traj = _pinned_integrate(monkeypatch, cfg)
    assert traj.halt == HaltInfo(reason, index, 0.0)
    assert traj.rhs_evals == 0 and traj.max_midpoint_iterations == 0 and traj.n_samples == 1


# a unit pair 1e-175 apart beside a body of radius 1e-150, where the list layout's pair
# divisor (p_k* - p_j*)(p_k* - R^2/p_j) underflows to exactly 0; padded with six more
# vortices it runs on the array layout, whose 1 / 0 gives inf
_UNDERFLOW_PAIR = [[3e-150, 0.0], [3e-150, 1e-175]]
_UNDERFLOW_PAD = [
    [0.0, 5e-150], [0.0, -5e-150], [-5e-150, 0.0], [7e-150, 7e-150],
    [-7e-150, 7e-150], [7e-150, -7e-150],
]


@pytest.mark.parametrize("integrator", ["rk4", "midpoint"])
def test_an_underflowing_divisor_halts_alike_on_both_layouts(integrator):
    """The drive loop on such a state; its energy at t = 0 is not finite, so
    ``integrate`` rejects it before the loop."""
    body = BodyParams(mass=1.0, inertia=1.0, radius=1e-150)
    halts = []
    for positions in (_UNDERFLOW_PAIR, _UNDERFLOW_PAIR + _UNDERFLOW_PAD):
        vortices = VortexSet(np.ones(len(positions)), positions)
        config = SimConfig("velocity", body, vortices, [0.0, 0.0, 0.0], 1e-3, 1e-3, integrator, 1, 1e-300)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as in ``integrate``
            states, _, _, *halt, _, _ = _kernels.run(config)
        assert len(states) == 1
        halts.append(tuple(halt))
        with pytest.raises(ValidationError, match="^energy at t = 0 is "):
            integrate(config)
    assert _kernels._ops(len(_UNDERFLOW_PAIR)) is _kernels._list_ops(2) and _kernels._ops(8) is _kernels._ARRAYS
    reason = _kernels.HALT_NONFINITE if integrator == "rk4" else _kernels.HALT_NO_CONVERGENCE
    assert halts == [(reason, -1, 0)] * 2


def test_an_overflowing_pose_angle_halts_as_non_finite():
    # Omega = A / I = 1e154 and the energy A Omega / 2 = 5e307 at t = 0 are finite, Omega dt = 1e309 is not
    body = BodyParams(mass=1.0, inertia=1.0, radius=1.0)
    traj = integrate(SimConfig("momentum", body, VortexSet([], np.zeros((0, 2))), [1e154, 0.0, 0.0], 1e155, 1e155))
    assert traj.halt == HaltInfo(_kernels.HALT_NONFINITE, -1, 0.0) and traj.n_samples == 1
