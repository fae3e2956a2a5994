"""Fused kernels and the drive loop against the structure-matrix route."""
import cmath
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_state
from vortexcyl import BodyParams, ChartState, hamiltonian_gradient, rhs, structure_matrix
from vortexcyl import _kernels
from vortexcyl.dynamics import HaltInfo, SimConfig, integrate
from vortexcyl.fluid import MIN_CLEARANCE, VortexSet


def _kernel_rhs(chart, state, body, g):
    """The right-hand side as ``run`` evaluates it at this size, in the flat layout."""
    ops = _kernels._ops(state.n)
    flat = np.empty(state.flat().size)
    args = (ops.strengths(g), body.radius**2, body.c, body.inertia, float(g.sum()))
    ops.store(flat, ops.rhs(chart == "momentum", ops.load(state.flat()), *args))
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
    """The scalar loops on the list layout and the array form on the flat layout
    agree, and ``run`` calls the one of its layout."""
    chart, body, state, g = case
    z, rest = state.flat(), (body.radius**2, body.c, body.inertia)
    momentum = chart == "momentum"
    loops = np.array(_kernels._body_velocity_scalar(momentum, _kernels._load_list(z), g.tolist(), *rest))
    array = np.array(_kernels._body_velocity_array(momentum, z, g, *rest))
    ops = _kernels._ops(state.n)
    dispatched = ops.body_velocity(momentum, ops.load(z), ops.strengths(g), *rest)
    npt.assert_array_equal(dispatched, loops if state.n < _kernels.PAIR_ARRAY_MIN else array)
    # (A + sum g |X|^2 / 2) / I and (L -+ phi) / c sum terms as large as these
    d2 = np.sum(state.positions**2, axis=1)
    scale = max(
        (abs(state.body[0]) + np.abs(g) @ d2) / body.inertia,
        (np.abs(state.body[1:]).max() + np.abs(g) @ np.sqrt(d2)) / body.c,
    )
    npt.assert_allclose(loops, array, rtol=0, atol=1e-13 * scale)
    if chart == "velocity":
        npt.assert_array_equal(loops, state.body)
        npt.assert_array_equal(array, state.body)


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
            _kernels._rhs_scalar(chart == "momentum", _kernels._load_list(z), g.tolist(), *rest)
        assert loops.value.index == min(inside)
        with pytest.raises(_kernels._OutsideDomain) as array:
            _kernels._rhs_array(chart == "momentum", z, g, *rest)
        assert array.value.index == min(inside)


_SMALL = st.integers(0, _kernels.PAIR_ARRAY_MIN - 1)


def _bits(values):
    """The bytes of a sequence of Python floats and complex numbers."""
    return np.array([complex(v) for v in values], dtype=np.complex128).tobytes()


@settings(max_examples=150, deadline=None)
@given(_kernel_cases(sizes=_SMALL))
def test_loops_on_lists_match_loops_on_arrays_bitwise(case):
    """Below PAIR_ARRAY_MIN ``run`` loads a list of three body floats and N
    complex positions. Its scalar loops give the same bits on an object ndarray
    of the same Python scalars, the layout ``_reference_run`` drives, and its
    clearance scan finds what the array scan finds on the flat layout."""
    chart, body, state, g = case
    z, n = state.flat(), state.n
    ops = _kernels._ops(n)
    assert ops is _kernels._LISTS
    loaded = ops.load(z)
    assert [type(v) for v in loaded] == [float] * 3 + [complex] * n
    flat = np.empty(z.size)
    ops.store(flat, loaded)
    assert flat.tobytes() == z.tobytes()

    momentum, rest = chart == "momentum", (body.radius**2, body.c, body.inertia, float(g.sum()))
    on_list = ops.rhs(momentum, loaded, ops.strengths(g), *rest)
    assert [type(v) for v in on_list] == [float] * 3 + [complex] * n
    on_objects = ops.rhs(momentum, np.array(loaded, dtype=object), g.tolist(), *rest)
    assert _bits(on_objects) == _bits(on_list)

    on_objects = ops.body_velocity(momentum, np.array(loaded, dtype=object), g.tolist(), *rest[:3])
    assert _bits(on_objects) == _bits(ops.body_velocity(momentum, loaded, g.tolist(), *rest[:3]))

    # limits between the closest and the farthest vortex hit every outcome
    d2 = np.sum(state.positions**2, axis=1)
    for body_limit2 in (0.0, float(np.median(d2)) if n else 1.0):
        for pair_limit2 in (0.0, 1.0, float(np.max(d2)) if n else 1.0):
            limits = (n, body_limit2, pair_limit2)
            on_flat = _kernels._collision_array(z, *limits) if n else (None, -1)
            assert ops.collision(loaded, *limits) == on_flat
            assert ops.collision(np.array(loaded, dtype=object), *limits) == on_flat


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
        ops.rhs(chart == "momentum", ops.load(z), ops.strengths(g), *rest)
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
        loops = _kernels._collision_scalar(_kernels._load_list(z), n, body_limit2, pair_limit2)
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


def _reference_run(cfg):
    """``_kernels.run(cfg)`` as an ndarray loop: the state is an array throughout
    and the stages and the midpoint start are array expressions. From
    PAIR_ARRAY_MIN up the array is the flat float state and the kernels are
    the array forms. Below, it is an object array of the Python scalars that
    ``run`` holds in a list (three body floats, N complex positions), so the
    same expressions do the same Python arithmetic, and the kernels are the
    scalar loops. Evaluations and midpoint iterations are counted as each
    evaluation starts. A start inside a clearance halts at step 0 before any
    evaluation."""
    body, n = cfg.body, cfg.vortices.n
    momentum, dt, nsteps = cfg.chart == "momentum", float(cfg.dt), cfg.nsteps
    args = (body.radius**2, body.c, body.inertia, cfg.vortices.total_strength)
    limits = (n, (body.radius + cfg.clearance) ** 2, cfg.clearance**2)
    z0, g = np.concatenate([cfg.body_state, cfg.vortices.positions.reshape(-1)]), cfg.vortices.strengths
    loops = n < _kernels.PAIR_ARRAY_MIN
    if loops:
        collision, body_velocity = _kernels._collision_scalar, _kernels._body_velocity_scalar
        z = np.array([*z0[:3].tolist(), *(complex(x, y) for x, y in z0[3:].reshape(-1, 2).tolist())], dtype=object)
        g = g.tolist()

        def f(u):
            return np.array(_kernels._rhs_scalar(momentum, u, g, *args), dtype=object)

    else:
        collision, body_velocity = _kernels._collision_array, _kernels._body_velocity_array
        z = z0.copy()

        def f(u):
            return _kernels._rhs_array(momentum, u, g, *args)

    def flat(z):
        if not loops:
            return z
        return np.array([*z[:3], *(part for p in z[3:] for part in (p.real, p.imag))], dtype=np.float64)

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
                k2 = f(z + 0.5 * dt * k1)
                n_evals += 1
                k3 = f(z + 0.5 * dt * k2)
                n_evals += 1
                k4 = f(z + dt * k3)
                z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            else:
                # z + h k1, z + h (2 k1 - k2), then z + h (3 k1 - 3 k2 + k3), with the
                # differences formed as in _kernels._predict
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
                    k = f(umid)
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
        carry = _kernels._pose_step(*carry, *(0.5 * (a + b) for a, b in zip(v0, v1)), dt)
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
# one run of each halt kind, RK4 stage exits on both layouts, and a body-only
# overflow and pose overflow (no vortices):
# (reason, chart, integrator, strengths, positions, body state, dt, t_end, clearance)
HALTS = {
    "domain": ("stage left the fluid domain", "velocity", "midpoint", [6.0], [[1.02, 0.0]], [0, 0, 0], 0.05, 0.5, None),
    "domain-rk4": ("stage left the fluid domain", "velocity", "rk4", [6.0], [[1.02, 0.0]], [0, 0, 0], 0.05, 0.5, None),
    "domain-arrays": (
        "stage left the fluid domain", "momentum", "rk4", [1.0, 1.0, 1.0, 6.0, 1.0, 1.0, 1.0, 1.0], _RING_EXIT,
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
    # Omega = 1e300 stays finite, the pose angle Omega dt does not
    "nonfinite-pose": ("state became non-finite", "momentum", "rk4", [], np.zeros((0, 2)), [1e300, 0, 0], 1e10, 1e10, None),
    "no-convergence": (
        "implicit midpoint iteration did not converge", "momentum", "midpoint", [4.0, 4.0], [[2.5, 0.0], [2.75, 0.0]],
        [0, 0, 0], 1.0, 5.0, None,
    ),
}
# the vortex each RK4 stage exit halts on
RK4_STAGE_EXITS = {"domain-rk4": 0, "domain-arrays": 3}


@pytest.mark.parametrize("case", HALTS)
def test_run_matches_array_reference_bitwise_on_halts(monkeypatch, body, case):
    reason, chart, integrator, strengths, positions, body_state, dt, t_end, clearance = HALTS[case]
    cfg = SimConfig(chart, body, VortexSet(strengths, positions), body_state, dt, t_end, integrator, 10, clearance)
    traj = _pinned_integrate(monkeypatch, cfg)
    assert traj.halt is not None and traj.halt.reason == reason
    if case in RK4_STAGE_EXITS:
        # the third stage of step 0 leaves the domain, and its evaluation counts
        assert traj.halt == HaltInfo(reason, RK4_STAGE_EXITS[case], 0.0) and traj.rhs_evals == 3


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
    body = BodyParams(mass=1.0, inertia=1.0, radius=1e-150)
    halts = []
    for positions in (_UNDERFLOW_PAIR, _UNDERFLOW_PAIR + _UNDERFLOW_PAD):
        vortices = VortexSet(np.ones(len(positions)), positions)
        config = SimConfig("velocity", body, vortices, [0.0, 0.0, 0.0], 1e-3, 1e-3, integrator, 1, 1e-300)
        traj = integrate(config)
        assert traj.n_samples == 1
        halts.append(traj.halt)
    assert _kernels._ops(len(_UNDERFLOW_PAIR)) is _kernels._LISTS and _kernels._ops(8) is _kernels._ARRAYS
    reason = _kernels.HALT_NONFINITE if integrator == "rk4" else _kernels.HALT_NO_CONVERGENCE
    assert halts == [HaltInfo(reason, -1, 0.0)] * 2


def test_an_overflowing_pose_angle_halts_as_non_finite():
    # Omega = A / I = 1e300 is finite, Omega dt = 1e310 is not
    body = BodyParams(mass=1.0, inertia=1e-200, radius=1.0)
    traj = integrate(SimConfig("momentum", body, VortexSet([], np.zeros((0, 2))), [1e100, 0.0, 0.0], 1e10, 1e10))
    assert traj.halt == HaltInfo(_kernels.HALT_NONFINITE, -1, 0.0) and traj.n_samples == 1
