"""Fused kernels and the drive loop against the structure-matrix route."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_state
from vortexcyl import BodyParams, ChartState, hamiltonian_gradient, rhs, structure_matrix
from vortexcyl import _kernels
from vortexcyl.dynamics import SimConfig, integrate
from vortexcyl.energetics import effective_mass
from vortexcyl.fluid import MIN_CLEARANCE, VortexSet

needs_numba = pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba not installed")

CHART_IDS = {"momentum": _kernels.CHART_MOMENTUM, "velocity": _kernels.CHART_VELOCITY}


def _kernel_rhs(chart, state, body, g):
    z = state.flat()
    out = np.empty_like(z)
    wg = np.empty((state.n, 2))
    args = (z, g, body.radius**2, effective_mass(body).c, body.inertia, float(g.sum()), wg, out)
    assert _kernels._rhs(CHART_IDS[chart], *args) == -1
    return out


def _matrix_rhs(chart, state, body, g):
    return structure_matrix(state, g, body) @ hamiltonian_gradient(chart, state, body, g)


def test_python_kernel_matches_matrix_route(body, rng):
    for chart in ("momentum", "velocity"):
        for _ in range(20):
            state, g = random_state(rng, chart)
            npt.assert_allclose(_kernel_rhs(chart, state, body, g), _matrix_rhs(chart, state, body, g), atol=1e-12)


@st.composite
def _kernel_cases(draw):
    """A chart, body and admissible state: N in 1..40, on both sides of
    PAIR_ARRAY_MIN, any radius, vortices hugging the body or far out, body
    variables up to 1e4."""
    chart = draw(st.sampled_from(["momentum", "velocity"]))
    unit = st.floats(-1.0, 1.0)
    radius = draw(st.floats(0.3, 3.0))
    body = BodyParams(mass=draw(st.floats(0.5, 20.0)), inertia=draw(st.floats(0.1, 10.0)), radius=radius)
    n = draw(st.integers(1, 40))
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
    return chart, body, ChartState(chart, body_vars, np.array(positions)), np.array(strengths)


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
    VortexSet(g, state.positions).validate(body.fluid)
    reference = _matrix_rhs(chart, state, body, g)
    # float64 rounding in either route grows with the magnitude of the terms
    # that cancel in the product, |structure| @ |grad H|, not with the result
    cancelling = np.abs(structure_matrix(state, g, body)) @ np.abs(hamiltonian_gradient(chart, state, body, g))
    atol = 1e-11 * max(1.0, float(np.max(cancelling)))
    npt.assert_allclose(_kernel_rhs(chart, state, body, g), reference, rtol=0, atol=atol)


@settings(max_examples=100, deadline=None)
@given(_kernel_cases())
def test_body_velocity_matches_loops(case):
    chart, body, state, g = case
    args = (CHART_IDS[chart], state.flat(), g, body.radius**2, effective_mass(body).c, body.inertia)
    loops = np.array(_kernels._body_velocity_loops(*args))
    # (A + sum g |X|^2 / 2) / I and (L -+ phi) / c sum terms as large as these
    d2 = np.sum(state.positions**2, axis=1)
    scale = max(
        (abs(state.body[0]) + np.abs(g) @ d2) / body.inertia,
        (np.abs(state.body[1:]).max() + np.abs(g) @ np.sqrt(d2)) / effective_mass(body).c,
    )
    npt.assert_allclose(_kernels._body_velocity(*args), loops, rtol=0, atol=1e-13 * scale)
    if chart == "velocity":
        npt.assert_array_equal(_kernels._body_velocity(*args), state.body)


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
        rest = (body.radius**2, effective_mass(body).c, body.inertia, float(g.sum()))
        loops, array = np.full(z.size, 7.0), np.full(z.size, 7.0)
        hit = _kernels._rhs_loops(CHART_IDS[chart], z, g, *rest, np.empty((n, 2)), loops)
        assert hit == min(inside)
        assert _kernels._rhs_array(CHART_IDS[chart], z, g, *rest, array) == hit
        assert (array == 7.0).all() and (loops == 7.0).all()


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
        loops = _kernels._collision_loops(z, n, body_limit2, pair_limit2)
        assert _kernels._collision_array(z, n, body_limit2, pair_limit2) == loops
        found[name] = loops
    assert found["none"] == (_kernels.HALT_NONE, -1)
    assert found["body"] == (_kernels.HALT_BODY, 3)
    assert found["pairs"] == (_kernels.HALT_PAIR, 1)


@needs_numba
def test_numba_kernel_matches_python_kernel(body, rng):
    for chart, fn in (("momentum", _kernels._rhs_momentum), ("velocity", _kernels._rhs_velocity)):
        for _ in range(10):
            state, g = random_state(rng, chart)
            args = (state.flat(), g, body.radius**2, effective_mass(body).c, body.inertia, float(g.sum()))
            compiled, python = np.empty(state.flat().size), np.empty(state.flat().size)
            fn(*args, np.empty((state.n, 2)), compiled)
            fn.py_func(*args, np.empty((state.n, 2)), python)
            npt.assert_array_equal(compiled, python)


@needs_numba
def test_run_loops_agree_bitwise(body):
    z0 = np.array([0.1, -0.2, 0.3, 2.0, 0.5, -1.8, 1.1])
    g = np.array([1.3, -0.7])
    for integ_id in (_kernels.RK4, _kernels.MIDPOINT):
        args = (
            _kernels.CHART_MOMENTUM,
            z0,
            g,
            1.0,
            effective_mass(body).c,
            body.inertia,
            float(g.sum()),
            1e-3,
            500,
            25,
            (1.0 + 1e-3) ** 2,
            1e-6,
            integ_id,
        )
        compiled = _kernels.run(*args)
        python = _kernels.run.py_func(*args)
        assert compiled[3:] == python[3:]
        for a, b in zip(compiled[:3], python[:3]):
            npt.assert_array_equal(a, b)


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
# N = 3 runs the pair scans as loops, N = 8 (>= PAIR_ARRAY_MIN) as arrays
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
