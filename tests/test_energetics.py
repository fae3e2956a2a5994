import numpy as np
import numpy.testing as npt

from conftest import random_state, random_vortices
from vortexcyl import (
    BodyParams,
    ChartState,
    fd_gradient,
    hamiltonian,
    hamiltonian_gradient,
    inverse_shift_map,
    kirchhoff_routh,
    shift_map,
)


def test_effective_mass_neutrally_buoyant():
    assert abs(BodyParams(mass=np.pi, inertia=1.0, radius=1.0).c - 2 * np.pi) < 1e-15


def test_effective_mass_inertia_passthrough():
    body = BodyParams(mass=2.0, inertia=3.0, radius=0.7)
    assert body.inertia == 3.0
    assert body.c == 2.0 + np.pi * 0.7**2


def test_momentum_chart_energy_no_vortices(body):
    st = ChartState("momentum", [0.5, 1.0, -2.0], np.zeros((0, 2)))
    expected = (1.0 + 4.0) / (2 * 2 * np.pi) + 0.25 / (2 * 1.0)
    assert abs(hamiltonian("momentum", st, body, np.zeros(0)) - expected) < 1e-14


def test_velocity_chart_energy_at_rest_is_minus_wg(body, rng):
    vs = random_vortices(rng, 3)
    st = ChartState("velocity", [0.0, 0.0, 0.0], vs.positions)
    h = hamiltonian("velocity", st, body, vs.strengths)
    wg = kirchhoff_routh(vs, body.radius)
    assert abs(h + wg) < 1e-14


def test_energy_agrees_across_shift(body, rng):
    worst = 0.0
    for _ in range(100):
        st, g = random_state(rng, "velocity")
        z = shift_map(st, g, body)
        ha = hamiltonian("momentum", z, body, g)
        hb = hamiltonian("velocity", st, body, g)
        worst = max(worst, abs(ha - hb) / max(1.0, abs(hb)))
    assert worst <= 1e-10


def test_gradient_matches_fd(body, rng):
    for chart in ("momentum", "velocity"):
        for _ in range(5):
            st, g = random_state(rng, chart)
            ga = hamiltonian_gradient(chart, st, body, g)
            z0 = st.flat()
            h = 1e-5 * (1.0 + float(np.max(np.abs(z0))))
            gf = fd_gradient(lambda z: hamiltonian(chart, ChartState.from_flat(chart, z), body, g), z0, h, 6)
            npt.assert_allclose(ga, gf, atol=1e-7)


def test_momentum_gradient_no_vortices(body):
    st = ChartState("momentum", [0.3, 1.0, -2.0], np.zeros((0, 2)))
    grad = hamiltonian_gradient("momentum", st, body, np.zeros(0))
    npt.assert_allclose(grad[1:3], st.body[1:] / (2 * np.pi), atol=1e-15)


def test_momentum_gradient_is_recovered_velocity(body, rng):
    for _ in range(20):
        st, g = random_state(rng, "momentum")
        grad = hamiltonian_gradient("momentum", st, body, g)
        w = inverse_shift_map(st, g, body)
        npt.assert_allclose(grad[1:3], w.body[1:], atol=1e-9)
        assert abs(grad[0] - w.body[0]) <= 1e-9


def _rotate_state(st, theta):
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    body = st.body.copy()
    body[1:] = rot @ body[1:]
    return st.replace(body=body, positions=st.positions @ rot.T)


def test_energy_rotation_invariance(body, rng):
    for chart in ("momentum", "velocity"):
        st, g = random_state(rng, chart)
        base = hamiltonian(chart, st, body, g)
        for theta in rng.uniform(0, 2 * np.pi, 5):
            rotated = hamiltonian(chart, _rotate_state(st, theta), body, g)
            assert abs(rotated - base) <= 1e-12
