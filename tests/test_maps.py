import numpy as np
import numpy.testing as npt

from conftest import random_state, random_vortices
from vortexcyl import (
    ChartState,
    VortexSet,
    cocycle_sigma,
    fd_jacobian,
    inverse_shift_map,
    magnetic_pairing,
    magnetic_potential,
    momentum_map,
    momentum_structure_matrix,
    shift_jacobian,
    shift_map,
    velocity_structure_matrix,
)
from vortexcyl.energetics import shift_term_jacobian

EMPTY = VortexSet([], np.zeros((0, 2)))


def test_magnetic_potential_empty(body):
    npt.assert_array_equal(magnetic_potential(EMPTY, body.radius), [0.0, 0.0, 0.0])


def test_magnetic_potential_single_vortex(body):
    gamma, d = 1.7, 2.4
    phi = magnetic_potential(VortexSet([gamma], [[d, 0.0]]), body.radius)
    assert abs(phi[0] - gamma * d**2 / 2) < 1e-14
    assert abs(phi[2] - gamma * (d - 1.0 / d)) < 1e-14
    assert abs(phi[1]) < 1e-14


def test_shift_map_no_vortices(body):
    st = ChartState("velocity", [0.4, 1.0, -0.5], np.zeros((0, 2)))
    z = shift_map(st, np.zeros(0), body)
    npt.assert_allclose(z.body, [0.4, 2 * np.pi, -np.pi], atol=1e-14)


def test_shift_map_reference_value(body):
    st = ChartState("velocity", [0.0, 1.0, 0.0], [[2.0, 0.0]])
    z = shift_map(st, np.array([1.0]), body)
    npt.assert_allclose(z.body, [-2.0, 2 * np.pi, -1.5], atol=1e-14)


def test_shift_identity_on_vortices(body, rng):
    st, g = random_state(rng, "velocity", n=3)
    z = shift_map(st, g, body)
    npt.assert_array_equal(z.positions, st.positions)


def test_shift_roundtrip(body, rng):
    for _ in range(50):
        st, g = random_state(rng, "velocity")
        back = inverse_shift_map(shift_map(st, g, body), g, body)
        npt.assert_allclose(back.flat(), st.flat(), atol=1e-13)


def test_shift_jacobian_vs_fd(body, rng):
    st, g = random_state(rng, "momentum")

    def forward(z):
        return inverse_shift_map(ChartState.from_flat("momentum", z), g, body).flat()

    analytic = shift_jacobian(st.positions, g, body)
    numeric = fd_jacobian(forward, st.flat(), h=1e-6, order=4)
    npt.assert_allclose(analytic, numeric, atol=1e-8)
    # the shift map's own Jacobian, D(Omega, V, X) -> (A, L, X), in closed form
    inv = np.eye(st.dim)
    inv[0, 0], inv[1, 1], inv[2, 2] = body.inertia, body.c, body.c
    inv[0, 3:] = -(g[:, None] * st.positions).reshape(-1)
    inv[1:3, 3:] = -shift_term_jacobian(st.positions, g, body.radius)
    npt.assert_allclose(analytic @ inv, np.eye(st.dim), atol=1e-12)


def test_pushforward_identity_full_matrix(body, rng):
    worst = 0.0
    for _ in range(50):
        z, g = random_state(rng, "momentum")
        w = inverse_shift_map(z, g, body)
        ds = shift_jacobian(z.positions, g, body)
        pushed = ds @ momentum_structure_matrix(z, g) @ ds.T
        target = velocity_structure_matrix(w, g, body)
        worst = max(worst, float(np.max(np.abs(pushed - target))))
    assert worst <= 1e-9


def test_momentum_map_identity_pose(body, rng):
    vs = random_vortices(rng, 2)
    pi = np.array([0.7, 1.0, -2.0])
    j = momentum_map(np.zeros(3), pi, vs, body.radius)
    npt.assert_allclose(j, pi - magnetic_potential(vs, body.radius), rtol=0, atol=1e-14)


def test_momentum_map_no_vortices(body):
    pi = np.array([-1.2, 0.3, 0.4])
    npt.assert_array_equal(momentum_map(np.zeros(3), pi, EMPTY, body.radius), pi)


def test_momentum_map_two_path_agreement(body, rng):
    for _ in range(100):
        vs = random_vortices(rng, 2)
        pose = np.array([rng.uniform(-3, 3), *rng.normal(size=2)])
        pi = np.array([rng.normal(), *rng.normal(size=2)])
        ja = momentum_map(pose, pi, vs, body.radius, via="body")
        jb = momentum_map(pose, pi, vs, body.radius, via="spatial")
        npt.assert_allclose(ja, jb, atol=1e-12)


def test_magnetic_pairing_translations(body, rng):
    vs = random_vortices(rng, 3)
    assert abs(magnetic_pairing(vs, body.radius)[1, 2] + vs.total_strength) < 1e-14


def test_magnetic_pairing_empty(body):
    npt.assert_array_equal(magnetic_pairing(EMPTY, body.radius), np.zeros((3, 3)))


def test_magnetic_pairing_antisymmetry(body, rng):
    pairing = magnetic_pairing(random_vortices(rng, 2), body.radius)
    npt.assert_array_equal(pairing.T, -pairing)


def test_cocycle_components(body, rng):
    for _ in range(20):
        vs = random_vortices(rng, rng.integers(1, 4))
        sigma = cocycle_sigma(vs, body.radius)
        assert abs(sigma[1, 2] + vs.total_strength) <= 1e-12
        assert abs(sigma[0, 1]) <= 1e-10
        assert abs(sigma[0, 2]) <= 1e-10


def test_cocycle_vanishes_for_zero_total_strength(body):
    vs = VortexSet([1.0, -1.0], [[2.0, 0.3], [-1.9, 1.0]])
    sigma = cocycle_sigma(vs, body.radius)
    assert abs(sigma[1, 2]) <= 1e-12
    assert abs(sigma[0, 1]) <= 1e-10
    assert abs(sigma[0, 2]) <= 1e-10
