import re

import numpy as np
import numpy.testing as npt
import pytest

from conftest import momentum_triples, random_state, random_vortices
from vortexcyl import (
    ChartState,
    ValidationError,
    VortexSet,
    cocycle_sigma,
    fd_jacobian,
    hamiltonian,
    hamiltonian_gradient,
    inverse_shift_map,
    magnetic_pairing,
    magnetic_potential,
    momentum_map,
    momentum_structure_matrix,
    pushforward_check,
    rhs,
    shift_jacobian,
    shift_map,
    velocity_structure_matrix,
)
from vortexcyl.energetics import shift_term_jacobian
from vortexcyl.state import canonical_chart

EMPTY = VortexSet([], np.zeros((0, 2)))


def test_magnetic_potential_empty(body):
    npt.assert_array_equal(magnetic_potential(EMPTY.positions, EMPTY.strengths, body.radius), [0.0, 0.0, 0.0])


def test_magnetic_potential_single_vortex(body):
    gamma, d = 1.7, 2.4
    phi = magnetic_potential([[d, 0.0]], [gamma], body.radius)
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


# each public function that takes a chart state, handed a state of the other chart
_WRONG_CHART = {
    "rhs": lambda m, v, g, body: rhs("momentum", v, body, g),
    "hamiltonian": lambda m, v, g, body: hamiltonian("momentum", v, body, g),
    "hamiltonian_gradient": lambda m, v, g, body: hamiltonian_gradient("momentum", v, body, g),
    "momentum_structure_matrix": lambda m, v, g, body: momentum_structure_matrix(v, g),
    "velocity_structure_matrix": lambda m, v, g, body: velocity_structure_matrix(m, g, body),
    "shift_map": lambda m, v, g, body: shift_map(m, g, body),
    "inverse_shift_map": lambda m, v, g, body: inverse_shift_map(v, g, body),
    "pushforward_check": lambda m, v, g, body: pushforward_check(m, body, g),
}


@pytest.mark.parametrize("function", sorted(_WRONG_CHART))
def test_a_state_of_the_other_chart_raises_validation_error(body, rng, function):
    v, g = random_state(rng, "velocity")
    m = ChartState("momentum", v.body, v.positions)
    with pytest.raises(ValidationError, match="chart"):
        _WRONG_CHART[function](m, v, g, body)


# states that hamiltonian rejects: a vortex inside the unit body, and two
# coincident vortices inside it, as (chart, positions, strengths)
_INADMISSIBLE = {
    "shift_map": ("velocity", [[0.5, 0.0]], [1.0]),
    "inverse_shift_map": ("momentum", [[0.5, 0.0], [0.5, 0.0]], [1.0, 1.0]),
}


@pytest.mark.parametrize("function", sorted(_INADMISSIBLE))
def test_shift_maps_reject_what_hamiltonian_rejects(body, function):
    chart, positions, strengths = _INADMISSIBLE[function]
    state = ChartState(chart, [0.0, 0.0, 0.0], positions)
    with pytest.raises(ValidationError) as rejected:
        hamiltonian(chart, state, body, strengths)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(rejected.value))}$"):
        {"shift_map": shift_map, "inverse_shift_map": inverse_shift_map}[function](state, strengths, body)


@pytest.mark.parametrize("make", [canonical_chart, ChartState])
def test_an_unknown_chart_raises_validation_error(make):
    with pytest.raises(ValidationError, match="^unknown chart 'foo'"):
        make("foo")


@pytest.mark.parametrize("flat", [np.float64(1.0), np.zeros(2), np.zeros(4), np.zeros((2, 6))])
def test_a_flat_state_of_the_wrong_length_raises_validation_error(flat):
    with pytest.raises(ValidationError, match=r"^flat state must have length 3 \+ 2N$"):
        ChartState.from_flat("momentum", flat)


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


def test_momentum_map_no_vortices():
    # Gamma_total = 0: the body's momentum turned into the inertial frame, with its moment about the origin
    j = momentum_map([np.pi / 2, 2.0, -1.0], [0.5, 1.0, 0.0], 0.0)
    npt.assert_allclose(j, [0.5 + 2.0 * 1.0, 0.0, 1.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("chart", ["momentum", "velocity"])
def test_momentum_map_is_conserved_along_trajectories(turning_runs, chart):
    traj = turning_runs[chart]
    momentum = momentum_triples(traj)
    gamma = traj.config.vortices.total_strength
    j = momentum_map(traj.poses, momentum, gamma)
    assert j.shape == (traj.n_samples, 3)
    # second order in dt: the pose reconstruction's error, not the state's
    assert np.max(np.abs(j - j[0])) <= 1e-4
    assert (momentum_map(np.zeros(3), momentum, gamma) == momentum).all()
    # the leaf |J_xy|^2 - 2 Gamma J_omega is the Casimir that integrate records
    npt.assert_allclose(j[:, 1] ** 2 + j[:, 2] ** 2 - 2.0 * gamma * j[:, 0], traj.casimir, rtol=1e-12)


def test_magnetic_pairing_translations(body, rng):
    vs = random_vortices(rng, 3)
    assert abs(magnetic_pairing(vs.positions, vs.strengths, body.radius)[1, 2] + vs.total_strength) < 1e-14


def test_magnetic_pairing_empty(body):
    npt.assert_array_equal(magnetic_pairing(EMPTY.positions, EMPTY.strengths, body.radius), np.zeros((3, 3)))


def test_magnetic_pairing_antisymmetry(body, rng):
    vs = random_vortices(rng, 2)
    pairing = magnetic_pairing(vs.positions, vs.strengths, body.radius)
    npt.assert_array_equal(pairing.T, -pairing)


def test_cocycle_components(body, rng):
    for _ in range(20):
        vs = random_vortices(rng, rng.integers(1, 4))
        sigma = cocycle_sigma(vs.positions, vs.strengths, body.radius)
        assert abs(sigma[1, 2] + vs.total_strength) <= 1e-12
        assert abs(sigma[0, 1]) <= 1e-10
        assert abs(sigma[0, 2]) <= 1e-10


def test_cocycle_vanishes_for_zero_total_strength(body):
    vs = VortexSet([1.0, -1.0], [[2.0, 0.3], [-1.9, 1.0]])
    sigma = cocycle_sigma(vs.positions, vs.strengths, body.radius)
    assert abs(sigma[1, 2]) <= 1e-12
    assert abs(sigma[0, 1]) <= 1e-10
    assert abs(sigma[0, 2]) <= 1e-10
