"""Each batch-first core on a stack of states equals its public one-state
function applied state by state, compared with ``==``; and ``verify``'s
stacked rows equal the per-state row loops they replaced."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexcyl import _kernels, cli
from vortexcyl.dynamics import SimConfig, integrate
from vortexcyl.energetics import BodyParams, _body_velocity_stack, _energy_stack, hamiltonian
from vortexcyl.fluid import ValidationError, VortexSet, batch_kirchhoff_routh, kirchhoff_routh, validate_stack
from vortexcyl.maps import (
    _cocycle_stack,
    _pairing_stack,
    _shift_jacobian_stack,
    _shift_stack,
    cocycle_sigma,
    inverse_shift_map,
    magnetic_pairing,
    shift_jacobian,
    shift_map,
)
from vortexcyl.oracle import _combine_stack, _pushforward_stack, _stencil_stack, fd_combine, fd_stencil, pushforward_check
from vortexcyl.state import ChartState
from vortexcyl.structures import (
    _interaction_table_stack,
    _jacobi_stack,
    _momentum_matrix_stack,
    _velocity_matrix_stack,
    interaction_bracket_coefficients,
    jacobi_residual,
    momentum_structure_matrix,
    velocity_structure_matrix,
)

BODY = BodyParams(mass=np.pi, inertia=1.0, radius=1.0)


@st.composite
def _stacks(draw, min_n=0, max_n=4):
    """1..5 admissible states of N = min_n..max_n vortices (N shared, strengths per state),
    between 1.1 R and 4 R and kept apart by angular spacing: flat states (K, 3 + 2N), strengths (K, N)."""
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(1, 5))
    unit = st.floats(-1.0, 1.0)
    zs, gs = [], []
    for _ in range(k):
        phase = draw(st.floats(0.0, 2.0 * np.pi))
        g, pos = [], []
        for i in range(n):
            g.append(draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1.0, 1.0])))
            angle = phase + 2.0 * np.pi * (i + 0.3 * draw(unit)) / n
            pos += list(draw(st.floats(1.1, 4.0)) * np.array([np.cos(angle), np.sin(angle)]))
        zs.append([2.0 * draw(unit) for _ in range(3)] + pos)
        gs.append(g)
    return np.array(zs).reshape(k, 3 + 2 * n), np.array(gs).reshape(k, n)


def _states(chart, z):
    return [ChartState.from_flat(chart, row) for row in z]


@settings(max_examples=60, deadline=None)
@given(_stacks())
def test_structure_matrix_stacks_equal_one_state_matrices(case):
    z, g = case
    momentum = _momentum_matrix_stack(z, g)
    velocity = _velocity_matrix_stack(z, g, BODY)
    for k, (sm, sv) in enumerate(zip(_states("momentum", z), _states("velocity", z))):
        assert (momentum[k] == momentum_structure_matrix(sm, g[k])).all()
        assert (velocity[k] == velocity_structure_matrix(sv, g[k], BODY)).all()


@settings(max_examples=60, deadline=None)
@given(_stacks())
def test_shift_stacks_equal_one_state_maps(case):
    z, g = case
    x = z[:, 3:].reshape(len(z), -1, 2)
    shifted = _shift_stack(z, g, BODY)
    for k, s in enumerate(_states("velocity", z)):
        assert (shifted[k] == shift_map(s, g[k], BODY).flat()).all()
    jac = _shift_jacobian_stack(x, g, BODY)
    for k in range(len(z)):
        assert (jac[k] == shift_jacobian(x[k], g[k], BODY)).all()


@settings(max_examples=60, deadline=None)
@given(_stacks())
def test_energy_and_pushforward_stacks_equal_one_state_values(case):
    z, g = case
    for chart in ("momentum", "velocity"):
        energy = _energy_stack(chart, z, g, BODY)
        assert [float(e) for e in energy] == [hamiltonian(chart, s, BODY, gk) for s, gk in zip(_states(chart, z), g)]
    x = z[:, 3:].reshape(len(z), -1, 2)
    assert list(batch_kirchhoff_routh(x, g, 1.0)) == [kirchhoff_routh(VortexSet(gk, xk), BODY.radius) for gk, xk in zip(g, x)]
    deviation = _pushforward_stack(z, g, BODY)
    assert [float(d) for d in deviation] == [pushforward_check(s, BODY, gk) for s, gk in zip(_states("velocity", z), g)]


@settings(max_examples=60, deadline=None)
@given(_stacks())
def test_inverse_shift_equals_the_body_velocity_stack(case):
    z, g = case
    w = _body_velocity_stack("momentum", z, g, BODY)
    assert w.shape == (len(z), 3)
    for k, s in enumerate(_states("momentum", z)):
        back = inverse_shift_map(s, g[k], BODY)
        assert (back.body == w[k]).all() and (back.positions == s.positions).all()


@settings(max_examples=60, deadline=None)
@given(_stacks())
def test_pairing_and_cocycle_stacks_equal_one_state_forms(case):
    z, g = case
    x = z[:, 3:].reshape(len(z), -1, 2)
    pairing = _pairing_stack(x, g, BODY.radius)
    sigma = _cocycle_stack(x, g, BODY.radius)
    for k in range(len(z)):
        vortices = VortexSet(g[k], x[k])
        assert (magnetic_pairing(vortices, BODY.radius) == pairing[k]).all()
        assert (cocycle_sigma(vortices, BODY.radius) == sigma[k]).all()
    assert (pairing == -pairing.swapaxes(1, 2)).all() and (sigma == -sigma.swapaxes(1, 2)).all()
    if g.shape[1] == 0:
        assert (pairing == 0.0).all() and (sigma == 0.0).all()


@pytest.mark.parametrize("chart", ["momentum", "velocity"])
@pytest.mark.parametrize("n", [2, _kernels.PAIR_ARRAY_MIN])  # the list layout and the array layout
def test_integrate_sums_equal_the_cores_on_the_recorded_states(chart, n):
    angles = 2.0 * np.pi * np.arange(n) / n + 0.1
    radii = np.where(np.arange(n) % 2, 3.5, 4.5)
    config = SimConfig(
        chart=chart,
        body=BodyParams(mass=3.0, inertia=1.0, radius=1.0),
        vortices=VortexSet(np.linspace(-1.0, 1.3, n), np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)),
        body_state=[0.05, 0.1, -0.08],
        dt=5e-3,
        t_end=0.5,
        stride=7,
    )
    traj = integrate(config)
    g = config.vortices.strengths
    assert traj.halt is None and traj.n_samples == 16
    assert (traj.energy == _energy_stack(chart, traj.states, g, config.body)).all()
    l_mom = traj.states[:, 1:3] if chart == "momentum" else _shift_stack(traj.states, g, config.body)[:, 1:3]
    assert (traj.casimir == np.sum(l_mom * l_mom, axis=1)).all()
    assert (traj.l_drift == np.linalg.norm(l_mom - l_mom[0], axis=1)).all()


@settings(max_examples=60, deadline=None)
@given(_stacks(min_n=1))
def test_interaction_table_stack_equals_one_state_tables(case):
    z, g = case
    n = g.shape[1]
    pi_pi, pi_vortex, vortex = _interaction_table_stack(z[:, 3:].reshape(len(z), n, 2), g, BODY.radius)
    for k, s in enumerate(_states("velocity", z)):
        one_pi_pi, one_pi_vortex, one_vortex = interaction_bracket_coefficients(s, g[k], BODY)
        assert type(one_pi_pi) is float and one_pi_vortex.shape == (2, 2 * n) and one_vortex.shape == (n, n)
        assert one_pi_pi == pi_pi[k] and (one_pi_vortex == pi_vortex[k]).all() and (one_vortex == vortex[k]).all()
        assert (one_vortex == np.diag(-1.0 / g[k])).all()


@settings(max_examples=30, deadline=None)
@given(_stacks(max_n=3))
def test_jacobi_stack_equals_one_point_residuals(case):
    z, g = case
    h = 1e-5 * (1 + np.max(np.abs(z), axis=1))
    for chart in ("momentum", "velocity"):
        if chart == "momentum":
            stacked = _jacobi_stack(lambda s: _momentum_matrix_stack(s, g[:, None]), z, h)
            one = [jacobi_residual(lambda p, gk=gk: momentum_structure_matrix(ChartState.from_flat(chart, p), gk), zk, hk)
                   for zk, gk, hk in zip(z, g, h)]
        else:
            stacked = _jacobi_stack(lambda s: _velocity_matrix_stack(s, g[:, None], BODY), z, h)
            one = [jacobi_residual(lambda p, gk=gk: velocity_structure_matrix(ChartState.from_flat(chart, p), gk, BODY), zk, hk)
                   for zk, gk, hk in zip(z, g, h)]
        assert [float(r) for r in stacked] == one


@pytest.mark.parametrize("order", [2, 4, 6])
def test_stencil_and_combine_stacks_equal_one_point_differences(order, rng):
    points = rng.normal(size=(4, 5))
    h = rng.uniform(1e-4, 1e-2, 4)
    stencils = _stencil_stack(points, order, h)
    values = np.sin(stencils) @ rng.normal(size=(5, 3))
    derivs = _combine_stack(values, order, h)
    for k in range(4):
        assert (stencils[k] == fd_stencil(points[k], h[k], order)).all()
        assert (derivs[k] == fd_combine(values[k], h[k], order)).all()


@pytest.mark.parametrize(
    "strengths, positions, message",
    [
        ([1.0, 0.0], [[2.0, 0.0], [0.0, 2.0]], "vortex 1: strength must be finite and nonzero"),
        ([1.0, np.nan], [[2.0, 0.0], [0.0, 2.0]], "vortex 1: strength must be finite and nonzero"),
        ([1.0, 1.0], [[2.0, 0.0], [0.0, 0.5]], "vortex 1: position must lie strictly outside the body"),
        ([1.0, 1.0], [[2.0, 0.0], [2.0, 0.0]], "vortices 0 and 1 coincide"),
    ],
)
def test_validate_stack_raises_the_first_bad_configuration_in_stack_order(strengths, positions, message):
    good_g, good_x = np.array([1.0, -1.0]), np.array([[2.0, 0.0], [0.0, 3.0]])
    g = np.array([good_g, strengths, good_g, [0.0, 0.0]])
    x = np.array([good_x, positions, good_x, [[0.1, 0.0], [0.1, 0.0]]])
    with pytest.raises(ValidationError, match=message):
        VortexSet(g[1], x[1]).validate(BODY.radius)
    with pytest.raises(ValidationError, match=message):
        validate_stack(g, x, BODY.radius)
    validate_stack(g[[0, 2]], x[[0, 2]], BODY.radius)
    validate_stack(good_g, x[[0, 2]], BODY.radius)  # one strengths row for the whole stack


def _parent_verify_rows():
    """The per-state row loops of ``verify`` before its rows took stacks, over the
    states ``verify`` draws: each row's stack is drawn one quantity at a time."""
    rng = np.random.default_rng(20240817)
    body = BodyParams(mass=np.pi, inertia=1.0, radius=1.0)

    def random_states(chart, count, n=2):
        g = rng.uniform(0.5, 2.0, (count, n)) * rng.choice([-1.0, 1.0], (count, n))
        r = rng.uniform(1.6, 3.0, (count, n))
        th = rng.uniform(0, 2 * np.pi, (count, n))
        pos = np.stack([r * np.cos(th), r * np.sin(th)], axis=2)
        return [(ChartState(chart, b, p), gk) for b, p, gk in zip(rng.normal(0, 1, (count, 3)), pos, g)]

    values = []
    for chart in ("momentum", "velocity"):
        worst = 0.0
        for s, g in random_states(chart, 20):
            if chart == "momentum":
                f = lambda z: momentum_structure_matrix(ChartState.from_flat("momentum", z), g)
            else:
                f = lambda z: velocity_structure_matrix(ChartState.from_flat("velocity", z), g, body)
            worst = max(worst, jacobi_residual(f, s.flat(), 1e-5 * (1 + float(np.max(np.abs(s.flat()))))))
        values.append(worst)

    worst = 0.0
    for s, g in random_states("velocity", 100):
        worst = max(worst, pushforward_check(s, body, g))
    values.append(worst)

    worst = 0.0
    for s, g in random_states("velocity", 100):
        em_c = body.mass + np.pi * body.radius**2
        lam = velocity_structure_matrix(s, g, body)
        pi_pi, pi_vortex, vortex = interaction_bracket_coefficients(s, g, body)
        dev = abs(pi_pi - em_c**2 * lam[1, 2])
        for i in range(s.n):
            dev = max(dev, abs(pi_vortex[0, 2 * i] - em_c * lam[1, 3 + 2 * i]))
            dev = max(dev, abs(pi_vortex[1, 2 * i + 1] - em_c * lam[2, 4 + 2 * i]))
            dev = max(dev, abs(vortex[i, i] - lam[3 + 2 * i, 4 + 2 * i]))
        worst = max(worst, dev)
    values.append(worst)

    worst = 0.0
    for s, g in random_states("velocity", 100):
        ha = hamiltonian("momentum", shift_map(s, g, body), body, g)
        hb = hamiltonian("velocity", s, body, g)
        worst = max(worst, abs(ha - hb) / max(1.0, abs(hb)))
    values.append(worst)

    worst = 0.0
    for s, g in random_states("velocity", 20):
        sig = cocycle_sigma(VortexSet(g, s.positions), body.radius)
        worst = max(worst, abs(sig[1, 2] + float(np.sum(g))), abs(sig[0, 1]), abs(sig[0, 2]))
    values.append(worst)
    return values


def test_verify_rows_equal_the_per_state_row_loops():
    rows, ok = cli._verify_report()
    assert ok
    assert [value for _, value, _, _ in rows] == _parent_verify_rows()
    assert all(type(value) is float for _, value, _, _ in rows)
