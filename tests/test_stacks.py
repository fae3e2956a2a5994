"""Each certificate function on a stack of states equals the same function
applied state by state, compared with ``==``; the private cores that
``integrate`` runs unvalidated equal the public functions; and ``verify``'s
stacked rows equal the per-state row loops they replaced."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexcyl import _kernels, cli
from vortexcyl.dynamics import SimConfig, integrate
from vortexcyl.energetics import BodyParams, _body_velocity_stack, _energy_stack, hamiltonian
from vortexcyl.fluid import ValidationError, VortexSet, batch_kirchhoff_routh, kirchhoff_routh, validate_stack
from vortexcyl.maps import (
    _shift_stack,
    cocycle_sigma,
    inverse_shift_map,
    magnetic_pairing,
    magnetic_potential,
    shift_jacobian,
    shift_map,
)
from vortexcyl.oracle import fd_combine, fd_stencil, pushforward_check
from vortexcyl.state import ChartState
from vortexcyl.structures import (
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


def _equal_per_state(stacked, one_state):
    """``stacked`` has one entry per state, each equal under ``==`` to the value of the
    same function on that state alone, with the same type: a float where one
    state gives a float, else an array of the same shape."""
    assert len(stacked) == len(one_state)
    for entry, one in zip(stacked, one_state):
        if isinstance(one, float):
            assert type(one) is float and np.shape(entry) == () and entry == one
        else:
            assert type(one) is np.ndarray and entry.shape == one.shape and (entry == one).all()


@settings(max_examples=60, deadline=None)
@given(_stacks())
def test_structure_matrices_on_a_stack_equal_them_state_by_state(case):
    z, g = case
    momentum, velocity = ChartState.from_flat("momentum", z), ChartState.from_flat("velocity", z)
    assert momentum.shape == (len(z),) and (momentum.flat() == z).all()
    _equal_per_state(
        momentum_structure_matrix(momentum, g),
        [momentum_structure_matrix(s, gk) for s, gk in zip(_states("momentum", z), g)],
    )
    _equal_per_state(
        velocity_structure_matrix(velocity, g, BODY),
        [velocity_structure_matrix(s, gk, BODY) for s, gk in zip(_states("velocity", z), g)],
    )


@settings(max_examples=60, deadline=None)
@given(_stacks())
def test_shift_maps_and_jacobian_on_a_stack_equal_them_state_by_state(case):
    z, g = case
    x = z[:, 3:].reshape(len(z), -1, 2)
    shifted = shift_map(ChartState.from_flat("velocity", z), g, BODY)
    assert shifted.chart == "momentum"
    _equal_per_state(shifted.flat(), [shift_map(s, gk, BODY).flat() for s, gk in zip(_states("velocity", z), g)])
    assert (shifted.flat() == _shift_stack(z, g, BODY)).all()  # the core integrate runs
    back = inverse_shift_map(ChartState.from_flat("momentum", z), g, BODY)
    one = [inverse_shift_map(s, gk, BODY).flat() for s, gk in zip(_states("momentum", z), g)]
    _equal_per_state(back.flat(), one)
    _equal_per_state(shift_jacobian(x, g, BODY), [shift_jacobian(xk, gk, BODY) for xk, gk in zip(x, g)])


@settings(max_examples=60, deadline=None)
@given(_stacks())
def test_energy_core_and_pushforward_on_a_stack_equal_them_state_by_state(case):
    z, g = case
    for chart in ("momentum", "velocity"):
        one = [hamiltonian(chart, s, BODY, gk) for s, gk in zip(_states(chart, z), g)]
        _equal_per_state(hamiltonian(chart, ChartState.from_flat(chart, z), BODY, g), one)
        _equal_per_state(_energy_stack(chart, z, g, BODY), one)  # the core integrate runs
    x = z[:, 3:].reshape(len(z), -1, 2)
    assert list(batch_kirchhoff_routh(x, g, 1.0)) == [kirchhoff_routh(VortexSet(gk, xk), BODY.radius) for gk, xk in zip(g, x)]
    deviation = pushforward_check(ChartState.from_flat("velocity", z), BODY, g)
    _equal_per_state(deviation, [pushforward_check(s, BODY, gk) for s, gk in zip(_states("velocity", z), g)])


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
def test_potential_pairing_and_cocycle_on_a_stack_equal_them_state_by_state(case):
    z, g = case
    x = z[:, 3:].reshape(len(z), -1, 2)
    pairing = magnetic_pairing(x, g, BODY.radius)
    sigma = cocycle_sigma(x, g, BODY.radius)
    potential = magnetic_potential(x, g, BODY.radius)
    _equal_per_state(potential, [magnetic_potential(xk, gk, BODY.radius) for xk, gk in zip(x, g)])
    _equal_per_state(pairing, [magnetic_pairing(xk, gk, BODY.radius) for xk, gk in zip(x, g)])
    _equal_per_state(sigma, [cocycle_sigma(xk, gk, BODY.radius) for xk, gk in zip(x, g)])
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
    momentum = traj.states[:, :3] if chart == "momentum" else _shift_stack(traj.states, g, config.body)[:, :3]
    l_mom = momentum[:, 1:]
    casimir = np.sum(l_mom * l_mom, axis=1) - 2.0 * config.vortices.total_strength * momentum[:, 0]
    assert (traj.casimir == casimir).all()
    assert (traj.l_drift == np.linalg.norm(l_mom - l_mom[0], axis=1)).all()


@settings(max_examples=60, deadline=None)
@given(_stacks(min_n=1))
def test_interaction_table_on_a_stack_equals_it_state_by_state(case):
    z, g = case
    n = g.shape[1]
    pi_pi, pi_vortex, vortex = interaction_bracket_coefficients(ChartState.from_flat("velocity", z), g, BODY)
    one = [interaction_bracket_coefficients(s, gk, BODY) for s, gk in zip(_states("velocity", z), g)]
    _equal_per_state(pi_pi, [t[0] for t in one])
    _equal_per_state(pi_vortex, [t[1] for t in one])
    _equal_per_state(vortex, [t[2] for t in one])
    assert pi_vortex.shape == (len(z), 2, 2 * n)
    for k in range(len(z)):
        assert (vortex[k] == np.diag(-1.0 / g[k])).all()


@settings(max_examples=30, deadline=None)
@given(_stacks(max_n=3))
def test_jacobi_residual_on_a_stack_equals_it_point_by_point(case):
    z, g = case
    for chart, matrix in (
        ("momentum", momentum_structure_matrix),
        ("velocity", functools.partial(velocity_structure_matrix, body=BODY)),
    ):
        for h in (1e-5 * (1 + np.max(np.abs(z), axis=1)), 1e-4):  # a step per point, then one for all
            # the field takes the (K, M, D) stencil stack with strengths (K, 1, N), or (M, D) with (N,)
            stacked = jacobi_residual(lambda s: matrix(ChartState.from_flat(chart, s), g[:, None]), z, h)
            one = [jacobi_residual(lambda s, gk=gk: matrix(ChartState.from_flat(chart, s), gk), zk, hk)
                   for zk, gk, hk in zip(z, g, np.broadcast_to(h, len(z)))]
            _equal_per_state(stacked, one)


@pytest.mark.parametrize("order", [2, 4, 6])
def test_fd_stencil_and_fd_combine_on_a_stack_equal_one_point_differences(order, rng):
    # a step array (3, 4) makes the leading axes of points (3, 4, 5, 2) a stack of (5, 2) points
    points = rng.normal(size=(3, 4, 5, 2))
    h = rng.uniform(1e-4, 1e-2, (3, 4))
    stencils = fd_stencil(points, h, order)
    values = np.sin(stencils) @ rng.normal(size=(2, 3))
    derivs = fd_combine(values, h, order)
    assert stencils.shape == (3, 4, 20 * (order // 2), 5, 2) and derivs.shape == (3, 4, 10, 5, 3)
    for k in np.ndindex(h.shape):
        assert (stencils[k] == fd_stencil(points[k], h[k], order)).all()
        assert (derivs[k] == fd_combine(values[k], h[k], order)).all()
    for take, stack in ((fd_stencil, points), (fd_combine, values)):
        with pytest.raises(ValidationError, match=r"does not lead with the steps' shape \(3, 4\)$"):
            take(stack.swapaxes(0, 1), h, order)


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
    with pytest.raises(ValidationError, match=message):  # leading axes (2, 2) in row-major order
        validate_stack(g.reshape(2, 2, 2), x.reshape(2, 2, 2, 2), BODY.radius)
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
        sig = cocycle_sigma(s.positions, g, body.radius)
        worst = max(worst, abs(sig[1, 2] + float(np.sum(g))), abs(sig[0, 1]), abs(sig[0, 2]))
    values.append(worst)
    return values


def test_verify_rows_equal_the_per_state_row_loops():
    rows, ok = cli._verify_report()
    assert ok
    assert [value for _, value, _, _ in rows] == _parent_verify_rows()
    assert all(type(value) is float for _, value, _, _ in rows)
