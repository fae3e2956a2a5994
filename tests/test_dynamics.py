import numpy as np
import numpy.testing as npt
import pytest

from conftest import random_state, random_vortices
from vortexcyl import (
    BodyParams,
    ChartState,
    VortexSet,
    diagnostics,
    hamiltonian,
    hamiltonian_gradient,
    image_vortex_velocity,
    integrate,
    inverse_shift_map,
    rhs,
    shift_map,
    structure_matrix,
)
from vortexcyl import dynamics
from vortexcyl._kernels import _pose_step
from vortexcyl.dynamics import HaltInfo, SimConfig
from vortexcyl.fluid import ValidationError
from vortexcyl.se2 import rotation

TWO_VORTEX = VortexSet([1.0, -1.0], [[3.0, 0.0], [0.0, 3.0]])


def _two_vortex_config(body, chart="momentum", **kw):
    base = dict(
        chart=chart,
        body=body,
        vortices=TWO_VORTEX,
        body_state=[0.0, 0.0, 0.0],
        dt=1e-3,
        t_end=10.0,
        stride=100,
    )
    base.update(kw)
    return SimConfig(**base)


def test_rhs_is_structure_times_gradient(body, rng):
    for chart in ("momentum", "velocity"):
        st, g = random_state(rng, chart)
        expected = structure_matrix(st, g, body) @ hamiltonian_gradient(chart, st, body, g)
        npt.assert_allclose(rhs(chart, st, body, g), expected, atol=0)


def test_rhs_kirchhoff_limit_is_rest(body):
    # spinless free body: velocity stays constant (spatial momentum conserved)
    st = ChartState("velocity", [0.0, 0.7, -0.2], np.zeros((0, 2)))
    dz = rhs("velocity", st, body, np.zeros(0))
    assert dz[1] == 0.0 and dz[2] == 0.0
    assert abs(dz[0]) <= 1e-15  # rounding of the assembled Omega row only


def test_rhs_momentum_conserved_at_zero_strength(body):
    # equal radii make Omega vanish identically, so dL/dt hits structure zeros
    st = ChartState("momentum", [0.0, 0.8, -0.4], [[2.0, 0.0], [0.0, 2.0]])
    dz = rhs("momentum", st, body, np.array([1.0, -1.0]))
    assert dz[1] == 0.0 and dz[2] == 0.0


def test_rhs_fixed_body_matches_image_oracle():
    m = 1e6 * np.pi
    heavy = BodyParams(mass=m, inertia=m / 2, radius=1.0)
    gamma = 2 * np.pi
    st = ChartState("velocity", [0.0, 0.0, 0.0], [[2.0, 0.0]])
    dz = rhs("velocity", st, heavy, np.array([gamma]))
    oracle = image_vortex_velocity(np.array([2.0, 0.0]), gamma, 1.0)
    npt.assert_allclose(dz[3:5], oracle, rtol=1e-3, atol=1e-9)
    assert abs(np.linalg.norm(dz[3:5]) - np.linalg.norm(oracle)) / np.linalg.norm(oracle) <= 1e-3


def test_integrate_straight_line(body):
    cfg = SimConfig(
        chart="velocity",
        body=body,
        vortices=VortexSet([], np.zeros((0, 2))),
        body_state=[0.0, 0.3, -0.2],
        dt=1e-3,
        t_end=10.0,
        stride=100,
    )
    traj = integrate(cfg)
    assert traj.halt is None
    for k in range(traj.n_samples):
        npt.assert_allclose(
            traj.poses[k, 1:], np.array([0.3, -0.2]) * traj.times[k], atol=1e-12
        )
        npt.assert_allclose(traj.states[k], cfg.body_state, atol=1e-13)


def test_integrate_deterministic(body):
    a = integrate(_two_vortex_config(body, t_end=2.0))
    b = integrate(_two_vortex_config(body, t_end=2.0))
    npt.assert_array_equal(a.states, b.states)
    npt.assert_array_equal(a.poses, b.poses)


@pytest.mark.parametrize("chart", ["momentum", "velocity"])
def test_numpy_scalar_inputs_reach_the_kernels_as_floats(monkeypatch, chart):
    def config(num):
        body = BodyParams(mass=num(np.pi), inertia=num(1.3), radius=num(1.1))
        return _two_vortex_config(body, chart, dt=num(1e-3), t_end=num(0.5), stride=10, clearance=num(1e-3))

    scalars = []

    def spy(*args):
        scalars.append([type(a) for a in args if not isinstance(a, np.ndarray)])
        return run(*args)

    run = dynamics._kernels.run
    monkeypatch.setattr(dynamics._kernels, "run", spy)
    plain, numpy_scalars = integrate(config(float)), integrate(config(np.float64))
    npt.assert_array_equal(numpy_scalars.states, plain.states)
    npt.assert_array_equal(numpy_scalars.poses, plain.poses)
    # numpy scalars would make every loop operation several times slower
    assert scalars[0] == scalars[1]
    assert set(scalars[1]) == {int, float}


def test_rk4_observed_order(body):
    finals = {}
    for dt in (0.1, 0.05, 0.025):
        cfg = _two_vortex_config(body, dt=dt, stride=10**9)
        finals[dt] = integrate(cfg).states[-1]
    e1 = np.max(np.abs(finals[0.1] - finals[0.05]))
    e2 = np.max(np.abs(finals[0.05] - finals[0.025]))
    order = np.log2(e1 / e2)
    assert abs(order - 4.0) <= 0.2


def test_midpoint_integrator_conserves_energy(body):
    cfg = _two_vortex_config(body, chart="velocity", integrator="midpoint", dt=2e-3, t_end=2.0,
                             body_state=inverse_shift_map(
                                 ChartState("momentum", [0, 0, 0], TWO_VORTEX.positions),
                                 TWO_VORTEX.strengths, body).body)
    traj = integrate(cfg)
    assert traj.halt is None
    assert diagnostics(traj).max_rel_energy_drift <= 1e-6


def test_momentum_chart_ode_form_along_trajectory(body, rng):
    # dA/dt = -(V x L) . e3 with V = dH/dL, at recorded states of a live run
    cfg = _two_vortex_config(body, body_state=[0.2, 0.5, -0.3], t_end=2.0, stride=20)
    traj = integrate(cfg)
    for k in range(traj.n_samples):
        st = traj.state_at(k)
        dz = rhs("momentum", st, body, TWO_VORTEX.strengths)
        grad = hamiltonian_gradient("momentum", st, body, TWO_VORTEX.strengths)
        vx, vy = grad[1], grad[2]
        lx, ly = st.body[1], st.body[2]
        assert abs(dz[0] + (vx * ly - vy * lx)) <= 1e-9


def test_cross_chart_trajectories_agree(body):
    traj_m = integrate(_two_vortex_config(body, t_end=4.0))
    w0 = inverse_shift_map(
        ChartState("momentum", [0.0, 0.0, 0.0], TWO_VORTEX.positions), TWO_VORTEX.strengths, body
    )
    traj_v = integrate(_two_vortex_config(body, chart="velocity", body_state=w0.body, t_end=4.0))
    assert traj_m.n_samples == traj_v.n_samples
    dev = 0.0
    for k in range(traj_m.n_samples):
        mapped = shift_map(traj_v.state_at(k), TWO_VORTEX.strengths, body)
        dev = max(dev, float(np.max(np.abs(mapped.flat() - traj_m.states[k]))))
    assert dev <= 1e-6


def test_collision_halt_body(body):
    # a self-propelled dipole aimed at the body crosses a conservative clearance
    vs = VortexSet([2.0, -2.0], [[2.5, 0.35], [2.5, -0.35]])
    cfg = SimConfig(
        chart="velocity",
        body=body,
        vortices=vs,
        body_state=[0.0, 0.0, 0.0],
        dt=2e-3,
        t_end=30.0,
        stride=10,
        clearance=0.4,
    )
    traj = integrate(cfg)
    assert traj.halt is not None
    assert "body" in traj.halt.reason
    assert traj.halt.vortex_index in (0, 1)
    assert traj.times[-1] <= traj.halt.time + cfg.dt
    assert traj.n_samples >= 1


def test_midpoint_nonconvergence_halts(body):
    # a tight strong pair at a huge step puts the fixed-point map past contraction
    vs = VortexSet([4.0, 4.0], [[2.5, 0.0], [2.75, 0.0]])
    cfg = SimConfig(
        chart="velocity",
        body=body,
        vortices=vs,
        body_state=[0.0, 0.0, 0.0],
        dt=1.0,
        t_end=5.0,
        integrator="midpoint",
    )
    traj = integrate(cfg)
    assert traj.halt is not None
    assert "midpoint" in traj.halt.reason


def test_collision_halt_pair(body):
    vs = VortexSet([1.0, 1.0], [[2.5, 0.0], [2.75, 0.0]])
    cfg = SimConfig(
        chart="velocity",
        body=body,
        vortices=vs,
        body_state=[0.0, 0.0, 0.0],
        dt=1e-3,
        t_end=1.0,
        clearance=0.3,
    )
    traj = integrate(cfg)
    assert traj.halt is not None
    assert "vortices" in traj.halt.reason


@pytest.mark.parametrize("integrator", ["rk4", "midpoint"])
def test_stage_leaving_fluid_domain_halts(body, integrator):
    # a strong vortex hugging the body: the first RK4 stage or midpoint
    # iterate lands inside it
    cfg = SimConfig(
        chart="velocity",
        body=body,
        vortices=VortexSet([6.0], [[1.02, 0.0]]),
        body_state=[0.0, 0.0, 0.0],
        dt=0.05,
        t_end=0.5,
        integrator=integrator,
    )
    traj = integrate(cfg)
    assert traj.halt == HaltInfo("stage left the fluid domain", 0, 0.0)
    assert traj.n_samples == 1


def test_initial_state_validation(body):
    with pytest.raises(ValidationError):
        SimConfig(
            chart="momentum",
            body=body,
            vortices=VortexSet([1.0], [[0.5, 0.0]]),
            body_state=[0, 0, 0],
            dt=1e-3,
            t_end=1.0,
        )
    for stride in (0, 2.7, np.nan):
        with pytest.raises(ValidationError, match="stride"):
            SimConfig("momentum", body, TWO_VORTEX, [0, 0, 0], dt=1e-3, t_end=1.0, stride=stride)
    assert SimConfig("momentum", body, TWO_VORTEX, [0, 0, 0], dt=1e-3, t_end=1.0, stride=4.0).stride == 4


def _pose_track(dt, nsteps, omega, velocity):
    """Poses (beta, x0_x, x0_y) after each of nsteps screw steps at constant velocity."""
    carry = (0.0,) * 6
    poses = [(0.0, 0.0, 0.0)]
    for _ in range(nsteps):
        carry = _pose_step(*carry, omega, velocity[0], velocity[1], dt)
        poses.append(carry[::2])
    return np.array(poses)


def test_reconstruct_constant_velocity_cases():
    still = _pose_track(0.1, 20, 0.0, [0.0, 0.0])
    assert np.all(still == 0.0)

    moving = _pose_track(0.1, 20, 0.0, [1.0, 0.0])
    npt.assert_allclose(moving[-1, 1:], [2.0, 0.0], atol=1e-13)


def test_reconstruct_screw_traces_circle():
    poses = _pose_track(2 * np.pi / 4000, 4000, 1.0, [1.0, 0.0])
    radius = np.linalg.norm(poses[:, 1:] - np.array([0.0, 1.0]), axis=1)
    npt.assert_allclose(radius, 1.0, atol=1e-10)


def test_diagnostics_single_sample(body):
    cfg = _two_vortex_config(body, t_end=0.0)
    rep = diagnostics(integrate(cfg))
    assert rep.max_rel_energy_drift == 0.0
    assert rep.max_casimir_drift == 0.0
    assert rep.max_l_drift == 0.0


def test_diagnostics_two_vortex_conservation(body):
    rep = diagnostics(integrate(_two_vortex_config(body)))
    assert rep.max_rel_energy_drift <= 1e-8
    assert rep.max_casimir_drift <= 1e-8
    assert rep.max_l_drift <= 1e-9
    assert rep.min_body_clearance > 0.5


@pytest.mark.parametrize("n", [0, 1, 2, 4, 12])
@pytest.mark.parametrize("chart", ["momentum", "velocity"])
def test_post_processing_matches_per_row_oracle(body, rng, chart, n):
    vortices = random_vortices(rng, n, r_min=2.0, r_max=6.0)
    cfg = SimConfig(chart, body, vortices, rng.uniform(-0.5, 0.5, 3), dt=5e-3, t_end=0.1, stride=2)
    traj = integrate(cfg)
    assert traj.halt is None and traj.n_samples == 11
    g = vortices.strengths
    energy, l_mom, inertial = [], [], []
    for k in range(traj.n_samples):
        st = traj.state_at(k)
        energy.append(hamiltonian(chart, st, body, g))
        l_mom.append((st if chart == "momentum" else shift_map(st, g, body)).body[1:])
        inertial.append(st.positions @ rotation(traj.poses[k, 0]).T + traj.poses[k, 1:])
    l_mom = np.array(l_mom)
    scale = np.max(np.abs(l_mom))
    npt.assert_allclose(traj.energy, energy, rtol=1e-12)
    npt.assert_allclose(traj.casimir, np.sum(l_mom * l_mom, axis=1), rtol=1e-12)
    npt.assert_allclose(traj.l_drift, np.linalg.norm(l_mom - l_mom[0], axis=1), rtol=1e-12, atol=1e-12 * scale)
    inertial = np.array(inertial).reshape(traj.n_samples, n, 2)
    npt.assert_allclose(traj.inertial_positions, inertial, rtol=1e-12, atol=1e-14)
