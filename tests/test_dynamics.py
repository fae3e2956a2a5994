import functools

import numpy as np
import numpy.testing as npt
import pytest

from conftest import count_calls, random_state, random_vortices
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
from vortexcyl import dynamics, fluid
from vortexcyl._kernels import _pose_step
from vortexcyl.dynamics import HaltInfo, SimConfig
from vortexcyl.fluid import ValidationError, grad_kirchhoff_routh
from vortexcyl.se2 import rotation, to_inertial

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


@pytest.mark.parametrize("chart, gradient_calls, rhs_calls", [("momentum", 1, 1), ("velocity", 1, 2)])
def test_gradient_and_rhs_validate_each_state_once_per_admitting_function(
    body, rng, monkeypatch, chart, gradient_calls, rhs_calls
):
    # rhs admits its state in hamiltonian_gradient and, in the velocity chart, again in
    # velocity_structure_matrix; the momentum-chart matrix checks the strengths only
    st, g = random_state(rng, chart, n=3)
    calls = count_calls(monkeypatch, fluid.validate_stack)
    hamiltonian_gradient(chart, st, body, g)
    assert len(calls) == gradient_calls
    calls.clear()
    rhs(chart, st, body, g)
    assert len(calls) == rhs_calls


def test_gradient_takes_the_kirchhoff_routh_gradient_bitwise(body, rng):
    for n in range(5):
        st, g = random_state(rng, "velocity", n=n)
        wg_grad = grad_kirchhoff_routh(VortexSet(g, st.positions), body.radius).reshape(-1)
        assert hamiltonian_gradient("velocity", st, body, g)[3:].tobytes() == (-wg_grad).tobytes()


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
    def config(num, integrator):
        body = BodyParams(mass=num(np.pi), inertia=num(1.3), radius=num(1.1))
        return _two_vortex_config(
            body, chart, dt=num(1e-3), t_end=num(0.5), integrator=integrator, stride=10, clearance=num(1e-3)
        )

    scalars = set()

    def spy(kernel):
        def spied(*args):
            scalars.update(type(a) for a in args if not isinstance(a, (list, tuple)))
            return kernel(*args)

        return spied

    # the written-out steps and tail take every scalar of the config that the
    # two-vortex run's list layout uses
    loops = dynamics._kernels._ops(2)
    for name in ("step", "midpoint", "tail"):
        monkeypatch.setattr(loops, name, spy(getattr(loops, name)))
    for integrator in ("rk4", "midpoint"):
        plain = integrate(config(float, integrator))
        seen = scalars.copy()
        scalars.clear()
        numpy_scalars = integrate(config(np.float64, integrator))
        npt.assert_array_equal(numpy_scalars.states, plain.states)
        npt.assert_array_equal(numpy_scalars.poses, plain.poses)
        # numpy scalars would make every loop operation several times slower;
        # ``step`` also takes the body's V or L, a complex
        assert scalars == seen == ({bool, float, complex} if integrator == "rk4" else {bool, float})
        scalars.clear()


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


@pytest.mark.parametrize("chart", ["momentum", "velocity"])
@pytest.mark.parametrize("n", [2, dynamics._kernels.PAIR_ARRAY_MIN], ids=["lists", "arrays"])
def test_rk4_counts_four_rhs_evaluations_per_step(body, chart, n):
    angles = 2.0 * np.pi * np.arange(n) / n
    ring = VortexSet(np.resize([1.0, -0.8], n), 3.5 * np.stack([np.cos(angles), np.sin(angles)], 1))
    cfg = _two_vortex_config(body, chart, vortices=ring, t_end=0.05, stride=7)
    traj = integrate(cfg)
    assert traj.halt is None
    assert traj.rhs_evals == 4 * cfg.nsteps
    assert traj.max_midpoint_iterations == 0


# a system of perfbench's dense-midpoint workload (seed 1, draw 0, momentum chart)
DENSE_MIDPOINT = VortexSet(
    [0.8318723918681005, -1.1118959736456588, 1.0076326598924166, -0.6562981762723916],
    [
        [3.6220700815258775, 0.4313287705202047],
        [-1.679098943922724, 0.6966280459187538],
        [1.5434023849956382, -3.6018052119922968],
        [-2.1243107120371447, -1.2865161862470553],
    ],
)


def test_midpoint_extrapolated_start_saves_iterations(body):
    # started from z, every step of this run takes 5 fixed-point iterations;
    # started from the extrapolated midpoint, 2 once three slopes are known
    cfg = _two_vortex_config(
        body, vortices=DENSE_MIDPOINT, body_state=[-9.698327592051486, -4.189350039029367, -9.671280995510939],
        dt=1e-3, t_end=0.2, integrator="midpoint", stride=10,
    )
    traj = integrate(cfg)
    assert traj.halt is None and cfg.nsteps == 200
    assert traj.rhs_evals <= 2.5 * cfg.nsteps
    assert 2 <= traj.max_midpoint_iterations <= 5


@pytest.mark.parametrize("dt", [3e-5, 1e-4])
def test_midpoint_stops_only_where_the_fixed_point_map_does_not_contract(body, dt):
    # A = 3e4 spins the body at Omega ~ 3e4, and the fixed-point map contracts
    # at about the rate Omega dt / 2: 0.45 at dt = 3e-5, where the run reaches
    # its end, and 1.5 at dt = 1e-4, where it cannot converge at step 0
    vortices = VortexSet([1.0, -0.7], [[3.0, 0.0], [0.0, 3.0]])
    cfg = _two_vortex_config(body, vortices=vortices, body_state=[3e4, 0.0, 0.0], dt=dt, t_end=100 * dt,
                             integrator="midpoint", stride=10)
    traj = integrate(cfg)
    assert cfg.nsteps == 100
    if dt < 1e-4:
        assert traj.halt is None and traj.times[-1] == cfg.nsteps * dt
    else:
        assert traj.halt == HaltInfo("implicit midpoint iteration did not converge", -1, 0.0)


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


@pytest.mark.parametrize("chart", ["momentum", "velocity"])
def test_casimir_is_conserved_with_a_nonzero_total_strength(turning_runs, chart):
    traj = turning_runs[chart]
    assert traj.config.vortices.total_strength != 0.0
    assert diagnostics(traj).max_casimir_drift <= 1e-10


def test_midpoint_keeps_the_momentum_chart_casimir_at_round_off():
    # the implicit midpoint rule conserves quadratic invariants, and C = Lx^2 + Ly^2 - 2 Gamma_total A
    # is one: on the turning system it drifts 7.1e-15 on |C0| = 0.5, where RK4 drifts 3.2e-12
    body = BodyParams(mass=3.0, inertia=1.0, radius=1.0)
    vortices = VortexSet([1.0, 0.5], [[3.0, 0.0], [0.0, 3.0]])
    cfg = SimConfig("momentum", body, vortices, [0.2, 0.3, -0.1], dt=1e-3, t_end=5.0, integrator="midpoint")
    traj = integrate(cfg)
    assert traj.halt is None and traj.n_samples == 5001
    assert diagnostics(traj).max_casimir_drift <= 2e-13 * max(1.0, abs(traj.casimir[0]))


@pytest.mark.parametrize("n", [0, 1, 2, 4, 12])
@pytest.mark.parametrize("chart", ["momentum", "velocity"])
def test_post_processing_matches_per_row_oracle(body, rng, chart, n):
    vortices = random_vortices(rng, n, r_min=2.0, r_max=6.0)
    body_state = rng.uniform(-0.5, 0.5, 3)
    cfg = SimConfig(chart, body, vortices, body_state, dt=5e-3, t_end=0.1, stride=2, pose=(0.3, -1.0, 2.0))
    traj = integrate(cfg)
    assert traj.halt is None and traj.n_samples == 11
    # the frame change is se2's batched transform, bit for bit, on both sides of PAIR_ARRAY_MIN
    positions = traj.states[:, 3:].reshape(traj.n_samples, n, 2)
    npt.assert_array_equal(traj.inertial_positions, to_inertial(traj.poses, positions))
    g = vortices.strengths
    energy, momentum, inertial = [], [], []
    for k in range(traj.n_samples):
        st = traj.state_at(k)
        energy.append(hamiltonian(chart, st, body, g))
        momentum.append((st if chart == "momentum" else shift_map(st, g, body)).body)
        inertial.append(st.positions @ rotation(traj.poses[k, 0]).T + traj.poses[k, 1:])
    momentum = np.array(momentum)
    l_mom = momentum[:, 1:]
    scale = np.max(np.abs(l_mom))
    npt.assert_allclose(traj.energy, energy, rtol=1e-12)
    casimir = np.sum(l_mom * l_mom, axis=1) - 2.0 * vortices.total_strength * momentum[:, 0]
    npt.assert_allclose(traj.casimir, casimir, rtol=1e-12)
    npt.assert_allclose(traj.l_drift, np.linalg.norm(l_mom - l_mom[0], axis=1), rtol=1e-12, atol=1e-12 * scale)
    inertial = np.array(inertial).reshape(traj.n_samples, n, 2)
    npt.assert_allclose(traj.inertial_positions, inertial, rtol=1e-12, atol=1e-14)


# The two physical invariants below fail until the vortex block takes the sign that the body's
# frame implies. As the program stands (R = 1, mass 3, I = 1), Omega reaches 0.66 by t = 1 in
# either chart under either integrator, and the far vortex moves 2.0 (translating body) and
# 98.5 (spinning body) by t = 2.
_ITEM_12 = "ROADMAP item 12: the vortex block {X_i, Y_i} = -1/Gamma_i turns the flow once the body moves or spins"
_MASS_3_BODY = BodyParams(mass=3.0, inertia=1.0, radius=1.0)


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=_ITEM_12)
@pytest.mark.parametrize("integrator", ["rk4", "midpoint"])
@pytest.mark.parametrize("chart", ["momentum", "velocity"])
def test_the_spin_of_a_circle_stays_constant(chart, integrator):
    # the pressure on a circle acts through its centre, so nothing changes Omega
    vortices = VortexSet([1.0], [[2.0, 0.0]])
    start = ChartState("velocity", [0.0, 0.3, 0.0], vortices.positions)  # Omega_0 = 0, V_0 = (0.3, 0)
    if chart == "momentum":
        start = shift_map(start, vortices.strengths, _MASS_3_BODY)
    traj = integrate(SimConfig(chart, _MASS_3_BODY, vortices, start.body, dt=1e-3, t_end=1.0, integrator=integrator))
    assert traj.halt is None
    states = ChartState.from_flat(chart, traj.states)
    if chart == "momentum":
        states = inverse_shift_map(states, vortices.strengths, _MASS_3_BODY)
    assert np.max(np.abs(states.body[:, 0])) <= 1e-9


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=_ITEM_12)
@pytest.mark.parametrize(
    "body_state, bound", [([0.0, 0.5, 0.0], 1e-3), ([0.7, 0.0, 0.0], 1e-6)], ids=["translating", "spinning"]
)
def test_a_far_weak_vortex_stays_put_in_the_inertial_frame(body_state, bound):
    # a vortex of strength 1e-9 at r = 50 is a fluid particle in a fluid at rest at infinity: it
    # moves only by the translating circle's dipole, R^2/r^2 of the body's 1.0 (4e-4), and a
    # spinning circle moves no fluid at all
    vortices = VortexSet([1e-9], [[30.0, 40.0]])
    traj = integrate(SimConfig("velocity", _MASS_3_BODY, vortices, body_state, dt=1e-2, t_end=2.0, stride=10))
    assert traj.halt is None
    moved = np.linalg.norm(traj.inertial_positions[:, 0] - traj.inertial_positions[0, 0], axis=1)
    assert np.max(moved) <= bound


# The Havelock ring (Phil. Mag. 11, 1931): N equal vortices on a ring of radius a around a
# circle of radius R turn rigidly at omega = Gamma / (2 pi a^2) [(N - 1)/2 - N R^2N / (a^2N - R^2N)],
# counterclockwise for Gamma > 0; a body at rest stays at rest, and a spin of the body does not
# change the ring's inertial motion. N = 2, 4 and 7 run on the list layout, N = 12 on the arrays.
_RING_RADIUS = 1.2
_RING_DTS = (4e-2, 2e-2, 1e-2)
_RING_CASES = [(n, chart, integrator) for n in (2, 4, 7, 12) for chart in ("momentum", "velocity")
               for integrator in ("rk4", "midpoint")]
# fitted rate against |omega|, relative, at dt = 1e-2: worst measured 2.5e-8 (RK4) and 1.3e-4
# (midpoint), both in the momentum chart at N = 12
_RING_RATE_TOL = {"rk4": 1e-6, "midpoint": 5e-3}
# beta - Omega t at dt = 1e-2: worst measured 4.4e-16 (velocity chart) and 1.4e-9 (momentum
# chart, N = 12, RK4), where Omega = (A + sum Gamma |X|^2 / 2) / I follows the ring's radius error
_RING_BETA_TOL = {"velocity": 2e-14, "momentum": 5e-8}


def _havelock_rate(n):
    r2n, a2n = _MASS_3_BODY.radius ** (2 * n), _RING_RADIUS ** (2 * n)
    return ((n - 1) / 2 - n * r2n / (a2n - r2n)) / (2.0 * np.pi * _RING_RADIUS**2)


@functools.cache
def _ring_run(n, chart, integrator, dt, spin):
    """Times, inertial positions and beta of the unit ring at t = 4 s, sampled every 0.04 s,
    around the mass-3 body started with Omega = spin and V = 0."""
    angles = 2.0 * np.pi * np.arange(n) / n
    vortices = VortexSet(np.ones(n), _RING_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1))
    start = ChartState("velocity", [spin, 0.0, 0.0], vortices.positions)
    if chart == "momentum":
        start = shift_map(start, vortices.strengths, _MASS_3_BODY)
    config = SimConfig(chart, _MASS_3_BODY, vortices, start.body, dt, 4.0, integrator, round(0.04 / dt))
    traj = integrate(config)
    assert traj.halt is None
    return traj.times, traj.inertial_positions, traj.poses[:, 0]


def _ring_rate(n, chart, integrator, spin=0.0):
    """The ring's inertial turning rate at the finest step: the slope of the least-squares
    line through its mean unwrapped polar angle."""
    times, inertial, _ = _ring_run(n, chart, integrator, _RING_DTS[-1], spin)
    angle = np.unwrap(np.arctan2(inertial[..., 1], inertial[..., 0]), axis=0).mean(axis=1)
    return np.polyfit(times, angle - angle[0], 1)[0]


@pytest.mark.parametrize("n, chart, integrator", _RING_CASES)
def test_a_ring_around_a_resting_body_turns_at_the_havelock_speed(n, chart, integrator):
    ends = [_ring_run(n, chart, integrator, dt, 0.0)[1][-1] for dt in _RING_DTS]
    ratio = np.max(np.abs(ends[0] - ends[1])) / np.max(np.abs(ends[1] - ends[2]))
    # halving dt divides the error by 16 (RK4) or 4 (midpoint): measured 15.99-17.64 and 4.00-4.02
    assert ratio >= (12.0 if integrator == "rk4" else 3.5)
    omega = _havelock_rate(n)
    assert abs(abs(_ring_rate(n, chart, integrator)) - abs(omega)) <= _RING_RATE_TOL[integrator] * abs(omega)


@pytest.mark.parametrize("spin", [0.0, 0.7])
@pytest.mark.parametrize("n, chart, integrator", _RING_CASES)
def test_a_ring_leaves_the_body_spin_constant(n, chart, integrator, spin):
    # lam = sum Gamma (1 - R^2/|X|^2) X is zero on the ring, so the body keeps its spin: beta = Omega t
    times, _, beta = _ring_run(n, chart, integrator, _RING_DTS[-1], spin)
    assert np.max(np.abs(beta - spin * times)) <= _RING_BETA_TOL[chart]


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=_ITEM_12)
@pytest.mark.parametrize("n, chart, integrator", _RING_CASES)
def test_a_ring_turns_in_havelocks_sense(n, chart, integrator):
    # the fitted rate is -omega in every case today
    omega = _havelock_rate(n)
    assert abs(_ring_rate(n, chart, integrator) - omega) <= _RING_RATE_TOL[integrator] * abs(omega)


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=_ITEM_12)
@pytest.mark.parametrize("n, chart, integrator", _RING_CASES)
def test_a_spinning_body_leaves_the_rings_inertial_rate_alone(n, chart, integrator):
    # today the spin adds 2 Omega = 1.4 to the inertial rate: at N = 4, 1.3682 against -0.0318
    omega = _havelock_rate(n)
    rest, spinning = _ring_rate(n, chart, integrator), _ring_rate(n, chart, integrator, 0.7)
    assert abs(spinning - rest) <= _RING_RATE_TOL[integrator] * abs(omega)
