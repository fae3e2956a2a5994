"""Acceptance criteria, one test per criterion, printing a pass/fail line each.

Run with: pytest tests/test_acceptance.py -v -s
"""
import numpy as np
import pytest

from conftest import random_state, random_vortices
from vortexcyl import (
    BodyParams,
    ChartState,
    VortexSet,
    cocycle_sigma,
    diagnostics,
    elementary_potentials,
    elementary_streams,
    green_function,
    hamiltonian,
    image_vortex_velocity,
    integrate,
    interaction_bracket_coefficients,
    inverse_shift_map,
    jacobi_residual,
    momentum_structure_matrix,
    pushforward_check,
    shift_map,
    velocity_structure_matrix,
)
from vortexcyl.dynamics import SimConfig
from vortexcyl.oracle import fd_gradient

BODY = BodyParams(mass=np.pi, inertia=1.0, radius=1.0)
PAIR = VortexSet([1.0, -1.0], [[3.0, 0.0], [0.0, 3.0]])


def _report(criterion: str, value: float, tol: float) -> None:
    status = "PASS" if value <= tol else "FAIL"
    print(f"criterion {criterion}: value={value:.3e} tol={tol:.0e} {status}")
    assert value <= tol, f"criterion {criterion}: {value} > {tol}"


@pytest.fixture(scope="module")
def pair_runs():
    """The shared item-1 scenario: both charts from matching initial states."""
    cfg_m = SimConfig(
        chart="momentum", body=BODY, vortices=PAIR, body_state=[0.0, 0.0, 0.0],
        dt=1e-3, t_end=10.0, stride=100,
    )
    w0 = inverse_shift_map(ChartState("momentum", [0, 0, 0], PAIR.positions), PAIR.strengths, BODY)
    cfg_v = cfg_m.with_overrides(chart="velocity", body_state=w0.body)
    return integrate(cfg_m), integrate(cfg_v)


def test_criterion_01_cross_chart_equivalence(pair_runs):
    traj_m, traj_v = pair_runs
    dev = 0.0
    for k in range(traj_m.n_samples):
        mapped = shift_map(traj_v.state_at(k), PAIR.strengths, BODY)
        dev = max(dev, float(np.max(np.abs(mapped.flat() - traj_m.states[k]))))
    _report("1 cross-chart trajectory equivalence", dev, 1e-6)


def test_criterion_02_structure_pushforward(rng):
    worst = 0.0
    for _ in range(100):
        st, g = random_state(rng, "velocity")
        worst = max(worst, pushforward_check(st, BODY, g))
    _report("2 shift-map structure pushforward", worst, 1e-9)


def test_criterion_03_interaction_bracket(rng):
    c = BODY.c
    r4 = BODY.radius**4
    worst = 0.0
    for _ in range(100):
        st, g = random_state(rng, "velocity")
        pi_pi, pi_vortex, vortex = interaction_bracket_coefficients(st, g, BODY)
        x, y = st.positions[:, 0], st.positions[:, 1]
        d4 = (x * x + y * y) ** 2
        dev = abs(pi_pi - (g.sum() - np.sum(g * (d4 - r4) / d4)))
        split = BODY.radius**2 * (x * x - y * y)
        for i in range(st.n):
            dev = max(dev, abs(pi_vortex[0, 2 * i] - (-(d4[i] - split[i]) / d4[i])))
            dev = max(dev, abs(pi_vortex[0, 2 * i + 1] - 2 * BODY.radius**2 * x[i] * y[i] / d4[i]))
            dev = max(dev, abs(pi_vortex[1, 2 * i] - 2 * BODY.radius**2 * x[i] * y[i] / d4[i]))
            dev = max(dev, abs(pi_vortex[1, 2 * i + 1] - (-(d4[i] + split[i]) / d4[i])))
            dev = max(dev, abs(vortex[i, i] + 1.0 / g[i]))
        # cross-check against the closed-form matrix in momentum scaling
        lam = velocity_structure_matrix(st, g, BODY)
        dev = max(dev, abs(pi_pi - c**2 * lam[1, 2]))
        worst = max(worst, dev)
    _report("3 reduction-theory interaction bracket", worst, 1e-10)


def test_criterion_04_jacobi_certification(rng):
    worst = 0.0
    for chart in ("momentum", "velocity"):
        for _ in range(20):
            st, g = random_state(rng, chart)
            z = st.flat()
            h = 1e-5 * (1.0 + float(np.max(np.abs(z))))
            if chart == "momentum":
                f = lambda zz: momentum_structure_matrix(ChartState.from_flat("momentum", zz), g)
            else:
                f = lambda zz: velocity_structure_matrix(ChartState.from_flat("velocity", zz), g, BODY)
            worst = max(worst, jacobi_residual(f, z, h))
    _report("4 Jacobi identity both charts", worst, 1e-6)


def test_criterion_05_conservation(pair_runs):
    rep = diagnostics(pair_runs[0])
    _report("5a relative energy drift", rep.max_rel_energy_drift, 1e-8)
    _report("5b Casimir drift", rep.max_casimir_drift, 1e-8)
    _report("5c momentum drift", rep.max_l_drift, 1e-9)


def test_criterion_06_kirchhoff_limit():
    cfg = SimConfig(
        chart="velocity", body=BODY, vortices=VortexSet([], np.zeros((0, 2))),
        body_state=[0.0, 0.3, -0.2], dt=1e-3, t_end=10.0, stride=100,
    )
    traj = integrate(cfg)
    err = 0.0
    for k in range(traj.n_samples):
        err = max(err, float(np.max(np.abs(traj.poses[k, 1:] - np.array([0.3, -0.2]) * traj.times[k]))))
        err = max(err, float(np.max(np.abs(traj.states[k] - cfg.body_state))))
    _report("6 straight-line potential-flow limit", err, 1e-12)


def test_criterion_07_fixed_body_limit():
    mass = 1e6 * np.pi
    heavy = BodyParams(mass=mass, inertia=0.5 * mass, radius=1.0)
    gamma = 2 * np.pi
    vs = VortexSet([gamma], [[2.0, 0.0]])
    speed = float(np.linalg.norm(image_vortex_velocity(np.array([2.0, 0.0]), gamma, 1.0)))
    omega = speed / 2.0
    period = 2 * np.pi / omega
    cfg = SimConfig(
        chart="velocity", body=heavy, vortices=vs, body_state=[0.0, 0.0, 0.0],
        dt=2e-3, t_end=round(period / 2e-3) * 2e-3, stride=50,
    )
    traj = integrate(cfg)
    radii = np.linalg.norm(traj.states[:, 3:5], axis=1)
    _report("7a fixed-body orbit radius drift", float(np.max(np.abs(radii - 2.0))), 1e-4)
    angles = np.unwrap(np.arctan2(traj.states[:, 4], traj.states[:, 3]))
    omega_obs = abs(angles[-1] - angles[0]) / (traj.times[-1] - traj.times[0])
    _report("7b fixed-body angular rate vs image oracle", abs(omega_obs - omega) / omega, 1e-3)


def test_criterion_08_fluid_closed_forms(rng):
    radius = 1.0
    h = 1e-5
    hn = 1e-4
    worst_neumann = 0.0
    for theta in np.linspace(0, 2 * np.pi, 64, endpoint=False):
        n = np.array([np.cos(theta), np.sin(theta)])
        bp = radius * n
        for k, target in ((0, n[0]), (1, n[1])):
            f = lambda s: elementary_potentials(bp + s * n, radius, check=False)[k]
            dn = (-f(2 * hn) + 8 * f(hn) - 8 * f(-hn) + f(-2 * hn)) / (12 * hn)
            worst_neumann = max(worst_neumann, abs(dn - target))
    _report("8a Neumann boundary residual", worst_neumann, 1e-10)

    worst_laplace = 0.0
    hs = 1e-3
    for _ in range(100):
        r = rng.uniform(1.5, 3.0)
        th = rng.uniform(0, 2 * np.pi)
        p = np.array([r * np.cos(th), r * np.sin(th)])
        for field, k in ((elementary_potentials, 0), (elementary_potentials, 1),
                         (elementary_streams, 0), (elementary_streams, 1)):
            f = lambda q: field(q, radius, check=False)[k]
            lap = (f(p + [hs, 0]) + f(p - [hs, 0]) + f(p + [0, hs]) + f(p - [0, hs]) - 4 * f(p)) / hs**2
            worst_laplace = max(worst_laplace, abs(lap))
    _report("8b Laplace stencil residual", worst_laplace, 1e-6)

    worst_cr = 0.0
    for _ in range(50):
        r = rng.uniform(1.5, 3.0)
        th = rng.uniform(0, 2 * np.pi)
        p = np.array([r * np.cos(th), r * np.sin(th)])
        for k in (0, 1):
            gphi = fd_gradient(lambda q: elementary_potentials(q, radius, check=False)[k], p, h=h, order=2)
            gpsi = fd_gradient(lambda q: elementary_streams(q, radius, check=False)[k], p, h=h, order=2)
            worst_cr = max(worst_cr, abs(gphi[0] - gpsi[1]) + abs(gphi[1] + gpsi[0]))
    _report("8c Cauchy-Riemann residual", worst_cr, 1e-10)

    worst_green = 0.0
    for _ in range(100):
        r = rng.uniform(1.5, 3.0, 2)
        th = rng.uniform(0, 2 * np.pi, 2)
        p = np.array([r[0] * np.cos(th[0]), r[0] * np.sin(th[0])])
        q = np.array([r[1] * np.cos(th[1]), r[1] * np.sin(th[1])])
        worst_green = max(worst_green, abs(green_function(p, q, radius) - green_function(q, p, radius)))
    target = np.array([2.0, 0.7])
    trace = [
        green_function(np.array([np.cos(t), np.sin(t)]), target, radius)
        for t in np.linspace(0, 2 * np.pi, 64, endpoint=False)
    ]
    worst_green = max(worst_green, float(np.max(trace) - np.min(trace)))
    _report("8d Green symmetry and boundary trace", worst_green, 1e-12)


def test_criterion_09_cocycle(rng):
    worst_main = 0.0
    worst_mixed = 0.0
    for _ in range(20):
        vs = random_vortices(rng, int(rng.integers(1, 4)))
        sigma = cocycle_sigma(vs, BODY.radius)
        worst_main = max(worst_main, abs(sigma[1, 2] + vs.total_strength))
        worst_mixed = max(worst_mixed, abs(sigma[0, 1]), abs(sigma[0, 2]))
    _report("9a cocycle translation component", worst_main, 1e-12)
    _report("9b cocycle mixed components", worst_mixed, 1e-10)


def test_criterion_10_energy_shift_compatibility(rng):
    worst = 0.0
    for _ in range(100):
        st, g = random_state(rng, "velocity")
        z = shift_map(st, g, BODY)
        ha = hamiltonian("momentum", z, BODY, g)
        hb = hamiltonian("velocity", st, BODY, g)
        worst = max(worst, abs(ha - hb) / max(1.0, abs(hb)))
    _report("10 energy compatibility across the shift", worst, 1e-10)


def test_criterion_11_rk4_self_convergence():
    finals = {}
    for dt in (0.1, 0.05, 0.025):
        cfg = SimConfig(
            chart="momentum", body=BODY, vortices=PAIR, body_state=[0.0, 0.0, 0.0],
            dt=dt, t_end=10.0, stride=10**9,
        )
        finals[dt] = integrate(cfg).states[-1]
    e1 = float(np.max(np.abs(finals[0.1] - finals[0.05])))
    e2 = float(np.max(np.abs(finals[0.05] - finals[0.025])))
    order = float(np.log2(e1 / e2))
    _report("11 RK4 observed order deviation from 4", abs(order - 4.0), 0.2)
