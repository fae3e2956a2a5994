import sys

import numpy as np
import pytest

from vortexcyl import BodyParams, ChartState, SimConfig, VortexSet, integrate, shift_map


@pytest.fixture
def body():
    return BodyParams(mass=np.pi, inertia=1.0, radius=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_vortices(rng, n, r_min=1.6, r_max=3.0):
    """Admissible strengths and positions, well clear of the body."""
    strengths = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    radii = rng.uniform(r_min, r_max, n)
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    positions = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    return VortexSet(strengths, positions)


def random_state(rng, chart, n=2, scale=1.0):
    vs = random_vortices(rng, n)
    return ChartState(chart, scale * rng.normal(size=3), vs.positions), vs.strengths


def count_calls(monkeypatch, original) -> list:
    """Replace the function ``original`` by a counting wrapper wherever a vortexcyl module
    binds it, as the benchmark's tracer does, so that a call through any binding counts;
    the returned list grows by one per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "vortexcyl" or name.startswith("vortexcyl."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


@pytest.fixture(scope="session")
def turning_runs():
    """A body that moves and turns with Gamma_total != 0, integrated in each chart from
    the same body triple: R = 1, m = 3, I = 1, strengths (1, 0.5) at (3, 0) and (0, 3),
    RK4 at dt = 1e-3 to t = 5, every 10th step recorded."""
    body = BodyParams(mass=3.0, inertia=1.0, radius=1.0)
    vortices = VortexSet([1.0, 0.5], [[3.0, 0.0], [0.0, 3.0]])
    return {
        chart: integrate(SimConfig(chart, body, vortices, [0.2, 0.3, -0.1], dt=1e-3, t_end=5.0, stride=10))
        for chart in ("momentum", "velocity")
    }


def momentum_triples(traj):
    """The momentum-chart triples (A, Lx, Ly) of a trajectory's samples, shape (M, 3)."""
    if traj.chart == "momentum":
        return traj.states[:, :3]
    g = traj.config.vortices.strengths
    return np.array([shift_map(traj.state_at(k), g, traj.config.body).body for k in range(traj.n_samples)])
