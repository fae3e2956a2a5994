"""Seeded inputs for the vortexcyl benchmark.

A workload is a fixed list of ``vortexcyl.cli`` operations, run once per
pass; a benchmark run repeats passes for its run length. Generated scenarios
are written as JSON files, so the program receives only files and
command-line arguments. The same seed writes the same files.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The reason each workload is in the benchmark is recorded in BENCHMARK.json.
NAMES = ("certify", "dense-midpoint", "many-vortex", "presets")

BODY = {"radius": 1.0, "mass": float(np.pi), "inertia": 1.0}

# Preset runs are trimmed with --t-end to 200 steps (see ``run.end_to_end`` on short operations).
PRESET_T_END = {"kirchhoff": 0.2, "single-vortex-fixed": 0.4, "two-vortex-free": 0.2}


@dataclass(frozen=True)
class Scenario:
    """One integration the benchmark checks."""

    key: str  # unique; the file stem of a generated scenario
    raw: dict  # config dictionary as vortexcyl.cli reads it
    ref_samples: int  # leading recorded samples compared with the reference
    drift_tol: float  # bound on the summary's max_rel_H_drift
    path: Path | None = None  # scenario file; None for a preset


@dataclass(frozen=True)
class Op:
    """One closed-loop call of ``vortexcyl.cli.main``."""

    kind: str  # "simulate", "verify" or "sweep"
    argv: tuple[str, ...]
    runs: tuple[tuple[str, Path], ...] = ()  # (scenario key, output dir) per integration


@dataclass(frozen=True)
class Plan:
    workload: str
    ops: tuple[Op, ...]
    scenarios: dict[str, Scenario]
    setup_args: tuple[str, ...]  # preset names or scenario files the set-up probe builds


def _place(rng: np.random.Generator, n: int, r_min: float, r_max: float, spacing: float) -> np.ndarray:
    """n points uniform by area in an annulus, pairwise at least ``spacing`` apart."""
    pts: list[np.ndarray] = []
    while len(pts) < n:
        r = np.sqrt(rng.uniform(r_min**2, r_max**2))
        th = rng.uniform(0.0, 2.0 * np.pi)
        p = np.array([r * np.cos(th), r * np.sin(th)])
        if all(np.hypot(*(p - q)) >= spacing for q in pts):
            pts.append(p)
    return np.array(pts).reshape(-1, 2)


def _chart_pair(rng: np.random.Generator, name: str, n: int, r_min: float, r_max: float, spacing: float, **run) -> dict:
    """Matching momentum- and velocity-chart configs of one drawn system.

    Strengths alternate in sign; the velocity-chart state is the
    ``inverse_shift_map`` of the momentum-chart state.
    """
    import vortexcyl as vcl

    g = rng.uniform(0.5, 1.5, n) * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    pos = _place(rng, n, r_min, r_max, spacing)
    body = vcl.BodyParams(**BODY)
    # Drawing (Omega, V) keeps the body slow: a momentum triple drawn directly
    # would carry Omega = (A + sum Gamma_i |X_i|^2 / 2) / I, tens of rad/s at N = 32.
    drawn = vcl.ChartState("velocity", rng.uniform(-0.5, 0.5, 3), pos)
    mom = vcl.shift_map(drawn, g, body)
    vel = vcl.inverse_shift_map(mom, g, body)
    out = {}
    for st in (mom, vel):
        out[st.chart] = {
            "name": f"{name}-{st.chart}",
            "chart": st.chart,
            **BODY,
            "strengths": g.tolist(),
            "positions": pos.tolist(),
            "body": st.body.tolist(),
            **run,
        }
    return out


def _write(raw: dict, inputs: Path, ref_samples: int, drift_tol: float) -> Scenario:
    path = inputs / f"{raw['name']}.json"
    path.write_text(json.dumps(raw, indent=1))
    return Scenario(raw["name"], raw, ref_samples, drift_tol, path)


def build(workload: str, seed: int, workdir: Path) -> Plan:
    """Write the workload's inputs under ``workdir`` and return its pass."""
    from vortexcyl import cli

    rng = np.random.default_rng([seed, NAMES.index(workload)])
    inputs, outputs = workdir / "inputs", workdir / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    scenarios: dict[str, Scenario] = {}

    if workload == "presets":
        for name, t_end in PRESET_T_END.items():
            scenarios[name] = Scenario(name, {**cli.PRESETS[name], "t_end": t_end}, 3, 1e-10)
            outdir = outputs / name
            ops.append(
                Op(
                    "simulate",
                    ("simulate", "--preset", name, "--out", str(outdir), "--t-end", repr(t_end)),
                    ((name, outdir),),
                )
            )
        return Plan(workload, tuple(ops), scenarios, tuple(PRESET_T_END))

    if workload in ("many-vortex", "dense-midpoint"):
        if workload == "many-vortex":
            draws, ref_samples, tol = 1, 2, 1e-4
            system = dict(n=32, r_min=2.5, r_max=9.0, spacing=1.0, dt=2e-3, t_end=0.004, stride=10, integrator="rk4")
        else:
            # Midpoint iterations per step vary from 4 to 6 between draws, so a
            # pass averages many draws to keep the work per pass nearly seed-free.
            draws, ref_samples, tol = 16, 11, 1e-5
            system = dict(n=4, r_min=1.5, r_max=4.0, spacing=0.8, dt=1e-3, t_end=0.01, stride=1, integrator="midpoint")
        for d in range(draws):
            name = workload if draws == 1 else f"{workload}{d}"
            for raw in _chart_pair(rng, name, **system).values():
                scn = _write(raw, inputs, ref_samples, tol)
                scenarios[scn.key] = scn
                outdir = outputs / scn.key
                ops.append(Op("simulate", ("simulate", str(scn.path), "--out", str(outdir)), ((scn.key, outdir),)))
        return Plan(workload, tuple(ops), scenarios, tuple(str(s.path) for s in scenarios.values()))

    if workload == "certify":
        ops.append(Op("verify", ("verify",)))
        for chart in ("momentum", "velocity"):
            batch = []
            for i in range(4):
                pair = _chart_pair(rng, f"sweep{i}", n=2 + i % 2, r_min=1.5, r_max=4.0, spacing=0.8,
                                   dt=1e-3, t_end=0.1, stride=10, integrator="rk4")
                scn = _write(pair[chart], inputs, 3, 1e-8)
                scenarios[scn.key] = scn
                batch.append(scn)
            root = outputs / f"sweep-{chart}"
            argv = ("sweep", *(str(s.path) for s in batch), "--out", str(root), "--jobs", "2")
            ops.append(Op("sweep", argv, tuple((s.key, root) for s in batch)))
        return Plan(workload, tuple(ops), scenarios, tuple(str(s.path) for s in scenarios.values()))

    raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")
