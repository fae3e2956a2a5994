"""Command-line front end: simulate / verify / sweep.

Configs are JSON files mirroring SimConfig; trajectories go to CSV at full
round-trip precision (17 significant digits) plus a plain-text summary.
Exit codes: 0 success, 2 bad config or usage, 3 halted run (collision,
a stage outside the fluid domain, or non-convergence).
"""
from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import SimConfig, Trajectory, active_backend, diagnostics, integrate
from .energetics import BodyParams
from .fluid import ValidationError, VortexSet
from .oracle import image_vortex_velocity
from .state import MOMENTUM, CHART_ALIASES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HALT = 3

_CONFIG_KEYS = {
    "name",
    "chart",
    "radius",
    "mass",
    "inertia",
    "strengths",
    "positions",
    "body",
    "dt",
    "t_end",
    "stride",
    "integrator",
    "clearance",
}

PRESETS: dict[str, dict] = {
    # straight-line potential-flow limit: no vortices, constant velocity
    "kirchhoff": {
        "name": "kirchhoff",
        "chart": "velocity",
        "radius": 1.0,
        "mass": np.pi,
        "inertia": 1.0,
        "strengths": [],
        "positions": [],
        "body": [0.0, 0.3, -0.2],
        "dt": 1e-3,
        "t_end": 10.0,
        "stride": 100,
        "integrator": "rk4",
    },
    # nearly fixed body, single vortex orbiting at twice the radius
    "single-vortex-fixed": {
        "name": "single-vortex-fixed",
        "chart": "velocity",
        "radius": 1.0,
        "mass": 1e6 * np.pi,
        "inertia": 1.0,
        "strengths": [2 * np.pi],
        "positions": [[2.0, 0.0]],
        "body": [0.0, 0.0, 0.0],
        "dt": 2e-3,
        "t_end": 75.4,
        "stride": 100,
        "integrator": "rk4",
    },
    # free body started at rest (zero momentum) with an opposite-sign pair
    "two-vortex-free": {
        "name": "two-vortex-free",
        "chart": "momentum",
        "radius": 1.0,
        "mass": np.pi,
        "inertia": 1.0,
        "strengths": [1.0, -1.0],
        "positions": [[3.0, 0.0], [0.0, 3.0]],
        "body": [0.0, 0.0, 0.0],
        "dt": 1e-3,
        "t_end": 10.0,
        "stride": 100,
        "integrator": "rk4",
    },
}


def _floats(raw: dict, key: str, default: list, shape: tuple[int | None, ...]) -> np.ndarray:
    """raw[key] (or default, when absent) as a float array of this shape; None is any length."""
    try:
        arr = np.asarray(raw.get(key, default), dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{key} must be an array of numbers") from None
    if arr.size == 0 and None in shape:
        arr = arr.reshape([d or 0 for d in shape])
    if arr.ndim != len(shape) or any(d is not None and d != a for d, a in zip(shape, arr.shape)):
        want = " x ".join("N" if d is None else str(d) for d in shape)
        got = " x ".join(map(str, arr.shape)) or "a scalar"
        raise ValidationError(f"{key} must have shape {want}, got {got}")
    return arr


def _number(raw: dict, key: str, default: float | None = None) -> float:
    """raw[key] (or default, when absent) as a float."""
    try:
        return float(raw.get(key, default))
    except (TypeError, ValueError):
        raise ValidationError(f"{key} must be a number") from None


def config_from_dict(raw: dict) -> SimConfig:
    """Validate a parsed config dictionary; unknown keys are rejected."""
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    missing = {"chart", "radius", "mass", "inertia", "dt", "t_end"} - set(raw)
    if missing:
        raise ValidationError(f"missing config keys: {sorted(missing)}")
    if not (isinstance(raw["chart"], str) and raw["chart"].lower() in CHART_ALIASES):
        raise ValidationError(f"chart must be one of {sorted(CHART_ALIASES)}")
    body = BodyParams(mass=_number(raw, "mass"), inertia=_number(raw, "inertia"), radius=_number(raw, "radius"))
    vortices = VortexSet(_floats(raw, "strengths", [], (None,)), _floats(raw, "positions", [], (None, 2)))
    return SimConfig(
        chart=raw["chart"],
        body=body,
        vortices=vortices,
        body_state=_floats(raw, "body", [0.0, 0.0, 0.0], (3,)),
        dt=_number(raw, "dt"),
        t_end=_number(raw, "t_end"),
        integrator=raw.get("integrator", "rk4"),
        stride=_number(raw, "stride", 1),
        clearance=None if raw.get("clearance") is None else _number(raw, "clearance"),
        name=raw.get("name", ""),
    )


def _read_config(path: str | Path) -> dict:
    """The parsed JSON object of a scenario file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"line {exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ValidationError("top level must be a JSON object")
    return raw


def load_config(path: str | Path) -> SimConfig:
    """Parse and validate a JSON scenario file."""
    return config_from_dict(_read_config(path))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_header(config: SimConfig) -> list[str]:
    n = config.vortices.n
    body_cols = ["A", "Lx", "Ly"] if config.chart == MOMENTUM else ["Omega", "Vx", "Vy"]
    cols = ["t", *body_cols]
    for i in range(1, n + 1):
        cols += [f"X{i}", f"Y{i}"]
    cols += ["beta", "x0_x", "x0_y"]
    for i in range(1, n + 1):
        cols += [f"x{i}_in", f"y{i}_in"]
    cols += ["H", "casimir", "L_drift"]
    return cols


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    config = traj.config
    assert config is not None
    header = _csv_header(config)
    inertial = traj.inertial_positions.reshape(traj.n_samples, 2 * config.vortices.n)
    sums = np.stack([traj.energy, traj.casimir, traj.l_drift], axis=1)
    table = np.concatenate([traj.times[:, None], traj.states, traj.poses, inertial, sums], axis=1)
    row = ",".join(["{:.17g}"] * len(header))  # the bytes of _fmt, value by value
    lines = [",".join(header), *(row.format(*values) for values in table.tolist())]
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _summary_lines(traj: Trajectory, wall: float) -> list[str]:
    rep = diagnostics(traj)
    config = traj.config
    assert config is not None
    lines = [
        f"scenario = {config.name or 'unnamed'}",
        f"chart = {config.chart}",
        f"backend = {active_backend()}",
        f"samples = {traj.n_samples}",
        f"t_final = {_fmt(traj.times[-1])}",
        f"max_rel_H_drift = {_fmt(rep.max_rel_energy_drift)}",
        f"max_casimir_drift = {_fmt(rep.max_casimir_drift)}",
        f"max_L_drift = {_fmt(rep.max_l_drift)}",
        f"min_body_clearance = {_fmt(rep.min_body_clearance)}",
        f"min_pair_distance = {_fmt(rep.min_pair_distance)}",
        f"halt = {traj.halt.reason if traj.halt else 'none'}",
    ]
    if config.vortices.n == 1 and config.body.mass > 1e3 * np.pi * config.body.radius**2:
        # near-fixed body: compare the orbit against the image-system oracle
        d = np.linalg.norm(traj.states[:, 3:5], axis=1)
        angles = np.unwrap(np.arctan2(traj.states[:, 4], traj.states[:, 3]))
        speed_oracle = float(
            np.linalg.norm(
                image_vortex_velocity(traj.states[0, 3:5], config.vortices.strengths[0], config.body.radius)
            )
        )
        omega_oracle = speed_oracle / d[0]
        omega_seen = abs(angles[-1] - angles[0]) / (traj.times[-1] - traj.times[0])
        lines += [
            f"orbit_radius_drift = {_fmt(np.max(np.abs(d - d[0])))}",
            f"orbit_rate_vs_image_oracle = {_fmt(abs(omega_seen - omega_oracle) / omega_oracle)}",
        ]
    lines.append(f"wall_time_s = {wall:.3f}")
    return lines


def run(config: SimConfig, outdir: str | Path) -> int:
    """Integrate one scenario and write trajectory.csv + summary.txt."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    traj = integrate(config)
    wall = time.perf_counter() - start
    write_trajectory_csv(traj, outdir / "trajectory.csv")
    (outdir / "summary.txt").write_text("\n".join(_summary_lines(traj, wall)) + "\n")
    return EXIT_HALT if traj.halt else EXIT_OK


def _verify_report() -> tuple[list[tuple[str, float, float, bool]], bool]:
    """Structure/Jacobi/pushforward certification at random admissible states."""
    from .energetics import hamiltonian
    from .maps import cocycle_sigma, shift_map
    from .oracle import pushforward_check
    from .state import ChartState
    from .structures import (
        interaction_bracket_coefficients,
        jacobi_residual,
        momentum_structure_matrix,
        velocity_structure_matrix,
    )

    rng = np.random.default_rng(20240817)
    body = BodyParams(mass=np.pi, inertia=1.0, radius=1.0)

    def random_state(chart: str, n: int = 2) -> tuple[ChartState, np.ndarray]:
        g = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        r = rng.uniform(1.6, 3.0, n)
        th = rng.uniform(0, 2 * np.pi, n)
        pos = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        return ChartState(chart, rng.normal(0, 1, 3), pos), g

    rows: list[tuple[str, float, float, bool]] = []

    worst = 0.0
    for _ in range(20):
        st, g = random_state("momentum")
        f = lambda z: momentum_structure_matrix(ChartState.from_flat("momentum", z), g)
        worst = max(worst, jacobi_residual(f, st.flat(), 1e-5 * (1 + float(np.max(np.abs(st.flat()))))))
    rows.append(("jacobi momentum chart", worst, 1e-6, worst <= 1e-6))

    worst = 0.0
    for _ in range(20):
        st, g = random_state("velocity")
        f = lambda z: velocity_structure_matrix(ChartState.from_flat("velocity", z), g, body)
        worst = max(worst, jacobi_residual(f, st.flat(), 1e-5 * (1 + float(np.max(np.abs(st.flat()))))))
    rows.append(("jacobi velocity chart", worst, 1e-6, worst <= 1e-6))

    worst = 0.0
    for _ in range(100):
        st, g = random_state("velocity")
        worst = max(worst, pushforward_check(st, body, g))
    rows.append(("shift-map pushforward", worst, 1e-9, worst <= 1e-9))

    worst = 0.0
    for _ in range(100):
        st, g = random_state("velocity")
        em_c = body.mass + np.pi * body.radius**2
        lam = velocity_structure_matrix(st, g, body)
        table = interaction_bracket_coefficients(st, g, body)
        dev = abs(table[("Pi_x", "Pi_y")] - em_c**2 * lam[1, 2])
        for i in range(st.n):
            dev = max(dev, abs(table[("Pi_x", f"X{i}")] - em_c * lam[1, 3 + 2 * i]))
            dev = max(dev, abs(table[("Pi_y", f"Y{i}")] - em_c * lam[2, 4 + 2 * i]))
            dev = max(dev, abs(table[(f"X{i}", f"Y{i}")] - lam[3 + 2 * i, 4 + 2 * i]))
        worst = max(worst, dev)
    rows.append(("interaction bracket vs matrix", worst, 1e-10, worst <= 1e-10))

    worst = 0.0
    for _ in range(100):
        st, g = random_state("velocity")
        z = shift_map(st, g, body)
        ha = hamiltonian("momentum", z, body, g)
        hb = hamiltonian("velocity", st, body, g)
        worst = max(worst, abs(ha - hb) / max(1.0, abs(hb)))
    rows.append(("energy across shift map", worst, 1e-10, worst <= 1e-10))

    worst = 0.0
    for _ in range(20):
        st, g = random_state("velocity")
        sig = cocycle_sigma(VortexSet(g, st.positions), body.fluid)
        dev = abs(sig.x_y + float(np.sum(g)))
        dev = max(dev, abs(sig.omega_x), abs(sig.omega_y))
        worst = max(worst, dev)
    rows.append(("cocycle components", worst, 1e-10, worst <= 1e-10))

    return rows, all(r[3] for r in rows)


def verify(_args: argparse.Namespace) -> int:
    rows, ok = _verify_report()
    width = max(len(r[0]) for r in rows)
    print(f"{'check':<{width}}  {'value':>12}  {'tolerance':>10}  status")
    for name, value, tol, passed in rows:
        print(f"{name:<{width}}  {value:12.3e}  {tol:10.0e}  {'pass' if passed else 'FAIL'}")
    return EXIT_OK if ok else 1


def _run_one(args: tuple[str, str]) -> tuple[str, int]:
    path, outdir = args
    try:
        code = run(load_config(path), outdir)
    except ValidationError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    return path, code


def _output_names(paths: list[str]) -> list[str]:
    """One distinct output directory name per input: its file stem, numbered where stems repeat."""
    stems = [Path(p).stem for p in paths]
    names: list[str] = []
    for stem in stems:
        name, k = stem, 1
        if stems.count(stem) > 1:
            while f"{stem}-{k}" in stems or f"{stem}-{k}" in names:
                k += 1
            name = f"{stem}-{k}"
        names.append(name)
    return names


def sweep(paths: list[str], outroot: str | Path, jobs: int | None = None) -> int:
    """Run several scenarios concurrently with isolated output directories."""
    outroot = Path(outroot)
    tasks = [(p, str(outroot / name)) for p, name in zip(paths, _output_names(paths))]
    worst = EXIT_OK
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        for path, code in pool.map(_run_one, tasks):
            print(f"{path}: exit {code}")
            worst = max(worst, code)
    return worst


def _apply_overrides(raw: dict, args: argparse.Namespace) -> dict:
    overrides = {}
    if args.chart:
        overrides["chart"] = args.chart
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.t_end is not None:
        overrides["t_end"] = args.t_end
    if args.integrator:
        overrides["integrator"] = args.integrator
    return {**raw, **overrides}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call of ``main``."""
    parser = argparse.ArgumentParser(
        prog="vortexcyl",
        description="Circular body + point vortices in a 2D ideal fluid, two equivalent Hamiltonian charts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate one scenario")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("config", nargs="?", help="path to a JSON scenario file")
    src.add_argument("--preset", choices=sorted(PRESETS), help="built-in scenario")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--chart", choices=sorted(CHART_ALIASES), help="override the chart")
    sim.add_argument("--dt", type=float, help="override the step size")
    sim.add_argument("--t-end", dest="t_end", type=float, help="override the final time")
    sim.add_argument("--integrator", choices=["rk4", "midpoint"], help="override the integrator")

    sub.add_parser("verify", help="run the structure/Jacobi/pushforward certification suite")

    sw = sub.add_parser("sweep", help="run several scenarios concurrently")
    sw.add_argument("configs", nargs="+", help="JSON scenario files")
    sw.add_argument("--out", required=True, help="root output directory")
    sw.add_argument("--jobs", type=int, default=None, help="worker processes")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "simulate":
            raw = PRESETS[args.preset] if args.preset else _read_config(args.config)
            return run(config_from_dict(_apply_overrides(raw, args)), args.out)
        if args.command == "verify":
            return verify(args)
        if args.command == "sweep":
            return sweep(args.configs, args.out, args.jobs)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
