"""Command-line front end: simulate / verify / sweep.

Configs are JSON files mirroring SimConfig; trajectories go to CSV at full
round-trip precision (17 significant digits) plus a plain-text summary.
``verify`` certifies each of its six rows on a stack of drawn states in one
call of each public certificate function of ``structures``, ``energetics``,
``maps`` and ``oracle``, which validates the stack, drawing each quantity of a
row's states in one generator call.
``sweep`` validates every file in this process first, then runs the valid
configs here, one after another, when one worker would do, and otherwise in a
process pool of at most one worker per config (by default one per CPU this
process may run on) that stays up for the next ``sweep`` with the same worker
count. The pool gets one task per worker: a contiguous share of the configs,
run one after another, whose results come back together; they are printed in
input order.
Exit codes: 0 success, 1 a ``verify`` certificate failed, 2 bad config or
usage (also a ``t_end`` off the ``dt`` grid by more than a relative 1e-9, a
table of recorded samples larger than physical memory, more than 2**53 steps
or a ``t_end / dt`` that overflows, ``sweep --jobs`` below 1, a number outside
the float range, JSON nested too deeply to parse, a radius or clearance
whose square leaves the float range, a locked inertia mass + pi radius**2
that overflows, an energy or Casimir at t = 0 that is not finite, or an output
directory that cannot be made or written), 3 halted run
(collision, a stage outside the fluid domain, or non-convergence).
"""
from __future__ import annotations

import argparse
import atexit
import dataclasses
import functools
import itertools
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .dynamics import SimConfig, Trajectory, active_backend, diagnostics, integrate
from .energetics import BodyParams, hamiltonian
from .fluid import ValidationError, VortexSet
from .maps import cocycle_sigma, inverse_shift_map, shift_map
from .oracle import pushforward_check
from .state import MOMENTUM, VELOCITY, CHART_ALIASES, ChartState, canonical_chart
from .structures import (
    interaction_bracket_coefficients, jacobi_residual, momentum_structure_matrix, velocity_structure_matrix,
)

if TYPE_CHECKING:
    import concurrent.futures

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HALT = 3

# ``sweep``'s process pool and its worker count, kept between calls so that a
# caller running many sweeps starts its workers once (a pool's start and
# shutdown took about 10 ms of a 37 ms sweep of 4 short configs). Its workers
# are forked when it starts and run the program as it was then.
_pool: tuple[int, concurrent.futures.ProcessPoolExecutor] | None = None

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
    "pose",
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
    # free body with zero momentum (A, L) = 0, so not at rest (V = i lam / c), and an opposite-sign pair
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


def config_from_dict(raw: dict) -> SimConfig:
    """The SimConfig of a parsed config dictionary: unknown and missing keys are rejected
    here, and each value is admitted by the constructor that owns its field."""
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    missing = {"chart", "radius", "mass", "inertia", "dt", "t_end"} - set(raw)
    if missing:
        raise ValidationError(f"missing config keys: {sorted(missing)}")
    return SimConfig(
        chart=raw["chart"],
        body=BodyParams(mass=raw["mass"], inertia=raw["inertia"], radius=raw["radius"]),
        vortices=VortexSet(raw.get("strengths", []), raw.get("positions", [])),
        body_state=raw.get("body", [0.0, 0.0, 0.0]),
        dt=raw["dt"],
        t_end=raw["t_end"],
        integrator=raw.get("integrator", "rk4"),
        stride=raw.get("stride", 1),
        clearance=raw.get("clearance"),
        name=raw.get("name", ""),
        pose=raw.get("pose", [0.0, 0.0, 0.0]),
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
    except RecursionError:
        raise ValidationError("cannot parse: JSON nested too deeply") from None
    except ValueError as exc:  # an integer literal longer than Python's digit limit
        raise ValidationError(f"cannot parse: {exc}") from None
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
    header = _csv_header(config)
    inertial = traj.inertial_positions.reshape(traj.n_samples, 2 * config.vortices.n)
    sums = [traj.energy[:, None], traj.casimir[:, None], traj.l_drift[:, None]]
    table = np.concatenate([traj.times[:, None], traj.states, traj.poses, inertial, *sums], axis=1)
    row = ",".join(["%.17g"] * len(header))  # the bytes of _fmt, value by value
    lines = [",".join(header), *(row % tuple(values) for values in table.tolist())]
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _summary_lines(traj: Trajectory, wall: float) -> list[str]:
    rep = diagnostics(traj)
    config = traj.config
    return [
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
        f"rhs_evals = {traj.rhs_evals}",
        f"max_midpoint_iterations = {traj.max_midpoint_iterations}",
        f"wall_time_s = {wall:.3f}",
    ]


def run(config: SimConfig, outdir: str | Path) -> int:
    """Integrate one scenario and write trajectory.csv + summary.txt; raises
    ValidationError, and writes nothing, if the energy or Casimir at t = 0 is not
    finite, and a one-line ValidationError if the output cannot be written."""
    start = time.perf_counter()
    traj = integrate(config)
    wall = time.perf_counter() - start
    outdir = Path(outdir)
    summary = "\n".join(_summary_lines(traj, wall)) + "\n"
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(traj, outdir / "trajectory.csv")
        (outdir / "summary.txt").write_text(summary)
    except OSError as exc:  # such as an --out that names a file, or a directory without write permission
        raise ValidationError(f"cannot write {exc.filename or outdir}: {exc.strerror or exc}") from None
    return EXIT_HALT if traj.halt else EXIT_OK


def _verify_report() -> tuple[list[tuple[str, float, float, bool]], bool]:
    """Structure/Jacobi/pushforward certification at random admissible states.

    Each row draws its stack of states from one seeded stream and evaluates it
    in one call of each public function, which validates it. A row's value is
    its worst state's."""
    rng = np.random.default_rng(20240817)
    body = BodyParams(mass=np.pi, inertia=1.0, radius=1.0)

    def draw(count: int, n: int = 2) -> tuple[np.ndarray, np.ndarray]:
        """count states, each quantity drawn once for the whole stack: (count, 3 + 2N) and (count, N)."""
        g = rng.uniform(0.5, 2.0, (count, n)) * rng.choice([-1.0, 1.0], (count, n))
        r = rng.uniform(1.6, 3.0, (count, n))
        th = rng.uniform(0, 2 * np.pi, (count, n))
        pos = np.stack([r * np.cos(th), r * np.sin(th)], axis=2)
        return np.concatenate([rng.normal(0, 1, (count, 3)), pos.reshape(count, 2 * n)], axis=1), g

    rows: list[tuple[str, float, float, bool]] = []

    def row(name: str, values, tol: float) -> None:
        worst = float(np.max(values))
        rows.append((name, worst, tol, worst <= tol))

    for chart, matrices in (
        ("momentum", momentum_structure_matrix),
        ("velocity", functools.partial(velocity_structure_matrix, body=body)),
    ):
        z, g = draw(20)
        residuals = jacobi_residual(
            lambda s: matrices(ChartState.from_flat(chart, s), g[:, None]), z, 1e-5 * (1 + np.max(np.abs(z), axis=1))
        )
        row(f"jacobi {chart} chart", residuals, 1e-6)

    z, g = draw(100)
    row("shift-map pushforward", pushforward_check(ChartState.from_flat("velocity", z), body, g), 1e-9)

    z, g = draw(100)
    states = ChartState.from_flat("velocity", z)
    lam = velocity_structure_matrix(states, g, body)
    pi_pi, pi_vortex, vortex = interaction_bracket_coefficients(states, g, body)
    dev = [
        np.abs(pi_pi - body.c**2 * lam[:, 1, 2]),
        np.abs(pi_vortex[:, 0, 0::2] - body.c * lam[:, 1, 3::2]),
        np.abs(pi_vortex[:, 1, 1::2] - body.c * lam[:, 2, 4::2]),
        np.abs(np.diagonal(vortex, axis1=1, axis2=2) - np.diagonal(lam[:, 3::2, 4::2], axis1=1, axis2=2)),
    ]
    row("interaction bracket vs matrix", [np.max(d) for d in dev], 1e-10)

    z, g = draw(100)
    states = ChartState.from_flat("velocity", z)
    hb = hamiltonian("velocity", states, body, g)
    ha = hamiltonian("momentum", shift_map(states, g, body), body, g)
    row("energy across shift map", np.abs(ha - hb) / np.maximum(1.0, np.abs(hb)), 1e-10)

    z, g = draw(20)
    sigma = cocycle_sigma(z[:, 3:].reshape(len(z), -1, 2), g, body.radius)
    row("cocycle components", np.abs([sigma[:, 1, 2] + g.sum(axis=1), sigma[:, 0, 1], sigma[:, 0, 2]]), 1e-10)

    return rows, all(r[3] for r in rows)


def verify(_args: argparse.Namespace) -> int:
    rows, ok = _verify_report()
    width = max(len(r[0]) for r in rows)
    print(f"{'check':<{width}}  {'value':>12}  {'tolerance':>10}  status")
    for name, value, tol, passed in rows:
        print(f"{name:<{width}}  {value:12.3e}  {tol:10.0e}  {'pass' if passed else 'FAIL'}")
    return EXIT_OK if ok else 1


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


def _sweep_pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """The kept pool if it has ``workers`` workers, else a new one in its place."""
    global _pool
    import concurrent.futures  # here, so only a sweep with a pool pays its import (about 5 ms, most of it logging)

    if _pool is not None and _pool[0] != workers:
        _close_sweep_pool()
    if _pool is None:
        _pool = (workers, concurrent.futures.ProcessPoolExecutor(max_workers=workers))
    return _pool[1]


def _close_sweep_pool() -> None:
    global _pool
    if _pool is not None:
        _pool[1].shutdown(cancel_futures=True)
        _pool = None


# close a kept pool while the modules its shutdown uses are still there
atexit.register(_close_sweep_pool)


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says; else the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_run(config: SimConfig, outdir: Path) -> tuple[int, str]:
    """``run`` for one sweep entry: its exit code, and the message of a run it rejects."""
    try:
        return run(config, outdir), ""
    except ValidationError as exc:
        return EXIT_CONFIG, str(exc)


def sweep(paths: list[str], outroot: str | Path, jobs: int | None = None) -> int:
    """Run several scenarios with isolated output directories.

    Every file is read and validated here, in input order. The workers are at
    most ``jobs`` (by default the CPUs this process may run on) and at most
    the valid configs. With one worker the configs run one after another in
    this process; otherwise they run in the kept process pool (see ``_pool``),
    replaced when the worker count changes and closed when the sweep raises.
    Each worker gets one task: a contiguous share of ceil(configs / workers)
    configs in input order, run one after another, its results sent back in
    one message. So configs of very unequal length can finish later than they
    would one task each, and when a run raises anything but
    ``ValidationError`` the ``exit`` lines of the configs before it in its
    share are not printed. A config that ``run`` rejects prints its
    ``path: message`` line and exits 2, like an invalid file."""
    if jobs is not None and jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {jobs}")
    outroot = Path(outroot).absolute()  # a kept worker's working directory is the one it was forked in
    configs: list[SimConfig | None] = []
    for path in paths:
        try:
            configs.append(load_config(path))
        except ValidationError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            configs.append(None)
    valid = [(config, outroot / name) for config, name in zip(configs, _output_names(paths)) if config is not None]
    # the pool starts all its workers at the first task, so start no more than there are configs
    workers = min(jobs or _usable_cpus(), len(valid))
    if workers > 1:  # one pickled task, and one message back, per worker
        results = _sweep_pool(workers).map(_sweep_run, *zip(*valid), chunksize=-(-len(valid) // workers))
    else:
        results = itertools.starmap(_sweep_run, valid)
    worst = EXIT_OK
    try:
        for path, config in zip(paths, configs):
            code, message = (EXIT_CONFIG, "") if config is None else next(results)
            if message:
                print(f"{path}: {message}", file=sys.stderr)
            print(f"{path}: exit {code}")
            worst = max(worst, code)
    except BaseException:
        if workers > 1:
            _close_sweep_pool()  # a broken or interrupted pool is not kept
        raise
    return worst


def _config_with_overrides(raw: dict, args: argparse.Namespace) -> SimConfig:
    """The SimConfig of ``raw`` with the flags' fields. ``--chart`` names the chart of a
    file without one; naming the other chart, it carries the body triple through the
    shift map, so the run starts from the same physical state."""
    overrides = {"dt": args.dt, "t_end": args.t_end, "integrator": args.integrator}
    given = {"chart": args.chart} if args.chart else {}
    config = config_from_dict({**given, **raw, **{k: v for k, v in overrides.items() if v is not None}})
    if args.chart and canonical_chart(args.chart) != config.chart:
        chart_map = shift_map if config.chart == VELOCITY else inverse_shift_map
        start = chart_map(config.initial_state, config.vortices.strengths, config.body)
        config = dataclasses.replace(config, chart=start.chart, body_state=start.body)
    return config


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
    sim.add_argument("--chart", choices=sorted(CHART_ALIASES), help="run in this chart from the same physical start")
    sim.add_argument("--dt", type=float, help="override the step size")
    sim.add_argument("--t-end", dest="t_end", type=float, help="override the final time")
    sim.add_argument("--integrator", choices=["rk4", "midpoint"], help="override the integrator")

    sub.add_parser("verify", help="run the structure/Jacobi/pushforward certification suite")

    sw = sub.add_parser(
        "sweep",
        help="run several scenarios, in a process pool when more than one worker and config",
        description="Run several scenarios with isolated output directories. With more than one worker "
        "and more than one valid config, each worker of a process pool runs one contiguous share of the "
        "configs, one after another, so configs of very unequal length can finish later than they would "
        "one task each. Results print in input order.",
    )
    sw.add_argument("configs", nargs="+", help="JSON scenario files")
    sw.add_argument("--out", required=True, help="root output directory")
    sw.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="at most this many worker processes (default: the CPUs this process may run on)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "simulate":
            raw = PRESETS[args.preset] if args.preset else _read_config(args.config)
            return run(_config_with_overrides(raw, args), args.out)
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
