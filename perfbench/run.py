"""vortexcyl benchmark: one workload as a closed loop on the pure-numpy path.

Usage, from the root of a vortexcyl checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout. One caller runs each
``vortexcyl.cli`` operation of the workload in turn and waits for it; a pass
is one round of the workload's operations, repeated for ``--seconds``. Every
operation's output is checked against a reference built before timing.
With ``--trace 0`` the run reports end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show every
metric with its unit, the run record and, when traced, the self-time table.
Scratch files go to ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 2  # the CSV-bytes repeat check needs a second pass
SETUP_PROBES = 9  # spread evenly over the run
REF_RTOL = 1e-9  # leading samples against the reference, relative to the largest entry

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def reference_states(raw: dict, nsamples: int) -> np.ndarray:
    """Leading recorded chart states, integrated on the public oracle ``vortexcyl.rhs``.

    RK4, or implicit midpoint solved by fixed-point iteration until the
    increment stops decreasing, so the reference is converged to round-off.
    """
    import vortexcyl as vcl
    from vortexcyl import cli

    cfg = cli.config_from_dict(raw)
    chart, body, g, dt = cfg.chart, cfg.body, cfg.vortices.strengths, cfg.dt

    def f(z: np.ndarray) -> np.ndarray:
        return vcl.rhs(chart, vcl.ChartState.from_flat(chart, z), body, g)

    recorded = sorted({*range(0, cfg.nsteps + 1, cfg.stride), cfg.nsteps})[:nsamples]
    z = np.concatenate([cfg.body_state, cfg.vortices.positions.reshape(-1)])
    out = [z]
    for step in range(1, recorded[-1] + 1):
        if cfg.integrator == "rk4":
            k1 = f(z)
            k2 = f(z + 0.5 * dt * k1)
            k3 = f(z + 0.5 * dt * k2)
            k4 = f(z + dt * k3)
            z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            u, inc = z, np.inf
            for _ in range(100):
                u_next = z + 0.5 * dt * f(u)
                inc_next = float(np.max(np.abs(u_next - u)))
                u = u_next
                if inc_next == 0.0 or inc_next >= inc:
                    break
                inc = inc_next
            z = 2.0 * u - z
        if step in recorded:
            out.append(z)
    return np.array(out)


def _output_dir(key: str, where: Path) -> Path | None:
    """The directory holding scenario ``key``'s trajectory.csv under ``where``."""
    if (where / "trajectory.csv").is_file():
        return where
    found = [p.parent for p in where.rglob("trajectory.csv") if key in p.parent.name]
    return found[0] if len(found) == 1 else None


class Bench:
    """Runs a plan's passes, checks every output, and counts failures."""

    def __init__(self, plan: workloads.Plan) -> None:
        from vortexcyl import cli

        self.cli = cli
        self.plan = plan
        # References are built here, outside every timed region.
        self.references = {k: reference_states(s.raw, s.ref_samples) for k, s in plan.scenarios.items()}
        self.nsteps = {k: cli.config_from_dict(s.raw).nsteps for k, s in plan.scenarios.items()}
        self.samples: dict[str, int] = {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def _call(self, argv: tuple[str, ...]) -> tuple[int | None, str, float]:
        """Run one CLI call; returns (exit code or None if it raised, stdout, wall)."""
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(argv))
        except (Exception, SystemExit) as exc:  # a crash is a failed operation, not the end of the run
            code = None
            buf.write(f"raised {exc!r}")
        return code, buf.getvalue(), time.perf_counter() - start

    def _fail(self, label: str, reason: str) -> None:
        self.failures.append(f"{label}: {reason}")

    def check_run(self, key: str, where: Path) -> str | None:
        """Why integration ``key``'s output under ``where`` is wrong, or None."""
        outdir = _output_dir(key, where)
        if outdir is None:
            return "no trajectory.csv"
        try:
            return self._check_output(key, outdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    def _check_output(self, key: str, outdir: Path) -> str | None:
        scn = self.plan.scenarios[key]
        summary = dict(
            line.split(" = ", 1) for line in (outdir / "summary.txt").read_text().splitlines() if " = " in line
        )
        if summary.get("halt") != "none":
            return f"halt = {summary.get('halt')}"
        drift = float(summary["max_rel_H_drift"])
        if not drift <= scn.drift_tol:
            return f"max_rel_H_drift {drift:.3e} above {scn.drift_tol:.0e}"
        data = (outdir / "trajectory.csv").read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            return "trajectory.csv bytes differ from an earlier run of the same config"
        self.samples[key] = data.count(b"\n") - 1
        ref = self.references[key]
        lines = data.split(b"\n", ref.shape[0] + 1)[: ref.shape[0] + 1]
        header = lines[0].decode().split(",")
        n = (ref.shape[1] - 3) // 2
        body_cols = ["A", "Lx", "Ly"] if scn.raw["chart"] == "momentum" else ["Omega", "Vx", "Vy"]
        cols = [header.index(c) for c in body_cols + [f"{a}{i}" for i in range(1, n + 1) for a in "XY"]]
        rows = np.array([[float(v) for v in line.split(b",")] for line in lines[1:]]).reshape(-1, len(header))
        if rows.shape[0] < ref.shape[0]:
            return f"{rows.shape[0]} samples recorded, {ref.shape[0]} expected"
        err = float(np.max(np.abs(rows[:, cols] - ref))) / float(np.max(np.abs(ref)))
        if not err <= REF_RTOL:
            return f"leading samples differ from the reference by {err:.3e} relative"
        return None

    def op_chart(self, op: workloads.Op) -> str | None:
        return self.plan.scenarios[op.runs[0][0]].raw["chart"] if op.runs else None

    def op_steps(self, op: workloads.Op) -> int:
        return sum(self.nsteps[key] for key, _ in op.runs)

    def run_pass(self, label: str, tracer: tracing.Tracer | None = None) -> list[float]:
        """Run every operation once, check its outputs, and return the wall time of each."""
        walls = []
        for i, op in enumerate(self.plan.ops):
            if tracer is not None:
                tracer.run = f"{label}/{i}"
            for _, where in op.runs:  # so that a stale file cannot pass the checks
                shutil.rmtree(where, ignore_errors=True)
            code, stdout, wall = self._call(op.argv)
            walls.append(wall)
            tag = f"{label}/{i} {op.kind}"
            if op.kind == "verify":
                self.attempted += 1
                rows = [r for r in stdout.splitlines()[1:] if r.strip()]
                if code != 0 or len(rows) < 6 or not all(r.rstrip().endswith(" pass") for r in rows):
                    self._fail(tag, f"exit {code}, rows {rows}")
            for key, where in op.runs:
                self.attempted += 1
                if op.kind == "sweep":
                    path = self.plan.scenarios[key].path
                    reason = None if f"{path}: exit 0" in stdout.splitlines() else "no exit-0 line"
                else:
                    reason = None if code == 0 else f"exit {code}: {stdout.strip()[-200:]}"
                reason = reason or self.check_run(key, where)
                if reason:
                    self._fail(f"{tag} {key}", reason)
        return walls

    def serial_sweep_wall(self) -> float:
        """In-process wall time of the sweep entries run one after another."""
        total = 0.0
        for op in self.plan.ops:
            for key, where in op.runs if op.kind == "sweep" else ():
                path = self.plan.scenarios[key].path
                out = where.parent / f"serial-{where.name}" / key
                shutil.rmtree(out, ignore_errors=True)
                code, _, wall = self._call(("simulate", str(path), "--out", str(out)))
                total += wall
                self.attempted += 1
                reason = (None if code == 0 else f"exit {code}") or self.check_run(key, out)
                if reason:
                    self._fail(f"serial {key}", reason)
        return total


def setup_probe(plan: workloads.Plan) -> float:
    """Wall time of a fresh interpreter that imports vortexcyl and builds the plan's configs."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *plan.setup_args],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def end_to_end(bench: Bench, seconds: float) -> tuple[dict[str, tuple], int]:
    """Every rate is work over the summed fastest run of each operation.

    The machine this was tuned on (2 shared vCPUs) has slow spells, from
    milliseconds to minutes, in which the same work takes up to twice as
    long, in CPU time as well as wall time. Operations are kept short (tens
    to a few hundred milliseconds) so that the fastest run of each falls in
    a quiet moment; that figure repeats from run to run far better than the
    median, which is printed beside it. Set-up probes are spread evenly over
    the run; their median is reported.
    """
    passes: list[list[float]] = []
    setup: list[float] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() < start + seconds:
        passes.append(bench.run_pass(f"p{len(passes)}"))
        if time.perf_counter() >= start + len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_probe(bench.plan))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(bench.plan))
    ops = bench.plan.ops
    best = np.min(passes, axis=0)
    median = np.median(passes, axis=0)
    note = f"fastest of {len(passes)} per operation"

    def rate(work: list[int]) -> tuple[float, float]:
        """Work per second over the operations that do some, fastest and median."""
        mask = np.array(work) > 0
        return sum(work) / float(np.sum(best[mask])), sum(work) / float(np.sum(median[mask]))

    metrics = {"setup_s": (statistics.median(setup), "s", f"median of {len(setup)}")}
    for chart in ("momentum", "velocity"):
        fast, typical = rate([bench.op_steps(op) if bench.op_chart(op) == chart else 0 for op in ops])
        metrics[f"steps_per_s.{chart}"] = (fast, "steps/s", f"{note}; median {typical:.6g}")
    fast, typical = rate([max(1, len(op.runs)) for op in ops])
    metrics["ops_per_s"] = (fast, "1/s", f"{note}; median {typical:.6g}")
    for i, op in enumerate(ops):
        if op.kind == "verify":
            metrics["verify_s"] = (float(best[i]), "s", f"{note}; median {median[i]:.6g}")
    if any(op.kind == "sweep" for op in ops):
        fast, typical = rate([len(op.runs) if op.kind == "sweep" else 0 for op in ops])
        metrics["sweep_configs_per_s"] = (fast, "configs/s", f"{note}; median {typical:.6g}")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "")
    metrics["failure_share"] = (len(bench.failures) / bench.attempted, "ratio", f"of {bench.attempted} operations")
    return metrics, len(passes)


def per_layer(bench: Bench, seconds: float, spans_path: Path) -> tuple[dict[str, tuple], int, dict]:
    """Alternates untraced and traced passes.

    Layer figures come from the fastest traced pass, for the reason given in
    ``end_to_end``; calls and counts are per pass and repeat exactly.
    """
    tracer = tracing.Tracer()
    untraced, traced, serial = [], [], []
    fastest: list[tracing.Span] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        untraced.append(bench.run_pass(f"u{len(traced)}"))
        tracer.spans = []
        with tracer:
            traced.append(bench.run_pass(f"t{len(traced)}", tracer))
        if sum(traced[-1]) <= min(sum(w) for w in traced):
            fastest = tracer.spans
        if any(op.kind == "sweep" for op in bench.plan.ops):
            serial.append(bench.serial_sweep_wall())
    tracing.write_spans(fastest, spans_path)

    is_sweep = np.array([op.kind == "sweep" for op in bench.plan.ops])
    sweep_wall = float(np.sum(np.min(untraced, axis=0)[is_sweep]))
    layers = tracing.layer_totals(fastest)
    metrics: dict[str, tuple] = {}
    for name in tracing.NAMES:
        metrics[f"{name}.calls"] = (layers[name]["calls"], "count", "")
        metrics[f"{name}.self_s"] = (layers[name]["self_s"], "s", "")
    simulate_keys = [key for op in bench.plan.ops if op.kind == "simulate" for key, _ in op.runs]
    steps = sum(bench.nsteps[k] for k in simulate_keys)
    rhs_evals = tracing.calls_under(fastest, "structures.structure_matrix", "dynamics.integrate")
    grad = layers["fluid.grad_kirchhoff_routh"]
    metrics["dynamics.steps"] = (steps, "count", "")
    metrics["dynamics.samples"] = (sum(bench.samples.get(k, 0) for k in simulate_keys), "count", "")
    metrics["dynamics.rhs_evals_per_step"] = (rhs_evals / steps if steps else 0.0, "evals/step", "")
    metrics["fluid.pair_evals"] = (grad["work"], "count", "N(N-1) per gradient call")
    metrics["fluid.pair_evals_per_s"] = (grad["work"] / grad["total_s"] if grad["calls"] else 0.0, "1/s", "")
    metrics["cli.csv_bytes"] = (layers["cli.write_trajectory_csv"]["work"], "B", "")
    metrics["cli.sweep.parallel_efficiency"] = (
        min(serial) / (2.0 * sweep_wall) if serial else 0.0, "ratio", "fastest serial / (2 x fastest sweeps)")
    metrics["trace.overhead_share"] = (
        float(np.sum(np.min(traced, axis=0)) / np.sum(np.min(untraced, axis=0))) - 1.0, "ratio",
        "fastest traced vs fastest untraced run of each operation")
    return metrics, len(traced), layers


def run_record(workload: str, why: str, seed: int, passes: int) -> dict:
    import vortexcyl
    from vortexcyl.dynamics import active_backend

    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = res.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload,
        "seed": seed,
        "why": why,
        "passes": passes,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "vortexcyl": vortexcyl.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": active_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _self_time_table(layers: dict) -> list[str]:
    total = sum(row["self_s"] for row in layers.values()) or 1.0
    lines = [f"{'boundary':<46} {'calls':>9} {'self_s':>10} {'share':>7}"]
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<46} {row['calls']:>9} {row['self_s']:>10.4f} {row['self_s'] / total:>7.1%}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vortexcyl" / "__init__.py").is_file():
        print(f"error: no vortexcyl sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    sys.path.insert(0, str(SRC))

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    plan = workloads.build(args.workload, args.seed, out)
    (out / "workload.json").write_text(json.dumps({"workload": args.workload, "why": why}))
    bench = Bench(plan)
    if args.trace:
        metrics, passes, layers = per_layer(bench, args.seconds, out / "spans.jsonl")
    else:
        metrics, passes = end_to_end(bench, args.seconds)

    record = run_record(args.workload, why, args.seed, passes)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<46} {value:>16.6g} {unit:<10} {note}")
    if args.trace:
        print("\n".join(_self_time_table(layers)))
    for failure in bench.failures:
        print(f"FAILED {failure}")
    print("record " + json.dumps(record))
    (out / "result.json").write_text(
        json.dumps({"record": record, "metrics": metrics, "failures": bench.failures}, indent=1)
    )
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {},
    }
    for m in declared:
        value, unit, _ = metrics[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']}: measured in {unit}, declared in {m['unit']}")
        result["metrics"][m["name"]] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
