"""Spans at vortexcyl's layer boundaries, recorded from outside the package.

The tracer replaces each boundary function with a timing wrapper wherever a
vortexcyl module binds it (the defining module, ``from`` imports and the
package namespace), so calls from one layer into the next are seen without
changing the program. Spans are kept in memory and written when the run ends.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# (span name, module under vortexcyl, attribute); cli.config has two entry points.
BOUNDARIES = (
    ("cli.config", "cli", "load_config"),
    ("cli.config", "cli", "config_from_dict"),
    ("dynamics.integrate", "dynamics", "integrate"),
    ("energetics.hamiltonian_gradient", "energetics", "hamiltonian_gradient"),
    ("fluid.grad_kirchhoff_routh", "fluid", "grad_kirchhoff_routh"),
    ("fluid.VortexSet.validate", "fluid", "VortexSet.validate"),
    ("structures.structure_matrix", "structures", "structure_matrix"),
    ("energetics.hamiltonian", "energetics", "hamiltonian"),
    ("fluid.kirchhoff_routh", "fluid", "kirchhoff_routh"),
    ("maps.shift_map", "maps", "shift_map"),
    ("se2.rotation", "se2", "rotation"),
    ("cli.write_trajectory_csv", "cli", "write_trajectory_csv"),
    ("dynamics.diagnostics", "dynamics", "diagnostics"),
    ("cli.verify", "cli", "verify"),
    ("structures.jacobi_residual", "structures", "jacobi_residual"),
    ("structures.interaction_bracket_coefficients", "structures", "interaction_bracket_coefficients"),
    ("oracle.pushforward_check", "oracle", "pushforward_check"),
    ("maps.cocycle_sigma", "maps", "cocycle_sigma"),
    ("cli.sweep", "cli", "sweep"),
)
NAMES = tuple(dict.fromkeys(name for name, _, _ in BOUNDARIES))


def _pair_evals(vortices, *_args, **_kw) -> int:
    return vortices.n * (vortices.n - 1)


def _csv_bytes(_traj, path, *_args, **_kw) -> int:
    return Path(path).stat().st_size


# Work counted at a boundary, from its arguments once the call returns.
WORK = {"fluid.grad_kirchhoff_routh": _pair_evals, "cli.write_trajectory_csv": _csv_bytes}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    run: str  # the operation that caused it
    work: int = 0


class Tracer:
    """Install with ``with tracer:``; spans accumulate in ``spans`` until it is replaced."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if stack and self.spans[stack[-1]].name == name:
                return fn(*args, **kwargs)  # load_config -> config_from_dict is one span
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.run)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if work is not None:
                span.work = work(*args, **kwargs)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in sys.modules.items() if k == "vortexcyl" or k.startswith("vortexcyl.")]
        for name, modname, attr in BOUNDARIES:
            module = sys.modules[f"vortexcyl.{modname}"]
            if "." in attr:  # a method: replace it on its class
                cls, attr = attr.split(".")
                original = getattr(getattr(module, cls), attr)
                targets = [(getattr(module, cls), attr)]
            else:
                original = getattr(module, attr)
                targets = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            wrapper = self._wrap(name, original)
            for target, key in targets:
                self._saved.append((target, key, original))
                setattr(target, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for target, key, original in reversed(self._saved):
            setattr(target, key, original)
        self._saved.clear()


def write_spans(spans: list[Span], path: Path) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s.__dict__) + "\n")


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per boundary: calls, self time, total time and work.

    Self time is a span's duration minus that of its direct children; calls
    are nested, so children of one span never overlap.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0} for name in NAMES}
    for s, child in zip(spans, child_time):
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += (s.end - s.start) - child
        row["total_s"] += s.end - s.start
        row["work"] += s.work
    return out


def calls_under(spans: list[Span], name: str, ancestor: str) -> int:
    """Calls of ``name`` made, at any depth, inside a span named ``ancestor``."""
    count = 0
    for s in spans:
        if s.name == name:
            p = s.parent
            while p >= 0 and spans[p].name != ancestor:
                p = spans[p].parent
            count += p >= 0
    return count
