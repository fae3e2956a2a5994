"""Every layer boundary that ``perfbench/tracing.py`` wraps exists in the package.

The tracer looks each boundary up with a plain ``getattr``, so a boundary
deleted or renamed in ``vortexcyl`` would break a traced benchmark run. The
boundary table is read from the file's source, without importing it.
"""
import ast
import functools
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _boundaries():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "BOUNDARIES":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BOUNDARIES table in {TRACING}")


def test_every_traced_boundary_resolves_in_vortexcyl():
    boundaries = _boundaries()
    assert boundaries
    for _, module, attr in boundaries:
        target = functools.reduce(getattr, attr.split("."), importlib.import_module(f"vortexcyl.{module}"))
        assert callable(target), f"vortexcyl.{module}.{attr}"
