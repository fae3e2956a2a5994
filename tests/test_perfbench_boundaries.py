"""Every package name the benchmark harness under ``perfbench/`` uses exists.

The tracer looks each layer boundary up with a plain ``getattr``, and the
harness imports names and reads attributes of the package, so a name deleted
or renamed in ``vortexcyl`` would break a benchmark run while every other test
passes. Both are read from the harness sources, without importing them.
"""
import ast
import functools
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _dotted(node):
    """"a.b.c" for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _harness_names(source):
    """The full names under ``vortexcyl`` that a harness source imports, or
    reads as attributes of what it imported or of a name it assigned that to
    (``self.cli = cli``)."""
    tree = ast.parse(source)
    aliases = {}  # a name bound in the source -> the full name it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname or a.name, a.name) for a in node.names if a.name.split(".")[0] == "vortexcyl")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vortexcyl":
            aliases.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _dotted(node.value) in aliases:
            aliases.update((_dotted(t), aliases[_dotted(node.value)]) for t in node.targets if _dotted(t))
    names = set(aliases.values())
    for node in ast.walk(tree):
        read = _dotted(node) if isinstance(node, ast.Attribute) else None
        root = read and next((a for a in sorted(aliases, key=len, reverse=True) if read.startswith(a + ".")), None)
        if root:
            names.add(aliases[root] + read[len(root) :])
    return names


def _resolve(name):
    """The object a full dotted name under ``vortexcyl`` stands for: the longest
    importable module prefix, then attribute reads."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        return functools.reduce(getattr, parts[i:], module)
    raise ModuleNotFoundError(name)


def test_every_name_the_harness_reads_resolves_in_vortexcyl():
    names = {name for path in PERFBENCH.glob("*.py") for name in _harness_names(path.read_text())}
    assert names
    for name in sorted(names):
        _resolve(name)
