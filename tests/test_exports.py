"""Every name that the package or one of its modules lists in ``__all__`` resolves,
so ``from vortexcyl.<module> import *`` cannot fail on a stale entry, every
module uses each name it imports, ``cli`` and ``oracle`` import no other
module's private names, no module imports a private name from ``oracle``, and
the package raises one error class of its own."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import vortexcyl

MODULES = ["vortexcyl", *(f"vortexcyl.{info.name}" for info in pkgutil.iter_modules(vortexcyl.__path__))]
SOURCES = sorted(Path(vortexcyl.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [entry for entry in exported if not hasattr(module, entry)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads. ``__all__`` entries count as reads, so the
    package namespace's re-exports pass."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def _private_imports(path: Path, source: str | None = None) -> list[str]:
    """Names with a leading underscore (dunders aside) that a module imports from
    another vortexcyl module, or only from the module named ``source``, at module
    level or inside a function."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom) or not (node.level or (node.module or "").startswith("vortexcyl")):
            continue
        if source is None or (node.module or "").split(".")[-1] == source:
            found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


@pytest.mark.parametrize("name", ["cli.py", "oracle.py"])
def test_certificate_callers_import_no_private_name(name):
    # ``verify`` and the pushforward check run only the public certificate functions
    assert _private_imports(Path(vortexcyl.__file__).parent / name) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name_from_oracle(path):
    # the certificates take their central differences from the public fd_stencil and fd_combine
    assert _private_imports(path, "oracle") == []


def _error_classes_and_value_errors(path: Path) -> list[str]:
    """Exception classes a module defines, by its resolved bases, and its ``raise ValueError``
    statements."""
    module = importlib.import_module("vortexcyl" if path.stem == "__init__" else f"vortexcyl.{path.stem}")
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef):
            bases = [eval(ast.unparse(base), vars(module)) for base in node.bases]
            if any(isinstance(base, type) and issubclass(base, BaseException) for base in bases):
                found.append(f"{path.stem}.{node.name}")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(raised, ast.Name) and raised.id == "ValueError":
                found.append(f"{path.name}:{node.lineno} raise ValueError")
    return found


def test_one_error_class_and_no_bare_value_error():
    # every input the library rejects raises fluid.ValidationError; the drive loop's
    # private signal for a stage that left the fluid never leaves _kernels
    found = [entry for path in SOURCES for entry in _error_classes_and_value_errors(path)]
    assert found == ["_kernels._OutsideDomain", "fluid.ValidationError"]
