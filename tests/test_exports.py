"""Every name that the package or one of its modules lists in ``__all__`` resolves,
so ``from vortexcyl.<module> import *`` cannot fail on a stale entry, every
module uses each name it imports, and ``cli`` and ``oracle`` import no other
module's private names."""
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


def _private_imports(path: Path) -> list[str]:
    """Names with a leading underscore (dunders aside) that a module imports from
    another vortexcyl module, at module level or inside a function."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("vortexcyl")):
            found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


@pytest.mark.parametrize("name", ["cli.py", "oracle.py"])
def test_certificate_callers_import_no_private_name(name):
    # ``verify`` and the pushforward check run only the public certificate functions
    assert _private_imports(Path(vortexcyl.__file__).parent / name) == []
