"""Package surface: every module imports, every ``__all__`` resolves, and
no module imports a name it never reads."""

import ast
import importlib
import pkgutil
from pathlib import Path

import orbita

MODULES = ["orbita"] + [
    m.name for m in pkgutil.walk_packages(orbita.__path__, "orbita.")
]


def test_every_module_imports():
    assert "orbita.poly_kernel.mpoly" in MODULES
    for name in MODULES:
        importlib.import_module(name)


def test_star_import_binds_every_public_name():
    for name in MODULES:
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        for public in getattr(importlib.import_module(name), "__all__", []):
            assert public in namespace, (name, public)


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_unused_imports():
    # package __init__ modules import to re-export, so they are exempt
    checked = 0
    for name in MODULES:
        path = Path(importlib.import_module(name).__file__)
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused = sorted(set(_imported_names(tree)) - read)
        assert not unused, (name, unused)
        checked += 1
    assert checked >= 10


ROOT = Path(__file__).resolve().parents[1]


def _referenced_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            for item in ast.walk(node.value):
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    yield item.value


def test_no_dead_definitions():
    # every function or method defined in the package is used somewhere in
    # the package, its tests or the benchmark
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for top in ("src", "tests", "perfbench")
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    used = {name for tree in trees.values() for name in _referenced_names(tree)}
    package = ROOT / "src" / "orbita"
    defined = {
        node.name
        for path, tree in trees.items()
        if package in path.parents
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    assert len(defined) > 100
    assert sorted(defined - used) == []
