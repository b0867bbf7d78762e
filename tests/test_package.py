"""Package surface: every module imports and every ``__all__`` resolves."""

import importlib
import pkgutil

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
