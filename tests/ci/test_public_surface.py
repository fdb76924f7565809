"""The package's public surface: every ``__all__`` name resolves.

A re-export left behind by a deletion imports fine until someone does
``from repro.x import *`` or reads the name; this imports every module
under :mod:`repro` (the CLI entry points aside) and resolves every
name it exports.
"""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith("__main__")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
    assert len(modules) > 50
