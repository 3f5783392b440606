"""Every name a fatpath module exports must exist, so a deletion that leaves
its ``__all__`` entry behind fails here rather than at a caller's import."""

import importlib
import pkgutil

import fatpath


def test_public_names_resolve():
    modules = [fatpath] + [
        importlib.import_module(f"fatpath.{info.name}")
        for info in pkgutil.iter_modules(fatpath.__path__)
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 11  # every module but the command line
    for module in exporting:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
