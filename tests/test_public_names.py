"""Every name a fatpath module exports must exist, so a deletion that leaves
its ``__all__`` entry behind fails here rather than at a caller's import.
No module checks anything with ``assert``, which ``python -O`` strips.  And
importing the package loads no networkx, which only validation and the
min-fill decomposition import, on first use."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_no_assert_in_the_package():
    package = fatpath.__path__[0]
    names = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert "dp.py" in names and "__init__.py" in names
    found = []
    for name in names:
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), name)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_import_loads_no_networkx():
    code = (
        "import sys\n"
        "import fatpath, fatpath.cli\n"
        "raise SystemExit('networkx' in sys.modules)\n"
    )
    src = os.path.dirname(fatpath.__path__[0])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert done.returncode == 0
