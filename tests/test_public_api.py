"""Every name a module exports by ``__all__`` exists: a stale entry makes
``from <module> import *`` raise AttributeError.  The package itself
exports nothing, so importing it loads no dependency."""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import subharnack

MODULES = ["subharnack"] + [f"subharnack.{info.name}" for info in
                            pkgutil.iter_modules(subharnack.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_finds_every_exported_name(module):
    namespace = {}
    exec(f"from {module} import *", namespace)


def _modules_after(code, roots):
    """The loaded modules under the top-level packages ``roots`` after
    running ``code`` in a fresh interpreter."""
    src = str(Path(subharnack.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code += (f"; print(sorted(m for m in sys.modules "
             f"if m.split('.')[0] in {tuple(roots)!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_package_import_loads_neither_numpy_nor_scipy():
    # each public name has one import path, through its module: the
    # package itself imports nothing
    assert _modules_after("import sys, subharnack", ("numpy", "scipy")) == "[]"


def test_fracops_is_the_bottom_of_the_time_layer():
    # kernels and solver build on fracops, which imports only errors
    assert _modules_after("import sys, subharnack.fracops", ("subharnack",)) \
        == "['subharnack', 'subharnack.errors', 'subharnack.fracops']"


@pytest.mark.parametrize("module", ["fracops", "kernels"])
def test_time_layer_imports_only_at_module_top(module):
    # a function-local import is how a module hides a cycle; the time layer
    # has none (fracops' annotation-only import of kernels is not in a
    # function)
    tree = ast.parse(Path(subharnack.__file__).with_name(f"{module}.py")
                     .read_text())
    local = [node.lineno for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []
