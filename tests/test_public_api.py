"""Every name a module exports by ``__all__`` exists: a stale entry makes
``from <module> import *`` raise AttributeError.  The package itself
exports nothing, so importing it loads no dependency."""

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


def test_package_import_loads_neither_numpy_nor_scipy():
    # each public name has one import path, through its module: the
    # package itself imports nothing
    src = str(Path(subharnack.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, subharnack; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
