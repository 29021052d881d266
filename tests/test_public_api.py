"""Every name a module exports by ``__all__`` exists: a stale entry makes
``from <module> import *`` raise AttributeError."""

import pkgutil

import pytest

import subharnack

MODULES = ["subharnack"] + [f"subharnack.{info.name}" for info in
                            pkgutil.iter_modules(subharnack.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_finds_every_exported_name(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
