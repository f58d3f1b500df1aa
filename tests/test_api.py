"""Every name a cmvm module exports in ``__all__`` must resolve."""

import importlib
import pkgutil

import pytest

import cmvm

MODULES = sorted(info.name for info in pkgutil.iter_modules(cmvm.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_exports_resolve(module):
    mod = importlib.import_module(f"cmvm.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
