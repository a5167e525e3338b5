import importlib
import pkgutil

import pytest

import htdsm

MODULES = sorted(m.name for m in pkgutil.iter_modules(htdsm.__path__, "htdsm."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """`from htdsm.<mod> import *` works: no name in __all__ is stale."""
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
    exec(f"from {name} import *", {})
