import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_importing_the_package_loads_no_scipy():
    """scipy is a test-only oracle: no module of the package may import it."""
    src = str(Path(htdsm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "".join(f"import {name}\n" for name in MODULES) + (
        "import sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
