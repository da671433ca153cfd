"""The package runs on the standard library alone."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import hexparity

# runs in a fresh interpreter: the modules loaded at startup (site hooks
# included) are set aside, then every hexparity submodule is imported and
# the new top-level modules outside the standard library are printed
CHILD = """
import importlib, pkgutil, sys
before = set(sys.modules)
import hexparity
for info in pkgutil.iter_modules(hexparity.__path__, "hexparity."):
    importlib.import_module(info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"hexparity"})))
"""


def test_package_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(hexparity.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
