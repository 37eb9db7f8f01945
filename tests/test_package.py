import json
import os
import pathlib
import subprocess
import sys

import freealg

_PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import freealg
for info in pkgutil.iter_modules(freealg.__path__):
    if info.name != "__main__":  # importing it would run the CLI
        importlib.import_module("freealg." + info.name)
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_package_imports_only_the_standard_library():
    # a fresh interpreter, so that what the tests themselves import does not
    # count; modules loaded before freealg (site hooks) are left out
    src = str(pathlib.Path(freealg.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = json.loads(out.stdout)
    assert "freealg" in loaded
    assert [m for m in loaded if m != "freealg" and m not in sys.stdlib_module_names] == []
