"""The runtime depends on numpy alone: importing the package and its CLI
after numpy loads no other third-party module."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# Prints the top-level modules that importing the given modules adds after
# numpy and that are not part of the standard library.
PROBE = """
import json, sys
import numpy

def tops():
    return {name.split(".")[0] for name in list(sys.modules)}

before = tops()
for name in sys.argv[1:]:
    __import__(name)
print(json.dumps(sorted(tops() - before - set(sys.stdlib_module_names))))
"""


def added_third_party(*modules):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", PROBE, *modules], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_package_and_cli_import_numpy_only():
    assert added_third_party("emolex", "emolex.cli") == ["emolex"]
