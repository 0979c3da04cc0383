"""A fresh process loads only the senlab modules its command runs: `import
senlab` loads none, and each CLI command group loads its own modules."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FIELD = json.dumps({"p": 3, "prec": 40, "unramified_poly": ["-1", "1"],
                    "eisenstein_poly": [["-3"], ["0"], ["1"]]})
ELEM = json.dumps({"coeffs": [["1", "1"]]})


def _loaded(*argv):
    """The senlab modules a fresh `python -X importtime *argv` imports, read
    from the import-time report on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(re.findall(r"^import time:.*\|\s*senlab\.(\w+)$", proc.stderr, re.M))


def test_import_senlab_loads_no_submodule():
    assert _loaded("-c", "import senlab") == set()


@pytest.mark.parametrize("argv, absent", [
    (["gamma", "delta", "--p", "3", "--m", "2", "--a", "10", "--nmin", "-2", "--nmax", "2"],
     {"field", "senmod", "dpseries", "linalg", "picard", "accept"}),
    (["field", "build", "--spec", FIELD],
     {"senmod", "dpseries", "gamma", "linalg", "picard", "accept"}),
    (["field", "trace", "--field", FIELD, "--elem", ELEM],
     {"senmod", "dpseries", "gamma", "linalg", "picard", "accept"}),
    (["picard", "boundary", "--field", FIELD, "--elem", ELEM],
     {"senmod", "dpseries", "gamma", "accept"}),
], ids=["gamma-delta", "field-build", "field-trace", "picard-boundary"])
def test_a_command_loads_only_its_modules(argv, absent):
    loaded = _loaded("-m", "senlab.cli", *argv)
    assert "jsonio" in loaded and loaded & absent == set()
