"""The README's `gamma invert` and `gamma kernel`, and `gamma delta` at
degree 294, as fresh processes.

`gamma invert` at truncation 8 runs as the workflow's step "gamma invert at
truncation 8" runs it, with the same inline right-hand side of 6 x 8 = 48
integers, and the residual, computed one block row at a time, must keep all
46 digits of the dense product.  The full JSON of both commands is pinned
byte for byte against the files in tests/golden, captured from the
PadicScalar route that the integer blocks of `senlab.gamma` replaced.
`gamma delta` over Q_7(zeta_343) runs the workflow's step "gamma delta
without the field", whose Tate bound reads the level's integers alone; its
JSON is pinned too.  The wall-clock limits stay in the workflow."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
LEVEL = ["--p", "3", "--m", "2", "--a", "10", "--e", "1", "--trunc", "8"]
RHS = json.dumps({"coeffs": [str(k) for k in range(1, 49)]})


def _senlab(*argv):
    """stdout of a fresh `python -m senlab.cli *argv`, which must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "senlab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_invert_at_truncation_8_keeps_46_digits():
    report = json.loads(_senlab("gamma", "invert", *LEVEL, "--rhs", RHS))
    assert report["residual_valuation"] == "46"


def test_invert_prints_the_golden_report(tmp_path):
    # the README passes the right-hand side as a file
    rhs = tmp_path / "rhs.json"
    rhs.write_text(RHS)
    assert _senlab("gamma", "invert", *LEVEL, "--rhs", str(rhs)) == \
        (GOLDEN / "gamma_invert.json").read_text()


def test_kernel_prints_the_golden_report():
    assert _senlab("gamma", "kernel", *LEVEL) == (GOLDEN / "gamma_kernel.json").read_text()


def test_delta_without_the_field_prints_the_golden_report():
    # degree 294: a level that built the cyclotomic field would take about 20 s
    out = _senlab("gamma", "delta", "--p", "7", "--m", "3", "--a", "2", "--nmin", "1",
                  "--nmax", "2", "--prec", "10")
    assert out == (GOLDEN / "gamma_delta_degree_294.json").read_text()
