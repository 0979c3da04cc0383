"""The workflow's benchmark smoke on the series, modules and cyclotomic
workloads, as fresh processes.

`bench/run.py` exits 0 even when a task's check fails, so, as the workflow's
step "benchmark smoke" does, each test reads the verdict from the last JSON
line it prints: every result it timed must be correct, with no failed
operation.  The traced runs and the cli workload stay in the workflow."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _smoke(workload):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "2",
                           "--seconds", "1"], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0, \
        "benchmark smoke failed: %s" % report


def test_series_smoke_is_correct_with_no_failure():
    _smoke("series")


def test_modules_smoke_is_correct_with_no_failure():
    _smoke("modules")


def test_cyclotomic_smoke_is_correct_with_no_failure():
    _smoke("cyclotomic")
