"""The precision-monotone check that gates regenerating a golden (tests/golden_check.py).

Every golden in tests/golden parses under it and accepts itself; a fresh
output that keeps every digit and claims more is accepted with its summary;
one planted fault per rule is refused, for a JSON golden and a demo's
stdout: a number that claims fewer digits, a digit that changed within the
old precision, and a change outside the numbers."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from golden_check import GoldenMismatch, compare

GOLDEN = Path(__file__).resolve().parent / "golden"
JSON_GOLDEN = (GOLDEN / "gamma_invert.json").read_text()
TEXT_GOLDEN = (GOLDEN / "demo_01_padic_arithmetic.txt").read_text()


def _with_first_scalar(text, **fields):
    """The JSON golden with the first wire-format scalar's fields replaced."""
    tree = json.loads(text)
    tree["solution"][0].update(fields)
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("path", sorted(GOLDEN.iterdir()), ids=lambda p: p.name)
def test_every_golden_accepts_itself(path):
    summary = compare(path.read_text(), path.read_text())
    assert summary["changed"] == summary["digits_gained"] == 0


def test_the_goldens_hold_numbers_of_every_kind():
    # wire-format scalars, printed scalars and zeros, printed field elements
    assert compare(JSON_GOLDEN, JSON_GOLDEN)["numbers"] > 40
    assert compare(TEXT_GOLDEN, TEXT_GOLDEN)["numbers"] == 6
    demo = (GOLDEN / "demo_03_divided_power_series.txt").read_text()
    assert compare(demo, demo)["numbers"] == 1


def test_more_digits_that_agree_are_accepted():
    first = json.loads(JSON_GOLDEN)["solution"][0]
    fresh = _with_first_scalar(JSON_GOLDEN, prec=first["prec"] + 2,
                               unit=str(int(first["unit"]) + 3 ** (first["prec"] - first["val"])))
    assert compare(JSON_GOLDEN, fresh) == {"numbers": compare(JSON_GOLDEN, JSON_GOLDEN)["numbers"],
                                           "changed": 1, "digits_gained": 2}
    fresh = TEXT_GOLDEN.replace("5^1*1 + O(5^10)", "5^1*1 + O(5^12)", 1)
    assert compare(TEXT_GOLDEN, fresh)["digits_gained"] == 2


@pytest.mark.parametrize("fault, reason", [
    (lambda: _with_first_scalar(JSON_GOLDEN, prec=json.loads(JSON_GOLDEN)["solution"][0]["prec"] - 1),
     "claims"),
    (lambda: _with_first_scalar(JSON_GOLDEN,
                                unit=str(int(json.loads(JSON_GOLDEN)["solution"][0]["unit"]) + 3)),
     "disagrees"),
    (lambda: JSON_GOLDEN.replace('"residual_valuation": "46"', '"residual_valuation": "45"'),
     "structure"),
    (lambda: TEXT_GOLDEN.replace("5^1*1 + O(5^10)", "5^1*1 + O(5^9)", 1), "claims"),
    (lambda: TEXT_GOLDEN.replace("5^1*1 + O(5^10)", "5^1*2 + O(5^10)", 1), "disagrees"),
    (lambda: TEXT_GOLDEN.replace("2 + 3 =", "2 + 4 =", 1), "structure"),
], ids=["json-fewer-digits", "json-changed-digit", "json-changed-field",
        "text-fewer-digits", "text-changed-digit", "text-changed-field"])
def test_a_planted_fault_is_refused(fault, reason):
    fresh = fault()
    golden = JSON_GOLDEN if fresh.startswith("{") else TEXT_GOLDEN
    assert fresh != golden
    with pytest.raises(GoldenMismatch, match=reason):
        compare(golden, fresh)


def test_the_script_writes_only_an_accepted_output(tmp_path):
    golden, fresh = tmp_path / "golden.txt", tmp_path / "fresh.txt"
    script = [sys.executable, str(Path(__file__).resolve().parent / "golden_check.py"),
              str(golden), str(fresh), "--write"]
    golden.write_text(TEXT_GOLDEN)
    fresh.write_text(TEXT_GOLDEN.replace("5^1*1 + O(5^10)", "5^1*2 + O(5^10)", 1))
    proc = subprocess.run(script, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "refused" in proc.stderr
    assert golden.read_text() == TEXT_GOLDEN
    fresh.write_text(TEXT_GOLDEN.replace("5^1*1 + O(5^10)", "5^1*1 + O(5^11)", 1))
    proc = subprocess.run(script, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and '"digits_gained": 1' in proc.stdout
    assert golden.read_text() == fresh.read_text()
