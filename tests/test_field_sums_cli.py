"""The workflow steps whose commands sum products over K, as fresh processes.

Each test runs the command of one step of .github/workflows/tests.yml, as
`python -m senlab.cli`, and makes the step's check on its JSON: Berkowitz
and the operator series on a diagonal module at dimension 8, the operator
series on low-precision inputs (its full JSON pinned against tests/golden),
the G-sharp transport and dp_mul at truncation 96, and field products at the
table cap.  The wall-clock limits stay in the workflow.

The series products `dps mul`, `dps coaction` and `dps gsharp` also print,
byte for byte, the JSON pinned in tests/golden, captured while each output
degree was still summed entrywise by LocalField.dot."""

import json
import os
import subprocess
import sys
from itertools import combinations
from math import prod
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
# Q_3(sqrt 3) at 40 digits: g = y - 1, E = u^2 - 3, e = 2 pi
FIELD = json.dumps({"p": 3, "prec": 40, "unramified_poly": ["-1", "1"],
                    "eisenstein_poly": [["-3"], ["0"], ["1"]]})
WEIGHTS = [0, 1, 2, 3, -1, -2, 4, 5]
# theta = e diag(WEIGHTS)
THETA = json.dumps({"theta": [[{"coeffs": [["0", str(2 * a) if i == j else "0"]]}
                               for j in range(8)] for i, a in enumerate(WEIGHTS)]})
Q = 3 ** 40
# Q_3 at 40 digits: g = y - 1, E = u - 3
Q3 = json.dumps({"p": 3, "prec": 40, "unramified_poly": ["-1", "1"],
                 "eisenstein_poly": [["-3"], ["1"]]})
# the workflow's input to the step "gsharp transport at truncation 96"
CI_F = json.dumps({"coeffs": [{"coeffs": [["2", "0"]]}, {"coeffs": [["1", "1"]]},
                              {"coeffs": [["7", "-1"]]}]})


def _stdout(*argv):
    """What a fresh `python -m senlab.cli *argv` prints; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "senlab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _senlab(*argv):
    """The JSON a fresh `python -m senlab.cli *argv` prints."""
    return json.loads(_stdout(*argv))


def _coord(c):
    """A coordinate of the wire format as an integer modulo 3^40."""
    return 0 if c["val"] is None else int(c["unit"]) * 3 ** c["val"] % Q


def test_char_poly_of_a_diagonal_module_at_dimension_8():
    # coefficient k of char(theta) is (-1)^j e_j(w) (2 pi)^j, j = 8 - k, e_j the
    # j-th elementary symmetric polynomial of the weights, with
    # pi^j = 3^(j // 2) pi^(j % 2)
    c = _senlab("senmod", "char-poly", "--field", FIELD, "--theta", THETA)["char_poly"]

    def want(k):
        j = 8 - k
        a = (-1) ** j * sum(map(prod, combinations(WEIGHTS, j))) * 2 ** j * 3 ** (j // 2) % Q
        return (0, a) if j % 2 else (a, 0)

    bad = [k for k in range(9) if tuple(map(_coord, c[k]["coeffs"][0])) != want(k)
           or any(x["prec"] != 40 for x in c[k]["coeffs"][0])]
    assert len(c) == 9 and not bad, \
        "coefficients %s are not (-1)^j e_j(w) (2 pi)^j" % bad


def test_operator_series_of_a_diagonal_module_at_dimension_8():
    # at b = 3 the series is diag((1 + 6 pi)^w), with pi^2 = 3 and
    # (1 + 6 pi)^-1 = (1 - 6 pi)/(-107) modulo 3^40
    m = _senlab("senmod", "operator-series", "--field", FIELD, "--theta", THETA,
                "--b", json.dumps({"coeffs": [["3", "0"]]}))["matrix"]
    inv = pow(-107, -1, Q)

    def power(k):
        z, g = (1, 0), ((1, 6) if k >= 0 else (inv, -6 * inv % Q))
        for _ in range(abs(k)):
            z = ((z[0] * g[0] + 3 * z[1] * g[1]) % Q, (z[0] * g[1] + z[1] * g[0]) % Q)
        return z

    bad = [(i, j) for i in range(8) for j in range(8)
           if tuple(map(_coord, m[i][j]["coeffs"][0])) != (power(WEIGHTS[i]) if i == j else (0, 0))
           or any(c["prec"] != 40 for c in m[i][j]["coeffs"][0])]
    assert len(m) == 8 and not bad, "entries %s are not (1 + 6 pi)^w to 40 digits" % bad


def test_operator_series_on_low_precision_inputs():
    # theta known to 5^9 and b to 5 over Q_5(zeta_5): exp(t theta) stops once
    # its tail bounds pass the one digit b and t theta claim; every byte is the
    # one the series printed when its terms were scaled and added one by one
    field = json.dumps({"p": 5, "prec": 15, "unramified_poly": ["-1", "1"],
                        "eisenstein_poly": [["5"], ["10"], ["10"], ["5"], ["1"]]})
    theta = json.dumps({"theta": [[{"coeffs": [
        ["5", "-17", {"val": None, "unit": "0", "prec": 9}, "20"]]}]]})
    b = json.dumps({"coeffs": [["-15625", "-3", "-15625", {"val": None, "unit": "0", "prec": 1}]]})
    out = _stdout("senmod", "operator-series", "--field", field, "--theta", theta, "--b", b)
    assert out == (GOLDEN / "senmod_series_low_precision.json").read_text()


def test_gsharp_transport_at_truncation_96():
    # the step's check is that the command ends with exit 0
    _senlab("dps", "gsharp", "--trunc", "96", "--direction", "to_gsharp", "--field", FIELD,
            "--f", CI_F)


def test_dps_mul_of_exp_by_itself_at_truncation_96():
    # exp(a) has every coefficient 1, so exp(a)^2 = exp(2a) has 2^n
    exp = json.dumps({"coeffs": [{"coeffs": [["1", "0"]]}] * 97})
    c = _senlab("dps", "mul", "--trunc", "96", "--field", FIELD, "--f", exp,
                "--g", exp)["result"]["coeffs"]

    def want(n):
        return [(str(pow(2, n, Q)), 0, 40), ("0", None, 40)]

    bad = [n for n, x in enumerate(c)
           if [(y["unit"], y["val"], y["prec"]) for y in x["coeffs"][0]] != want(n)]
    assert len(c) == 97 and not bad, "coefficients %s are not 2^n" % bad


def test_field_products_at_the_table_cap():
    # with E's constant -3 known to 3^15, (1 + pi)(1 - pi) over Q_3(sqrt 3) at
    # 40 digits is -2 to exactly 15 digits; over Q_3 (degree 1, no cap)
    # 7 * (-5) keeps all 40
    e = {"p": 3, "val": 1, "unit": "-1", "prec": 15}

    def product(eisenstein, x, y):
        field = json.dumps({"p": 3, "prec": 40, "unramified_poly": ["-1", "1"],
                            "eisenstein_poly": eisenstein})
        c = _senlab("field", "arith", "--op", "mul", "--field", field,
                    "--x", json.dumps({"coeffs": [x]}),
                    "--y", json.dumps({"coeffs": [y]}))["result"]["coeffs"][0]
        return [(z["unit"], z["val"], z["prec"]) for z in c]

    got = product([[e], ["0"], ["1"]], ["1", "1"], ["1", "-1"])
    assert got == [("14348905", 0, 15), ("0", None, 15)], \
        "(1 + pi)(1 - pi) = %s, expected -2 to 15 digits" % got
    got = product([[e], ["1"]], ["7"], ["-5"])
    assert got == [("12157665459056928766", 0, 40)], \
        "7 * (-5) = %s, expected -35 to 40 digits" % got


def _mixed_scalar(k):
    """Entry k of a deterministic input: precision 20..40, valuation -2..4,
    zero to precision every seventh entry."""
    prec = 20 + 7 * k % 21
    if k % 7 == 3:
        return {"val": None, "unit": "0", "prec": prec}
    unit = (k * k * 2654435761 + 1) % 3 ** 18
    return {"val": k % 7 - 2, "unit": str(unit + (unit % 3 == 0)), "prec": prec}


def _mixed_series(trunc, width, start=0):
    """trunc + 1 coefficients of `width` mixed entries each, as JSON."""
    return json.dumps({"coeffs": [{"coeffs": [[_mixed_scalar(start + width * n + i)
                                               for i in range(width)]]}
                                  for n in range(trunc + 1)]})


def _full_series(trunc):
    """trunc + 1 coefficients over Q_3(sqrt 3), integers known to 40 digits."""
    return json.dumps({"coeffs": [{"coeffs": [[str((5 * n * n + 3) % 3 ** 12 - 7),
                                               str((11 * n + 2) % 3 ** 9)]]}
                                  for n in range(trunc + 1)]})


GOLDEN_COMMANDS = {
    "dps_coaction_q3_96": ["dps", "coaction", "--trunc", "96", "--field", Q3,
                           "--f", _mixed_series(96, 1),
                           "--b", json.dumps({"coeffs": [[{"val": 1, "unit": "5",
                                                           "prec": 35}]]})],
    "dps_coaction_sqrt3_24": ["dps", "coaction", "--trunc", "24", "--field", FIELD,
                              "--f", _full_series(24),
                              "--b", json.dumps({"coeffs": [["3", "1"]]})],
    "dps_gsharp_to_24": ["dps", "gsharp", "--trunc", "24", "--direction", "to_gsharp",
                         "--field", FIELD, "--f", _mixed_series(24, 2)],
    "dps_gsharp_from_24": ["dps", "gsharp", "--trunc", "24", "--direction", "from_gsharp",
                           "--field", FIELD, "--f", _mixed_series(24, 2, 5)],
    "dps_gsharp_ci_96": ["dps", "gsharp", "--trunc", "96", "--direction", "to_gsharp",
                         "--field", FIELD, "--f", CI_F],
    "dps_mul_mixed_96": ["dps", "mul", "--trunc", "96", "--field", FIELD,
                         "--f", _mixed_series(96, 2), "--g", _mixed_series(96, 2, 11)],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_series_products_print_the_golden_json(name):
    assert _stdout(*GOLDEN_COMMANDS[name]) == (GOLDEN / (name + ".json")).read_text()
