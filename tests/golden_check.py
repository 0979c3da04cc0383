"""Accept a fresh output over a pinned golden only when no claim gets worse.

    python3 tests/golden_check.py GOLDEN FRESH [--write]

A golden is a JSON report, whose p-adic numbers are the wire format's
{"p", "prec", "unit", "val"} objects, or a demo's stdout, whose numbers are
printed as p^v*u + O(p^N), O(p^N) or FieldElement(p^s * [c, ...] + O(p^N)).
`compare` accepts the fresh output only if

  * it has the golden's structure, and every part that is not a p-adic
    number is byte-equal;
  * no number claims fewer digits than it did;
  * every number agrees with the golden's modulo p^(the golden's precision).

Then it returns a summary: how many numbers there are, how many changed and
how many digits they gained.  The golden tests stay byte-equal: this check
only gates a regeneration, and with --write the script replaces GOLDEN by
FRESH once it is accepted.
"""

from __future__ import annotations

import json
import re
import sys

# p^v*u + O(p^N) or O(p^N), and FieldElement(p^s * [c, ...] + O(p^N))
NUMBER = re.compile(r"FieldElement\((\d+)\^(-?\d+) \* \[([-\d, ]*)\] \+ O\(\d+\^(-?\d+)\)\)"
                    r"|(\d+)\^(-?\d+)\*(\d+) \+ O\(\d+\^(-?\d+)\)"
                    r"|O\((\d+)\^(-?\d+)\)")


class GoldenMismatch(Exception):
    """The fresh output may not replace the golden; the message says why."""


def _scalar(p, val, unit, prec):
    """(p, [p^val unit as a fraction's numerator, denominator], prec)."""
    return p, [unit * p ** val if val >= 0 else unit, p ** -val if val < 0 else 1], prec


def _text_numbers(text):
    """The text with each number cut out, and the numbers as (p, coordinates, prec),
    each coordinate a (numerator, denominator) pair."""
    numbers = []

    def cut(m):
        g = m.groups()
        if g[0]:
            p, shift, prec = int(g[0]), int(g[1]), int(g[3])
            coords = [_scalar(p, shift, int(c), prec)[1] for c in g[2].split(",")]
        elif g[4]:
            p, prec = int(g[4]), int(g[7])
            coords = [_scalar(p, int(g[5]), int(g[6]), prec)[1]]
        else:
            p, prec, coords = int(g[8]), int(g[9]), [[0, 1]]
        numbers.append((p, coords, prec))
        return "\0"
    return NUMBER.sub(cut, text), numbers


def _json_numbers(tree, numbers):
    """The tree with each wire-format scalar cut out, appending it to numbers."""
    if isinstance(tree, dict) and set(tree) == {"p", "prec", "unit", "val"}:
        val = tree["val"]
        numbers.append((tree["p"], [[0, 1] if val is None else
                                    _scalar(tree["p"], val, int(tree["unit"]), tree["prec"])[1]],
                        tree["prec"]))
        return None
    if isinstance(tree, dict):
        return {k: _json_numbers(v, numbers) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_json_numbers(v, numbers) for v in tree]
    return tree


def _split(text):
    try:
        tree = json.loads(text)
    except ValueError:
        return _text_numbers(text)
    numbers = []
    return json.dumps(_json_numbers(tree, numbers)), numbers


def _agree(p, old, new, prec):
    """p^prec divides old - new, both (numerator, denominator) pairs."""
    num = old[0] * new[1] - new[0] * old[1]
    den = old[1] * new[1]
    if not num:
        return True
    while num % p == 0:
        num //= p
        prec -= 1
    while den % p == 0:
        den //= p
        prec += 1
    return prec <= 0


def compare(golden, fresh):
    """The summary of replacing golden by fresh; raises GoldenMismatch if it may not."""
    shape, old = _split(golden)
    fresh_shape, new = _split(fresh)
    if shape != fresh_shape or len(old) != len(new):
        raise GoldenMismatch("the structure or a field that is not a p-adic number changed")
    changed = gained = 0
    for i, ((p, a, n), (q, b, m)) in enumerate(zip(old, new)):
        if p != q or len(a) != len(b):
            raise GoldenMismatch("number %d changed its prime or its degree" % i)
        if m < n:
            raise GoldenMismatch("number %d claims %d digits, %d before" % (i, m, n))
        if not all(_agree(p, x, y, n) for x, y in zip(a, b)):
            raise GoldenMismatch("number %d disagrees with the golden modulo %d^%d" % (i, p, n))
        changed += (a, n) != (b, m)
        gained += m - n
    return {"numbers": len(old), "changed": changed, "digits_gained": gained}


def main(argv):
    if len(argv) not in (2, 3) or argv[2:] not in ([], ["--write"]):
        raise SystemExit(__doc__.splitlines()[2])
    with open(argv[0]) as f:
        golden = f.read()
    with open(argv[1]) as f:
        fresh = f.read()
    try:
        summary = compare(golden, fresh)
    except GoldenMismatch as exc:
        raise SystemExit("%s: refused: %s" % (argv[0], exc))
    print("%s: %s" % (argv[0], json.dumps(summary, sort_keys=True)))
    if argv[2:]:
        with open(argv[0], "w") as f:
            f.write(fresh)


if __name__ == "__main__":
    main(sys.argv[1:])
