"""Fuzzed input through `field build`, `field arith`, `field trace`, the `dps`
commands, the `gamma` commands and the `senmod` commands.

Every input, however malformed, must end in a documented exit code (0 for
success, 2-5 for the error classes), never in a traceback.  Sizes are kept
small (field degree <= 6 and precision <= 25; for `dps` and `gamma`,
truncation <= 3; for `gamma`, level m <= 2; for `senmod`, theta of dimension
<= 3) so that each example runs well under a second.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from senlab.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}

GOOD_SPECS = [
    {"p": 3, "prec": 20, "unramified_poly": ["-1", "1"], "eisenstein_poly": [["-3"], ["0"], ["1"]]},
    {"p": 3, "prec": 12, "unramified_poly": ["1", "0", "1"],
     "eisenstein_poly": [["-3"], ["-6"], ["1"]]},
    {"p": 5, "prec": 15, "unramified_poly": ["-1", "1"],
     "eisenstein_poly": [["5"], ["10"], ["10"], ["5"], ["1"]]},
    {"p": 2, "prec": 10, "unramified_poly": ["-1", "1"], "eisenstein_poly": [["-2"], ["1"]]},
]

junk = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False, width=16),
                 st.text(max_size=3), st.just([]), st.just({}))
small_int = st.integers(-30, 30)
scalar_obj = st.fixed_dictionaries(
    {"val": st.one_of(st.none(), st.integers(-3, 6)), "unit": small_int.map(str),
     "prec": st.integers(-2, 25)},
    optional={"p": st.sampled_from([2, 3, 4, 5, 0])})
scalar = st.one_of(small_int, small_int.map(str), scalar_obj, junk)
# valid over p in {2, 3, 5}: mixed precisions, negative valuations, zeros
good_scalar = st.one_of(
    small_int.map(str),
    st.builds(lambda v, k, u: {"val": v, "unit": u, "prec": v + k}, st.integers(-3, 6),
              st.integers(1, 20), st.sampled_from(["1", "-1", "7", "11", "-13", "17"])),
    st.builds(lambda n: {"val": None, "unit": "0", "prec": n}, st.integers(-2, 25)))
ypoly = st.lists(scalar, max_size=3)
# well-formed specs with integer Eisenstein candidates: mostly non-Eisenstein
integer_eisenstein = st.lists(st.lists(small_int.map(str), min_size=1, max_size=2),
                              min_size=2, max_size=4)
spec = st.one_of(
    st.sampled_from(GOOD_SPECS),
    st.fixed_dictionaries(
        {"p": st.one_of(st.sampled_from([0, 1, 2, 3, 4, 5, 9, -3]), junk),
         "prec": st.one_of(st.integers(-1, 25), junk),
         "unramified_poly": st.one_of(st.lists(scalar, max_size=3), junk),
         "eisenstein_poly": st.one_of(st.lists(ypoly, max_size=4), junk)}),
    st.tuples(st.sampled_from(GOOD_SPECS), integer_eisenstein).map(
        lambda pair: dict(pair[0], eisenstein_poly=pair[1])),
    # one key of a good spec replaced
    st.tuples(st.sampled_from(GOOD_SPECS), st.sampled_from(sorted(GOOD_SPECS[0])),
              st.one_of(junk, small_int, st.lists(scalar, max_size=3),
                        st.lists(ypoly, max_size=3))).map(
        lambda t: dict(t[0], **{t[1]: t[2]})))
# grids of the shapes (f, e) of the good specs, and ragged grids
grid = st.one_of(*[
    st.sampled_from([(1, 2), (2, 2), (1, 4), (1, 1)]).flatmap(
        lambda fe, entry=entry: st.lists(st.lists(entry, min_size=fe[1], max_size=fe[1]),
                                         min_size=fe[0], max_size=fe[0]))
    for entry in (good_scalar, good_scalar, scalar)],
    st.lists(st.lists(scalar, max_size=4), max_size=3))
element = st.one_of(st.fixed_dictionaries({"coeffs": grid}), junk,
                    st.fixed_dictionaries({"coeffs": junk}))


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def as_arg(obj):
    # inline JSON is recognised by its first character; wrap bare values
    text = json.dumps(obj)
    return text if text.startswith(("{", "[")) else json.dumps([obj])


@settings(max_examples=100)
@given(spec)
def test_field_build_exits_cleanly(s):
    assert run(["field", "build", "--spec", as_arg(s)]) in EXIT_CODES


@settings(max_examples=100)
@given(spec, element, element, st.sampled_from(["add", "sub", "mul", "div"]))
def test_field_arith_exits_cleanly(s, x, y, op):
    argv = ["field", "arith", "--field", as_arg(s), "--x", as_arg(x), "--y", as_arg(y),
            "--op", op]
    assert run(argv) in EXIT_CODES


def shaped_element(s, entries=(good_scalar, st.one_of(good_scalar, scalar))):
    """Elements of the grid shape of a good spec."""
    f = len(s["unramified_poly"]) - 1
    e = len(s["eisenstein_poly"]) - 1
    return st.one_of(*[st.fixed_dictionaries({"coeffs": st.lists(
        st.lists(entry, min_size=e, max_size=e), min_size=f, max_size=f)})
        for entry in entries])


@settings(max_examples=200)
@given(st.sampled_from(GOOD_SPECS).flatmap(
    lambda s: st.tuples(st.just(s), shaped_element(s), shaped_element(s))),
    st.sampled_from(["add", "sub", "mul", "div", "trace"]))
def test_good_fields_exit_cleanly(sxy, op):
    s, x, y = (as_arg(obj) for obj in sxy)
    argv = ["field", "trace", "--field", s, "--elem", x] if op == "trace" else \
        ["field", "arith", "--field", s, "--x", x, "--y", y, "--op", op]
    assert run(argv) in EXIT_CODES


@settings(max_examples=100)
@given(spec, element)
def test_field_trace_exits_cleanly(s, x):
    assert run(["field", "trace", "--field", as_arg(s), "--elem", as_arg(x)]) in EXIT_CODES


# a non-array coefficient list is a usage error, not a TypeError
@pytest.mark.parametrize("spec_obj", [
    dict(GOOD_SPECS[0], unramified_poly=5),
    dict(GOOD_SPECS[0], eisenstein_poly=None),
])
def test_malformed_spec_regressions(spec_obj):
    assert run(["field", "build", "--spec", json.dumps(spec_obj)]) == 2


# gamma: level parameters in and outside their valid ranges, half of them from
# valid levels (a = 1 mod p) at precisions that may still be too small; rhs
# vectors short, of the right size for small levels, or junk
VALID_LEVELS = [(2, 1, 3), (2, 2, 5), (3, 1, 4), (3, 1, 7), (3, 2, 10), (5, 1, 6), (5, 1, 11)]
rhs_vector = st.one_of(st.lists(st.one_of(small_int, small_int.map(str), scalar_obj),
                                max_size=12), junk, st.just({"x": 1}))
level_args = st.one_of(
    st.tuples(st.sampled_from([0, 1, 2, 3, 4, 5]), st.integers(-1, 2), st.integers(-2, 12),
              st.one_of(st.integers(-3, 3), st.integers(4, 40))),
    st.tuples(st.sampled_from(VALID_LEVELS), st.integers(-3, 40)).map(
        lambda t: (*t[0], t[1])))
twist = st.one_of(st.sampled_from([1, -1, 2]), st.integers(-3, 3))
truncation = st.one_of(st.integers(1, 3), st.integers(-1, 3))


def with_rhs(args):
    """Add an rhs: fuzzed, or integers of the operator's size when the level is valid."""
    (p, m, _a, _prec), _e, trunc = args
    size = max(trunc, 0) * max(p - 1, 0) * p ** max(m - 1, 0)
    exact = st.lists(small_int.map(str), min_size=size, max_size=size)
    return st.tuples(st.just(args), st.one_of(exact, rhs_vector))


def level_argv(p, m, a, prec):
    return ["--p", str(p), "--m", str(m), "--a", str(a), "--prec", str(prec)]


@settings(max_examples=80)
@given(level_args, st.integers(-3, 3), st.integers(-3, 3))
def test_gamma_delta_exits_cleanly(level, nmin, nmax):
    # the Tate bound is exact at every precision: no block is refused (exit 4)
    argv = ["gamma", "delta", *level_argv(*level), "--nmin", str(nmin), "--nmax", str(nmax)]
    code = run(argv)
    assert code in EXIT_CODES and code != 4


@settings(max_examples=80)
@given(st.tuples(level_args, twist, truncation).flatmap(with_rhs))
def test_gamma_invert_exits_cleanly(args_rhs):
    (level, e, trunc), rhs = args_rhs
    argv = ["gamma", "invert", *level_argv(*level), "--e", str(e), "--trunc", str(trunc),
            "--rhs", as_arg(rhs)]
    assert run(argv) in EXIT_CODES


@settings(max_examples=80)
@given(level_args, twist, truncation)
def test_gamma_kernel_exits_cleanly(level, e, trunc):
    argv = ["gamma", "kernel", *level_argv(*level), "--e", str(e), "--trunc", str(trunc)]
    assert run(argv) in EXIT_CODES


# dps: half of the series well-formed (a JSON "trunc" that may be negative),
# the rest with fuzzed or junk coefficients; a --trunc in [-3, 3] or none
def series_of(s):
    good, el = shaped_element(s, (good_scalar,)), shaped_element(s)
    return st.one_of(
        st.fixed_dictionaries({"coeffs": st.lists(good, max_size=4)},
                              optional={"trunc": st.integers(-3, 3)}),
        st.one_of(
            st.fixed_dictionaries({"coeffs": st.lists(el, max_size=4)},
                                  optional={"trunc": st.one_of(st.integers(-3, 3), junk),
                                            "e": el}),
            st.fixed_dictionaries({"coeffs": st.one_of(junk, st.lists(junk, max_size=2))}),
            junk))


DPS_COMMANDS = {"solve-theta": ["--g"], "theta": ["--f"], "mul": ["--f", "--g"],
                "coaction": ["--f", "--b"], "log-t": ["--e"], "gsharp": ["--f"]}


@settings(max_examples=150)
@given(st.sampled_from(GOOD_SPECS).flatmap(lambda s: st.tuples(
    st.just(s), series_of(s), series_of(s), st.one_of(shaped_element(s), element))),
    st.sampled_from(sorted(DPS_COMMANDS)), st.one_of(st.none(), st.integers(-3, 3)),
    st.sampled_from(["to_gsharp", "from_gsharp"]))
def test_dps_exits_cleanly(sfgx, cmd, trunc, direction):
    s, f, g, x = sfgx
    operands = {"--f": f, "--g": g, "--b": x, "--e": x}
    argv = ["dps", cmd, "--field", as_arg(s)]
    for flag in DPS_COMMANDS[cmd]:
        argv += [flag, as_arg(operands[flag])]
    if cmd == "gsharp":
        argv += ["--direction", direction]
    if trunc is not None:
        argv += ["--trunc", str(trunc)]
    assert run(argv) in EXIT_CODES


# senmod: theta of dimension <= 3, mostly square over shaped elements of a good
# field, the rest with fuzzed or junk entries, ragged rows or a junk matrix;
# weight windows may be empty, half-given or absent (the default window); the
# series parameter b is a shaped or fuzzed element and the character value chi
# a well-formed or fuzzed scalar
def square(entry):
    return st.integers(1, 3).flatmap(lambda d: st.lists(
        st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))


def theta_of(s):
    good = shaped_element(s, (good_scalar,))
    entry = st.one_of(good, shaped_element(s), junk)
    return st.one_of(square(good), square(good), square(entry),
                     st.lists(st.lists(entry, max_size=3), max_size=3), junk)


SENMOD_COMMANDS = ["weights", "cohomology", "char-poly", "nearly-ht", "twist", "dual",
                   "operator-series", "descent"]
bound = st.one_of(st.none(), st.integers(-40, 40))


@settings(max_examples=120)
@given(st.sampled_from(GOOD_SPECS).flatmap(lambda s: st.tuples(
    st.just(s), theta_of(s), st.one_of(shaped_element(s), element))),
       st.sampled_from(SENMOD_COMMANDS), bound, bound, st.integers(-5, 5),
       st.one_of(good_scalar, scalar))
def test_senmod_exits_cleanly(s_theta_b, cmd, nmin, nmax, n, chi):
    s, theta, b = s_theta_b
    argv = ["senmod", cmd, "--field", as_arg(s), "--theta", as_arg({"theta": theta})]
    if cmd == "weights":
        argv += [arg for flag, value in (("--nmin", nmin), ("--nmax", nmax))
                 if value is not None for arg in (flag, str(value))]
    if cmd == "twist":
        argv += ["--n", str(n)]
    if cmd == "operator-series":
        argv += ["--b", as_arg(b)]
    if cmd == "descent":
        argv += ["--chi", as_arg(chi)]
    assert run(argv) in EXIT_CODES


# the series and descent on well-formed modules, so that the summation itself
# runs: theta with integer or well-formed entries, b a well-formed element
# (often below the stop rule's bound, exit 5), chi a unit near 1 or a
# well-formed scalar object (often outside the ball, exit 3)
near_one = st.builds(lambda u, n: {"val": 0, "unit": u, "prec": n},
                     st.sampled_from(["1", "3", "5", "7", "11", "17", "-13"]),
                     st.integers(1, 25))


@settings(max_examples=60)
@given(st.sampled_from(GOOD_SPECS).flatmap(lambda s: st.tuples(
    st.just(s), square(shaped_element(s, (small_int.map(str), good_scalar))),
    shaped_element(s, (good_scalar,)))),
       st.booleans(), st.one_of(near_one, good_scalar.filter(lambda x: isinstance(x, dict))))
def test_senmod_series_on_modules_exits_cleanly(s_theta_b, descent, chi):
    s, theta, b = s_theta_b
    argv = ["senmod", "descent" if descent else "operator-series", "--field", as_arg(s),
            "--theta", as_arg({"theta": theta})]
    argv += ["--chi", as_arg(chi)] if descent else ["--b", as_arg(b)]
    assert run(argv) in EXIT_CODES
