"""Differential test of the integral Gauss-Jordan kernel against row_reduce.

linalg.solve, invert and rank send PadicScalar matrices to the integral
kernel; the generic row_reduce route on the same scalars is the oracle.
Matrices have non-unit pivots, rows shifted by p^-2 .. p^2, one precision
per row (mixed across rows, the right-hand side drawn apart) and, in a
third of the draws, rank below their size (products B C of thin integer
matrices).  Every digit both routes claim must agree, no entry of the
kernel's result may be less precise than the oracle's, and wherever the
oracle raises PrecisionError (an ambiguous rank or a singular system) the
kernel must raise too.  The digits the kernel claims beyond the oracle's
are checked against exact Fraction solutions of two lifts of the system:
the stored digits, and the stored digits plus random multiples of p^N.

The kernel forms each entry once; the row-rewriting kernel it replaced
(old_solve, old_invert, old_rank in gauss_jordan) is a second oracle, whose
(val, unit, prec) triples and PrecisionErrors it must give exactly, on
systems() draws, at the five cyclotomic benchmark levels and on criterion
8's 48 x 48 operator.  A count pins one formation per entry per pass.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gauss_jordan import gj_invert, gj_rank, gj_solve, old_invert, old_rank, old_solve
from senlab import linalg
from senlab.errors import PrecisionError
from senlab.gamma import build_level, g_minus_one
from senlab.padic import PadicScalar

PREC = 20


@st.composite
def systems(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-p ** 4, p ** 4),
                      st.builds(lambda k, c: p ** k * c, st.integers(1, 3), st.integers(-20, 20)))
    if draw(st.integers(0, 2)) == 0:
        r = draw(st.integers(0, n - 1))
        B = [[draw(entry) for _ in range(r)] for _ in range(n)]
        C = [[draw(entry) for _ in range(n)] for _ in range(r)]
        ints = [[sum(B[i][t] * C[t][j] for t in range(r)) for j in range(n)] for i in range(n)]
    else:
        ints = [[draw(entry) for _ in range(n)] for _ in range(n)]
    mat = []
    for row in ints:
        shift = Fraction(p) ** draw(st.integers(-2, 2))
        prec = draw(st.integers(PREC - 6, PREC))
        mat.append([PadicScalar.from_fraction(x * shift, p, prec) for x in row])
    rhs = [PadicScalar.from_fraction(Fraction(draw(entry)), p, draw(st.integers(PREC - 6, PREC)))
           for _ in range(n)]
    noise = st.lists(st.integers(-p, p), min_size=n * (n + 1), max_size=n * (n + 1))
    return p, mat, rhs, draw(noise)


def lift(x, k=0):
    """A rational that x represents: its stored digits plus k p^N."""
    return (Fraction(0) if x.is_zero() else Fraction(x.p) ** x.val * x.unit) \
        + k * Fraction(x.p) ** x.prec


def exact_solve(mat, rhs):
    """Solution of a square Fraction system, or None if it is singular."""
    n = len(mat)
    rows = [list(row) + [b] for row, b in zip(mat, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c] / rows[c][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def assert_proven(x, exact):
    """Every digit x claims is a digit of the exact rational."""
    assert (x - PadicScalar.from_fraction(exact, x.p, x.prec)).is_zero(), (x, exact)


def outcome(f):
    try:
        return f()
    except PrecisionError as err:
        return err


def assert_agrees(kernel, oracle):
    if isinstance(oracle, PrecisionError):
        assert isinstance(kernel, PrecisionError)
        return
    assert not isinstance(kernel, PrecisionError), kernel
    for a, b in zip(kernel, oracle):
        assert (a - b).is_zero(), (a, b)
        assert a.prec >= b.prec, (a, b)


@settings(max_examples=300)
@given(systems())
def test_kernel_agrees_with_row_reduce(system):
    p, mat, rhs, noise = system
    one, zero = PadicScalar.one(p, PREC), PadicScalar.zero(p, PREC)
    oracle_rank = outcome(lambda: gj_rank(mat))
    kernel_rank = outcome(lambda: linalg.rank(mat))
    if isinstance(oracle_rank, PrecisionError):
        assert isinstance(kernel_rank, PrecisionError)
    else:
        assert kernel_rank == oracle_rank
    kernel_sol = outcome(lambda: linalg.solve(mat, rhs))
    assert_agrees(kernel_sol, outcome(lambda: gj_solve(mat, rhs)))
    if not isinstance(kernel_sol, PrecisionError):
        ks = iter(noise)
        for exact in (exact_solve([[lift(x) for x in row] for row in mat], [lift(b) for b in rhs]),
                      exact_solve([[lift(x, next(ks)) for x in row] for row in mat],
                                  [lift(b, next(ks)) for b in rhs])):
            if exact is not None:
                for x, y in zip(kernel_sol, exact):
                    assert_proven(x, y)
    assert_agrees(outcome(lambda: [x for row in linalg.invert(mat, one, zero) for x in row]),
                  outcome(lambda: [x for row in gj_invert(mat, one, zero) for x in row]))


# two benchmark inversion levels: the operator g - 1 and its first diagonal block
@pytest.mark.parametrize("key,e,trunc", [((3, 1, 2), Fraction(1, 3), 8),
                                         ((3, 2, 2), Fraction(1, 3), 4)])
def test_twisted_operator_agrees_with_row_reduce(key, e, trunc):
    p, prec = key[0], 40
    T = g_minus_one(build_level(*key, prec), PadicScalar.from_fraction(e, p, prec), trunc)
    one, zero = PadicScalar.one(p, prec), PadicScalar.zero(p, prec)
    rng = random.Random(6)
    rhs = [PadicScalar.from_int(rng.randrange(-3 ** 10, 3 ** 10), p, prec) for _ in range(T.size)]
    assert linalg.rank(T.matrix) == gj_rank(T.matrix) == T.size
    assert_agrees(linalg.solve(T.matrix, rhs), gj_solve(T.matrix, rhs))
    d = T.level.degree
    block = [row[:d] for row in T.matrix[:d]]
    assert_agrees([x for row in linalg.invert(block, one, zero) for x in row],
                  [x for row in gj_invert(block, one, zero) for x in row])


def test_ambiguous_pivot_raises():
    # 3 + O(3^5) against an entry that is zero only to 3^0: rank ambiguous
    mat = [[PadicScalar.from_int(3, 3, 5), PadicScalar.one(3, 5)],
           [PadicScalar.zero(3, 0), PadicScalar.one(3, 5)]]
    for call in (lambda: linalg.rank(mat), lambda: gj_rank(mat)):
        with pytest.raises(PrecisionError, match="rank ambiguous"):
            call()


def triples(f):
    """The (val, unit, prec) of each scalar f returns, flattened, or the
    PrecisionError it raises, as its message."""
    try:
        out = f()
    except PrecisionError as err:
        return str(err)
    if not isinstance(out, list):
        return out
    flat = [x for row in out for x in row] if isinstance(out[0], list) else out
    return [(x.val, x.unit, x.prec) for x in flat]


def assert_old_kernel_triples(mat, rhs, one, zero):
    assert triples(lambda: linalg.rank(mat)) == triples(lambda: old_rank(mat))
    assert triples(lambda: linalg.solve(mat, rhs)) == triples(lambda: old_solve(mat, rhs))
    assert (triples(lambda: linalg.invert(mat, one, zero))
            == triples(lambda: old_invert(mat, one, zero)))


@settings(max_examples=300)
@given(systems())
def test_kernel_gives_the_old_kernels_triples(system):
    p, mat, rhs, _ = system
    assert_old_kernel_triples(mat, rhs, PadicScalar.one(p, PREC), PadicScalar.zero(p, PREC))


def _operator(key, e, trunc, prec, seed):
    """g - 1 at a cyclotomic level and a right-hand side of its size."""
    p = key[0]
    T = g_minus_one(build_level(*key, prec), PadicScalar.from_fraction(e, p, prec), trunc)
    rng = random.Random(seed)
    return T, [PadicScalar.from_int(rng.randrange(-3 ** 10, 3 ** 10), p, prec)
               for _ in range(T.size)]


# the five inversion levels of the cyclotomic benchmark, and criterion 8's
# operator (p = 3, m = 2, a = 10, e = 1, truncation 8, 60 digits: 48 x 48)
OPERATORS = [((3, 1, 2), Fraction(1, 3), 8, 40), ((3, 2, 2), Fraction(1, 3), 4, 40),
             ((3, 2, 10), Fraction(1), 4, 40), ((3, 3, 2), Fraction(1, 3), 2, 40),
             ((5, 2, 2), Fraction(1, 5), 2, 40), ((3, 2, 10), Fraction(1), 8, 60)]


@pytest.mark.parametrize("key,e,trunc,prec", OPERATORS)
def test_twisted_operator_gives_the_old_kernels_triples(key, e, trunc, prec):
    T, rhs = _operator(key, e, trunc, prec, 1)
    assert_old_kernel_triples(T.matrix, rhs, PadicScalar.one(key[0], prec),
                              PadicScalar.zero(key[0], prec))


def test_each_entry_is_formed_once_per_pass(monkeypatch):
    # (3, 3, 2) at truncation 2, 36 x 36 with one right-hand side: the
    # forward pass forms each entry of [T | rhs] it reads once (a column's
    # candidates, then the pivot row's tail), n (n + 1) in all; the upward
    # pass each entry right of the diagonal once, n (n - 1)/2 + n.  A row
    # operation that rewrote a row would form its entries again.
    T, rhs = _operator((3, 3, 2), Fraction(1, 3), 2, 40, 1)
    n, form, seen = T.size, linalg._form, {True: [], False: []}

    def counted(U, row, j, lo=0):
        seen[lo == 0].append((row, j))
        return form(U, row, j, lo)

    monkeypatch.setattr(linalg, "_form", counted)
    linalg.solve(T.matrix, rhs)
    forward, upward = seen[True], seen[False]
    assert len(set(forward)) == len(forward) == n * (n + 1)
    assert len(set(upward)) == len(upward) == n * (n - 1) // 2 + n
