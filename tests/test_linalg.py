"""padic.power: square-and-multiply from the first factor, for every kind of
element the library raises to a power; linalg.mat_pow on top of it returns a
fresh matrix; mat_mul, over a local field only (Q_p is qp_field, its `padic`
cases run there), gives the entries of the i-t-j loop it replaced, and a
PadicScalar matrix is refused; the elimination entry points take Q_p
matrices only, and solve a square one with a right-hand side of its size."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gauss_jordan import lu_det
from senlab import linalg
from senlab.errors import UsageError
from senlab.field import (FieldElement, LocalFieldSpec, _fp_mul, _fp_rem, build_field,
                          eisenstein_field, qp_field)
from senlab.padic import PadicScalar, power

S = PadicScalar
ROWS = ([1, 3, -2], [0, 2, 9], [4, -1, 1])
Q3 = qp_field(3, 30)
K2 = eisenstein_field(3, [-3, 0, 1], 30)
# Q_3(i, 3^(1/3)): g = y^2 + 1, E = u^3 - 3
K6 = build_field(LocalFieldSpec(3, [1, 0, 1], [[-3], [0], [0], [1]], 30))
G = [2, 0, 1, 2, 1]         # a monic quartic over F_3


def _element(K, coords, shift, prec):
    """p^shift * sum coords[t] b_t, known to prec."""
    return K.from_grid([[S.from_residue(3, coords[j * K.e_ram + i] * 3 ** shift, prec)
                         for i in range(K.e_ram)] for j in range(K.f)])


def _agree(x, y):
    """Equal integers, or agreement to the lower of the two precisions."""
    if isinstance(x, list):
        return len(x) == len(y) and all(_agree(a, b) for a, b in zip(x, y))
    return x == y if isinstance(x, int) else (x - y).is_zero()


# kind -> (x, mul, one)
KINDS = {
    "scalar": (S.from_int(-7 * 9, 3, 30), S.__mul__, S.one(3, 28)),
    "field_degree_2": (_element(K2, [5, -2], 1, 30), FieldElement.__mul__, K2.one()),
    "field_degree_6": (_element(K6, [4, 1, 0, -3, 2, 7], 0, 24), FieldElement.__mul__,
                       K6.one()),
    "vector_mod_3^12": ([5, 1, 0, 9, 2, 7], lambda a, b: K6._mul_vec(a, b, 3 ** 12),
                        [1, 0, 0, 0, 0, 0]),
    "fp_poly": ([1, 2, 0, 1], lambda a, b: _fp_rem(_fp_mul(a, b), G, 3), [1]),
    "matrix": ([[Q3.from_int(x) for x in row] for row in ROWS],
               lambda a, b: linalg.mat_mul(a, b, Q3.zero()),
               linalg.identity(3, Q3.one(), Q3.zero())),
}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 11, 16, 27])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_power_counts_products(kind, n):
    x, mul, one = KINDS[kind]
    want = one
    for _ in range(n):
        want = mul(want, x)
    calls = []
    got = power(x, n, lambda a, b: calls.append(1) or mul(a, b), one)
    # n = 3 is one squaring and one product, not the four from one
    assert len(calls) == (n.bit_length() + bin(n).count("1") - 2 if n else 0)
    assert _agree(got, want)


@pytest.mark.parametrize("n", range(18))
def test_mat_pow_counts_products(monkeypatch, n):
    one, zero = Q3.one(), Q3.zero()
    a = [[Q3.from_int(x) for x in row] for row in ROWS]
    want = linalg.identity(3, one, zero)
    for _ in range(n):
        want = linalg.mat_mul(want, a, zero)
    calls = []
    mat_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda *args: calls.append(args) or mat_mul(*args))
    got = linalg.mat_pow(a, n, one, zero)
    # n = 3 is one squaring and one product, not the four from the identity
    assert len(calls) == (n.bit_length() + bin(n).count("1") - 2 if n else 0)
    assert all((x - y).is_zero() for rx, ry in zip(got, want) for x, y in zip(rx, ry))
    # a fresh matrix: writing into it leaves a alone
    got[0][0] = zero
    assert a[0][0] == Q3.one()


@pytest.mark.parametrize("call", ["mat_mul", "mat_vec", "mat_pow", "charpoly_berkowitz"])
def test_padic_matrices_point_to_qp_field(call):
    # Q_p is the degree-1 field: a PadicScalar matrix is refused, naming qp_field
    one, zero = S.one(3, 30), S.zero(3, 30)
    a = [[S.from_int(x, 3, 30) for x in row] for row in ROWS]
    args = {"mat_mul": (a, a, zero), "mat_vec": (a, a[0], zero), "mat_pow": (a, 2, one, zero),
            "charpoly_berkowitz": (a, one, zero)}[call]
    with pytest.raises(UsageError, match="qp_field"):
        getattr(linalg, call)(*args)


def test_elimination_takes_padic_matrices_only():
    # solve, invert and rank run the integral Q_p kernel; a FieldElement
    # matrix, or one mixing in another scalar type, is a usage error
    K = eisenstein_field(3, [-3, 0, 1], 20)
    field_mat = [[K.one(), K.zero()], [K.zero(), K.one()]]
    mixed = [[S.one(3, 20), K.zero()], [S.zero(3, 20), S.one(3, 20)]]
    for mat in (field_mat, mixed):
        with pytest.raises(UsageError):
            linalg.rank(mat)
        with pytest.raises(UsageError):
            linalg.solve(mat, [K.one(), K.one()])
        with pytest.raises(UsageError):
            linalg.invert(mat, K.one(), K.zero())


def test_elimination_refuses_a_wrong_shape():
    # a right-hand side shorter or longer than the matrix, a matrix that is
    # not square, or rows of different lengths, is a usage error, not a
    # singular system, an IndexError or a rank of the first columns
    one, zero = S.one(3, 20), S.zero(3, 20)
    square = [[one, zero], [zero, one]]
    wide = [[one, zero, one], [zero, one, one]]
    for mat, rhs in ((square, [one]), (square, [one, one, one]), (wide, [one, one])):
        with pytest.raises(UsageError):
            linalg.solve(mat, rhs)
    with pytest.raises(UsageError):
        linalg.invert(wide, one, zero)
    for ragged in ([[one, one], [one]], [[one], [one, one]]):
        with pytest.raises(UsageError):
            linalg.rank(ragged)


def _mat_mul_itj(a, b, zero):
    """The i-t-j loop mat_mul replaced, one scalar operation at a time: out[i][j]
    is zero + a[i][0] b[0][j] + a[i][1] b[1][j] + ..., in that order."""
    n, k, m = len(a), len(b), len(b[0])
    out = [[zero for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for t in range(k):
            x = a[i][t]
            for j in range(m):
                out[i][j] = out[i][j] + x * b[t][j]
    return out


def _padic_entry(rng):
    """An element of Q_3 = qp_field(3, 30) with a mixed precision and shift,
    zero to precision one time in four."""
    prec = rng.randrange(-2, 31)
    if rng.randrange(4) == 0:
        return Q3.from_scalar(S.zero(3, prec))
    return Q3.from_scalar(S.from_residue(3, rng.randrange(1, 3 ** 30), prec, rng.randrange(-4, 4)))


def _field_entry(rng):
    return _element(K2, [rng.randrange(-40, 41) for _ in range(2)], rng.randrange(3),
                    rng.randrange(5, 31))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["padic", "field_degree_2"])
def test_mat_mul_matches_itj_loop(kind, seed):
    rng = random.Random(seed)
    entry, zero = {"padic": (_padic_entry, Q3.zero()),
                   "field_degree_2": (_field_entry, K2.zero())}[kind]
    n, k, m = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)
    a = [[entry(rng) for _ in range(k)] for _ in range(n)]
    b = [[entry(rng) for _ in range(m)] for _ in range(k)]
    got, want = linalg.mat_mul(a, b, zero), _mat_mul_itj(a, b, zero)
    assert [[(x.vec, x.shift, x.prec) for x in row] for row in got] == \
        [[(x.vec, x.shift, x.prec) for x in row] for row in want]


# Q_5, Q_3(sqrt 3) and Q_3(3^(1/4)) for the determinant
DET_FIELDS = (qp_field(5, 30), K2, eisenstein_field(3, [-3, 0, 0, 0, 1], 24))


def _exact_det(ints):
    """The determinant of an integer matrix, by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in ints]
    out = Fraction(1)
    for c in range(len(a)):
        i = next((i for i in range(c, len(a)) if a[i][c]), None)
        if i is None:
            return 0
        if i != c:
            a[c], a[i], out = a[i], a[c], -out
        out *= a[c][c]
        for k in range(c + 1, len(a)):
            f = a[k][c] / a[c][c]
            a[k] = [x - f * y for x, y in zip(a[k], a[c])]
    return int(out)


@st.composite
def det_matrices(draw):
    """A field of DET_FIELDS and an n x n integer matrix, n <= 6: of rank k <=
    n as a product of n x k and k x n matrices in a third of the draws, else
    with entries p^j c that take row swaps to pivot on."""
    K = draw(st.sampled_from(DET_FIELDS))
    n = draw(st.integers(0, 6))
    entry = st.builds(lambda j, c: K.p ** j * c, st.integers(0, 2), st.integers(-9, 9))
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, n))
        a = [[draw(entry) for _ in range(k)] for _ in range(n)]
        b = [[draw(entry) for _ in range(n)] for _ in range(k)]
        return K, [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(n)]
    return K, [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=150)
@given(case=det_matrices())
def test_det_against_exact_and_lu(case):
    K, ints = case
    mat = [[K.from_int(x) for x in row] for row in ints]
    got = linalg.det(mat, K.one(), K.zero())
    want = lu_det(mat, K.one(), K.zero())
    # every claimed digit is the exact integer's, and the digits claimed are the LU route's
    assert (got - K.from_int(_exact_det(ints))).is_zero()
    assert (got.vec, got.shift, got.prec) == (want.vec, want.shift, want.prec)


@pytest.mark.parametrize("ints, value", [
    ([[0, 1], [1, 0]], -1),                     # a swap before the first pivot
    ([[3, 1, 0], [1, 2, 0], [0, 0, 9]], 45),    # the unit pivots first
    ([[1, 2], [2, 4]], 0),                      # rank 1: the singular branch
    ([[0, 0], [0, 5]], 0),                      # a column with no pivot
    ([], 1),
])
def test_det_cases(ints, value):
    got = linalg.det([[K2.from_int(x) for x in row] for row in ints], K2.one(), K2.zero())
    assert (got - K2.from_int(value)).is_zero() and got.prec == K2.prec
