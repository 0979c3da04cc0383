import math
import operator
import random
from fractions import Fraction
from itertools import count, islice
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from senlab import gamma, linalg, senmod
from senlab.errors import ConvergenceError, DomainError, PrecisionError, UsageError
from senlab.field import (FieldElement, LocalField, LocalFieldSpec, build_field,
                          cyclotomic_field, eisenstein_field, qp_field)
from senlab.padic import (PadicScalar, exp_domain_threshold, newton_polygon, padic_exp,
                          padic_log, series_converged, vp_int)
from senlab.senmod import SenModule, nearly_ht_test, operator_series, operator_series_apply

S = PadicScalar


class TestScalarArith:
    def test_add_carries(self):
        z = S.from_int(2, 5, 10) + S.from_int(3, 5, 10)
        assert z.val == 1 and z.unit == 1 and z.prec == 10

    def test_mul_absorbing_zero_shifts_precision(self):
        x = S.from_int(25, 5, 10)
        z = x * S.zero(5, 7)
        assert z.is_zero() and z.prec == 9

    def test_geometric_inverse(self):
        p, n = 5, 8
        q = S.from_int(1, p, n) / S.from_int(1 - p, p, n)
        assert q.lift() == sum(p ** k for k in range(n)) % p ** n
        assert (S.from_int(1 - p, p, n) * q - S.one(p, n)).is_zero()

    @pytest.mark.parametrize("start", [0, Fraction(1, 2), 1.0, None])
    def test_starts_other_than_scalars_and_elements_rejected(self, start):
        # linalg's sums of products run over a LocalField, whose zero they take
        one = [[S.one(3, 10)]]
        for call in (lambda: linalg.mat_mul(one, one, start),
                     lambda: linalg.mat_vec(one, one[0], start),
                     lambda: linalg.charpoly_berkowitz(one, S.one(3, 10), start)):
            with pytest.raises(UsageError):
                call()

    def test_mixed_primes_rejected(self):
        with pytest.raises(UsageError):
            S.from_int(1, 3, 10) + S.from_int(1, 5, 10)

    def test_scalar_first_mixed_with_field_element(self):
        # a scalar on the left defers to the other operand instead of reading its .p
        K = qp_field(3, 10)
        s = S.from_int(3, 3, 10)
        assert (s * K.one() - K.from_int(3)).is_zero()
        for op in (operator.add, operator.sub, operator.truediv):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(s, K.one())
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            assert getattr(s, "__%s__" % op.__name__)(K.one()) is NotImplemented

    def test_division_by_zero_to_precision(self):
        with pytest.raises(PrecisionError):
            S.from_int(1, 3, 10) / S.zero(3, 10)

    def test_precision_propagation_rules(self):
        x = S.from_int(9, 3, 20)      # v=2
        y = S.from_int(3, 3, 12)      # v=1
        assert (x + y).prec == 12
        assert (x - y).prec == 12
        assert (x * y).prec == min(20 + 1, 12 + 2)
        assert (x / y).prec == min(20 - 1, 12 + 2 - 2)

    def test_negative_valuations(self):
        a = S.from_fraction(Fraction(1, 5), 5, 10)
        b = S.from_fraction(Fraction(2, 25), 5, 10)
        c = a + b
        assert c.val == -2
        assert (c - S.from_fraction(Fraction(7, 25), 5, 10)).is_zero()

    def test_precision_soundness_against_exact_rationals(self):
        # exact arithmetic on rationals, then reduction, matches scalar ops
        rng = random.Random(11)
        p, prec = 7, 18
        for _ in range(100):
            r = Fraction(rng.randrange(-500, 500), rng.choice([1, 2, 3, 5, 6]))
            s = Fraction(rng.randrange(-500, 500), rng.choice([1, 2, 3, 5, 6]))
            xr, xs = S.from_fraction(r, p, prec), S.from_fraction(s, p, prec)
            assert (xr + xs - S.from_fraction(r + s, p, prec)).is_zero()
            assert (xr * xs - S.from_fraction(r * s, p, prec)).is_zero()
            if s != 0 and (s.numerator % p):
                assert (xr / xs - S.from_fraction(r / s, p, prec)).is_zero()


def _table_product(x, y):
    """x y formed apart from the library's packed sum, the oracle for every
    product: for two elements, __mul__'s precision rule min(N_x + v(y),
    N_y + v(x)) with its cap t + M above degree 1, and both coordinate
    vectors reduced modulo p^(q - t) and multiplied through the table; a
    scalar factor by the scalar rules of `*`."""
    if type(x) is not FieldElement or type(y) is not FieldElement:
        return x * y
    K = x.field
    e = K.e_ram
    q = min(e * x.prec + y._v(), e * y.prec + x._v()) // e
    t = x.shift + y.shift
    if q > t + K.table_prec and K.degree > 1:
        q = t + K.table_prec
    if q <= t:
        return FieldElement(K, (), q, q)
    return FieldElement(K, K._mul_vec(x.vec, y.vec, K.p ** (q - t)), t, q)


def _sequential_dot(u, v, zero):
    """zero + u[0] v[0] + ..., one scalar operation at a time: the oracle for
    LocalField.dot over K and for gamma's integer kernels over Q_p."""
    acc = zero
    for x, y in zip(u, v):
        acc = acc + _table_product(x, y)
    return acc


def _triple(x):
    return (x.val, x.unit, x.prec)


def _kernel_dot(u, v, start):
    """start + u[0] v[0] + ... over Q_p by gamma's integer kernels on one-row
    blocks: for a start zero to precision, _product of the row u by the
    column v started at zero to precision start.prec; for any other start,
    or no terms, _combination of start * 1 and the u[k] v[k], started at its
    first product (1 known to 100 digits, so start * 1 is start)."""
    p = start.p
    if start.is_zero() and u:
        row = gamma._column(p, u)._replace(ncols=len(u))
        blk = gamma._product(p, row, gamma._column(p, v), start.prec)
    else:
        blk = gamma._combination(p, [(start, gamma._column(p, [S.one(p, 100)]))] +
                                 [(x, gamma._column(p, [y])) for x, y in zip(u, v)])
    return gamma._scalars(p, blk)[0]


@st.composite
def _scalar(draw, p):
    """A scalar at absolute precision -5..40: zero to precision about one
    time in four, else p^val * unit with val in -6..8 below the precision."""
    prec = draw(st.integers(-5, 40))
    if draw(st.integers(0, 3)) == 0:
        return S.zero(p, prec)
    val = draw(st.integers(-6, min(8, prec - 1)))
    unit = (draw(st.integers(0, p ** 40)) * p + draw(st.integers(1, p - 1))) % p ** (prec - val)
    return S(p, val, unit, prec)


@st.composite
def _dot_case(draw):
    """Two vectors of equal length 0..7 over p = 2, 3 or 5 and a zero at
    precision -5..40."""
    p = draw(st.sampled_from([2, 3, 5]))
    size = draw(st.integers(0, 7))
    vec = st.lists(_scalar(p), min_size=size, max_size=size)
    return draw(vec), draw(vec), S.zero(p, draw(st.integers(-5, 40)))


@st.composite
def _started_dot_case(draw):
    """A _dot_case whose start is any scalar, zero to precision or not."""
    u, v, zero = draw(_dot_case())
    return u, v, draw(_scalar(zero.p))


# name -> field: Q_3, Q_3(sqrt 3), the ramified Q_2(i), Q_3(zeta_9) and the
# degree-18 Q_3(zeta_27), each at precision 20
DOT_FIELDS = {"Q3": qp_field(3, 20), "Q3(sqrt3)": eisenstein_field(3, [-3, 0, 1], 20),
              "Q2(i)": eisenstein_field(2, [2, 2, 1], 20), "Q3(zeta9)": cyclotomic_field(3, 2, 20),
              "Q3(zeta27)": cyclotomic_field(3, 3, 20)}


@st.composite
def _element(draw, K):
    """An element of K at absolute precision -3..30, past the table's 20
    digits, zero to precision about one time in four, else p^shift times a
    coordinate vector."""
    prec = draw(st.integers(-3, 30))
    if draw(st.integers(0, 3)) == 0:
        return FieldElement(K, (), prec, prec)
    vec = draw(st.lists(st.integers(-K.p ** 12, K.p ** 12), min_size=K.degree,
                        max_size=K.degree))
    return FieldElement(K, vec, draw(st.integers(-4, 6)), prec)


@st.composite
def _field_dot_case(draw):
    """Vectors of length 0..16 over one of DOT_FIELDS, u of field elements and
    v of field elements, Q_p scalars or ints, and a start of K, or a zero at
    20..30 digits that leaves the products' precisions, capped or not, to
    bind."""
    K = DOT_FIELDS[draw(st.sampled_from(sorted(DOT_FIELDS)))]
    size = draw(st.integers(0, 16))
    factor = st.one_of(_element(K), _element(K), _scalar(K.p), st.integers(-100, 100))
    high = st.integers(20, 30).map(lambda prec: FieldElement(K, (), prec, prec))
    return (draw(st.lists(_element(K), min_size=size, max_size=size)),
            draw(st.lists(factor, min_size=size, max_size=size)),
            draw(st.one_of(_element(K), high)))


# name -> (u, v, zero)
DOT_EDGES = {
    "zero-times-nonzero": ([S.zero(3, 4), S.one(3, 9)], [S.from_int(9, 3, 9), S.one(3, 2)],
                           S.zero(3, 20)),
    "zero-times-zero": ([S.zero(2, 5)], [S.zero(2, -3)], S.zero(2, 40)),
    "zero-binds": ([S.one(5, 10)], [S.one(5, 10)], S.zero(5, -1)),
    "negative-shifts": ([S(3, -4, 2, 5), S(3, -2, 1, 8)], [S(3, -1, 7, 3), S(3, 3, 4, 9)],
                        S.zero(3, 40)),
    "cancellation": ([S.from_int(7, 3, 20), S.from_int(-7, 3, 20)],
                     [S.from_int(5, 3, 12), S.from_int(5, 3, 12)], S.zero(3, 30)),
    "empty": ([], [], S.zero(5, 7)),
}


def _sequential_series(M, b, columns):
    """The operator series as the P_n sum sum (b^n/n!) P_n v, P_(n+1) =
    (theta - e n) P_n, one product at a time: the oracle for senmod's
    exp(t theta).  P_n v is linalg.mat_vec's rows over _sequential_dot, each
    term scaled by _table_product(coef, x) and coef updated by a division
    by K.from_int(n), with the tail bound in Fractions; the terms are added
    entrywise until series_converged, and the sum truncated to K.prec."""
    K = M.field
    b = K.from_scalar(b) if isinstance(b, (int, PadicScalar)) else b
    alpha = Fraction(1, K.p - 1)
    w = min([M.e.val_bound()] + [x.val_bound() for row in M.theta for x in row])
    c = b.val_bound() + w

    def terms():
        prods, coef, n, v_prod = [list(v) for v in columns], K.one(), 0, None
        while True:
            flat = [x for v in prods for x in v]
            low = min(x.val_bound() for x in flat)
            v_prod = low if v_prod is None else max(low, v_prod + w)
            yield [_table_product(coef, x) for x in flat], \
                v_prod - n * w + (n + 1) * (c - alpha) + alpha
            en = M.e * n
            shift = [[x - en if i == j else x for j, x in enumerate(row)]
                     for i, row in enumerate(M.theta)]
            n += 1
            coef = _table_product(coef, b) / K.from_int(n)
            prods = [[_sequential_dot(row, v, K.zero()) for row in shift] for v in prods]

    flat = None
    for entries, tail in terms():
        flat = entries if flat is None else [x + y for x, y in zip(flat, entries)]
        if series_converged(tail, K.prec, [x.prec for x in flat]):
            break
    flat = [x.truncated(K.prec) for x in flat]
    return [flat[j * M.dim:(j + 1) * M.dim] for j in range(len(columns))]


def _dot_horner(K, cols, xs, coefs, prec):
    """senmod._horner with each entry of a step one LocalField.dot of the
    block's (x^i v)_ab and row a of x^s against the block's coefficients and
    column b of the last step, from a zero at prec, every product's
    precision formed by dot's own rule: the oracle for the step prepared
    once and summed by one packed sum per entry."""
    s, start, out = len(cols), FieldElement(K, (), prec, prec), None
    for j in reversed(range(0, len(coefs), s)):
        block, prev, out = coefs[j:j + s], out, []
        for a in range(len(cols[0])):
            row = []
            for c in range(len(cols[0][0])):
                u = [(t[a][c], k) for t, k in zip(cols, block) if t[a][c].shift + k.val < prec]
                if prev:
                    u += [(z, y[c]) for z, y in zip(xs[a], prev)
                          if z is not None and z.shift + y[c].shift < prec]
                row.append(K.dot([z for z, _ in u], [k for _, k in u], start))
            out.append(row)
    return out


def _triples(rows):
    return [[(x.vec, x.shift, x.prec) for x in row] for row in rows]


# the DOT_FIELDS, the degree-6 field of the benchmark's modules workload
# (g = y^2 + 1, E = u^3 - 3y) and Q_3(sqrt 3) with E known to 3^15, so that
# the table's 15 digits cap products, each at precision 20
SERIES_FIELDS = dict(
    DOT_FIELDS, K6=build_field(LocalFieldSpec(3, [1, 0, 1], [[0, -3], [0], [0], [1]], 20)),
    Q3_sqrt3_M15=build_field(LocalFieldSpec(3, [-1, 1], [[S.from_int(-3, 3, 15)], [0], [1]], 20)))


@st.composite
def _series_element(draw, K, shift, prec):
    """An element of K with shift and precision drawn from the strategies
    `shift` and `prec`, zero to precision about one time in five."""
    prec = draw(prec)
    if draw(st.integers(0, 4)) == 0:
        return FieldElement(K, (), prec, prec)
    vec = draw(st.lists(st.integers(-K.p ** 12, K.p ** 12), min_size=K.degree,
                        max_size=K.degree))
    return FieldElement(K, vec, draw(shift), prec)


@st.composite
def _wide_dot_case(draw):
    """Up to 25 terms over one of DOT_FIELDS, elements with shifts s spread
    over 0..20, the fields' precision, and precisions s + 1..s + 40, mixed
    within a sum, zero to precision one time in five; v of elements, scalars
    or ints, and a start of K or a zero at 20..45 digits.  The terms' bounds
    reach past the slot width of the table's own, so many sums are packed at
    64-bit widths, with the powers of p and the packed table rows the field
    keeps between sums."""
    K = DOT_FIELDS[draw(st.sampled_from(sorted(DOT_FIELDS)))]
    size = draw(st.integers(0, 25))
    element = st.integers(0, K.prec).flatmap(
        lambda s: _series_element(K, st.just(s), st.integers(s + 1, s + 40)))
    factor = st.one_of(element, element, _scalar(K.p), st.integers(-100, 100))
    high = st.integers(20, 45).map(lambda prec: FieldElement(K, (), prec, prec))
    return (draw(st.lists(element, min_size=size, max_size=size)),
            draw(st.lists(factor, min_size=size, max_size=size)),
            draw(st.one_of(element, high)))


@st.composite
def _mat_mul_case(draw):
    """A square matrix of dimension 1..8 over one of SERIES_FIELDS, a second
    matrix of 1..8 columns, a vector and a start, shifts -4..6 and precisions
    12..30, K.prec one time in two."""
    K = SERIES_FIELDS[draw(st.sampled_from(sorted(SERIES_FIELDS)))]
    d, k = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = _series_element(K, st.integers(-4, 6),
                            st.one_of(st.just(K.prec), st.integers(12, 30)))
    rows = st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)
    b = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=d, max_size=d))
    return K, draw(rows), b, draw(st.lists(entry, min_size=d, max_size=d)), draw(entry)


@st.composite
def _series_case(draw, fields=SERIES_FIELDS):
    """A nearly Hodge-Tate module theta = e diag(k) + p N over one of
    `fields`, N integral with mixed precisions and zeros, at dimension
    1..8 (1..3 over the degree-18 field), b = p pi^j u with u a unit, and a
    vector with shifts down to -4 for operator_series_apply."""
    K = fields[draw(st.sampled_from(sorted(fields)))]
    d = draw(st.integers(1, 3 if K.degree > 6 else 8))
    p, prec = K.from_int(K.p), st.one_of(st.just(K.prec), st.integers(12, K.prec))
    theta = [[p * draw(_series_element(K, st.integers(0, 2), prec)) +
              (K.different_e * draw(st.integers(-3, 3)) if i == j else K.zero())
              for j in range(d)] for i in range(d)]
    unit = K.one() + K.pi * draw(_series_element(K, st.integers(0, 1), prec))
    vector = [draw(_series_element(K, st.integers(-4, 3), prec)) for _ in range(d)]
    return SenModule(K, theta), p * K.pi ** draw(st.integers(0, 2)) * unit, vector


@st.composite
def _horner_case(draw):
    """Terms shaped as senmod._blocks gives them to senmod._horner, over one
    of SERIES_FIELDS: s = 1..4 powers x^i v of d x k entries (d = 1..4, k = 1
    or d) with shifts -4..6 and precisions 12..30, zero one time in five;
    x^s with shifts 0..6 and entries None one time in four, when the 1..12
    coefficients make more than one block; the coefficients p^val u with
    val -6..2 known to 1..25 digits past it; a target precision 4..30."""
    K = SERIES_FIELDS[draw(st.sampled_from(sorted(SERIES_FIELDS)))]
    d = draw(st.integers(1, 4))
    k, s, n = draw(st.sampled_from((1, d))), draw(st.integers(1, 4)), draw(st.integers(1, 12))
    prec = st.integers(12, 30)

    def matrix(entry, cols):
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=d, max_size=d))

    cols = [matrix(_series_element(K, st.integers(-4, 6), prec), k) for _ in range(s)]
    entry = st.integers(0, 3).flatmap(lambda none: st.none() if none == 0 else
                                      _series_element(K, st.integers(0, 6), prec))
    xs = matrix(entry, d) if n > s else None
    coefs = []
    for _ in range(n):
        val, rel = draw(st.integers(-6, 2)), draw(st.integers(1, 25))
        unit = draw(st.integers(0, K.p ** rel // K.p - 1)) * K.p + draw(st.integers(1, K.p - 1))
        coefs.append(S(K.p, val, unit, val + rel))
    return K, cols, xs, coefs, draw(st.integers(4, 30))


def _twins(prec):
    """The closed-form grid's fields at prec digits: Q_3, Q_3(sqrt 3), Q_3(zeta_9),
    Q_3(3^(1/4)) and the benchmark's degree-6 field."""
    return {"Q3": qp_field(3, prec), "Q3(sqrt3)": eisenstein_field(3, [-3, 0, 1], prec),
            "Q3(zeta9)": cyclotomic_field(3, 2, prec),
            "Q3(3^1/4)": eisenstein_field(3, [-3, 0, 0, 0, 1], prec),
            "K6": build_field(LocalFieldSpec(3, [1, 0, 1], [[0, -3], [0], [0], [1]], prec))}


# name -> (the field at 30 digits, the same presentation at 90)
CLOSED_FORM_FIELDS = {name: (K, H) for (name, K), H in zip(_twins(30).items(),
                                                           _twins(90).values())}


def _lifted_field(K):
    """K's presentation at 90 digits, each defining coefficient lifted to the
    integer of least absolute value."""
    def centered(c):
        r, m = c.lift(), c.p ** c.prec
        return r - m if 2 * r > m else r
    return build_field(LocalFieldSpec(K.p, [centered(c) for c in K.spec.unramified_poly],
                                      [[centered(c) for c in coeff]
                                       for coeff in K.spec.eisenstein_poly], 90))


def _full(K, vec, shift):
    """p^shift vec, known to K's precision."""
    return FieldElement(K, vec, shift, K.prec)


@st.composite
def _closed_form_case(draw):
    """theta = e P J P^-1 over one of CLOSED_FORM_FIELDS at 30 digits, with P
    a product of up to 3d elementary moves, J the weights -3..3 on the
    diagonal and, one time in two at dimension 2 or 3, a 1 above its first two
    (equal) weights; b = pi^k u, u a unit, with v(b) = k/e_ram from the least
    value the stop rule admits (below 0 over Q_3(zeta_9) and the degree-6
    field) to 2/e_ram above it; a vector of shifts -1..2.  Returns the case
    at 30 digits and a function of a field giving (theta, b, vector, P, P^-1,
    weights, Jordan) there."""
    name = draw(st.sampled_from(sorted(CLOSED_FORM_FIELDS)))
    K, H = CLOSED_FORM_FIELDS[name]
    d = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    jordan = d > 1 and draw(st.booleans())
    if jordan:
        weights[1] = weights[0]
    P = [[int(i == j) for j in range(d)] for i in range(d)]
    Q = [row[:] for row in P]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1),
                                           st.sampled_from((-2, -1, 1, 2))), max_size=3 * d)):
        if i != j:              # row i += c row j of P, column j -= c column i of P^-1
            P[i] = [x + c * y for x, y in zip(P[i], P[j])]
            for row in Q:
                row[j] -= c * row[i]
    J = [[weights[i] if i == j else int(jordan and (i, j) == (0, 1)) for j in range(d)]
         for i in range(d)]
    m = [[sum(P[i][k] * J[k][l] * Q[l][j] for k in range(d) for l in range(d))
          for j in range(d)] for i in range(d)]
    e_ram, ve = K.e_ram, K.different_e._v()
    k = (e_ram - 2 * ve) // 2 + 1 + draw(st.integers(0, 2))     # v(b) + v(e) > 1/2
    coords = [draw(st.integers(0, 3 ** 8)) for _ in range(K.degree)]
    coords[k % e_ram] = 3 * coords[k % e_ram] + draw(st.sampled_from((1, 2)))
    for t in range(k % e_ram):
        coords[t] *= 3          # the first u-degree prime to 3 is k mod e_ram
    vector = [(draw(st.lists(st.integers(0, 3 ** 8), min_size=K.degree, max_size=K.degree)),
               draw(st.integers(-1, 2))) for _ in range(d)]

    def at(L):
        theta = [[L.different_e * x for x in row] for row in m]
        return (theta, _full(L, coords, k // e_ram), [_full(L, v, t) for v, t in vector],
                P, Q, weights, jordan)
    return K, H, at


def _closed_form(H, at):
    """P diag((1 + e b)^w) P^-1 over the 90-digit twin H of a closed-form
    case, with (1 + e b)^w log(1 + e b) above the first two weights for a
    Jordan block; log(1 + x) summed term by term until x^n/n lies below p^100."""
    theta, b, _, P, Q, weights, jordan = at(H)
    x = H.different_e * b
    base = H.one() + x
    d = len(weights)
    D = [[base ** weights[i] if i == j else H.zero() for j in range(d)] for i in range(d)]
    if jordan:
        log, term, n = H.zero(), H.one(), 0
        while n == 0 or n * x.val_bound() - math.log(n, 3) <= 100:
            n += 1
            term = term * x
            log = log + term / ((-1) ** (n - 1) * n)
        D[0][1] = D[0][0] * log
    ints = lambda a: [[H.from_int(c) for c in row] for row in a]
    return linalg.mat_mul(linalg.mat_mul(ints(P), D, H.zero()), ints(Q), H.zero())


def _claims_are_closed_form(got, want):
    """Every digit an entry of got claims is the closed form's."""
    return all((a - c).is_zero() for x, z in zip(got, want)
               for a, c in zip(x.coordinates(), z.coordinates()))


def _against_oracle(got, want):
    """Entries that disagree with the oracle modulo the lesser precision, and
    the most digits any entry claims below the oracle's."""
    return ([i for i, (x, y) in enumerate(zip(got, want)) if not (x - y).is_zero()],
            max([y.prec - x.prec for x, y in zip(got, want)] + [0]))


class TestDot:
    """Over Q_p a sum of products is gamma's integer kernels, over K
    LocalField.dot; each against the sum one product at a time."""

    @settings(max_examples=400)
    @given(case=_dot_case())
    def test_matches_sequential_sum(self, case):
        u, v, zero = case
        assert _triple(_kernel_dot(u, v, zero)) == _triple(_sequential_dot(u, v, zero))

    @settings(max_examples=200)
    @given(case=_started_dot_case())
    def test_matches_sequential_sum_from_any_start(self, case):
        u, v, start = case
        assert _triple(_kernel_dot(u, v, start)) == _triple(_sequential_dot(u, v, start))

    @settings(max_examples=300)
    @given(case=_field_dot_case())
    def test_field_elements_match_sequential_sum(self, case):
        # the packed route over K against the sum one product at a time
        u, v, start = case
        x, y = start.field.dot(u, v, start), _sequential_dot(u, v, start)
        assert (x.vec, x.shift, x.prec) == (y.vec, y.shift, y.prec)

    @settings(max_examples=300)
    @given(case=_wide_dot_case())
    def test_wide_slots_match_sequential_sum(self, case):
        # sums of up to 25 terms whose slots outgrow the table's width; each
        # element of u is first packed, for its square, at another width
        u, v, start = case
        for x in u:
            x * x
        x, y = start.field.dot(u, v, start), _sequential_dot(u, v, start)
        assert (x.vec, x.shift, x.prec) == (y.vec, y.shift, y.prec)

    def test_field_dot_takes_elements_first(self):
        # u holds elements of K: a scalar, an int or another field's element is refused
        K, L = DOT_FIELDS["Q3(sqrt3)"], DOT_FIELDS["Q3(zeta9)"]
        for x in (S.one(3, 20), 1, L.one()):
            with pytest.raises(UsageError):
                K.dot([x], [K.one()], K.zero())

    @pytest.mark.parametrize("name", ["Q3", "Q3(sqrt3)", "Q3(zeta27)"])
    def test_table_precision_caps_products(self, name):
        # K.table_prec = 20 digits past a product's shift, except over Q_p
        K = DOT_FIELDS[name]
        x = FieldElement(K, [1] * K.degree, 0, 30)
        u, v, start = [x, x], [x, S.from_int(3, 3, 40)], FieldElement(K, (), 30, 30)
        got, want = K.dot(u, v, start), _sequential_dot(u, v, start)
        assert (got.vec, got.shift, got.prec) == (want.vec, want.shift, want.prec)
        assert got.prec == (30 if K.degree == 1 else 20)

    @pytest.mark.parametrize("name", ["Q2(i)", "Q3(zeta9)"])
    def test_reduction_binds_the_slot_width(self, name):
        # a start at shift m = 0 and precision n = 32, and one product of
        # shift 30 whose factors claim 2 digits each: the two terms' slots
        # stay below 2 d p^34, but the reduction's slots reach len(table)
        # p^(n - m) p^(M + e_ram) with M = 20, so that half of the width
        # rule binds
        K = DOT_FIELDS[name]
        p, d = K.p, K.degree
        start = FieldElement(K, [p ** 32 - 1 - t for t in range(d)], 0, 32)
        x = FieldElement(K, [1 + p * (t % 2) for t in range(d)], 30, 32)
        y = FieldElement(K, [p + 1 - t % 2 for t in range(d)], 0, 2)
        reduction = len(K._table) * p ** 32 * p ** (K.table_prec + K.e_ram)
        assert reduction > 2 * d * p ** 34
        got, want = K.dot([x], [y], start), _sequential_dot([x], [y], start)
        assert (got.vec, got.shift, got.prec) == (want.vec, want.shift, want.prec)
        assert got.prec == 32

    @settings(max_examples=40, deadline=None)
    @given(case=_closed_form_case())
    def test_operator_series_matches_sequential_sum(self, case):
        # the matrix against the P_n sum one product at a time and the closed
        # form at 90 digits: equal modulo the lesser precision, no entry
        # claiming fewer digits than the sum, every claimed digit the closed form's
        K, H, at = case
        theta, b, *_ = at(K)
        M = SenModule(K, theta)
        got = [x for row in operator_series(M, b) for x in row]
        want = [x for row in zip(*_sequential_series(M, b, linalg.identity(M.dim, K.one(),
                                                                              K.zero())))
                for x in row]
        assert _against_oracle(got, want) == ([], 0)
        assert _claims_are_closed_form(got, [x for row in _closed_form(H, at) for x in row])

    def test_operator_series_keeps_the_sums_digits_at_dimension_8(self):
        # the benchmark's regime, v(b) > 1: a dimension-8 series over
        # Q_3(sqrt 3) claims at least the P_n sum's digits in every entry
        K = eisenstein_field(3, [-3, 0, 1], 30)
        rng = random.Random(8)
        theta = [[K.from_int(3 * rng.randrange(-15, 16)) +
                  (K.different_e * rng.randrange(-3, 4) if i == j else K.zero())
                  for j in range(8)] for i in range(8)]
        M, b = SenModule(K, theta), K.pi * K.from_int(3 * rng.randrange(1, 20))
        got = [x for row in operator_series(M, b) for x in row]
        want = [x for row in zip(*_sequential_series(M, b, linalg.identity(8, K.one(), K.zero())))
                for x in row]
        assert _against_oracle(got, want) == ([], 0)

    @settings(max_examples=200)
    @given(case=_mat_mul_case())
    def test_packed_mat_vec_matches_sequential_sum(self, case):
        # linalg.mat_mul and mat_vec over K: the row and column bounds where
        # they reach the start's precision, dot's rule product by product
        # below; a start of any precision, zero or not, as LocalField.dot takes it
        K, rows, b, vector, start = case
        cols = list(zip(*b))
        for zero in (K.zero(), start):
            want = [[_sequential_dot(row, col, zero) for col in cols] for row in rows]
            assert _triples(linalg.mat_mul(rows, b, zero)) == _triples(want)
        want = [_sequential_dot(row, vector, K.zero()) for row in rows]
        assert _triples([linalg.mat_vec(rows, vector, K.zero())]) == _triples([want])

    @settings(max_examples=100)
    @given(case=_mat_mul_case())
    def test_mat_scale_matches_elementwise_products(self, case):
        # linalg.mat_scale over K is c * x entry by entry, each a one-term packed sum
        K, rows, b, vector, _ = case
        for c in vector[:2]:
            want = [[_table_product(c, x) for x in row] for row in b]
            assert _triples(linalg.mat_scale(b, c)) == _triples(want)

    @pytest.mark.parametrize("name", sorted(SERIES_FIELDS))
    @settings(max_examples=100)
    @given(data=st.data())
    def test_product_matches_table_product(self, name, data):
        # x * y is the one-term packed sum: shifts -4..6, precisions -3..30
        # around K.prec = 20, zero factors; Q3_sqrt3_M15's table caps at 15
        K = SERIES_FIELDS[name]
        element = _series_element(K, st.integers(-4, 6), st.integers(-3, 30))
        x, y = data.draw(element), data.draw(element)
        z, want = x * y, _table_product(x, y)
        assert (z.vec, z.shift, z.prec) == (want.vec, want.shift, want.prec)

    @pytest.mark.parametrize("name, prec", [("Q3", 30), ("Q3_sqrt3_M15", 15)])
    def test_product_takes_the_table_cap(self, name, prec):
        K = SERIES_FIELDS[name]
        x = FieldElement(K, [1] * K.degree, 0, 30)
        assert (x * x).prec == _table_product(x, x).prec == prec

    @settings(max_examples=40, deadline=None)
    @given(case=_closed_form_case())
    def test_operator_series_and_apply_match_sequential_sum(self, case):
        # the series applied to a vector against the P_n sum on that vector and
        # the closed form times the vector at 90 digits, by the same three rules
        K, H, at = case
        theta, b, vector, *_ = at(K)
        M = SenModule(K, theta)
        got = operator_series_apply(M, b, vector)
        want = _sequential_series(M, b, [vector])[0]
        assert _against_oracle(got, want) == ([], 0)
        _, _, high, *_ = at(H)
        assert _claims_are_closed_form(got, linalg.mat_vec(_closed_form(H, at), high, H.zero()))

    @settings(max_examples=30, deadline=None)
    @given(case=_series_case())
    def test_operator_series_on_mixed_precisions_claims_only_true_digits(self, case):
        # inputs with mixed precisions and zeros: the matrix and the series
        # applied to a vector agree with the P_n sum modulo the lesser
        # precision, claim no fewer digits than it, and every digit they
        # claim is that of the P_n sum of the same inputs taken as exact,
        # summed over their fields at 90 digits
        M, b, vector = case
        K = M.field
        try:
            want = _sequential_series(M, b, linalg.identity(M.dim, K.one(), K.zero()))
        except (DomainError, PrecisionError, ConvergenceError) as exc:
            with pytest.raises(type(exc)):
                operator_series(M, b)
            return
        H = _lifted_field(K)
        lift = lambda x: FieldElement(H, x.vec, x.shift, 90) if x.shift < x.prec else H.zero()
        Mh = SenModule(H, [[lift(x) for x in row] for row in M.theta])
        exact = _sequential_series(Mh, lift(b), [[lift(x) for x in vector]] +
                                   linalg.identity(M.dim, H.one(), H.zero()))
        got = [x for row in operator_series(M, b) for x in row]
        assert _against_oracle(got, [x for row in zip(*want) for x in row]) == ([], 0)
        assert _claims_are_closed_form(got, [x for row in zip(*exact[1:]) for x in row])
        got = operator_series_apply(M, b, vector)
        assert _against_oracle(got, _sequential_series(M, b, [vector])[0]) == ([], 0)
        assert _claims_are_closed_form(got, exact[0])

    @settings(max_examples=70)
    @given(case=_horner_case())
    def test_horner_matches_dot_per_entry_on_mixed_terms(self, case):
        # the step's bounds and prepared coefficients where they show every
        # product reaching prec, each product's precision where not: mixed
        # precisions, zeros, entries of x^s left out, products past prec and
        # the table cap of Q3_sqrt3_M15
        assert _triples(senmod._horner(*case)) == _triples(_dot_horner(*case))

    @pytest.mark.parametrize("name, shift, prec, want", [("Q3_sqrt3_M15", 2, 30, 17),
                                                         ("Q3", 0, 29, 29)])
    def test_horner_takes_each_products_precision(self, name, shift, prec, want):
        # the product of x^s = p^shift (1 + ...) by the last step 1 falls
        # short of the target 30, which the block's own product reaches: by
        # Q3_sqrt3_M15's table cap 15 digits past the shift 2, and by one
        # digit of x^s's precision over Q_3
        K = SERIES_FIELDS[name]
        ones = [1] * K.degree
        one, z = FieldElement(K, ones, 0, 30), FieldElement(K, ones, shift, prec)
        case = K, [[[one]]], [[z]], [S(3, 0, 1, 30)] * 2, 30
        got = senmod._horner(*case)
        assert _triples(got) == _triples(_dot_horner(*case)) and got[0][0].prec == want

    @settings(max_examples=30, deadline=None)
    @given(case=_series_case({name: K for name, (K, _) in CLOSED_FORM_FIELDS.items()}))
    def test_horner_steps_match_dot_per_entry(self, case):
        # each entry of a Horner step summed by one packed sum from the step's
        # prepared coefficients and bounds, against LocalField.dot per entry
        # on the same terms: every step of the matrix and of the series
        # applied to a vector, so both give the oracle's (vec, shift, prec);
        # dimensions 1..8 over the closed-form grid's five fields
        M, b, vector = case
        horner, steps = senmod._horner, []

        def checked(*args):
            steps.append(_triples(_dot_horner(*args)))
            out = horner(*args)
            assert _triples(out) == steps[-1]
            return out

        with mock.patch.object(senmod, "_horner", checked):
            try:
                operator_series(M, b)
                operator_series_apply(M, b, vector)
            except (DomainError, PrecisionError, ConvergenceError):
                pass

    @settings(max_examples=40, deadline=None)
    @given(case=_series_case(), data=st.data())
    def test_apply_takes_scalar_entries(self, case, data):
        # a scalar enters as K.from_scalar of it, digit for digit, and the
        # result agrees with the sequential sum over the scalar modulo the
        # lesser precision and claims no fewer digits than it
        M, b, vector = case
        K = M.field
        vector = [data.draw(st.one_of(st.just(x), _scalar(K.p))) for x in vector]
        try:
            want = _sequential_series(M, b, [vector])[0]
        except (DomainError, PrecisionError, ConvergenceError) as exc:
            with pytest.raises(type(exc)):
                operator_series_apply(M, b, vector)
            return
        got = operator_series_apply(M, b, vector)
        assert _triples([got]) == _triples([operator_series_apply(
            M, b, [x if type(x) is FieldElement else K.from_scalar(x) for x in vector])])
        assert _against_oracle(got, want) == ([], 0)

    def test_apply_rejects_another_fields_element(self):
        K, L = DOT_FIELDS["Q3(sqrt3)"], DOT_FIELDS["Q3(zeta9)"]
        M = SenModule.diagonal_weights(K, [1, -1])
        with pytest.raises(UsageError):
            operator_series_apply(M, K.from_int(9), [K.one(), L.one()])

    @pytest.mark.parametrize("N", [10, 20, 30])
    def test_rank_one_grid_matches_sequential_sum(self, N):
        # the benchmark's fixed rank-one tasks: weight -2 over Q_3, b = 3, 6, 12
        K = qp_field(3, N)
        M = SenModule.diagonal_weights(K, [-2])
        for b in (3, 6, 12):
            want = _sequential_series(M, K.from_int(b), [[K.one()]])
            assert _triples(operator_series(M, K.from_int(b))) == _triples(want)

    def test_operator_series_takes_at_most_2_sqrt_n_matrix_products(self, monkeypatch):
        # exp(t theta) = sum_(k<=N) A^k/k! by Paterson-Stockmeyer: A^2..A^s by
        # mat_mul, s = ceil(sqrt(N+1)), and a Horner step in A^s per block
        # after the first, each entry of a block one LocalField._packed_sum
        # with no LocalField.dot; so at most 2 ceil(sqrt(N+1)) products of
        # d x d matrices, and no entry is added up element by element
        K = eisenstein_field(3, [-3, 0, 1], 40)
        rng = random.Random(5)
        d = 8
        theta = [[K.from_int(3 * rng.randrange(-15, 16)) +
                  (K.different_e * rng.randrange(-3, 4) if i == j else K.zero())
                  for j in range(d)] for i in range(d)]
        M, b = SenModule(K, theta), K.from_int(9) * K.pi
        assert nearly_ht_test(M).verdict
        calls = {"mat_mul": 0, "sums": 0, "coefficients": 0, "inside": False}
        blocks, horner = senmod._blocks, senmod._horner
        mat_mul, packed_sum, dot = LocalField.mat_mul, LocalField._packed_sum, LocalField.dot

        def inside(f, x):
            calls["inside"] = len(x) == d
            try:
                return f()
            finally:
                calls["inside"] = False

        def powers(K, x, s, high, last, vector=None):
            return inside(lambda: blocks(K, x, s, high, last, vector), x)

        def steps(K, cols, xs, coefs, prec):
            if len(cols[0]) == d:
                calls["coefficients"] = len(coefs)
            return inside(lambda: horner(K, cols, xs, coefs, prec), cols[0])

        def product(self, a, b, zero, bounds=None):
            calls["mat_mul"] += calls["inside"]
            state, calls["inside"] = calls["inside"], False         # its own sums
            try:
                return mat_mul(self, a, b, zero, bounds)
            finally:
                calls["inside"] = state

        def counted_sum(self, terms, n):
            calls["sums"] += calls["inside"]
            return packed_sum(self, terms, n)

        def counted_dot(self, u, v, start):
            if calls["inside"]:
                raise AssertionError("a Horner entry went through LocalField.dot")
            return dot(self, u, v, start)

        def refuse(*args):
            raise AssertionError("an entry was added up element by element")

        monkeypatch.setattr(senmod, "_blocks", powers)
        monkeypatch.setattr(senmod, "_horner", steps)
        monkeypatch.setattr(LocalField, "mat_mul", product)
        monkeypatch.setattr(LocalField, "_packed_sum", counted_sum)
        monkeypatch.setattr(LocalField, "dot", counted_dot)
        monkeypatch.setattr(FieldElement, "__add__", refuse)
        operator_series(M, b)
        n, blocks = calls["coefficients"], calls["sums"] // (d * d)
        assert n > 10 and blocks > 1 and calls["sums"] == blocks * d * d
        assert calls["mat_mul"] + blocks - 1 <= 2 * math.ceil(math.sqrt(n))

    @pytest.mark.parametrize("name", sorted(DOT_EDGES))
    def test_edge_cases(self, name):
        u, v, zero = DOT_EDGES[name]
        assert _triple(_kernel_dot(u, v, zero)) == _triple(_sequential_dot(u, v, zero))

    def test_cancellation_leaves_zero_to_precision(self):
        x = _kernel_dot(*DOT_EDGES["cancellation"])
        assert x.is_zero() and x.prec == 12 and x.valuation() is None

    def test_mixed_primes_rejected(self):
        # as the sequential sum does, through PadicScalar.__mul__
        for u, v, zero in (([S.one(3, 10)], [S.one(5, 10)], S.zero(3, 10)),
                           ([S.zero(5, 10)], [S.one(5, 10)], S.zero(3, 10))):
            with pytest.raises(UsageError):
                _sequential_dot(u, v, zero)
            with pytest.raises(UsageError):
                _kernel_dot(u, v, zero)


def _exact(x):
    """The exact rational p^v * unit that x stores, 0 for a zero; read through
    is_zero(), valuation() and unit only."""
    return Fraction(0) if x.is_zero() else Fraction(x.p) ** x.valuation() * x.unit


def _v(x):
    """v(x) as the precision rules read it: the bound prec for a zero."""
    return x.prec if x.is_zero() else x.valuation()


def _vp(q, p):
    """Valuation of a rational, +infinity for 0."""
    if q == 0:
        return float("inf")
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _is_ball(x, value, prec, p):
    """x is value + O(p^prec): it has precision prec, it is zero exactly when
    value vanishes modulo p^prec, and otherwise it has value's valuation and a
    reduced unit that agrees with value modulo p^prec."""
    assert x.prec == prec
    if _vp(value, p) >= prec:
        assert x.is_zero() and x.valuation() is None and x.unit == 0
        return
    v = x.valuation()
    assert not x.is_zero() and v == _vp(value, p)
    assert 0 < x.unit < p ** (prec - v) and x.unit % p
    assert _vp(Fraction(p) ** v * x.unit - value, p) >= prec


@st.composite
def _ball(draw, p, zero):
    """A scalar at precision -5..40 from the public constructors: zero to
    precision, or p^val * unit with val in -6..8 below the precision."""
    prec = draw(st.integers(-5, 40))
    if zero:
        return S.zero(p, prec)
    val = draw(st.integers(-6, min(8, prec - 1)))
    unit = draw(st.integers(0, p ** 40)) * p + draw(st.integers(1, p - 1))
    return S.from_fraction(Fraction(p) ** val * unit, p, prec)


@st.composite
def _zero_pair(draw):
    """Two scalars over p = 2, 3 or 5, one or both zero to precision."""
    p = draw(st.sampled_from([2, 3, 5]))
    zx, zy = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    return draw(_ball(p, zx)), draw(_ball(p, zy))


# e -> field: Q_3 and Q_3(sqrt 3)
ORACLE_FIELDS = {1: qp_field(3, 20), 2: eisenstein_field(3, [-3, 0, 1], 20)}


@st.composite
def _zero_field_pair(draw):
    """An element of Q_3 or Q_3(sqrt 3) and a Q_3 scalar, one or both zero to
    precision."""
    K = ORACLE_FIELDS[draw(st.sampled_from(sorted(ORACLE_FIELDS)))]
    zx, zs = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    prec = draw(st.integers(-3, 20))
    if zx:
        x = FieldElement(K, (), prec, prec)
    else:
        vec = draw(st.lists(st.integers(-3 ** 12, 3 ** 12), min_size=K.degree,
                            max_size=K.degree).filter(any))
        x = FieldElement(K, vec, draw(st.integers(-4, min(6, prec - 1))), prec)
    return x, draw(_ball(3, zs))


class TestZeroOracle:
    """Arithmetic with zeros to precision against the precision rules of
    senlab.padic, evaluated with v = prec for a zero, and against exact
    rational values."""

    @settings(max_examples=300)
    @given(pair=_zero_pair())
    def test_add_sub_mul(self, pair):
        x, y = pair
        p, a, b = x.p, _exact(x), _exact(y)
        _is_ball(x + y, a + b, min(x.prec, y.prec), p)
        _is_ball(x - y, a - b, min(x.prec, y.prec), p)
        _is_ball(x * y, a * b, min(x.prec + _v(y), y.prec + _v(x)), p)

    @settings(max_examples=300)
    @given(pair=_zero_pair())
    def test_div(self, pair):
        x, y = pair
        if y.is_zero():
            with pytest.raises(PrecisionError):
                x / y
            return
        vy = _v(y)
        _is_ball(x / y, _exact(x) / _exact(y),
                 min(x.prec - vy, y.prec + _v(x) - 2 * vy), x.p)

    @settings(max_examples=200)
    @given(pair=_zero_pair(), prec=st.integers(-5, 40))
    def test_neg_and_truncated(self, pair, prec):
        for x in pair:
            _is_ball(-x, -_exact(x), x.prec, x.p)
            _is_ball(x.truncated(prec), _exact(x), min(prec, x.prec), x.p)

    @settings(max_examples=300)
    @given(pair=_zero_field_pair())
    def test_field_element_times_and_over_scalar(self, pair):
        # coordinates in the basis u^i scale by s; the precision is floor of
        # the scalar rule with the Fraction valuation of the element
        x, s = pair
        vx = x.prec if x.is_zero() else x.valuation()
        cases = [(x * s, _exact(s), min(x.prec + _v(s), s.prec + vx))]
        if s.is_zero():
            with pytest.raises(PrecisionError):
                x / s
        else:
            vs = _v(s)
            cases.append((x / s, 1 / _exact(s), min(x.prec - vs, s.prec + vx - 2 * vs)))
        for got, factor, prec in cases:
            prec = math.floor(prec)
            assert got.prec == prec
            want = [_exact(c) * factor for c in x.coordinates()]
            assert got.is_zero() == all(_vp(w, 3) >= prec for w in want)
            for c, w in zip(got.coordinates(), want):
                _is_ball(c, w, prec, 3)


def _sequential_exp(x):
    """exp(x) one PadicScalar term at a time, the oracle for padic_exp: each
    x^n/n! = p^shift * unit, exact modulo p^prec, made a scalar by
    from_residue and added with +, until series_converged on the tail bound
    (n+1) v(x) - floor(n/(p-1)) and the sum's precision; then truncated."""
    p, prec = x.p, x.prec
    if x.is_zero():
        return S.one(p, prec)
    modulus = p ** prec
    acc, unit, shift, n = S.zero(p, prec), 1, 0, 0
    while True:
        acc = acc + S.from_residue(p, unit * p ** shift, prec)
        if series_converged((n + 1) * x.val - n // (p - 1), prec, [acc.prec]):
            return acc.truncated(prec)
        n += 1
        k = vp_int(n, p)
        shift += x.val - k
        unit = unit * x.unit * pow(n // p ** k, -1, modulus) % modulus


def _sequential_log(x):
    """log(x) one PadicScalar term at a time, the oracle for padic_log: each
    -(-u)^n/n, u = x - 1, made a scalar by from_residue and added with +,
    until series_converged on the tail bound (n+1) v(u) - floor(log_p (n+1))
    and the sum's precision; then truncated."""
    p, prec = x.p, x.prec
    u = x - S.one(p, prec)
    if u.is_zero():
        return S.zero(p, prec)
    modulus = p ** prec
    acc, power, n = S.zero(p, prec), 1, 0
    log_next = 0                # floor(log_p (n + 1))
    while True:
        n += 1
        power = -power * u.unit % modulus
        k = vp_int(n, p)
        if p ** (log_next + 1) <= n + 1:
            log_next += 1
        term = -power * pow(n // p ** k, -1, modulus) * p ** (n * u.val - k)
        acc = acc + S.from_residue(p, term, prec)
        if series_converged((n + 1) * u.val - log_next, prec, [acc.prec]):
            return acc.truncated(prec)


@st.composite
def _unit(draw, p):
    """An integer 1..p^8 - 1 prime to p."""
    return draw(st.integers(0, p ** 7 - 1)) * p + draw(st.integers(1, p - 1))


class TestExpLog:
    @settings(max_examples=300)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7, 11, 13]), N=st.integers(1, 80))
    def test_exp_matches_sequential_sum(self, data, p, N):
        v = data.draw(st.integers(0, 4)) + exp_domain_threshold(p)
        x = S.from_int(p ** v * data.draw(_unit(p)), p, N)
        assert _triple(padic_exp(x)) == _triple(_sequential_exp(x))

    @settings(max_examples=300)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7, 11, 13]), N=st.integers(1, 80))
    def test_log_matches_sequential_sum(self, data, p, N):
        y = S.from_int(1 + p ** data.draw(st.integers(1, 5)) * data.draw(_unit(p)), p, N)
        assert _triple(padic_log(y)) == _triple(_sequential_log(y))

    def test_sweep_matches_sequential_sum(self):
        # the benchmark's 232 sweep points: exp(4) over Q_2, exp(p) otherwise,
        # and log(1 + p), for p = 2, 3, 5, 7 at precisions 1..29
        for p in (2, 3, 5, 7):
            for N in range(1, 30):
                x, y = S.from_int(4 if p == 2 else p, p, N), S.from_int(1 + p, p, N)
                assert _triple(padic_exp(x)) == _triple(_sequential_exp(x))
                assert _triple(padic_log(y)) == _triple(_sequential_log(y))

    def test_exp_zero(self):
        assert (padic_exp(S.zero(5, 12)) - S.one(5, 12)).is_zero()

    def test_exp_of_zero_with_no_digit_is_zero(self):
        # 1 known modulo p^0 is O(p^0): no digit, so no valuation either
        x = padic_exp(S.zero(3, 0))
        assert x.is_zero() and x.valuation() is None and x.prec == 0
        for one in (S.one(3, -2), S.zero(3, -2) ** 0):
            assert one.is_zero() and one.valuation() is None and one.prec == -2

    def test_round_trip(self):
        x = S.from_int(5, 5, 12)
        assert (padic_log(padic_exp(x)) - x).is_zero()
        y = S.from_int(9, 3, 16)
        assert (padic_exp(padic_log(S.one(3, 16) + y)) - (S.one(3, 16) + y)).is_zero()

    def test_exp_domain_error_names_radius(self):
        with pytest.raises(DomainError, match="alpha"):
            padic_exp(S.from_int(2, 2, 12))
        with pytest.raises(DomainError):
            padic_exp(S.from_int(2, 3, 12))
        # v = 2 is fine for p = 2
        padic_exp(S.from_int(4, 2, 12))

    def test_exp_radius_over_q2_is_one(self):
        # the radius is 1/(p - 1) for every p, so v(x) = 1 lies on it over Q_2
        with pytest.raises(DomainError) as err:
            padic_exp(S.from_int(2, 2, 12))
        assert "alpha = 1 (v(x) >= 2 for p = 2); got v(x) = 1" in str(err.value)
        with pytest.raises(DomainError, match=r"alpha = 1/2 \(v\(x\) >= 1 for p = 3\)"):
            padic_exp(S.from_int(1, 3, 12))

    def test_log_identity_values(self):
        assert padic_log(S.one(5, 10)).is_zero()
        l1 = padic_log(S.from_int(6, 5, 10))
        l2 = padic_log(S.from_int(36, 5, 10))
        assert (l2 - (l1 + l1)).is_zero()

    def test_log_leading_term_valuation(self):
        assert padic_log(S.from_int(4, 3, 10)).val == 1

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            padic_log(S.from_int(2, 5, 10))


def exact_sum(terms, n_terms):
    return sum(islice(terms, n_terms), Fraction(0))


def exp_terms(x):
    term = Fraction(1)
    for n in count(1):
        yield term
        term = term * x / n


def log_terms(y):
    for n in count(1):
        yield Fraction((-1) ** (n - 1) * (y - 1) ** n, n)


# 4N + 40 terms leave out only terms of valuation far above N:
# v(x^n/n!) > n/2 for v(x) >= 1 (v(x) >= 2 when p = 2), v(u^n/n) >= n - log_2 n
def oracle_terms(N):
    return 4 * N + 40


class TestSeriesStopRule:
    def test_exp_of_3_over_Q3(self):
        # the dropped term 3^9/9! has valuation 5 < 6
        assert padic_exp(S.from_int(3, 3, 6)).lift() == 229

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_exp_and_log_match_exact_sums(self, p):
        # includes log 3 over Q_2, which the window stop rule never finished
        x = 4 if p == 2 else p
        y = 1 + p
        for N in range(1, 30):
            e = padic_exp(S.from_int(x, p, N))
            assert e.prec == N
            assert e == S.from_fraction(exact_sum(exp_terms(x), oracle_terms(N)), p, N)
            l = padic_log(S.from_int(y, p, N))
            assert l.prec == N
            assert l == S.from_fraction(exact_sum(log_terms(y), oracle_terms(N)), p, N)

    @given(p=st.sampled_from([2, 3, 5, 7]), k=st.integers(1, 6),
           m=st.integers(-10 ** 6, 10 ** 6), N=st.integers(2, 40))
    def test_log_exp_round_trip(self, p, k, m, N):
        x = S.from_int(p ** (k + (p == 2)) * m, p, N)
        back = padic_log(padic_exp(x))
        assert back.prec == N and back == x

    @given(p=st.sampled_from([2, 3, 5, 7]), k=st.integers(1, 6),
           m=st.integers(-10 ** 6, 10 ** 6), N=st.integers(2, 40))
    def test_exp_log_round_trip(self, p, k, m, N):
        # over Q_2, exp(log y) = y needs v(y - 1) >= 2 (log(-1) = 0)
        y = S.from_int(1 + p ** (k + (p == 2)) * m, p, N)
        back = padic_exp(padic_log(y))
        assert back.prec == N and back == y


def _ints(ints, p, prec):
    """Ascending integer coefficients as scalars."""
    return [S.from_int(c, p, prec) for c in ints]


class TestNewtonPolygon:
    def test_eisenstein(self):
        np1 = newton_polygon(_ints([-5, 0, 1], 5, 20))
        assert np1.slope_multiset() == [Fraction(1, 2), Fraction(1, 2)]

    def test_split_roots(self):
        np2 = newton_polygon(_ints([5, -6, 1], 5, 20))
        assert np2.slope_multiset() == [Fraction(0), Fraction(1)]

    def test_three_point_hull(self):
        np3 = newton_polygon(_ints([125, 5, 0, 1], 5, 20))
        assert list(np3.vertices) == [(0, Fraction(3)), (1, Fraction(1)),
                                      (3, Fraction(0))]
        assert np3.slope_multiset() == [Fraction(1, 2), Fraction(1, 2), Fraction(2)]

    def test_product_is_union_of_slopes(self):
        def mul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        rng = random.Random(5)
        for _ in range(10):
            a = [rng.randrange(1, 40), rng.randrange(-40, 40), 1]
            b = [rng.randrange(1, 40), rng.randrange(-40, 40), 1]
            sf = newton_polygon(_ints(a, 3, 25)).slope_multiset()
            sg = newton_polygon(_ints(b, 3, 25)).slope_multiset()
            fg = _ints(mul(a, b), 3, 25)
            assert newton_polygon(fg).slope_multiset() == sorted(sf + sg)

    def test_unit_substitution_keeps_slopes(self):
        f = _ints([125, 5, 0, 1], 5, 20)
        u = S.from_int(2, 5, 20)
        coeffs = [c * u ** i for i, c in enumerate(f)]
        g = [c / u ** (len(f) - 1) for c in coeffs]
        assert newton_polygon(g).slope_multiset() == newton_polygon(f).slope_multiset()

    def test_hull_relevant_unknown_raises(self):
        # T^2 + cT + p^2 with c unknown below the hull height at index 1
        coeffs = [S.from_int(25, 5, 20), S.zero(5, 0), S.one(5, 20)]
        with pytest.raises(PrecisionError):
            newton_polygon(coeffs)

    def test_unknown_on_or_above_hull_is_fine(self):
        coeffs = [S.from_int(25, 5, 20), S.zero(5, 20), S.one(5, 20)]
        np1 = newton_polygon(coeffs)
        assert np1.slope_multiset() == [Fraction(1), Fraction(1)]

    def test_nonmonic_normalization(self):
        f = [S.from_int(10, 5, 20), S.from_int(2, 5, 20)]
        assert newton_polygon(f).slope_multiset() == [Fraction(1)]
        bad = [S.one(5, 20), S.zero(5, 20)]
        with pytest.raises(PrecisionError):
            newton_polygon(bad)

    def test_all_low_coefficients_unknown(self):
        # char-poly-of-a-nilpotent shape: only the leading point is exact
        coeffs = [S.zero(5, 20), S.zero(5, 20), S.one(5, 20)]
        poly = newton_polygon(coeffs)
        assert sum(s.mult for s in poly.slopes) == 2
        assert poly.all_slopes_positive()

    def test_field_element_coefficients(self):
        # 2 T^2 + 2 pi over Q_3(sqrt 3): divided by the unit 2, root valuations 1/4
        K = eisenstein_field(3, [-3, 0, 1], 20)
        two = K.from_int(2)
        poly = newton_polygon([two * K.pi, K.zero(), two])
        assert poly.slope_multiset() == [Fraction(1, 4), Fraction(1, 4)]
