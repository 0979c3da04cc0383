import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st
from test_padic import DOT_FIELDS, SERIES_FIELDS, _element, _twins

from senlab import dpseries
from senlab.dpseries import (DPSeries, coaction, dp_compose, dp_mul,
                             gsharp_transport, log_t, sen_theta, solve_theta,
                             theta_matrix)
from senlab.errors import ConvergenceError, PrecisionError, UsageError
from senlab.field import (FieldElement, LocalField, LocalFieldSpec, build_field,
                          cyclotomic_field, eisenstein_field, qp_field)
from senlab.padic import PadicScalar, padic_log

S = PadicScalar
N = 12


@pytest.fixture(scope="module")
def K():
    return eisenstein_field(3, [-3, 0, 1], 40)


def random_series(K, rng, trunc=N, span=40):
    coeffs = [K.from_grid([[S.from_int(rng.randrange(-span, span), 3, 40),
                            S.from_int(rng.randrange(-span, span), 3, 40)]])
              for _ in range(trunc + 1)]
    return DPSeries(K, coeffs)


def _entrywise_dp_mul(f, g):
    """The product dp_mul's packed convolution replaced: every f_i g_(n-i)
    through FieldElement.__mul__, summed against the binomials by LocalField.dot;
    the oracle for dp_mul."""
    f._check_compatible(g)
    trunc = min(f.trunc, g.trunc)
    out = [f.field.dot([f.coeffs[i] * g.coeffs[n - i] for i in range(n + 1)],
                       [comb(n, i) for i in range(n + 1)], f.field.zero())
           for n in range(trunc + 1)]
    return DPSeries(f.field, out, e=f.e, valid_to=min(f.valid_to, g.valid_to, trunc))


def _entrywise_coaction(f, b):
    """The substitution coaction's packed correlation replaced: degree m is
    LocalField.dot of the c_(m+k) against the b^k/k!, times (1 + e b)^m; the
    oracle for coaction."""
    K = f.field
    b = b if isinstance(b, FieldElement) else K.from_scalar(b)
    dpseries._monitor_coaction_tail(f, b)
    one_plus_eb = K.one() + f.e * b
    b_over_fact = [K.one()]
    for k in range(1, f.trunc + 1):
        b_over_fact.append(b_over_fact[-1] * b / k)
    out, scale = [], K.one()
    for m in range(f.trunc + 1):
        out.append(K.dot(f.coeffs[m:], b_over_fact, K.zero()) * scale)
        scale = scale * one_plus_eb
    return DPSeries(K, out, e=f.e, valid_to=f.valid_to)


def _entrywise_gsharp(f, direction):
    """The G-sharp transport gsharp_transport's packed products replaced:
    degree m is LocalField.dot of c_1..c_(m-1) against the elements
    e^(m-k) T(m, k), plus c_m; the oracle for gsharp_transport."""
    if direction not in DIRECTIONS:
        raise UsageError("direction must be 'to_gsharp' or 'from_gsharp'")
    if f.trunc >= 2 and f.e.val_bound() < 0:
        raise ConvergenceError("coordinate-change series is not integral for this e")
    K, c, first_kind = f.field, f.coeffs, direction == "to_gsharp"
    e_pow = [K.one()]
    for _ in range(f.trunc):
        e_pow.append(e_pow[-1] * f.e)
    row, out = [1], [c[0]]
    for m in range(1, f.trunc + 1):
        row = [0] + [row[k - 1] + (1 - m if first_kind else k) * row[k]
                     for k in range(1, m)] + [1]
        out.append(K.dot(c[1:m], [e_pow[m - k] * row[k] for k in range(1, m)], K.zero()) + c[m])
    return DPSeries(K, out, e=f.e, valid_to=f.valid_to)


def _triples(s):
    return [(x.vec, x.shift, x.prec) for x in s.coeffs]


def _same(got, want):
    """Equal (vec, shift, prec) in every coefficient, and equal truncation and valid_to."""
    assert _triples(got) == _triples(want)
    assert (got.trunc, got.valid_to) == (want.trunc, want.valid_to)


@st.composite
def _sharp_element(draw, K):
    """A nonzero element of K at shift -4..0 and 21..30 digits: a product of
    two has more digits past its shift than the fields' 20-digit table."""
    vec = draw(st.lists(st.integers(1, K.p ** 12), min_size=K.degree, max_size=K.degree))
    return FieldElement(K, vec, draw(st.integers(-4, 0)), draw(st.integers(21, 30)))


@st.composite
def _product_case(draw):
    """Two series over one of DOT_FIELDS, truncated at 0..40 (mostly at most
    8, the two often unequal), with _coefficients' coefficients."""
    K = DOT_FIELDS[draw(st.sampled_from(sorted(DOT_FIELDS)))]
    trunc = st.one_of(st.integers(0, 8), st.integers(0, 8), st.integers(0, 40))
    f, g = (draw(_coefficients(K, draw(trunc))) for _ in range(2))
    return (DPSeries(K, f, valid_to=draw(st.integers(-1, len(f)))),
            DPSeries(K, g, valid_to=draw(st.integers(-1, len(g)))))


def _random_coefficients(K, rng, trunc):
    """_element's draws, from rng."""
    out = []
    for _ in range(trunc + 1):
        prec = rng.randint(-3, 30)
        vec = [rng.randint(-K.p ** 12, K.p ** 12) for _ in range(K.degree)]
        out.append(FieldElement(K, vec if rng.randrange(4) else (), rng.randint(-4, 6), prec))
    return out


class TestMultiplication:
    @settings(max_examples=200)
    @given(case=_product_case())
    def test_matches_the_entrywise_product(self, case):
        f, g = case
        got, want = dp_mul(f, g), _entrywise_dp_mul(f, g)
        assert _triples(got) == _triples(want)
        assert (got.trunc, got.valid_to) == (want.trunc, want.valid_to)

    @pytest.mark.parametrize("name", ["Q3", "Q3(sqrt3)", "Q2(i)"])
    def test_matches_the_entrywise_product_at_truncation_96(self, name):
        K, rng = DOT_FIELDS[name], random.Random(96)
        f = DPSeries(K, _random_coefficients(K, rng, 96))
        g = DPSeries(K, _random_coefficients(K, rng, 96), valid_to=90)
        got, want = dp_mul(f, g), _entrywise_dp_mul(f, g)
        assert _triples(got) == _triples(want) and got.valid_to == want.valid_to == 90

    @pytest.mark.parametrize("name", ["Q3", "Q3(sqrt3)", "Q2(i)"])
    def test_full_slots_match_the_entrywise_product(self, name):
        # coordinates just below p^30 fill the slots of the packed product to
        # near the width it reserves for the sums
        K = DOT_FIELDS[name]
        for trunc in (24, 25, 26):
            rng = random.Random(trunc)
            f, g = (DPSeries(K, [FieldElement(K, [rng.randrange(K.p ** 30) for _ in range(K.degree)],
                                              0, 30) for _ in range(trunc + 1)])
                    for _ in range(2))
            assert _triples(dp_mul(f, g)) == _triples(_entrywise_dp_mul(f, g))

    def test_exp_squared_is_exp_of_twice(self, K):
        # exp(a) = sum a^n/n! has every coefficient 1, and exp(2a) has 2^n
        exp = DPSeries(K, [K.one()] * 97)
        assert _triples(dp_mul(exp, exp)) == \
            _triples(DPSeries(K, [K.from_int(2 ** n) for n in range(97)]))

    def test_one_reduction_per_degree_and_no_element_product(self, K, monkeypatch):
        # dp_mul, coaction and both transports: no dot product, no element
        # scaled by an integer, no more element products than the kernel's
        # budget, and one reduction per degree and per power of the kernel's
        # power sequences
        rng = random.Random(24)
        f, g = random_series(K, rng, trunc=24), random_series(K, rng, trunc=24)
        for name, (kernel, oracle, budget, powers) in _kernels(K, K.from_int(3)).items():
            want = _triples(oracle(f, g))

            def forbidden(*args):
                raise AssertionError("%s summed through a dot product or scaled an element"
                                     % name)

            with monkeypatch.context() as patch:
                mul, products = FieldElement.__mul__, []
                patch.setattr(FieldElement, "__mul__",
                              lambda x, y: products.append(y) or mul(x, y))
                patch.setattr(LocalField, "dot", forbidden)
                patch.setattr(FieldElement, "_scaled", forbidden)
                reduce, calls = LocalField._reduce, []
                patch.setattr(LocalField, "_reduce",
                              lambda self, *args: calls.append(args) or reduce(self, *args))
                assert _triples(kernel(f, g)) == want
            assert len(products) <= budget and len(calls) <= len(products) + powers + 25, name

    def test_weight_one_halves_the_modulus_at_p_3(self, monkeypatch):
        # Q_3(sqrt 3) at 60 digits, truncation 96: the weight p^i takes the
        # modulus from 3^152 to 3^110 and the slots from 512 to 384 bits
        K = eisenstein_field(3, [-3, 0, 1], 60)
        f = DPSeries(K, [K.from_int(n + 1) for n in range(97)])
        widths, width = [], LocalField._block_width
        monkeypatch.setattr(LocalField, "_block_width",
                            lambda K, R, terms: widths.append(R) or width(K, R, terms))
        assert _triples(dp_mul(f, f)) == _triples(_entrywise_dp_mul(f, f))
        assert widths == [110] and width(K, 110, 97) == 384 and width(K, 152, 97) == 512


    def test_a_squared(self, K):
        a = DPSeries.from_ints(K, [0, 1], N)
        sq = dp_mul(a, a)
        assert (sq.coeffs[2] - K.from_int(2)).is_zero()
        assert sq.coeffs[1].is_zero() and sq.coeffs[0].is_zero()

    def test_unit(self, K):
        a = DPSeries.from_ints(K, [0, 1], N)
        assert dp_mul(a, DPSeries.one(K, N)).eq_to_precision(a)

    def test_one_plus_ea_squared(self, K):
        e = K.different_e
        t = DPSeries(K, [K.one(), e] + [K.zero()] * (N - 1))
        t2 = dp_mul(t, t)
        assert (t2.coeffs[0] - K.one()).is_zero()
        assert (t2.coeffs[1] - e * 2).is_zero()
        assert (t2.coeffs[2] - e * e * 2).is_zero()

    def test_mismatched_e_rejected(self, K):
        f = DPSeries.one(K, N)
        g = DPSeries.one(K, N, e=K.one())
        with pytest.raises(UsageError):
            dp_mul(f, g)


class TestTheta:
    def test_constants_in_kernel(self, K):
        assert sen_theta(DPSeries.one(K, N)).eq_to_precision(DPSeries.zero(K, N))

    def test_theta_of_a(self, K):
        out = sen_theta(DPSeries.from_ints(K, [0, 1], N))
        assert (out.coeffs[0] - K.one()).is_zero()
        assert (out.coeffs[1] - K.different_e).is_zero()
        assert out.coeffs[2].is_zero()

    def test_t_is_eigenvector(self, K):
        e = K.different_e
        t = DPSeries(K, [K.one(), e] + [K.zero()] * (N - 1))
        out = sen_theta(t)
        for n in range(out.valid_to + 1):
            assert (out.coeffs[n] - e * t.coeffs[n]).is_zero()

    def test_top_degree_is_flagged_incomplete(self, K):
        f = DPSeries.one(K, N)
        assert sen_theta(f).valid_to == N - 1

    def test_leibniz(self, K):
        rng = random.Random(1)
        for _ in range(5):
            f = random_series(K, rng)
            g = random_series(K, rng)
            lhs = sen_theta(dp_mul(f, g))
            r1 = dp_mul(sen_theta(f), g)
            r2 = dp_mul(f, sen_theta(g))
            for n in range(N):
                assert (lhs.coeffs[n] - r1.coeffs[n] - r2.coeffs[n]).is_zero()


class TestSolveTheta:
    def test_zero(self, K):
        assert solve_theta(DPSeries.zero(K, N)).eq_to_precision(DPSeries.zero(K, N))

    def test_closed_form_for_one(self, K):
        sol = solve_theta(DPSeries.one(K, N))
        cur = K.one()
        for n in range(1, N + 1):
            assert (sol.coeffs[n] - cur).is_zero()
            cur = cur * (-K.different_e) * n
        assert sol.eq_to_precision(log_t(K, N))

    def test_preimage_of_t(self, K):
        e = K.different_e
        g = DPSeries(K, [K.one(), e] + [K.zero()] * (N - 1))
        sol = solve_theta(g)
        a = DPSeries.from_ints(K, [0, 1], N)
        for n in range(1, N + 1):
            assert (sol.coeffs[n] - a.coeffs[n]).is_zero()

    def test_round_trip(self, K):
        rng = random.Random(0)
        for _ in range(5):
            g = random_series(K, rng)
            assert sen_theta(solve_theta(g)).eq_to_precision(g, through=N - 1)

    def test_integrality_preserved(self, K):
        rng = random.Random(9)
        for _ in range(10):
            g = random_series(K, rng)
            assert all(c.val_bound() >= 0 for c in g.coeffs)
            assert all(c.val_bound() >= 0 for c in solve_theta(g).coeffs)

    def test_kernel_is_constants(self, K):
        # theta f = 0 through N-1 forces c_1..c_N to vanish
        from senlab import linalg
        mat = theta_matrix(K, N)
        kernel = linalg.kernel_basis(linalg.row_reduce(mat), K.one(), K.zero())
        assert len(kernel) == 1
        vec = kernel[0]
        assert not vec[0].is_zero()
        assert all(x.is_zero() for x in vec[1:])


class TestCoaction:
    def test_identity_at_zero(self, K):
        f = random_series(K, random.Random(3))
        assert coaction(f, K.zero()).eq_to_precision(f)

    def test_scales_t(self, K):
        e = K.different_e
        t = DPSeries(K, [K.one(), e] + [K.zero()] * (N - 1))
        b = K.from_int(3)
        ct = coaction(t, b)
        scale = K.one() + e * b
        for n in range(N + 1):
            assert (ct.coeffs[n] - scale * t.coeffs[n]).is_zero()

    def test_group_action(self, K):
        rng = random.Random(7)
        e = K.different_e
        for _ in range(3):
            f = random_series(K, rng)
            b1 = K.from_int(3 * rng.randrange(1, 30))
            b2 = K.pi * K.from_int(3 * rng.randrange(1, 30))
            lhs = coaction(coaction(f, b1), b2)
            rhs = coaction(f, b1 + b2 + e * b1 * b2)
            assert lhs.eq_to_precision(rhs)

    def test_commutes_with_multiplication(self, K):
        # factors of degree <= N/2, so the product fits the truncation
        rng = random.Random(8)
        b = K.from_int(3)
        f = DPSeries(K, list(random_series(K, rng).coeffs[:N // 2])
                     + [K.zero()] * (N - N // 2 + 1))
        g = DPSeries(K, list(random_series(K, rng).coeffs[:N // 2])
                     + [K.zero()] * (N - N // 2 + 1))
        lhs = coaction(dp_mul(f, g), b)
        rhs = dp_mul(coaction(f, b), coaction(g, b))
        assert lhs.eq_to_precision(rhs)

    def test_monitor_rejects_unit_b_on_flat_series(self, K):
        f = DPSeries.from_ints(K, [1] * (N + 1), N)
        with pytest.raises(ConvergenceError):
            coaction(f, K.one())

    def test_log_shift_with_unit_e(self):
        # over Q_3 (e = 1): coaction(log_t, b) - log_t = log(1 + b)
        Q = qp_field(3, 40)
        lt = log_t(Q, 60)
        b = Q.from_int(3)
        shifted = coaction(lt, b)
        const = padic_log(S.from_int(4, 3, 40))
        d0 = shifted.coeffs[0] - Q.from_scalar(const)
        assert d0.is_zero() and d0.val_bound() >= 38
        for n in range(1, 13):
            d = shifted.coeffs[n] - lt.coeffs[n]
            assert d.is_zero() and d.val_bound() >= 38

    def test_log_shift_with_scalar_e_three(self):
        # e = 3 over Q_3: e * (coaction(log_t, b) - log_t) = log(1 + e b)
        Q = qp_field(3, 40)
        e = Q.from_int(3)
        lt = log_t(Q, 60, e=e)
        b = Q.from_int(3)
        shifted = coaction(lt, b)
        const = padic_log(S.from_int(10, 3, 40))
        d0 = shifted.coeffs[0] * e - Q.from_scalar(const)
        assert d0.is_zero() and d0.val_bound() >= 36


class TestGsharp:
    def test_to_gsharp_coefficients(self, K):
        fa = DPSeries.from_ints(K, [0, 1], N)
        tg = gsharp_transport(fa, "to_gsharp")
        cur = K.one()
        for n in range(1, N + 1):
            assert (tg.coeffs[n] - cur).is_zero()
            cur = cur * (-K.different_e) * n

    def test_from_gsharp_coefficients(self, K):
        fa = DPSeries.from_ints(K, [0, 1], N)
        fg = gsharp_transport(fa, "from_gsharp")
        cur = K.one()
        for n in range(1, N + 1):
            assert (fg.coeffs[n] - cur).is_zero()
            cur = cur * K.different_e

    def test_round_trip(self, K):
        rng = random.Random(12)
        f = random_series(K, rng)
        rt = gsharp_transport(gsharp_transport(f, "to_gsharp"), "from_gsharp")
        assert rt.eq_to_precision(f)
        rt = gsharp_transport(gsharp_transport(f, "from_gsharp"), "to_gsharp")
        assert rt.eq_to_precision(f)

    def test_bad_direction(self, K):
        with pytest.raises(UsageError):
            gsharp_transport(DPSeries.one(K, N), "sideways")

    def test_compose_requires_zero_constant_term(self, K):
        with pytest.raises(UsageError):
            dp_compose(DPSeries.one(K, N), DPSeries.one(K, N))


# Q_2, Q_3, Q_5, Q_3(sqrt 3), Q_2(sqrt 2) and a degree-6 field with f = 2:
# y^2 + 1 over Q_3, then u^3 - 3 y
TRANSPORT_FIELDS = [
    qp_field(2, 16), qp_field(3, 16), qp_field(5, 12),
    eisenstein_field(3, [-3, 0, 1], 16), eisenstein_field(2, [-2, 0, 1], 16),
    build_field(LocalFieldSpec(3, [1, 0, 1], [[0, -3], [0], [0], [1]], 12)),
]
DIRECTIONS = ("to_gsharp", "from_gsharp")


def composition_route(f, direction):
    """The transport as composition with the coordinate series phi: log_t
    towards G^sharp, coefficients e^(n-1) back; refused when phi is not
    integral."""
    K = f.field
    if direction == "to_gsharp":
        phi = log_t(K, f.trunc, e=f.e)
    else:
        coeffs, cur = [K.zero()], K.one()
        for _ in range(f.trunc):
            coeffs.append(cur)
            cur = cur * f.e
        phi = DPSeries(K, coeffs, e=f.e)
    if any(c.val_bound() < 0 for c in phi.coeffs):
        raise ConvergenceError("coordinate-change series is not integral")
    return dp_compose(f, phi)


@st.composite
def transport_inputs(draw):
    K = draw(st.sampled_from(TRANSPORT_FIELDS))
    p, trunc = K.p, draw(st.integers(0, 16))
    e = draw(st.sampled_from([None, K.from_int(p), K.from_int(2 + p), K.pi,
                              K.one() / K.from_int(p)]))
    coeffs = []
    for _ in range(trunc + 1):
        prec = draw(st.one_of(st.just(K.prec), st.integers(1, K.prec - 1)))
        ints = draw(st.lists(st.integers(-p ** 4, p ** 4), min_size=K.degree,
                             max_size=K.degree))
        coeffs.append(K.from_grid([[PadicScalar.from_int(ints[j * K.e_ram + i], p, prec)
                                    for i in range(K.e_ram)] for j in range(K.f)]))
    f = DPSeries(K, coeffs, e=e)
    return sen_theta(f) if trunc and draw(st.booleans()) else f


@settings(max_examples=200)
@given(transport_inputs(), st.sampled_from(DIRECTIONS))
def test_transport_matches_the_composition_route(f, direction):
    try:
        want = composition_route(f, direction)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            gsharp_transport(f, direction)
        return
    got = gsharp_transport(f, direction)
    assert (got.trunc, got.valid_to) == (want.trunc, want.valid_to)
    for a, b in zip(got.coeffs, want.coeffs):
        assert (a - b).is_zero()
        assert a.prec >= b.prec


def test_transport_composes_multiplies_and_divides_nothing(K, monkeypatch):
    f = random_series(K, random.Random(14))

    def forbidden(*args):
        raise AssertionError("the transport called a composition, dp_mul or a division")

    for name in ("dp_compose", "dp_mul"):
        monkeypatch.setattr(dpseries, name, forbidden)
    monkeypatch.setattr(FieldElement, "__truediv__", forbidden)
    for direction in DIRECTIONS:
        assert gsharp_transport(f, direction).trunc == N


def _short_by_one(K, trunc):
    """Pairs of series of integral coordinates and K.prec + 5 digits, one
    coefficient of the first with K.prec - 1 digits or, above degree 1, at
    shift -1, which caps its products at K.prec - 1 digits."""
    rng = random.Random(trunc)

    def full(shift=0, prec=K.prec + 5):
        return FieldElement(K, [rng.randrange(1, K.p ** 10) for _ in range(K.degree)], shift, prec)

    out = []
    for shift, prec in [(0, K.prec - 1)] + ([(-1, K.prec + 5)] if K.degree > 1 else []):
        f = [full() for _ in range(trunc + 1)]
        f[3] = full(shift, prec)
        out.append((DPSeries(K, f), DPSeries(K, [full() for _ in range(trunc + 1)])))
    return out


@st.composite
def _coefficients(draw, K, trunc):
    """trunc + 1 coefficients of one kind: _element's (shifts -4..6,
    precisions -3..30, zero one time in four), _sharp_element's, or integral
    ones at shift 0..3 with K.prec..K.prec + 8 digits, sometimes one of them a
    digit short, so that either branch of the kernels' precisions runs."""
    kind = draw(st.integers(0, 2))
    if kind < 2:
        element = (_element, _sharp_element)[kind](K)
        return [draw(element) for _ in range(trunc + 1)]
    full = st.builds(lambda vec, shift, prec: FieldElement(K, vec, shift, prec),
                     st.lists(st.integers(0, K.p ** 15), min_size=K.degree, max_size=K.degree),
                     st.integers(0, 3), st.integers(K.prec, K.prec + 8))
    out = [draw(full) for _ in range(trunc + 1)]
    if draw(st.booleans()):
        out[draw(st.integers(0, trunc))] = FieldElement(K, [1] * K.degree, 0, K.prec - 1)
    return out


_TRUNC = st.one_of(st.integers(0, 6), st.integers(0, 24), st.integers(0, 96))


@st.composite
def _coaction_case(draw):
    """A series over one of DOT_FIELDS at truncation 0..96 with e the field's
    or p, and b of positive valuation: p k, pi, a multiple of pi at 5..30
    digits, or an element as the coefficients are drawn."""
    K = DOT_FIELDS[draw(st.sampled_from(sorted(DOT_FIELDS)))]
    trunc = draw(_TRUNC)
    e = draw(st.sampled_from([None, K.from_int(K.p)]))
    f = DPSeries(K, draw(_coefficients(K, trunc)), e=e,
                 valid_to=draw(st.integers(-1, trunc + 1)))
    low = st.integers(5, 30).map(lambda prec: K.pi.truncated(prec) * 7)
    b = draw(st.one_of(st.integers(1, 30).map(lambda k: K.from_int(K.p * k)),
                       st.just(K.pi), low, _element(K)))
    return f, b


@st.composite
def _transport_case(draw):
    """A series over one of TRANSPORT_FIELDS at truncation 0..96 with e the
    field's, p, 2 + p, pi or 1/p, and a direction."""
    K = draw(st.sampled_from(TRANSPORT_FIELDS))
    trunc = draw(_TRUNC)
    e = draw(st.sampled_from([None, K.from_int(K.p), K.from_int(2 + K.p), K.pi,
                              K.one() / K.from_int(K.p)]))
    return (DPSeries(K, draw(_coefficients(K, trunc)), e=e,
                     valid_to=draw(st.integers(-1, trunc + 1))),
            draw(st.sampled_from(DIRECTIONS)))


@settings(max_examples=150)
@given(_coaction_case())
def test_coaction_matches_the_entrywise_route(case):
    f, b = case
    try:
        want = _entrywise_coaction(f, b)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            coaction(f, b)
        return
    _same(coaction(f, b), want)


@settings(max_examples=150)
@given(_transport_case())
def test_gsharp_matches_the_entrywise_route(case):
    f, direction = case
    try:
        want = _entrywise_gsharp(f, direction)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            gsharp_transport(f, direction)
        return
    _same(gsharp_transport(f, direction), want)


def _theta_chain(f):
    """sen_theta as the element chain it replaced: e * c_n * n by
    FieldElement's operators, plus c_(n+1); the oracle for sen_theta."""
    out = []
    for n in range(f.trunc + 1):
        term = f.e * f.coeffs[n] * n
        if n + 1 <= f.trunc:
            term = term + f.coeffs[n + 1]
        out.append(term)
    return DPSeries(f.field, out, e=f.e, valid_to=min(f.valid_to, f.trunc) - 1)


def _solve_chain(g):
    """solve_theta as the element chain it replaced: b_n - e * c_n * n by
    FieldElement's operators; the oracle for solve_theta."""
    out = [g.field.zero()]
    for n in range(g.trunc):
        out.append(g.coeffs[n] - g.e * out[n] * n)
    return DPSeries(g.field, out, e=g.e, valid_to=min(g.valid_to + 1, g.trunc))


# the closed-form grid's fields, Q_3(sqrt 3) with a 15-digit table, Q_2,
# Q_2(i) and Q_5(zeta_5), at 20 digits; Q_3 and Q_3(sqrt 3) at 3, where
# n = 27, 54 and 81 are zero as scalars
THETA_FIELDS = dict(_twins(20), M15=SERIES_FIELDS["Q3_sqrt3_M15"], Q2=qp_field(2, 20),
                    **{"Q2(i)": DOT_FIELDS["Q2(i)"], "Q5(zeta5)": cyclotomic_field(5, 1, 20)},
                    **{name + "@3": _twins(3)[name] for name in ("Q3", "Q3(sqrt3)")})


@st.composite
def _theta_case(draw):
    """A series over one of THETA_FIELDS at truncation 0..96 with
    _coefficients' coefficients (zeros to precision, shifts down to -4,
    precisions from -3, below and above K.prec), and e the field's, 1/p,
    1/p^2, E'(pi) cut to 1..25 digits or an element as _element draws it,
    so often of negative valuation."""
    K = THETA_FIELDS[draw(st.sampled_from(sorted(THETA_FIELDS)))]
    trunc = draw(_TRUNC)
    p = K.from_int(K.p)
    cut = st.integers(1, 25).map(K.different_e.truncated)
    e = draw(st.one_of(st.sampled_from([None, K.one() / p, K.one() / (p * p)]),
                       cut.filter(lambda x: not x.is_zero()),
                       _element(K).filter(lambda x: not x.is_zero())))
    return DPSeries(K, draw(_coefficients(K, trunc)), e=e,
                    valid_to=draw(st.integers(-1, trunc + 1)))


@settings(max_examples=150)
@given(_theta_case())
def test_theta_and_its_inverse_are_the_element_chains(f):
    # every (vec, shift, prec) of the integer recurrences is the chain's
    _same(sen_theta(f), _theta_chain(f))
    _same(solve_theta(f), _solve_chain(f))


@pytest.mark.parametrize("name", ["Q3", "Q3(sqrt3)", "K6"])
def test_theta_and_its_inverse_form_one_element_per_degree(name, monkeypatch):
    # trunc + 1 elements, one an output degree, solve_theta's zero constant
    # term among them; the same counter sees the chains' three a degree
    K, trunc = THETA_FIELDS[name], 96
    f = DPSeries(K, _random_coefficients(K, random.Random(96), trunc))
    init, reduced, calls = FieldElement.__init__, FieldElement._reduced.__func__, []
    monkeypatch.setattr(FieldElement, "__init__",
                        lambda self, *args: calls.append(1) or init(self, *args))
    monkeypatch.setattr(FieldElement, "_reduced",
                        classmethod(lambda cls, *args: calls.append(1) or reduced(cls, *args)))
    for route, chain in ((sen_theta, _theta_chain), (solve_theta, _solve_chain)):
        calls.clear()
        got = route(f)
        assert len(calls) == trunc + 1
        assert _triples(got) == _triples(chain(f))
        assert len(calls) > 3 * trunc


def test_slots_at_the_width_rule_hold_the_largest_sums():
    # the rule reserves terms d p^(2R) for a slot's sum of `terms` products,
    # rounded up to 64 bits; where that takes 64 k or 64 k + 1 bits,
    # coordinates p^R - 1 fill the top bit of the last block, so a slot one
    # bit narrower, before or after the rounding, carries into the next
    K = qp_field(3, 20)
    cases = [(R, terms) for R in range(21, 90) for terms in (2, 25, 97)
             if (terms * 3 ** (2 * R)).bit_length() % 64 < 2]
    assert len(cases) >= 6
    for R, terms in cases:
        w = K._block_width(R, terms)
        assert w == -(-(terms * 3 ** (2 * R)).bit_length() // 64) * 64
        packed = K._pack_blocks([(FieldElement(K, [3 ** R - 1], 0, R), 0, 1)] * terms, R, w)
        assert K._reduce_blocks(packed * packed, R, w, terms) == \
            [[n + 1] for n in range(terms)]
    # past degree 1 the reduction keeps the basis slots in place, unreduced,
    # and adds the other rows' multiples onto them, so the rule takes a bit
    # above the larger of a slot's sum and what the rows add: over
    # Q_3(sqrt 3) at 130 digits, whose row of u^2 holds the lift of 3 - 3^130
    # modulo 3^132, x = (p^R - 1)(1 + pi) fills both coordinates and
    # x^2 = 4 + 2 pi modulo p^R
    K = eisenstein_field(3, [-3, 0, 1], 130)
    larger = lambda R, terms: 3 ** R * max(terms * 2 * 3 ** R, len(K._table) * K._table_mod)
    cases = [(R, terms) for R in range(21, 131) for terms in (2, 25, 97)
             if (2 * larger(R, terms)).bit_length() % 64 < 2]
    assert len(cases) >= 6
    for R, terms in cases:
        w = K._block_width(R, terms)
        assert w == -(-(2 * larger(R, terms)).bit_length() // 64) * 64
        x = FieldElement(K, [3 ** R - 1] * 2, 0, R)
        packed = K._pack_blocks([(x, 0, 1)] * terms, R, w)
        assert K._reduce_blocks(packed * packed, R, w, terms) == \
            [[4 * (n + 1) % 3 ** R, 2 * (n + 1) % 3 ** R] for n in range(terms)]


def _kernels(K, b):
    """name -> (the kernel on a pair of series, its oracle, how many element
    products it may form at truncation 24, how many powers its
    LocalField.powers sequences form there): e b and the scaling of each
    degree by (1 + e b)^m for coaction, whose b^k/k! and (1 + e b)^m are
    power sequences, as the transport's powers of e are."""
    return {
        "dp_mul": (dp_mul, _entrywise_dp_mul, 0, 0),
        "coaction": (lambda f, g: coaction(f, b), lambda f, g: _entrywise_coaction(f, b),
                     24 + 2, 2 * 24),
        "to_gsharp": (lambda f, g: gsharp_transport(f, "to_gsharp"),
                      lambda f, g: _entrywise_gsharp(f, "to_gsharp"), 0, 23),
        "from_gsharp": (lambda f, g: gsharp_transport(f, "from_gsharp"),
                        lambda f, g: _entrywise_gsharp(f, "from_gsharp"), 0, 23),
    }


KERNELS = ("dp_mul", "coaction", "to_gsharp", "from_gsharp")


@pytest.mark.parametrize("name", KERNELS)
def test_the_bounds_skip_the_per_degree_precisions(K, monkeypatch, name):
    # integral coefficients at K.prec: one `_reach` of the two bounds settles
    # every degree's precision; one coefficient a digit short, or at shift -1
    # under the table's cap, or a table of 15 digits at 20 needs them degree
    # by degree, and the digits lost stay lost
    rng = random.Random(5)
    f, g = random_series(K, rng, trunc=24), random_series(K, rng, trunc=24)
    kernel, oracle, _, _ = _kernels(K, K.from_int(3))[name]
    reach, calls = LocalField._reach, []
    monkeypatch.setattr(LocalField, "_reach", lambda self, x, y: calls.append(x) or reach(self, x, y))
    assert _triples(kernel(f, g)) == _triples(oracle(f, g)) and len(calls) == 1
    M15 = SERIES_FIELDS["Q3_sqrt3_M15"]
    cases = [(M, f, g) for M in (K, DOT_FIELDS["Q3"], DOT_FIELDS["Q3(sqrt3)"])
             for f, g in _short_by_one(M, 24)]
    for M, f, g in cases + [(M15, random_series(M15, rng, 24), random_series(M15, rng, 24))]:
        kernel, oracle, _, _ = _kernels(M, M.from_int(3))[name]
        calls.clear()
        got = kernel(f, g)
        assert _triples(got) == _triples(oracle(f, g)) and len(calls) > 1
        assert min(x.prec for x in got.coeffs) < M.prec


def _chain(K, x, n, factorial=0):
    """The element chain LocalField.powers replaced: from one(), each step
    x_(k-1) x by __mul__, then times k (factorial 1) or over k (factorial
    -1) as a scalar; the oracle for the power sequences of coaction, log_t,
    the transport and FieldEmbedding."""
    out = [K.one()]
    for k in range(1, n + 1):
        y = out[-1] * x
        out.append(y * k if factorial > 0 else y / k if factorial < 0 else y)
    return out


def _exact_table(K):
    """y^j u^i for j < 2f - 1, i < 2 e_ram - 1 reduced exactly in
    Z[y, u]/(g, E), from K's defining polynomials lifted to the integers of
    least absolute value: the rows of K's table with no modulus."""
    def centered(c):
        r, m = c.lift(), c.p ** c.prec
        return r - m if 2 * r > m else r

    f, e, d = K.f, K.e_ram, K.degree
    g = [centered(c) for c in K.spec.unramified_poly]
    E = [[centered(c) for c in coeff] + [0] * (f - len(coeff)) for coeff in K.spec.eisenstein_poly]
    rows = {}
    for i in range(2 * e - 1):
        for j in range(2 * f - 1):
            if j >= f:
                terms = [(g[l], j - f + l, i) for l in range(f)]
            elif i >= e:
                terms = [(E[k][l], j + l, i - e + k) for k in range(e) for l in range(f)]
            else:
                rows[j, i] = [int(t == j * e + i) for t in range(d)]
                continue
            rows[j, i] = [-sum(c * rows[jj, ii][t] for c, jj, ii in terms) for t in range(d)]
    return rows


def _exact_powers(K, x, n):
    """The integer coordinate vectors of vec^k for k <= n, x = p^shift vec,
    multiplied through _exact_table."""
    rows, e, d = _exact_table(K), K.e_ram, K.degree
    out = [[1] + [0] * (d - 1)]
    for _ in range(n):
        acc = [0] * d
        for s, a in enumerate(out[-1]):
            for t, b in enumerate(x.vec):
                if a and b:
                    row = rows[s // e + t // e, s % e + t % e]
                    acc = [c + a * b * r for c, r in zip(acc, row)]
        out.append(acc)
    return out


def _vp(q, p):
    """v_p of a nonzero Fraction."""
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


@st.composite
def _power_case(draw):
    """An element of one of the closed-form grid's fields at 20 digits, or of
    Q_3(sqrt 3) with a 15-digit table, as _element draws it (shifts -4..6,
    so some of negative valuation, precisions -3..30, zero one time in
    four), n up to 96 and a kind: x^k, x^k k! or x^k/k!."""
    fields = dict(_twins(20), M15=SERIES_FIELDS["Q3_sqrt3_M15"])
    K = fields[draw(st.sampled_from(sorted(fields)))]
    n = draw(st.one_of(st.integers(0, 8), st.integers(0, 96)))
    return K, draw(_element(K)), n, draw(st.sampled_from((-1, 0, 1)))


def _check_powers(K, x, n, kind):
    """K.powers(x, n, kind) has the chain's (vec, shift, prec) in every
    element, each vector primitive, as its valuation from the sequence says
    with no gcd taken, and each digit it claims is one of p^(k s) vec^k
    (k!)^kind, s and vec x's."""
    got, p = K.powers(x, n, kind), K.p
    assert [(y.vec, y.shift, y.prec) for y in got] == \
        [(y.vec, y.shift, y.prec) for y in _chain(K, x, n, kind)]
    for y in got:
        assert y.is_zero() or any(c % p for c in y.vec), y
        assert y._v() == FieldElement(K, y.vec, y.shift, y.prec)._v(), y
    for k, (y, exact) in enumerate(zip(got, _exact_powers(K, x, n))):
        scale = Fraction(p) ** (k * x.shift) * Fraction(factorial(k)) ** kind
        for a, b in zip(y.vec, exact):
            diff = Fraction(p) ** y.shift * a - scale * b
            assert diff == 0 or _vp(diff, p) >= y.prec, (k, y)


class TestPowers:
    @settings(max_examples=80)
    @given(_power_case())
    def test_matches_the_chain_and_the_exact_powers(self, case):
        _check_powers(*case)

    @pytest.mark.parametrize("name", ["Q3", "Q3(sqrt3)", "Q3(zeta9)", "Q3(3^1/4)", "K6", "M15"])
    def test_matches_them_at_truncation_96(self, name):
        # a unit and an element of negative valuation at more digits than
        # the field, a multiple of pi at fewer, and a zero
        K = dict(_twins(20), M15=SERIES_FIELDS["Q3_sqrt3_M15"])[name]
        rng = random.Random(96)
        vec = lambda: [rng.randrange(1, K.p ** 12) for _ in range(K.degree)]
        for x in (FieldElement(K, vec(), 0, 26), FieldElement(K, vec(), -1, 23),
                  K.pi * FieldElement(K, vec(), 0, 12), FieldElement(K, (), 7, 7)):
            for kind in (-1, 0, 1):
                _check_powers(K, x, 96, kind)

    @pytest.mark.parametrize("name", ["Q3", "K6"])
    def test_a_divisor_zero_to_precision_raises_as_the_chain_does(self, name):
        # at 3 digits, 27 is zero to precision: x^27/27! divides by it
        K = _twins(3)[name]
        x = K.from_int(3)
        assert [(y.vec, y.shift, y.prec) for y in K.powers(x, 26, -1)] == \
            [(y.vec, y.shift, y.prec) for y in _chain(K, x, 26, -1)]
        for route in (K.powers, lambda x, n, kind: _chain(K, x, n, kind)):
            with pytest.raises(PrecisionError):
                route(x, 27, -1)

    def test_log_t_is_the_chain(self, K):
        for trunc in (0, 1, 2, 40):
            want = [K.zero()] + _chain(K, -K.different_e, trunc - 1, 1)
            assert _triples(log_t(K, trunc)) == _triples(DPSeries(K, want[:trunc + 1]))
