import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from senlab.errors import DomainError, PrecisionError, UsageError
from senlab.field import (FieldElement, FieldEmbedding, LocalFieldSpec, build_field,
                          cyclotomic_field, eisenstein_field, qp_field, residue,
                          scalar_embedding, trace_to_Qp, valuation)
from senlab.padic import PadicScalar

S = PadicScalar


def derivative_at_pi_horner(K):
    """e = E'(pi) by Horner on the derivative polynomial: the oracle route.
    y^j is the basis element b_(j e_ram)."""
    deriv = [sum((K.basis()[j * K.e_ram] * c for j, c in enumerate(K.E[i])), K.zero())
             * K.from_int(i) for i in range(1, K.e_ram + 1)]
    acc = K.zero()
    for coeff in reversed(deriv):
        acc = acc * K.pi + coeff
    return acc


@pytest.fixture(scope="module")
def K3():
    """Q_3(sqrt 3)."""
    return eisenstein_field(3, [-3, 0, 1], 30)


@pytest.fixture(scope="module")
def Z5():
    """Q_5(zeta_5)."""
    return cyclotomic_field(5, 1, 30)


class TestBuild:
    def test_trivial_field(self):
        K = qp_field(5, 20)
        assert K.f == 1 and K.e_ram == 1
        assert K.different_e == K.one()
        assert (K.pi - K.from_int(5)).is_zero()

    def test_ramified_quadratic(self, K3):
        assert K3.e_ram == 2 and K3.degree == 2
        assert (K3.pi * K3.pi - K3.from_int(3)).is_zero()
        e = K3.different_e
        assert (e - K3.from_int(2) * K3.pi).is_zero()
        assert e.valuation() == Fraction(1, 2)

    def test_degree_four_tower(self):
        L = build_field(LocalFieldSpec(3, [1, 0, 1], [[-3], [-6], [1]], 30))
        assert L.f == 2 and L.e_ram == 2 and L.degree == 4
        assert trace_to_Qp(L.one()) == S.from_int(4, 3, 30)

    def test_reducible_unramified_rejected(self):
        with pytest.raises(DomainError):
            build_field(LocalFieldSpec(3, [-1, 0, 1], [[-3], [1]], 30))

    def test_non_eisenstein_rejected(self):
        with pytest.raises(DomainError):
            build_field(LocalFieldSpec(3, [-1, 1], [[-9], [0], [1]], 30))
        with pytest.raises(DomainError):
            build_field(LocalFieldSpec(3, [-1, 1], [[-1], [0], [1]], 30))

    @pytest.mark.parametrize("eis", [[0, 0, 1], [9, 3, 1], [3, 0, 1]],
                             ids=["u^2", "u^2+3u+9", "u^2+3"])
    def test_eisenstein_condition_uncertified_at_precision_one(self, eis):
        # modulo 3 every lower coefficient is zero to precision 1: v(E_0) = 1
        # is not certified, although a zero's stored bound reads 1
        with pytest.raises(PrecisionError):
            build_field(LocalFieldSpec(3, [-1, 1], [[c] for c in eis], 1))

    def test_eisenstein_condition_certified_at_precision_two(self):
        K = build_field(LocalFieldSpec(3, [-1, 1], [[-3], [0], [1]], 2))
        assert K.degree == 2 and K.pi.valuation() == Fraction(1, 2)

    def test_non_monic_rejected(self):
        with pytest.raises(UsageError):
            build_field(LocalFieldSpec(3, [-1, 2], [[-3], [1]], 30))

    def test_different_two_routes_agree(self, K3, Z5):
        for K in (K3, Z5):
            assert (K.different_e - derivative_at_pi_horner(K)).is_zero()

    def test_different_valuation_tame_vs_wild(self, K3):
        # tame: equality with (e_ram - 1)/e_ram
        assert K3.different_e.valuation() == Fraction(1, 2)
        # wild: strictly larger
        W = cyclotomic_field(3, 2, 30)
        v = W.different_e.valuation()
        assert v == Fraction(3, 2) and v > Fraction(W.e_ram - 1, W.e_ram)


class TestArithmetic:
    def test_defining_relation(self, K3):
        prod = (K3.one() + K3.pi) * (K3.one() - K3.pi)
        assert (prod - K3.from_int(-2)).is_zero()

    def test_additive_inverse(self, K3):
        x = K3.from_grid([[S.from_int(7, 3, 30), S.from_int(4, 3, 30)]])
        assert (x + (-x)).is_zero()

    def test_division_round_trip(self, K3):
        x = K3.from_grid([[S.from_int(7, 3, 30), S.from_int(4, 3, 30)]])
        q = x / (K3.one() + K3.pi)
        assert (q * (K3.one() + K3.pi) - x).is_zero()
        assert (x.inverse() * x - K3.one()).is_zero()

    def test_valuation_examples(self, K3):
        assert K3.from_int(3).valuation() == 1
        assert K3.pi.valuation() == Fraction(1, 2)
        assert (K3.from_int(2) * K3.pi).valuation() == Fraction(1, 2)
        exact, v = valuation(K3.pi, normalize="pi")
        assert exact and v == 1

    def test_equality_with_foreign_operands(self, K3):
        # an operand that cannot be coerced compares unequal, as for PadicScalar
        for other in (None, "x", 1.5, [1]):
            assert not K3.one() == other and K3.one() != other
            assert not other == K3.one()
        assert K3.one() == 1 and K3.one() == Fraction(1) and K3.one() == S.one(3, 30)
        assert S.one(3, 30) == K3.one()
        with pytest.raises(UsageError, match="different fields"):
            K3.one() == qp_field(3, 30).one()

    def test_valuation_properties(self, K3):
        rng = random.Random(2)
        for _ in range(30):
            x = K3.from_grid([[S.from_int(rng.randrange(-80, 81), 3, 30),
                               S.from_int(rng.randrange(-80, 81), 3, 30)]])
            y = K3.from_grid([[S.from_int(rng.randrange(-80, 81), 3, 30),
                               S.from_int(rng.randrange(-80, 81), 3, 30)]])
            vx, vy = x.valuation(), y.valuation()
            if vx is None or vy is None:
                continue
            assert (x * y).valuation() == vx + vy
            vs = (x + y).valuation()
            if vx != vy:
                assert vs == min(vx, vy)
            else:
                assert vs is None or vs >= min(vx, vy)


# Q_3(zeta_9), Q_3(3^(1/4)), the degree-6 field (g = y^2 + 1, E = u^3 - 3y) and Q_5
DIVISION_FIELDS = {"Q3(zeta9)": cyclotomic_field(3, 2, 30),
                   "Q3(3^1/4)": eisenstein_field(3, [-3, 0, 0, 0, 1], 30),
                   "K6": build_field(LocalFieldSpec(3, [1, 0, 1], [[0, -3], [0], [0], [1]], 30)),
                   "Q5": qp_field(5, 30)}


def _divided(x, y):
    """x / y with p^i0 / y formed to the quotient's own relative precision
    and the precision rules of FieldElement.__truediv__: the oracle for a
    divisor that keeps its inverse between quotients."""
    K, e = x.field, x.field.e_ram
    vy = y._v()
    i0 = vy % e
    prec = min(e * x.prec - vy, e * y.prec + x._v() - 2 * vy) // e
    shift = x.shift - y.shift - i0
    if K.degree > 1:
        prec = min(prec, shift + i0 + K.table_prec)
    if prec <= shift or x.is_zero():
        return FieldElement(K, x.vec, prec, prec)
    m = K.p ** (prec - shift)
    out = FieldElement(K, K._mul_vec(x.vec, K._inv_vec(y.vec, i0, prec - shift), m), shift, prec)
    cap = out.shift + K.table_prec - (i0 > 0)
    return out.truncated(cap) if K.degree > 1 and cap < prec else out


def _triple(x):
    return x.vec, x.shift, x.prec


@st.composite
def _division_case(draw):
    """A divisor of valuation 0..2 at precision 1..30 past its shift over one
    of DIVISION_FIELDS, and 1..12 dividends of shifts -3..5 known to 1..30
    digits past them, zero to precision one time in eight."""
    K = DIVISION_FIELDS[draw(st.sampled_from(sorted(DIVISION_FIELDS)))]
    digits = st.lists(st.integers(0, K.p ** 30), min_size=K.degree, max_size=K.degree)
    vec, k = draw(digits), draw(st.integers(0, 2 * K.e_ram))
    vec[k % K.e_ram] = vec[k % K.e_ram] * K.p + draw(st.integers(1, K.p - 1))
    for t in range(k % K.e_ram):
        vec[t] *= K.p               # the first u-degree prime to p is k mod e_ram
    y = FieldElement(K, vec, k // K.e_ram, k // K.e_ram + draw(st.integers(1, 30)))
    xs = []
    for _ in range(draw(st.integers(1, 12))):
        shift, prec = draw(st.integers(-3, 5)), draw(st.integers(1, 30))
        zero = draw(st.integers(0, 7)) == 0
        xs.append(FieldElement(K, () if zero else draw(digits), shift, shift + prec))
    return y, xs


class TestDivision:
    @settings(max_examples=60)
    @given(case=_division_case())
    def test_divisor_keeps_its_inverse(self, case):
        # many quotients by one divisor, their precisions rising and then
        # falling: each is the quotient by a fresh copy of the divisor, and
        # that with the inverse formed to the quotient's own digits
        y, xs = case
        fresh = lambda: FieldElement(y.field, y.vec, y.shift, y.prec)
        want = [_triple(_divided(x, y)) for x in xs]
        order = sorted(range(len(xs)), key=lambda i: want[i][2])
        for i in order + order[::-1]:
            assert _triple(xs[i] / y) == _triple(xs[i] / fresh()) == want[i]

    @pytest.mark.parametrize("name", sorted(DIVISION_FIELDS))
    def test_zero_divisor_raises_after_a_quotient(self, name):
        # an element zero to precision has no inverse to keep
        K = DIVISION_FIELDS[name]
        y, zero = K.one() + K.pi, FieldElement(K, (), 5, 5)
        K.one() / y
        for divisor in (zero, zero, FieldElement(K, (), 5, 5)):
            with pytest.raises(PrecisionError):
                y / divisor


class TestTraceResidue:
    def test_trace_of_one(self, K3, Z5):
        assert trace_to_Qp(K3.one()) == S.from_int(2, 3, 30)
        assert trace_to_Qp(Z5.one()) == S.from_int(4, 5, 30)

    def test_trace_of_uniformizers(self, K3, Z5):
        assert trace_to_Qp(K3.pi).is_zero()
        assert trace_to_Qp(Z5.pi) == S.from_int(-5, 5, 30)
        zeta = Z5.one() + Z5.pi
        assert trace_to_Qp(zeta) == S.from_int(-1, 5, 30)

    def test_trace_linearity(self, Z5):
        rng = random.Random(4)
        for _ in range(10):
            x = Z5.from_grid([[S.from_int(rng.randrange(-50, 50), 5, 30)
                               for _ in range(4)]])
            y = Z5.from_grid([[S.from_int(rng.randrange(-50, 50), 5, 30)
                               for _ in range(4)]])
            assert (trace_to_Qp(x + y) - trace_to_Qp(x) - trace_to_Qp(y)).is_zero()

    def test_residue_examples(self, K3):
        assert residue(K3.pi) == (0,)
        x = K3.from_grid([[S.from_int(7, 3, 30), S.from_int(4, 3, 30)]])
        assert residue(K3.one() + K3.pi * x) == (1,)
        with pytest.raises(DomainError):
            residue(K3.pi.inverse())

    def test_residue_of_unramified_generator(self):
        L = build_field(LocalFieldSpec(3, [1, 0, 1], [[-3], [1]], 30))
        assert residue(L.basis()[L.e_ram]) == (0, 1)


class TestSubstitution:
    def test_identity_images(self, K3):
        x = K3.from_grid([[S.from_int(7, 3, 30), S.from_int(4, 3, 30)]])
        assert (FieldEmbedding(K3, K3, K3.one(), K3.pi)(x) - x).is_zero()

    def test_conjugation(self, K3):
        x = K3.from_grid([[S.from_int(7, 3, 30), S.from_int(4, 3, 30)]])
        conj = FieldEmbedding(K3, K3, K3.one(), -K3.pi)
        s = conj(x)
        expected = K3.from_grid([[S.from_int(7, 3, 30), S.from_int(-4, 3, 30)]])
        assert (s - expected).is_zero()
        assert (conj(K3.from_int(3)) - K3.from_int(3)).is_zero()
        assert trace_to_Qp(s) == trace_to_Qp(x)

    def test_cyclotomic_automorphism(self, Z5):
        zeta = Z5.one() + Z5.pi
        img = zeta ** 2 - Z5.one()
        s = FieldEmbedding(Z5, Z5, Z5.one(), img)(zeta)
        assert (s - zeta ** 2).is_zero()
        assert trace_to_Qp(s) == trace_to_Qp(zeta)

    def test_bad_image_rejected(self, K3):
        with pytest.raises(DomainError):
            FieldEmbedding(K3, K3, K3.one(), K3.one())

    def test_trace_transitivity_along_embedding(self, Z5):
        Q5 = qp_field(5, 30)
        emb = scalar_embedding(Q5, Z5)
        rng = random.Random(6)
        for _ in range(10):
            x = Q5.from_int(rng.randrange(-10 ** 5, 10 ** 5))
            lhs = trace_to_Qp(emb(x))
            rhs = trace_to_Qp(x) * S.from_int(Z5.degree, 5, 30)
            assert (lhs - rhs).is_zero()

    def test_embedding_rejects_wrong_relations(self, K3, Z5):
        with pytest.raises(UsageError):
            FieldEmbedding(K3, Z5, Z5.one(), Z5.pi)  # different primes
        Q3 = qp_field(3, 30)
        with pytest.raises(DomainError):
            FieldEmbedding(Q3, K3, K3.one(), K3.pi)  # pi does not map to 3
