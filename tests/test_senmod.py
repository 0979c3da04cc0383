import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gauss_jordan import gj_invert
from senlab import linalg, senmod
from senlab.accept import char_poly_of_twist_via_resultant
from senlab.dpseries import DPSeries, coaction
from senlab.errors import ConvergenceError, DomainError, PrecisionError, UsageError
from senlab.field import LocalFieldSpec, build_field, cyclotomic_field, eisenstein_field, qp_field
from senlab.padic import PadicScalar
from senlab.senmod import (SenModule, bk_twist, char_poly, cohomology,
                           default_weight_range, dual,
                           ht_weights, nearly_ht_test,
                           operator_series, operator_series_apply,
                           regular_representation, semilinear_descent_matrix,
                           tensor, trivial_module)

S = PadicScalar


@pytest.fixture(scope="module")
def K():
    return eisenstein_field(3, [-3, 0, 1], 50)


@pytest.fixture(scope="module")
def Q5():
    return qp_field(5, 40)


def degree_six_field(prec):
    """Q_3(i, 3^(1/3)): g = y^2 + 1, E = u^3 - 3."""
    return build_field(LocalFieldSpec(3, [1, 0, 1], [[-3], [0], [0], [1]], prec))


@pytest.fixture(scope="module")
def K6():
    return degree_six_field(50)


def random_module(K, rng, dmax=4, span=9):
    d = rng.randrange(1, dmax + 1)
    return SenModule.from_int_matrix(
        K, [[rng.randrange(-span, span + 1) for _ in range(d)] for _ in range(d)])


def random_nearly_ht(K, rng, dmax=4):
    d = rng.randrange(1, dmax + 1)
    e = K.different_e
    theta = [[e * rng.randrange(-3, 4) if i == j else K.zero()
              for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(d):
            theta[i][j] = theta[i][j] + K.from_int(3 * rng.randrange(-15, 16))
    return SenModule(K, theta)


class TestCharPoly:
    def test_zero_matrix(self, K):
        cp = char_poly(SenModule.from_int_matrix(K, [[0, 0], [0, 0]]))
        assert cp[0].is_zero() and cp[1].is_zero()
        assert (cp[2] - K.one()).is_zero()

    def test_nilpotent(self, K):
        cp = char_poly(SenModule.from_int_matrix(K, [[0, -1], [0, 0]]))
        assert cp[0].is_zero() and cp[1].is_zero()

    def test_diagonal(self, K):
        e = K.different_e
        cp = char_poly(SenModule.diagonal_weights(K, [1, 2]))
        assert (cp[1] + e * 3).is_zero()
        assert (cp[0] - e * e * 2).is_zero()

    def test_cayley_hamilton(self, K):
        rng = random.Random(21)
        for _ in range(5):
            M = random_module(K, rng)
            cp = char_poly(M)
            acc = [[K.zero()] * M.dim for _ in range(M.dim)]
            power = linalg.identity(M.dim, K.one(), K.zero())
            for c in cp:
                acc = [[x + y for x, y in zip(ra, rb)]
                       for ra, rb in zip(acc, linalg.mat_scale(power, c))]
                power = linalg.mat_mul(power, M.matrix(), K.zero())
            assert all(x.is_zero() for row in acc for x in row)


class TestClassifier:
    def test_integer_weights_pass(self, K):
        assert nearly_ht_test(SenModule.diagonal_weights(K, [0, 1, -3])).verdict

    def test_identity_over_ramified_fails(self, K):
        r = nearly_ht_test(SenModule.from_int_matrix(K, [[1, 0], [0, 1]]))
        assert not r.verdict and Fraction(0) in r.offending

    def test_negative_valuation_fails(self, Q5):
        half = Q5.from_scalar(S.from_fraction(Fraction(1, 5), 5, 40))
        r = nearly_ht_test(SenModule(Q5, [[half, Q5.zero()], [Q5.zero(), half]]))
        assert not r.verdict and min(r.offending) < 0

    def test_nilpotent_passes(self, K):
        assert nearly_ht_test(SenModule.from_int_matrix(K, [[0, -1], [0, 0]])).verdict

    def test_conjugation_invariance(self, K):
        rng = random.Random(22)
        for _ in range(5):
            M = random_module(K, rng, dmax=3)
            d = M.dim
            lower = [[K.from_int(rng.randrange(-9, 10)) if i > j
                      else (K.one() if i == j else K.zero())
                      for j in range(d)] for i in range(d)]
            upper = [[K.from_int(rng.randrange(-9, 10)) if i < j
                      else (K.one() if i == j else K.zero())
                      for j in range(d)] for i in range(d)]
            P = linalg.mat_mul(lower, upper, K.zero())
            Pinv = gj_invert(P, K.one(), K.zero())
            conj = linalg.mat_mul(P, linalg.mat_mul(M.matrix(), Pinv, K.zero()),
                                  K.zero())
            assert nearly_ht_test(SenModule(K, conj)).verdict == \
                nearly_ht_test(M).verdict

    def test_twist_invariance(self, K):
        rng = random.Random(23)
        for _ in range(5):
            M = random_module(K, rng, dmax=3)
            base = nearly_ht_test(M).verdict
            for n in (-2, 1, 5):
                assert nearly_ht_test(bk_twist(M, n)).verdict == base

    def test_resultant_oracle(self, K):
        rng = random.Random(24)
        for _ in range(8):
            M = random_module(K, rng)
            direct = nearly_ht_test(M).char_q
            oracle = char_poly_of_twist_via_resultant(M)
            assert all((a - b).is_zero() for a, b in zip(direct, oracle))

    def test_fermat_gap(self, K, Q5):
        # (X^p - e^(p-1) X) - prod_{i<p} (X - e i) has coefficients of positive
        # valuation: the two agree over the residue field, which is what makes
        # the slope test detect exactly the weights modulo the maximal ideal
        for field in (K, Q5):
            p, e, zero = field.p, field.different_e, field.zero()
            prod = [field.one()]
            for i in range(p):
                prod = [s - t * (e * i) for s, t in zip([zero] + prod, prod + [zero])]
            lhs = [zero] * (p + 1)
            lhs[p], lhs[1] = field.one(), -(e ** (p - 1))
            for a, b in zip(lhs, prod):
                gap = a - b
                assert gap.is_zero() or gap.val_bound() > 0


class TestWeights:
    def test_diagonal(self, K):
        M = SenModule.diagonal_weights(K, [2, 2, 5])
        assert ht_weights(M, (0, 6)) == [(2, 2), (5, 1)]

    def test_nilpotent_generalized_weight(self, K):
        M = SenModule.from_int_matrix(K, [[0, -1], [0, 0]])
        assert ht_weights(M, (-1, 1)) == [(0, 2)]

    def test_near_but_not_equal_is_not_detected(self, Q5):
        h = Q5.from_scalar(S.from_fraction(Fraction(1, 2), 5, 40))
        M = SenModule(Q5, [[h * Q5.different_e]])
        assert ht_weights(M, (0, 5)) == []

    def test_empty_range(self, K):
        M = SenModule.diagonal_weights(K, [0])
        with pytest.raises(UsageError):
            ht_weights(M, (3, 1))

    def test_requires_nearly_ht(self, K):
        M = SenModule.from_int_matrix(K, [[1]])
        with pytest.raises(DomainError):
            ht_weights(M, (0, 1))

    def test_default_range_covers_small_weights(self, K):
        M = SenModule.diagonal_weights(K, [1, -2])
        assert ht_weights(M) == [(-2, 1), (1, 1)]

    def test_weights_27_apart_are_not_reported(self):
        # v(char(theta)(e n)) counts each distance v(e (w - n)) once: at
        # n = w + 27 it is about 19 < 30, so no n = w +- 27 is a weight
        M = SenModule.diagonal_weights(degree_six_field(30), [0, 0, 1, 1, -1, -1, 2, 2])
        assert ht_weights(M) == [(-1, 2), (0, 2), (1, 2), (2, 2)]

    def test_inseparable_window_is_a_precision_error(self):
        # (X - 3e)^8 vanishes to precision 30 at X = -24e and 30e as well
        M = SenModule.diagonal_weights(degree_six_field(30), [3] * 8)
        with pytest.raises(PrecisionError, match="exceed dim = 8"):
            ht_weights(M)

    def test_op_counts(self, K, monkeypatch):
        M = SenModule.diagonal_weights(K, [1, -2])
        assert default_weight_range(M, char_poly(M)) == (-32, 32)
        calls = {"charpoly_berkowitz": 0, "mat_pow": 0, "rank": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(linalg, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(linalg, name, counted)
        assert ht_weights(M) == [(-2, 1), (1, 1)]
        # char(theta^3 - e^2 theta) and char(theta), and theta^3 for the former
        assert calls == {"charpoly_berkowitz": 2, "mat_pow": 1, "rank": 0}


def _unit_triangular_pair(rng_draw, d):
    """P = L U with L, U integer unit triangular, and the integer P^-1."""
    lower = [[1 if i == j else rng_draw() if i > j else 0 for j in range(d)]
             for i in range(d)]
    upper = [[1 if i == j else rng_draw() if i < j else 0 for j in range(d)]
             for i in range(d)]

    def inverse(t, order):
        # forward or back substitution on the columns of the identity
        inv = [[int(i == j) for j in range(d)] for i in range(d)]
        for i in order:
            for j in range(d):
                inv[i][j] -= sum(t[i][k] * inv[k][j] for k in range(d) if k != i)
        return inv

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)]
                for i in range(d)]

    return (mul(lower, upper),
            mul(inverse(upper, reversed(range(d))), inverse(lower, range(d))))


@st.composite
def weight_modules(draw):
    """The data of theta = P D P^-1 of dimension <= 6: D is e diag(w) with 1s
    between some equal adjacent weights (`links`), and maybe one more
    eigenvalue e n + 3^k (`near`), close to e n but not equal to it."""
    weights = sorted(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5)))
    if draw(st.booleans()):
        weights[draw(st.integers(0, len(weights) - 1))] = draw(st.sampled_from([9, 27]))
        weights.sort()
    near = draw(st.one_of(st.none(), st.tuples(st.integers(-3, 3), st.integers(1, 5))))
    d = len(weights) + (near is not None)
    links = [i for i in range(len(weights) - 1)
             if weights[i] == weights[i + 1] and draw(st.booleans())]
    P, P_inv = _unit_triangular_pair(lambda: draw(st.integers(-2, 2)), d)
    return draw(st.sampled_from(["K", "K6"])), weights, near, links, P, P_inv


class TestWeightsClosedForm:
    @settings(max_examples=30)
    @given(case=weight_modules())
    def test_matches_closed_form(self, K, K6, case):
        name, weights, near, links, P, P_inv = case
        F = K if name == "K" else K6
        e, d = F.different_e, len(P)
        D = [[F.zero() for _ in range(d)] for _ in range(d)]
        for i, w in enumerate(weights):
            D[i][i] = e * w
        for i in links:
            D[i][i + 1] = F.one()
        if near is not None:
            n, k = near
            D[-1][-1] = e * n + F.from_int(3 ** k)

        def lift(m):
            return [[F.from_int(x) for x in row] for row in m]

        theta = linalg.mat_mul(linalg.mat_mul(lift(P), D, F.zero()), lift(P_inv), F.zero())
        want = sorted((w, weights.count(w)) for w in set(weights))
        assert ht_weights(SenModule(F, theta)) == want

    @pytest.mark.parametrize("k", range(1, 6))
    def test_near_eigenvalue_is_not_a_weight(self, K, K6, k):
        for F in (K, K6):
            e = F.different_e
            M = SenModule(F, [[e, F.zero()], [F.zero(), e + F.from_int(3 ** k)]])
            assert ht_weights(M) == [(1, 1)]


def exact_pivot_columns(rows):
    """Pivot columns of the reduced echelon form of an integer matrix, by
    exact Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        for k in range(len(a)):
            if k != r and a[k][c]:
                f = a[k][c] / a[r][c]
                a[k] = [x - f * y for x, y in zip(a[k], a[r])]
        pivots.append(c)
    return pivots


@st.composite
def low_rank_integer_matrices(draw):
    """theta = A B with A of size d x k and B of size k x d: rank <= k."""
    d = draw(st.integers(1, 5))
    k = draw(st.integers(0, d))
    entry = st.integers(-3, 3)
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=d, max_size=d))
    b = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=k, max_size=k))
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(d)] for i in range(d)]


class TestCohomology:
    @settings(max_examples=60)
    @given(theta=low_rank_integer_matrices(), over_k=st.booleans())
    def test_bases_against_exact_elimination(self, K, Q5, theta, over_k):
        F = K if over_k else Q5
        d = len(theta)
        M = SenModule.from_int_matrix(F, theta)
        c = cohomology(M)
        pivots = exact_pivot_columns(theta)
        free = [j for j in range(d) if j not in pivots]
        assert c.h0_dim == len(c.h0_basis) == len(free)
        assert c.h1_dim == len(c.h1_basis_indices) == len(free)
        # theta kills every h0 vector, and the vectors are independent: the
        # kernel projects isomorphically onto the free coordinates, so their
        # minor there has a nonzero determinant (by Berkowitz, not elimination)
        for v in c.h0_basis:
            assert all(x.is_zero() for x in linalg.mat_vec(M.matrix(), v, F.zero()))
        if free:
            minor = [[v[j] for j in free] for v in c.h0_basis]
            assert not char_poly(SenModule(F, minor))[0].is_zero()
        # the columns of theta and the e_i for i in h1_basis_indices span K^d
        columns = [[theta[i][j] for i in range(d)] for j in range(d)]
        units = [[int(i == j) for i in range(d)] for j in c.h1_basis_indices]
        assert len(exact_pivot_columns(columns + units)) == d

    def test_one_elimination_of_theta(self, K, monkeypatch):
        # kernel, cokernel and both dimensions come from one row_reduce of theta
        M = SenModule.from_int_matrix(K, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        calls = []
        row_reduce = linalg.row_reduce
        monkeypatch.setattr(linalg, "row_reduce",
                            lambda mat: calls.append(mat) or row_reduce(mat))
        c = cohomology(M)
        assert calls == [M.matrix()]
        assert (c.h0_dim, c.h1_dim) == (1, 1)

    def test_zero_map(self, K):
        c = cohomology(SenModule.from_int_matrix(K, [[0, 0], [0, 0]]))
        assert (c.h0_dim, c.h1_dim) == (2, 2)

    def test_nilpotent(self, K):
        c = cohomology(SenModule.from_int_matrix(K, [[0, -1], [0, 0]]))
        assert (c.h0_dim, c.h1_dim) == (1, 1)
        assert not c.h0_basis[0][0].is_zero() and c.h0_basis[0][1].is_zero()

    def test_invertible(self, K):
        c = cohomology(SenModule.diagonal_weights(K, [1, 2]))
        assert (c.h0_dim, c.h1_dim) == (0, 0)

    def test_h0_equals_h1(self, K, Q5):
        rng = random.Random(25)
        for trial in range(20):
            M = random_module(K if trial % 2 else Q5, rng, dmax=5)
            c = cohomology(M)
            assert c.h0_dim == c.h1_dim

    def test_endomorphisms_contain_identity(self, K):
        M = SenModule.diagonal_weights(K, [0, 1, 3])
        end = tensor(M, dual(M))
        assert cohomology(end).h0_dim >= 1


class TestTensorOps:
    def test_twist_of_trivial(self, K):
        t = bk_twist(trivial_module(K), 4)
        assert (t.theta[0][0] - K.different_e * 4).is_zero()

    def test_twist_additivity(self, K):
        one = trivial_module(K)
        t = tensor(bk_twist(one, 2), bk_twist(one, 3))
        assert (t.theta[0][0] - K.different_e * 5).is_zero()

    def test_dual_negates(self, K):
        t = dual(bk_twist(trivial_module(K), 2))
        assert (t.theta[0][0] + K.different_e * 2).is_zero()

    def test_mixed_fields_rejected(self, K, Q5):
        with pytest.raises(UsageError):
            tensor(trivial_module(K), trivial_module(Q5))


class TestOperatorSeries:
    def test_identity_at_zero(self, K):
        s = operator_series(bk_twist(trivial_module(K), 1), K.zero())
        assert (s[0][0] - K.one()).is_zero()

    def test_rank_one_binomials(self, K):
        e = K.different_e
        b = K.from_int(3)
        for n in (0, 1, 3):
            s = operator_series(bk_twist(trivial_module(K), n), b)
            assert (s[0][0] - (K.one() + e * b) ** n).is_zero()
        s = operator_series(bk_twist(trivial_module(K), -1), b)
        d = s[0][0] - (K.one() + e * b).inverse()
        assert d.is_zero() and d.val_bound() >= 40

    def test_group_law(self, K):
        rng = random.Random(26)
        e = K.different_e
        M = random_nearly_ht(K, rng)
        b1 = K.from_int(3 * rng.randrange(1, 20))
        b2 = K.pi * K.from_int(3 * rng.randrange(1, 20))
        s1 = operator_series(M, b1)
        s2 = operator_series(M, b2)
        s3 = operator_series(M, b1 + b2 + e * b1 * b2)
        prod = linalg.mat_mul(s1, s2, K.zero())
        for i in range(M.dim):
            for j in range(M.dim):
                d = prod[i][j] - s3[i][j]
                assert d.is_zero() and d.val_bound() >= 44

    def test_requires_nearly_ht(self, K):
        M = SenModule.from_int_matrix(K, [[1]])
        with pytest.raises(DomainError):
            operator_series(M, K.from_int(3))

    @pytest.mark.parametrize("N", [10, 19, 28, 29, 37])
    def test_rank_one_weight_minus_two_every_digit(self, N):
        # over Q_3, e = 1: the series is (1 + b)^-2
        Q3 = qp_field(3, N)
        M = SenModule.diagonal_weights(Q3, [-2])
        for b in (3, 6, 12):
            c = operator_series(M, Q3.from_int(b))[0][0].coordinates()[0]
            assert c.prec == N
            assert c == S.from_fraction(Fraction(1, (1 + b) ** 2), 3, N)

    def test_refuses_below_the_stop_rule_bound(self, K):
        # v(b) + min(v(theta), v(e)) = 1/2 + 0 is not above 1/(p-1) = 1/2
        M = SenModule.from_int_matrix(K, [[0, -1], [0, 0]])
        with pytest.raises(ConvergenceError):
            operator_series(M, K.pi)
        with pytest.raises(ConvergenceError):
            operator_series_apply(M, K.pi, [K.one(), K.one()])

    @pytest.mark.parametrize("size", [2, 5, 0])
    def test_apply_refuses_a_vector_of_the_wrong_length(self, K, size):
        # a dimension-3 module takes 3 entries: 2 or 5 must not be cut or padded
        M = SenModule.diagonal_weights(K, [0, 1, 2])
        with pytest.raises(UsageError, match="%d entries; .* dimension 3" % size):
            operator_series_apply(M, K.from_int(3), [K.one()] * size)

    def test_second_pass_at_v_of_n_factorial(self, monkeypatch):
        # over Q_2(i), pi = i - 1, at 20 digits, weights (-3, 0) and b = pi: the
        # first pass leaves (1 + e b)^-3 a digit short of its claim, so the
        # sum is formed again with 1/k! at v(n!) more digits
        K = eisenstein_field(2, [2, 2, 1], 20)
        M = SenModule.diagonal_weights(K, [-3, 0])
        passes = []
        reciprocals = senmod.reciprocals
        monkeypatch.setattr(senmod, "reciprocals", lambda p, rel, n, factorial: (
            passes.append(rel) if factorial else None) or reciprocals(p, rel, n, factorial))
        s = operator_series(M, K.pi)
        assert len(passes) == 2 and passes[1] > passes[0]
        g = K.one() + K.different_e * K.pi
        for x, want in ((s[0][0], g.inverse() ** 3), (s[1][1], K.one())):
            assert x.prec == 20 and (x - want).is_zero()
        assert s[0][1].is_zero() and s[1][0].is_zero()

    def test_b_as_int_or_scalar(self):
        # an int or a PadicScalar b is K.from_scalar of it
        K = eisenstein_field(2, [2, 2, 1], 20)
        M = SenModule.diagonal_weights(K, [-3, 1])
        triples = lambda m: [[(x.vec, x.shift, x.prec) for x in row] for row in m]
        want = triples(operator_series(M, K.from_int(6)))
        assert triples(operator_series(M, 6)) == want
        assert triples(operator_series(M, S.from_int(6, 2, 20))) == want

    def test_zero_dimensional_module_sums_the_empty_series(self, K):
        M = SenModule(K, [])
        assert operator_series(M, K.from_int(3)) == []

    def test_zero_dimensional_module_applies_to_the_empty_vector(self, K):
        M = SenModule(K, [])
        assert operator_series_apply(M, K.from_int(3), []) == []

    def test_ends_on_low_precision_inputs_in_a_fresh_process(self):
        # over Q_5(zeta_5) at precision 15, theta is known to 5^9 and b to 5:
        # the sums of t and of exp(t theta) end once their tail bounds pass
        # the one digit that b and t theta claim
        field = {"p": 5, "prec": 15, "unramified_poly": ["-1", "1"],
                 "eisenstein_poly": [["5"], ["10"], ["10"], ["5"], ["1"]]}
        theta = {"theta": [[{"coeffs": [
            ["5", "-17", {"val": None, "unit": "0", "prec": 9}, "20"]]}]]}
        b = {"coeffs": [["-15625", "-3", "-15625", {"val": None, "unit": "0", "prec": 1}]]}
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                                   else [])))
        proc = subprocess.run(
            [sys.executable, "-c", "from senlab.cli import entry; entry()", "senmod",
             "operator-series", "--field", json.dumps(field), "--theta", json.dumps(theta),
             "--b", json.dumps(b)], env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        (entry,), = json.loads(proc.stdout)["matrix"]
        coords = entry["coeffs"][0]
        assert [c["prec"] for c in coords] == [1] * 4
        assert [0 if c["val"] is None else int(c["unit"]) for c in coords] == [1, 0, 1, 0]

    @settings(max_examples=25)
    @given(n=st.integers(-6, -1), m1=st.integers(-50, 50), m2=st.integers(-50, 50))
    def test_rank_one_negative_weights(self, K, n, m1, m2):
        e = K.different_e
        b = K.from_int(3 * m1) + K.pi * K.from_int(3 * m2)
        s = operator_series(bk_twist(trivial_module(K), n), b)[0][0]
        assert all(c.prec == K.prec for c in s.coordinates())
        assert (s - (K.one() + e * b) ** n).is_zero()

    @settings(max_examples=20)
    @given(seed=st.integers(0, 10 ** 6), m=st.integers(-30, 30), prec=st.integers(8, 50))
    def test_columns_match_apply_on_unit_vectors(self, K, seed, m, prec):
        # column j of the matrix is the series applied to e_j, to the lower precision
        M = random_nearly_ht(K, random.Random(seed))
        b = (K.pi * K.from_int(m)).truncated(prec)
        matrix = operator_series(M, b)
        for j in range(M.dim):
            unit = [K.one() if i == j else K.zero() for i in range(M.dim)]
            column = operator_series_apply(M, b, unit)
            assert all((matrix[i][j] - column[i]).is_zero() for i in range(M.dim))

    def test_matches_coaction_on_regular_representation(self, K):
        n_trunc = 8
        reg = regular_representation(K, n_trunc)
        rng = random.Random(27)
        f = DPSeries(K, [K.from_int(rng.randrange(-9, 9))
                         for _ in range(n_trunc + 1)])
        b = K.from_int(3)
        via_series = operator_series_apply(reg, b, list(f.coeffs))
        via_sub = coaction(f, b)
        for n in range(n_trunc + 1):
            d = via_series[n] - via_sub.coeffs[n]
            assert d.is_zero() and d.val_bound() >= 44


class TestDescent:
    def test_identity_character(self, K):
        D = semilinear_descent_matrix(bk_twist(trivial_module(K), 1),
                                      S.one(3, 50))
        assert (D[0][0] - K.one()).is_zero()

    def test_rank_one_power(self, K):
        chi = S.from_int(4, 3, 50)
        D = semilinear_descent_matrix(bk_twist(trivial_module(K), 2), chi)
        assert (D[0][0] - K.from_scalar(chi) ** 2).is_zero()

    def test_multiplicative_on_scalar_values(self, K):
        M = SenModule.diagonal_weights(K, [1, -2])
        c1, c2 = S.from_int(4, 3, 50), S.from_int(10, 3, 50)
        D1 = semilinear_descent_matrix(M, c1)
        D2 = semilinear_descent_matrix(M, c2)
        D12 = semilinear_descent_matrix(M, c1 * c2)
        prod = linalg.mat_mul(D1, D2, K.zero())
        for i in range(2):
            for j in range(2):
                assert (prod[i][j] - D12[i][j]).is_zero()

    def test_ball_precondition(self, K):
        with pytest.raises(DomainError, match="alpha"):
            semilinear_descent_matrix(trivial_module(K), S.from_int(2, 3, 50))

    def test_ball_over_q2(self):
        # the exponential over Q_2 needs v(chi - 1) >= 2: chi = 3 is outside
        Q2 = qp_field(2, 20)
        with pytest.raises(DomainError, match="alpha"):
            semilinear_descent_matrix(trivial_module(Q2), S.from_int(3, 2, 20))
        D = semilinear_descent_matrix(bk_twist(trivial_module(Q2), 1), S.from_int(5, 2, 20))
        assert (D[0][0] - Q2.from_int(5)).is_zero()

    @pytest.mark.parametrize("weights, digits", [([-2], 35), ([0, 1, -3], 35), ([3], 37),
                                                 ([2, 2, 5], 35)])
    def test_keeps_its_digits_over_q3_zeta9(self, weights, digits):
        # chi = 4 over Q_3(zeta_9) at 40 digits: b = 3/e has v(b) = -1/2, and
        # the matrix diag(4^w) claims at least `digits` digits in every entry
        # (the P_n sum claimed 20 for [-2] and [0, 1, -3], 37 for [3] and 35
        # for [2, 2, 5]; the inputs fix about 39)
        K = cyclotomic_field(3, 2, 40)
        D = semilinear_descent_matrix(SenModule.diagonal_weights(K, weights),
                                      S.from_int(4, 3, 40))
        assert min(x.prec for row in D for x in row) >= digits
        for i, w in enumerate(weights):
            for j in range(len(weights)):
                assert (D[i][j] - (K.from_int(4) ** w if i == j else K.zero())).is_zero()

    def test_wrong_prime_rejected(self, K):
        with pytest.raises(UsageError):
            semilinear_descent_matrix(trivial_module(K), S.from_int(6, 5, 50))


class TestCertificate:
    """nearly_ht_test's report is computed once per module and every
    consumer of the nearly-Hodge-Tate condition reads it."""

    def test_one_theta_power_for_every_consumer(self, K, monkeypatch):
        e = K.different_e
        P = [[K.from_int(x) for x in row] for row in ([1, 2, 0], [0, 1, -1], [3, 0, 1])]
        D = [[e * w if i == j else K.zero() for j, w in enumerate((1, -2, 0))]
             for i in range(3)]
        theta = linalg.mat_mul(linalg.mat_mul(P, D, K.zero()),
                               gj_invert(P, K.one(), K.zero()), K.zero())
        M = SenModule(K, theta)
        calls = []
        mat_pow = linalg.mat_pow
        monkeypatch.setattr(linalg, "mat_pow", lambda *args: calls.append(args) or mat_pow(*args))
        report = nearly_ht_test(M)
        assert report.verdict and nearly_ht_test(M) is report
        assert ht_weights(M) == [(-2, 1), (0, 1), (1, 1)]
        b = K.from_int(3)
        for x in (b, K.pi * b, b + K.pi * b + e * b * K.pi * b):
            operator_series(M, x)
        operator_series_apply(M, b, [K.one(), K.zero(), K.one()])
        semilinear_descent_matrix(M, S.from_int(4, 3, 50))
        # theta^3 of the classifier, and nothing after it
        assert len(calls) == 1

    @pytest.mark.parametrize("consumer", [
        lambda M, K: ht_weights(M, (-3, 3)),
        lambda M, K: operator_series(M, K.from_int(3)),
        lambda M, K: operator_series_apply(M, K.from_int(3), [K.one(), K.one()]),
        lambda M, K: semilinear_descent_matrix(M, S.from_int(4, 3, 50)),
    ], ids=["ht_weights", "operator_series", "operator_series_apply",
            "semilinear_descent_matrix"])
    def test_every_consumer_refuses(self, K, consumer):
        # eigenvalue 1 is a unit, not in e Z + the maximal ideal
        M = SenModule.from_int_matrix(K, [[1, 0], [0, 0]])
        with pytest.raises(DomainError, match="not nearly Hodge-Tate"):
            consumer(M, K)
