import random
from fractions import Fraction

import pytest

from senlab import linalg
from senlab.errors import ConvergenceError, DomainError, UsageError
from senlab.gamma import (build_level, dense_solve, g_minus_one, kernel_check,
                          log_coordinate_tail_bounds, log_coordinate_vector,
                          neumann_invert, rho_bound, symmetric_range)
from senlab.padic import PadicScalar

S = PadicScalar


@pytest.fixture(scope="module")
def level_m2():
    """p = 3, level 2, chi = 1 + 9 (sigma trivial on this level)."""
    return build_level(3, 2, 10, 60)


@pytest.fixture(scope="module")
def operator(level_m2):
    return g_minus_one(level_m2, S.from_int(1, 3, 60), 8)


class TestBuildLevel:
    def test_degrees(self):
        assert build_level(3, 1, 2, 30).degree == 2
        assert build_level(3, 2, 4, 30).degree == 6

    def test_sigma_order(self):
        L = build_level(3, 2, 4, 30)
        one, zero = S.one(3, 30), S.zero(3, 30)
        s3 = linalg.mat_pow(L.sigma, 3, one, zero)
        ident = linalg.identity(6, one, zero)
        assert all((s3[i][j] - ident[i][j]).is_zero()
                   for i in range(6) for j in range(6))
        assert any(not (L.sigma[i][j] - ident[i][j]).is_zero()
                   for i in range(6) for j in range(6))

    def test_gcd_rejected(self):
        with pytest.raises(UsageError):
            build_level(5, 1, 5, 30)

    def test_trivial_character_rejected(self):
        with pytest.raises(DomainError):
            build_level(3, 1, 1, 30)

    def test_unit_generator_with_trivial_sigma_accepted(self):
        # a = 1 + p is 1 mod p at level 1: sigma is trivial but chi is not
        L = build_level(3, 1, 4, 30)
        assert L.chi == S.from_int(4, 3, 30)


class TestRhoBound:
    def test_symmetry_for_one_plus_p(self):
        L = build_level(3, 1, 4, 40)
        rep = rho_bound(L, symmetric_range(6))
        for n in range(1, 7):
            assert rep.per_n[n] == rep.per_n[-n]
            # exponent is v_3(4^n - 1) = 1 + v_3(n) on the fixed line
            expected = 1 + (1 if n % 3 == 0 else 0)
            assert rep.per_n[n] == expected

    def test_exponent_stabilizes_off_p(self):
        L = build_level(3, 2, 4, 40)
        rep = rho_bound(L, symmetric_range(10))
        off_p = {v for n, v in rep.per_n.items() if n % 3}
        assert len(off_p) == 1

    def test_uniform_across_levels(self):
        tables = {}
        for m in (1, 2):
            L = build_level(3, m, 4, 40)
            tables[m] = rho_bound(L, symmetric_range(6)).per_n
        assert tables[1] == tables[2]

    def test_zero_twist_rejected(self, level_m2):
        with pytest.raises(UsageError):
            rho_bound(level_m2, [0, 1])


class TestTwistedOperator:
    def test_y_precondition(self):
        L = build_level(3, 1, 2, 40)   # chi - 1 = 1, so y is a unit
        with pytest.raises(DomainError):
            g_minus_one(L, S.from_int(1, 3, 40), 4)

    def test_block_structure(self, level_m2, operator):
        d = level_m2.degree
        T = operator
        for i in range(T.size):
            for j in range(T.size):
                if (j // d) < (i // d):
                    assert T.matrix[i][j].is_zero()
        # strict upper entries carry at least v(y)
        for i in range(T.size):
            for j in range(T.size):
                if (j // d) > (i // d):
                    assert T.matrix[i][j].val_bound() >= T.y.val

    def test_superdiagonal_valuations(self, level_m2, operator):
        d = level_m2.degree
        T = operator
        vy = T.y.val
        for n in range(1, T.trunc + 1):
            for k in range(1, T.trunc - n + 1):
                blk = min(T.matrix[(n - 1) * d + i][(n + k - 1) * d + j].val_bound()
                          for i in range(d) for j in range(d))
                fact = sum(k // 3 ** t for t in range(1, 8))
                assert blk >= k * vy - fact

    def test_single_block_truncation(self):
        L = build_level(3, 1, 4, 40)
        T = g_minus_one(L, S.from_int(1, 3, 40), 1)
        assert T.size == L.degree
        assert kernel_check(T) == 0

    def test_contraction_certificate(self, operator):
        con = operator.contraction_report()
        assert con["nilpotent"]
        # the literal sup norm exponent is 1 in this model: entries
        # chi^n y / (chi^n - 1) on the sigma-fixed line have valuation -v_p(n)
        assert con["sup_norm_exponent"] == Fraction(1)

    def test_kernel_trivial(self, operator):
        assert kernel_check(operator) == 0


class TestNeumann:
    def test_zero_rhs(self, operator):
        res = neumann_invert(operator, [S.zero(3, 60)] * operator.size)
        assert all(x.is_zero() for x in res["solution"])

    def test_round_trip(self, operator):
        rng = random.Random(1)
        x = [S.from_int(rng.randrange(-100, 100), 3, 60)
             for _ in range(operator.size)]
        rhs = linalg.mat_vec(operator.matrix, x, S.zero(3, 60))
        res = neumann_invert(operator, rhs)
        assert all((a - b).is_zero() for a, b in zip(res["solution"], x))

    def test_matches_dense_solve(self, operator):
        rng = random.Random(2)
        rhs = [S.from_int(rng.randrange(-3 ** 8, 3 ** 8), 3, 60)
               for _ in range(operator.size)]
        res = neumann_invert(operator, rhs)
        direct = dense_solve(operator, rhs)
        diffs = [a - b for a, b in zip(res["solution"], direct)]
        assert all(x.is_zero() for x in diffs)
        assert min(x.val_bound() for x in diffs) >= 46
        assert res["residual_valuation"] >= 46

    def test_contraction_requirement_raises_here(self, operator):
        # the literal sup-norm condition is unattainable in the finite model
        rhs = [S.one(3, 60)] * operator.size
        with pytest.raises(ConvergenceError):
            neumann_invert(operator, rhs, require_contraction=True)

    def test_size_mismatch(self, operator):
        with pytest.raises(UsageError):
            neumann_invert(operator, [S.one(3, 60)])


class TestLogCoordinate:
    def test_residual_matches_tail_bounds(self, level_m2, operator):
        d = level_m2.degree
        vec = log_coordinate_vector(operator)
        img = linalg.mat_vec(operator.matrix, vec, S.zero(3, 60))
        bounds = log_coordinate_tail_bounds(operator)
        for n in range(1, operator.trunc + 1):
            comp = img[(n - 1) * d: n * d]
            got = min(x.val_bound() for x in comp)
            assert got >= min(bounds[n - 1], 60)
