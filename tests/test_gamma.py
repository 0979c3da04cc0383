import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gauss_jordan import gj_invert, gj_rank
from senlab import gamma, linalg
from senlab.dpseries import DPSeries, coaction
from senlab.errors import ConvergenceError, DomainError, PrecisionError, UsageError
from senlab.field import FieldEmbedding, cyclotomic_field, qp_field
from senlab.gamma import (RhoReport, build_level, dense_solve, g_minus_one, neumann_invert,
                          rho_bound, symmetric_range)
from senlab.padic import PadicScalar, power, vp_int

S = PadicScalar


@pytest.fixture(scope="module")
def level_m2():
    """p = 3, level 2, chi = 1 + 9 (sigma trivial on this level)."""
    return build_level(3, 2, 10, 60)


@pytest.fixture(scope="module")
def operator(level_m2):
    return g_minus_one(level_m2, S.from_int(1, 3, 60), 8)


# the sequential PadicScalar sum, one product at a time, and the matrix
# products over Q_p built on it: the oracle for gamma's integer kernels,
# which are the library's one route for a sum of products over Q_p
def _seq_dot(u, v, start):
    acc = start
    for x, y in zip(u, v):
        acc = acc + x * y
    return acc


def _seq_mat_mul(a, b, zero):
    cols = list(zip(*b))
    return [[_seq_dot(row, col, zero) for col in cols] for row in a]


def _seq_mat_vec(a, v, zero):
    return [_seq_dot(row, v, zero) for row in a]


def _seq_mat_pow(a, n, one, zero):
    return power(a, n, lambda x, y: _seq_mat_mul(x, y, zero),
                 linalg.identity(len(a), one, zero))


# the dense route the block form replaced: rho (block diagonal of inverses of
# the diagonal blocks of the operator, by the generic row_reduce route) and
# rho M (M the strict upper part) as full matrices, the Neumann sum and the
# powers of rho M
def _dense_rho_m(T):
    d, size = T.level.degree, T.size
    one, zero = S.one(T.level.p, T.level.prec), S.zero(T.level.p, T.level.prec)
    rho = [[zero] * size for _ in range(size)]
    for base in range(0, size, d):
        inv = gj_invert([row[base:base + d] for row in T.matrix[base:base + d]], one, zero)
        for i in range(d):
            rho[base + i][base:base + d] = inv[i]
    strict = [[T.matrix[i][j] if j // d > i // d else zero for j in range(size)]
              for i in range(size)]
    return rho, _seq_mat_mul(rho, strict, zero)


def _norm(rows):
    return Fraction(-min(x.val_bound() for row in rows for x in row))


def _dense_power_exponents(rho_m, zero):
    exps, power = [], rho_m
    while any(not x.is_zero() for row in power for x in row):
        exps.append(_norm(power))
        power = _seq_mat_mul(power, rho_m, zero)
    return exps


def _dense_neumann(T, rho, rho_m, rhs):
    zero = S.zero(T.level.p, T.level.prec)
    w = _seq_mat_vec(rho, rhs, zero)
    acc = list(w)
    for _ in range(T.trunc):
        w = [-x for x in _seq_mat_vec(rho_m, w, zero)]
        acc = [x + y for x, y in zip(acc, w)]
    return acc


def _scalar_rows(blk, p):
    """An integer block of gamma as rows of PadicScalars, read off its fields:
    entry t is p^shift xs[t] with valuation vals[t], known modulo p^precs[t]."""
    flat = [S(p, v, x // p ** (v - blk.shift), n) if x else S.zero(p, n)
            for x, v, n in zip(blk.xs, blk.vals, blk.precs)]
    return [flat[i:i + blk.ncols] for i in range(0, len(flat), blk.ncols)]


def _triples(xs):
    return [(x.val, x.unit, x.prec) for x in xs]


# the PadicScalar route the integer blocks replaced, kept as the oracle for
# them: sigma, D_n = chi^n sigma - 1 and rho_n as matrices of PadicScalars,
# built for each operator, the powers of rho M through _seq_mat_mul and
# per-entry _seq_dot, and the back-substitution and its residual through
# _seq_mat_vec.  The integer route must give every entry the same
# (val, unit, prec).
def _scalar_sigma(level):
    p, prec = level.p, level.prec
    rows = gamma._on_u_basis([gamma._orbit_sum(level, 1, 0, i * level.a, p ** prec)
                              for i in range(level.degree)])
    return [[S.from_residue(p, x, prec) for x in row] for row in rows]


def _scalar_diagonal(level, sigma, n):
    scale = level.chi ** n
    return [[x * scale - 1 if i == j else x * scale for j, x in enumerate(row)]
            for i, row in enumerate(sigma)]


def _scalar_inverse(level, n):
    p, d, prec = level.p, level.degree, level.prec
    r = level.order
    v = gamma._vp_power_minus_one(level.a, n * r, p, level.m + 1)
    mod = p ** (prec + v)
    unit = (pow(level.a, n * r, p ** (prec + 2 * v)) - 1) // p ** v
    scale = pow(unit, -1, mod)
    rows = gamma._on_u_basis([gamma._orbit_sum(level, r, n, i, mod) for i in range(d)])
    return [[S.from_residue(p, scale * x, prec, -v) for x in row] for row in rows]


def _scalar_norm_exponent(blocks):
    return Fraction(-min(x.val_bound() for blk in blocks for row in blk for x in row))


def _scalar_nonzero(blocks):
    return {key: blk for key, blk in blocks.items()
            if any(not x.is_zero() for row in blk for x in row)}


class _ScalarRoute:
    """The twisted operator T with its blocks as PadicScalar matrices."""

    def __init__(self, T):
        self.level, self.trunc, self.coef = T.level, T.trunc, T.coef
        self.sigma = _scalar_sigma(T.level)
        self.diag = {n: _scalar_diagonal(T.level, self.sigma, n) for n in range(1, T.trunc + 1)}
        self.rho = {n: _scalar_inverse(T.level, n) for n in range(1, T.trunc + 1)}
        self.zero = S.zero(T.level.p, T.level.prec)

    def matrix(self):
        d, mat = self.level.degree, []
        for n in range(1, self.trunc + 1):
            row = [self.diag[n]] + [[[x * c for x in srow] for srow in self.sigma]
                                    for c in self.coef[n][1:]]
            mat.extend([self.zero] * (n - 1) * d + [x for blk in row for x in blk[i]]
                       for i in range(d))
        return mat

    def sigma_tail(self, n, later):
        d = self.level.degree
        tail = [_seq_dot(self.coef[n][1:], later[i::d], self.zero) for i in range(d)]
        return _seq_mat_vec(self.sigma, tail, self.zero)

    def strict_upper_norm_exponent(self):
        return max((_scalar_norm_exponent([self.rho[n]])
                    - min(c.val_bound() for c in self.coef[n][1:])
                    for n in range(1, self.trunc)), default=Fraction(-self.level.prec))

    def contraction_report(self):
        rho_sigma, rho_m = {}, {}
        for n in range(1, self.trunc):
            inv = self.level.chi ** -n
            rho_sigma[n] = [[(x + 1 if i == j else x) * inv for j, x in enumerate(row)]
                            for i, row in enumerate(self.rho[n])]
            for k in range(1, self.trunc - n + 1):
                rho_m[(n, n + k)] = linalg.mat_scale(rho_sigma[n], self.coef[n][k])
        rho_m = _scalar_nonzero(rho_m)
        exps, power = [], rho_m
        while power:
            exps.append(_scalar_norm_exponent(power.values()))
            terms = {}
            for n, m in rho_m:
                for s, l in power:
                    if s == m:
                        terms.setdefault((n, l), []).append((self.coef[n][m - n], power[m, l]))
            sums = {}
            for key, ((c, first), *rest) in terms.items():
                coefs = [c for c, _ in rest]
                sums[key] = [[_seq_dot(coefs, [blk[i][j] for _, blk in rest], c * x)
                              for j, x in enumerate(row)] for i, row in enumerate(first)]
            power = _scalar_nonzero({(n, l): _seq_mat_mul(rho_sigma[n], blk, self.zero)
                                     for (n, l), blk in sums.items()})
        return {"sup_norm_exponent": self.strict_upper_norm_exponent(),
                "power_exponents": exps, "nilpotent": len(exps) < self.trunc}

    def neumann_invert(self, rhs):
        d, sup, x = self.level.degree, self.strict_upper_norm_exponent(), []
        for n in range(self.trunc, 0, -1):
            b = rhs[(n - 1) * d: n * d]
            if x:
                b = [u - v for u, v in zip(b, self.sigma_tail(n, x))]
            x = _seq_mat_vec(self.rho[n], b, self.zero) + x
        residual = []
        for n in range(1, self.trunc + 1):
            row = _seq_mat_vec(self.diag[n], x[(n - 1) * d: n * d], self.zero)
            if n < self.trunc:
                row = [u + v for u, v in zip(row, self.sigma_tail(n, x[n * d:]))]
            residual.extend(u - v for u, v in zip(row, rhs[(n - 1) * d: n * d]))
        res_bound = min(u.val_bound() for u in residual)
        if any(not u.is_zero() for u in residual):
            raise ConvergenceError(
                "Neumann residual is nonzero at valuation %s; |rho M| exponent %s "
                "suggests a smaller y" % (res_bound, sup))
        return {"solution": x, "residual_valuation": res_bound, "sup_norm_exponent": sup}


def _outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ConvergenceError, PrecisionError) as exc:
        return type(exc), str(exc)


def _mixed_rhs(p, prec, size, rng):
    """Entries at precisions prec - 12 .. prec + 3 and shifts -2 .. 3, one in
    five zero to its precision."""
    return [S.zero(p, rng.randrange(prec - 12, prec + 4)) if rng.random() < 0.2 else
            S.from_residue(p, rng.randrange(-p ** 12, p ** 12), rng.randrange(prec - 12, prec + 4),
                           rng.randrange(-2, 4)) for _ in range(size)]


# the field route the orbit sum replaced: sigma_a on the basis u^k of
# Q_p(zeta_{p^m}), u = zeta - 1 = pi, read off the coordinates of the powers of
# sigma(u) = (1 + pi)^a - 1 in the cyclotomic field, with the automorphism
# certified; the oracle for level.sigma and the sigma of every rho_n oracle
def _field_sigma(p, m, a, prec):
    K = cyclotomic_field(p, m, prec)
    u_image = (K.one() + K.pi) ** a - K.one()
    FieldEmbedding(K, K, K.one(), u_image)
    cols, power = [], K.one()
    for _ in range(K.degree):
        cols.append(power.coordinates())
        power = power * u_image
    return [[col[s] for col in cols] for s in range(K.degree)]


def _field_block(level, n):
    """chi^n sigma - 1 with sigma from the field route."""
    scale = level.chi ** n
    sigma = _field_sigma(level.p, level.m, level.a, level.prec)
    return [[x * scale - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(sigma)]


# the matrix route rho_bound replaced: S_n = sum_{j<r} chi^(nj) sigma^j from
# the d x d integer lift of sigma, column by column through the r-step orbit
# of each basis vector, recombined for each twist
def _matrix_rho_bound(level, n_values):
    p, a, d, mod = level.p, level.a, level.degree, level.p ** level.prec
    r = next(r for r in range(1, p ** level.m) if pow(a, r, p ** level.m) == 1)
    v_denom, chi_powers = {}, {}
    for n in n_values:
        v_denom[n] = vp_int(a ** (abs(n) * r) - 1, p)
        chi_powers[n] = [pow(a, n * j, mod) for j in range(r)]
    sigma = [[s.lift() for s in row] for row in _field_sigma(p, level.m, a, level.prec)]
    content = dict.fromkeys(v_denom, mod)
    for t in range(d):
        orbit = [[int(i == t) for i in range(d)]]
        for _ in range(1, r):
            orbit.append([sum(u * v for u, v in zip(row, orbit[-1])) % mod for row in sigma])
        for n, cs in chi_powers.items():
            column = [sum(c * vec[i] for c, vec in zip(cs, orbit)) for i in range(d)]
            content[n] = math.gcd(content[n], *column)
    assert mod not in content.values(), "S_n = 0 mod p^prec: raise the oracle's precision"
    per_n = {n: Fraction(v - vp_int(content[n], p)) for n, v in v_denom.items()}
    return RhoReport(per_n, max(per_n.values()))


# four benchmark inversion levels, among them those of degree 18 and 20, and
# the criterion-8 operator, with the power exponents the dense route gave (its
# trailing zero power left out)
DENSE_CASES = {
    "3-1-2-trunc8": ((3, 1, 2, 40), Fraction(1, 3), 8, [1, 0, 0, -1, -1, -2, -2]),
    "3-2-2-trunc4": ((3, 2, 2, 40), Fraction(1, 3), 4, [1, 0, 0]),
    "3-3-2-trunc2": ((3, 3, 2, 40), Fraction(1, 3), 2, [0]),
    "5-2-2-trunc2": ((5, 2, 2, 40), Fraction(1, 5), 2, [0]),
    "criterion8": ((3, 2, 10, 60), Fraction(1), 8, [1, 1, 1, 2, 2, 2, 2]),
}

# the five benchmark inversions, the README's gamma invert at truncation 8 and
# a level of Q_5(zeta_5) at truncation 6: (level, e, truncation)
RESIDUAL_CASES = {
    "3-1-2-trunc8": ((3, 1, 2, 40), Fraction(1, 3), 8),
    "3-2-2-trunc4": ((3, 2, 2, 40), Fraction(1, 3), 4),
    "3-2-10-trunc4": ((3, 2, 10, 40), Fraction(1), 4),
    "3-3-2-trunc2": ((3, 3, 2, 40), Fraction(1, 3), 2),
    "5-2-2-trunc2": ((5, 2, 2, 40), Fraction(1, 5), 2),
    "3-2-10-trunc8": ((3, 2, 10, 50), Fraction(1), 8),
    "5-1-6-trunc6": ((5, 1, 6, 40), Fraction(1), 6),
}

# the benchmark levels
BENCH_LEVELS = [(3, 1, 2), (3, 1, 4), (3, 2, 2), (3, 3, 2), (3, 2, 10), (5, 2, 2)]

# the (p, m) grid on which the orbit sums meet the matrix and field routes
ORBIT_GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]


@pytest.fixture(scope="module", params=sorted(DENSE_CASES))
def dense_case(request):
    (p, m, a, prec), e, trunc, powers = DENSE_CASES[request.param]
    T = g_minus_one(build_level(p, m, a, prec), S.from_fraction(e, p, prec), trunc)
    return (T, *_dense_rho_m(T), powers)


class TestBuildLevel:
    def test_degrees(self):
        assert build_level(3, 1, 2, 30).degree == 2
        assert build_level(3, 2, 4, 30).degree == 6

    def test_sigma_order(self):
        sigma = _field_sigma(3, 2, 4, 30)
        one, zero = S.one(3, 30), S.zero(3, 30)
        s3 = _seq_mat_pow(sigma, 3, one, zero)
        ident = linalg.identity(6, one, zero)
        assert all((s3[i][j] - ident[i][j]).is_zero()
                   for i in range(6) for j in range(6))
        assert any(not (sigma[i][j] - ident[i][j]).is_zero()
                   for i in range(6) for j in range(6))

    @pytest.mark.parametrize("p,m,a", sorted(
        {*BENCH_LEVELS, *((p, m, a) for p, m in ORBIT_GRID for a in (2, 3, 7) if a % p)}))
    def test_sigma_matches_field_route(self, p, m, a):
        # the one-term orbit sum sigma zeta^i = zeta^(i a) on the u^k is the
        # certified field automorphism, digit for digit and at equal precision
        for prec in (2, 5, 40):
            try:
                L = build_level(p, m, a, prec)
            except DomainError:     # a^(p-1) = 1 to working precision
                continue
            want, sigma = _field_sigma(p, m, a, prec), _scalar_rows(L.sigma, p)
            assert [_triples(row) for row in sigma] == [_triples(row) for row in want], prec
            assert all((x - y).is_zero() for rx, ry in zip(sigma, want)
                       for x, y in zip(rx, ry)), prec

    def test_sigma_built_on_first_read(self):
        # the Tate bound reads p, m and a alone: a degree-294 level answers
        # without building sigma
        L = build_level(7, 3, 2, 10)
        assert L.degree == 294
        assert rho_bound(L, [1, 2]).per_n == {1: 1, 2: 1}
        assert "sigma" not in vars(L)
        small = build_level(3, 2, 2, 10)
        assert small.sigma is small.sigma and "sigma" in vars(small)

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

    # the benchmark levels, then (5, 1, 2) and (3, 2, 4); order = ord(a mod p^m)
    @pytest.mark.parametrize("p,m,a,order", [
        (3, 1, 2, 2), (3, 1, 4, 1), (3, 2, 2, 6), (3, 3, 2, 18), (3, 2, 10, 1),
        (5, 2, 2, 20), (5, 1, 2, 4), (3, 2, 4, 3)])
    def test_finite_order_closed_form(self, p, m, a, order):
        # rho_bound reads the exponents off the finite order of sigma; the
        # oracle inverts each block chi^n sigma - 1 by generic Gauss-Jordan
        L = build_level(p, m, a, 40)
        one, zero = S.one(p, 40), S.zero(p, 40)
        ident = linalg.identity(L.degree, one, zero)
        sigma = _field_sigma(p, m, a, 40)
        assert all((x - y).is_zero() for rx, ry in zip(_seq_mat_pow(sigma, order, one, zero),
                                                      ident) for x, y in zip(rx, ry))
        rep = rho_bound(L, symmetric_range(6))
        assert L.order == order
        for n in symmetric_range(6):
            assert rep.per_n[n] == _norm(gj_invert(_field_block(L, n), one, zero)), n
        assert rep.delta == max(rep.per_n.values())

    @pytest.mark.parametrize("p,m", ORBIT_GRID)
    def test_orbit_sum_matches_matrix_route(self, p, m):
        # the report at every precision is the matrix route's at precision 40:
        # the orbit sums modulo p^v are exact, so no block is refused
        twists = symmetric_range(10)
        for a in range(2, 12):
            if a % p == 0:
                continue
            want = _matrix_rho_bound(build_level(p, m, a, 40), twists)
            for prec in (2, 3, 5, 40):
                try:
                    L = build_level(p, m, a, prec)
                except DomainError:     # a^(p-1) = 1 to working precision
                    continue
                assert rho_bound(L, twists) == want, (a, prec)

    def test_zero_twist_rejected(self, level_m2):
        with pytest.raises(UsageError):
            rho_bound(level_m2, [0, 1])
        # wherever 0 stands in the list
        with pytest.raises(UsageError):
            rho_bound(build_level(3, 3, 2, 2), [3, 0])

    def test_empty_twist_list_rejected(self, level_m2):
        with pytest.raises(UsageError):
            rho_bound(level_m2, [])

    def test_exponent_is_exact_at_low_precision(self):
        # v_3(4^3 - 1) = 2 is exact from the integer, S_3 = 1
        assert rho_bound(build_level(3, 1, 4, 2), [1, 2, 3]).per_n == {1: 1, 2: 1, 3: 2}
        # a^(|n| r) = 1 mod 3^5 for n = -9 (r = 18), and S_3 = 0 mod 3^2 at
        # level 3 with a = 2: the exponents at precisions 2 and 5 are those at 40
        high = rho_bound(build_level(3, 3, 2, 40), symmetric_range(10))
        for prec in (2, 5):
            assert rho_bound(build_level(3, 3, 2, prec), symmetric_range(10)) == high
        assert high.delta == 3


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
        assert gj_rank(T.matrix) == T.size

    @pytest.mark.parametrize("p,m,a", BENCH_LEVELS)
    def test_rho_sigma_identity(self, p, m, a):
        # rho_n inverts chi^n sigma - 1, so chi^n rho_n sigma = 1 + rho_n:
        # contraction_report reads the blocks of rho M off rho_n alone
        L = build_level(p, m, a, 40)
        zero = S.zero(p, 40)
        sigma = _field_sigma(p, m, a, 40)
        for n in range(1, 5):
            rho = _scalar_rows(L.rho(n), p)
            rho_sigma = _seq_mat_mul(rho, sigma, zero)
            diffs = [L.chi ** n * x - y - int(i == j)
                     for i, (rx, ry) in enumerate(zip(rho_sigma, rho))
                     for j, (x, y) in enumerate(zip(rx, ry))]
            assert all(z.is_zero() and z.prec >= 30 for z in diffs), n

    @pytest.mark.parametrize("p,m,a,prec,e,trunc", [
        *((p, m, a, 40, Fraction(1, p), 4) for p, m, a in BENCH_LEVELS),
        (3, 2, 10, 60, Fraction(1), 8), (2, 3, 3, 6, Fraction(1, 2), 4),
        (3, 3, 4, 3, Fraction(1, 3), 4)])
    def test_rho_blocks_match_gauss_jordan(self, p, m, a, prec, e, trunc):
        # rho_n agrees with the Gauss-Jordan inverse of the precision-40 block
        # on every digit, at the full precision prec, and is nowhere less
        # precise than Gauss-Jordan at the level's own precision
        L = build_level(p, m, a, prec)
        g_minus_one(L, S.from_fraction(e, p, prec), trunc)     # reads the level's rho_n
        L40 = build_level(p, m, a, 40)
        for n in range(1, trunc + 1):
            want = gj_invert(_field_block(L40, n), S.one(p, 40), S.zero(p, 40))
            rho = _scalar_rows(L.rho(n), p)
            assert all((x - y).is_zero() and x.prec == prec
                       for rx, ry in zip(rho, want) for x, y in zip(rx, ry)), n
            try:
                same = gj_invert(_field_block(L, n), S.one(p, prec), S.zero(p, prec))
            except PrecisionError:      # no pivot at this precision
                continue
            assert all(x.prec >= y.prec for rx, ry in zip(rho, same) for x, y in zip(rx, ry)), n

    def test_contraction_certificate(self, dense_case):
        T, _rho, rho_m, powers = dense_case
        con = T.contraction_report()
        assert con["nilpotent"]
        assert con["sup_norm_exponent"] == _norm(rho_m) == powers[0]
        assert T.strict_upper_norm_exponent() == con["sup_norm_exponent"]
        zero = S.zero(T.level.p, T.level.prec)
        assert con["power_exponents"] == _dense_power_exponents(rho_m, zero) == powers

    def test_single_block_has_no_strict_part(self):
        # rho M is zero: no power is listed and the exponent is -prec
        T = g_minus_one(build_level(3, 1, 4, 40), S.from_int(1, 3, 40), 1)
        con = T.contraction_report()
        assert con["nilpotent"] and con["power_exponents"] == []
        assert con["sup_norm_exponent"] == -40

    def test_kernel_trivial(self, dense_case):
        # the dense rank is the oracle for the zero nullity of the block structure
        T = dense_case[0]
        assert gj_rank(T.matrix) == T.size


class TestNeumann:
    def test_zero_rhs(self, operator):
        res = neumann_invert(operator, [S.zero(3, 60)] * operator.size)
        assert all(x.is_zero() for x in res["solution"])

    def test_round_trip(self, operator):
        rng = random.Random(1)
        x = [S.from_int(rng.randrange(-100, 100), 3, 60)
             for _ in range(operator.size)]
        rhs = _seq_mat_vec(operator.matrix, x, S.zero(3, 60))
        res = neumann_invert(operator, rhs)
        assert all((a - b).is_zero() for a, b in zip(res["solution"], x))

    def test_matches_dense_solve(self, dense_case):
        T, rho, rho_m, _powers = dense_case
        p, prec = T.level.p, T.level.prec
        rng = random.Random(2)
        rhs = [S.from_int(rng.randrange(-3 ** 8, 3 ** 8), p, prec) for _ in range(T.size)]
        res = neumann_invert(T, rhs)
        direct = dense_solve(T, rhs)
        dense = _dense_neumann(T, rho, rho_m, rhs)
        assert all((a - b).is_zero() for a, b in zip(res["solution"], direct))
        assert all((a - b).is_zero() for a, b in zip(res["solution"], dense))
        assert all(a.prec >= b.prec for a, b in zip(res["solution"], dense))
        assert res["sup_norm_exponent"] == _norm(rho_m)
        assert min((a - b).val_bound() for a, b in zip(res["solution"], direct)) >= prec - 14
        assert res["residual_valuation"] >= prec - 14

    def test_contraction_requirement_holds_for_negative_v_e(self, level_m2):
        # truncation 2 leaves one strict block, n = 1, whose entries
        # chi y / (chi - 1) have valuation -v_p(1) - v(1/3) = 1: rho M contracts
        T = g_minus_one(level_m2, S.from_fraction(Fraction(1, 3), 3, 60), 2)
        assert T.strict_upper_norm_exponent() == -1
        rhs = [S.from_int(k + 1, 3, 60) for k in range(T.size)]
        res = neumann_invert(T, rhs)
        assert res["sup_norm_exponent"] == -1
        direct = dense_solve(T, rhs)
        assert all((a - b).is_zero() and (a - b).val_bound() >= 50
                   for a, b in zip(res["solution"], direct))
        assert res["residual_valuation"] >= 50

    def test_size_mismatch(self, operator):
        with pytest.raises(UsageError):
            neumann_invert(operator, [S.one(3, 60)])

    @pytest.mark.parametrize("rhs_kind", ["integer", "mixed"])
    @pytest.mark.parametrize("name", sorted(RESIDUAL_CASES))
    def test_block_residual_matches_dense(self, name, rhs_kind):
        # block row n of the residual, D_n x_n + sigma(sum_k coef[n][k] x_{n+k})
        # - rhs_n, has the least valuation bound of the dense residual
        (p, m, a, prec), e, trunc = RESIDUAL_CASES[name]
        T = g_minus_one(build_level(p, m, a, prec), S.from_fraction(e, p, prec), trunc)
        rng = random.Random(name + rhs_kind)
        if rhs_kind == "integer":
            rhs = [S.from_int(rng.randrange(-3 ** 10, 3 ** 10), p, prec) for _ in range(T.size)]
        else:
            rhs = [S.from_residue(p, rng.randrange(-3 ** 10, 3 ** 10), rng.randrange(prec - 12,
                                                                                  prec + 1),
                                  rng.randrange(-2, 3)) for _ in range(T.size)]
        res = neumann_invert(T, rhs)
        dense = [u - v for u, v in zip(_seq_mat_vec(T.matrix, res["solution"],
                                                      S.zero(p, prec)), rhs)]
        assert res["residual_valuation"] == min(u.val_bound() for u in dense)

    def test_dense_matrix_is_built_only_when_read(self):
        T = g_minus_one(build_level(3, 2, 10, 40), S.one(3, 40), 4)
        T.contraction_report()
        neumann_invert(T, [S.from_int(k, 3, 40) for k in range(T.size)])
        assert "matrix" not in vars(T)
        assert len(T.matrix) == T.size and "matrix" in vars(T)


# the benchmark levels and levels over Q_2 (degrees 1 and 2), Q_5 and Q_7
ORACLE_LEVELS = [*BENCH_LEVELS, (2, 1, 3), (2, 2, 3), (5, 1, 2), (7, 1, 8)]


def _report_triples(rep):
    return {key: _triples(val) if key == "solution" else val for key, val in rep.items()}


def _integer_and_scalar_routes(level_key, prec, e, trunc, seed):
    """The integer route and the PadicScalar route on one operator: matrix,
    contraction report and a Neumann solve of a mixed right-hand side, each
    entry as (val, unit, prec), or the error each route raises."""
    p = level_key[0]
    try:
        T = g_minus_one(build_level(*level_key, prec), S.from_fraction(e, p, prec), trunc)
    except (DomainError, PrecisionError):       # v(y) < 1, or k! zero to precision
        return None
    oracle = _ScalarRoute(T)
    rhs = _mixed_rhs(p, prec, T.size, random.Random(seed))
    got, want = [], []
    for route, fns in ((got, (lambda: T.matrix, T.contraction_report, neumann_invert)),
                       (want, (oracle.matrix, oracle.contraction_report,
                               oracle.neumann_invert))):
        matrix, report, solve = fns
        route.append([_triples(row) for row in matrix()])
        route.append(_outcome(report))
        solved = _outcome(solve, *([T, rhs] if solve is neumann_invert else [rhs]))
        route.append(_report_triples(solved) if isinstance(solved, dict) else solved)
    return got, want


class TestIntegerBlocks:
    """sigma, D_n, rho_n and the powers of rho M as integer blocks give every
    entry the (val, unit, prec) of the PadicScalar route they replaced."""

    @settings(max_examples=50)
    @given(st.sampled_from(ORACLE_LEVELS), st.sampled_from([3, 8, 40]),
           st.booleans(), st.integers(1, 8), st.integers(0, 2 ** 32))
    def test_matches_the_scalar_route(self, level_key, prec, e_is_one, trunc, seed):
        e = Fraction(1) if e_is_one else Fraction(1, level_key[0])
        routes = _integer_and_scalar_routes(level_key, prec, e, trunc, seed)
        if routes is not None:
            got, want = routes
            assert got == want

    @settings(max_examples=200)
    @given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 12), st.integers(0, 2 ** 32))
    def test_kernels_follow_the_padic_rules(self, p, r, k, c, cap, seed):
        # each block kernel against the PadicScalar operation it stands for,
        # on entries of mixed valuation and precision, zeros among them
        rng = random.Random(seed)

        def scalar():
            prec = rng.randrange(-2, 13)
            if rng.random() < 0.25:
                return S.zero(p, prec)
            return S.from_residue(p, rng.randrange(1, p ** 8), prec, rng.randrange(-3, 5))

        def matrix(rows, cols):
            return [[scalar() for _ in range(cols)] for _ in range(rows)]

        def block(rows):
            flat = [x for row in rows for x in row]
            shift = min(x.val for x in flat)
            return gamma._Block(shift, len(rows[0]), [x.unit * p ** (x.val - shift) for x in flat],
                                [x.val for x in flat], [x.prec for x in flat])

        def triples(blk):
            return [_triples(row) for row in _scalar_rows(blk, p)]

        a, b, b2 = matrix(r, k), matrix(k, c), matrix(k, c)
        c1, c2 = scalar(), scalar()
        zero = S.zero(p, cap)
        assert triples(gamma._product(p, block(a), block(b), cap)) == \
            [_triples(row) for row in _seq_mat_mul(a, b, zero)]
        assert triples(gamma._scaled(p, block(b), c1)) == \
            [[(x.val, x.unit, x.prec) for x in (c1 * y for y in row)] for row in b]
        assert triples(gamma._difference(p, block(b), block(b2))) == \
            [_triples([x - y for x, y in zip(rx, ry)]) for rx, ry in zip(b, b2)]
        assert triples(gamma._combination(p, [(c1, block(b)), (c2, block(b2))])) == \
            [_triples([_seq_dot([c2], [y], c1 * x) for x, y in zip(rx, ry)])
             for rx, ry in zip(b, b2)]
        assert triples(gamma._combination(p, [(c1, block(b)), (c2, block(b2))], cap)) == \
            [_triples([_seq_dot([c1, c2], [x, y], zero) for x, y in zip(rx, ry)])
             for rx, ry in zip(b, b2)]

    @pytest.mark.parametrize("p,m,a,e,trunc", [
        (3, 1, 2, Fraction(1, 3), 8), (3, 2, 2, Fraction(1, 3), 8),
        (3, 2, 10, Fraction(1), 8), (3, 3, 2, Fraction(1, 3), 8),
        (5, 2, 2, Fraction(1, 5), 8), (2, 2, 3, Fraction(1), 8), (7, 1, 8, Fraction(1, 7), 8)])
    def test_matches_the_scalar_route_at_full_truncation(self, p, m, a, e, trunc):
        got, want = _integer_and_scalar_routes((p, m, a), 40, e, trunc, p * m * a)
        assert got == want

    def test_blocks_are_built_on_first_read(self):
        # build_level and g_minus_one build no block; each is built once, on
        # first read, and then shared
        L = build_level(3, 2, 2, 40)
        assert set(vars(L)) == {"p", "m", "a", "prec", "chi"}
        T = g_minus_one(L, S.from_fraction(Fraction(1, 3), 3, 40), 4)
        assert set(vars(L)) == {"p", "m", "a", "prec", "chi"}
        T.contraction_report()
        assert "sigma" not in vars(L) and L.rho(1) is L.rho(1)
        neumann_invert(T, [S.from_int(k, 3, 40) for k in range(T.size)])
        assert "sigma" in vars(L) and L.diagonal(2) is L.diagonal(2)

    def test_blocks_are_immutable(self):
        L = build_level(3, 1, 2, 40)
        T = g_minus_one(L, S.from_fraction(Fraction(1, 3), 3, 40), 3)
        for blk in (L.sigma, L.diagonal(1), L.rho(1), L.rho_sigma(1)):
            assert all(isinstance(field, tuple) for field in blk[2:])
            with pytest.raises(TypeError):
                blk.xs[0] = 0
            with pytest.raises(AttributeError):
                blk.shift = 0
        # what an operator hands out is made from the blocks for the caller:
        # changing it leaves the blocks as they were
        rhs = [S.from_int(k + 1, 3, 40) for k in range(T.size)]
        matrix, solution = [_triples(row) for row in T.matrix], neumann_invert(T, rhs)["solution"]
        want = _triples(solution)
        T.matrix[0][0] = S.zero(3, 40)
        T.matrix[0][1].unit += 1
        solution[0].unit += 1
        again = g_minus_one(L, S.from_fraction(Fraction(1, 3), 3, 40), 3)
        assert [_triples(row) for row in again.matrix] == matrix
        assert _triples(neumann_invert(again, rhs)["solution"]) == want

    @pytest.mark.parametrize("p,m,a", [(3, 2, 2), (3, 2, 10), (2, 2, 3)])
    def test_shared_level_matches_fresh_levels(self, p, m, a):
        # operators at two (e, truncation) on one level read its cached blocks
        # and give what each gives on a level of its own
        shared = build_level(p, m, a, 40)
        for e, trunc in ((Fraction(1, p), 6), (Fraction(1) if (a - 1) % p == 0
                                                 else Fraction(1, p ** 2), 3)):
            fresh = build_level(p, m, a, 40)
            results = []
            for level in (shared, fresh):
                T = g_minus_one(level, S.from_fraction(e, p, 40), trunc)
                rhs = _mixed_rhs(p, 40, T.size, random.Random(trunc))
                results.append(([_triples(row) for row in T.matrix], T.contraction_report(),
                                _report_triples(neumann_invert(T, rhs))))
            assert results[0] == results[1], (e, trunc)


class TestCoactionScalars:
    """coef[n][k] = chi^n y^k / k! is the G^# coaction a -> a (1 + e b) + b at
    b = y, since 1 + e y = chi: degree n of the coaction of a^(n+k)/(n+k)! is
    (1 + e y)^n y^k / k!."""

    @pytest.mark.parametrize("p,m,a,e,trunc", [
        (3, 1, 2, Fraction(1, 3), 8), (3, 2, 2, Fraction(1, 3), 4),
        (3, 2, 10, Fraction(1), 4), (3, 1, 4, Fraction(1, 3), 5), (5, 1, 6, Fraction(1), 3)])
    def test_coef_is_the_scalar_chain(self, p, m, a, e, trunc):
        # y^k/k! one PadicScalar product and division at a time, the chain
        # padic.power_sequence replaced, times chi^n
        level = build_level(p, m, a, 30)
        T = g_minus_one(level, S.from_fraction(e, p, 30), trunc + 20)
        chain = [S.one(p, 30)]
        for k in range(1, trunc + 20):
            chain.append(chain[-1] * T.y / S.from_int(k, p, 30))
        for n in range(1, trunc + 21):
            chi_n = level.chi ** n
            assert _triples(T.coef[n]) == _triples(chi_n * c for c in chain[:trunc + 21 - n])

    @pytest.mark.parametrize("p,m,a,e,trunc", [
        (3, 1, 2, Fraction(1, 3), 8), (3, 2, 2, Fraction(1, 3), 4),
        (3, 2, 10, Fraction(1), 4), (3, 1, 4, Fraction(1, 3), 5), (5, 1, 6, Fraction(1), 3)])
    def test_coef_is_the_coaction_at_y(self, p, m, a, e, trunc):
        prec = 30
        T = g_minus_one(build_level(p, m, a, prec), S.from_fraction(e, p, prec), trunc)
        K = qp_field(p, prec)
        e_K, y_K = K.from_scalar(T.e), K.from_scalar(T.y)
        assert (K.one() + e_K * y_K - K.from_scalar(T.level.chi)).is_zero()
        for n in range(1, trunc + 1):
            for k in range(trunc - n + 1):
                f = DPSeries(K, [K.zero()] * (n + k) + [K.one()], e=e_K)
                got = coaction(f, y_K).coeffs[n].coordinates()[0]
                want = T.coef[n][k]
                assert (got - want).is_zero() and min(got.prec, want.prec) >= prec - 10, (n, k)
