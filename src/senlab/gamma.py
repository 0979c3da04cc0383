"""Finite-level model of the twisted cyclotomic action over Q_p.

Level m is K_m = Q_p(zeta_{p^m}) with the automorphism sigma_a : z -> z^a and
character value chi = a.  A level holds the integers p, m, a and prec alone:
sigma_a permutes the zeta^i, sigma_a(zeta^i) = zeta^(i a), so sigma is the
one-term orbit sum of that permutation moved to the basis u^k, u = zeta - 1,
built on first read, and no field is built.  On the truncated module
D_N = sum_{n=1}^N K_m a^n/n! the twisted action g(a) = chi a + y, with
y = (chi - 1)/e, is the block upper-triangular Q_p-matrix

    block (n, n+k) = chi^n (y^k / k!) sigma      (k >= 1),
    block (n, n)   = chi^n sigma - 1,

whose diagonal blocks are invertible.  sigma has the finite order r of a mod
p^m, and their inverses rho_n have the one closed form (chi^(nr) - 1)^-1 S_n,
S_n = sum_{j<r} chi^(nj) sigma^j an integer orbit sum on the zeta^i, as
sigma^j(zeta^i) = zeta^(i a^j).  The same orbit sums give the finite-level
Tate bound delta (rho_bound) and rho_n itself, moved to the basis u^k and
divided by the exact integer a^(nr) - 1, so no block is singular to working
precision.  With M the strict upper part, block (n, n+k) of rho M is
chi^n (y^k / k!) rho_n sigma, and since chi^n rho_n sigma = 1 + rho_n it is
(y^k / k!) (1 + rho_n).  rho M is nilpotent by its structure, its sup-norm has
one route (strict_upper_norm_exponent), one block back-substitution pass,
the terminating Neumann sum, inverts g - 1, and the nullity of g - 1 is zero
by the block structure.  The operator is kept in blocks: D_n = chi^n sigma - 1,
coef[n][k] = chi^n y^k / k! and sigma.  The pass checks its solution one block
row at a time, D_n x_n + sigma(sum_k coef[n][k] x_{n+k}) - rhs_n, and the dense
Q_p matrix is assembled only when it is read (dense_solve and the oracles).
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .errors import ConvergenceError, DomainError, UsageError
from .padic import DEFAULT_PRECISION, PadicScalar, dot, require_prime, vp_int

class CyclotomicLevel:
    """Validated level Q_p(zeta_{p^m}): the integers p, m, a, prec and chi = a;
    sigma, the one-term orbit sum zeta^i -> zeta^(i a), is built on first read."""

    def __init__(self, p, m, a, prec):
        self.p = p
        self.m = m
        self.a = a
        self.prec = prec
        self.chi = PadicScalar.from_int(a, p, prec)     # value of the character

    @property
    def degree(self):
        return self.p ** self.m - self.p ** (self.m - 1)

    @functools.cached_property
    def sigma(self):
        """sigma_a on the basis u^k, u = zeta - 1: the columns zeta^(i a), i < d,
        moved to the u^k, as a degree x degree PadicScalar matrix."""
        mod = self.p ** self.prec
        rows = _on_u_basis([_orbit_sum(self, 1, 0, i * self.a, mod)
                            for i in range(self.degree)])
        return [[PadicScalar.from_residue(self.p, x, self.prec) for x in row] for row in rows]

    def __repr__(self):
        return f"CyclotomicLevel(p={self.p}, m={self.m}, a={self.a})"


def build_level(p: int, m: int, a: int, prec: int = DEFAULT_PRECISION) -> CyclotomicLevel:
    """Validate the level.  Nothing is built: sigma, the one-term orbit sum
    on the u^k, is built on first read, and the Tate bound never reads it.

    Rejects gcd(a, p) > 1 and generators whose character is trivial (a = 1,
    or a a torsion unit so that a^(p-1) = 1 to working precision).  A with
    a = 1 mod p^m is allowed: sigma_a is then trivial on the finite level
    while chi = a still twists the action.
    """
    require_prime(p)
    if prec < 1:
        raise UsageError("precision must be >= 1")
    if m < 1:
        raise UsageError("level m must be >= 1")
    if math.gcd(a, p) != 1 or a <= 0:
        raise UsageError("generator a must be a positive integer prime to p")
    if a == 1:
        raise DomainError("a = 1 gives the trivial character; nothing to invert",
                          concept="twisted action nondegeneracy")
    proj = pow(a, p - 1, p ** prec)
    if proj == 1:
        raise DomainError(
            "a^(p-1) = 1 to working precision: the character has trivial "
            "image in 1 + pZ_p", concept="twisted action nondegeneracy")
    return CyclotomicLevel(p, m, a, prec)


# ---------------------------------------------------------------------------
# Tate bounds
# ---------------------------------------------------------------------------

class RhoReport(NamedTuple):
    per_n: dict                     # {n: Fraction exponent}
    delta: Fraction


def _diagonal_block(level: CyclotomicLevel, n: int):
    """chi^n sigma - 1 as a Q_p matrix."""
    scale = level.chi ** n
    return [[x * scale - 1 if i == j else x * scale for j, x in enumerate(row)]
            for i, row in enumerate(level.sigma)]


def _norm_exponent(blocks) -> Fraction:
    """sup-norm exponent of a matrix given by its blocks: minus the smallest
    entry valuation bound."""
    return Fraction(-min(x.val_bound() for blk in blocks for row in blk for x in row))


def _order(a: int, pm: int) -> int:
    """The order r of a mod p^m, that of sigma."""
    return next(r for r in range(1, pm) if pow(a, r, pm) == 1)


def _orbit_sum(level: CyclotomicLevel, r: int, n: int, i: int, mod: int):
    """Coordinates on the zeta^k, k < d, of S_n zeta^i = sum_{j<r} a^(nj)
    zeta^(i a^j) modulo mod.  As zeta^(d+k) = -sum_{l<p-1} zeta^(k+lq),
    q = p^(m-1), coordinate k of sum_t c[t] zeta^t is c[k] - c[d + k mod q]."""
    pm, q = level.p ** level.m, level.p ** (level.m - 1)
    d, a = pm - q, level.a
    c = [0] * pm
    t, w, step = i % pm, 1, pow(a, n, mod)
    for _ in range(r):
        c[t] += w
        t, w = t * a % pm, w * step % mod
    return [(c[k] - c[d + k % q]) % mod for k in range(d)]


def rho_bound(level: CyclotomicLevel, n_values) -> RhoReport:
    """Norm exponents of (chi^n sigma - 1)^-1 = (chi^(nr) - 1)^-1 S_n, r the
    order of a mod p^m: v - v_p(content of S_n), v = v_p(a^(|n|r) - 1), which
    is at least m.  The zeta^i span Z_p[zeta], the content is basis-free and S_n
    commutes with the unit sigma, so one i per orbit of a suffices.  As
    rho_n (chi^n sigma - 1) = 1 with chi^n sigma - 1 integral, |rho_n| >= 1:
    the content divides p^v, and the orbit sums modulo p^v give it
    exactly, whatever the working precision."""
    n_values = list(n_values)
    if 0 in n_values:
        raise UsageError("n = 0 is the untwisted block; it is not invertible")
    if not n_values:
        raise UsageError("empty twist list: nothing to bound")
    p, a, pm = level.p, level.a, level.p ** level.m
    r = _order(a, pm)
    reps, seen = [], set()
    for i in range(pm):
        if i not in seen:
            reps.append(i)
            seen.update(i * pow(a, j, pm) % pm for j in range(r))
    per_n = {}
    for n in n_values:
        v = _vp_power_minus_one(a, abs(n) * r, p, level.m + 1)
        mod = p ** v
        content = math.gcd(mod, *(y for i in reps for y in _orbit_sum(level, r, n, i, mod)))
        per_n[n] = Fraction(v - vp_int(content, p))
    return RhoReport(per_n, max(per_n.values()))


def _block_inverse(level: CyclotomicLevel, r: int, n: int):
    """rho_n = (a^(nr) - 1)^-1 S_n on the basis u^k, to absolute precision
    prec: the S_n zeta^i, i < d, modulo p^(prec+v), v = v_p(a^(nr) - 1), moved
    to the u^k, then over the exact integer a^(nr) - 1."""
    p, d, prec = level.p, level.degree, level.prec
    v = _vp_power_minus_one(level.a, n * r, p, level.m + 1)
    mod = p ** (prec + v)
    unit = (pow(level.a, n * r, p ** (prec + 2 * v)) - 1) // p ** v
    scale = pow(unit, -1, mod)
    rows = _on_u_basis([_orbit_sum(level, r, n, i, mod) for i in range(d)])
    return [[PadicScalar.from_residue(p, scale * x, prec, -v) for x in row] for row in rows]


def _on_u_basis(zeta_cols):
    """The integer matrix, on the basis u^k, u = zeta - 1, of the map sending
    zeta^i to zeta_cols[i] (coordinates on the zeta^k): by
    u^t = sum_i C(t, i) (-1)^(t-i) zeta^i and zeta^k = sum_s C(k, s) u^s."""
    u_to_zeta, zeta_to_u = _binomials(len(zeta_cols))
    zeta_rows = list(zip(*zeta_cols))
    u_cols = [[sum(map(operator.mul, b, row)) for row in zeta_rows] for b in u_to_zeta]
    return [[sum(map(operator.mul, b, col)) for col in u_cols] for b in zeta_to_u]


@functools.lru_cache(maxsize=8)
def _binomials(d: int):
    """The rows C(t, i) (-1)^(t-i), i <= t, and C(k, s) of the two d x d
    changes of basis between the zeta^i and the u^k, as shared tuples."""
    return (tuple(tuple(math.comb(t, i) * (-1) ** (t - i) for i in range(t + 1))
                  for t in range(d)),
            tuple(tuple(math.comb(k, s) for k in range(d)) for s in range(d)))


def _vp_power_minus_one(a: int, e: int, p: int, k: int) -> int:
    """v_p(a^e - 1) for a^e != 1, read mod p^k, p^2k, ... until it is nonzero."""
    while True:
        mod = p ** k
        x = (pow(a, e, mod) - 1) % mod
        if x:
            return vp_int(x, p)
        k *= 2


def symmetric_range(n_max: int):
    """[-n_max, n_max] with 0 removed."""
    return [n for n in range(-n_max, n_max + 1) if n != 0]


# ---------------------------------------------------------------------------
# the twisted operator on D_N
# ---------------------------------------------------------------------------

class TwistedOperator:
    """(g - 1) on D_N in block form: `diag_blocks[n]` is the diagonal block
    D_n = chi^n sigma - 1, `rho_blocks[n]` inverts it to the full precision
    prec (the closed form over a^(nr) - 1), and `coef[n][k]` = chi^n y^k / k!,
    so block (n, n+k) is coef[n][k] sigma and that of rho M is
    coef[n][k] rho_n sigma.  `matrix`, the operator as one dense Q_p matrix,
    is assembled from these blocks when it is first read."""

    def __init__(self, level, e, trunc, y, diag_blocks, rho_blocks, coef):
        self.level = level
        self.e = e
        self.trunc = trunc
        self.y = y
        self.diag_blocks = diag_blocks  # {n: d x d block chi^n sigma - 1}
        self.rho_blocks = rho_blocks    # {n: d x d inverse rho_n}
        self.coef = coef                # {n: [chi^n y^k / k! for k <= trunc - n]}

    @property
    def size(self):
        return self.trunc * self.level.degree

    @functools.cached_property
    def matrix(self):
        """The size x size operator, D_n at block (n, n), coef[n][k] sigma at (n, n+k)."""
        d, sigma = self.level.degree, self.level.sigma
        zero = PadicScalar.zero(self.level.p, self.level.prec)
        mat = []
        for n in range(1, self.trunc + 1):
            row = [self.diag_blocks[n]] + [[[x * c for x in srow] for srow in sigma]
                                           for c in self.coef[n][1:]]
            mat.extend([zero] * (n - 1) * d + [x for blk in row for x in blk[i]]
                       for i in range(d))
        return mat

    def _sigma_tail(self, n, later):
        """sigma(sum_{k>=1} coef[n][k] x_{n+k}) for later = x_{n+1}, x_{n+2},
        ... flattened, whose coordinate i is later[i::d]."""
        d, zero = self.level.degree, PadicScalar.zero(self.level.p, self.level.prec)
        tail = [dot(self.coef[n][1:], later[i::d], zero) for i in range(d)]
        return linalg.mat_vec(self.level.sigma, tail, zero)

    def strict_upper_norm_exponent(self) -> Fraction:
        """Sup-norm exponent of rho M: sigma is in GL_d(Z_p), so block (n, n+k)
        has norm |coef[n][k]| |rho_n|; -prec with no strict block (trunc = 1)."""
        return max((_norm_exponent([self.rho_blocks[n]])
                    - min(c.val_bound() for c in self.coef[n][1:])
                    for n in range(1, self.trunc)), default=Fraction(-self.level.prec))

    def contraction_report(self):
        """Certify nilpotence of rho M from its block structure.

        rho_n inverts chi^n sigma - 1, so chi^n rho_n sigma = 1 + rho_n and
        block (n, n+k) of rho M is coef[n][k] chi^-n (1 + rho_n), with no
        sigma in it.  Block (n, l) of the j-th power vanishes unless l - n >= j;
        each nonzero block of the next power is one product
        rho_n sigma * sum_m coef[n][m - n] P(m, l), whose entries are each one
        padic.dot over the m, in ascending order.  The report lists the
        sup-norm exponent of every nonzero power and that of rho M, read off
        strict_upper_norm_exponent.
        """
        zero = PadicScalar.zero(self.level.p, self.level.prec)
        rho_sigma, rho_m = {}, {}
        for n in range(1, self.trunc):
            inv = self.level.chi ** -n
            rho_sigma[n] = [[(x + 1 if i == j else x) * inv for j, x in enumerate(row)]
                            for i, row in enumerate(self.rho_blocks[n])]
            for k in range(1, self.trunc - n + 1):
                rho_m[(n, n + k)] = linalg.mat_scale(rho_sigma[n], self.coef[n][k])
        rho_m = _nonzero(rho_m)
        exps, power = [], rho_m
        while power:                # every product raises l - n by one
            exps.append(_norm_exponent(power.values()))
            terms = {}
            for n, m in rho_m:
                for s, l in power:
                    if s == m:
                        terms.setdefault((n, l), []).append((self.coef[n][m - n], power[m, l]))
            sums = {}
            for key, ((c, first), *rest) in terms.items():
                # started at the first term: a zero start would cut entries to prec
                coefs = [c for c, _ in rest]
                sums[key] = [[dot(coefs, [blk[i][j] for _, blk in rest], c * x)
                              for j, x in enumerate(row)] for i, row in enumerate(first)]
            power = _nonzero({(n, l): linalg.mat_mul(rho_sigma[n], blk, zero)
                              for (n, l), blk in sums.items()})
        return {"sup_norm_exponent": self.strict_upper_norm_exponent(),
                "power_exponents": exps, "nilpotent": len(exps) < self.trunc}


def _nonzero(blocks):
    return {key: blk for key, blk in blocks.items()
            if any(not x.is_zero() for row in blk for x in row)}


def g_minus_one(level: CyclotomicLevel, e: PadicScalar, trunc: int) -> TwistedOperator:
    """Assemble (g - 1), the inverses rho_n of its diagonal blocks and the scalars."""
    if isinstance(e, int):
        e = PadicScalar.from_int(e, level.p, level.prec)
    if e.is_zero():
        raise UsageError("the twist parameter e must be nonzero")
    if trunc < 1:
        raise UsageError("truncation must be >= 1")
    y = (level.chi - PadicScalar.one(level.p, level.prec)) / e
    if y.is_zero() or y.val < 1:
        raise DomainError(
            "need v(y) >= 1 for y = (chi - 1)/e; got v(y) = %s"
            % (y.val if not y.is_zero() else ">= %d" % y.prec),
            concept="normalization y in pO_K")
    y_over_fact = [PadicScalar.one(level.p, level.prec)]
    for k in range(1, trunc):
        y_over_fact.append(y_over_fact[-1] * y / PadicScalar.from_int(k, level.p, level.prec))
    coef, diag_blocks, rho_blocks = {}, {}, {}
    r = _order(level.a, level.p ** level.m)
    for n in range(1, trunc + 1):
        chi_n = level.chi ** n
        coef[n] = [chi_n * c for c in y_over_fact[:trunc - n + 1]]
        diag_blocks[n] = _diagonal_block(level, n)
        rho_blocks[n] = _block_inverse(level, r, n)
    return TwistedOperator(level, e, trunc, y, diag_blocks, rho_blocks, coef)


def neumann_invert(T: TwistedOperator, rhs):
    """Solve (g - 1) x = rhs by one block back-substitution pass.

    x_n = rho_n (rhs_n - sigma sum_k coef[n][k] x_{n+k}) for n = trunc..1 is
    exactly the terminating Neumann sum sum_k (-rho M)^k rho rhs, whatever
    the entrywise sup-norm of rho M, which is reported beside the residual
    (g - 1) x - rhs.  Block row n of the residual is
    D_n x_n + sigma(sum_k coef[n][k] x_{n+k}) - rhs_n, recomputed from the
    diagonal block, coef and sigma, so it checks rho_n against D_n.
    """
    d = T.level.degree
    if len(rhs) != T.size:
        raise UsageError("right-hand side has size %d; expected %d"
                         % (len(rhs), T.size))
    sup = T.strict_upper_norm_exponent()
    zero = PadicScalar.zero(T.level.p, T.level.prec)
    x = []                          # x_{n+1}, ..., x_trunc, flattened
    for n in range(T.trunc, 0, -1):
        b = rhs[(n - 1) * d: n * d]
        if x:
            b = [u - v for u, v in zip(b, T._sigma_tail(n, x))]
        x = linalg.mat_vec(T.rho_blocks[n], b, zero) + x
    residual = []
    for n in range(1, T.trunc + 1):
        row = linalg.mat_vec(T.diag_blocks[n], x[(n - 1) * d: n * d], zero)
        if n < T.trunc:
            row = [u + v for u, v in zip(row, T._sigma_tail(n, x[n * d:]))]
        residual.extend(u - v for u, v in zip(row, rhs[(n - 1) * d: n * d]))
    res_bound = min(u.val_bound() for u in residual)
    if any(not u.is_zero() for u in residual):
        raise ConvergenceError(
            "Neumann residual is nonzero at valuation %s; |rho M| exponent %s "
            "suggests a smaller y" % (res_bound, sup),
            concept="Neumann contraction bound")
    return {"solution": x, "residual_valuation": res_bound, "sup_norm_exponent": sup}


def dense_solve(T: TwistedOperator, rhs):
    """Direct elimination on the full operator, the oracle route for
    neumann_invert: linalg.solve, integral Gauss-Jordan over Q_p, ignoring the
    block structure."""
    return linalg.solve(T.matrix, list(rhs))
