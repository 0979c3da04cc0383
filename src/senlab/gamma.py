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
by the block structure.

Every matrix of the harness is an integer block (`_Block`): integers, one
valuation shift, and the valuation and precision of each entry, so that each
entry is the (val, unit, prec) the PadicScalar rules give it.  sigma,
D_n = chi^n sigma - 1, rho_n and chi^-n (1 + rho_n) depend on p, m, a, prec
and n alone; each is built once per (level, n), on first read, and cached on
the level as immutable tuples.  The powers of rho M and the back-substitution
with its residual, D_n x_n + sigma(sum_k coef[n][k] x_{n+k}) - rhs_n, run on
these blocks through _product, _combination, _scaled and _difference, the one
route for a sum of products over Q_p: each entry is one integer sum with the
(val, unit, prec) of the sequential PadicScalar sum.  A PadicScalar is made
only for what is returned: the solution, the reports and the dense Q_p
matrix, assembled when it is read (dense_solve and the oracles).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .errors import ConvergenceError, DomainError, UsageError
from .padic import DEFAULT_PRECISION, PadicScalar, power_sequence, require_prime, vp_int


class _Block(NamedTuple):
    """A matrix over Q_p in integers, its entries row by row in flat lists
    (tuples in the blocks a level keeps): entry t is p^shift xs[t], known
    modulo p^precs[t], with xs[t] reduced modulo p^(precs[t] - shift);
    vals[t] is its valuation, or its precision when it is zero to precision,
    as a PadicScalar stores it."""
    shift: int
    ncols: int
    xs: list
    vals: list
    precs: list

    def frozen(self):
        """The block with tuples, which no caller can change, for the blocks
        a level keeps.  Transient blocks keep lists: CPython grows
        tuple(iterator) by resizing, so such a tuple never comes off the
        free list of its final size yet returns there when freed, and those
        lists would fill round after round."""
        return self._replace(xs=tuple(self.xs), vals=tuple(self.vals), precs=tuple(self.precs))


class CyclotomicLevel:
    """Validated level Q_p(zeta_{p^m}): the integers p, m, a, prec and chi = a.
    The order of a mod p^m, its orbit representatives, sigma (the one-term orbit
    sum zeta^i -> zeta^(i a)), and the integer blocks D_n, rho_n, chi^-n (1 + rho_n)
    and the Tate exponent of each twist n are each built on first read, then kept."""

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
    def order(self):
        """The order r of a mod p^m, that of sigma."""
        pm = self.p ** self.m
        return next(r for r in range(1, pm) if pow(self.a, r, pm) == 1)

    @functools.cached_property
    def orbit_reps(self):
        """The least i of each orbit of i -> i a on the integers mod p^m."""
        pm, reps, seen = self.p ** self.m, [], set()
        for i in range(pm):
            if i not in seen:
                reps.append(i)
                seen.update(i * pow(self.a, j, pm) % pm for j in range(self.order))
        return tuple(reps)

    @functools.cached_property
    def sigma(self):
        """sigma_a on the basis u^k, u = zeta - 1: the columns zeta^(i a), i < d,
        moved to the u^k, modulo p^prec."""
        mod = self.p ** self.prec
        rows = _on_u_basis([_orbit_sum(self, 1, 0, i * self.a, mod)
                            for i in range(self.degree)])
        return _uniform(self.p, 0, rows, self.prec).frozen()

    def diagonal(self, n):
        """D_n = chi^n sigma - 1, modulo p^prec."""
        return self._block(_diagonal_block, n)

    def rho(self, n):
        """rho_n = (chi^n sigma - 1)^-1 to absolute precision prec."""
        return self._block(_block_inverse, n)

    def rho_sigma(self, n):
        """chi^-n (1 + rho_n) = rho_n sigma, entry by entry as PadicScalar
        products by chi^-n."""
        return self._block(_rho_sigma_block, n)

    @functools.cached_property
    def _blocks(self):
        return {}

    def _block(self, build, n):
        blocks = self._blocks
        if (build, n) not in blocks:
            blocks[build, n] = build(self, n)
        return blocks[build, n]

    def __repr__(self):
        return f"CyclotomicLevel(p={self.p}, m={self.m}, a={self.a})"


def build_level(p: int, m: int, a: int, prec: int = DEFAULT_PRECISION) -> CyclotomicLevel:
    """Validate the level.  Nothing is built: sigma and the blocks of each
    twist are built on first read, and the Tate bound reads none of them.

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
    """The norm exponents of (chi^n sigma - 1)^-1, each kept on the level, and delta."""
    n_values = list(n_values)
    if 0 in n_values:
        raise UsageError("n = 0 is the untwisted block; it is not invertible")
    if not n_values:
        raise UsageError("empty twist list: nothing to bound")
    per_n = {n: level._block(_tate_exponent, n) for n in n_values}
    return RhoReport(per_n, max(per_n.values()))


def _tate_exponent(level: CyclotomicLevel, n: int) -> Fraction:
    """The norm exponent of (chi^n sigma - 1)^-1 = (chi^(nr) - 1)^-1 S_n, r the
    order of a mod p^m: v - v_p(content of S_n), v = v_p(a^(|n|r) - 1), which
    is at least m.  The zeta^i span Z_p[zeta], the content is basis-free and S_n
    commutes with the unit sigma, so one i per orbit of a suffices.  As
    rho_n (chi^n sigma - 1) = 1 with chi^n sigma - 1 integral, |rho_n| >= 1:
    the content divides p^v, and the orbit sums modulo p^v give it
    exactly, whatever the working precision."""
    p, r, reps = level.p, level.order, level.orbit_reps
    v = _vp_power_minus_one(level.a, abs(n) * r, p, level.m + 1)
    mod = p ** v
    content = math.gcd(mod, *(y for i in reps for y in _orbit_sum(level, r, n, i, mod)))
    return Fraction(v - vp_int(content, p))


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
# integer blocks
# ---------------------------------------------------------------------------

def _reduced(p, shift, xs, precs):
    """Each xs[t] modulo p^(precs[t] - shift), or 0 where precs[t] <= shift,
    with one power of p per distinct modulus."""
    rels = [n - shift if n > shift else 0 for n in precs]
    mods = {k: p ** k for k in set(rels)}
    return list(map(operator.mod, xs, map(mods.__getitem__, rels)))


def _normalised(p, shift, ncols, xs, precs) -> _Block:
    """The block of the entries p^shift xs[t] known modulo p^precs[t], as
    PadicScalar.from_residue makes each: the integer reduced modulo
    p^(precs[t] - shift), its valuation shift + vp_int of the residue, or
    precs[t] for a zero."""
    xs = _reduced(p, shift, xs, precs)
    vals = [shift + vp_int(x, p) if x else n for x, n in zip(xs, precs)]
    return _Block(shift, ncols, xs, vals, list(precs))


def _uniform(p, shift, rows, prec) -> _Block:
    """The block of the integer matrix p^shift rows, every entry known modulo
    p^prec."""
    xs = [x for row in rows for x in row]
    return _normalised(p, shift, len(rows[0]), xs, [prec] * len(xs))


def _column(p, xs) -> _Block:
    """A list of PadicScalars as one column block."""
    if any(x.p != p for x in xs):
        raise UsageError("cannot mix scalars over different primes")
    shift = min(x.val for x in xs)
    return _Block(shift, 1, [x.unit * p ** (x.val - shift) for x in xs],
                  [x.val for x in xs], [x.prec for x in xs])


def _scalars(p, blk: _Block):
    """The entries of the block, row by row, as one list of PadicScalars."""
    shift = blk.shift
    return [PadicScalar(p, v, x // p ** (v - shift), n) if x else PadicScalar.zero(p, n)
            for x, v, n in zip(blk.xs, blk.vals, blk.precs)]


def _rows(blk: _Block, start, stop) -> _Block:
    """Rows start..stop-1 of the block."""
    c = blk.ncols
    return _Block(blk.shift, c, *(m[start * c: stop * c] for m in blk[2:]))


def _diagonal_block(level: CyclotomicLevel, n: int) -> _Block:
    """chi^n sigma - 1: the integers a^n sigma - 1 modulo p^prec."""
    d, scale = level.degree, pow(level.a, n, level.p ** level.prec)
    sigma = level.sigma.xs
    return _uniform(level.p, 0, [[sigma[i * d + j] * scale - (i == j) for j in range(d)]
                                 for i in range(d)], level.prec).frozen()


def _block_inverse(level: CyclotomicLevel, n: int) -> _Block:
    """rho_n = (a^(nr) - 1)^-1 S_n on the basis u^k, to absolute precision
    prec: the S_n zeta^i, i < d, modulo p^(prec+v), v = v_p(a^(nr) - 1), moved
    to the u^k, then over the exact integer a^(nr) - 1, at shift -v."""
    p, d, prec = level.p, level.degree, level.prec
    r = level.order
    v = _vp_power_minus_one(level.a, n * r, p, level.m + 1)
    mod = p ** (prec + v)
    unit = (pow(level.a, n * r, p ** (prec + 2 * v)) - 1) // p ** v
    scale = pow(unit, -1, mod)
    rows = _on_u_basis([_orbit_sum(level, r, n, i, mod) for i in range(d)])
    return _uniform(p, -v, [[scale * x for x in row] for row in rows], prec).frozen()


def _rho_sigma_block(level: CyclotomicLevel, n: int) -> _Block:
    """chi^-n (1 + rho_n): 1 + rho_n modulo p^prec, then each entry times the
    PadicScalar chi^-n, which cuts an entry of valuation w < 0 to precision
    prec + w."""
    p, rho, d = level.p, level.rho(n), level.degree
    one = p ** -rho.shift
    rows = [[rho.xs[i * d + j] + one * (i == j) for j in range(d)] for i in range(d)]
    return _scaled(p, _uniform(p, rho.shift, rows, level.prec), level.chi ** -n).frozen()


def _scaled(p, blk: _Block, c: PadicScalar) -> _Block:
    """c x for each entry x, by PadicScalar.__mul__: valuation v(x) + v(c),
    precision min(N_x + v(c), N_c + v(x)) (v = N for a zero), the product of
    the integers reduced there.  No valuation is recomputed: a product of two
    units is a unit."""
    v, shift = c.val, blk.shift + c.val
    precs = list(map(min, map(operator.add, blk.precs, itertools.repeat(v)),
                      map(operator.add, blk.vals, itertools.repeat(c.prec))))
    xs = _reduced(p, shift, map(operator.mul, blk.xs, itertools.repeat(c.unit)), precs)
    return _Block(shift, blk.ncols, xs, list(map(operator.add, blk.vals, itertools.repeat(v))),
                  precs)


def _difference(p, a: _Block, b: _Block) -> _Block:
    """a - b entry by entry, by PadicScalar.__sub__: the integers subtracted
    at the lesser shift and reduced once at the lesser precision."""
    shift = min(a.shift, b.shift)
    fa, fb = p ** (a.shift - shift), p ** (b.shift - shift)
    return _normalised(p, shift, a.ncols, [x * fa - y * fb for x, y in zip(a.xs, b.xs)],
                       list(map(min, a.precs, b.precs)))


def _combination(p, terms, cap=None) -> _Block:
    """sum_t c_t x_t for (c_t, x_t) in terms, entry by entry the sequential
    PadicScalar sum c_0 x_0 + c_1 x_1 + ..., or that sum started at zero to
    precision cap: precision the least of the min(N_x + v(c), N_c + v(x)) (and
    cap), the integer products summed at the least shift and reduced once."""
    if len(terms) == 1 and cap is None:
        return _scaled(p, terms[0][1], terms[0][0])
    shift = min(blk.shift + c.val for c, blk in terms)
    values = [map(operator.mul, blk.xs,
                  itertools.repeat(c.unit * p ** (blk.shift + c.val - shift)))
              for c, blk in terms]
    precs = [map(min, map(operator.add, blk.precs, itertools.repeat(c.val)),
                 map(operator.add, blk.vals, itertools.repeat(c.prec)))
             for c, blk in terms] + ([itertools.repeat(cap)] if cap is not None else [])
    return _normalised(p, shift, terms[0][1].ncols, list(map(sum, zip(*values))),
                       list(map(min, *precs)))


def _product(p, a: _Block, b: _Block, cap: int) -> _Block:
    """a b, entry (i, j) the sequential PadicScalar sum of row i of a times
    column j of b started at zero to precision cap: precision the least of cap
    and the min(N_x + v(y), N_y + v(x)) of its products, value the integer sum
    sum(map(mul, ...)) reduced once."""
    k, c = a.ncols, b.ncols
    cols, vcols, ncols = ([m[j::c] for j in range(c)] for m in (b.xs, b.vals, b.precs))
    xs, precs = [], []
    for i in range(0, len(a.xs), k):
        row, vrow, nrow = a.xs[i:i + k], a.vals[i:i + k], a.precs[i:i + k]
        xs.extend([sum(map(operator.mul, row, col)) for col in cols])
        precs.extend(map(min, itertools.repeat(cap),
                         [min(map(operator.add, nrow, vcol)) for vcol in vcols],
                         [min(map(operator.add, vrow, ncol)) for ncol in ncols]))
    return _normalised(p, a.shift + b.shift, c, xs, precs)


def _nonzero(blocks):
    return {key: blk for key, blk in blocks.items() if any(blk.xs)}


# ---------------------------------------------------------------------------
# the twisted operator on D_N
# ---------------------------------------------------------------------------

class TwistedOperator:
    """(g - 1) on D_N in block form: the level's integer blocks
    D_n = chi^n sigma - 1 (`level.diagonal(n)`), its inverse rho_n to the
    full precision prec (`level.rho(n)`, the closed form over a^(nr) - 1) and
    chi^-n (1 + rho_n) = rho_n sigma (`level.rho_sigma(n)`), each built once
    per (level, n) and shared by every operator on that level, and the
    scalars `coef[n][k]` = chi^n y^k / k!, so block (n, n+k) is
    coef[n][k] sigma and that of rho M is coef[n][k] rho_n sigma.  `matrix`,
    the operator as one dense Q_p matrix of PadicScalars, is assembled from
    these blocks when it is first read."""

    def __init__(self, level, e, trunc, y, coef):
        self.level = level
        self.e = e
        self.trunc = trunc
        self.y = y
        self.coef = coef                # {n: [chi^n y^k / k! for k <= trunc - n]}

    @property
    def size(self):
        return self.trunc * self.level.degree

    @functools.cached_property
    def matrix(self):
        """The size x size operator, D_n at block (n, n), coef[n][k] sigma at (n, n+k)."""
        level, p = self.level, self.level.p
        d, zero = level.degree, PadicScalar.zero(p, level.prec)
        mat = []
        for n in range(1, self.trunc + 1):
            row = [_scalars(p, blk) for blk in
                   [level.diagonal(n)] + [_scaled(p, level.sigma, c) for c in self.coef[n][1:]]]
            mat.extend([zero] * (n - 1) * d + [x for blk in row for x in blk[i * d:(i + 1) * d]]
                       for i in range(d))
        return mat

    def strict_upper_norm_exponent(self) -> Fraction:
        """Sup-norm exponent of rho M: sigma is in GL_d(Z_p), so block (n, n+k)
        has norm |coef[n][k]| |rho_n|; -prec with no strict block (trunc = 1)."""
        return max((Fraction(-min(self.level.rho(n).vals))
                    - min(c.val_bound() for c in self.coef[n][1:])
                    for n in range(1, self.trunc)), default=Fraction(-self.level.prec))

    def contraction_report(self):
        """Certify nilpotence of rho M from its block structure.

        rho_n inverts chi^n sigma - 1, so chi^n rho_n sigma = 1 + rho_n and
        block (n, n+k) of rho M is coef[n][k] chi^-n (1 + rho_n), with no
        sigma in it.  Block (n, l) of the j-th power vanishes unless l - n >= j;
        each nonzero block of the next power is one product
        rho_n sigma * sum_m coef[n][m - n] P(m, l), the sum taken entry by
        entry as one _combination over the m started at its first product,
        the product as integer blocks.  The report lists the sup-norm exponent
        of every nonzero power and that of rho M, read off
        strict_upper_norm_exponent.
        """
        level, p = self.level, self.level.p
        rho_sigma = {n: level.rho_sigma(n) for n in range(1, self.trunc)}
        rho_m = _nonzero({(n, n + k): _scaled(p, blk, self.coef[n][k])
                          for n, blk in rho_sigma.items()
                          for k in range(1, self.trunc - n + 1)})
        exps, power = [], rho_m
        while power:                # every product raises l - n by one
            exps.append(Fraction(-min(min(blk.vals) for blk in power.values())))
            terms = {}
            for n, m in rho_m:
                for s, l in power:
                    if s == m:
                        terms.setdefault((n, l), []).append((self.coef[n][m - n], power[m, l]))
            power = _nonzero({(n, l): _product(p, rho_sigma[n], _combination(p, pairs),
                                               level.prec)
                              for (n, l), pairs in terms.items()})
        return {"sup_norm_exponent": self.strict_upper_norm_exponent(),
                "power_exponents": exps, "nilpotent": len(exps) < self.trunc}


def g_minus_one(level: CyclotomicLevel, e: PadicScalar, trunc: int) -> TwistedOperator:
    """(g - 1) on the level's blocks, with the scalars chi^n y^k / k!."""
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
    y_over_fact = [PadicScalar.from_residue(level.p, vec[0] if vec else 0, q, s) for vec, s, q
                   in power_sequence(level.p, ([y.unit], y.val, y.prec, y.val), trunc - 1,
                                     level.prec, -1, lambda a, b, m: [a[0] * b[0] % m])]
    coef = {}
    for n in range(1, trunc + 1):
        chi_n = level.chi ** n
        coef[n] = [chi_n * c for c in y_over_fact[:trunc - n + 1]]
    return TwistedOperator(level, e, trunc, y, coef)


def neumann_invert(T: TwistedOperator, rhs):
    """Solve (g - 1) x = rhs by one block back-substitution pass.

    x_n = rho_n b_n, b_n = rhs_n - sigma(sum_k coef[n][k] x_{n+k}), for
    n = trunc..1 is exactly the terminating Neumann sum
    sum_k (-rho M)^k rho rhs, whatever the entrywise sup-norm of rho M, which
    is reported beside the residual (g - 1) x - rhs.  Block row n of the
    residual, D_n x_n + sigma(sum_k coef[n][k] x_{n+k}) - rhs_n = D_n x_n - b_n,
    is recomputed from the diagonal block, so it checks rho_n against D_n; its
    entries have the (val, unit, prec) of that sum taken term by term.  The
    pass runs on integer column blocks, each sum over k one _combination per
    coordinate started at zero to precision prec, and only the solution is
    made into PadicScalars.
    """
    level = T.level
    p, d, prec = level.p, level.degree, level.prec
    if len(rhs) != T.size:
        raise UsageError("right-hand side has size %d; expected %d"
                         % (len(rhs), T.size))
    sup = T.strict_upper_norm_exponent()
    rhs = _column(p, rhs)
    b = {n: _rows(rhs, (n - 1) * d, n * d) for n in range(1, T.trunc + 1)}
    x = {}
    for n in range(T.trunc, 0, -1):
        if n < T.trunc:             # b_n = rhs_n - sigma(sum_k coef[n][k] x_{n+k})
            later = [(c, x[n + k]) for k, c in enumerate(T.coef[n][1:], 1)]
            b[n] = _difference(p, b[n], _product(p, level.sigma, _combination(p, later, prec),
                                                 prec))
        x[n] = _product(p, level.rho(n), b[n], prec)
    residual = [_difference(p, _product(p, level.diagonal(n), x[n], prec), b[n])
                for n in range(1, T.trunc + 1)]
    res_bound = min(min(blk.vals) for blk in residual)
    if any(any(blk.xs) for blk in residual):
        raise ConvergenceError(
            "Neumann residual is nonzero at valuation %s; |rho M| exponent %s "
            "suggests a smaller y" % (res_bound, sup),
            concept="Neumann contraction bound")
    solution = [s for n in range(1, T.trunc + 1) for s in _scalars(p, x[n])]
    return {"solution": solution, "residual_valuation": res_bound, "sup_norm_exponent": sup}


def dense_solve(T: TwistedOperator, rhs):
    """Direct elimination on the full operator, the oracle route for
    neumann_invert: linalg.solve, integral Gauss-Jordan over Q_p, blind to the
    block structure.  It forms each entry once, in Crout order and then row
    by row upward, its value one integer dot product over the multipliers f_k
    that reach it and its precision the min-plus min(N(a), min_k(N(f_k) +
    v(u_kj)), min_k(N(u_kj) + v(f_k))).  That is what one row operation at
    a time gives, as a - f u keeps min(N(a), N(f) + v(u), N(u) + v(f)) (the
    product rule _combination states), so by induction over the entries
    every multiplier, pivot and (val, unit, prec) triple is unchanged.  Where
    sigma = 1 most entries are exact zeros; their zero f are not summed."""
    from . import linalg
    return linalg.solve(T.matrix, list(rhs))
