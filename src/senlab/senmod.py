"""Sen modules (M, theta) over a local field K.

A module is a square matrix theta over K together with the twist parameter
e = E'(pi), the field's different generator.  The module provides:

  * division-free characteristic polynomials (Samuelson-Berkowitz);
  * the nearly-Hodge-Tate classifier: theta^p - e^(p-1) theta must be
    topologically nilpotent, certified through Newton-polygon slopes of its
    characteristic polynomial, never through root finding.  The condition
    belongs to (theta, e) alone, so the certificate is computed once per
    module, on first use, and weights, the operator series and descent
    all read it and refuse a module that fails it;
  * integer weight multiplicities, read off char(theta) as its order of
    vanishing at X = e n, cohomology of theta as kernel/cokernel,
    tensor/dual/twist constructions;
  * the semilinear operator series (1 + e b)^(theta/e)
      = sum_n (b^n/n!) prod_{i<n} (theta - e i) = exp(t theta),
    t = log(1 + e b)/e, whose convergence is exactly the classifier condition.

The series is exp(A) = sum A^k/k!, A = t theta, t = b L(y), y = -e b,
L(y) = sum y^m/(m+1): two polynomials in one matrix, each summed by
Paterson-Stockmeyer in about 2 sqrt(N) matrix products, each entry of a
Horner step one packed sum over K from a step prepared once.  A needs no
balancing shift: (p^a t, p^-a theta) give the same A, and v(A) > 1/(p-1)
under the convergence condition.  Both are summed from the digits of b, e,
theta and v taken as exact; each entry then claims the digits of an error
bound, counted in 1/e_ram and floored once:
  * t is off by err_t: log is an isometry on v > 1/(p-1), so an error in b
    moves t by as much, and one in e by at least its valuation plus
    2 v(b) + min(0, (p-2) v(y) - 1), the least valuation of dt/de;
  * an error dt in t commutes with A: exp(A + dt theta) v = exp(dt theta) S v,
    S v the sum, so it moves S v by dt theta S v and by further terms of v
    at least 2 err_t + v(theta) + v(theta S v) - 1/(p-1);
  * the errors of theta and of the product t theta put A_ab off by eta_ab,
    and the error of A^k v follows from them and v's by the product rule,
    with A^k v at the valuations of the powers formed (past them, the least
    min-plus paths of A), until every later term passes K.prec.
Both sums stop under series_converged: t's term b y^(m-1)/m has
v >= v(b) + (m-1) v(y) - floor(log_p m), least past n at m = n + 1 or at
the next power of p; A^k v/k! has v >= u_k - (k-1)/(p-1), u_k the least
min-plus path of k letters of A to v, which grows by more than 1/(p-1) a
letter, so the terms past the first k where that passes K.prec, or every
digit an entry can claim (eta, or v's precision), lie below the claims.

Sign convention: theta is the operator induced by the derivation
(1 + e a) d/da on the divided-power algebra; some treatments in the
literature use the negative of this operator.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg
from .errors import ConvergenceError, DomainError, PrecisionError, UsageError
from .field import FieldElement, LocalField
from .padic import (PadicScalar, exp_domain_threshold, newton_polygon, series_converged,
                    vp_int)


class SenModule:
    """Finite free K-module with endomorphism theta and twist parameter e."""

    __slots__ = ("field", "dim", "theta", "e", "_certificate")

    def __init__(self, field: LocalField, theta):
        self.field = field
        self.theta = tuple(tuple(row) for row in theta)
        self.dim = len(self.theta)
        if any(len(row) != self.dim for row in self.theta):
            raise UsageError("theta must be a square matrix")
        self.e = field.different_e
        if self.e.is_zero():        # E'(pi) can be zero to a low precision
            raise UsageError("the twist parameter e must be nonzero")
        self._certificate = None        # the ClassifierReport, set by nearly_ht_test

    @classmethod
    def from_int_matrix(cls, field, rows):
        return cls(field, [[field.from_int(c) for c in row] for row in rows])

    @classmethod
    def diagonal_weights(cls, field, weights):
        """Direct sum of rank-one twists: theta = e * diag(weights)."""
        e = field.different_e
        d = len(weights)
        theta = [[field.zero() for _ in range(d)] for _ in range(d)]
        for i, n in enumerate(weights):
            theta[i][i] = e * n
        return cls(field, theta)

    def _zero(self):
        return self.field.zero()

    def _one(self):
        return self.field.one()

    def matrix(self):
        return [list(row) for row in self.theta]

    def __repr__(self):
        return f"SenModule(dim={self.dim})"


def regular_representation(field: LocalField, trunc: int) -> SenModule:
    """theta acting on the degree-<=trunc divided-power polynomials."""
    from .dpseries import theta_matrix
    return SenModule(field, theta_matrix(field, trunc))


# ---------------------------------------------------------------------------
# characteristic polynomials and the classifier
# ---------------------------------------------------------------------------

def char_poly(M: SenModule):
    """Monic characteristic polynomial det(T - theta), coefficients ascending."""
    return linalg.charpoly_berkowitz(M.matrix(), M._one(), M._zero())


class ClassifierReport:
    """Outcome of the topological-nilpotence test on theta^p - e^(p-1) theta."""

    __slots__ = ("verdict", "char_q", "polygon", "offending")

    def __init__(self, verdict, char_q, polygon, offending):
        self.verdict = verdict
        self.char_q = char_q
        self.polygon = polygon
        self.offending = offending

    def __repr__(self):
        return f"ClassifierReport(verdict={self.verdict}, offending={self.offending})"


def nearly_ht_test(M: SenModule) -> ClassifierReport:
    """All eigenvalues of theta in e*Z + maximal ideal, tested slope-wise.

    Equivalent to every Newton-polygon slope of char(Q), Q = theta^p -
    e^(p-1) theta, being positive, since over the residue field
    X^p - e^(p-1) X splits into the p linear factors X - e*i.  theta and e
    never change, so the report is computed on the first call and every
    later call returns it.
    """
    if M._certificate is None:
        p = M.field.p
        theta = M.matrix()
        q = linalg.mat_sub(linalg.mat_pow(theta, p, M._one(), M._zero()),
                           linalg.mat_scale(theta, M.e ** (p - 1)))
        coeffs = linalg.charpoly_berkowitz(q, M._one(), M._zero())
        polygon = newton_polygon(coeffs)
        M._certificate = ClassifierReport(polygon.all_slopes_positive(), coeffs,
                                          polygon, polygon.offending_slopes())
    return M._certificate


def _require_nearly_ht(M: SenModule):
    """Raise DomainError unless M's certificate says it is nearly Hodge-Tate."""
    report = nearly_ht_test(M)
    if not report.verdict:
        raise DomainError(
            "the module is not nearly Hodge-Tate: char(theta^p - e^(p-1) theta) "
            "has slopes [%s] that are not positive" % ", ".join(map(str, report.offending)),
            concept="nearly Hodge-Tate classifier")


# ---------------------------------------------------------------------------
# weights and cohomology
# ---------------------------------------------------------------------------

def default_weight_range(M: SenModule, coeffs):
    """Heuristic window [-B, B] read off the polygon of char(theta), given as
    its ascending coefficients `coeffs`.

    A slope only pins v_p of a candidate weight, never its size, so the
    window combines the slope spread with a fixed floor of 32; pass an
    explicit range to be definitive.
    """
    polygon = newton_polygon(coeffs)
    exact, v_e = M.e.pivot_val()
    spread = 0
    for s in polygon.slopes:
        if s.exact:
            spread = max(spread, math.ceil(s.value - (v_e if exact else 0)))
    b = max(32, M.field.p ** min(8, max(0, spread)))
    return (-b, b)


def ht_weights(M: SenModule, n_range=None):
    """Multiplicity of each integer weight n: the order of vanishing of
    char(theta) at X = e n.

    char(theta) is computed once; each n divides it synthetically by X - e n
    for as long as the remainder is zero to its own precision, so every
    eigenvalue's distance to e n counts once.  Eigenvalues near e n but not
    equal to it within the working precision report multiplicity 0.  Raises
    PrecisionError when the multiplicities add up to more than dim: the
    working precision then cannot separate two weights of the window.
    """
    if n_range is not None and n_range[0] > n_range[1]:
        raise UsageError("empty weight range")
    _require_nearly_ht(M)
    coeffs = char_poly(M)
    n_min, n_max = default_weight_range(M, coeffs) if n_range is None else n_range
    out = []
    for n in range(n_min, n_max + 1):
        poly, mult, root = coeffs, 0, M.e * n
        while len(poly) > 1:
            # Horner's running values: the quotient's coefficients, then the remainder
            acc = [poly[-1]]
            for c in reversed(poly[:-1]):
                acc.append(c + root * acc[-1])
            if not acc[-1].is_zero():
                break
            poly, mult = acc[-2::-1], mult + 1
        if mult:
            out.append((n, mult))
    if sum(mult for _, mult in out) > M.dim:
        raise PrecisionError(
            "weight multiplicities %s exceed dim = %d: precision %d cannot separate "
            "the weights in [%d, %d]; raise the working precision"
            % (out, M.dim, M.field.prec, n_min, n_max))
    return out


class CohomologyReport:
    __slots__ = ("h0_dim", "h1_dim", "h0_basis", "h1_basis_indices")

    def __init__(self, h0_dim, h1_dim, h0_basis, h1_basis_indices):
        self.h0_dim = h0_dim
        self.h1_dim = h1_dim
        self.h0_basis = h0_basis
        self.h1_basis_indices = h1_basis_indices

    def __repr__(self):
        return f"CohomologyReport(h0={self.h0_dim}, h1={self.h1_dim})"


def cohomology(M: SenModule) -> CohomologyReport:
    """Kernel and cokernel of theta on K^dim; dimensions always agree."""
    mat = M.matrix()
    kernel = linalg.kernel_basis(mat, M._one(), M._zero())
    transpose = [[mat[j][i] for j in range(M.dim)] for i in range(M.dim)]
    _, pivot_rows, r = linalg.row_reduce(transpose)
    coker = [i for i in range(M.dim) if i not in pivot_rows]
    return CohomologyReport(len(kernel), M.dim - r, kernel, coker)


# ---------------------------------------------------------------------------
# tensor operations
# ---------------------------------------------------------------------------

def tensor(m1: SenModule, m2: SenModule) -> SenModule:
    """theta = theta_1 (x) 1 + 1 (x) theta_2 on the Kronecker product."""
    if m1.field is not m2.field:
        raise UsageError("tensor factors live over different fields")
    d1, d2 = m1.dim, m2.dim
    zero = m1._zero()
    d = d1 * d2
    theta = [[zero for _ in range(d)] for _ in range(d)]
    for a in range(d1):
        for b in range(d1):
            for c in range(d2):
                theta[a * d2 + c][b * d2 + c] = theta[a * d2 + c][b * d2 + c] + m1.theta[a][b]
    for a in range(d1):
        for b in range(d2):
            for c in range(d2):
                theta[a * d2 + b][a * d2 + c] = theta[a * d2 + b][a * d2 + c] + m2.theta[b][c]
    return SenModule(m1.field, theta)


def dual(m: SenModule) -> SenModule:
    theta = [[-m.theta[j][i] for j in range(m.dim)] for i in range(m.dim)]
    return SenModule(m.field, theta)


def bk_twist(m: SenModule, n: int) -> SenModule:
    """Shift theta by e*n, the rank-one twist with integer weight n."""
    shift = m.e * n
    theta = [[m.theta[i][j] + (shift if i == j else m._zero())
              for j in range(m.dim)] for i in range(m.dim)]
    return SenModule(m.field, theta)


def trivial_module(field: LocalField) -> SenModule:
    return SenModule(field, [[field.zero()]])


# ---------------------------------------------------------------------------
# the semilinear operator series
# ---------------------------------------------------------------------------

def _exact(x, prec):
    """x's digits taken as exact, to prec digits; a zero to its precision is zero."""
    if x.shift >= x.prec:
        return FieldElement(x.field, (), prec, prec)
    return FieldElement(x.field, x.vec, x.shift, prec)


def _reciprocals(p, rel, n, factorial):
    """1/k! for 0 <= k <= n, or 1/k for 1 <= k <= n, each a scalar over p
    known to rel digits past its valuation: one modular inverse, of the unit
    part of n!, walked down by the unit parts of k."""
    m, vals, units, prefix = p ** rel, [0], [1], [1]      # k's, and k!'s unit
    for k in range(1, n + 1):
        v = 0
        while k % p == 0:
            k, v = k // p, v + 1
        vals.append(v)
        units.append(k)
        prefix.append(prefix[-1] * k % m)
    inverse = [pow(prefix[n], -1, m)]   # of the unit part of k!, k = n, n - 1, ...
    for k in range(n, 0, -1):
        inverse.append(inverse[-1] * units[k] % m)
    inverse.reverse()
    if not factorial:
        return [PadicScalar(p, -vals[k], inverse[k] * prefix[k - 1] % m, rel - vals[k])
                for k in range(1, n + 1)]
    out, v = [], 0
    for k in range(n + 1):
        v += vals[k]
        out.append(PadicScalar(p, -v, inverse[k], rel - v))
    return out


def _blocks(K, x, s, high, last, vector=None):
    """The terms x^i v (i < s) of Paterson-Stockmeyer's blocks, v the
    identity or the column `vector`, and x^s when `last`, the factor of its
    Horner steps: x^i = x^ceil(i/2) x^floor(i/2) by linalg.mat_mul to high
    digits (one product at d = 1).  s - 1 products of d x d matrices, s - 2
    without `last`.  A zero entry of x is exactly zero."""
    zero = FieldElement(K, (), high, high)
    powers = [None, x]
    for i in range(2, s + last):
        a, b = powers[(i + 1) // 2], powers[i // 2]
        powers.append(linalg.mat_mul(a, b, zero) if len(x) > 1 else [[a[0][0] * b[0][0]]])
    if vector:
        cols = [[[y] for y in vector]]
        cols += [linalg.mat_mul(m, cols[0], zero) for m in powers[1:s]]
    else:
        one = FieldElement(K, [1] + [0] * (K.degree - 1), 0, high)
        cols = [linalg.identity(len(x), one, zero)] + powers[1:s]
    if not last:
        return cols, None
    # an entry of x^s that no path of s nonzero entries of x reaches is
    # exactly zero: None, which the Horner steps skip
    nonzero = [[j for j, z in enumerate(row) if z.shift < z.prec] for row in x]
    if all(len(row) == len(x) for row in nonzero):
        return cols, powers[s]
    reach = [set(row) for row in nonzero]
    for _ in range(s - 1):
        reach = [set().union(*(reach[j] for j in row)) for row in nonzero]
    return cols, [[z if c in to else None for c, z in enumerate(row)]
                  for row, to in zip(powers[s], reach)]


def _horner(K, cols, xs, coefs, prec):
    """sum_k coefs[k] x^k v to prec digits from _blocks' terms: the blocks of
    s coefficients joined by Horner in x^s, each entry of a step one
    LocalField._packed_sum of the block's (x^i v)_ab times its coefficients
    and of row a of x^s times column b of the last step, with the (vec, shift,
    prec) LocalField.dot gives them from a zero at prec: n/s steps of d^3 (d^2
    on a vector) products.  A product whose factors' shifts add up to prec or
    more lies below p^prec and is left out.  A step reduces each coefficient
    once, below p^(prec - t) for t the least shift of its products, and reads
    each factor's (shift, prec, floor v) once; dot's n, the least precision of
    a product by _scalar_product's and _product's rules, is then integer sums."""
    e, s, out = K.e_ram, len(cols), None
    cap = K.table_prec if K.degree > 1 else math.inf        # _product's table cap
    kept = lambda x: (x.shift, x.prec, x._v() // e, x)
    lines = [[list(map(kept, line)) for line in zip(*row_a)] for row_a in zip(*cols)]
    least = [min([x.shift for row in t for x in row]) for t in cols]
    rows = [[z and kept(z) for z in row] for row in xs] if xs else [()] * len(lines)
    for j in reversed(range(0, len(coefs), s)):
        block, prev, out = coefs[j:j + s], out, []
        units = [(k.val, k.prec, prec - ls, k.unit % K.p ** max(prec - ls - k.val, 0))
                 for k, ls in zip(block, least)]
        last = [[kept(y) for y in col] for col in zip(*prev)] if prev else [()] * len(lines[0])
        for line_row, xrow in zip(lines, rows):
            row = []
            for line, col in zip(line_row, last):
                n, u = prec, []
                for (sx, px, vx, x), (v, pk, r, b) in zip(line, units):
                    if sx + v < prec:
                        u.append((sx + v, px + r, x, b))
                        if px + v < n:
                            n = px + v
                        if pk + vx < n:
                            n = pk + vx
                for z, (sy, py, vy, y) in zip(xrow, col):
                    if z and z[0] + sy < prec:
                        sz, pz, vz, z = z
                        u.append((sz + sy, pz + py, z, y))
                        n = min(n, pz + vy, py + vz, sz + sy + cap)
                row.append(K._packed_sum(u if n == prec else [x for x in u if x[0] < n], n))
            out.append(row)
    return out


def _log_factor(M, b, T):
    """t = log(1 + e b)/e = b sum_(m>=1) y^(m-1)/m, y = -e b, from b and e
    taken exact, and the error bound of the module docstring, counted in
    1/e_ram: the least valuation t can be off by.  Its terms have
    v >= v(b) + (m-1) v(y) - floor(log_p m), least past n at m = n + 1 or at
    the next power of p, as v(y) > 1/(p-1); the sum stops under
    series_converged once that reaches T digits or b's precision."""
    K = M.field
    p, e = K.p, K.e_ram
    vb, vy = b._v(), b._v() + M.e._v()
    n, q, j, tail = 0, 1, 0, None       # q = p^j, the least power of p above n
    while tail is None or not series_converged(tail // e, T, (b.prec,)):
        n += 1
        if n == q:
            q, j = q * p, j + 1
        tail = vb + min(n * vy - e * (j - (n + 1 < q)), (q - 1) * vy - e * j)
    bx = _exact(b, T + 1)
    t = bx
    if n > 1:           # t = b L(y), L(y) = sum_(m<n) y^m/(m+1)
        y = -(_exact(M.e, T + 1) * bx)
        prec = T - vb // e
        coefs = _reciprocals(p, max(y.prec - y.shift, prec) + n, n, False)
        s = math.isqrt(n - 1) + 1
        cols, ys = _blocks(K, [[y]], s, prec + 1 - min(c.val for c in coefs), n > s)
        t = bx * _horner(K, cols, ys, coefs, prec)[0][0]
    return t, min(e * b.prec, e * M.e.prec + 2 * vb + min(0, (p - 2) * vy - e),
                  e * t.prec, tail)


def _min_plus(rows, cols):
    """The min-plus product of the matrix `rows` by the d x k matrix `cols`."""
    return [[min(x + y for x, y in zip(row, col)) for col in zip(*cols)] for row in rows]


def _series(M, b, vector):
    """sum_(k<=N) A^k v/k!, A = t theta, v the identity or the column
    `vector`, each entry cut to the digits of the module docstring's error
    bound."""
    K = M.field
    if isinstance(b, (int, PadicScalar)):
        b = K.from_scalar(b)
    _require_nearly_ht(M)
    p, e = K.p, K.e_ram
    den = e * (p - 1)                   # valuations are counted in 1/den
    w = (p - 1) * min([M.e._v()] + [x._v() for row in M.theta for x in row])
    c = (p - 1) * b._v() + w
    if c <= e:
        raise ConvergenceError(
            "operator series needs v(b) + min(v(theta), v(e)) > 1/(p-1) = %s; "
            "got %s" % (Fraction(1, p - 1), Fraction(c, den)),
            concept="operator series stop rule")
    d = M.dim
    if not d:
        return []
    # from here valuations and error bounds count 1/e_ram, as _v() does
    top, far = e * K.prec, 1 << 62
    wt = min(x._v() for row in M.theta for x in row)
    vv = min([0] + [x._v() for x in vector])
    T = K.prec + 1 - min(0, wt + vv) // e
    t, err_t = _log_factor(M, b, T)
    vt = min(t._v(), err_t)
    theta = [[_exact(z, T + 1) for z in row] for row in M.theta]
    A = [[t * z for z in row] for row in theta]
    vA = [[x._v() if x.shift < x.prec else far for x in row] for row in A]
    # eta: how far A is off through theta's digits and the product
    eta = [[min(e * z.prec + vt, e * x.prec) for z, x in zip(*rows)]
           for rows in zip(M.theta, A)]
    # the sum stops at N: A^k v/k! has v >= u_k - e (k-1)/(p-1), u_k the least
    # path of k letters of A to v, growing by more than e/(p-1) a letter
    paths = [[(j, y) for j, y in enumerate(row) if y < far] for row in vA]
    precs = (max([x.prec for x in vector] or [h // e for row in eta for h in row]),)
    u = [x._v() if x.shift < x.prec else far for x in vector] or [0] * d
    n = 0
    while True:
        n += 1
        u = [min([y + u[j] for j, y in row] or [far]) for row in paths]
        if series_converged(((p - 1) * min(u) - e * (n - 1)) // den, K.prec, precs):
            break
    n = max(n - 1, 1)
    s = math.isqrt(n // (d if vector else 1)) + 1
    # the powers' digits: prec + v(s!) past the vector's valuation, which the
    # Horner steps' gains in v(A^s) cover but for floors; where the floors
    # leave an entry short of its claim, the sum is formed again with v(n!)
    high = K.prec + 1 - vv // e + vp_int(math.factorial(s), p)
    cols, As = _blocks(K, [[_exact(x, high) for x in row] for row in A], s, high, n + 1 > s,
                       [_exact(x, high) for x in vector])
    # claims: words in A and its error eta applied to v or its error, the
    # error of A^k v by the product rule with A^k v at its own valuations
    # (the terms _blocks formed, past them paths of A); every later word is
    # at least omega - e k/(p-1) once step k is done
    V = [[e * x.prec] for x in vector] if vector else [[far] * d for _ in range(d)]
    claims, eta_min, k, vk = [row[:] for row in V], min(map(min, eta)), 0, 0
    U = [[x._v() for x in row] for row in cols[0]]
    while (p - 1) * min(min(map(min, V)), eta_min + min(map(min, U))) - e * k < (p - 1) * top:
        k += 1
        vk += vp_int(k, p)
        V = [[min(x, y) for x, y in zip(*rows)] for rows in zip(_min_plus(vA, V), _min_plus(
            eta, [[min(x, y) for x, y in zip(*rows)] for rows in zip(U, V)]))]
        U = [[x._v() for x in row] for row in cols[k]] if k < s else _min_plus(vA, U)
        claims = [[min(x, y - e * vk) for x, y in zip(*rows)] for rows in zip(claims, V)]
    out = _horner(K, cols, As, _reciprocals(p, high + 1, n, True), K.prec)
    if any(x.prec < min(K.prec, q // e) for rows in zip(out, claims) for x, q in zip(*rows)):
        fact, q = 0, p                  # v(n!), the most digits a 1/k! takes
        while q <= n:
            fact, q = fact + n // q, q * p
        high = K.prec + 1 - vv // e + fact
        cols, As = _blocks(K, [[_exact(x, high) for x in row] for row in A], s, high,
                           n + 1 > s, [_exact(x, high) for x in vector])
        out = _horner(K, cols, As, _reciprocals(p, high + 1, n, True), K.prec)
    # t's error dt commutes: exp(A + dt theta) v = exp(dt theta) exp(A) v is
    # off by dt theta S v, S v the sum, and by terms of v at least
    # 2 err_t + v(theta) + min v(theta S v) - e/(p-1); omega bounds
    # v(theta S v) by the product rule, and is at least v(theta) + v(S v)
    low = err_t + wt + min(0, min(x._v() for row in out for x in row))
    if min(low, low + err_t - e) < top:
        omega = [[min([y._v()] + [z._v() + q for z, q in zip(row, col)] +
                      [e * z.prec + x._v() for z, x in zip(row, xs)])
                  for y, col, xs in zip(ts, zip(*claims), zip(*out))]
                 for ts, row in zip(linalg.mat_mul(theta, out, K.zero()), M.theta)]
        low = ((p - 1) * (2 * err_t + wt + min(map(min, omega))) - e) // (p - 1)
        claims = [[min(x, err_t + y, low) for x, y in zip(*rows)] for rows in zip(claims, omega)]
    return [[x if e * x.prec <= q else x.truncated(q // e) for x, q in zip(*rows)]
            for rows in zip(out, claims)]


def operator_series(M: SenModule, b):
    """The matrix (1 + e b)^(theta/e) = exp(t theta), summed as sum A^k/k!,
    A = t theta, by Paterson-Stockmeyer; A needs no balancing shift.

    Requires the nearly-Hodge-Tate condition; admissible pairs satisfy the
    group law S(b) S(b') = S(b + b' + e b b').  Raises DomainError for a
    module that fails the classifier, and ConvergenceError up front when
    v(b) + min(v(theta), v(e)) <= 1/(p-1), where the stop rules have no
    bound.  The sums for t and A stop under series_converged and each entry
    claims the digits of an error bound, both as the module docstring
    proves.
    """
    return _series(M, b, [])


def operator_series_apply(M: SenModule, b, vector):
    """The series applied to one vector, by Horner in A^s on the vector
    without forming the matrix, under operator_series' stop rules and error
    bound; a scalar entry is taken as K.from_scalar of it."""
    if len(vector) != M.dim:
        raise UsageError(f"the vector has {len(vector)} entries; the module has dimension {M.dim}")
    return [row[0] for row in _series(M, b, [M._one()._coerce(x) for x in vector])]


def semilinear_descent_matrix(M: SenModule, chi_value: PadicScalar):
    """Matrix by which an automorphism with unit-ball value chi acts on M.

    chi - 1 must lie in the exponential's convergence ball, v > alpha, which
    for integer valuations is v >= exp_domain_threshold(p) (2 over Q_2);
    the matrix is the operator series at b = (chi - 1)/e.
    """
    K = M.field
    if chi_value.p != K.p:
        raise UsageError("character value must share the field's prime")
    diff = chi_value - PadicScalar.one(K.p, chi_value.prec)
    threshold = exp_domain_threshold(K.p)
    if not diff.is_zero() and diff.val < threshold:
        raise DomainError(
            "character value must satisfy v(chi - 1) > alpha, i.e. "
            "v(chi - 1) >= %d for p = %d; got v = %s" % (threshold, K.p, diff.val),
            concept="convergence radius alpha")
    return operator_series(M, K.from_scalar(diff) / M.e)
