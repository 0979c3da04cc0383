"""Independent exact oracles for the benchmark.

Nothing here imports senlab.  Every quantity is computed with Python integers
and Fractions from the defining data (integer polynomials, integer matrices),
by routes that differ from the library's: a priori term counts instead of a
stop rule, Newton's identities instead of multiplication-matrix traces, and
the finite order of sigma instead of Gauss-Jordan inversion.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


# ---------------------------------------------------------------------------
# valuations and reduction
# ---------------------------------------------------------------------------

def vp(x, p):
    """p-adic valuation of a nonzero integer or Fraction."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0")
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def agrees(a, b, p, prec):
    """True when a and b agree modulo p^prec (a, b rationals)."""
    diff = Fraction(a) - Fraction(b)
    return diff == 0 or vp(diff, p) >= prec


def floor_log(n, p):
    k = 0
    while p ** (k + 1) <= n:
        k += 1
    return k


# ---------------------------------------------------------------------------
# exp, log and binomial powers as exact sums with a priori term counts
# ---------------------------------------------------------------------------

def exp_terms_needed(vx, p, prec):
    """Smallest n0 with v(x^n/n!) >= prec for every n >= n0.

    v(x^n/n!) > n (v(x) - 1/(p-1)), so n0 (v(x) - 1/(p-1)) >= prec suffices.
    """
    slope = Fraction(vx) - Fraction(1, p - 1)
    if slope <= 0:
        raise ValueError("x outside the exponential's convergence ball")
    n0 = 1
    while n0 * slope < prec:
        n0 += 1
    return n0


def exp_exact(x, p, prec):
    """Partial sum of exp(x) whose omitted tail lies in p^prec Z_p."""
    x = Fraction(x)
    if x == 0:
        return Fraction(1)
    total, term = Fraction(0), Fraction(1)
    for n in range(exp_terms_needed(vp(x, p), p, prec)):
        total += term
        term = term * x / (n + 1)
    return total


def log_terms_needed(vu, p, prec):
    """Smallest n0 with n v(u) - floor(log_p n) >= prec for all n >= n0.

    v(u^n/n) >= n v(u) - floor(log_p n), which is nondecreasing in n once
    v(u) >= 1, so the first n that clears prec bounds the whole tail.
    """
    if vu < 1:
        raise ValueError("log needs v(x - 1) >= 1")
    n0 = 1
    while n0 * vu - floor_log(n0, p) < prec:
        n0 += 1
    return n0


def log_exact(x, p, prec):
    """Partial sum of log(x) = sum (-1)^(n-1) u^n / n, u = x - 1."""
    u = Fraction(x) - 1
    if u == 0:
        return Fraction(0)
    total, power = Fraction(0), Fraction(1)
    for n in range(1, log_terms_needed(vp(u, p), p, prec)):
        power *= u
        total += (power if n % 2 else -power) / n
    return total


def binomial_power(b, n):
    """(1 + b)^n exactly, for any integer n."""
    return (1 + Fraction(b)) ** n


# ---------------------------------------------------------------------------
# number fields Q[y, u] / (g(y), E(y, u)) with exact rational coordinates
# ---------------------------------------------------------------------------

def _ypoly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


class NumberField:
    """Q[y]/(g) then Q[y,u]/(E): the global field behind a senlab tower.

    g is a monic integer polynomial (ascending); E is monic in u, given as a
    list over u-degree of ascending y-polynomials.  Coordinates are flat
    lists over the basis y^j u^i in the order t = j * e + i, the layout of
    senlab's FieldElement.coordinates().
    """

    def __init__(self, p, g, E):
        self.p = p
        self.g = list(g)
        self.E = [list(c) for c in E]
        self.f = len(self.g) - 1
        self.e = len(self.E) - 1
        self.degree = self.f * self.e

    # construction
    def zero(self):
        return [Fraction(0)] * self.degree

    def scalar(self, c):
        out = self.zero()
        out[0] = Fraction(c)
        return out

    def one(self):
        return self.scalar(1)

    def different(self):
        """E'(u) = sum_i i E_i(y) u^(i-1), the generator e of senlab."""
        return self._reduce_cols([[i * c for c in self.E[i]]
                                  for i in range(1, self.e + 1)])

    # arithmetic
    def add(self, a, b):
        return [x + y for x, y in zip(a, b)]

    def sub(self, a, b):
        return [x - y for x, y in zip(a, b)]

    def neg(self, a):
        return [-x for x in a]

    def scale(self, a, c):
        c = Fraction(c)
        return [x * c for x in a]

    def mul(self, a, b):
        f, e = self.f, self.e
        # cols[i] is the y-polynomial coefficient of u^i
        cols = [[0] * (2 * f - 1) for _ in range(2 * e - 1)]
        for ia in range(e):
            for ja in range(f):
                x = a[ja * e + ia]
                if not x:
                    continue
                for ib in range(e):
                    col = cols[ia + ib]
                    for jb in range(f):
                        y = b[jb * e + ib]
                        if y:
                            col[ja + jb] += x * y
        return self._reduce_cols(cols)

    def _reduce_cols(self, cols):
        e = self.e
        if e == 1:
            # u = -E_0(y) is already an element of U; substitute it
            acc = [0]
            upow = [1]
            minus_e0 = [-c for c in self.E[0]]
            for col in cols:
                acc = _padd(acc, _ypoly_mul(col, upow))
                upow = self._ymod(_ypoly_mul(upow, minus_e0))
            acc = self._ymod(acc)
            return [Fraction(x) for x in acc]
        for k in range(len(cols) - 1, e - 1, -1):
            c = cols[k]
            if any(c):
                for i in range(e):
                    prod = _ypoly_mul(c, self.E[i])
                    cols[k - e + i] = _padd(cols[k - e + i], [-x for x in prod])
            cols.pop()
        while len(cols) < e:
            cols.append([0])
        out = self.zero()
        for i in range(e):
            red = self._ymod(cols[i])
            for j in range(self.f):
                out[j * e + i] = Fraction(red[j])
        return out

    def _ymod(self, a):
        f = self.f
        a = list(a) + [0] * max(0, f - len(a))
        for k in range(len(a) - 1, f - 1, -1):
            c = a[k]
            if c:
                for j in range(f + 1):
                    a[k - f + j] -= c * self.g[j]
            a.pop()
        return a[:f]

    def power(self, a, n):
        if n < 0:
            return self.power(self.inverse(a), -n)
        out = self.one()
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def mult_matrix(self, a):
        d = self.degree
        cols = []
        for t in range(d):
            basis = self.zero()
            basis[t] = Fraction(1)
            cols.append(self.mul(a, basis))
        return [[cols[t][s] for t in range(d)] for s in range(d)]

    def inverse(self, a):
        return solve_exact(self.mult_matrix(a), self.one())

    def valuation(self, a):
        """Valuation normalised by v(p) = 1, read off the tower coordinates."""
        best = None
        for t, x in enumerate(a):
            if x:
                v = vp(x, self.p) + Fraction(t % self.e, self.e)
                best = v if best is None else min(best, v)
        return best


def _padd(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def solve_exact(mat, rhs):
    """Gaussian elimination over Q for a nonsingular square system."""
    n = len(mat)
    a = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(mat)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [a[r][n] for r in range(n)]


def eisenstein(p, coeffs):
    """Totally ramified Q[u]/(E) for integer coefficients (ascending)."""
    return NumberField(p, [-1, 1], [[c] for c in coeffs])


def cyclotomic_poly_shifted(p, m):
    """Integer coefficients of Phi_{p^m}(1 + u), ascending."""
    q = p ** (m - 1)
    deg = q * (p - 1)
    out = [0] * (deg + 1)
    for k in range(p):
        n = k * q
        for j in range(n + 1):
            out[j] += comb(n, j)
    return out


# ---------------------------------------------------------------------------
# divided-power closed forms
# ---------------------------------------------------------------------------

def theta_preimage_of_one(F, trunc):
    """Coefficients (-e)^(n-1) (n-1)! of log(1 + e a)/e, n = 0..trunc."""
    e = F.different()
    out = [F.zero()]
    cur = F.one()
    minus_e = F.neg(e)
    for n in range(1, trunc + 1):
        out.append(cur)
        cur = F.scale(F.mul(cur, minus_e), n)
    return out


def dp_product(F, f, g):
    """Binomial convolution (f g)_n = sum C(n, i) f_i g_(n-i)."""
    n_max = min(len(f), len(g)) - 1
    out = []
    for n in range(n_max + 1):
        acc = F.zero()
        for i in range(n + 1):
            acc = F.add(acc, F.scale(F.mul(f[i], g[n - i]), comb(n, i)))
        out.append(acc)
    return out


def substitution(F, coeffs, e, b):
    """a -> a(1 + e b) + b on a truncated divided-power polynomial.

    Degree m of the result is (1 + e b)^m sum_k c_(m+k) b^k / k!.
    """
    trunc = len(coeffs) - 1
    b_pows = [F.one()]
    for k in range(1, trunc + 1):
        b_pows.append(F.scale(F.mul(b_pows[-1], b), Fraction(1, k)))
    one_plus_eb = F.add(F.one(), F.mul(e, b))
    out = []
    scale = F.one()
    for m in range(trunc + 1):
        acc = F.zero()
        for k in range(trunc - m + 1):
            if any(coeffs[m + k]):
                acc = F.add(acc, F.mul(coeffs[m + k], b_pows[k]))
        out.append(F.mul(acc, scale))
        scale = F.mul(scale, one_plus_eb)
    return out


# ---------------------------------------------------------------------------
# modules P * diag(lambda) * P^-1
# ---------------------------------------------------------------------------

def conjugated_diagonal(F, P, P_inv, lams):
    d = len(P)
    return [[_sum(F, [F.scale(lams[k], P[i][k] * P_inv[k][j]) for k in range(d)])
             for j in range(d)] for i in range(d)]


def _sum(F, items):
    acc = F.zero()
    for x in items:
        acc = F.add(acc, x)
    return acc


def char_poly_of_diagonal(F, lams):
    """prod (T - lambda_i), ascending coefficients in F."""
    poly = [F.one()]
    for lam in lams:
        nxt = [F.zero() for _ in range(len(poly) + 1)]
        for k, c in enumerate(poly):
            nxt[k] = F.sub(nxt[k], F.mul(c, lam))
            nxt[k + 1] = F.add(nxt[k + 1], c)
        poly = nxt
    return poly


def operator_series_closed_form(F, P, P_inv, weights, e, b):
    """(1 + e b)^(theta/e) for theta = P e diag(w) P^-1: P diag((1+eb)^w) P^-1."""
    base = F.add(F.one(), F.mul(e, b))
    lams = [F.power(base, w) for w in weights]
    return conjugated_diagonal(F, P, P_inv, lams)


def mat_mul(F, a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[_sum(F, [F.mul(a[i][t], b[t][j]) for t in range(k)])
             for j in range(m)] for i in range(n)]


def unimodular_pair(rng, d, steps=None):
    """Random P in SL_d(Z) as a product of elementary moves, with P^-1."""
    P = [[int(i == j) for j in range(d)] for i in range(d)]
    P_inv = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(steps or 2 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        for k in range(d):
            P[i][k] += c * P[j][k]
        for k in range(d):
            P_inv[k][j] -= c * P_inv[k][i]
    return P, P_inv


# ---------------------------------------------------------------------------
# traces from Newton's identities
# ---------------------------------------------------------------------------

def power_sums(coeffs, count):
    """Power sums s_0..s_(count-1) of the roots of a monic polynomial.

    With coeffs ascending and a_i = coeffs[d - i], Newton's identities read
    s_k = -(a_1 s_(k-1) + ... + a_(min(k-1,d)) s_(k-min(k-1,d))) - k a_k,
    the last term present only for k <= d.
    """
    d = len(coeffs) - 1
    a = [Fraction(coeffs[d - i]) for i in range(d + 1)]
    s = [Fraction(d)]
    for k in range(1, count):
        acc = sum((a[i] * s[k - i] for i in range(1, min(k - 1, d) + 1)),
                  Fraction(0))
        if k <= d:
            acc += k * a[k]
        s.append(-acc)
    return s


def inverse_power_sums(coeffs, count):
    """Power sums of the reciprocal roots: those of the reversed polynomial."""
    rev = [Fraction(x) for x in reversed(coeffs)]
    lead = rev[-1]
    return power_sums([x / lead for x in rev], count)


def totally_ramified_traces(coeffs, k_min, k_max):
    """{k: Tr(u^k)} for k_min <= k <= k_max, u a root of the monic E."""
    out = {}
    if k_max >= 0:
        s = power_sums(coeffs, k_max + 1)
        for k in range(max(0, k_min), k_max + 1):
            out[k] = s[k]
    if k_min < 0:
        s = inverse_power_sums(coeffs, -k_min + 1)
        for k in range(k_min, 0):
            out[k] = s[-k]
    return out


def boundary_of_trace(tr, p):
    """(1/p) Tr reduced to [0, 1): returns (num, den_pow) in lowest terms."""
    x = Fraction(tr) / p
    x -= x.numerator // x.denominator
    if x == 0:
        return 0, 0
    k = -vp(x, p)
    return (x * p ** k).numerator % p ** k, k


# ---------------------------------------------------------------------------
# the cyclotomic harness: sigma and its finite order
# ---------------------------------------------------------------------------

def _zpoly_mulmod(a, b, E):
    """Product of integer polynomials reduced modulo the monic E."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    d = len(E) - 1
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            for j in range(d + 1):
                out[k - d + j] -= c * E[j]
        out.pop()
    return out + [0] * (d - len(out))


class CyclotomicOracle:
    """sigma_a on Q(zeta_{p^m}) in the basis u^i, u = zeta - 1, with chi = a."""

    def __init__(self, p, m, a):
        self.p, self.m, self.a = p, m, a
        E = cyclotomic_poly_shifted(p, m)
        self.d = d = len(E) - 1
        # sigma(u) = (1 + u)^a - 1 reduced mod E
        sig_u = [1]
        for _ in range(a % p ** m):
            sig_u = _zpoly_mulmod(sig_u, [1, 1], E)
        sig_u[0] -= 1
        cols = []
        power = [1] + [0] * (d - 1)
        for _ in range(d):
            cols.append(power)
            power = _zpoly_mulmod(power, sig_u, E)
        self.sigma = [[cols[t][s] for t in range(d)] for s in range(d)]
        self.order = 1
        while pow(a, self.order, p ** m) != 1:
            self.order += 1
        ident = [[int(i == j) for j in range(d)] for i in range(d)]
        self.sigma_powers = [ident]
        for _ in range(1, self.order):
            self.sigma_powers.append(_int_mat_mul(self.sigma_powers[-1], self.sigma))

    def rho_exponent(self, n):
        """Norm exponent of (chi^n sigma - 1)^(-1) through the finite order r.

        (chi^n sigma - 1)^(-1) = (chi^(nr) - 1)^(-1) sum_(j<r) chi^(nj) sigma^j;
        for n < 0 the sum is rescaled by the unit chi^(|n|(r-1)).
        """
        p, a, r, d = self.p, self.a, self.order, self.d
        k = abs(n)
        if n > 0:
            weights = [a ** (k * j) for j in range(r)]
        else:
            weights = [a ** (k * (r - 1 - j)) for j in range(r)]
        v_min = None
        for s in range(d):
            for t in range(d):
                x = sum(w * sp[s][t] for w, sp in zip(weights, self.sigma_powers))
                if x:
                    v = vp(x, p)
                    v_min = v if v_min is None else min(v_min, v)
        return Fraction(vp(a ** (k * r) - 1, p) - v_min)

    def g_minus_one(self, e, trunc):
        """(g - 1) on D_N in Fractions: blocks chi^n (y^k/k!) sigma and
        chi^n sigma - 1 on the diagonal, y = (chi - 1)/e."""
        d, a = self.d, self.a
        y = Fraction(a - 1) / Fraction(e)
        size = trunc * d
        mat = [[Fraction(0)] * size for _ in range(size)]
        y_fact = [Fraction(1)]
        for k in range(1, trunc):
            y_fact.append(y_fact[-1] * y / k)
        for n in range(1, trunc + 1):
            base = (n - 1) * d
            chi_n = Fraction(a) ** n
            for k in range(0, trunc - n + 1):
                scale = chi_n * y_fact[k]
                cbase = (n + k - 1) * d
                for i in range(d):
                    for j in range(d):
                        if self.sigma[i][j]:
                            mat[base + i][cbase + j] = self.sigma[i][j] * scale
            for i in range(d):
                mat[base + i][base + i] -= 1
        return mat


def _int_mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def mat_vec(mat, vec):
    return [sum(x * y for x, y in zip(row, vec) if x) for row in mat]
