"""Truncated divided-power algebra over O_K with its Sen derivation.

Series are stored against the basis a^n/n!, so the product is the binomial
convolution  (f g)_n = sum_{i+j=n} C(n, i) f_i g_j = n! sum (f_i/i!)(g_j/j!),
which `dp_mul` computes as one packed integer product.  The derivation

    theta = (1 + e a) d/da,      theta(f)_n = c_{n+1} + e n c_n,

has the constants as kernel and is inverted degree by degree via
c_{n+1} = b_n - e n c_n.  The group substitution a -> a (1 + e b) + b is
carried out exactly on the truncation, and the change to and from the
additive coordinate log(1 + e a)/e is one integer matrix of Stirling numbers
times powers of e; `dp_compose` is the general composition.  The product,
the substitution and the coordinate change each pack their series once, at
the least shift and the smallest modulus p^R, into Kronecker blocks of one
integer (`LocalField._pack_blocks`), multiply, and reduce each output degree
once (`_reduce_blocks`); two bounded series whose products all reach K.prec
skip the degree-by-degree precisions.  Their b^k/k!, (1 + e b)^m and e^j, and
log_t's (-e)^(n-1) (n-1)!, are LocalField.powers sequences; n! is factorials'.

Coefficients are only guaranteed through `valid_to`: applying theta loses the
top degree, since the incoming coefficient above the truncation is unknown.
"""

from __future__ import annotations

from .errors import ConvergenceError, UsageError
from .field import FieldElement, LocalField
from .padic import PadicScalar, factorials, vp_int


class DPSeries:
    """sum c_n a^n/n! for n <= trunc, coefficients in a local field."""

    __slots__ = ("field", "e", "trunc", "coeffs", "valid_to")

    def __init__(self, field: LocalField, coeffs, e: FieldElement | None = None,
                 valid_to: int | None = None):
        self.field = field
        self.e = field.different_e if e is None else e
        if self.e.is_zero():
            raise UsageError("the twist parameter e must be nonzero")
        self.coeffs = tuple(coeffs)
        self.trunc = len(self.coeffs) - 1
        self.valid_to = self.trunc if valid_to is None else min(valid_to, self.trunc)
        if self.trunc < 0:
            raise UsageError("a series needs at least the constant coefficient")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, field, trunc):
        return cls(field, [field.zero()] * (trunc + 1))

    @classmethod
    def one(cls, field, trunc, e=None):
        coeffs = [field.one()] + [field.zero()] * trunc
        return cls(field, coeffs, e=e)

    @classmethod
    def from_ints(cls, field, ints, trunc):
        coeffs = [field.from_int(c) for c in ints]
        coeffs += [field.zero()] * (trunc + 1 - len(coeffs))
        return cls(field, coeffs[:trunc + 1])

    # -- queries ----------------------------------------------------------------

    def eq_to_precision(self, other, through: int | None = None) -> bool:
        self._check_compatible(other)
        limit = min(self.valid_to, other.valid_to)
        if through is not None:
            limit = min(limit, through)
        return all((self.coeffs[n] - other.coeffs[n]).is_zero()
                   for n in range(limit + 1))

    def _check_compatible(self, other):
        if self.field is not other.field:
            raise UsageError("series live over different fields")
        if not (self.e - other.e).is_zero():
            raise UsageError("series carry different twist parameters e")

    def __repr__(self):
        return f"DPSeries(trunc={self.trunc}, valid_to={self.valid_to})"


def _low(xs):
    """The least shift of the nonzero elements of xs; 0 when there are none."""
    return min((x.shift for x in xs if not x.is_zero()), default=0)


def dp_mul(f: DPSeries, g: DPSeries) -> DPSeries:
    """(f g)_n = sum_{i+j=n} C(n, i) f_i g_j as one packed integer product.

    With i! = p^(v_i) u_i, (f g)_n = p^(v_n) u_n sum_{i+j=n} (f_i/i!)(g_j/j!):
    f_i = p^(s_i) a_i fills block i (len(table) Kronecker slots) of one
    integer with p^(s_i - v_i + c i - m_f) u_i^-1 a_i mod p^R, m_f the least
    s_i - v_i + c i, and g likewise; after one multiplication block n carries
    the weight p^(c n), so it is reduced once through the table modulo p^R and,
    times u_n, has shift m_f + m_g + v_n - c n.  The weight c in {0, 1} is the
    one of smaller R: v_i < i makes c = 1 undo most of the p^(-v_i) at p <= 3.
    Degree n gets the sequential sum's precision: the least over i of
    __mul__'s for f_i g_(n-i), `LocalField._reach`, under LocalField.dot's
    rule for the scalar C(n, i); when the bounds of f and g show every product
    reaching N with v(f_i g_j) >= 0, that is N.  R is the most any degree
    needs.  The table is exact to p^(M + e_ram), and by the cap of `_reach`
    each precision is within M of its terms' least valuation.  Reduction is
    linear and an element is canonical modulo p^prec, so every coefficient is
    the sequential sum's.
    """
    f._check_compatible(g)
    K = f.field
    p, e, N = K.p, K.e_ram, K.prec
    trunc = min(f.trunc, g.trunc)
    fs, gs = f.coeffs[:trunc + 1], g.coeffs[:trunc + 1]
    vfact = [0]                                     # v_p(n!)
    for n in range(1, trunc + 1):
        vfact.append(vfact[-1] + vp_int(n, p))
    fb, gb = K._bound(fs), K._bound(gs)
    if K._reach(fb, gb) >= N and fb[1] + gb[1] >= 0:
        precs = [N] * (trunc + 1)
    else:
        fdata, gdata = ([(x.prec, x._v(), x.shift) for x in xs] for xs in (fs, gs))
        precs = []
        for n, vn in enumerate(vfact):
            q = N
            for i, x in enumerate(fdata[:n + 1]):
                y, r = gdata[n - i], K._reach(x, gdata[n - i])
                # v_p C(n, i) by Kummer; the scalar has K.prec digits
                q = min(q, r + vn - vfact[i] - vfact[n - i], N + min(r, (x[1] + y[1]) // e))
            precs.append(q)

    def modulus(c):                 # R, c and m_f, m_g under the weight p^(c i)
        lows = [min((x.shift - v + c * i for i, (x, v) in enumerate(zip(xs, vfact))
                     if not x.is_zero()), default=0) for xs in (fs, gs)]
        return max([1] + [q - sum(lows) - v + c * n
                          for n, (q, v) in enumerate(zip(precs, vfact))]), c, lows

    R, c, lows = min(modulus(0), modulus(1))
    _, units, inverses = factorials(p, trunc, p ** R)   # n! = p^vfact[n] units[n]
    w = K._block_width(R, trunc + 1)
    prod = 1
    for xs, low in zip((fs, gs), lows):
        prod *= K._pack_blocks([(x, x.shift - v + c * i - low, inverse) for i, (x, v, inverse)
                                in enumerate(zip(xs, vfact, inverses))], R, w)
    out = [FieldElement(K, [a * u for a in block], sum(lows) + v - c * n, q)
           for n, (block, q, v, u) in enumerate(zip(K._reduce_blocks(prod, R, w, trunc + 1),
                                                     precs, vfact, units))]
    return DPSeries(K, out, e=f.e, valid_to=min(f.valid_to, g.valid_to, trunc))


def sen_theta(f: DPSeries) -> DPSeries:
    """theta(f)_n = c_{n+1} + e n c_n; the top output degree is incomplete."""
    out = []
    for n in range(f.trunc + 1):
        term = f.e * f.coeffs[n] * n
        if n + 1 <= f.trunc:
            term = term + f.coeffs[n + 1]
        out.append(term)
    return DPSeries(f.field, out, e=f.e, valid_to=min(f.valid_to, f.trunc) - 1)


def solve_theta(g: DPSeries) -> DPSeries:
    """The unique preimage with zero constant term: c_{n+1} = b_n - e n c_n."""
    out = [g.field.zero()]
    for n in range(g.trunc):
        out.append(g.coeffs[n] - g.e * out[n] * n)
    return DPSeries(g.field, out, e=g.e, valid_to=min(g.valid_to + 1, g.trunc))


def theta_matrix(field: LocalField, trunc: int):
    """Matrix of theta on the degree-<=trunc polynomial part, basis a^n/n!.

    Column n carries theta(a^n/n!) = a^{n-1}/(n-1)! + e n a^n/n!, so the only
    nonzero entries are [n][n] = e n and [n-1][n] = 1.
    """
    d = trunc + 1
    m = [[field.zero() for _ in range(d)] for _ in range(d)]
    for n in range(d):
        m[n][n] = field.different_e * n
        if n >= 1:
            m[n - 1][n] = field.one()
    return m


def coaction(f: DPSeries, b: FieldElement) -> DPSeries:
    """Substitution a -> a (1 + e b) + b, exact on the stored polynomial.

    Output degree m is (1 + e b)^m sum_k c_{m+k} b^k / k!, a finite sum here:
    the correlation is one packed integer product of the c_i, block trunc - i,
    by the b^k/k!, block k, each at its least shift, so block trunc - m holds
    degree m's sum, reduced once through the table.  Its precision is
    LocalField.dot's: K.prec, or less when some product's `_reach` is; K.prec
    outright when the two series' bounds show every product reaching it.
    The monitor rejects b of nonpositive valuation whose term valuations keep
    falling, since then the truncated sum no longer tracks the completed one.
    """
    K = f.field
    b = b if isinstance(b, FieldElement) else K.from_scalar(b)
    _monitor_coaction_tail(f, b)
    c, trunc, N = f.coeffs, f.trunc, K.prec
    b_over_fact = K.powers(b, trunc, -1)
    if K._reach(K._bound(c), K._bound(b_over_fact)) >= N:
        precs = [N] * (trunc + 1)
    else:
        cdata, bdata = ([(x.prec, x._v(), x.shift) for x in xs] for xs in (c, b_over_fact))
        precs = [min([N] + [K._reach(x, y) for x, y in zip(cdata[m:], bdata)])
                 for m in range(trunc + 1)]
    lc, lb = _low(c), _low(b_over_fact)
    R = max(1, max(precs) - lc - lb)
    w = K._block_width(R, trunc + 1)
    sums = K._reduce_blocks(K._pack_blocks([(x, x.shift - lc, 1) for x in reversed(c)], R, w)
                            * K._pack_blocks([(x, x.shift - lb, 1) for x in b_over_fact], R, w),
                            R, w, trunc + 1)
    scales = K.powers(K.one() + f.e * b, trunc)
    out = [FieldElement(K, sums[trunc - m], lc + lb, q) * scale
           for m, (q, scale) in enumerate(zip(precs, scales))]
    return DPSeries(K, out, e=f.e, valid_to=f.valid_to)


def _monitor_coaction_tail(f: DPSeries, b: FieldElement):
    exact, vb = b.pivot_val()
    if not exact or vb > 0:
        return
    p = f.field.p
    vals = [c.val_bound() + k * vb - v
            for k, (c, v) in enumerate(zip(f.coeffs, factorials(p, f.trunc, p)[0]))]
    tail = vals[-max(5, p):]
    if any(tail[i] > tail[i + 1] for i in range(len(tail) - 1)):
        raise ConvergenceError(
            "coaction terms keep growing for v(b) = %s <= 0; the truncated sum "
            "does not approximate the completed algebra" % vb,
            concept="coaction convergence monitor")


def log_t(field: LocalField, trunc: int, e: FieldElement | None = None) -> DPSeries:
    """The additive coordinate log(1 + e a)/e: coefficients (-e)^(n-1) (n-1)!.

    It solves theta(f) = 1 with zero constant term; e * log_t is log(1 + e a).
    """
    if trunc < 0:
        raise UsageError("truncation must be >= 0")
    e = field.different_e if e is None else e
    return DPSeries(field, ([field.zero()] + field.powers(-e, trunc - 1, 1))[:trunc + 1], e=e)


def dp_compose(f: DPSeries, phi: DPSeries) -> DPSeries:
    """f(phi(a)) for phi with zero constant term; degree-filtered, hence exact.

    Uses divided powers gamma_k(phi) = phi^k / k!, whose coefficients stay
    integral whenever phi's do; the division by k is exact in that case.
    """
    f._check_compatible(phi)
    if not phi.coeffs[0].is_zero():
        raise UsageError("composition requires a zero constant term")
    trunc = min(f.trunc, phi.trunc)
    valid = min(f.valid_to, phi.valid_to)
    K = f.field
    gammas = [DPSeries.one(K, trunc, e=f.e)]
    for n in range(1, trunc + 1):
        gammas.append(DPSeries(K, [c / n for c in dp_mul(gammas[-1], phi).coeffs], e=f.e))
    # gamma_n has no term below a^n, so coefficient m sums over n = 1..m
    out = [K.dot(f.coeffs[1:m + 1], [g.coeffs[m] for g in gammas[1:m + 1]],
                 K.zero() if m else f.coeffs[0]) for m in range(trunc + 1)]
    return DPSeries(K, out, e=f.e, valid_to=valid)


def gsharp_transport(f: DPSeries, direction: str) -> DPSeries:
    """f in the coordinate t = log(1 + e a)/e of G^sharp, where theta = d/dt
    ("to_gsharp"), or back through a = (exp(e t) - 1)/e ("from_gsharp").

    t^k/k! = sum_m T(m, k) e^(m-k) a^m/m!, T the signed Stirling numbers of
    the first kind (of the second kind back), so output m is c_m + sum_j e^j
    V_j with no division; T(2, 1) e is not integral when v(e) < 0.  V_j holds
    T(m, m - j) c_(m-j) in block m of one packed integer, so each j costs one
    multiplication by the packed e^j, and block m is reduced once through the
    table.  Degree m >= 1 is known to the least of K.prec, c_m's precision and
    each `_reach` of c_k by e^j T (from `_scalar_product`), unless the bounds
    of the c_k and e^j show every product reaching K.prec.
    """
    if direction not in ("to_gsharp", "from_gsharp"):
        raise UsageError("direction must be 'to_gsharp' or 'from_gsharp'")
    if f.trunc >= 2 and f.e.val_bound() < 0:
        raise ConvergenceError(
            "coordinate-change series is not integral for this e; transport "
            "is not defined on the divided-power lattice",
            concept="divided-power integrality")
    K, c, trunc, first_kind = f.field, f.coeffs, f.trunc, direction == "to_gsharp"
    p, e, N = K.p, K.e_ram, K.prec
    e_pow = K.powers(f.e, trunc - 1)                  # e^j for j < trunc
    rows = [[1]]
    for m in range(1, trunc + 1):
        # s(m, k) = s(m-1, k-1) - (m-1) s(m-1, k); S(m, k) = S(m-1, k-1) + k S(m-1, k)
        rows.append([0] + [rows[-1][k - 1] + (1 - m if first_kind else k) * rows[-1][k]
                           for k in range(1, m)] + [1])
    precs = [N] * (trunc + 1)
    if trunc >= 2:
        # e^j T has precision min(e N_(e^j) + e v(T), e N + v(e^j)) // e >= P
        eb = K._bound(e_pow[1:])
        P = min(eb[0], (e * N + eb[1]) // e)
        if K._reach(K._bound(c[1:trunc]), (P, min(eb[1], e * P), min(eb[2], P))) < N:
            cdata = [(x.prec, x._v(), x.shift) for x in c]
            for m in range(2, trunc + 1):
                for k in range(1, m):
                    x, s = e_pow[m - k], PadicScalar.from_int(rows[m][k], p, N)
                    t, r = K._scalar_product(x, s)
                    y = (r, x._v() + e * s.val, t) if t < r else (r, e * r, r)
                    precs[m] = min(precs[m], K._reach(cdata[k], y))
    precs = [min(q, x.prec) for q, x in zip(precs, c)]
    lc, le = _low(c[1:]), min(0, _low(e_pow[1:]))
    R = max([1] + [q - lc - le for q in precs[1:]])
    w = K._block_width(R, trunc + 1)
    size = K._block_bits(w)
    total = K._pack_blocks([(x, x.shift - lc - le, 1) for x in c[1:]], R, w) << size
    for j in range(1, trunc):
        total += K._pack_blocks([(e_pow[j], e_pow[j].shift - le, 1)], R, w) * (K._pack_blocks(
            [(c[m - j], c[m - j].shift - lc, rows[m][m - j]) for m in range(j + 1, trunc + 1)],
            R, w) << (j + 1) * size)
    out = [FieldElement(K, block, lc + le, q)
           for block, q in zip(K._reduce_blocks(total, R, w, trunc + 1)[1:], precs[1:])]
    return DPSeries(K, [c[0]] + out, e=f.e, valid_to=f.valid_to)
