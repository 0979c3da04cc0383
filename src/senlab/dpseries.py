"""Truncated divided-power algebra over O_K with its Sen derivation.

Series are stored against the basis a^n/n!, so the product is the binomial
convolution  (f g)_n = sum_{i+j=n} C(n, i) f_i g_j = n! sum (f_i/i!)(g_j/j!),
which `dp_mul` computes as one packed integer product.  The derivation

    theta = (1 + e a) d/da,      theta(f)_n = c_{n+1} + e n c_n,

has the constants as kernel and is inverted degree by degree via
c_{n+1} = b_n - e n c_n.  The group substitution a -> a (1 + e b) + b is
carried out exactly on the truncation, and the change to and from the
additive coordinate log(1 + e a)/e is one integer matrix of Stirling numbers
times powers of e; `dp_compose` is the general composition.

Coefficients are only guaranteed through `valid_to`: applying theta loses the
top degree, since the incoming coefficient above the truncation is unknown.
"""

from __future__ import annotations

from .errors import ConvergenceError, UsageError
from .field import FieldElement, LocalField
from .padic import vp_int


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


def dp_mul(f: DPSeries, g: DPSeries) -> DPSeries:
    """(f g)_n = sum_{i+j=n} C(n, i) f_i g_j as one packed integer product.

    With i! = p^(v_i) u_i, (f g)_n = p^(v_n) u_n sum_{i+j=n} (f_i/i!)(g_j/j!):
    f_i = p^(s_i) a_i fills block i (len(table) Kronecker slots) of one
    integer with p^(s_i - v_i - m_f) u_i^-1 a_i mod p^R, m_f the least
    s_i - v_i, and g likewise; after one multiplication block n is reduced
    once through the table modulo p^R and, times u_n, has shift m_f + m_g + v_n.
    Degree n gets the sequential sum's precision: the least over i of
    __mul__'s for f_i g_(n-i), with its cap at shift + M above degree 1, under
    LocalField.dot's rule for the scalar C(n, i); R is the most any degree needs.
    The table is exact to p^(M + e_ram), and by that cap each precision is
    within M of its terms' least valuation s_i + s_j + v_p C(n, i); the slots
    hold the sums, below (trunc + 1) d p^(2R), and the reduction's, below
    len(table) p^(R + M + e_ram).  Reduction is linear and an element is
    canonical modulo p^prec, so every coefficient is the sequential sum's.
    """
    f._check_compatible(g)
    K = f.field
    p, e, d, M, N = K.p, K.e_ram, K.degree, K.table_prec, K.prec
    trunc = min(f.trunc, g.trunc)
    fs, gs = f.coeffs[:trunc + 1], g.coeffs[:trunc + 1]
    vfact, units = [0], [1]                         # n! = p^vfact[n] units[n]
    for n in range(1, trunc + 1):
        k = vp_int(n, p)
        vfact.append(vfact[-1] + k)
        units.append(units[-1] * (n // p ** k))
    fdata, gdata = ([(x.prec, x._v(), x.shift, v) for x, v in zip(xs, vfact)] for xs in (fs, gs))
    precs = []
    for n, vn in enumerate(vfact):
        q = N
        for (xp, vx, sx, wx), (yp, vy, sy, wy) in zip(fdata, reversed(gdata[:n + 1])):
            r, r2 = e * xp + vy, e * yp + vx           # f_i g_j has precision r
            r = (r if r < r2 else r2) // e
            if d > 1 and r > sx + sy + M:
                r = sx + sy + M
            t = r + vn - wx - wy                       # v_p C(n, i) by Kummer
            if t < q:
                q = t
            z = (vx + vy) // e                         # the scalar has K.prec digits
            t = N + (r if r < z else z)
            if t < q:
                q = t
        precs.append(q)
    lows = [min((x.shift - v for x, v in zip(xs, vfact) if not x.is_zero()), default=0)
            for xs in (fs, gs)]
    R = max(1, max(q - sum(lows) - v for q, v in zip(precs, vfact)))
    mod = p ** R
    last_inverse = pow(units[-1], -1, mod)
    inverses = [last_inverse * (units[-1] // u) % mod for u in units]
    L = len(K._table)
    w = -(-(mod * max((trunc + 1) * d * mod, L * K._table_mod)).bit_length() // 64) * 64

    def packed(xs, low):
        blocks = []
        for x, v, inverse in zip(xs, vfact, inverses):
            block, k = 0, x.shift - v - low
            if k < R and not x.is_zero():
                scale = p ** k * inverse
                for a, slot in zip(x.vec, K._slots):
                    block |= a * scale % mod << w * slot
            blocks.append(block.to_bytes(L * w // 8, "little"))
        return int.from_bytes(b"".join(blocks), "little")

    prod, mask, out = packed(fs, lows[0]) * packed(gs, lows[1]), (1 << L * w) - 1, []
    for q, v, u in zip(precs, vfact, units):
        out.append(FieldElement(K, [c * u for c in K._reduce(prod & mask, w, mod)],
                                sum(lows) + v, q))
        prod >>= L * w
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

    Output degree m is (1 + e b)^m sum_k c_{m+k} b^k / k!, a finite sum here.
    The monitor rejects b of nonpositive valuation whose term valuations keep
    falling, since then the truncated sum no longer tracks the completed one.
    """
    K = f.field
    b = b if isinstance(b, FieldElement) else K.from_scalar(b)
    _monitor_coaction_tail(f, b)
    one_plus_eb = K.one() + f.e * b
    b_over_fact = [K.one()]
    for k in range(1, f.trunc + 1):
        b_over_fact.append(b_over_fact[-1] * b / k)
    out = []
    scale = K.one()
    for m in range(f.trunc + 1):
        out.append(K.dot(f.coeffs[m:], b_over_fact, K.zero()) * scale)
        scale = scale * one_plus_eb
    return DPSeries(K, out, e=f.e, valid_to=f.valid_to)


def _monitor_coaction_tail(f: DPSeries, b: FieldElement):
    exact, vb = b.pivot_val()
    if not exact or vb > 0:
        return
    p = f.field.p
    window = max(5, p)
    vals = []
    vfact = 0
    for k in range(f.trunc + 1):
        if k:
            vfact += vp_int(k, p)
        c = f.coeffs[k]
        vals.append(c.val_bound() + k * vb - vfact)
    tail = vals[-window:]
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
    coeffs = [field.zero()]
    cur = field.one()
    for n in range(1, trunc + 1):
        coeffs.append(cur)
        cur = cur * (-e) * n
    return DPSeries(field, coeffs, e=e)


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
    the first kind (of the second kind back), so output m is sum_k c_k T(m, k)
    e^(m-k), with no division; T(2, 1) e is not integral when v(e) < 0.
    """
    if direction not in ("to_gsharp", "from_gsharp"):
        raise UsageError("direction must be 'to_gsharp' or 'from_gsharp'")
    if f.trunc >= 2 and f.e.val_bound() < 0:
        raise ConvergenceError(
            "coordinate-change series is not integral for this e; transport "
            "is not defined on the divided-power lattice",
            concept="divided-power integrality")
    K, c, first_kind = f.field, f.coeffs, direction == "to_gsharp"
    e_pow = [K.one()]
    for _ in range(f.trunc):
        e_pow.append(e_pow[-1] * f.e)
    row, out = [1], [c[0]]
    for m in range(1, f.trunc + 1):
        # s(m, k) = s(m-1, k-1) - (m-1) s(m-1, k); S(m, k) = S(m-1, k-1) + k S(m-1, k)
        row = [0] + [row[k - 1] + (1 - m if first_kind else k) * row[k]
                     for k in range(1, m)] + [1]
        out.append(K.dot(c[1:m], [e_pow[m - k] * row[k] for k in range(1, m)], K.zero()) + c[m])
    return DPSeries(K, out, e=f.e, valid_to=f.valid_to)
