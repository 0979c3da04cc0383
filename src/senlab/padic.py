"""Exact arithmetic in Q_p at finite absolute precision.

A scalar is p^val * unit with the unit part kept modulo p^(prec - val).  A
known-nonzero scalar has val < prec and a unit prime to p; a scalar zero to
precision, meaning the element is 0 modulo p^prec and nothing more is known,
stores val = prec and unit = 0, as a FieldElement stores shift = prec.  All
arithmetic propagates the largest absolute precision the operands justify,
and each rule reads v = prec for a zero:

    add/sub : min(N_x, N_y)
    mul     : min(N_x + v(y), N_y + v(x))
    div     : min(N_x - v(y), N_y + v(x) - 2 v(y))

Valuations are normalized by v(p) = 1.  The module also provides the one
square-and-multiply `power` (for scalars, field elements, coordinate
vectors, F_p polynomials and matrices), the one sequence x^k, x^k k! or
x^k/k! (`power_sequence`: the element chain's precisions as integers, k!'s
units from the one inverse of `factorials`), the one series stop rule
`series_converged`, exp and log (with their convergence balls, each summed
as one integer modulo p^prec) and Newton polygons with slopes reported as
root valuations; a left end whose coefficients are zero to precision is one
slope entry with a lower bound.  A sum of products is LocalField.dot over K
and senlab.gamma's integer block kernels over Q_p.

Every convergent series is summed with an a priori stop rule: each term comes
with a proven lower bound on the valuation of every later term, and summation
stops once that bound reaches the target precision, or the precision of every
entry of the partial sum, so no dropped term can change a reported digit.
exp's terms x^k/k! take the inverses of the units of k! from `factorials`:
one modular inverse a sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from .errors import DomainError, PrecisionError, UsageError

DEFAULT_PRECISION = 50

# Miller-Rabin witnesses; deterministic for every n < 3.3 * 10^24.
_PRIME_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def require_prime(p) -> None:
    """Raise UsageError unless p is a prime (checked before any arithmetic)."""
    if p in _PRIME_WITNESSES:
        return
    if p < 2 or any(p % q == 0 for q in _PRIME_WITNESSES):
        raise UsageError("p = %d is not a prime" % p, concept="residue characteristic")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise UsageError("p = %d is not a prime" % p, concept="residue characteristic")


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(x: Fraction, p: int) -> int:
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def fraction_mod(x: Fraction, p: int, prec: int) -> int:
    """Reduce a p-integral rational modulo p^prec."""
    num, den = x.numerator, x.denominator
    if den % p == 0:
        raise ValueError("fraction is not p-integral")
    m = p ** prec
    return (num % m) * pow(den % m, -1, m) % m


def power(x, n: int, mul, one):
    """x^n for n >= 0 by square-and-multiply: `one` at n = 0, else x itself
    is the first factor, so it takes bit_length + popcount - 2 products."""
    result = None
    while n:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if result is None else result


def factorials(p, n, m):
    """v_p(k!), the unit part u_k of k! and u_k^-1, both modulo m, for
    0 <= k <= n: one modular inverse, of u_n, walked down by the unit parts
    of k."""
    vals, units, parts = [0], [1], [1]
    for k in range(1, n + 1):
        v = vals[-1]
        while k % p == 0:
            k, v = k // p, v + 1
        vals.append(v)
        parts.append(k)
        units.append(units[-1] * k % m)
    inverses = [pow(units[n], -1, m)]
    for k in range(n, 0, -1):
        inverses.append(inverses[-1] * parts[k] % m)
    return vals, units, inverses[::-1]


def reciprocals(p, rel, n, factorial):
    """1/k! for 0 <= k <= n, or 1/k for 1 <= k <= n, each a scalar over p
    known to rel digits past its valuation, from `factorials`."""
    m = p ** rel
    vals, units, inverses = factorials(p, n, m)
    if factorial:
        return [PadicScalar(p, -v, w, rel - v) for v, w in zip(vals, inverses)]
    return [PadicScalar(p, vals[k - 1] - vals[k], inverses[k] * units[k - 1] % m,
                        rel - vals[k] + vals[k - 1]) for k in range(1, n + 1)]


def power_sequence(p, x, n, N, factorial, mul, e=1, cap=inf):
    """(vec, shift, prec, v in 1/e) of x^k, x^k k! (factorial 1) or x^k/k!
    (-1), k <= n, as the chain from 1 at N digits gives them: a step is a
    product by x (at most `cap` digits past its shift) and one by or over the
    scalar k at N digits, by the element rules; vec = () and v = e prec for a
    zero.  x = (vec, shift, prec, v), mul(a, b, m) a product modulo m.  The
    precisions and valuations are an integer recurrence; each x^k is one
    product, times u_k or u_k^-1, and its vector, of valuation v - e shift
    < e, is primitive."""
    xvec, xs, xp, xv = x
    vals, units, inverses = factorials(p, n if factorial else 0, p ** N)
    scales = units if factorial > 0 else inverses
    one = (1,) + (0,) * (len(xvec) - 1)
    out, V, P, xk, ex, eN = [(one, 0, N, 0)], 0, N, one, e * xp, e * N
    for k in range(1, n + 1):
        P = min(min(e * P + xv, ex + V) // e, V // e + xs + cap)
        V = min(V + xv, e * P)                          # a zero has v = e N_x
        if factorial:
            vk = min(vals[k] - vals[k - 1], N)
            if vk == N and factorial < 0:
                raise PrecisionError("division by a scalar that is zero to precision %d" % N)
            P = min(P + factorial * vk, (eN + V) // e - (factorial < 0) * 2 * vk)
            V = min(V + factorial * e * vk, e * P)
        if V == e * P:
            out.append(((), P, P, V))
            continue
        # x^k = p^(k v // e) xk, xk formed modulo p^rel times p^d
        m, d = p ** (P - V // e), k * xv // e - (k - 1) * xv // e - xs
        xk = [c // p ** d for c in mul(xk, xvec, m * p ** d)] if d else mul(xk, xvec, m)
        out.append(([c * scales[k] % m for c in xk] if factorial else xk, V // e, P, V))
    return out


class PadicScalar:
    """An element of Q_p known modulo p^prec."""

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p, val, unit, prec):
        self.p = p
        self.val = val          # prec for zero-to-precision: a lower bound
        self.unit = unit        # 0 for zero-to-precision
        self.prec = prec

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, prec: int = DEFAULT_PRECISION) -> "PadicScalar":
        return cls(p, prec, 0, prec)

    @classmethod
    def one(cls, p: int, prec: int = DEFAULT_PRECISION) -> "PadicScalar":
        """1 known modulo p^prec: zero to precision when prec <= 0."""
        return cls(p, 0, 1, prec) if prec > 0 else cls.zero(p, prec)

    @classmethod
    def from_residue(cls, p: int, residue: int, prec: int, shift: int = 0) -> "PadicScalar":
        """The scalar p^shift * residue known modulo p^prec, so residue is
        read modulo p^(prec - shift); shift may be negative."""
        rel = prec - shift
        residue = residue % p ** rel if rel > 0 else 0
        if not residue:
            return cls.zero(p, prec)
        v = vp_int(residue, p)
        return cls(p, shift + v, residue // p ** v, prec)

    @classmethod
    def from_int(cls, n: int, p: int, prec: int = DEFAULT_PRECISION) -> "PadicScalar":
        return cls.from_residue(p, n, prec)

    @classmethod
    def from_fraction(cls, x: Fraction, p: int, prec: int = DEFAULT_PRECISION) -> "PadicScalar":
        """Exact rational at absolute precision prec; denominator may carry p."""
        x = Fraction(x)
        if x == 0:
            return cls.zero(p, prec)
        v = vp_fraction(x, p)
        unit_frac = x / Fraction(p) ** v
        rel = prec - v
        if rel <= 0:
            return cls.zero(p, prec)
        unit = fraction_mod(unit_frac, p, rel)
        return cls(p, v, unit, prec)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        """Zero to the stored precision."""
        return not self.unit

    def valuation(self):
        """Exact valuation, or None when only the bound >= prec is known."""
        return self.val if self.unit else None

    def val_bound(self) -> int:
        """Exact valuation for known-nonzero, else the lower bound prec."""
        return self.val

    def pivot_val(self):
        """(is_exact, value) pair used by valuation-pivoted elimination."""
        return (bool(self.unit), Fraction(self.val))

    def rel_prec(self) -> int:
        return self.prec - self.val if self.unit else self.prec

    def lift(self) -> int:
        """Canonical integer representative modulo p^prec (val >= 0 only)."""
        if not self.unit:
            return 0
        if self.val < 0:
            raise ValueError("lift of a non-integral scalar")
        return (self.p ** self.val * self.unit) % self.p ** self.prec

    def residue(self) -> int:
        """Image in F_p; requires val >= 0 and one known digit."""
        if self.unit and self.val < 0:
            raise DomainError("residue of an element of negative valuation")
        if self.prec < 1:
            raise PrecisionError("no digit available for residue")
        return self.unit % self.p if self.val == 0 else 0

    def truncated(self, prec: int) -> "PadicScalar":
        prec = min(prec, self.prec)
        if self.val >= prec:
            return PadicScalar.zero(self.p, prec)
        return PadicScalar(self.p, self.val, self.unit % self.p ** (prec - self.val), prec)

    # -- arithmetic --------------------------------------------------------

    def _check_same_p(self, other: "PadicScalar") -> None:
        if self.p != other.p:
            raise UsageError("cannot mix scalars over different primes")

    def __neg__(self):
        return PadicScalar(self.p, self.val, -self.unit % self.p ** (self.prec - self.val),
                           self.prec)

    def __add__(self, other):
        if not isinstance(other, PadicScalar):
            if not isinstance(other, int):
                return NotImplemented
            other = PadicScalar.from_int(other, self.p, self.prec)
        self._check_same_p(other)
        p = self.p
        n = min(self.prec, other.prec)
        known = [t for t in (self, other) if t.val < n]
        if not known:
            return PadicScalar.zero(p, n)
        m = min(t.val for t in known)
        return PadicScalar.from_residue(p, sum(p ** (t.val - m) * t.unit for t in known), n, m)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if not isinstance(other, PadicScalar):
            if not isinstance(other, int):
                return NotImplemented
            other = PadicScalar.from_int(other, self.p, self.prec)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, PadicScalar):
            if not isinstance(other, int):
                return NotImplemented
            other = PadicScalar.from_int(other, self.p, self.prec)
        self._check_same_p(other)
        v = self.val + other.val
        rel = min(self.prec - self.val, other.prec - other.val)
        if not rel:             # a zero operand: the product is O(p^v)
            return PadicScalar.zero(self.p, v)
        unit = self.unit * other.unit % self.p ** rel
        return PadicScalar(self.p, v, unit, v + rel)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if not isinstance(other, PadicScalar):
            if not isinstance(other, int):
                return NotImplemented
            other = PadicScalar.from_int(other, self.p, self.prec)
        self._check_same_p(other)
        if not other.unit:
            raise PrecisionError(
                "division by a scalar that is zero to precision %d" % other.prec)
        v = self.val - other.val
        rel = min(self.prec - self.val, other.prec - other.val)
        if not rel:             # a zero numerator: the quotient is O(p^v)
            return PadicScalar.zero(self.p, v)
        unit = self.unit * pow(other.unit, -1, self.p ** rel) % self.p ** rel
        return PadicScalar(self.p, v, unit, v + rel)

    def inverse(self):
        return PadicScalar.one(self.p, self.prec).__truediv__(self)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, PadicScalar.__mul__, PadicScalar.one(self.p, self.rel_prec()))

    # Two scalars are equal when they agree on the coarser stored window.
    def __eq__(self, other):
        if isinstance(other, int):
            other = PadicScalar.from_int(other, self.p, self.prec)
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        if not self.unit:
            return f"O({self.p}^{self.prec})"
        return f"{self.p}^{self.val}*{self.unit} + O({self.p}^{self.prec})"


# ---------------------------------------------------------------------------
# series summation
# ---------------------------------------------------------------------------

def series_converged(tail, target_prec, precs):
    """The one stop rule: the tail bound reaches target_prec or every precision in precs."""
    return tail >= target_prec or tail >= max(precs)


def exp_domain_threshold(p: int) -> int:
    """Smallest integer valuation inside the exponential's convergence ball.

    The ball is v(x) > alpha with alpha = 1/(p-1) for p odd and the
    exponential over Q_2 converging only for v(x) >= 2.
    """
    return 2 if p == 2 else 1


def padic_exp(x: PadicScalar) -> PadicScalar:
    """exp(x) = sum x^n / n!, defined for v(x) above the convergence radius."""
    p, prec = x.p, x.prec
    if x.is_zero():
        return PadicScalar.one(p, prec)
    threshold = exp_domain_threshold(p)
    if x.val < threshold:
        raise DomainError(
            "exp requires v(x) > alpha = %s (v(x) >= %d for p = %d); got v(x) = %d"
            % (Fraction(1, p - 1), threshold, p, x.val),
            concept="convergence radius alpha")
    modulus = p ** prec
    # x^k/k! = p^(k v(x) - v(k!)) x.unit^k u_k^-1 exactly modulo p^prec: the sum
    # is one integer.  Term m has valuation >= m v(x) - (m-1)/(p-1), increasing
    # in m inside the ball; valuations are integers, so every term after the
    # n-th has valuation >= (n+1) v(x) - floor(n/(p-1)).
    n = 0
    while not series_converged((n + 1) * x.val - n // (p - 1), prec, (prec,)):
        n += 1
    vals, _, inverses = factorials(p, n, modulus)
    total, unit = 1, 1
    for k in range(1, n + 1):
        unit = unit * x.unit % modulus
        total += unit * inverses[k] * p ** (k * x.val - vals[k])
    return PadicScalar.from_residue(p, total, prec)


def padic_log(x: PadicScalar) -> PadicScalar:
    """log(x) = sum (-1)^(n-1) (x-1)^n / n, defined for v(x-1) >= 1."""
    p, prec = x.p, x.prec
    u = x - PadicScalar.one(p, prec)
    if u.is_zero():
        return PadicScalar.zero(p, prec)
    if u.val < 1:
        raise DomainError(
            "log requires v(x - 1) >= 1; got v(x - 1) = %d" % u.val,
            concept="logarithm domain 1 + pZ_p")
    modulus = p ** prec
    # -(-u)^n/n = p^(n v(u) - v_p(n)) * unit, exactly modulo p^prec, summed as
    # one integer.  v(u^m/m) >= m v(u) - floor(log_p m), nondecreasing in m
    # for v(u) >= 1.
    total, power, n = 0, 1, 0
    log_next = 0                # floor(log_p (n + 1))
    while True:
        n += 1
        power = -power * u.unit % modulus
        k = vp_int(n, p)
        if p ** (log_next + 1) <= n + 1:
            log_next += 1
        total -= power * pow(n // p ** k, -1, modulus) * p ** (n * u.val - k)
        if series_converged((n + 1) * u.val - log_next, prec, (prec,)):
            return PadicScalar.from_residue(p, total, prec)


# ---------------------------------------------------------------------------
# Newton polygons
# ---------------------------------------------------------------------------

class PolygonSlope:
    """One slope entry: `mult` roots of valuation `value` (>= value if not exact)."""

    __slots__ = ("value", "mult", "exact")

    def __init__(self, value: Fraction, mult: int, exact: bool = True):
        self.value = Fraction(value)
        self.mult = mult
        self.exact = exact

    def __repr__(self):
        tag = "" if self.exact else ">="
        return f"Slope({tag}{self.value} x{self.mult})"

    def __eq__(self, other):
        return (self.value, self.mult, self.exact) == (other.value, other.mult, other.exact)


class NewtonPolygon:
    """Lower convex hull of (i, v(c_i)); slopes are root valuations."""

    def __init__(self, vertices, slopes):
        self.vertices = tuple(vertices)      # [(index, Fraction valuation)]
        self.slopes = tuple(slopes)          # [PolygonSlope], root vals descending

    def slope_multiset(self):
        """Sorted list of exact root valuations with multiplicity."""
        out = []
        for s in self.slopes:
            if s.exact:
                out.extend([s.value] * s.mult)
        return sorted(out)

    def all_slopes_positive(self) -> bool:
        for s in self.slopes:
            if s.exact and s.value <= 0:
                return False
            if not s.exact and s.value <= 0:
                raise PrecisionError(
                    "polygon slope only bounded below by %s; raise the working "
                    "precision to certify positivity" % s.value)
        return True

    def offending_slopes(self):
        return [s.value for s in self.slopes if s.exact and s.value <= 0]

    def __repr__(self):
        return f"NewtonPolygon(vertices={list(self.vertices)}, slopes={list(self.slopes)})"


def newton_polygon(coeffs) -> NewtonPolygon:
    """Newton polygon of a polynomial given by ascending coefficients
    (PadicScalar or FieldElement), divided by its leading coefficient unless
    that is 1.

    A coefficient that is zero to precision gives only a lower bound on its
    valuation.  Such a bound must sit on or above the hull of the exact
    points; a bound below it is a hull-relevant unknown and raises.  When
    every coefficient below index i is zero to precision, the left end is
    reported as one inexact slope entry of multiplicity i, bounded below by
    the least slope those bounds allow.
    """
    coeffs = list(coeffs)
    lead = coeffs[-1]
    if lead.is_zero():
        raise PrecisionError("leading coefficient is zero to precision")
    if lead != 1:
        coeffs = [c / lead for c in coeffs]
    exact, bounds = [], []
    for i, c in enumerate(coeffs[:-1]):
        known, v = c.pivot_val()
        (exact if known else bounds).append((i, Fraction(v)))
    # the monic leading point is exact by construction
    exact.append((len(coeffs) - 1, Fraction(0)))
    # monotone-chain lower hull
    hull = []
    for pt in exact:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)

    def hull_value(i: int) -> Fraction:
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= i <= x2:
                return y1 + Fraction(y2 - y1, x2 - x1) * (i - x1)

    i_first, v_first = hull[0]
    left_bounds = []
    for i, bound in bounds:
        if i < i_first:
            left_bounds.append((i, bound))
        elif bound < hull_value(i):
            raise PrecisionError(
                "coefficient at index %d is zero to precision %s but the hull "
                "needs its valuation; raise the working precision" % (i, bound))

    slopes = []
    if left_bounds:
        s_min = min((b - v_first) / (i_first - i) for i, b in left_bounds)
        slopes.append(PolygonSlope(s_min, i_first, exact=False))
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes.append(PolygonSlope(Fraction(y1 - y2, x2 - x1), x2 - x1, exact=True))
    return NewtonPolygon(hull, slopes)
