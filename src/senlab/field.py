"""Finite extensions K of Q_p built as an unramified step then an Eisenstein step.

K = Q_p[y, u] / (g(y), E(u)) where g is monic with irreducible reduction
mod p (residue degree f = deg g) and E is monic Eisenstein over the
unramified subfield U = Q_p[y]/(g) (ramification index e_ram = deg E).

An element is one vector of d = f * e_ram integers c_t against the basis
b_t = y^j u^i (t = j * e_ram + i), a valuation shift s and one absolute
precision N: x = p^s * sum_t c_t b_t modulo p^N O_K, the c_t reduced modulo
p^(N - s) and not all divisible by p.  So v(x) = s + i0/e_ram with i0 the
first u-degree holding a coordinate prime to p.

Each field precomputes the reduction table y^j u^i mod (g, E) for
j < 2f - 1, i < 2 e_ram - 1 and the trace form Tr(b_t) read off it; no
other module reads them.  Every sum of products over K is one big-integer
sum of Kronecker-packed products and one table reduction
(LocalField._packed_sum: the basis slots kept in place, the other rows
added), whose coordinates make the element with no second reduction;
LocalField.dot gives it each product's precision, a product x y is its
one-term case, and each entry of a matrix product (LocalField.mat_mul,
behind linalg.mat_mul and mat_vec) and of a Horner step of the operator
series (senmod, exp(t theta)) is one such sum.  The dpseries kernels pack
whole series as blocks of one integer (LocalField._pack_blocks, at the
_block_width) and reduce each block once (_reduce_blocks).  A trace is a
dot product with the trace form, an inverse is a Newton iteration from the
residue-field inverse, kept on a divisor for its later quotients, and
LocalField.powers forms x^k, x^k k! or x^k/k! with the chain's precisions,
one vector product per power.  Precision follows the scalar rules with
field valuations, rounded down to an integer, and a product, quotient or
trace claims at most LocalField.cap digits past its shift: the precision M
of the defining polynomials, unbounded over Q_p.

    add/sub : min(N_x, N_y)
    mul     : min(N_x + v(y), N_y + v(x))
    div     : min(N_x - v(y), N_y + v(x) - 2 v(y))

The module also provides residues, defining-relation-checked substitutions
and the different generator e = E'(pi).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, inf

from .errors import DomainError, PrecisionError, UsageError
from .padic import (DEFAULT_PRECISION, PadicScalar, power, power_sequence, require_prime,
                    vp_int)


# ---------------------------------------------------------------------------
# F_p[x] helpers for the irreducibility certificate
# ---------------------------------------------------------------------------

def _fp_trim(a, p):
    a = [c % p for c in a]
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _fp_rem(a, b, p):
    """Remainder of a by b (leading coefficient of b a unit mod p)."""
    a, b = _fp_trim(a, p), _fp_trim(b, p)
    inv_lead = pow(b[-1], -1, p)
    while len(a) >= len(b) and a != [0]:
        c, shift = a[-1] * inv_lead, len(a) - len(b)
        a = _fp_trim([x - c * b[k - shift] if k >= shift else x for k, x in enumerate(a)], p)
    return a


def _fp_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def fp_is_irreducible(g, p) -> bool:
    """Ben-Or's test: a monic g of degree d over F_p is irreducible iff
    gcd(x^(p^k) - x, g) = 1 for every k <= d/2."""
    g = _fp_trim(g, p)
    if len(g) < 2:
        return False
    h = [0, 1]
    for _ in range((len(g) - 1) // 2):
        h = power(h, p, lambda x, y: _fp_rem(_fp_mul(x, y), g, p), [1])
        a, b = g, _fp_trim([c - (k == 1) for k, c in enumerate(h + [0])], p)
        while b != [0]:
            a, b = b, _fp_rem(a, b, p)
        if len(a) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# field specification and handle
# ---------------------------------------------------------------------------

class LocalFieldSpec:
    """Defining data: prime, monic unramified g over Q_p, Eisenstein E over U."""

    def __init__(self, p, unramified_poly, eisenstein_poly, prec=DEFAULT_PRECISION):
        require_prime(p)
        self.p = p
        self.prec = prec
        self.unramified_poly = [_as_scalar(c, p, prec) for c in unramified_poly]
        self.eisenstein_poly = [[_as_scalar(c, p, prec) for c in coeff]
                                for coeff in eisenstein_poly]


def _as_scalar(c, p, prec):
    """An int, Fraction or PadicScalar over p as a PadicScalar (at prec)."""
    if isinstance(c, int):
        return PadicScalar.from_int(c, p, prec)
    if isinstance(c, Fraction):
        return PadicScalar.from_fraction(c, p, prec)
    if isinstance(c, PadicScalar) and c.p == p:
        return c
    raise UsageError(f"cannot coerce {c!r} to a scalar over p = {p}")


class LocalField:
    """Validated handle; immutable and shareable."""

    def __init__(self, spec: LocalFieldSpec):
        self.spec = spec
        self.p = spec.p
        self.prec = spec.prec
        self.g = list(spec.unramified_poly)
        self.f = len(self.g) - 1
        self.E = [list(c) for c in spec.eisenstein_poly]
        self.e_ram = len(self.E) - 1
        self.degree = self.f * self.e_ram
        self._validate()
        self._build_tables()
        # the class of u: a uniformizer; for e_ram == 1 it equals -E_0 in U
        self.pi = self.basis()[1] if self.e_ram > 1 \
            else self.from_grid([[-c] for c in self._padded(self.E[0])])
        # e = E'(pi) = sum_i i E_i u^(i-1), already reduced
        self.different_e = self.from_grid(
            [[self._padded(self.E[i + 1])[j] * (i + 1) for i in range(self.e_ram)]
             for j in range(self.f)])

    # -- validation ---------------------------------------------------------

    def _validate(self):
        p = self.p

        def is_one(c):
            return c.valuation() == 0 and (c - PadicScalar.one(p, c.prec)).is_zero()

        if self.f < 1 or self.e_ram < 1:
            raise UsageError("both defining polynomials need positive degree")
        if not is_one(self.g[-1]):
            raise UsageError("unramified polynomial must be monic")
        if any(c.val_bound() < 0 for c in self.g):
            raise UsageError("unramified polynomial must be integral")
        self.g_int = _fp_trim([c.residue() for c in self.g], p)
        if not fp_is_irreducible(self.g_int, p):
            raise DomainError("unramified polynomial is reducible modulo p",
                              concept="residue field construction")
        if any(len(coeff) > self.f for coeff in self.E):
            raise UsageError("Eisenstein coefficients are U-elements with at most "
                             "%d coordinates" % self.f)
        if len(self.E[-1]) != 1 or not is_one(self.E[-1][0]):
            raise UsageError("Eisenstein polynomial must be monic over U")
        for i, coeff in enumerate(self.E[:-1]):
            for c in coeff:
                if c.val_bound() < 1:
                    if not c.is_zero():
                        raise DomainError(
                            "coefficient at u-degree %d has v_U < 1; not Eisenstein" % i)
                    raise PrecisionError(
                        "cannot certify the Eisenstein condition at u-degree %d; "
                        "raise the working precision" % i)
        E0 = self.E[0]
        if all(c.valuation() != 1 for c in E0):     # every v_p(c) >= 1 by now
            if all(c.val_bound() >= 2 for c in E0) and not all(c.is_zero() for c in E0):
                raise DomainError("constant coefficient has v_U >= 2; not Eisenstein")
            raise PrecisionError("cannot certify v_U of the constant coefficient; "
                                 "raise the working precision")

    def _padded(self, ypoly):
        return list(ypoly) + [PadicScalar.zero(self.p, self.prec)] * (self.f - len(ypoly))

    # -- precomputed tables ---------------------------------------------------

    def _build_tables(self):
        """Reduction table, trace form and Kronecker layout of the lifted
        defining polynomials modulo p^(M + e_ram), M = table_prec: a quotient
        claims M digits past a shift up to i0 < e_ram above the one it is
        computed at, and its inverse divides y^e by p^i0."""
        p, f, e, d = self.p, self.f, self.e_ram, self.degree
        coeffs = self.g + [c for coeff in self.E for c in coeff]
        self.table_prec = M = min([self.prec] + [c.prec for c in coeffs])
        self.cap = M if d > 1 else inf              # Q_p has no relation to reduce by
        mod = p ** (M + e)
        g = [c.lift() for c in self.g]
        E = [[c.lift() for c in self._padded(coeff)] for coeff in self.E]
        rows = {}                                    # (j, i) -> y^j u^i reduced
        for i in range(2 * e - 1):
            for j in range(2 * f - 1):
                if j >= f:      # y^f = -sum_l g_l y^l
                    terms = [(g[l], j - f + l, i) for l in range(f)]
                elif i >= e:    # u^e = -sum_k E_k u^k with E_k = sum_l E_k[l] y^l
                    terms = [(E[k][l], j + l, i - e + k) for k in range(e) for l in range(f)]
                else:
                    rows[j, i] = [int(t == j * e + i) for t in range(d)]
                    continue
                rows[j, i] = [-sum(c * rows[jj, ii][t] for c, jj, ii in terms) % mod
                              for t in range(d)]
        span = 2 * e - 1
        self._table = table = [rows[j, i] for j in range(2 * f - 1) for i in range(span)]
        self._trace_form = [
            sum(table[(t // e + s // e) * span + t % e + s % e][s] for s in range(d)) % mod
            for t in range(d)]
        # Kronecker layout: b_t sits in slot j * span + i of a packed integer
        self._slots = [(t // e) * span + t % e for t in range(d)]
        self._table_mod = mod
        # a basis slot holds a product's d mod^2 and the reduction's len(table) mod^2
        self._width = w = (2 * len(table) * d * mod * mod).bit_length()
        self._shifts = [w * s for s in self._slots]  # bit offsets of the slots
        self._packed = {}                            # slot width -> packed table rows
        self._pows, self._limit, self._table_bound = [1], 1 << w, len(table) * mod

    def _reduce(self, total, w, m):
        """Coordinates modulo m of the element whose Kronecker slots, w bits
        wide, hold the nonnegative integers of `total`: the basis slots kept
        in place under one mask, each other slot's residue times its table
        row added onto them, so w holds a slot plus len(table) m p^(M + e_ram)."""
        if self.degree == 1:
            return [total % m]
        slots, packed = self._slots, self._packed.get(w)
        if packed is None:
            packed = self._packed[w] = (sum(((1 << w) - 1) << (w * s) for s in slots), [
                (w * s, sum(c << (w * slots[t]) for t, c in enumerate(row)))
                for s, row in enumerate(self._table) if s not in slots])
        (basis, rows), mask = packed, (1 << w) - 1
        acc = total & basis
        for shift, row in rows:
            c = total >> shift & mask
            if c:
                acc += (c % m) * row
        return [(acc >> (w * s) & mask) % m for s in slots]

    def _mul_vec(self, a, b, m):
        """Product of two integral coordinate vectors modulo m <= p^(M + e_ram),
        packed at the table's own width: the steps of an inverse."""
        if self.degree == 1:
            return [a[0] * b[0] % m]
        shifts = self._shifts
        return self._reduce(_pack([x % m for x in a], shifts) * _pack([y % m for y in b], shifts),
                            self._width, m)

    def dot(self, u, v, start):
        """The one sum of products over K: start + u[0] v[0] + u[1] v[1] + ...,
        start and each u[k] an element of K, each v[k] an element, a scalar
        over p or an int, with the (vec, shift, prec) of that sequential sum.

        The term selection: each product has the shift t and precision q of
        `_product` (`_scalar_product`, for a scalar v[k]), n is the least q
        and start.prec, and `_packed_sum` adds the products and start of
        shift t < n."""
        p, n = self.p, start.prec
        terms = [(start.shift, start.prec, start, 1)]    # (t, bound, a, b)
        for x, y in zip(u, v):
            if type(x) is not FieldElement or x.field is not self:
                raise UsageError("dot needs elements of this field in u, not %r" % (x,))
            if type(y) is FieldElement:
                if y.field is not self:
                    raise UsageError("cannot mix elements of different fields")
                t, q = self._product(x, y)
                if t < q:
                    terms.append((t, x.prec + y.prec, x, y))
            else:
                s = _as_scalar(y, p, self.prec)
                t, q = self._scalar_product(x, s.val, s.prec)
                if t < q:
                    terms.append((t, x.prec - x.shift + q, x, s.unit % p ** (q - t)))
            if q < n:
                n = q
        return self._packed_sum([term for term in terms if term[0] < n], n)

    def _product(self, x, y):
        """The shift t and precision q of x y for elements x, y of K:
        q = min(N_x + v(y), N_y + v(x)) rounded down, at most t + M above
        degree 1.  A zero factor makes t >= q."""
        e = self.e_ram
        q = min(e * x.prec + y._v(), e * y.prec + x._v()) // e
        t = x.shift + y.shift
        if q > t + self.cap:
            q = t + self.cap
        return t, q

    def _scalar_product(self, x, val, prec):
        """The shift t and precision q of x s for x an element or the raw
        (shift, prec, v) triple of one, and a scalar s over p of valuation
        val known to prec digits: q = min(N_x + v(s), N_s + v(x)) rounded
        down, with no table cap, since s multiplies each coordinate."""
        shift, xprec, v = (x.shift, x.prec, x._v()) if type(x) is FieldElement else x
        e = self.e_ram
        return shift + val, min(e * (xprec + val), e * prec + v) // e

    def _times_int(self, x, y, n):
        """The (vec, shift, prec) of x * y * n, x and y elements and n >= 0 an
        int, with no element formed: one `_mul_vec` at `_product`'s (t, q),
        its shift s read off the exact v(x) + v(y), so with no gcd (a zero
        for s >= q), then `_scalar_product`'s rule for n = p^k u at K.prec."""
        p, e, N = self.p, self.e_ram, self.prec
        t, q = self._product(x, y)
        v = x._v() + y._v()
        s = v // e
        if s >= q:
            s, v = q, e * q
        k = 0 if n % p else vp_int(n, p) if n else N    # any k >= N gives the zero at N digits
        t2, q2 = self._scalar_product((s, q, v), k, N)
        if t2 < q2:                                 # so s < q: a nonzero product
            d, u, m = p ** (s - t), n // p ** k, p ** (q2 - t2)
            return [c // d * u % m for c in self._mul_vec(x.vec, y.vec, p ** (q - t))], t2, q2
        return (0,) * self.degree, q2, q2

    def _packed_sum(self, terms, n):
        """The sum, known modulo p^n, of the kept terms (t, bound, a, b): p^t a b
        with a an element, b an element or an int (a scalar, in slot 0), each
        slot of p^(t - m) a b below d p^(bound - m), m the least t.  It is one
        integer sum of p^(t - m) packed(a) packed(b) in Kronecker slots
        widened for the number of terms, reduced once through the table
        modulo p^(n - m).  The table is linear and an element is canonical
        modulo p^prec, so the sum has the (vec, shift, prec) of adding the
        terms one product at a time; FieldElement.__mul__ is the one-term
        sum at n = q."""
        if not terms:
            return FieldElement(self, (), n, n)
        m, top, _, _ = terms[0]
        for t, bound, _, _ in terms:
            if t < m:
                m = t
            if bound > top:
                top = bound
        pows = self._pows                   # p^k, kept on the field; replaced, never changed
        if len(pows) <= max(top, n) - m:
            pows = self._pows = [self.p ** k for k in range(2 * (max(top, n) - m) + 1)]
        # a basis slot holds the sum and the reduction's len(table) p^(n - m + M + e_ram);
        # a width past the table's own is rounded up to 64 bits, so few are packed
        modulus = pows[n - m]
        need = len(terms) * self.degree * pows[top - m] + self._table_bound * modulus
        w = self._width if need < self._limit else -(-need.bit_length() // 64) * 64
        shifts = self._shifts if w == self._width else [w * s for s in self._slots]
        total = 0
        for t, _, a, b in terms:                # each element packed at w once, and kept
            pa = a._packing
            if pa is None or pa[0] != w:
                pa = a._packing = w, _pack(a.vec, shifts)
            if type(b) is not int:
                pb = b._packing
                if pb is None or pb[0] != w:
                    pb = b._packing = w, _pack(b.vec, shifts)
                b = pb[1]
            total += pows[t - m] * pa[1] * b
        return FieldElement._reduced(self, self._reduce(total, w, modulus), m, n)

    def _block_bits(self, w):           # one Kronecker block: len(table) slots of w bits
        return len(self._table) * w

    def _pack_blocks(self, blocks, R, w):
        """One integer whose block i, `_block_bits(w)` wide, holds the
        coordinates of p^k u x modulo p^R for blocks[i] = (x, k, u), u an int
        taken as its nonnegative residue; empty for a zero x or k >= R."""
        p, mod, size, slots = self.p, self.p ** R, self._block_bits(w) // 8, self._slots
        out = []
        for x, k, u in blocks:
            block = 0
            if k < R and not x.is_zero():
                scale = p ** k * u % mod
                for a, slot in zip(x.vec, slots):
                    block |= a * scale % mod << w * slot
            out.append(block.to_bytes(size, "little"))
        return int.from_bytes(b"".join(out), "little")

    def _block_width(self, R, terms):
        """The slot width, a multiple of 64 bits, for sums of `terms` products of
        two packed elements, each slot below p^R, and for their reduction, which
        adds below len(table) p^(R + M + e_ram) to such a sum in a basis slot: a
        bit above the larger of the two, past degree 1, where nothing is added."""
        mod = self.p ** R
        return -(-(mod * max(terms * self.degree * mod, self._table_bound)
                   << (self.degree > 1)).bit_length() // 64) * 64

    def _reduce_blocks(self, total, R, w, n):
        """Blocks 0..n-1 of total, each reduced once through the table modulo p^R."""
        size, m = self._block_bits(w) // 8, self.p ** R
        data = total.to_bytes(max(n * size, -(-total.bit_length() // 8)), "little")
        return [self._reduce(int.from_bytes(data[i * size:(i + 1) * size], "little"), w, m)
                for i in range(n)]

    def mat_mul(self, a, b, zero, bounds=None):
        """The matrix product over K, each entry dot(row, column, zero) with its
        (vec, shift, prec).  When `_reach` shows that every product of a row's
        entry by a column's reaches N = zero.prec, n = N and dot keeps zero
        and the products of shift t < N: they go to `_packed_sum` directly.
        Any other entry is dot's, as is each one of a column holding scalars.
        `bounds`, when given, holds the `_bound` of each row of a."""
        N = zero.prec
        start = [(zero.shift, N, zero, 1)] if zero.shift < N else []
        cols = [(col, self._bound(col)) for col in zip(*b)]
        out = []
        for row, rb in zip(a, bounds or map(self._bound, a)):
            out_row = []
            for col, cb in cols:
                if rb and cb and self._reach(rb, cb) >= N:
                    out_row.append(self._packed_sum(start + [
                        (x.shift + y.shift, x.prec + y.prec, x, y)
                        for x, y in zip(row, col) if x.shift + y.shift < N], N))
                else:
                    out_row.append(self.dot(row, col, zero))
            out.append(out_row)
        return out

    def _bound(self, line):
        """(least prec, _v, shift) of a row or column of elements of K, else None."""
        lp = lv = ls = inf
        for x in line:
            if type(x) is not FieldElement or x.field is not self:
                return None
            p, v, s = x.prec, x._v(), x.shift
            lp, lv, ls = (p if p < lp else lp), (v if v < lv else lv), (s if s < ls else ls)
        return lp, lv, ls          # all inf for an empty line, whose entries go to dot

    def _reach(self, x, y):
        """`_product`'s precision for factors of (prec, _v, shift) x and y; it
        grows with each entry, so for `_bound`'s triples of two lines it bounds
        every product of an entry of one by an entry of the other from below."""
        q = min(self.e_ram * x[0] + y[1], self.e_ram * y[0] + x[1]) // self.e_ram
        top = x[2] + y[2] + self.cap
        return top if q > top else q

    def _unit_inverse(self, w, prec):
        """Inverse of a unit vector modulo p^prec: w^(q-2) inverts it modulo pi,
        then Newton z <- z (2 - w z) doubles the pi-adic precision."""
        p, e = self.p, self.e_ram
        if self.degree == 1:
            return [pow(w[0], -1, p ** prec)]
        z = power(w, p ** self.f - 2, lambda a, b: self._mul_vec(a, b, p),
                  [1] + [0] * (self.degree - 1))     # the residue field has p^f elements
        k, steps = e * prec, []
        while k > 1:
            steps.append(k)
            k = (k + 1) // 2
        for k in reversed(steps):
            m = p ** -(-k // e)
            t = [-c for c in self._mul_vec(w, z, m)]
            t[0] += 2
            z = self._mul_vec(z, t, m)
        return z

    def _inv_vec(self, y, i0, rel):
        """q = p^i0 / y modulo p^rel for a primitive integral y of valuation
        i0/e_ram: w = y^e / p^i0 is a unit and q = y^(e-1) w^-1."""
        if not i0:
            return self._unit_inverse(y, rel)
        work = max(rel + 1, i0 + 1)
        m = self.p ** work
        head = power(y, self.e_ram - 1, lambda a, b: self._mul_vec(a, b, m),
                     [1] + [0] * (self.degree - 1))
        unit = [c // self.p ** i0 for c in self._mul_vec(head, y, m)]
        # the error of w^-1 is p^(work - i0) O_K; times head it lies in p^(work - 1) O_K
        return self._mul_vec(head, self._unit_inverse(unit, work - i0), self.p ** rel)

    def powers(self, x, n, factorial=0):
        """x^k (factorial 0), x^k k! (1) or x^k/k! (-1) for 0 <= k <= n, each
        with the (vec, shift, prec) of the chain from one() by __mul__ and k:
        padic.power_sequence on _mul_vec, under `cap`, whose vectors are
        primitive and whose valuations it tracks."""
        return [FieldElement._reduced(self, *y) for y in power_sequence(
            self.p, (x.vec, x.shift, x.prec, x._v()), n, self.prec, factorial, self._mul_vec,
            self.e_ram, self.cap)]

    # -- element constructors -------------------------------------------------

    def zero(self):
        return FieldElement(self, (), self.prec, self.prec)

    def one(self):
        return FieldElement(self, [1] + [0] * (self.degree - 1), 0, self.prec)

    def basis(self):
        """The elements b_t = y^j u^i, t = j * e_ram + i."""
        return [FieldElement(self, [int(s == t) for s in range(self.degree)], 0, self.prec)
                for t in range(self.degree)]

    def from_grid(self, rows):
        """Element from an f x e_ram grid of PadicScalars (coefficient of y^j u^i
        in rows[j][i]), known to the least precision among them."""
        if len(rows) != self.f or any(len(r) != self.e_ram for r in rows):
            raise UsageError("coefficient grid has the wrong shape")
        coords = [c for row in rows for c in row]
        for c in coords:
            if not isinstance(c, PadicScalar) or c.p != self.p:
                raise UsageError(f"grid entry {c!r} is not a scalar over p = {self.p}")
        prec = min(c.prec for c in coords)
        shift = min([prec] + [c.val for c in coords])
        # an entry of valuation >= prec vanishes modulo p^(prec - shift)
        return FieldElement(self, [c.unit * self.p ** (c.val - shift) for c in coords],
                            shift, prec)

    def from_scalar(self, s):
        s = _as_scalar(s, self.p, self.prec)
        return FieldElement(self, [s.unit] + [0] * (self.degree - 1), s.val, s.prec)

    def from_int(self, n):
        return self.from_scalar(n)


def _pack(vec, shifts):
    """The nonnegative coordinates vec in the Kronecker slots at bit offsets
    `shifts`."""
    packed = 0
    for c, k in zip(vec, shifts):
        packed |= c << k
    return packed


def build_field(spec: LocalFieldSpec) -> LocalField:
    """Validate the spec and return the field handle."""
    return LocalField(spec)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class FieldElement:
    """Immutable element p^shift * sum_t vec[t] b_t of a LocalField, known
    modulo p^prec O_K.  The constructor reduces vec modulo p^(prec - shift)
    and moves common factors p into the shift; zero to precision is vec = 0
    with shift = prec."""

    __slots__ = ("field", "vec", "shift", "prec", "_vpi", "_packing", "_inverse")

    def __init__(self, field, vec, shift, prec):
        m = field.p ** (prec - shift) if prec > shift else 0
        self._settle(field, [c % m for c in vec] if m else (), shift, prec)

    @classmethod
    def _reduced(cls, field, vec, shift, prec, v=None):
        """The element of coordinates vec already reduced modulo p^(prec - shift),
        v as in `_settle`."""
        return cls.__new__(cls)._settle(field, vec, shift, prec, v)

    def _settle(self, field, vec, shift, prec, v=None):
        """Common factors p move into the shift, unless v is given: the
        valuation of a primitive vec, or () for a zero."""
        self.field = field
        self._vpi, self._packing, self._inverse = v, None, None
        g = gcd(*vec) if v is None else 1 if vec else 0
        if not g:
            vec, shift = (0,) * field.degree, prec
        elif not g % field.p:
            k = vp_int(g, field.p)
            vec, shift = [c // field.p ** k for c in vec], shift + k
        self.vec, self.shift, self.prec = tuple(vec), shift, prec
        return self

    # -- protocol -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.shift >= self.prec

    def _v(self):
        """Valuation on the scale v(pi) = 1; a lower bound e_ram * prec for zero."""
        v = self._vpi
        if v is None:
            e, p = self.field.e_ram, self.field.p
            if self.shift >= self.prec:
                v = e * self.prec
            elif self.vec[0] % p:
                v = e * self.shift
            else:
                v = e * self.shift + min(t % e for t, c in enumerate(self.vec) if c % p)
            self._vpi = v
        return v

    def valuation(self):
        """Exact Fraction, or None when the data only bounds it below."""
        return None if self.is_zero() else Fraction(self._v(), self.field.e_ram)

    def val_bound(self) -> Fraction:
        return Fraction(self._v(), self.field.e_ram)

    def pivot_val(self):
        return (not self.is_zero(), Fraction(self._v(), self.field.e_ram))

    def coordinates(self):
        """Q_p coordinates in basis order t = j * e_ram + i, each at the
        element's precision."""
        return [PadicScalar.from_residue(self.field.p, c, self.prec, self.shift)
                for c in self.vec]

    def truncated(self, prec: int) -> "FieldElement":
        """The element cut to absolute precision at most prec."""
        return FieldElement(self.field, self.vec, self.shift, min(prec, self.prec))

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other):
        if not isinstance(other, FieldElement):
            return self.field.from_scalar(other)
        if self.field is not other.field:
            raise UsageError("cannot mix elements of different fields")
        return other

    def __neg__(self):
        return FieldElement(self.field, [-c for c in self.vec], self.shift, self.prec)

    def _add(self, other, sign):
        """self + sign other by add/sub's rule, other an element, a scalar, an
        int or, from the library only, an element's raw (vec, shift, prec)."""
        if type(other) is tuple:
            vec, b, bprec = other
        else:
            if type(other) is not FieldElement or other.field is not self.field:
                other = self._coerce(other)
            vec, b, bprec = other.vec, other.shift, other.prec
        a = self.shift
        prec = self.prec if self.prec < bprec else bprec
        shift = a if a < b else b
        p = self.field.p
        qa = p ** (a - shift) if a < prec else 0
        qb = sign * p ** (b - shift) if b < prec else 0
        return FieldElement(self.field, [qa * x + qb * y for x, y in zip(self.vec, vec)],
                            shift, prec)

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def _scaled(self, s, divide):
        """Every coordinate times or over the scalar s, by PadicScalar's rules."""
        K = self.field
        s = _as_scalar(s, K.p, K.prec)
        if not divide:
            return FieldElement(K, [c * s.unit for c in self.vec],
                                *K._scalar_product(self, s.val, s.prec))
        if s.is_zero():
            raise PrecisionError("division by a scalar that is zero to precision %d" % s.prec)
        e = K.e_ram
        prec = min(e * (self.prec - s.val), e * (s.prec - 2 * s.val) + self._v()) // e
        shift = self.shift - s.val
        if prec <= shift or self.is_zero():
            return FieldElement(K, self.vec, prec, prec)
        inv = pow(s.unit, -1, K.p ** (prec - shift))
        return FieldElement(K, [c * inv for c in self.vec], shift, prec)

    def __mul__(self, other):
        if type(other) is not FieldElement:
            return self._scaled(other, divide=False)
        K = self.field
        if other.field is not K:
            raise UsageError("cannot mix elements of different fields")
        t, q = K._product(self, other)
        return K._packed_sum([(t, self.prec + other.prec, self, other)] if t < q else [], q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return self._scaled(other, divide=True)
        self._coerce(other)
        if other.is_zero():
            raise PrecisionError(
                "division by an element that is zero to precision (v >= %s)" % other.prec)
        K = self.field
        e = K.e_ram
        vy = other._v()
        prec = min(e * self.prec - vy, e * other.prec + self._v() - 2 * vy) // e
        i0 = vy % e
        # self / other = p^shift * x * q with q = p^i0 / y
        shift = self.shift - other.shift - i0
        prec = min(prec, shift + i0 + K.cap)
        if prec <= shift or self.is_zero():
            return FieldElement(K, self.vec, prec, prec)
        # p^i0 / y, kept on y at the most digits a quotient by y takes: unique
        # modulo p^rel, so each quotient's _mul_vec may reduce it
        inv = other._inverse
        if inv is None:
            rel = other.prec - other.shift
            inv = other._inverse = K._inv_vec(other.vec, i0, i0 + min(rel, K.cap))
        out = FieldElement(K, K._mul_vec(self.vec, inv, K.p ** (prec - shift)), shift, prec)
        # Against a field whose relations move by p^M, y out = x + delta with
        # v_p(delta) >= M + s_y + s_out, so the quotient moves by at least
        # M + s_out - i0/e.
        top = out.shift + K.cap - (i0 > 0)
        return out.truncated(top) if top < prec else out

    def inverse(self):
        return self.field.one() / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, FieldElement.__mul__, self.field.one())

    def __eq__(self, other):
        if not isinstance(other, (FieldElement, int, Fraction, PadicScalar)):
            return NotImplemented
        return (self - self._coerce(other)).is_zero()

    __hash__ = None

    def __repr__(self):
        return f"FieldElement({self.field.p}^{self.shift} * {list(self.vec)} " \
               f"+ O({self.field.p}^{self.prec}))"


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------

def valuation(x: FieldElement, normalize: str = "p"):
    """(exact, value): exact rational when certified, else a lower bound."""
    exact, v = x.pivot_val()
    if normalize == "pi":
        v = v * x.field.e_ram
    elif normalize != "p":
        raise UsageError("normalize must be 'p' or 'pi'")
    return exact, v


def trace_to_Qp(x: FieldElement) -> PadicScalar:
    """Tr_{K|Q_p}(x): the dot product of x with the trace form."""
    K = x.field
    return PadicScalar.from_residue(K.p, sum(c * t for c, t in zip(x.vec, K._trace_form)),
                                    min(x.prec, x.shift + K.cap), x.shift)


def residue(x: FieldElement):
    """Image in the residue field F_p[y]/(g mod p), as a coefficient tuple."""
    exact, v = x.pivot_val()
    if exact and v < 0:
        raise DomainError("residue of an element of negative valuation")
    if x.prec < 1:
        raise PrecisionError("no digit available for residue")
    K = x.field
    return tuple(0 if x.shift > 0 else x.vec[j * K.e_ram] % K.p for j in range(K.f))


class FieldEmbedding:
    """Ring map K -> L determined by validated images of y and u."""

    def __init__(self, src: LocalField, dst: LocalField, y_image: FieldElement,
                 u_image: FieldElement):
        if y_image.field is not dst or u_image.field is not dst:
            raise UsageError("images must live in the target field")
        if src.p != dst.p:
            raise UsageError("embeddings require the same residue characteristic")
        self.src, self.dst = src, dst
        for img in (y_image, u_image):
            if img.val_bound() < 0:
                raise PrecisionError("a substitution image is zero to precision %d" % img.prec) \
                    if img.is_zero() else DomainError("substitution images must be integral")
        g_res = _eval_scalar_poly(src.g, y_image, dst)
        if not g_res.is_zero():
            raise DomainError(
                "image of y violates the unramified relation; residual valuation >= %s"
                % g_res.val_bound())
        e_res = dst.zero()
        for coeff in reversed(src.E):
            e_res = e_res * u_image + _eval_scalar_poly(coeff, y_image, dst)
        if not e_res.is_zero():
            raise DomainError(
                "image of u violates the Eisenstein relation; residual valuation >= %s"
                % e_res.val_bound())
        # the images of the basis y^j u^i, in basis order t = j * e_ram + i
        y_pows, u_pows = dst.powers(y_image, src.f - 1), dst.powers(u_image, src.e_ram - 1)
        e = src.e_ram
        self._images = [y_pows[t // e] * u_pows[t % e] for t in range(src.degree)]

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.field is not self.src:
            raise UsageError("element does not belong to the embedding's source")
        return self.dst.dot(self._images, x.coordinates(), self.dst.zero())


def _eval_scalar_poly(coeffs, at, dst):
    acc = dst.zero()
    for c in reversed(coeffs):
        acc = acc * at + dst.from_scalar(c)
    return acc


def scalar_embedding(src: LocalField, dst: LocalField) -> FieldEmbedding:
    """The embedding Q_p -> L (source must be a degree-1 presentation)."""
    if src.degree != 1:
        raise UsageError("scalar_embedding requires a degree-1 source field")
    # y maps to 1; u maps to the root of the linear E, i.e. -E_0
    u_img = dst.from_scalar(-src.E[0][0])
    return FieldEmbedding(src, dst, dst.one(), u_img)


# ---------------------------------------------------------------------------
# ready-made constructors
# ---------------------------------------------------------------------------

def qp_field(p: int, prec: int = DEFAULT_PRECISION) -> LocalField:
    """Q_p itself: trivial unramified step, E = u - p."""
    return build_field(LocalFieldSpec(p, [-1, 1], [[-p], [1]], prec))


def eisenstein_field(p: int, eis_ints, prec: int = DEFAULT_PRECISION) -> LocalField:
    """Totally ramified K = Q_p[u]/E for integer Eisenstein coefficients."""
    return build_field(LocalFieldSpec(p, [-1, 1], [[c] for c in eis_ints], prec))


def cyclotomic_field(p: int, m: int, prec: int = DEFAULT_PRECISION) -> LocalField:
    """Q_p(zeta_{p^m}) via the Eisenstein polynomial Phi_{p^m}(1 + u)."""
    if m < 1:
        raise UsageError("cyclotomic level must be >= 1")
    q = p ** (m - 1)
    # Phi_{p^m}(x) = sum_{k<p} x^{k q}; expand at x = 1 + u
    return eisenstein_field(p, [sum(comb(k * q, j) for k in range(p))
                                for j in range(q * (p - 1) + 1)], prec)
