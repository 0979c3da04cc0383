"""Finite extensions K of Q_p built as an unramified step then an Eisenstein step.

K = Q_p[y, u] / (g(y), E(u)) where g is monic with irreducible reduction
mod p (residue degree f = deg g) and E is Eisenstein over the unramified
subfield U = Q_p[y]/(g) (ramification index e_ram = deg E).  Elements are
f x e_ram grids of PadicScalar against the basis y^j u^i, which makes the
valuation an exact closed form:

    v(x) = min_i ( min_j v_p(c_{j,i}) + i/e_ram ),   v(p) = 1,

the minimum over i being attained at a unique i.  The module also provides
traces to Q_p, residues, defining-relation-checked substitutions, and the
different generator e = E'(pi).
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import DomainError, PrecisionError, UsageError
from .padic import DEFAULT_PRECISION, PadicScalar, require_prime

INF = Fraction(10 ** 9)


# ---------------------------------------------------------------------------
# F_p[x] helpers for the irreducibility certificate
# ---------------------------------------------------------------------------

def _fp_trim(a, p):
    a = [c % p for c in a]
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _fp_mulmod(a, b, g, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _fp_mod(out, g, p)


def _fp_mod(a, g, p):
    a = [c % p for c in a]
    dg = len(g) - 1
    inv_lead = pow(g[-1], -1, p)
    for k in range(len(a) - 1, dg - 1, -1):
        c = a[k] * inv_lead % p
        if c:
            for j in range(dg + 1):
                a[k - dg + j] = (a[k - dg + j] - c * g[j]) % p
    return _fp_trim(a[:dg] or [0], p)


def _fp_powmod(a, n, g, p):
    result = [1]
    base = _fp_mod(a, g, p)
    while n:
        if n & 1:
            result = _fp_mulmod(result, base, g, p)
        base = _fp_mulmod(base, base, g, p)
        n >>= 1
    return result


def _fp_gcd(a, b, p):
    a, b = _fp_trim(a, p), _fp_trim(b, p)
    while b != [0]:
        a, b = b, _fp_polyrem(a, b, p)
    return a


def _fp_polyrem(a, b, p):
    a = list(a)
    inv_lead = pow(b[-1], -1, p)
    while len(a) >= len(b) and _fp_trim(a, p) != [0]:
        if a[-1] % p == 0:
            a.pop()
            continue
        c = a[-1] * inv_lead % p
        shift = len(a) - len(b)
        for j in range(len(b)):
            a[shift + j] = (a[shift + j] - c * b[j]) % p
        a.pop()
    return _fp_trim(a or [0], p)


def _fp_sub(a, b, p):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _fp_trim([x - y for x, y in zip(a, b)], p)


def fp_is_irreducible(g, p) -> bool:
    """Rabin's test for a monic polynomial over F_p."""
    g = _fp_trim(g, p)
    d = len(g) - 1
    if d == 0:
        return False
    if d == 1:
        return True
    x = [0, 1]
    xq = _fp_powmod(x, p ** d, g, p)
    if _fp_sub(xq, x, p) != [0]:
        return False
    for ell in _prime_divisors(d):
        xe = _fp_powmod(x, p ** (d // ell), g, p)
        if len(_fp_gcd(_fp_sub(xe, x, p), g, p)) > 1:
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# field specification and handle
# ---------------------------------------------------------------------------

class LocalFieldSpec:
    """Defining data: prime, monic unramified g over Q_p, Eisenstein E over U."""

    def __init__(self, p, unramified_poly, eisenstein_poly, prec=DEFAULT_PRECISION):
        require_prime(p)
        self.p = p
        self.prec = prec
        self.unramified_poly = [self._scalar(c) for c in unramified_poly]
        self.eisenstein_poly = [[self._scalar(c) for c in coeff]
                                for coeff in eisenstein_poly]

    def _scalar(self, c):
        if isinstance(c, PadicScalar):
            return c
        if isinstance(c, int):
            return PadicScalar.from_int(c, self.p, self.prec)
        if isinstance(c, Fraction):
            return PadicScalar.from_fraction(c, self.p, self.prec)
        raise UsageError(f"cannot coerce {c!r} to a p-adic scalar")


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
        # the class of u: a uniformizer; for e_ram == 1 it equals -E_0 in U
        self.pi = self.from_grid(self._unit_grid(0, 1)) if self.e_ram > 1 \
            else self._pi_unramified()
        self.different_e = self._derivative_at_pi()

    # -- validation ---------------------------------------------------------

    def _validate(self):
        if self.f < 1 or self.e_ram < 1:
            raise UsageError("both defining polynomials need positive degree")
        lead = self.g[-1]
        if lead.is_zero() or not (lead - PadicScalar.one(self.p, lead.prec)).is_zero():
            raise UsageError("unramified polynomial must be monic")
        g_int = []
        for c in self.g:
            if c.val_bound() < 0:
                raise UsageError("unramified polynomial must be integral")
            g_int.append(c.residue())
        if not fp_is_irreducible(g_int, self.p):
            raise DomainError("unramified polynomial is reducible modulo p",
                              concept="residue field construction")
        self.g_int = _fp_trim(g_int, self.p)
        if len(self.g_int) - 1 != self.f:
            raise DomainError("unramified polynomial drops degree modulo p")

        top = self.E[-1]
        if len(top) != 1 or top[0].is_zero() or top[0].val != 0:
            raise UsageError("Eisenstein polynomial must be monic over U")
        for i, coeff in enumerate(self.E[:-1]):
            for c in coeff:
                if c.val_bound() < 1:
                    if c.val is not None:
                        raise DomainError(
                            "coefficient at u-degree %d has v_U < 1; not Eisenstein" % i)
                    raise PrecisionError(
                        "cannot certify the Eisenstein condition at u-degree %d; "
                        "raise the working precision" % i)
        v0 = self._v_U(self.E[0])
        if v0 is None:
            raise PrecisionError("cannot certify v_U of the constant coefficient; "
                                 "raise the working precision")
        if v0 != 1:
            raise DomainError(
                "constant coefficient has v_U = %s != 1; not Eisenstein" % v0)

    @staticmethod
    def _v_U(ypoly):
        """min_j v_p of a U-element; None when not certified exactly."""
        exact = [c.val for c in ypoly if c.val is not None]
        bounds = [c.prec for c in ypoly if c.val is None]
        if not exact:
            return None
        m = min(exact)
        if any(b < m for b in bounds):
            return None
        return m

    # -- scalar/element constructors -----------------------------------------

    def zero_scalar(self):
        return PadicScalar.zero(self.p, self.prec)

    def one_scalar(self):
        return PadicScalar.one(self.p, self.prec)

    def _unit_grid(self, j, i):
        rows = [[self.zero_scalar() for _ in range(self.e_ram)] for _ in range(self.f)]
        rows[j][i] = self.one_scalar()
        return rows

    def zero(self):
        return FieldElement(self, [[self.zero_scalar()] * self.e_ram for _ in range(self.f)])

    def one(self):
        return self.from_grid(self._unit_grid(0, 0))

    def y_gen(self):
        if self.f == 1:
            return self.one()
        return self.from_grid(self._unit_grid(1, 0))

    def _pi_unramified(self):
        # e_ram == 1: u is identified with -E_0 as a U-element
        rows = [[-c] for c in self.E[0]]
        rows += [[self.zero_scalar()] for _ in range(self.f - len(rows))]
        return FieldElement(self, rows)

    def from_grid(self, rows):
        return FieldElement(self, rows)

    def from_scalar(self, s):
        if isinstance(s, int):
            s = PadicScalar.from_int(s, self.p, self.prec)
        if isinstance(s, Fraction):
            s = PadicScalar.from_fraction(s, self.p, self.prec)
        rows = [[self.zero_scalar()] * self.e_ram for _ in range(self.f)]
        rows[0][0] = s
        return FieldElement(self, rows)

    def from_int(self, n):
        return self.from_scalar(PadicScalar.from_int(n, self.p, self.prec))

    # -- reduction machinery --------------------------------------------------

    def _ypoly_mul(self, a, b):
        out = [self.zero_scalar()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return self._ypoly_reduce(out)

    def _ypoly_reduce(self, a):
        f = self.f
        a = list(a)
        for k in range(len(a) - 1, f - 1, -1):
            c = a[k]
            for j in range(f):
                a[k - f + j] = a[k - f + j] - c * self.g[j]
            a.pop()
        while len(a) < f:
            a.append(self.zero_scalar())
        return a

    def _upoly_reduce(self, cols):
        """cols: list over u-degree of reduced y-polys; reduce mod E."""
        e = self.e_ram
        cols = [list(c) for c in cols]
        for k in range(len(cols) - 1, e - 1, -1):
            c = cols[k]
            for i in range(e):
                prod = self._ypoly_mul(c, self.E[i])
                cols[k - e + i] = [x - y for x, y in zip(cols[k - e + i], prod)]
            cols.pop()
        while len(cols) < e:
            cols.append([self.zero_scalar()] * self.f)
        return cols

    def _derivative_at_pi(self):
        """e = E'(pi) via the coefficient sum formula Sum i * E_i * pi^(i-1)."""
        acc = self.zero()
        pi_pow = self.one()
        for i in range(1, self.e_ram + 1):
            coeff = self._embed_ypoly(self.E[i]) * self.from_int(i)
            acc = acc + coeff * pi_pow
            pi_pow = pi_pow * self.pi
        return acc

    def _embed_ypoly(self, ypoly):
        rows = [[self.zero_scalar()] * self.e_ram for _ in range(self.f)]
        for j, c in enumerate(ypoly):
            rows[j][0] = c
        return FieldElement(self, rows)


def build_field(spec: LocalFieldSpec) -> LocalField:
    """Validate the spec and return the field handle."""
    return LocalField(spec)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class FieldElement:
    """Immutable element of a LocalField; coefficients c[j][i] against y^j u^i."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        if len(rows) != field.f or any(len(r) != field.e_ram for r in rows):
            raise UsageError("coefficient grid has the wrong shape")
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)

    # -- protocol -------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c.is_zero() for row in self.rows for c in row)

    def valuation(self):
        """Exact Fraction, or None when the data only bounds it below."""
        exact, v = self._val_ex()
        return v if exact else None

    def val_bound(self) -> Fraction:
        return self._val_ex()[1]

    def pivot_val(self):
        return self._val_ex()

    def _val_ex(self):
        e = self.field.e_ram
        exact_min = None
        bound_min = INF
        for j in range(self.field.f):
            for i in range(e):
                c = self.rows[j][i]
                shift = Fraction(i, e)
                if c.val is None:
                    bound_min = min(bound_min, c.prec + shift)
                else:
                    v = c.val + shift
                    exact_min = v if exact_min is None else min(exact_min, v)
        if exact_min is None:
            return (False, bound_min)
        if bound_min < exact_min:
            return (False, bound_min)
        return (True, exact_min)

    def pi_valuation(self):
        """Valuation on the integer scale normalized v(pi) = 1."""
        v = self.valuation()
        return None if v is None else v * self.field.e_ram

    def coordinates(self):
        """Flat Q_p coordinates, basis order t = j * e_ram + i."""
        return [c for row in self.rows for c in row]

    def truncated(self, prec: int) -> "FieldElement":
        """Every coordinate cut to absolute precision at most prec."""
        return FieldElement(self.field, [[c.truncated(prec) for c in row]
                                         for row in self.rows])

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other):
        if self.field is not other.field:
            raise UsageError("cannot mix elements of different fields")

    def __neg__(self):
        return FieldElement(self.field, [[-c for c in row] for row in self.rows])

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return FieldElement(self.field,
                            [[a + b for a, b in zip(ra, rb)]
                             for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self.__add__(-self._coerce(other))

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            return other
        if isinstance(other, (int, PadicScalar, Fraction)):
            return self.field.from_scalar(other)
        raise UsageError(f"cannot coerce {other!r} into the field")

    def __mul__(self, other):
        if isinstance(other, (int, PadicScalar)):
            s = other if isinstance(other, PadicScalar) else \
                PadicScalar.from_int(other, self.field.p, self.field.prec)
            return FieldElement(self.field, [[c * s for c in row] for row in self.rows])
        self._check(other)
        if self.is_zero() or other.is_zero():
            return self._zero_product(other)
        K = self.field
        f, e = K.f, K.e_ram
        # u-polynomial of reduced y-polynomials
        a_cols = [[self.rows[j][i] for j in range(f)] for i in range(e)]
        b_cols = [[other.rows[j][i] for j in range(f)] for i in range(e)]
        prod = [[K.zero_scalar()] * f for _ in range(2 * e - 1)]
        for i1, ya in enumerate(a_cols):
            for i2, yb in enumerate(b_cols):
                conv = K._ypoly_mul(ya, yb)
                prod[i1 + i2] = [x + y for x, y in zip(prod[i1 + i2], conv)]
        cols = K._upoly_reduce(prod)
        rows = [[cols[i][j] for i in range(e)] for j in range(f)]
        return FieldElement(K, rows)

    __rmul__ = __mul__

    def _zero_product(self, other):
        """Product with a zero-to-precision factor, at the sound precision cap.

        Every contribution to the full convolution carries one zero factor,
        so the result is zero to at least min(prec of the zero factor) plus
        the worst valuation of the other operand (reduction only multiplies
        by integral defining coefficients, which cannot lower valuations).
        """
        z, w = (self, other) if self.is_zero() else (other, self)
        mz = min(c.prec for row in z.rows for c in row)
        mv = min(c.val_bound() for row in w.rows for c in row)
        cap = mz + mv
        K = self.field
        zero = PadicScalar.zero(K.p, cap)
        return FieldElement(K, [[zero] * K.e_ram for _ in range(K.f)])

    def __truediv__(self, other):
        other = self._coerce(other)
        self._check(other)
        exact, v = other._val_ex()
        if not exact:
            raise PrecisionError(
                "division by an element that is zero to precision (v >= %s)" % v)
        mat = other.mult_matrix()
        sol = linalg.solve(mat, self.coordinates(), self.field.zero_scalar())
        return self.field.from_grid(_unflatten(sol, self.field))

    def inverse(self):
        return self.field.one() / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            other = self._coerce(other)
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        return f"FieldElement({[[repr(c) for c in row] for row in self.rows]})"

    # -- linear data -------------------------------------------------------------

    def mult_matrix(self):
        """Matrix of multiplication by self in the Q_p-basis y^j u^i."""
        K = self.field
        cols = []
        cur_j = self
        for j in range(K.f):
            cur = cur_j
            for i in range(K.e_ram):
                cols.append(cur.coordinates())
                if i + 1 < K.e_ram:
                    cur = cur * K.pi if K.e_ram > 1 else cur
            if j + 1 < K.f:
                cur_j = cur_j * K.y_gen()
        # columns were built basis-wise; transpose into row-major matrix
        d = K.degree
        return [[cols[t][s] for t in range(d)] for s in range(d)]


def _unflatten(vec, field):
    e = field.e_ram
    return [[vec[j * e + i] for i in range(e)] for j in range(field.f)]


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
    """Trace of multiplication-by-x; Q_p-linear with Tr(1) = [K : Q_p]."""
    mat = x.mult_matrix()
    acc = x.field.zero_scalar()
    for t in range(x.field.degree):
        acc = acc + mat[t][t]
    return acc


def residue(x: FieldElement):
    """Image in the residue field F_p[y]/(g mod p), as a coefficient tuple."""
    exact, v = x.pivot_val()
    if v < 0:
        raise DomainError("residue of an element of negative valuation")
    out = []
    for j in range(x.field.f):
        out.append(x.rows[j][0].residue())
    return tuple(out)


class FieldEmbedding:
    """Ring map K -> L determined by validated images of y and u."""

    def __init__(self, src: LocalField, dst: LocalField, y_image: FieldElement,
                 u_image: FieldElement, check: bool = True):
        if y_image.field is not dst or u_image.field is not dst:
            raise UsageError("images must live in the target field")
        if src.p != dst.p:
            raise UsageError("embeddings require the same residue characteristic")
        self.src, self.dst = src, dst
        self.y_image, self.u_image = y_image, u_image
        if check:
            self._verify()

    def _verify(self):
        for img in (self.y_image, self.u_image):
            if img.val_bound() < 0:
                raise DomainError("substitution images must be integral")
        g_res = _eval_scalar_poly(self.src.g, self.y_image, self.dst)
        if not g_res.is_zero():
            raise DomainError(
                "image of y violates the unramified relation; residual valuation >= %s"
                % g_res.val_bound())
        e_res = self._eval_E(self.u_image)
        if not e_res.is_zero():
            raise DomainError(
                "image of u violates the Eisenstein relation; residual valuation >= %s"
                % e_res.val_bound())

    def _eval_E(self, ups):
        acc = self.dst.zero()
        for coeff in reversed(self.src.E):
            mapped = _eval_scalar_poly(coeff, self.y_image, self.dst)
            acc = acc * ups + mapped
        return acc

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.field is not self.src:
            raise UsageError("element does not belong to the embedding's source")
        y_pows = [self.dst.one()]
        for _ in range(self.src.f - 1):
            y_pows.append(y_pows[-1] * self.y_image)
        u_pows = [self.dst.one()]
        for _ in range(self.src.e_ram - 1):
            u_pows.append(u_pows[-1] * self.u_image)
        acc = self.dst.zero()
        for j in range(self.src.f):
            for i in range(self.src.e_ram):
                acc = acc + (y_pows[j] * u_pows[i]) * x.rows[j][i]
        return acc


def _eval_scalar_poly(coeffs, at, dst):
    acc = dst.zero()
    for c in reversed(coeffs):
        acc = acc * at + dst.from_scalar(c)
    return acc


def apply_substitution(x: FieldElement, y_image: FieldElement,
                       u_image: FieldElement) -> FieldElement:
    """The unique endomorphism of K sending y, u to the verified images."""
    emb = FieldEmbedding(x.field, x.field, y_image, u_image, check=True)
    return emb(x)


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
    deg = q * (p - 1)
    coeffs = [0] * (deg + 1)
    for k in range(p):
        n = k * q
        c = 1
        for j in range(n + 1):
            coeffs[j] += c
            c = c * (n - j) // (j + 1)
    return eisenstein_field(p, coeffs, prec)
