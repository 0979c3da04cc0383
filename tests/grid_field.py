"""The f x e grid model of local-field elements, kept as a test oracle.

Each coordinate of an element is its own PadicScalar with its own precision,
and every operation runs coordinate by coordinate through PadicScalar
arithmetic: products by y- and u-polynomial reduction, traces as the trace
of the multiplication matrix, quotients by Gauss-Jordan elimination of that
matrix.  Only the validated defining data is shared with `senlab.field`.
"""

from fractions import Fraction

from senlab import linalg
from senlab.errors import DomainError, PrecisionError
from senlab.padic import PadicScalar


class GridField:
    """Grid arithmetic over the defining data of a flat LocalField."""

    def __init__(self, flat):
        self.flat = flat
        self.p, self.prec = flat.p, flat.prec
        self.f, self.e_ram, self.degree = flat.f, flat.e_ram, flat.degree
        self.g, self.E = flat.g, flat.E
        self.pi = self.unit(0, 1) if self.e_ram > 1 else GridElement(
            self, [[-c] for c in flat._padded(self.E[0])])

    def zero_scalar(self):
        return PadicScalar.zero(self.p, self.prec)

    def unit(self, j, i):
        rows = [[self.zero_scalar() for _ in range(self.e_ram)] for _ in range(self.f)]
        rows[j][i] = PadicScalar.one(self.p, self.prec)
        return GridElement(self, rows)

    def zero(self):
        return GridElement(self, [[self.zero_scalar()] * self.e_ram for _ in range(self.f)])

    def one(self):
        return self.unit(0, 0)

    def y_gen(self):
        return self.one() if self.f == 1 else self.unit(1, 0)

    def lift(self, x):
        """The grid element with the coordinates of a flat element."""
        c, e = x.coordinates(), self.e_ram
        return GridElement(self, [c[j * e:(j + 1) * e] for j in range(self.f)])

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


class GridElement:
    """Coefficients rows[j][i] of y^j u^i, each a PadicScalar."""

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)

    def coordinates(self):
        return [c for row in self.rows for c in row]

    def min_prec(self):
        return min(c.prec for c in self.coordinates())

    def is_zero(self):
        return all(c.is_zero() for c in self.coordinates())

    def pivot_val(self):
        e = self.field.e_ram
        exact_min, bound_min = None, Fraction(10 ** 9)
        for t, c in enumerate(self.coordinates()):
            shift = Fraction(t % e, e)
            if c.is_zero():
                bound_min = min(bound_min, c.prec + shift)
            else:
                v = c.val + shift
                exact_min = v if exact_min is None else min(exact_min, v)
        if exact_min is None or bound_min < exact_min:
            return (False, bound_min)
        return (True, exact_min)

    def __neg__(self):
        return GridElement(self.field, [[-c for c in row] for row in self.rows])

    def __add__(self, other):
        return GridElement(self.field, [[a + b for a, b in zip(ra, rb)]
                                        for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PadicScalar):
            return GridElement(self.field, [[c * other for c in row] for row in self.rows])
        if self.is_zero() or other.is_zero():
            return self._zero_product(other)
        K = self.field
        f, e = K.f, K.e_ram
        a_cols = [[self.rows[j][i] for j in range(f)] for i in range(e)]
        b_cols = [[other.rows[j][i] for j in range(f)] for i in range(e)]
        prod = [[K.zero_scalar()] * f for _ in range(2 * e - 1)]
        for i1, ya in enumerate(a_cols):
            for i2, yb in enumerate(b_cols):
                conv = K._ypoly_mul(ya, yb)
                prod[i1 + i2] = [x + y for x, y in zip(prod[i1 + i2], conv)]
        cols = K._upoly_reduce(prod)
        return GridElement(K, [[cols[i][j] for i in range(e)] for j in range(f)])

    def _zero_product(self, other):
        """Zero to the least precision of the zero factor plus the least
        coordinate valuation of the other."""
        z, w = (self, other) if self.is_zero() else (other, self)
        cap = min(c.prec for c in z.coordinates()) + \
            min(c.val_bound() for c in w.coordinates())
        K = self.field
        return GridElement(K, [[PadicScalar.zero(K.p, cap)] * K.e_ram for _ in range(K.f)])

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
                    cur = cur * K.pi
            if j + 1 < K.f:
                cur_j = cur_j * K.y_gen()
        return [[cols[t][s] for t in range(K.degree)] for s in range(K.degree)]

    def __truediv__(self, other):
        exact, v = other.pivot_val()
        if not exact:
            raise PrecisionError("division by an element that is zero to precision")
        sol = linalg.solve(other.mult_matrix(), self.coordinates())
        return GridElement(self.field, _unflatten(sol, self.field))

    def inverse(self):
        return self.field.one() / self

    def trace(self):
        mat = self.mult_matrix()
        acc = self.field.zero_scalar()
        for t in range(self.field.degree):
            acc = acc + mat[t][t]
        return acc

    def residue(self):
        exact, v = self.pivot_val()
        if v < 0:
            raise DomainError("residue of an element of negative valuation")
        return tuple(self.rows[j][0].residue() for j in range(self.field.f))


def _unflatten(vec, field):
    e = field.e_ram
    return [[vec[j * e + i] for i in range(e)] for j in range(field.f)]


def embed(x, y_image, u_image, dst):
    """sum_{j,i} y_image^j u_image^i c_{j,i} in the grid field dst."""
    src = x.field
    y_pows, u_pows = [dst.one()], [dst.one()]
    for _ in range(src.f - 1):
        y_pows.append(y_pows[-1] * y_image)
    for _ in range(src.e_ram - 1):
        u_pows.append(u_pows[-1] * u_image)
    acc = dst.zero()
    for j in range(src.f):
        for i in range(src.e_ram):
            acc = acc + (y_pows[j] * u_pows[i]) * x.rows[j][i]
    return acc

