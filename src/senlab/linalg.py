"""Valuation-pivoted exact linear algebra over Q_p or a local field.

mat_mul, mat_vec and charpoly_berkowitz run over a local field K: products
go to LocalField.mat_mul and sums to LocalField.dot, with the value and
precision of the sequential sum zero + u[0] v[0] + ...  Q_p is the degree-1
field qp_field(p, prec); a PadicScalar zero raises UsageError.  mat_scale is
c * x entry by entry for every scalar kind.  Pivots are chosen at minimal
exact valuation; an entry counts as zero only when it is zero to its stored
precision, and a stored bound that could undercut the chosen pivot raises
PrecisionError instead of guessing a rank.

solve, invert and rank take matrices of PadicScalar entries only (any other
entries raise UsageError, as do rows of unequal length and, for solve and
invert, a matrix that is not square or a right-hand side of another size)
and run integral Gauss-Jordan on Python ints: the pivot rule is
_select_pivot's, pivot rows are never divided, and each entry is formed
once, one integer dot product over the multipliers f_k that reach it
reduced once, with precision N = min(N(a), min_k(N(f_k) + v(u_kj)),
min_k(N(u_kj) + v(f_k))), v = N for a zero.  The forward pass runs in Crout
order, the upward pass row by row.  The triples are those of one row
operation at a time: a - f u keeps min(N(a), N(f) + v(u), N(u) + v(f)), so
a chain of them keeps that min-plus; by induction in the order of formation
every f, u and candidate pivot, hence every choice _select_pivot makes, is
the same; and since those rules are sound, the digits below N do not depend
on the representatives.  row_reduce is the one elimination over K, generic
Gauss-Jordan on scalar objects: its Reduction gives the reduced rows, the
pivot columns, each row's original index and each pivot divided out.
kernel_basis reads the kernel off it, det the sign of its row order times
its pivots, and cohomology both H^0 and H^1 from one pass over theta; over
Q_p, row_reduce is the tests' oracle for the integral kernel.
"""

from __future__ import annotations

import math
from operator import add, mul
from typing import NamedTuple

from .errors import PrecisionError, UsageError
from .padic import PadicScalar, power, vp_int

SINGULAR = "matrix singular to working precision"


def mat_copy(m):
    return [list(row) for row in m]


def _field(zero):
    """The LocalField of zero; UsageError for anything else."""
    if not hasattr(zero, "field"):
        raise UsageError("matrix products run over a LocalField: take Q_p as qp_field(p, prec)")
    return zero.field


def mat_mul(a, b, zero, bounds=None):
    """a b; `bounds`, when given, holds LocalField._bound of each row of a."""
    return _field(zero).mat_mul(a, b, zero, bounds)


def mat_vec(a, v, zero, bounds=None):
    if not v:                   # no column: each entry is the empty sum
        return [_field(zero).dot(row, v, zero) for row in a]
    return [row[0] for row in mat_mul(a, [[x] for x in v], zero, bounds)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_pow(a, n, one, zero):
    """a^n as a fresh matrix in bit_length + popcount - 2 products; I at n = 0."""
    return power(mat_copy(a), n, lambda x, y: mat_mul(x, y, zero), identity(len(a), one, zero))


def _select_pivot(candidates):
    """Index of the minimal-valuation candidate, or None if all are zero.

    candidates: (index, is_exact, valuation) triples, as from pivot_val();
    a non-exact valuation is the bound of an entry that is zero to precision.
    Raises when such a bound could undercut the best exact valuation.
    """
    best = None
    bounds = []
    for idx, exact, v in candidates:
        if exact:
            if best is None or v < best[1]:
                best = (idx, v)
        else:
            bounds.append((idx, v))
    if best is None:
        return None
    for idx, b in bounds:
        if b < best[1]:
            raise PrecisionError(
                "rank ambiguous: an entry is zero to precision %s while the "
                "best pivot has valuation %s" % (b, best[1]))
    return best[0]


class Reduction(NamedTuple):
    """row_reduce's result.  rows is the reduced echelon form; its row k
    came from row order[k] of the matrix, and for k < rank it was divided by
    pivots[k], its entry in column pivot_cols[k]."""
    rows: list
    pivot_cols: list
    rank: int
    order: list
    pivots: list


def row_reduce(mat):
    """Gauss-Jordan with valuation pivoting on a copy of mat: the one
    elimination over K."""
    a = mat_copy(mat)
    n = len(a)
    m = len(a[0]) if n else 0
    order, pivot_cols, pivots = list(range(n)), [], []
    for c in range(m):
        r = len(pivots)
        if r >= n:
            break
        sel = _select_pivot([(i, *a[i][c].pivot_val()) for i in range(r, n)])
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        order[r], order[sel] = order[sel], order[r]
        piv = a[r][c]
        a[r] = [x / piv for x in a[r]]
        for i in range(n):
            if i == r:
                continue
            f = a[i][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivot_cols.append(c)
        pivots.append(piv)
    return Reduction(a, pivot_cols, len(pivots), order, pivots)


# ---------------------------------------------------------------------------
# integral Gauss-Jordan over Q_p
# ---------------------------------------------------------------------------

class _Powers(dict):
    """p^k for each k asked for, each computed once, from {1: p}."""
    def __missing__(self, k):
        self[k] = power = self[1] ** k
        return power


class _Row:
    """A row under elimination, from integers c and precisions q, with each
    N(f) of the multipliers f met in nfs and the nonzero f in ks (pivot row
    t), gs (-unit p^(v(f) + shift of t - base)) and vfs; entry j is p^base
    (scale c[j] + sum_i gs[i] u_(ks[i]) j).  bound, least_nf and least_vf
    bound its entries' precision terms from below."""
    __slots__ = ("c", "scale", "base", "q", "ks", "gs", "vfs", "nfs",
                 "bound", "least_nf", "least_vf")

    def __init__(self, c, base, q):
        self.c, self.scale, self.base, self.q = c, 1, base, q
        self.ks, self.gs, self.vfs, self.nfs = [], [], [], []
        self.bound = self.least_nf = self.least_vf = math.inf


class _Pivots:
    """The pivot rows u_t in their forward-pass state: column j lists entry j
    of each in xs[j], vals[j] (a zero's precision for its valuation) and
    precs[j], their least in least_v[j] and least_n[j]; rows[t] holds the
    pivot's valuation, precision and unit inverse, the shift, the tail's
    least valuation and precision, and the integers and precisions."""

    def __init__(self, p, m):
        self.p, self.pw, self.rows = p, _Powers({1: p}), []
        self.xs, self.vals, self.precs = ([[] for _ in range(m)] for _ in range(3))
        self.least_v, self.least_n = [math.inf] * m, [math.inf] * m

    def enter(self, pivot, row, c):
        """Enter row, whose pivot entry at column c is pivot, with its tail."""
        x, v_piv, n_piv = pivot
        tail = [_form(self, row, j) for j in range(c + 1, len(self.xs))]
        xs, precs = [0] * (c + 1) + [t[0] for t in tail], [0] * (c + 1) + [t[2] for t in tail]
        vals = [n if v is None else v for _, v, n in tail]
        for j, v in enumerate(vals, c + 1):
            self.xs[j].append(xs[j])
            self.vals[j].append(v)
            self.precs[j].append(precs[j])
            if v < self.least_v[j]:
                self.least_v[j] = v
            if precs[j] < self.least_n[j]:
                self.least_n[j] = precs[j]
        inv = pow(x // self.pw[v_piv - row.base], -1, self.pw[n_piv - v_piv])
        self.rows.append((v_piv, n_piv, inv, row.base, min(vals, default=math.inf),
                          min(precs[c + 1:], default=math.inf), xs, precs))


def _padic_rows(mat, augment):
    """An empty _Pivots and [mat | augment] as _Rows, entry j being p^s c[j]
    + O(p^q[j]), s the row's least valuation.  UsageError unless every entry
    is a PadicScalar over one prime and every row has the first's length."""
    if not (mat and mat[0] and isinstance(mat[0][0], PadicScalar)):
        raise UsageError("solve, invert and rank take matrices of PadicScalar entries")
    p, rows = mat[0][0].p, []
    U = _Pivots(p, len(mat[0]) + (len(augment[0]) if augment else 0))
    for entries in (mat if augment is None else map(add, mat, augment)):
        if len(entries) != len(U.xs) or any(not isinstance(x, PadicScalar) or x.p != p
                                            for x in entries):
            raise UsageError("entries must be PadicScalars over one prime, rows of one length")
        s = min(x.val for x in entries)
        rows.append(_Row([U.pw[x.val - s] * x.unit if x.unit else 0 for x in entries], s,
                         [x.prec for x in entries]))
    return U, rows


def _form(U, row, j, lo=0):
    """Entry j of row after the f of pivot rows lo, lo + 1, ..., formed once:
    (x, valuation or None if zero to precision, N), the entry p^base x +
    O(p^N).  x is one integer dot product over the nonzero f, reduced once;
    N is the module docstring's min-plus where the bounds let it fall."""
    prec, x, ks = row.q[j], row.c[j], row.ks
    vals = U.vals[j]
    if ks:
        col, precs = U.xs[j], U.precs[j]
        x = x * row.scale + sum(map(mul, row.gs, map(col.__getitem__, ks)))
        if row.bound < prec and (row.least_nf + U.least_v[j] < prec
                                 or row.least_vf + U.least_n[j] < prec):
            prec = min(prec, min(map(add, row.nfs, vals[lo:] if lo else vals)),
                       min(map(add, row.vfs, map(precs.__getitem__, ks))))
    elif row.bound < prec and row.least_nf + U.least_v[j] < prec:
        prec = min(prec, min(map(add, row.nfs, vals[lo:] if lo else vals)))
    base, p = row.base, U.p
    x = x % U.pw[prec - base] if prec > base else 0
    if not x:
        return 0, None, prec
    return x, (base if x % p else base + vp_int(x, p)), prec


def _multiply(U, row, t, entry):
    """Give row f = entry / pivot of row t at the precision of PadicScalar
    division, N(f) = min(N(a), N(b) + v(f)) - v(b) (an entry zero to
    precision gives f = O(p^N(f))), its unit modulo p^(N(f) - v(f)): an
    entry f reaches claims at most N(f) + v(u) digits."""
    x, v, prec = entry
    v_piv, n_piv, inv, shift, least_v, least_n = U.rows[t][:6]
    if v is None:
        nf = prec - v_piv
        row.nfs.append(nf)
        if nf < row.least_nf:
            row.least_nf = nf
        if nf + least_v < row.bound:
            row.bound = nf + least_v
        return
    pw, base, vf = U.pw, row.base, v - v_piv
    nf = min(prec, n_piv + vf) - v_piv
    unit = x // pw[v - base] * inv % pw[nf - vf]
    if vf + shift < base:           # the new term sits below the row's shift
        scale = pw[base - vf - shift]
        row.scale *= scale
        row.gs = [g * scale for g in row.gs]
        row.base = base = vf + shift
    row.ks.append(t)
    row.gs.append(-unit * pw[vf + shift - base])
    row.vfs.append(vf)
    row.nfs.append(nf)
    if nf < row.least_nf:
        row.least_nf = nf
    if vf < row.least_vf:
        row.least_vf = vf
    if nf + least_v < row.bound or vf + least_n < row.bound:
        row.bound = min(nf + least_v, vf + least_n)


def _integral_lu(U, rows, ncols):
    """Forward pass of integral LU on the first ncols columns, in Crout
    order; returns the number of pivots.  At column c each remaining row
    forms its entry there, _select_pivot takes one of least valuation (so
    every f = a_ic / pivot is integral), the pivot row forms its tail into
    U, and every other row takes its f."""
    n = len(rows)
    for c in range(ncols):
        r = len(U.rows)
        if r == n:
            break
        entries = {i: _form(U, rows[i], c) for i in range(r, n)}
        sel = _select_pivot([(i, v is not None, prec if v is None else v)
                             for i, (_, v, prec) in entries.items()])
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        entries[r], entries[sel] = entries[sel], entries[r]
        U.enter(entries.pop(r), rows[r], c)
        for i, entry in entries.items():
            _multiply(U, rows[i], r, entry)
    return len(U.rows)


def _solve_columns(mat, augment):
    """Columns of X with mat X = augment, for mat square over Q_p.  The
    upward pass runs row by row, as row i meets the rows k > i only in their
    forward-pass state: it forms entries i + 1, ..., n - 1 in turn, each
    giving the f of row k = j, then its augment entries, over its pivot."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise UsageError("solve and invert take a square matrix")
    U, rows = _padic_rows(mat, augment)
    if _integral_lu(U, rows, n) < n:
        raise PrecisionError(SINGULAR)
    out = []
    for i, (_, _, _, shift, _, _, xs, precs) in enumerate(U.rows):
        row = _Row(xs, shift, precs)
        for j in range(i + 1, n):
            _multiply(U, row, j, _form(U, row, j, i + 1))
        out.append([_quotient(U, i, row.base, _form(U, row, j, i + 1))
                    for j in range(n, len(U.xs))])
    return [list(col) for col in zip(*out)]


def _quotient(U, i, base, entry):
    """An entry p^base x of row i over its pivot, as a PadicScalar with the
    precision of PadicScalar division."""
    x, v, prec = entry
    v_piv, n_piv, inv = U.rows[i][:3]
    if v is None:
        return PadicScalar.zero(U.p, prec - v_piv)
    val = v - v_piv
    prec = min(prec - v_piv, n_piv + val - v_piv)
    if val >= prec:
        return PadicScalar.zero(U.p, prec)
    return PadicScalar(U.p, val, x // U.pw[v - base] * inv % U.pw[prec - val], prec)


def rank(mat) -> int:
    if not mat:
        return 0
    U, rows = _padic_rows(mat, None)
    return _integral_lu(U, rows, len(mat[0]))


def kernel_basis(reduction, one, zero):
    """Basis of the right kernel, one vector per free column, read from a
    row_reduce result."""
    rows, pivot_cols = reduction.rows, reduction.pivot_cols
    m = len(rows[0]) if rows else 0
    basis = []
    for fc in (c for c in range(m) if c not in pivot_cols):
        vec = [zero] * m
        vec[fc] = one
        for row, pc in zip(rows, pivot_cols):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def solve(mat, rhs):
    """Unique solution of a square system over Q_p; PrecisionError if
    rank-deficient."""
    if len(rhs) != len(mat):
        raise UsageError("right-hand side has size %d; expected %d" % (len(rhs), len(mat)))
    return _solve_columns(mat, [[x] for x in rhs])[0]


def invert(mat, one, zero):
    """Inverse of a square matrix over Q_p; PrecisionError if singular."""
    return [list(row) for row in zip(*_solve_columns(mat, identity(len(mat), one, zero)))]


def det(mat, one, zero):
    """Determinant of a square matrix: the sign of row_reduce's row order
    times the product of its pivots, zero below full rank."""
    red = row_reduce(mat)
    if red.rank < len(mat):
        return zero
    odd = sum(i > j for k, i in enumerate(red.order) for j in red.order[k + 1:]) % 2
    return math.prod(red.pivots, start=-one if odd else one)


def charpoly_berkowitz(mat, one, zero):
    """Division-free characteristic polynomial, coefficients ascending.

    Returns [c_0, ..., c_{d-1}, 1] with char(T) = T^d + c_{d-1} T^(d-1) + ...
    computed by the Samuelson-Berkowitz Toeplitz recursion, which never
    divides and so never loses p-adic precision to pivots.
    """
    K, n = _field(zero), len(mat)
    if n == 0:
        return [one]
    poly = [-mat[0][0], one]
    for r in range(1, n):
        sub = [row[:r] for row in mat[:r]]
        row_vec = mat[r][:r]
        # Toeplitz column: [1, -a_rr, -R C, -R M C, ..., -R M^(r-1) C]
        items = [one, -mat[r][r]]
        acc, bounds = [mat[i][r] for i in range(r)], [K._bound(row) for row in sub]
        for _ in range(r):      # acc = sub acc, the rows of sub bounded once
            items.append(-K.dot(row_vec, acc, zero))
            acc = mat_vec(sub, acc, zero, bounds)
        # the Toeplitz product, read from the constant coefficient up
        poly = [K.dot(items[max(1 - i, 0):r + 2 - i], poly[max(i - 1, 0):], zero)
                for i in range(r + 2)]
    return poly
