"""Valuation-pivoted exact linear algebra over Q_p or a local field.

mat_mul, mat_vec and charpoly_berkowitz run over a local field K: products
go to LocalField.mat_mul and sums to LocalField.dot, with the value and
precision of the sequential sum zero + u[0] v[0] + ...  Q_p is the degree-1
field qp_field(p, prec); a PadicScalar zero raises UsageError.  mat_scale is
c * x entry by entry for every scalar kind.  Pivots are chosen at minimal
exact valuation; an entry counts as zero only when it is zero to its stored
precision, and a stored bound that could undercut the chosen pivot raises
PrecisionError instead of guessing a rank.

solve, invert and rank take matrices of PadicScalar entries only (any
other entries raise UsageError) and run integral Gauss-Jordan on rows of
Python ints (one valuation shift per row, one precision per entry): pivot
rows are never divided, the pivot rule is _select_pivot's, and every entry
keeps the precision PadicScalar arithmetic would give it, so the digits
match row_reduce's and are never fewer.  row_reduce, kernel_basis and det
are generic Gauss-Jordan on scalar objects and serve FieldElement matrices
(cohomology and the resultant oracle); over Q_p, row_reduce is the tests'
oracle for the integral kernel.
"""

from __future__ import annotations

import math

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


def row_reduce(mat):
    """Row-reduce in place (on copies); returns (rows, pivot_cols, rank).

    Standard Gauss-Jordan with valuation pivoting.
    """
    a = mat_copy(mat)
    n = len(a)
    m = len(a[0]) if n else 0
    pivot_cols = []
    r = 0
    for c in range(m):
        if r >= n:
            break
        sel = _select_pivot([(i, *a[i][c].pivot_val()) for i in range(r, n)])
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        piv = a[r][c]
        a[r] = [x / piv for x in a[r]]
        for i in range(n):
            if i == r:
                continue
            f = a[i][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivot_cols.append(c)
        r += 1
    return a, pivot_cols, r


# ---------------------------------------------------------------------------
# integral Gauss-Jordan over Q_p
# ---------------------------------------------------------------------------

def _padic_rows(mat, augment):
    """The prime, [mat | augment] as rows [c, s, q], entry j being
    p^s c[j] + O(p^q[j]) with c[j] reduced mod p^(q[j] - s), and the
    largest precision.  UsageError unless every entry is a PadicScalar over
    one prime."""
    if not (mat and mat[0] and isinstance(mat[0][0], PadicScalar)):
        raise UsageError("solve, invert and rank take matrices of PadicScalar entries")
    p = mat[0][0].p
    rows = []
    for i, row in enumerate(mat):
        entries = row + augment[i] if augment is not None else row
        if any(not isinstance(x, PadicScalar) or x.p != p for x in entries):
            raise UsageError("entries must be PadicScalars over one prime")
        s = min(x.val for x in entries)
        c = [p ** (x.val - s) * x.unit % p ** (x.prec - s) if x.unit else 0 for x in entries]
        rows.append(_primitive(p, c, s, [x.prec for x in entries]))
    return p, rows, max(max(q) for _, _, q in rows)


def _primitive(p, c, s, q):
    """The row [c, s, q] with the content of c moved into the shift s."""
    content = math.gcd(*c)
    if content and content % p == 0:
        t = vp_int(content, p)
        c = [x // p ** t for x in c]
        s += t
    return [c, s, q]


def _entry(p, row, j):
    """Entry j of row as an integer reduced mod its precision."""
    c, s, q = row
    return c[j] % p ** (q[j] - s) if q[j] > s else 0


def _valuation(p, row, j):
    """Valuation of entry j of row, or None if it is zero to precision."""
    x = _entry(p, row, j)
    return row[1] + vp_int(x, p) if x else None


def _valuations(p, row, start):
    """Valuation of each entry of row from column start; the precision for
    an entry that is zero to precision."""
    q = row[2]
    vals = [_valuation(p, row, j) for j in range(start, len(q))]
    return [q[j] if v is None else v for j, v in enumerate(vals, start)]


def _clear_column(p, rows, k, c, v_piv, vals, top):
    """Subtract f_i times pivot row k from each row i of vals, with f_i =
    a_ic / b_kc, making entry c of row i exactly zero.  Row k is zero
    before column c; the rows of vals have precisions at most top.

    vals[i] is the valuation of a_ic, or None when a_ic is zero to
    precision.  Entry j keeps the precision PadicScalar arithmetic gives
    a_ij - f b_kj: min(N(a_ij), N(b_kj) + v(f), N(f) + v(b_kj)), with
    N(f) = min(N(a_ic), N(b_kc) + v(f)) - v(b_kc) the precision of f.
    Digits beyond an entry's precision may remain; _entry drops them.
    """
    cr, sr, qr = rows[k]
    start = c + 1
    tail_r, piv_prec = cr[start:], qr[c]
    piv_vals = _valuations(p, rows[k], start)
    rel = [b - w for b, w in zip(qr[start:], piv_vals)]
    least = min(piv_vals, default=0)
    # the unit part of the pivot, inverted mod a power of p that covers every
    # shift a target row can reach: s2 >= s_i - (v_piv - sr)
    low = min([rows[i][1] for i in vals] + [sr]) - (v_piv - sr)
    inv = pow(cr[c] // p ** (v_piv - sr), -1, p ** max(top - low, 1))
    for i, v in vals.items():
        ci, s, q = rows[i]
        tail_q = q[start:]
        if v is None:           # f = O(p^N(f)) only costs precision
            f_prec = q[c] - v_piv
            if tail_q and f_prec + least < max(tail_q):
                rows[i] = [ci, s, q[:start] + [a if a < f_prec + w else f_prec + w
                                               for a, w in zip(tail_q, piv_vals)]]
            continue
        delta = v - v_piv
        f_prec = min(q[c], piv_prec + delta) - v_piv
        s2 = min(s, sr + delta)
        new_q = [a if a < (u := w + (f_prec if f_prec < e + delta else e + delta)) else u
                 for a, w, e in zip(tail_q, piv_vals, rel)]
        mod = p ** (max(new_q + [s2 + 1]) - s2)
        f = p ** (sr + delta - s2) * (ci[c] // p ** (v - s)) * inv % mod
        if s2 < s:
            a = p ** (s - s2)
            new = [a * x for x in ci[:start]] + [(a * x - f * y) % mod
                                                 for x, y in zip(ci[start:], tail_r)]
        else:
            new = ci[:start] + [(x - f * y) % mod for x, y in zip(ci[start:], tail_r)]
        new[c] = 0
        rows[i] = _primitive(p, new, s2, q[:start] + new_q)


def _integral_lu(p, rows, top, ncols):
    """Forward pass of integral LU on the first ncols columns, in place.

    The pivot of a column is an entry of least valuation, chosen by
    _select_pivot, so f = a_ic / pivot is integral for every row i below and
    the pivot row is never divided.  Returns (column, pivot valuation) for
    each pivot row, in order.
    """
    n = len(rows)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == n:
            break
        vals = {i: _valuation(p, rows[i], c) for i in range(r, n)}
        sel = _select_pivot([(i, v is not None, rows[i][2][c] if v is None else v)
                             for i, v in vals.items()])
        if sel is None:
            continue
        v_piv = vals.pop(sel)
        if sel != r:
            rows[r], rows[sel] = rows[sel], rows[r]
            vals[sel] = vals.pop(r)
        _clear_column(p, rows, r, c, v_piv, vals, top)
        pivots.append((c, v_piv))
    return pivots


def _padic_solve(mat, augment):
    """Columns of X with mat X = augment, for mat square over Q_p.

    After the forward pass, the upward pass clears each pivot column above
    its pivot, in Gauss-Jordan order, with the same exact row operations (f
    need not be integral there); then row k of X is row k of the augment
    divided by its pivot.
    """
    p, rows, top = _padic_rows(mat, augment)
    n = len(mat)
    if len(mat[0]) != n:
        raise PrecisionError(SINGULAR)
    pivots = _integral_lu(p, rows, top, n)
    if len(pivots) < n:
        raise PrecisionError(SINGULAR)
    for k in range(1, n):
        _clear_column(p, rows, k, k, pivots[k][1],
                      {i: _valuation(p, rows[i], k) for i in range(k)}, top)
    return [[_quotient(p, row, k, v_piv, n + t) for row, (k, v_piv) in zip(rows, pivots)]
            for t in range(len(augment[0]))]


def _quotient(p, row, k, v_piv, j):
    """Entry j of row divided by the pivot at column k, as a PadicScalar
    with the precision of PadicScalar division."""
    c, s, q = row
    x = _entry(p, row, j)
    if not x:
        return PadicScalar.zero(p, q[j] - v_piv)
    w = vp_int(x, p)
    val = s + w - v_piv
    prec = min(q[j] - v_piv, q[k] + val - v_piv)
    if val >= prec:
        return PadicScalar.zero(p, prec)
    mod = p ** (prec - val)
    return PadicScalar(p, val, x // p ** w * pow(c[k] // p ** (v_piv - s), -1, mod) % mod, prec)


def rank(mat) -> int:
    if not mat:
        return 0
    p, rows, top = _padic_rows(mat, None)
    return len(_integral_lu(p, rows, top, len(mat[0])))


def kernel_basis(mat, one, zero):
    """Basis of the right kernel, from the reduced echelon form."""
    if not mat:
        return []
    a, pivot_cols, _ = row_reduce(mat)
    m = len(mat[0])
    free_cols = [c for c in range(m) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [zero for _ in range(m)]
        vec[fc] = one
        for row_idx, pc in enumerate(pivot_cols):
            vec[pc] = -a[row_idx][fc]
        basis.append(vec)
    return basis


def solve(mat, rhs):
    """Unique solution of a square system over Q_p; PrecisionError if
    rank-deficient."""
    return _padic_solve(mat, [[x] for x in rhs])[0]


def invert(mat, one, zero):
    """Inverse of a square matrix over Q_p; PrecisionError if singular."""
    return [list(row) for row in zip(*_padic_solve(mat, identity(len(mat), one, zero)))]


def det(mat, one, zero):
    """Determinant via elimination with valuation pivoting."""
    a = mat_copy(mat)
    n = len(a)
    sign = 1
    acc = one
    for c in range(n):
        sel = _select_pivot([(i, *a[i][c].pivot_val()) for i in range(c, n)])
        if sel is None:
            return zero
        if sel != c:
            a[c], a[sel] = a[sel], a[c]
            sign = -sign
        piv = a[c][c]
        acc = acc * piv
        for i in range(c + 1, n):
            f = a[i][c] / piv
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return -acc if sign < 0 else acc


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
