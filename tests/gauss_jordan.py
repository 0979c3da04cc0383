"""The generic route of senlab.linalg, row_reduce on scalar objects, as the
oracle for the integral Gauss-Jordan kernel that linalg.solve, invert and
rank use on PadicScalar matrices: the oracles read the rank, the reduced
rows and the pivot columns of its result.  lu_det, forward elimination with
row swaps, is the oracle for linalg.det, which reads row_reduce's pivots.

old_solve, old_invert and old_rank are the integral kernel as it stood
before each entry was formed once: every row operation rewrote the target
row's tail, reduced entry by entry (_clear_column), and the upward pass
cleared one pivot column at a time above its pivot.  The kernel that
replaced it must give the same (val, unit, prec) triples and the same
PrecisionErrors."""

import math

from senlab import linalg
from senlab.errors import PrecisionError, UsageError
from senlab.padic import PadicScalar, vp_int


def gj_rank(mat):
    return linalg.row_reduce(mat).rank


def gj_solve_rows(mat, augment):
    """Rows of X with mat X = augment, mat square.

    [mat | augment] is row-reduced as one matrix: a nonsingular mat takes its
    n pivots in its first n columns, so the augment's entries go through the
    operations that reduce mat."""
    n = len(mat)
    red = linalg.row_reduce([row + aug for row, aug in zip(mat, augment)])
    if red.pivot_cols[:n] != list(range(n)):
        raise PrecisionError("matrix singular to working precision")
    out = [None] * n
    for row, c in zip(red.rows, red.pivot_cols):
        out[c] = row[n:]
    return out


def gj_solve(mat, rhs):
    return [row[0] for row in gj_solve_rows(mat, [[x] for x in rhs])]


def gj_invert(mat, one, zero):
    return gj_solve_rows(mat, linalg.identity(len(mat), one, zero))


def lu_det(mat, one, zero):
    """Determinant by forward elimination with valuation pivoting: the sign
    of the row swaps times the product of the pivots."""
    a = linalg.mat_copy(mat)
    n = len(a)
    sign, pivots = 1, []
    for c in range(n):
        sel = linalg._select_pivot([(i, *a[i][c].pivot_val()) for i in range(c, n)])
        if sel is None:
            return zero
        if sel != c:
            a[c], a[sel] = a[sel], a[c]
            sign = -sign
        piv = a[c][c]
        pivots.append(piv)
        for i in range(c + 1, n):
            f = a[i][c] / piv
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return math.prod(pivots, start=-one if sign < 0 else one)


# ---------------------------------------------------------------------------
# the row-rewriting integral kernel, kept as an oracle
# ---------------------------------------------------------------------------

def old_rank(mat):
    if not mat:
        return 0
    p, rows, top = _padic_rows(mat, None)
    return len(_integral_lu(p, rows, top, len(mat[0])))


def old_solve(mat, rhs):
    return _padic_solve(mat, [[x] for x in rhs])[0]


def old_invert(mat, one, zero):
    return [list(row) for row in zip(*_padic_solve(mat, linalg.identity(len(mat), one, zero)))]


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
        sel = linalg._select_pivot([(i, v is not None, rows[i][2][c] if v is None else v)
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
        raise PrecisionError(linalg.SINGULAR)
    pivots = _integral_lu(p, rows, top, n)
    if len(pivots) < n:
        raise PrecisionError(linalg.SINGULAR)
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
