"""The generic route of senlab.linalg, row_reduce on scalar objects, as the
oracle for the integral Gauss-Jordan kernel that linalg.solve, invert and
rank use on PadicScalar matrices: the oracles read the rank, the reduced
rows and the pivot columns of its result.  lu_det, forward elimination with
row swaps, is the oracle for linalg.det, which reads row_reduce's pivots."""

import math

from senlab import linalg
from senlab.errors import PrecisionError


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
