"""The generic route of senlab.linalg, row_reduce on scalar objects, as the
oracle for the integral Gauss-Jordan kernel that linalg.solve, invert and
rank use on PadicScalar matrices."""

from senlab import linalg
from senlab.errors import PrecisionError


def gj_rank(mat):
    return linalg.row_reduce(mat)[2]


def gj_solve_rows(mat, augment):
    """Rows of X with mat X = augment, mat square.

    [mat | augment] is row-reduced as one matrix: a nonsingular mat takes its
    n pivots in its first n columns, so the augment's entries go through the
    operations that reduce mat."""
    n = len(mat)
    rows, pivot_cols, _ = linalg.row_reduce([row + aug for row, aug in zip(mat, augment)])
    if pivot_cols[:n] != list(range(n)):
        raise PrecisionError("matrix singular to working precision")
    out = [None] * n
    for row, c in zip(rows, pivot_cols):
        out[c] = row[n:]
    return out


def gj_solve(mat, rhs):
    return [row[0] for row in gj_solve_rows(mat, [[x] for x in rhs])]


def gj_invert(mat, one, zero):
    return gj_solve_rows(mat, linalg.identity(len(mat), one, zero))
