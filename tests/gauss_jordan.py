"""The generic route of senlab.linalg, row_reduce on scalar objects, as the
oracle for the integral Gauss-Jordan kernel that linalg.solve, invert and
rank use on PadicScalar matrices."""

from senlab import linalg
from senlab.errors import PrecisionError


def gj_rank(mat):
    return linalg.row_reduce(mat)[3]


def gj_solve_rows(mat, augment):
    """Rows of X with mat X = augment, mat square."""
    n = len(mat)
    _, aug, pivot_cols, r = linalg.row_reduce(mat, augment)
    if r < n:
        raise PrecisionError("matrix singular to working precision")
    out = [None] * n
    for row, c in zip(aug, pivot_cols):
        out[c] = row
    return out


def gj_solve(mat, rhs):
    return [row[0] for row in gj_solve_rows(mat, [[x] for x in rhs])]


def gj_invert(mat, one, zero):
    return gj_solve_rows(mat, linalg.identity(len(mat), one, zero))
