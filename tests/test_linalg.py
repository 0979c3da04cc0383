"""linalg.mat_pow: binary powering from the lowest needed power of a; the
elimination entry points take Q_p matrices only."""

import pytest

from senlab import linalg
from senlab.errors import UsageError
from senlab.field import eisenstein_field
from senlab.padic import PadicScalar

S = PadicScalar
ROWS = ([1, 3, -2], [0, 2, 9], [4, -1, 1])


@pytest.mark.parametrize("n", range(18))
def test_mat_pow_counts_products(monkeypatch, n):
    one, zero = S.one(3, 30), S.zero(3, 30)
    a = [[S.from_int(x, 3, 30) for x in row] for row in ROWS]
    want = linalg.identity(3, one, zero)
    for _ in range(n):
        want = linalg.mat_mul(want, a, zero)
    calls = []
    mat_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda *args: calls.append(args) or mat_mul(*args))
    got = linalg.mat_pow(a, n, one, zero)
    # n = 3 is one squaring and one product, not the four from the identity
    assert len(calls) == (n.bit_length() + bin(n).count("1") - 2 if n else 0)
    assert all((x - y).is_zero() for rx, ry in zip(got, want) for x, y in zip(rx, ry))
    # a fresh matrix: writing into it leaves a alone
    got[0][0] = zero
    assert a[0][0] == S.from_int(1, 3, 30)


def test_elimination_takes_padic_matrices_only():
    # solve, invert and rank run the integral Q_p kernel; a FieldElement
    # matrix, or one mixing in another scalar type, is a usage error
    K = eisenstein_field(3, [-3, 0, 1], 20)
    field_mat = [[K.one(), K.zero()], [K.zero(), K.one()]]
    mixed = [[S.one(3, 20), K.zero()], [S.zero(3, 20), S.one(3, 20)]]
    for mat in (field_mat, mixed):
        with pytest.raises(UsageError):
            linalg.rank(mat)
        with pytest.raises(UsageError):
            linalg.solve(mat, [K.one(), K.one()])
        with pytest.raises(UsageError):
            linalg.invert(mat, K.one(), K.zero())
