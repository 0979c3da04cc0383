"""
Sen modules: classifier, weights, cohomology, operator series
=============================================================

A module is a square matrix theta over K.  The classifier asks whether
theta^p - e^(p-1) theta is topologically nilpotent, i.e. whether every
Newton-polygon slope of its characteristic polynomial is positive; this is
the slope-level meaning of "eigenvalues in e Z plus the maximal ideal".
"""

from senlab import (SenModule, bk_twist, cohomology, eisenstein_field,
                    ht_weights, nearly_ht_test, operator_series, qp_field,
                    semilinear_descent_matrix, tensor)
from senlab import linalg
from senlab.padic import PadicScalar
from senlab.senmod import trivial_module

K = eisenstein_field(3, [-3, 0, 1], prec=50)
e = K.different_e

# integer-weight diagonals pass; the identity fails over a ramified field
print("diag(0, e, -3e) nearly HT:",
      nearly_ht_test(SenModule.diagonal_weights(K, [0, 1, -3])).verdict)
report = nearly_ht_test(SenModule.from_int_matrix(K, [[1, 0], [0, 1]]))
print("identity nearly HT:", report.verdict, " offending slopes:", report.offending)

# the rank-two nilpotent module passes and has one-dimensional cohomology
nilp = SenModule.from_int_matrix(K, [[0, -1], [0, 0]])
print("nilpotent verdict:", nearly_ht_test(nilp).verdict)
coh = cohomology(nilp)
print("h0, h1 =", coh.h0_dim, coh.h1_dim)

# integer weights are the roots e n of char(theta), counted with multiplicity
M = SenModule.diagonal_weights(K, [2, 2, 5])
print("weights of diag(2e, 2e, 5e) in [0, 6]:", ht_weights(M, (0, 6)))
print("generalized weight of the nilpotent:", ht_weights(nilp, (-1, 1)))

# twists shift theta by e n and add under tensor product
one = trivial_module(K)
t = tensor(bk_twist(one, 2), bk_twist(one, 3))
print("twist(2) (x) twist(3) has theta = 5e:",
      (t.theta[0][0] - e * 5).is_zero())

# the operator series (1 + e b)^(theta/e) terminates on nonnegative weights
b = K.from_int(3)
s = operator_series(bk_twist(one, 3), b)
print("series at weight 3 equals (1+eb)^3:",
      (s[0][0] - (K.one() + e * b) ** 3).is_zero())

# and satisfies the group law S(b) S(b') = S(b + b' + e b b')
M = SenModule.diagonal_weights(K, [1, -2])
b2 = K.pi * K.from_int(3)
lhs = linalg.mat_mul(operator_series(M, b), operator_series(M, b2),
                     K.zero())
rhs = operator_series(M, b + b2 + e * b * b2)
print("group law holds:",
      all((lhs[i][j] - rhs[i][j]).is_zero() for i in range(2) for j in range(2)))

# a character value chi acts through the series at b = (chi - 1)/e
chi = PadicScalar.from_int(4, 3, 50)
D = semilinear_descent_matrix(bk_twist(one, 2), chi)
print("descent of chi on weight 2 is chi^2:",
      (D[0][0] - K.from_scalar(chi) ** 2).is_zero())
