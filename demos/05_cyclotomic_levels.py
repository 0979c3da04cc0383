"""
Finite cyclotomic levels, Tate bounds, Neumann inversion
========================================================

Level m is Q_p(zeta_{p^m}) with the automorphism z -> z^a and character
value chi = a.  The twisted blocks chi^n sigma - 1 invert exactly: the
inverse is (chi^(nr) - 1)^-1 S_n, r the finite order of sigma, and
S_n = sum_{j<r} chi^(nj) sigma^j is an integer orbit sum on the zeta^i,
since sigma^j(zeta^i) = zeta^(i a^j): no matrix and no elimination.  The
norm exponents of these inverses give the finite-level uniform bound delta,
and the same orbit sums, over the exact integer a^(nr) - 1, are the blocks
rho_n of the operator below, so no block is singular at any precision.
On the truncated module the full operator g - 1 is block upper triangular
with invertible diagonal blocks, so its kernel is zero (nullity from the
block structure), and rho M is strictly block upper triangular and nilpotent
by its structure.  Its blocks are multiples of 1 + rho_n, because
chi^n rho_n sigma = 1 + rho_n, so its powers need no sigma; its sup-norm has
one route, strict_upper_norm_exponent; and one block back-substitution pass
(the terminating Neumann sum) inverts g - 1 exactly.
"""

import random

from senlab import build_level, dense_solve, g_minus_one, neumann_invert, rho_bound
from senlab.gamma import symmetric_range
from senlab.padic import PadicScalar

# the per-twist exponents agree across levels 1, 2, 3 for the generator 2
for m in (1, 2, 3):
    level = build_level(3, m, 2, prec=40)
    report = rho_bound(level, symmetric_range(10))
    print(f"m = {m}: delta = {report.delta}, per-n maxima at n = +-9")

# the acceptance instance: chi = 1 + 9 at level 2, twist parameter e = 1
level = build_level(3, 2, 10, prec=60)
T = g_minus_one(level, PadicScalar.from_int(1, 3, 60), trunc=8)
print("v(y) =", T.y.val)

con = T.contraction_report()
print("sup-norm exponent of rho M:", con["sup_norm_exponent"],
      "(norm p, not a contraction entrywise)")
print("power exponents:", [str(x) for x in con["power_exponents"]])
print("topologically nilpotent:", con["nilpotent"])

# Neumann and dense solves agree far below working precision
rng = random.Random(0)
rhs = [PadicScalar.from_int(rng.randrange(-3 ** 8, 3 ** 8), 3, 60)
       for _ in range(T.size)]
res = neumann_invert(T, rhs)
direct = dense_solve(T, rhs)
agreement = min((a - b).val_bound() for a, b in zip(res["solution"], direct))
print("agreement valuation:", agreement, " residual:", res["residual_valuation"])
