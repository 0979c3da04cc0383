"""
Exact p-adic scalars, exp/log, and Newton polygons
==================================================

A scalar is stored as p^val * unit with the unit part known modulo
p^(prec - val); a second flavour, "zero to precision", records that nothing
below p^prec is known.  Every arithmetic operation propagates the largest
absolute precision the inputs justify.
"""

from fractions import Fraction

from senlab import PadicScalar, newton_polygon, padic_exp, padic_log

S = PadicScalar

# 2 + 3 = 5 picks up a carry: the result has valuation 1 at p = 5
x = S.from_int(2, 5, 10)
y = S.from_int(3, 5, 10)
print("2 + 3 =", x + y)

# dividing by 1 - p produces the geometric series, truncated at p^10
q = S.one(5, 10) / S.from_int(1 - 5, 5, 10)
print("1/(1-5) =", q, "->", q.lift(), "=", sum(5 ** k for k in range(10)) % 5 ** 10)

# multiplication by something only known to be zero shifts the blind spot
z = S.from_int(25, 5, 10) * S.zero(5, 7)
print("25 * O(5^7) =", z)

# the exponential converges on v(x) >= 1 for odd p (v >= 2 for p = 2)
a = S.from_int(5, 5, 12)
print("exp(5)      =", padic_exp(a))
print("log(exp(5)) =", padic_log(padic_exp(a)))

try:
    padic_exp(S.from_int(2, 2, 12))
except Exception as err:
    print("exp(2) over Q_2:", err)

# Newton polygons report root valuations with multiplicities
f = [S.from_int(c, 5, 20) for c in (125, 5, 0, 1)]   # T^3 + 5T + 125, ascending
poly = newton_polygon(f)
print("vertices:", list(poly.vertices))
print("root valuations:", poly.slope_multiset())
assert poly.slope_multiset() == [Fraction(1, 2), Fraction(1, 2), Fraction(2)]
