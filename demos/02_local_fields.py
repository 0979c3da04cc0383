"""
Local fields as unramified-then-Eisenstein towers
=================================================

K is presented as Q_p[y, u]/(g(y), E(u)) with g irreducible mod p and E
Eisenstein over the unramified step.  Elements are coefficient grids against
y^j u^i, which makes valuations exact closed forms and traces plain matrix
traces.
"""

from fractions import Fraction

from senlab import (FieldEmbedding, LocalFieldSpec, build_field,
                    cyclotomic_field, eisenstein_field, qp_field, residue,
                    scalar_embedding, trace_to_Qp)

# Q_3(sqrt 3): one Eisenstein step u^2 - 3
K = eisenstein_field(3, [-3, 0, 1], prec=30)
pi = K.pi
print("pi^2 =", "3" if (pi * pi - K.from_int(3)).is_zero() else "??")
print("v(pi) =", pi.valuation(), "   v(2 pi) =", (K.from_int(2) * pi).valuation())

# the different generator e = E'(pi) = 2 pi has valuation 1/2 (tame here)
e = K.different_e
print("v(e) =", e.valuation(), "== (e_ram - 1)/e_ram =", Fraction(K.e_ram - 1, K.e_ram))

# traces: Tr(1) = [K : Q_p], Tr(pi) = 0 for the odd power of a square root
print("Tr(1)  =", trace_to_Qp(K.one()))
print("Tr(pi) =", trace_to_Qp(pi))

# the nontrivial automorphism u -> -u fixes 3 and negates pi
x = K.one() + pi
print("sigma(1 + pi) = 1 - pi:",
      (FieldEmbedding(K, K, K.one(), -pi)(x) - (K.one() - pi)).is_zero())

# residues land in F_p[y]/(g mod p)
print("residue(1 + pi) =", residue(x))

# a degree-4 tower: unramified quadratic then Eisenstein quadratic
L = build_field(LocalFieldSpec(3, [1, 0, 1], [[-3], [-6], [1]], prec=30))
print("degree of the tower:", L.degree, "=", L.f, "x", L.e_ram)

# cyclotomic fields come ready-made; zeta = 1 + pi is a root of unity
C = cyclotomic_field(5, 1, prec=30)
zeta = C.one() + C.pi
print("zeta^5 = 1:", (zeta ** 5 - C.one()).is_zero())
print("Tr(zeta) = -1:", trace_to_Qp(zeta) == -1)

# scalar embeddings identify Q_p inside any tower (handles carry identity)
Q5 = qp_field(5, 30)
emb = scalar_embedding(Q5, C)
print("7 embeds correctly:", (emb(Q5.from_int(7)) - C.from_int(7)).is_zero())
