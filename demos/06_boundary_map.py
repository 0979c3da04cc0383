"""
The trace boundary map into Q_p/Z_p
===================================

x maps to (1/p) Tr_{K|Q_p}(x) modulo Z_p.  Its kernel is a concrete lattice
once a denominator bound is fixed, the image is the full p-power torsion,
and the map scales by the relative degree along embeddings.
"""

import random

from senlab import (boundary, cyclotomic_field, in_picard_image,
                    kernel_lattice, qp_field, scalar_embedding,
                    witness_of_order)
from senlab.picard import functoriality_check

p = 5
Q = qp_field(p, prec=40)

print("boundary(1) =", boundary(Q.one()))
print("boundary(p) =", boundary(Q.from_int(p)))
print("1 in the kernel:", in_picard_image(Q.one()))

# the kernel of the boundary on Z_p is exactly p Z_p
rep = kernel_lattice(Q, s=0)
print("kernel lattice basis:", [b.coordinates()[0] for b in rep.basis],
      " image order: p^%d" % rep.image_order_exponent)

# enlarging the lattice to p^(-2) Z_p raises the image order to p^3
print("image order at s = 2: p^%d" % kernel_lattice(Q, s=2).image_order_exponent)

# over Q_p(zeta_p) the root of unity has trace -1, hence class (p-1)/p
C = cyclotomic_field(p, 1, prec=40)
zeta = C.one() + C.pi
print("boundary(zeta) =", boundary(zeta))
print("zeta - zeta^2 in the kernel:", in_picard_image(zeta - zeta ** 2))

# the boundary scales by the relative degree along the embedding
emb = scalar_embedding(Q, C)
rng = random.Random(0)
checks = [functoriality_check(emb, Q.from_int(rng.randrange(-10 ** 4, 10 ** 4)))["equal"]
          for _ in range(5)]
print("functoriality on 5 random elements:", all(checks))

# every p-power order is hit
for k in range(6):
    w = witness_of_order(Q, k)
    print(f"witness of order p^{k}: boundary = {boundary(w)}")
