"""The rank-one boundary map of a p-adic field K.

The map sends x to (1/p) Tr_{K|Q_p}(x) modulo Z_p, landing in the p-power
torsion of Q_p/Z_p; its kernel is the image of the logarithm from the group
of rank-one objects.  Values are carried as exact rationals num / p^k in
[0, 1), decided at the precision of the computed trace, so every verdict is
discrete and reproducible.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PrecisionError, UsageError
from .field import FieldElement, FieldEmbedding, LocalField, trace_to_Qp
from .padic import PadicScalar, vp_int


class BoundaryValue:
    """Class of a rational in Q_p/Z_p: num / p^den_pow in [0, 1), reduced;
    it generates a cyclic group of order p^den_pow."""

    __slots__ = ("p", "num", "den_pow", "prec")

    def __init__(self, p, num, den_pow, prec):
        self.p = p
        num %= p ** den_pow
        k = vp_int(num, p) if num else den_pow
        self.num = num // p ** k
        self.den_pow = den_pow - k
        self.prec = prec

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.p ** self.den_pow)

    def is_zero(self) -> bool:
        return self.den_pow == 0

    def __add__(self, other):
        if self.p != other.p:
            raise UsageError("cannot add boundary values over different primes")
        p, k = self.p, max(self.den_pow, other.den_pow)
        num = self.num * p ** (k - self.den_pow) + other.num * p ** (k - other.den_pow)
        return BoundaryValue(p, num, k, min(self.prec, other.prec))

    def scaled(self, c: int) -> "BoundaryValue":
        return BoundaryValue(self.p, self.num * c, self.den_pow, self.prec)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.as_fraction() == Fraction(other) % 1
        if not isinstance(other, BoundaryValue):
            return NotImplemented
        return (self.p, self.num, self.den_pow) == (other.p, other.num, other.den_pow)

    __hash__ = None

    def __repr__(self):
        return f"{self.num}/{self.p}^{self.den_pow} mod Z_p"


def boundary(x: FieldElement) -> BoundaryValue:
    """(1/p) Tr_{K|Q_p}(x) reduced modulo Z_p."""
    tr = trace_to_Qp(x)
    return _boundary_of_scalar(tr)


def _boundary_of_scalar(tr: PadicScalar) -> BoundaryValue:
    p = tr.p
    if tr.is_zero():
        if tr.prec < 1:
            raise PrecisionError(
                "trace known only modulo p^%d; cannot decide its class mod pZ_p"
                % tr.prec)
        return BoundaryValue(p, 0, 0, tr.prec)
    if tr.prec < 1:
        raise PrecisionError("trace precision too low to reduce modulo Z_p")
    v = tr.val - 1          # valuation of (1/p) Tr
    if v >= 0:
        return BoundaryValue(p, 0, 0, tr.prec)
    k = -v
    if tr.prec - tr.val < k:
        raise PrecisionError(
            "trace has %d known digits but %d are needed below the point"
            % (tr.prec - tr.val, k))
    num = tr.unit % p ** k
    return BoundaryValue(p, num, k, tr.prec)


def in_picard_image(x: FieldElement) -> bool:
    """True iff the boundary class vanishes, i.e. Tr(x) lies in pZ_p."""
    return boundary(x).is_zero()


class KernelLatticeReport:
    __slots__ = ("basis", "image_order_exponent", "s")

    def __init__(self, basis, image_order_exponent, s):
        self.basis = basis
        self.image_order_exponent = image_order_exponent
        self.s = s

    def __repr__(self):
        return (f"KernelLatticeReport(rank={len(self.basis)}, "
                f"image_order=p^{self.image_order_exponent})")


def kernel_lattice(field: LocalField, s: int = 0) -> KernelLatticeReport:
    """Z_p-basis of {x in pi^(-s) O_K : Tr(x) in pZ_p} and the image data.

    The boundary restricted to the lattice is one Z_p-linear condition; a
    unit-trace pivot basis vector is rescaled by the image order p^(1 - mu)
    (mu the minimal trace valuation) and the others are corrected by it.
    """
    if s < 0:
        raise UsageError("lattice exponent s must be >= 0")
    K = field
    basis = K.basis()
    if s:
        pi_inv_s = (K.pi ** s).inverse()
        basis = [b * pi_inv_s for b in basis]
    traces = [trace_to_Qp(b) for b in basis]
    exact = [(t.val, idx) for idx, t in enumerate(traces) if not t.is_zero()]
    if not exact:
        raise PrecisionError(
            "all basis traces are zero to precision; cannot locate the pivot")
    mu, pivot = min(exact)
    bound_violation = [t.prec for t in traces if t.is_zero() and t.prec < mu]
    if bound_violation:
        raise PrecisionError("a trace bound undercuts the pivot valuation")
    if mu >= 1:
        # boundary vanishes on the whole lattice
        return KernelLatticeReport(basis, 0, s)
    order_exp = 1 - mu
    p_scalar = PadicScalar.from_int(K.p ** order_exp, K.p, K.prec)
    out = []
    for idx, b in enumerate(basis):
        if idx == pivot:
            continue
        c = traces[idx] / traces[pivot]
        out.append(b - basis[pivot] * K.from_scalar(c))
    out.append(basis[pivot] * K.from_scalar(p_scalar))
    return KernelLatticeReport(out, order_exp, s)


def functoriality_check(embedding: FieldEmbedding, x: FieldElement):
    """Verify boundary_L(x) = [L:K] * boundary_K(x) for x in K."""
    if x.field is not embedding.src:
        raise UsageError("element must live in the embedding's source field")
    rel_degree = embedding.dst.degree // embedding.src.degree
    lhs = boundary(embedding(x))
    rhs = boundary(x).scaled(rel_degree)
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs,
            "relative_degree": rel_degree}


def witness_of_order(field: LocalField, k: int) -> FieldElement:
    """Some x in K whose boundary class has exact order p^k."""
    if k < 0:
        raise UsageError("order exponent must be >= 0")
    best = None
    for b in field.basis():
        t = trace_to_Qp(b)
        if not t.is_zero() and (best is None or t.val < best[0]):
            best = (t.val, b)
    if best is None:
        raise PrecisionError("no basis element has a certified nonzero trace")
    w, b = best
    if k == 0:
        return b * field.from_scalar(
            PadicScalar.from_int(field.p ** max(0, 1 - w), field.p, field.prec))
    shift = 1 - k - w
    scale = PadicScalar.from_fraction(Fraction(field.p) ** shift, field.p,
                                      field.prec + abs(shift))
    return b * field.from_scalar(scale)
