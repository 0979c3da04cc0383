"""Sen modules (M, theta) over a local field K.

A module is a square matrix theta over K together with the twist parameter
e = E'(pi), the field's different generator.  The module provides:

  * division-free characteristic polynomials (Samuelson-Berkowitz);
  * the nearly-Hodge-Tate classifier: theta^p - e^(p-1) theta must be
    topologically nilpotent, certified through Newton-polygon slopes of its
    characteristic polynomial, never through root finding.  The condition
    belongs to (theta, e) alone, so the certificate is computed once per
    module, on first use, and weights, the operator series and descent
    all read it and refuse a module that fails it;
  * integer weight multiplicities, read off char(theta) as its order of
    vanishing at X = e n, cohomology of theta as kernel/cokernel,
    tensor/dual/twist constructions;
  * the semilinear operator series (1 + e b)^(theta/e)
      = sum_n (b^n/n!) prod_{i<n} (theta - e i),
    whose convergence is exactly the classifier condition.

Sign convention: theta is the operator induced by the derivation
(1 + e a) d/da on the divided-power algebra; some treatments in the
literature use the negative of this operator.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg
from .errors import ConvergenceError, DomainError, PrecisionError, UsageError
from .field import LocalField
from .padic import PadicScalar, exp_domain_threshold, newton_polygon, series_converged


class SenModule:
    """Finite free K-module with endomorphism theta and twist parameter e."""

    __slots__ = ("field", "dim", "theta", "e", "_certificate")

    def __init__(self, field: LocalField, theta):
        self.field = field
        self.theta = tuple(tuple(row) for row in theta)
        self.dim = len(self.theta)
        if any(len(row) != self.dim for row in self.theta):
            raise UsageError("theta must be a square matrix")
        self.e = field.different_e
        if self.e.is_zero():        # E'(pi) can be zero to a low precision
            raise UsageError("the twist parameter e must be nonzero")
        self._certificate = None        # the ClassifierReport, set by nearly_ht_test

    @classmethod
    def from_int_matrix(cls, field, rows):
        return cls(field, [[field.from_int(c) for c in row] for row in rows])

    @classmethod
    def diagonal_weights(cls, field, weights):
        """Direct sum of rank-one twists: theta = e * diag(weights)."""
        e = field.different_e
        d = len(weights)
        theta = [[field.zero() for _ in range(d)] for _ in range(d)]
        for i, n in enumerate(weights):
            theta[i][i] = e * n
        return cls(field, theta)

    def _zero(self):
        return self.field.zero()

    def _one(self):
        return self.field.one()

    def matrix(self):
        return [list(row) for row in self.theta]

    def __repr__(self):
        return f"SenModule(dim={self.dim})"


def regular_representation(field: LocalField, trunc: int) -> SenModule:
    """theta acting on the degree-<=trunc divided-power polynomials."""
    from .dpseries import theta_matrix
    return SenModule(field, theta_matrix(field, trunc))


# ---------------------------------------------------------------------------
# characteristic polynomials and the classifier
# ---------------------------------------------------------------------------

def char_poly(M: SenModule):
    """Monic characteristic polynomial det(T - theta), coefficients ascending."""
    return linalg.charpoly_berkowitz(M.matrix(), M._one(), M._zero())


class ClassifierReport:
    """Outcome of the topological-nilpotence test on theta^p - e^(p-1) theta."""

    __slots__ = ("verdict", "char_q", "polygon", "offending")

    def __init__(self, verdict, char_q, polygon, offending):
        self.verdict = verdict
        self.char_q = char_q
        self.polygon = polygon
        self.offending = offending

    def __repr__(self):
        return f"ClassifierReport(verdict={self.verdict}, offending={self.offending})"


def nearly_ht_test(M: SenModule) -> ClassifierReport:
    """All eigenvalues of theta in e*Z + maximal ideal, tested slope-wise.

    Equivalent to every Newton-polygon slope of char(Q), Q = theta^p -
    e^(p-1) theta, being positive, since over the residue field
    X^p - e^(p-1) X splits into the p linear factors X - e*i.  theta and e
    never change, so the report is computed on the first call and every
    later call returns it.
    """
    if M._certificate is None:
        p = M.field.p
        theta = M.matrix()
        q = linalg.mat_sub(linalg.mat_pow(theta, p, M._one(), M._zero()),
                           linalg.mat_scale(theta, M.e ** (p - 1)))
        coeffs = linalg.charpoly_berkowitz(q, M._one(), M._zero())
        polygon = newton_polygon(coeffs)
        M._certificate = ClassifierReport(polygon.all_slopes_positive(), coeffs,
                                          polygon, polygon.offending_slopes())
    return M._certificate


def _require_nearly_ht(M: SenModule):
    """Raise DomainError unless M's certificate says it is nearly Hodge-Tate."""
    report = nearly_ht_test(M)
    if not report.verdict:
        raise DomainError(
            "the module is not nearly Hodge-Tate: char(theta^p - e^(p-1) theta) "
            "has slopes [%s] that are not positive" % ", ".join(map(str, report.offending)),
            concept="nearly Hodge-Tate classifier")


# ---------------------------------------------------------------------------
# weights and cohomology
# ---------------------------------------------------------------------------

def default_weight_range(M: SenModule, coeffs):
    """Heuristic window [-B, B] read off the polygon of char(theta), given as
    its ascending coefficients `coeffs`.

    A slope only pins v_p of a candidate weight, never its size, so the
    window combines the slope spread with a fixed floor of 32; pass an
    explicit range to be definitive.
    """
    polygon = newton_polygon(coeffs)
    exact, v_e = M.e.pivot_val()
    spread = 0
    for s in polygon.slopes:
        if s.exact:
            spread = max(spread, math.ceil(s.value - (v_e if exact else 0)))
    b = max(32, M.field.p ** min(8, max(0, spread)))
    return (-b, b)


def ht_weights(M: SenModule, n_range=None):
    """Multiplicity of each integer weight n: the order of vanishing of
    char(theta) at X = e n.

    char(theta) is computed once; each n divides it synthetically by X - e n
    for as long as the remainder is zero to its own precision, so every
    eigenvalue's distance to e n counts once.  Eigenvalues near e n but not
    equal to it within the working precision report multiplicity 0.  Raises
    PrecisionError when the multiplicities add up to more than dim: the
    working precision then cannot separate two weights of the window.
    """
    if n_range is not None and n_range[0] > n_range[1]:
        raise UsageError("empty weight range")
    _require_nearly_ht(M)
    coeffs = char_poly(M)
    n_min, n_max = default_weight_range(M, coeffs) if n_range is None else n_range
    out = []
    for n in range(n_min, n_max + 1):
        poly, mult, root = coeffs, 0, M.e * n
        while len(poly) > 1:
            # Horner's running values: the quotient's coefficients, then the remainder
            acc = [poly[-1]]
            for c in reversed(poly[:-1]):
                acc.append(c + root * acc[-1])
            if not acc[-1].is_zero():
                break
            poly, mult = acc[-2::-1], mult + 1
        if mult:
            out.append((n, mult))
    if sum(mult for _, mult in out) > M.dim:
        raise PrecisionError(
            "weight multiplicities %s exceed dim = %d: precision %d cannot separate "
            "the weights in [%d, %d]; raise the working precision"
            % (out, M.dim, M.field.prec, n_min, n_max))
    return out


class CohomologyReport:
    __slots__ = ("h0_dim", "h1_dim", "h0_basis", "h1_basis_indices")

    def __init__(self, h0_dim, h1_dim, h0_basis, h1_basis_indices):
        self.h0_dim = h0_dim
        self.h1_dim = h1_dim
        self.h0_basis = h0_basis
        self.h1_basis_indices = h1_basis_indices

    def __repr__(self):
        return f"CohomologyReport(h0={self.h0_dim}, h1={self.h1_dim})"


def cohomology(M: SenModule) -> CohomologyReport:
    """Kernel and cokernel of theta on K^dim; dimensions always agree."""
    mat = M.matrix()
    kernel = linalg.kernel_basis(mat, M._one(), M._zero())
    transpose = [[mat[j][i] for j in range(M.dim)] for i in range(M.dim)]
    _, pivot_rows, r = linalg.row_reduce(transpose)
    coker = [i for i in range(M.dim) if i not in pivot_rows]
    return CohomologyReport(len(kernel), M.dim - r, kernel, coker)


# ---------------------------------------------------------------------------
# tensor operations
# ---------------------------------------------------------------------------

def tensor(m1: SenModule, m2: SenModule) -> SenModule:
    """theta = theta_1 (x) 1 + 1 (x) theta_2 on the Kronecker product."""
    if m1.field is not m2.field:
        raise UsageError("tensor factors live over different fields")
    d1, d2 = m1.dim, m2.dim
    zero = m1._zero()
    d = d1 * d2
    theta = [[zero for _ in range(d)] for _ in range(d)]
    for a in range(d1):
        for b in range(d1):
            for c in range(d2):
                theta[a * d2 + c][b * d2 + c] = theta[a * d2 + c][b * d2 + c] + m1.theta[a][b]
    for a in range(d1):
        for b in range(d2):
            for c in range(d2):
                theta[a * d2 + b][a * d2 + c] = theta[a * d2 + b][a * d2 + c] + m2.theta[b][c]
    return SenModule(m1.field, theta)


def dual(m: SenModule) -> SenModule:
    theta = [[-m.theta[j][i] for j in range(m.dim)] for i in range(m.dim)]
    return SenModule(m.field, theta)


def bk_twist(m: SenModule, n: int) -> SenModule:
    """Shift theta by e*n, the rank-one twist with integer weight n."""
    shift = m.e * n
    theta = [[m.theta[i][j] + (shift if i == j else m._zero())
              for j in range(m.dim)] for i in range(m.dim)]
    return SenModule(m.field, theta)


def trivial_module(field: LocalField) -> SenModule:
    return SenModule(field, [[field.zero()]])


# ---------------------------------------------------------------------------
# the semilinear operator series
# ---------------------------------------------------------------------------

def _summed_series(M: SenModule, b, prod):
    """The d x k matrix sum (b^n/n!) P_n, P_0 = prod and P_(n+1) =
    (theta - e n) P_n, to the field's precision under the one stop rule
    `series_converged`.

    Every factor theta - e i has entries of valuation at least
    w = min(v(theta), v(e)), and v(b^m/m!) >= m v(b) - (m-1)/(p-1).  With
    c = v(b) + w, every term after the n-th therefore has valuation at least
    v(P_n) - n w + (n+1)(c - 1/(p-1)) + 1/(p-1), carried as
    v(P_(n+1)) >= v(P_n) + w past precision losses; so the bound grows by
    c - 1/(p-1) every term when c > 1/(p-1).  Every one of these quantities
    is an integer in units of 1/(e_ram (p-1)), read off `_v()`, and the
    bound is floored: the stop rule compares it with integers only.

    Each P_(n+1) is linalg.mat_mul's, and each entry of the sum one
    LocalField.dot of the c_n = b^n/n! with its P_n, whose running precision,
    the least q that `_product` gives c_n x so far, the stop rule reads.  The
    diagonal theta_ii - e n stays one element: split as theta v - (e n) v, a
    cancelling one would claim fewer digits.
    """
    K = M.field
    if isinstance(b, (int, PadicScalar)):
        b = K.from_scalar(b)
    _require_nearly_ht(M)
    p, e = K.p, K.e_ram
    den = e * (p - 1)                   # valuations are counted in 1/den
    w = (p - 1) * min([M.e._v()] + [x._v() for row in M.theta for x in row])
    c = (p - 1) * b._v() + w
    if c <= e:
        raise ConvergenceError(
            "operator series needs v(b) + min(v(theta), v(e)) > 1/(p-1) = %s; "
            "got %s" % (Fraction(1, p - 1), Fraction(c, den)),
            concept="operator series stop rule")
    if not M.dim:
        return []
    coefs, terms, coef, n, v_prod, zero = [], [], K.one(), 0, None, K.zero()
    precs, k = [math.inf] * (M.dim * len(prod[0])), len(prod[0])
    while True:
        flat = [x for row in prod for x in row]
        low = (p - 1) * min(x._v() for x in flat)
        v_prod = low if v_prod is None else max(low, v_prod + w)
        precs = [min(q, K._product(coef, x)[1]) for q, x in zip(precs, flat)]
        coefs.append(coef)
        terms.append(flat)
        if series_converged((v_prod - n * w + (n + 1) * (c - e) + e) // den, K.prec, precs):
            break
        en = M.e * n
        n += 1
        coef = coef * b / n            # the integer n: K.from_int(n)'s rule, with no inverse
        prod = linalg.mat_mul([[x - en if i == j else x for j, x in enumerate(row)]
                               for i, row in enumerate(M.theta)], prod, zero)
    flat = [K.dot(coefs, column, zero) for column in zip(*terms)]
    return [flat[i * k:(i + 1) * k] for i in range(M.dim)]


def operator_series(M: SenModule, b):
    """The matrix (1 + e b)^(theta/e) = sum (b^n/n!) prod_{i<n}(theta - e i).

    Requires the nearly-Hodge-Tate condition, which makes the factor products
    tend to zero; admissible pairs satisfy the group law
    S(b) S(b') = S(b + b' + e b b').  Raises DomainError for a module that
    fails the classifier, and ConvergenceError up front when
    v(b) + min(v(theta), v(e)) <= 1/(p-1), where the stop rule has no bound.
    """
    return _summed_series(M, b, linalg.identity(M.dim, M._one(), M._zero()))


def operator_series_apply(M: SenModule, b, vector):
    """Apply the operator series to one vector without forming the matrix; a
    scalar entry is taken as K.from_scalar of it."""
    if len(vector) != M.dim:
        raise UsageError(f"the vector has {len(vector)} entries; the module has dimension {M.dim}")
    return [row[0] for row in _summed_series(M, b, [[M._one()._coerce(x)] for x in vector])]


def semilinear_descent_matrix(M: SenModule, chi_value: PadicScalar):
    """Matrix by which an automorphism with unit-ball value chi acts on M.

    chi - 1 must lie in the exponential's convergence ball, v > alpha, which
    for integer valuations is v >= exp_domain_threshold(p) (2 over Q_2);
    the matrix is the operator series at b = (chi - 1)/e.
    """
    K = M.field
    if chi_value.p != K.p:
        raise UsageError("character value must share the field's prime")
    diff = chi_value - PadicScalar.one(K.p, chi_value.prec)
    threshold = exp_domain_threshold(K.p)
    if not diff.is_zero() and diff.val < threshold:
        raise DomainError(
            "character value must satisfy v(chi - 1) > alpha, i.e. "
            "v(chi - 1) >= %d for p = %d; got v = %s" % (threshold, K.p, diff.val),
            concept="convergence radius alpha")
    return operator_series(M, K.from_scalar(diff) / M.e)
