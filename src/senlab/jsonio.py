"""JSON encoding of every value the front end accepts or emits.

Exact integers travel as decimal strings so payloads survive 64-bit readers;
scalars are {"p", "val", "unit", "prec"} with val null meaning zero to
precision; field elements are row-major coefficient grids whose entries all
carry the element's one precision (a grid read with mixed precisions is
known to the least of them); rationals are {"num", "den"} strings.
Decoders name the offending path on bad input.

Only the decoders that build a field or a series import `senlab.field` or
`senlab.dpseries`, so a command that reads scalars alone never loads them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import UsageError
from .padic import NewtonPolygon, PadicScalar, require_prime

if TYPE_CHECKING:
    from .field import FieldElement, LocalField


# -- primitives ---------------------------------------------------------------

def _as_int(value, path):
    if isinstance(value, bool):
        raise UsageError(f"{path}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise UsageError(f"{path}: {value!r} is not a decimal integer") from None
    raise UsageError(f"{path}: expected an integer or decimal string")


def encode_fraction(x: Fraction):
    return {"num": str(x.numerator), "den": str(x.denominator)}


def decode_fraction(obj, path="fraction"):
    if isinstance(obj, dict):
        return Fraction(_as_int(obj.get("num"), path + ".num"),
                        _as_int(obj.get("den", 1), path + ".den"))
    return Fraction(_as_int(obj, path))


# -- scalars --------------------------------------------------------------------

def encode_scalar(x: PadicScalar):
    return {"p": x.p, "val": x.valuation(), "unit": str(x.unit), "prec": x.prec}


def decode_scalar(obj, path="scalar", p=None, prec=None):
    if isinstance(obj, (int, str)):
        if p is None or prec is None:
            raise UsageError(f"{path}: bare integers need a field context")
        return PadicScalar.from_int(_as_int(obj, path), p, prec)
    if not isinstance(obj, dict):
        raise UsageError(f"{path}: expected a scalar object")
    try:
        pp = _as_int(obj["p"], path + ".p") if "p" in obj else p
        if pp is None:
            raise UsageError(f"{path}.p: missing prime")
        if "p" in obj:
            require_prime(pp)
        pr = _as_int(obj["prec"], path + ".prec") if "prec" in obj else prec
        if pr is None:
            raise UsageError(f"{path}.prec: missing precision")
        unit = _as_int(obj.get("unit", 0), path + ".unit")
    except KeyError as err:
        raise UsageError(f"{path}: missing key {err}") from None
    if obj.get("val") is None:
        return PadicScalar.zero(pp, pr)
    val = _as_int(obj["val"], path + ".val")
    if unit % pp == 0:
        raise UsageError(f"{path}.unit: unit part is divisible by p")
    if val >= pr:
        raise UsageError(f"{path}: valuation {val} is not below precision {pr}")
    return PadicScalar(pp, val, unit % pp ** (pr - val), pr)


def encode_poly(coeffs):
    return {"coeffs": [encode_scalar(c) for c in coeffs]}


# -- fields ----------------------------------------------------------------------

def encode_field_spec(field: LocalField):
    return {
        "p": field.p,
        "prec": field.prec,
        "unramified_poly": [encode_scalar(c) for c in field.g],
        "eisenstein_poly": [[encode_scalar(c) for c in coeff] for coeff in field.E],
    }


def decode_field_spec(obj, path="field", prec_override=None) -> LocalField:
    from .field import LocalFieldSpec, build_field
    if not isinstance(obj, dict):
        raise UsageError(f"{path}: expected a field-spec object")
    for key in ("p", "unramified_poly", "eisenstein_poly"):
        if key not in obj:
            raise UsageError(f"{path}.{key}: missing")
    p = _as_int(obj["p"], path + ".p")
    require_prime(p)
    prec = prec_override if prec_override is not None else \
        _as_int(obj.get("prec", 0), path + ".prec")
    if prec <= 0:
        raise UsageError(f"{path}.prec: a positive working precision is required")
    for key in ("unramified_poly", "eisenstein_poly"):
        if not isinstance(obj[key], list):
            raise UsageError(f"{path}.{key}: expected an array of coefficients")
    unram = [decode_scalar(c, f"{path}.unramified_poly[{i}]", p=p, prec=prec)
             for i, c in enumerate(obj["unramified_poly"])]
    eis = []
    for i, coeff in enumerate(obj["eisenstein_poly"]):
        if not isinstance(coeff, list):
            raise UsageError(
                f"{path}.eisenstein_poly[{i}]: coefficients are arrays over Q_p")
        eis.append([decode_scalar(c, f"{path}.eisenstein_poly[{i}][{j}]",
                                  p=p, prec=prec) for j, c in enumerate(coeff)])
    return build_field(LocalFieldSpec(p, unram, eis, prec))


def encode_element(x: FieldElement):
    coords = [encode_scalar(c) for c in x.coordinates()]
    e = x.field.e_ram
    return {"coeffs": [coords[j * e:(j + 1) * e] for j in range(x.field.f)]}


def decode_element(obj, field: LocalField, path="elem") -> FieldElement:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise UsageError(f"{path}: expected an object with a 'coeffs' grid")
    rows = obj["coeffs"]
    if not isinstance(rows, list) or len(rows) != field.f:
        raise UsageError(f"{path}.coeffs: expected {field.f} rows")
    grid = []
    for j, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != field.e_ram:
            raise UsageError(f"{path}.coeffs[{j}]: expected {field.e_ram} entries")
        grid.append([decode_scalar(c, f"{path}.coeffs[{j}][{i}]",
                                   p=field.p, prec=field.prec)
                     for i, c in enumerate(row)])
    return field.from_grid(grid)


# -- series and modules ------------------------------------------------------------

def encode_dpseries(f):
    return {
        "e": encode_element(f.e),
        "trunc": f.trunc,
        "coeffs": [encode_element(c) for c in f.coeffs],
    }


def decode_dpseries(obj, field: LocalField, path="series", trunc_override=None):
    from .dpseries import DPSeries
    if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
        raise UsageError(f"{path}: expected an object with a 'coeffs' array")
    coeffs = [decode_element(c, field, f"{path}.coeffs[{n}]")
              for n, c in enumerate(obj["coeffs"])]
    e = decode_element(obj["e"], field, path + ".e") if "e" in obj else None
    trunc = trunc_override if trunc_override is not None else \
        obj.get("trunc", len(coeffs) - 1)
    trunc = _as_int(trunc, path + ".trunc")
    if trunc < 0:
        raise UsageError(f"{path}.trunc: truncation must be >= 0")
    if trunc + 1 > len(coeffs):
        coeffs = coeffs + [field.zero()] * (trunc + 1 - len(coeffs))
    else:
        coeffs = coeffs[:trunc + 1]
    return DPSeries(field, coeffs, e=e)


def decode_theta_matrix(obj, field: LocalField, path="theta"):
    if isinstance(obj, dict) and "theta" in obj:
        obj = obj["theta"]
    if not isinstance(obj, list) or not obj:
        raise UsageError(f"{path}: expected a square matrix of field elements")
    d = len(obj)
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != d:
            raise UsageError(f"{path}[{i}]: matrix is not square "
                             f"(row has {len(row) if isinstance(row, list) else 'no'} "
                             f"entries, expected {d})")
        rows.append([decode_element(c, field, f"{path}[{i}][{j}]")
                     for j, c in enumerate(row)])
    return rows


def encode_matrix(mat):
    return [[encode_element(c) for c in row] for row in mat]


def encode_polygon(polygon: NewtonPolygon):
    return {
        "vertices": [[i, encode_fraction(v)] for i, v in polygon.vertices],
        "slopes": [{"value": encode_fraction(s.value), "mult": s.mult,
                    "exact": s.exact} for s in polygon.slopes],
    }


def encode_classifier_report(report):
    return {
        "verdict": report.verdict,
        "char_q": [encode_element(c) for c in report.char_q],
        "polygon": encode_polygon(report.polygon),
        "offending_slopes": [encode_fraction(s) for s in report.offending],
    }


def encode_boundary(b):
    return {"num": str(b.num), "den_pow": b.den_pow, "prec": b.prec}


def decode_scalar_vector(obj, p, prec, path="rhs"):
    if isinstance(obj, dict) and "coeffs" in obj:
        obj = obj["coeffs"]
    if not isinstance(obj, list):
        raise UsageError(f"{path}: expected a list of scalars")
    return [decode_scalar(c, f"{path}[{i}]", p=p, prec=prec)
            for i, c in enumerate(obj)]
