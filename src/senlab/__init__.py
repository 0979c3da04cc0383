"""Exact computations with Sen operators over p-adic fields.

Subpackages: padic (scalars, exp/log, Newton polygons), field (extension
towers), dpseries (divided-power algebra and its derivation), senmod
(modules with an operator, classifier, cohomology, operator series), gamma
(finite cyclotomic levels, twisted operators, Neumann inversion), picard
(the trace boundary map), plus a JSON layer and a CLI.

`import senlab` loads no submodule: each name of `_EXPORTS` imports its
module on first access (PEP 562) and is cached here, so a process compiles
only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in {
    "errors": ["ConvergenceError", "DomainError", "PrecisionError", "SenlabError",
               "UsageError"],
    "padic": ["DEFAULT_PRECISION", "NewtonPolygon", "PadicScalar", "newton_polygon",
              "padic_exp", "padic_log"],
    "field": ["FieldElement", "FieldEmbedding", "LocalField", "LocalFieldSpec",
              "build_field", "cyclotomic_field", "eisenstein_field", "qp_field",
              "residue", "scalar_embedding", "trace_to_Qp", "valuation"],
    "dpseries": ["DPSeries", "coaction", "dp_compose", "dp_mul", "gsharp_transport",
                 "log_t", "sen_theta", "solve_theta", "theta_matrix"],
    "senmod": ["ClassifierReport", "SenModule", "bk_twist", "char_poly", "cohomology",
               "dual", "ht_weights", "nearly_ht_test", "operator_series",
               "operator_series_apply", "regular_representation",
               "semilinear_descent_matrix", "tensor"],
    "gamma": ["CyclotomicLevel", "TwistedOperator", "build_level", "dense_solve",
              "g_minus_one", "neumann_invert", "rho_bound"],
    "picard": ["BoundaryValue", "boundary", "functoriality_check", "in_picard_image",
               "kernel_lattice", "witness_of_order"],
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
