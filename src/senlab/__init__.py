"""Exact computations with Sen operators over p-adic fields.

Subpackages: padic (scalars, exp/log, Newton polygons), field (extension
towers), dpseries (divided-power algebra and its derivation), senmod
(modules with an operator, classifier, cohomology, operator series), gamma
(finite cyclotomic levels, twisted operators, Neumann inversion), picard
(the trace boundary map), plus a JSON layer and a CLI.
"""

from .errors import (ConvergenceError, DomainError, PrecisionError, SenlabError,
                     UsageError)
from .padic import (DEFAULT_PRECISION, NewtonPolygon, PadicScalar, newton_polygon,
                    padic_exp, padic_log)
from .field import (FieldElement, FieldEmbedding, LocalField, LocalFieldSpec,
                    build_field, cyclotomic_field,
                    eisenstein_field, qp_field, residue,
                    scalar_embedding, trace_to_Qp, valuation)
from .dpseries import (DPSeries, coaction, dp_compose, dp_mul, gsharp_transport,
                       log_t, sen_theta, solve_theta, theta_matrix)
from .senmod import (ClassifierReport, SenModule, bk_twist, char_poly,
                     cohomology, dual, ht_weights, nearly_ht_test,
                     operator_series, operator_series_apply,
                     regular_representation, semilinear_descent_matrix, tensor)
from .gamma import (CyclotomicLevel, TwistedOperator, build_level, dense_solve,
                    g_minus_one, neumann_invert, rho_bound)
from .picard import (BoundaryValue, boundary, functoriality_check,
                     in_picard_image, kernel_lattice, witness_of_order)

__version__ = "0.1.0"
