"""Quantum stabilizer codes from one-point algebraic-geometry codes, exactly.

Everything is exact integer arithmetic over small finite fields.  There is
no rounding, by construction: a product with one row or one column in
characteristic 2 is a table gather and an XOR reduction, and floats appear
only as exact integer accumulators in the BLAS product.  There are no
probabilistic shortcuts.  See README.md for the CLI and the library tour.
"""

from .agcodes import (
    CodeSequence,
    DualityCertificate,
    OnePointCode,
    certify_duality,
    dual_distance_bound,
    goppa_bound,
    incomplete_trace_search,
    order_bound,
    trace_code,
)
from .codes import LinearCode, relative_min_weight, work_budget
from .curves import (
    CATALOGUE,
    EvaluationSet,
    PointedCurve,
    curve_from_json,
    evaluation_set_from_json,
    hyperelliptic_even,
    hyperelliptic_odd,
    norm_trace_quotient,
    sep_variable_curve,
    suzuki_curve,
)
from .fields import (
    GF,
    Embedding,
    Field,
    UnsupportedFieldError,
    embedding,
    field_from_json,
)
from .quantum import (
    QuantumParams,
    css_hermitian,
    css_nested,
    css_self_orthogonal,
    gv_status,
    gv_terms,
    scan_sequence,
)
from .repro import run_all, run_target, target_ids
from .semigroups import NumericalSemigroup

__all__ = [
    "CATALOGUE",
    "GF",
    "CodeSequence",
    "DualityCertificate",
    "Embedding",
    "EvaluationSet",
    "Field",
    "LinearCode",
    "NumericalSemigroup",
    "OnePointCode",
    "PointedCurve",
    "QuantumParams",
    "UnsupportedFieldError",
    "certify_duality",
    "css_hermitian",
    "css_nested",
    "css_self_orthogonal",
    "curve_from_json",
    "dual_distance_bound",
    "embedding",
    "evaluation_set_from_json",
    "field_from_json",
    "goppa_bound",
    "gv_status",
    "gv_terms",
    "hyperelliptic_even",
    "hyperelliptic_odd",
    "incomplete_trace_search",
    "norm_trace_quotient",
    "order_bound",
    "relative_min_weight",
    "run_all",
    "run_target",
    "scan_sequence",
    "sep_variable_curve",
    "suzuki_curve",
    "target_ids",
    "trace_code",
    "work_budget",
]

__version__ = "0.1.0"
