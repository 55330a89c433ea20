"""Exact degree sequences, initial ideals, and multiplicity cross-checks
for standard graded algebras.

Everything is computed over exact coefficients (prime fields or rationals);
the closed-form fast paths and the brute-force length oracles are kept as
separate routes so they can certify each other.
"""

from .algebra import (
    AlgElement,
    AlgIdeal,
    GradedAlgebra,
    make_algebra,
    minimal_basis,
)
from .degseq import degree_sequence, initial_ideal, verify_initial_transfer
from .errors import (
    FitMismatch,
    HypothesisFail,
    Inconclusive,
    KernelError,
    NoStabilization,
    SearchExhausted,
)
from .groebner import INFINITE, PolyIdeal, buchberger, normal_form
from .hilbert import HilbertData, hilbert_data
from .mixed_rees import (
    MixedMultiplicityTable,
    bhattacharya_oracle,
    invariance_check,
    mixed_fastpath,
    mixed_via_fc_quotient,
    rees_multiplicity,
    rees_presentation,
)
from .monomials import MonomialOrder
from .multiplicity import (
    SamuelResult,
    colength,
    quotient_multiplicity,
    samuel_fastpath_domain,
    samuel_fastpath_general,
    samuel_oracle,
)
from .polynomials import Polynomial, PolyRing, poly_ring
from .reductions import (
    analytic_spread,
    build_fc_sequence,
    fc_check_element,
    find_minimal_reduction,
    height_and_equimultiple,
    is_reduction,
)
from .scalars import FP_DEFAULT, QQ, PrimeField, RationalField, field_from_text

__version__ = "0.1.0"

__all__ = [
    "AlgElement",
    "AlgIdeal",
    "FP_DEFAULT",
    "FitMismatch",
    "GradedAlgebra",
    "HilbertData",
    "HypothesisFail",
    "INFINITE",
    "Inconclusive",
    "KernelError",
    "MixedMultiplicityTable",
    "MonomialOrder",
    "NoStabilization",
    "PolyIdeal",
    "PolyRing",
    "Polynomial",
    "PrimeField",
    "QQ",
    "RationalField",
    "SamuelResult",
    "SearchExhausted",
    "analytic_spread",
    "bhattacharya_oracle",
    "buchberger",
    "build_fc_sequence",
    "colength",
    "degree_sequence",
    "fc_check_element",
    "field_from_text",
    "find_minimal_reduction",
    "height_and_equimultiple",
    "hilbert_data",
    "initial_ideal",
    "invariance_check",
    "is_reduction",
    "make_algebra",
    "minimal_basis",
    "mixed_fastpath",
    "mixed_via_fc_quotient",
    "normal_form",
    "poly_ring",
    "quotient_multiplicity",
    "rees_multiplicity",
    "rees_presentation",
    "samuel_fastpath_domain",
    "samuel_fastpath_general",
    "samuel_oracle",
    "verify_initial_transfer",
]
