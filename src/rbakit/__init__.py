"""rbakit: analysis of reality-based algebras with positive degree map.

Validate the defining axioms, decompose into simple components, compute
character tables, multiplicities and Frobenius-Schur indicators, build the
quaternion symbol of the degree-2 component and decide splitness via exact
Hilbert symbols, and check integrality obstructions.
"""

__version__ = "0.1.0"

from .core import (
    RBA,
    AxiomError,
    NumericalError,
    RBAError,
    StructuralError,
    ToleranceConfig,
    degree_map,
    gram_matrix,
    standardize,
    validate,
)
from .decomp import (
    center_basis,
    central_idempotents,
    character_table,
    charpoly_check,
    regular_rep,
    rep_residual,
    star_rep_extract,
    symmetrize,
)
from .indicator import classify_one_pair, indicator_report, rank7_trichotomy
from .ingest import from_group, from_scheme, parse_cayley, parse_scheme, thin_scheme
from .integrality import integral_check, two_adic_obstruction
from .quaternion import hilbert_places, hilbert_symbol, symbol
from .report import AnalysisReport, analyze

__all__ = [
    "RBA",
    "AxiomError",
    "NumericalError",
    "RBAError",
    "StructuralError",
    "ToleranceConfig",
    "degree_map",
    "gram_matrix",
    "standardize",
    "validate",
    "center_basis",
    "central_idempotents",
    "character_table",
    "charpoly_check",
    "regular_rep",
    "rep_residual",
    "star_rep_extract",
    "symmetrize",
    "classify_one_pair",
    "indicator_report",
    "rank7_trichotomy",
    "from_group",
    "from_scheme",
    "parse_cayley",
    "parse_scheme",
    "thin_scheme",
    "integral_check",
    "two_adic_obstruction",
    "hilbert_places",
    "hilbert_symbol",
    "symbol",
    "AnalysisReport",
    "analyze",
]
