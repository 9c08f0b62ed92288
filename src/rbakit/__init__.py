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
    DegreeMap,
    NumericalError,
    RBAError,
    StructuralError,
    ToleranceConfig,
    ValidationReport,
    degree_map,
    gram_matrix,
    standardize,
    to_standard_basis,
    validate,
)
from .decomp import (
    CentralIdempotent,
    Character,
    CharacterTable,
    center_basis,
    central_idempotents,
    character_table,
    charpoly_check,
    regular_rep,
    rep_residual,
    star_rep_extract,
    symmetrize,
)
from .indicator import (
    IndicatorReport,
    classify_one_pair,
    indicator_report,
    rank7_trichotomy,
)
from .ingest import from_group, from_scheme, parse_cayley, parse_scheme, thin_scheme
from .integrality import (
    Sqrt5,
    build_rank7_example,
    integral_check,
    two_adic_obstruction,
)
from .quaternion import QuaternionSymbol, hilbert_places, hilbert_symbol, symbol
from .report import AnalysisReport, analyze

__all__ = [
    "RBA",
    "AxiomError",
    "DegreeMap",
    "NumericalError",
    "RBAError",
    "StructuralError",
    "ToleranceConfig",
    "ValidationReport",
    "degree_map",
    "gram_matrix",
    "standardize",
    "to_standard_basis",
    "validate",
    "CentralIdempotent",
    "Character",
    "CharacterTable",
    "center_basis",
    "central_idempotents",
    "character_table",
    "charpoly_check",
    "regular_rep",
    "rep_residual",
    "star_rep_extract",
    "symmetrize",
    "IndicatorReport",
    "classify_one_pair",
    "indicator_report",
    "rank7_trichotomy",
    "from_group",
    "from_scheme",
    "parse_cayley",
    "parse_scheme",
    "thin_scheme",
    "Sqrt5",
    "build_rank7_example",
    "integral_check",
    "two_adic_obstruction",
    "QuaternionSymbol",
    "hilbert_places",
    "hilbert_symbol",
    "symbol",
    "AnalysisReport",
    "analyze",
]
