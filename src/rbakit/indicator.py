"""Frobenius-Schur indicators for RBAs with positive degree map.

The normalized indicator of an irreducible character psi is

    nu(psi) = m_psi / (n * psi(b_0)) * sum_i psi(b_i^2) / delta(b_i),

with psi(b_i^2) expanded through the structure constants (never through
representation matrices, so the indicator cross-checks the decomposition).
nu lands in {-1, 0, +1}: 0 for non-real-valued characters, +1 when the
character is realizable over the reals, -1 for quaternionic type. The
*-fixed basis count satisfies s = sum_psi nu(psi) psi(b_0).

The sum is linear in the character row: sum_i psi(b_i^2) / delta(b_i) =
w . psi with w_k = sum_i lam[i,i,k] / delta(b_i), one vector per table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, DegreeMap, NumericalError, RBA, ToleranceConfig
from .decomp import Character, CharacterTable

__all__ = [
    "IndicatorReport",
    "OnePairVerdict",
    "TrichotomyResult",
    "indicator_report",
    "classify_one_pair",
    "rank7_trichotomy",
]


@dataclass
class IndicatorReport:
    nu: list                 # snapped indicators, table order
    raw: list                # raw indicator values before snapping
    s_predicted: int         # sum nu(psi) * psi(b_0)
    s_actual: int            # number of *-fixed basis elements
    pattern: str             # all-plus | has-zero | has-minus

    @property
    def consistent(self) -> bool:
        return self.s_predicted == self.s_actual


def indicator_report(
    rba: RBA,
    dm: DegreeMap,
    table: CharacterTable,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> IndicatorReport:
    """Raw and snapped indicators of every character, and the real count.

    Raw values farther than tol.eps_residual from every element of
    {-1, 0, 1} abort instead of rounding silently.
    """
    n = dm.n_float
    w = (1.0 / dm.values_float) @ np.einsum("iik->ik", rba.lam_float)
    raws = [complex(c.multiplicity_raw / (n * c.degree) * (w @ c.values_raw)) for c in table]
    bound = tol.eps_residual * rba.scale
    nus = []
    for raw in raws:
        best = min((-1, 0, 1), key=lambda t: abs(raw - t))
        if abs(raw - best) > bound:
            raise NumericalError(
                f"indicator out of range: raw value {raw} is not near -1, 0 or 1"
            )
        nus.append(int(best))
    s_pred = sum(nu * c.degree for nu, c in zip(nus, table))
    if -1 in nus:
        pattern = "has-minus"
    elif 0 in nus:
        pattern = "has-zero"
    else:
        pattern = "all-plus"
    return IndicatorReport(
        nu=nus,
        raw=raws,
        s_predicted=int(s_pred),
        s_actual=rba.star_fixed_count(),
        pattern=pattern,
    )


@dataclass
class OnePairVerdict:
    passed: bool
    reason: str = ""
    chi: Character = None


def classify_one_pair(
    rba: RBA,
    table: CharacterTable,
    report: IndicatorReport,
) -> OnePairVerdict:
    """For a noncommutative RBA with exactly one nonreal pair, verify that there is
    a single character of degree > 1, that its degree is 2, and that every
    indicator is +1; returns the degree-2 character on success."""
    pairs = rba.nonreal_pairs()
    if len(pairs) != 1:
        return OnePairVerdict(False, f"{len(pairs)} nonreal pairs (need exactly 1)")
    if all(c.degree == 1 for c in table):
        return OnePairVerdict(False, "commutative algebra (all degrees 1)")
    big = [c for c in table if c.degree > 1]
    if len(big) != 1:
        return OnePairVerdict(
            False, f"{len(big)} characters of degree > 1 (contract requires exactly 1)"
        )
    if big[0].degree != 2:
        return OnePairVerdict(
            False, f"large character has degree {big[0].degree}, not 2"
        )
    if any(nu != 1 for nu in report.nu):
        return OnePairVerdict(
            False, f"indicator pattern {report.nu} is not all +1"
        )
    return OnePairVerdict(True, "", big[0])


_RANK7_PATTERNS = {
    (1, 1, 1, 1): 5,
    (1, 0, 0, 1): 3,
    (1, 1, 1, -1): 1,
}


@dataclass
class TrichotomyResult:
    s_class: int             # 5, 3 or 1, from the indicator pattern
    consistent: bool


def rank7_trichotomy(report: IndicatorReport) -> TrichotomyResult:
    """Classify a noncommutative rank-7 table with degrees (1,1,1,2) by its
    indicator pattern; the *-fixed count must match the pattern's class."""
    pattern = tuple(report.nu)
    if len(pattern) != 4:
        raise ValueError(f"expected 4 characters, got {len(pattern)}")
    if pattern not in _RANK7_PATTERNS:
        raise ValueError(f"indicator pattern {pattern} is not an admissible rank-7 pattern")
    s_class = _RANK7_PATTERNS[pattern]
    return TrichotomyResult(s_class=s_class, consistent=(s_class == report.s_actual))
