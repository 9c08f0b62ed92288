"""Integrality of structure constants and the 2-adic obstruction.

A noncommutative rank-7 RBA with positive degree map, degrees (1,1,1,2)
and a single *-fixed basis element satisfies, for each linear character
phi != delta, the row-sum relation 1 + 2 phi_1 + 2 phi_2 + 2 phi_3 = 0.
Then 1 + 2(phi_1 + phi_2) is odd whenever phi_1, phi_2 are integers, so
phi_3 = -(1 + 2 phi_1 + 2 phi_2)/2 has 2-adic valuation -1 and the algebra
can never have (algebraic) integer structure constants.

This module also reconstructs the canonical rank-7 witness from its
character data and quaternion-valued degree-2 representation, whose images
are 4x4 left-multiplication matrices over Q(sqrt 5): the quaternion
conjugate is the transpose, and the reduced trace is half the trace. Each
value a + b sqrt(5) is held as the pair (a, b): the images as integer
arrays (A, B) with 2 X = A + B sqrt(5), the tensor as two Fraction arrays.
The reconstruction is exact; the resulting tensor provably contains entries
+-sqrt(5)/4, so the public RBA object is emitted in float mode and only the
derived table data is rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import DEFAULT_TOL, RBA, ToleranceConfig
from .decomp import CharacterTable

__all__ = [
    "IntegralityResult",
    "TwoAdicReport",
    "integral_check",
    "is_algebraic_integer",
    "two_adic_obstruction",
    "two_adic_valuation",
    "row_sum_relation_holds",
    "build_rank7_example",
    "rank7_exact_data",
]


# ---------------------------------------------------------------------------
# integrality of a tensor
# ---------------------------------------------------------------------------

@dataclass
class IntegralityResult:
    count: int                                     # entries that are not integers
    offenders: list = field(default_factory=list)  # (i, j, k, value) of the first 8

    @property
    def integral(self) -> bool:
        return self.count == 0

    def __bool__(self):
        return self.integral


def integral_check(rba: RBA, tol: ToleranceConfig = DEFAULT_TOL) -> IntegralityResult:
    """Whether every structure constant is a (rational) integer.

    Exact mode tests denominators; float mode tests distance to the nearest
    integer against tol.eps_zero. Every offender is counted; the first 8, in
    (i, j, k) order, are kept with their values.
    """
    d, n = rba.lam_int if rba.exact else (None, rba.lam_float)
    bad = n % d != 0 if d else abs(n - np.round(n)) > tol.eps_zero
    offenders = [(int(i), int(j), int(k), Fraction(int(n[i, j, k]), d) if d else n[i, j, k])
                 for i, j, k in np.argwhere(bad)[:8]]
    return IntegralityResult(count=int(bad.sum()), offenders=offenders)


def is_algebraic_integer(rational, coef) -> np.ndarray:
    """Elementwise: whether a + b sqrt(5) is an algebraic integer, for rational
    arrays a, b; true iff its trace 2a and norm a^2 - 5b^2 are rational integers."""
    a, b = np.asarray(rational, dtype=object), np.asarray(coef, dtype=object)
    whole = np.frompyfunc(lambda q: Fraction(q).denominator == 1, 1, 1)
    return np.asarray(whole(2 * a) & whole(a * a - 5 * b * b), dtype=bool)


# ---------------------------------------------------------------------------
# the 2-adic obstruction
# ---------------------------------------------------------------------------

def two_adic_valuation(q) -> float:
    """v_2 of a rational; +inf for zero."""
    q = Fraction(q)
    if q == 0:
        return math.inf
    v = 0
    num, den = q.numerator, q.denominator
    while num % 2 == 0:
        num //= 2
        v += 1
    while den % 2 == 0:
        den //= 2
        v -= 1
    return v


def row_sum_relation_holds(phi1, phi2, phi3) -> bool:
    """1 + 2 phi_1 + 2 phi_2 + 2 phi_3 = 0 (values on the three nonreal pairs)."""
    return 1 + 2 * Fraction(phi1) + 2 * Fraction(phi2) + 2 * Fraction(phi3) == 0


@dataclass
class RowObstruction:
    """One linear row's 2-adic evidence; the fields are the keys of its row in the report."""
    values: tuple                 # (phi_1, phi_2, phi_3) as Fractions
    relation_holds: bool
    phi3_formula_value: Fraction  # -(1 + 2 phi_1 + 2 phi_2) / 2
    valuations: tuple             # v_2 of each value
    witness: str                  # how non-integrality shows up for this row


@dataclass
class TwoAdicReport:
    rows: list
    verdict: str                  # "obstructed-non-integral" | "no-obstruction"

    @property
    def obstructed(self) -> bool:
        return self.verdict == "obstructed-non-integral"


def two_adic_obstruction(rba: RBA, table: CharacterTable) -> TwoAdicReport:
    """2-adic non-integrality for a class-1 rank-7 table with rational values.

    Requires rank 7, degrees (1, 1, 1, 2) and exactly one *-fixed element
    (pattern class 1), so the nonreal basis elements form three pairs
    {b_i, b_i*}. phi_1, phi_2, phi_3 are the values of a linear row phi !=
    delta on the pairs of rba.nonreal_pairs(), in that order for every row;
    a linear character is real there, so it takes one value on each pair.
    Each row must satisfy the row-sum relation; the forced phi_3 = -(1 +
    2 phi_1 + 2 phi_2)/2 has v_2 = -1 whenever phi_1, phi_2 are 2-integral,
    so integer structure constants are impossible. Rows whose printed values
    are already non-2-integral witness the same conclusion directly.
    """
    if sorted(table.degrees()) != [1, 1, 1, 2]:
        raise ValueError(f"expected degrees (1,1,1,2), got {table.degrees()}")
    pairs = rba.nonreal_pairs()
    if len(table.delta.values) != 7 or len(pairs) != 3:
        raise ValueError("expected a rank-7 table with three nonreal pairs")
    rows = []
    for char in table.characters[1:]:
        if char.degree != 1:
            continue
        vals = char.values
        if not all(isinstance(v, Fraction) for v in vals):
            raise ValueError("obstruction check requires rational table values")
        unequal = [(i, j) for i, j in pairs if vals[i] != vals[j]]
        if unequal:  # cannot happen on a valid class-1 input
            raise ValueError(f"a linear character differs on the nonreal pair {unequal[0]}")
        p1, p2, p3 = (vals[i] for i, _ in pairs)
        holds = row_sum_relation_holds(p1, p2, p3)
        formula = -(1 + 2 * p1 + 2 * p2) / 2
        vals2 = tuple(two_adic_valuation(v) for v in (p1, p2, p3))
        if min(vals2[:2]) < 0:
            witness = "phi_1 or phi_2 already has negative 2-adic valuation"
        else:
            witness = "phi_1, phi_2 are 2-integral, so v_2(phi_3) = -1 is forced"
        rows.append(
            RowObstruction(
                values=(p1, p2, p3),
                relation_holds=holds,
                phi3_formula_value=formula,
                valuations=vals2,
                witness=witness,
            )
        )
    if not rows:
        raise ValueError("no linear characters besides the degree map")
    obstructed = all(r.relation_holds for r in rows)
    return TwoAdicReport(
        rows=rows,
        verdict="obstructed-non-integral" if obstructed else "no-obstruction",
    )


# ---------------------------------------------------------------------------
# the canonical rank-7 witness
# ---------------------------------------------------------------------------

RANK7_STAR = (0, 2, 1, 4, 3, 6, 5)
RANK7_DELTA = tuple(Fraction(v) for v in (1, 2, 2, 2, 2, 2, 2))
RANK7_PHI = (Fraction(1), Fraction(-5, 2), Fraction(-5, 2), Fraction(0),
             Fraction(0), Fraction(2), Fraction(2))
RANK7_PSI = (Fraction(1), Fraction(2), Fraction(2), Fraction(-9, 2),
             Fraction(-9, 2), Fraction(2), Fraction(2))
RANK7_MULTIPLICITIES = (Fraction(1), Fraction(52, 45), Fraction(4, 9), Fraction(26, 5))
RANK7_ORDER = Fraction(13)


def _quaternion(t, x, y, z) -> np.ndarray:
    """Left multiplication by t + x i + y j + z k (i^2 = j^2 = k^2 = -1, i j = k)
    on the coordinates (1, i, j, k), as a 4x4 array of the coefficients."""
    return np.array([[t, -x, -y, -z], [x, t, -z, y], [y, z, t, -x], [z, -y, x, t]])


# degree-2 images in the quaternions, as integer (7, 4, 4) stacks (A, B) with
# 2 X(b_i) = A_i + B_i sqrt(5): +-(sqrt5/2) i on b_1, b_1*, +-(sqrt5/2) j on b_2, b_2*
# and -1/2 +- (sqrt5/2) k on b_3, b_3*, whose real part is forced: the feasible
# trace tau(b_3) = 0 and the chi row sum give reduced trace -1.
RANK7_IMAGES = (
    np.array([_quaternion(t, 0, 0, 0) for t in (2, 0, 0, 0, 0, -1, -1)]),
    np.array([_quaternion(0, *v) for v in
              ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))]),
)


def rank7_exact_data():
    """Exact Q(sqrt 5) reconstruction: lam as the pair (rational part, sqrt 5
    coefficient) of (7, 7, 7) Fraction arrays, with star, delta and the chi row.

    Embeds each basis element as (delta(b), phi(b), psi(b), X(b)), multiplies
    tuples componentwise, and reads the structure constants off the trace
    form: lam[i,j,k] = tau(b_i b_j b_k*) / (n delta_k) with
    tau = sum_psi m_psi psi. With 2 X = A + B sqrt5, the 49 products are
    4 X_i X_j = (A_i A_j + 5 B_i B_j) + (A_i B_j + B_i A_j) sqrt5, and as
    X_k* = X_k^T the reduced trace of X_i X_j X_k* is sum(X_i X_j o X_k) / 2.
    """
    m, n = RANK7_MULTIPLICITIES, RANK7_ORDER
    a, b = RANK7_IMAGES
    pa = a[:, None] @ a[None] + 5 * (b[:, None] @ b[None])
    pb = a[:, None] @ b[None] + b[:, None] @ a[None]

    def trace(p, x):
        return np.einsum("ijab,kab->ijk", p, x).astype(object)

    def cube(values):  # values_i values_j values_k*
        v = np.array(values, dtype=object)
        return v[:, None, None] * v[None, :, None] * v[list(RANK7_STAR)]

    # 16 times the reduced trace of X_i X_j X_k*, rational part and sqrt5 coefficient
    ta, tb = trace(pa, a) + 5 * trace(pb, b), trace(pa, b) + trace(pb, a)
    scale = n * np.array(RANK7_DELTA, dtype=object)  # n delta_k
    rational = (m[0] * cube(RANK7_DELTA) + m[1] * cube(RANK7_PHI) + m[2] * cube(RANK7_PSI)
                + m[3] / 16 * ta) / scale
    coef = m[3] / 16 * tb / scale
    return {
        "lam": (rational, coef),
        "star": RANK7_STAR,
        "delta": RANK7_DELTA,
        "chi": tuple(Fraction(int(t), 4) for t in np.einsum("iaa->i", a)),
    }


def build_rank7_example() -> RBA:
    """The canonical noncommutative rank-7 RBA with one *-fixed element.

    Built exactly over Q(sqrt 5) and emitted in float mode: the tensor
    contains entries +-sqrt(5)/4, so its field of definition is Q(sqrt 5)
    and no rational-mode representation exists.
    """
    rational, coef = rank7_exact_data()["lam"]
    lam = rational.astype(float) + coef.astype(float) * math.sqrt(5.0)
    return RBA(lam, RANK7_STAR)
