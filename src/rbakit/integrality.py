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
conjugate is the transpose, and the reduced trace is half the trace. The
reconstruction is exact over Q(sqrt 5); the resulting tensor provably
contains entries +-sqrt(5)/4, so the public RBA object is emitted in float
mode and only the derived table data is rational.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import RBA
from .decomp import CharacterTable

__all__ = [
    "Sqrt5",
    "IntegralityResult",
    "TwoAdicReport",
    "integral_check",
    "two_adic_obstruction",
    "two_adic_valuation",
    "row_sum_relation_holds",
    "build_rank7_example",
    "rank7_exact_data",
]


# ---------------------------------------------------------------------------
# exact arithmetic in Q(sqrt 5), just enough for the reconstruction
# ---------------------------------------------------------------------------

def _lifted(op):
    """op on the operand as a Sqrt5; NotImplemented, as for an array, where Fraction() fails."""
    def lifted(self, other):
        try:
            other = _lift(other)
        except (TypeError, ValueError):
            return NotImplemented
        return op(self, other)
    return lifted


@dataclass(frozen=True)
class Sqrt5:
    """rational + coef * sqrt(5), exact."""

    rational: Fraction = Fraction(0)
    coef: Fraction = Fraction(0)

    @_lifted
    def __add__(self, o):
        return Sqrt5(self.rational + o.rational, self.coef + o.coef)

    __radd__ = __add__

    @_lifted
    def __sub__(self, o):
        return Sqrt5(self.rational - o.rational, self.coef - o.coef)

    @_lifted
    def __rsub__(self, o):
        return o - self

    def __neg__(self):
        return Sqrt5(-self.rational, -self.coef)

    @_lifted
    def __mul__(self, o):
        return Sqrt5(
            self.rational * o.rational + 5 * self.coef * o.coef,
            self.rational * o.coef + self.coef * o.rational,
        )

    __rmul__ = __mul__

    @_lifted
    def __truediv__(self, o):
        nrm = o.rational * o.rational - 5 * o.coef * o.coef
        if nrm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 5)")
        return self * Sqrt5(o.rational / nrm, -o.coef / nrm)

    @_lifted
    def __eq__(self, o):
        return self.rational == o.rational and self.coef == o.coef

    def __hash__(self):
        return hash((self.rational, self.coef))

    def __bool__(self):
        return bool(self.rational or self.coef)

    def __float__(self):
        return float(self.rational) + float(self.coef) * math.sqrt(5.0)

    def __repr__(self):
        if self.coef == 0:
            return str(self.rational)
        return f"({self.rational}+{self.coef}*sqrt5)"

    @property
    def is_rational(self) -> bool:
        return self.coef == 0

    def is_algebraic_integer(self) -> bool:
        """True iff trace 2a and norm a^2 - 5b^2 are both rational integers."""
        tr = 2 * self.rational
        nm = self.rational * self.rational - 5 * self.coef * self.coef
        return tr.denominator == 1 and nm.denominator == 1


def _lift(v) -> Sqrt5:
    if isinstance(v, Sqrt5):
        return v
    return Sqrt5(Fraction(v))


SQRT5 = Sqrt5(Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# integrality of a tensor
# ---------------------------------------------------------------------------

@dataclass
class IntegralityResult:
    integral: bool
    offenders: list = field(default_factory=list)  # (i, j, k, value), at most 32 kept

    def __bool__(self):
        return self.integral


def integral_check(rba: RBA, eps: float = 1e-9) -> IntegralityResult:
    """Whether every structure constant is a (rational) integer.

    Exact mode tests denominators; float mode tests distance to the nearest
    integer against eps.
    """
    d, n = rba.lam_int if rba.exact else (None, rba.lam_float)
    bad = n % d != 0 if d else abs(n - np.round(n)) > eps
    offenders = [(int(i), int(j), int(k), Fraction(int(n[i, j, k]), d) if d else n[i, j, k])
                 for i, j, k in np.argwhere(bad)[:32]]
    return IntegralityResult(integral=not offenders, offenders=offenders)


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


def two_adic_obstruction(table: CharacterTable) -> TwoAdicReport:
    """2-adic non-integrality for a class-1 rank-7 table with rational values.

    Requires rank 7, degrees (1, 1, 1, 2) and exactly one *-fixed element
    (pattern class 1). Each linear row phi != delta must satisfy the row-sum
    relation; the forced phi_3 = -(1 + 2 phi_1 + 2 phi_2)/2 has v_2 = -1
    whenever phi_1, phi_2 are 2-integral, so integer structure constants are
    impossible. Rows whose printed values are already non-2-integral witness
    the same conclusion directly.
    """
    if sorted(table.degrees()) != [1, 1, 1, 2]:
        raise ValueError(f"expected degrees (1,1,1,2), got {table.degrees()}")
    if len(table.delta.values) != 7:
        raise ValueError("expected a rank-7 table")
    rows = []
    for char in table.characters[1:]:
        if char.degree != 1:
            continue
        vals = char.values
        if not all(isinstance(v, Fraction) for v in vals):
            raise ValueError("obstruction check requires rational table values")
        # values come in equal pairs (v1, v1, v2, v2, v3, v3) after b_0
        pair_vals = []
        rest = list(vals[1:])
        while rest:
            a = rest.pop(0)
            match = next(i for i, b in enumerate(rest) if b == a)
            rest.pop(match)
            pair_vals.append(a)
        if len(pair_vals) != 3:
            raise ValueError("could not group the six nonreal values into three pairs")
        p1, p2, p3 = pair_vals
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

_HALF = Fraction(1, 2)
_R5H = Sqrt5(Fraction(0), _HALF)  # sqrt(5)/2

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
    on the coordinates (1, i, j, k), as a 4x4 object array of Sqrt5."""
    t, x, y, z = (_lift(v) for v in (t, x, y, z))
    return np.array([[t, -x, -y, -z], [x, t, -z, y], [y, z, t, -x], [z, -y, x, t]])


# degree-2 images in the quaternions; the real part of X(b_3) is -1/2 (the
# feasible trace tau(b_3) = 0 and the chi row sum force reduced trace -1)
RANK7_IMAGES = np.array([
    _quaternion(1, 0, 0, 0),
    _quaternion(0, _R5H, 0, 0),
    _quaternion(0, -_R5H, 0, 0),
    _quaternion(0, 0, _R5H, 0),
    _quaternion(0, 0, -_R5H, 0),
    _quaternion(-_HALF, 0, 0, _R5H),
    _quaternion(-_HALF, 0, 0, -_R5H),
])


def rank7_exact_data():
    """Exact Q(sqrt 5) reconstruction: tensor dict {(i,j,k): Sqrt5} plus metadata.

    Embeds each basis element as (delta(b), phi(b), psi(b), X(b)), multiplies
    tuples componentwise, and reads the structure constants off the trace
    form: lam[i,j,k] = tau(b_i b_j b_k*) / (n delta_k) with
    tau = sum_psi m_psi psi. The reduced trace of X_i X_j X_k* is
    sum(X_i X_j o X_k*^T) / 2, on the 49 products X_i X_j formed once.
    """
    star = RANK7_STAR
    m = RANK7_MULTIPLICITIES
    n = RANK7_ORDER
    x = RANK7_IMAGES
    products = x[:, None] @ x[None]

    def tau_triple(i, j, k):
        ks = star[k]
        return (
            _lift(m[0] * RANK7_DELTA[i] * RANK7_DELTA[j] * RANK7_DELTA[ks])
            + _lift(m[1] * RANK7_PHI[i] * RANK7_PHI[j] * RANK7_PHI[ks])
            + _lift(m[2] * RANK7_PSI[i] * RANK7_PSI[j] * RANK7_PSI[ks])
            + _lift(m[3]) * (products[i, j] * x[ks].T).sum() / 2
        )

    lam = {}
    for i, j, k in itertools.product(range(7), repeat=3):
        lam[i, j, k] = tau_triple(i, j, k) / _lift(n * RANK7_DELTA[k])
    return {
        "lam": lam,
        "star": star,
        "delta": RANK7_DELTA,
        "phi": RANK7_PHI,
        "psi": RANK7_PSI,
        "chi": tuple((np.trace(q) / 2).rational for q in RANK7_IMAGES),
        "multiplicities": m,
        "order": n,
        "images": RANK7_IMAGES,
    }


def build_rank7_example() -> RBA:
    """The canonical noncommutative rank-7 RBA with one *-fixed element.

    Built exactly over Q(sqrt 5) and emitted in float mode: the tensor
    contains entries +-sqrt(5)/4, so its field of definition is Q(sqrt 5)
    and no rational-mode representation exists.
    """
    data = rank7_exact_data()
    lam = np.empty((7, 7, 7))
    for (i, j, k), v in data["lam"].items():
        lam[i, j, k] = float(v)
    labels = ["b0", "b1", "b1*", "b2", "b2*", "b3", "b3*"]
    return RBA(lam, data["star"], labels=labels)
