"""Quaternion symbol of the degree-2 component and exact Hilbert symbols.

For a noncommutative RBA whose basis has exactly one nonreal pair {b_p,
b_p*}, the degree-2 component is generated as a quaternion algebra by

    x = m_chi * X(d),  d = b_p - b_p*        (x^2 = a*I, a = -n*delta_p*m_chi < 0)
    y = 2 X(d_l) - tr(X(d_l)) * I            (first non-scalar symmetric image)

with x y = -y x and y^2 = beta*I, beta > 0. Over the rationals, (a, beta)
splits iff every local Hilbert symbol is +1; beta > 0 alone already splits
the pair over the reals.

Also provides plain quaternion arithmetic over any exact or float scalar
type, used to verify quaternion-valued representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_TOL,
    DegreeMap,
    NumericalError,
    RBA,
    ToleranceConfig,
    snap_rational,
    degree_map,
    to_standard_basis,
)
from .decomp import Character, CharacterTable, StarRep, character_table, star_rep_extract
from .indicator import classify_one_pair, indicator_report

__all__ = [
    "Quaternion",
    "QuaternionSymbol",
    "dc_change_of_basis",
    "x_generator",
    "y_generator",
    "symbol",
    "hilbert_symbol",
    "hilbert_places",
    "quaternion_verify",
]


# ---------------------------------------------------------------------------
# quaternion arithmetic (coordinate type is duck-typed: Fraction, float, ...)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Quaternion:
    """t + x i + y j + z k with i^2 = j^2 = k^2 = -1 and i j = k."""

    t: object = 0
    x: object = 0
    y: object = 0
    z: object = 0

    def __add__(self, other):
        o = _as_quat(other)
        return Quaternion(self.t + o.t, self.x + o.x, self.y + o.y, self.z + o.z)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_quat(other)
        return Quaternion(self.t - o.t, self.x - o.x, self.y - o.y, self.z - o.z)

    def __neg__(self):
        return Quaternion(-self.t, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        o = _as_quat(other)
        a, b, c, d = self.t, self.x, self.y, self.z
        e, f, g, h = o.t, o.x, o.y, o.z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def __rmul__(self, other):
        return _as_quat(other) * self

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.t, -self.x, -self.y, -self.z)

    def reduced_norm(self):
        return self.t * self.t + self.x * self.x + self.y * self.y + self.z * self.z

    def reduced_trace(self):
        return self.t + self.t

    def char_poly(self):
        """Coefficients (1, -trace, norm) of t^2 - Trd t + Nrd."""
        return (1, -self.reduced_trace(), self.reduced_norm())

    def coords(self):
        return (self.t, self.x, self.y, self.z)


def _as_quat(v) -> Quaternion:
    return v if isinstance(v, Quaternion) else Quaternion(v)


# ---------------------------------------------------------------------------
# generators of the degree-2 component
# ---------------------------------------------------------------------------

def dc_change_of_basis(rba: RBA) -> tuple:
    """The unique nonreal pair (p, p*), p < p*, spanning c = b_p + b_p* and d = b_p - b_p*."""
    pairs = rba.nonreal_pairs()
    if len(pairs) != 1:
        raise ValueError(f"{len(pairs)} nonreal pairs (need exactly 1)")
    return pairs[0]


def x_generator(rep: StarRep, rba: RBA, dm: DegreeMap, m_chi: float,
                tol: ToleranceConfig = DEFAULT_TOL):
    """x = m_chi X(d) and the scalar a with x^2 = a I (a < 0).

    Also checks the closed forms a = -n delta_p m_chi and
    m_chi (s_p - t_p)^2 = n delta_p, where X(b_p) = [[r, s], [t, u]].
    """
    if rep.dim != 2:
        raise ValueError(f"x generator needs a degree-2 representation, got dim {rep.dim}")
    p, ps = dc_change_of_basis(rba)
    xd = rep.matrices[p] - rep.matrices[ps]
    if abs(xd + xd.T).max() > tol.eps_residual * max(1.0, abs(xd).max()):
        raise NumericalError("X(d) is not antisymmetric; *-representation contract violated")
    m_chi = float(m_chi)
    x = m_chi * xd
    xsq = x @ x
    a = float(xsq[0, 0])
    if abs(xsq - a * np.eye(2)).max() > tol.eps_residual * max(1.0, abs(xsq).max()):
        raise NumericalError("x^2 is not scalar; *-representation contract violated")
    n = dm.n_float
    delta_p = float(dm.values_float[p])
    alpha = rep.matrices[p][0, 1] - rep.matrices[p][1, 0]
    scale = max(1.0, n * delta_p)
    if abs(m_chi * alpha**2 - n * delta_p) > tol.eps_residual * scale * 10:
        raise NumericalError(
            f"m_chi (s_p - t_p)^2 = {m_chi * alpha**2} does not match n delta_p = {n * delta_p}"
        )
    if abs(a + n * delta_p * m_chi) > tol.eps_residual * scale * m_chi * 10:
        raise NumericalError(f"a = {a} does not match -n delta_p m_chi = {-n * delta_p * m_chi}")
    return x, a


def y_generator(rep: StarRep, rba: RBA, tol: ToleranceConfig = DEFAULT_TOL):
    """First *-invariant combination with a non-scalar symmetric image; returns
    (y, beta, label) with y = 2 X(d_l) - tr X(d_l) I, y^2 = beta I, beta > 0."""
    if rep.dim != 2:
        raise ValueError(f"y generator needs a degree-2 representation, got dim {rep.dim}")
    p, ps = dc_change_of_basis(rba)
    candidates = [(str(i), rep.matrices[i]) for i in range(1, rba.rank) if i not in (p, ps)]
    c_img = rep.matrices[p] + rep.matrices[ps]
    candidates.append(("c", c_img))
    scale = max(1.0, abs(rep.matrices).max())
    for label, img in candidates:
        if abs(img - img.T).max() > tol.eps_residual * scale:
            raise NumericalError(f"image of *-invariant element {label} is not symmetric")
        tr = float(np.trace(img))
        if abs(img - tr / 2 * np.eye(2)).max() <= tol.eps_residual * scale:
            continue  # scalar image, no use as a generator
        y = 2.0 * img - tr * np.eye(2)
        rl, s = img[0, 0], img[0, 1]
        u = img[1, 1]
        beta = float((rl - u) ** 2 + 4.0 * s**2)
        ysq = y @ y
        if abs(ysq - beta * np.eye(2)).max() > tol.eps_residual * max(1.0, beta) * 10:
            raise NumericalError(f"y^2 is not beta I for element {label}")
        return y, beta, label
    raise NumericalError(
        "all symmetric images are scalar: component is not 4-dimensional"
    )


# ---------------------------------------------------------------------------
# Hilbert symbols over the rationals (exact integer arithmetic)
# ---------------------------------------------------------------------------

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _square_class(q: Fraction) -> int:
    """Integer representative of q modulo nonzero squares (num * den)."""
    return q.numerator * q.denominator


def _split_valuation(m: int, p: int):
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v, m


def _legendre(u: int, p: int) -> int:
    t = pow(u % p, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def hilbert_symbol(a, b, place) -> int:
    """Local Hilbert symbol (a, b)_v for nonzero rationals, v a prime or 'inf'.

    +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the completion.
    Standard local formulas, fully in exact integer arithmetic.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    if place in ("inf", "oo", math.inf):
        return -1 if (a < 0 and b < 0) else 1
    p = int(place)
    if not _is_prime(p):
        raise ValueError(f"place must be a prime or 'inf', got {place!r}")
    ai = _square_class(a)
    bi = _square_class(b)
    alpha, u = _split_valuation(abs(ai), p)
    beta, v = _split_valuation(abs(bi), p)
    u *= 1 if ai > 0 else -1
    v *= 1 if bi > 0 else -1
    if p != 2:
        sign = 1
        if (alpha * beta) % 2 == 1 and (p - 1) // 2 % 2 == 1:
            sign = -sign
        if beta % 2 == 1 and _legendre(u, p) == -1:
            sign = -sign
        if alpha % 2 == 1 and _legendre(v, p) == -1:
            sign = -sign
        return sign
    eps_u = ((u - 1) // 2) % 2
    eps_v = ((v - 1) // 2) % 2
    omega_u = ((u * u - 1) // 8) % 2
    omega_v = ((v * v - 1) // 8) % 2
    exp = eps_u * eps_v + alpha * omega_v + beta * omega_u
    return -1 if exp % 2 == 1 else 1


def _prime_factors(m: int):
    m = abs(m)
    if m == 0:
        raise ValueError("cannot factor zero")
    out = set()
    for p in (2, 3, 5, 7, 11, 13):
        while m % p == 0:
            out.add(p)
            m //= p
    f = 17
    while f * f <= m:
        while m % f == 0:
            out.add(f)
            m //= f
        f += 2
    if m > 1:
        out.add(m)
    return out


def hilbert_places(a, b) -> dict:
    """All potentially nontrivial local symbols of (a, b), keyed by place.

    Keys are primes (2 and the odd primes dividing either square-class
    representative) plus 'inf'. The product over all returned places is +1
    (product formula; places not returned are +1).
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    primes = {2} | _prime_factors(_square_class(a)) | _prime_factors(_square_class(b))
    out = {p: hilbert_symbol(a, b, p) for p in sorted(primes)}
    out["inf"] = hilbert_symbol(a, b, "inf")
    return out


# ---------------------------------------------------------------------------
# the symbol pipeline
# ---------------------------------------------------------------------------

@dataclass
class QuaternionSymbol:
    """The pair (a, beta) generating the degree-2 component, with split verdicts."""

    a: float
    beta: float
    a_exact: object = None           # Fraction when snapped
    beta_exact: object = None
    field_mode: str = "real-numeric"  # "rational" | "real-numeric"
    local_symbols: dict = None        # per-place verdicts when rational
    verdict: str = "real-split-only"  # "split" | "division" | "real-split-only"
    pair: tuple = None
    y_label: str = ""
    anticommute_residual: float = 0.0


def symbol(rba: RBA, tol: ToleranceConfig = DEFAULT_TOL, *,
           dm: DegreeMap = None, chi: Character = None,
           rep: StarRep = None) -> QuaternionSymbol:
    """Assemble the quaternion symbol of the degree-2 component.

    A caller that has run the pipeline passes the degree-2 character chi
    that classify_one_pair returned, with the standard-basis rba and dm it
    came from. Without chi, this runs the pipeline as analyze does: the
    basis is standardized first, then the one-nonreal-pair contract is
    checked, and a rejection raises ValueError.

    beta > 0 already splits the component over the reals; in rational mode
    the verdict is "split" iff every local Hilbert symbol of the snapped
    (a, beta) is +1.
    """
    if dm is None:
        dm = degree_map(rba, tol)
    if chi is None:
        rba, dm, _ = to_standard_basis(rba, dm, tol)
        table = character_table(rba, dm, tol=tol)
        verdict = classify_one_pair(rba, table, indicator_report(table, rba, dm, tol))
        if not verdict.passed:
            raise ValueError(f"one-nonreal-pair pipeline rejected: {verdict.reason}")
        chi = verdict.chi
    if rep is None:
        rep = star_rep_extract(rba, dm, chi.idempotent, tol)
    x, a = x_generator(rep, rba, dm, chi.multiplicity_raw, tol)
    y, beta, label = y_generator(rep, rba, tol)
    anti = float(abs(x @ y + y @ x).max())
    if anti > tol.eps_residual * max(1.0, abs(x).max() * abs(y).max()):
        raise NumericalError(f"x and y do not anticommute (residual {anti:.3e})")
    a_exact = snap_rational(a, tol.eps_zero * max(1.0, abs(a)))
    beta_exact = snap_rational(beta, tol.eps_zero * max(1.0, beta))
    sym = QuaternionSymbol(
        a=a, beta=beta, a_exact=a_exact, beta_exact=beta_exact,
        pair=dc_change_of_basis(rba), y_label=label,
        anticommute_residual=anti,
    )
    if rba.exact and a_exact is not None and beta_exact is not None:
        sym.field_mode = "rational"
        sym.local_symbols = hilbert_places(a_exact, beta_exact)
        sym.verdict = "split" if all(v == 1 for v in sym.local_symbols.values()) else "division"
    else:
        sym.field_mode = "real-numeric"
        sym.verdict = "real-split-only" if beta > 0 else "division"
    return sym


# ---------------------------------------------------------------------------
# quaternion-valued representation checking
# ---------------------------------------------------------------------------

@dataclass
class QuaternionVerifyReport:
    homomorphism_failures: list
    star_map_failures: list
    trace_failures: list
    spans: bool

    @property
    def passed(self) -> bool:
        return (
            not self.homomorphism_failures
            and not self.star_map_failures
            and not self.trace_failures
            and self.spans
        )


def quaternion_verify(rba: RBA, images, table: CharacterTable = None,
                      tol: ToleranceConfig = DEFAULT_TOL) -> QuaternionVerifyReport:
    """Check quaternion images of the basis: algebra homomorphism onto a
    spanning set of the quaternions, compatibility with *, and (when a table
    is given) reduced traces matching the degree-2 character row."""
    r = rba.rank
    images = [_as_quat(q) for q in images]
    if len(images) != r:
        raise ValueError(f"need {r} images, got {len(images)}")
    exact = rba.exact and all(
        all(isinstance(c, (Fraction, int)) for c in q.coords()) for q in images
    )

    def close(u, v):
        if exact:
            return u == v
        return abs(float(u) - float(v)) <= tol.eps_residual * 100

    hom_failures = []
    for i in range(r):
        for j in range(r):
            got = images[i] * images[j]
            want = Quaternion(0)
            for k in range(r):
                lam = rba.lam[i, j, k]
                if lam:
                    want = want + Quaternion(lam) * images[k]
            if not all(close(g, w) for g, w in zip(got.coords(), want.coords())):
                hom_failures.append((i, j))
    star_failures = [
        i for i in range(r)
        if not all(close(g, w) for g, w in zip(
            images[rba.star[i]].coords(), images[i].conjugate().coords()))
    ]
    trace_failures = []
    if table is not None:
        deg2 = table.degree_two()
        if deg2:
            chi = deg2[0]
            for i in range(r):
                if abs(float(images[i].reduced_trace()) - chi.values_raw[i].real) > 1e-7:
                    trace_failures.append(i)
    coord_matrix = np.array([[float(c) for c in q.coords()] for q in images])
    spans = np.linalg.matrix_rank(coord_matrix, tol=tol.eps_cluster) == 4
    return QuaternionVerifyReport(
        homomorphism_failures=hom_failures,
        star_map_failures=star_failures,
        trace_failures=trace_failures,
        spans=spans,
    )
