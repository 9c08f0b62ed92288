"""Quaternion symbol of the degree-2 component and exact Hilbert symbols.

For a noncommutative RBA whose basis has exactly one nonreal pair {b_p,
b_p*}, every linear character is real, so d = b_p - b_p* lies in the
degree-2 component A_chi and d^2 = a0 e, with e the identity of A_chi.
In the algebra itself,

    x = m_chi d          (x^2 = a e, a = m_chi^2 a0 = -n delta_p m_chi < 0)
    y = z - x z x / a    (z = e b_l, the first *-invariant b_l with y != 0)

satisfy x y = -y x and y^2 = beta e with beta > 0: the standard quaternion
basis of A_chi. An exact RBA gives (a, beta) exactly; over the rationals
(a, beta) splits iff every local Hilbert symbol is +1, and beta > 0 alone
already splits the pair over the reals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_TOL,
    NumericalError,
    RBA,
    ToleranceConfig,
    _frame,
    snap_rational,
)
from .decomp import Character, character_table  # noqa: F401  (bench/test_bench.py patches the latter here)

__all__ = [
    "QuaternionSymbol",
    "symbol",
    "hilbert_symbol",
    "hilbert_places",
]


# ---------------------------------------------------------------------------
# Hilbert symbols over the rationals (exact integer arithmetic)
# ---------------------------------------------------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
RHO_STEPS = 2**20  # one factoring's rho steps: 2.8x what (10^11 + 3)(10^11 + 19) needs; ~2 s on a 40-digit n (x86-64)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases SMALL_PRIMES: exact for n < 3.3e24 (Sorenson
    and Webster 2017), a strong probable prime to 13 bases above that."""
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int, steps: int = 0):
    """(f, steps): a nontrivial factor f of an odd composite n by Pollard's rho (BIT 15,
    1975) with Floyd's cycle search, about sqrt(p) steps for the least prime p | n, and
    the steps spent so far, counting the given ones. Past RHO_STEPS it raises NumericalError."""
    for c in range(1, n):
        x = y = 2
        for steps in range(steps + 1, RHO_STEPS + 1):
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
            if g != 1:
                break
        else:
            raise NumericalError(f"no factor of a {len(str(n))}-digit cofactor in {RHO_STEPS} rho steps")
        if g != n:
            return g, steps
    raise ValueError(f"no factor found for {n}")


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
    """The primes dividing m: SMALL_PRIMES by division, the rest by Pollard's rho
    within one RHO_STEPS budget for all its calls."""
    m = abs(m)
    if m == 0:
        raise ValueError("cannot factor zero")
    out = set()
    for p in SMALL_PRIMES:
        while m % p == 0:
            out.add(p)
            m //= p
    todo, steps = [m] if m > 1 else [], 0
    while todo:
        n = todo.pop()
        if _is_prime(n):
            out.add(n)
        else:
            f, steps = _rho(n, steps)
            todo += [f, n // f]
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
# the quaternion symbol
# ---------------------------------------------------------------------------

@dataclass
class QuaternionSymbol:
    """The pair (a, beta) generating the degree-2 component, with split verdicts. The
    fields are the keys of the report's quaternion section besides status; a and beta
    are Fractions when exact or snapped, else floats."""

    a: Fraction | float
    beta: Fraction | float
    field_mode: str            # "rational" | "real-numeric"
    local_symbols: dict        # per-place Hilbert symbols when rational, else None
    verdict: str               # "split" | "division" | "real-split-only"
    pair: tuple
    y_label: str
    anticommute_residual: float


def symbol(rba: RBA, chi: Character, tol: ToleranceConfig = DEFAULT_TOL) -> QuaternionSymbol:
    """Assemble the quaternion symbol of the degree-2 component.

    rba is in the standard basis, and chi is the degree-2 character that
    classify_one_pair returned for it; analyze runs those steps, after
    validate, and then this.

    x, y and e are products of basis elements (RBA.mul), exact for an exact
    RBA. e^2 = e, e central, y^2 = beta e and x y = -y x are checked, exactly
    or within tol.eps_residual; x^2 = a e holds by construction, and
    a = -n delta_p m_chi and m_chi against the character's multiplicity
    are cross-checked. beta > 0 already splits the component over the
    reals; in rational mode the verdict is "split" iff every local Hilbert
    symbol of (a, beta) is +1.
    """
    pairs = rba.nonreal_pairs()
    if len(pairs) != 1:
        raise ValueError(f"{len(pairs)} nonreal pairs (need exactly 1)")
    (p, ps), = pairs
    r = rba.rank
    eps = 0 if rba.exact else tol.eps_residual

    def check(name, lhs, rhs):
        res = np.max(np.abs(lhs - rhs))
        if res and not res <= eps * max(1.0, np.max(np.abs(lhs)), np.max(np.abs(rhs))):  # NaN fails
            raise NumericalError(f"{name} fails (residual {float(res):.3e})")
        return float(res)

    eye = np.eye(r, dtype=_frame(rba)[1].dtype)  # basis vectors in the numbers of the frame
    d = eye[p] - eye[ps]  # in A_chi: every linear character is real, so vanishes on d
    d2 = rba.mul(d, d)
    a0 = rba.mul(d2, d2)[0] / d2[0]
    e = d2 / a0           # d^2 = a0 e, e the identity of A_chi
    check("e^2 = e", rba.mul(e, e), e)
    den, lam, ((_, ne),) = _frame(rba, e)  # lam = N / D, e = ne / E
    check("e central", ne @ lam.reshape(r, -1), ne @ lam.transpose(1, 0, 2).reshape(r, -1))
    delta = lam[np.arange(r), rba.star, 0]  # D delta_i, delta_i = lam[i, i*, 0]
    n = delta.sum()                         # D n
    m_chi = n * e[0] / (2 * den)
    if abs(float(m_chi) - chi.multiplicity_raw) > tol.eps_residual * max(1.0, float(m_chi)):
        raise NumericalError(
            f"m_chi = {float(m_chi)} does not match the multiplicity {chi.multiplicity_raw}"
        )
    x = m_chi * d
    a = m_chi * m_chi * a0  # x^2 = a e
    check("a = -n delta_p m_chi", a, -m_chi * n * delta[p] / (den * den))  # m_chi first: no int64 products
    candidates = [(str(i), eye[i]) for i in range(1, r) if i not in (p, ps)]
    candidates.append(("c", eye[p] + eye[ps]))
    for label, b in candidates:
        z = rba.mul(e, b)
        y = z - rba.mul(rba.mul(x, z), x) / a  # z minus its conjugate by x: anticommutes with x
        if np.max(np.abs(y)) > eps * max(1.0, np.max(np.abs(z))):
            break
    else:
        raise NumericalError("every candidate commutes with x: component is not 4-dimensional")
    y2 = rba.mul(y, y)
    beta = y2[0] / e[0]
    check("y^2 = beta e", y2, beta * e)
    anti = check("x y = -y x", rba.mul(x, y), -rba.mul(y, x))
    if rba.exact:
        local = hilbert_places(a, beta)
        field_mode, verdict = "rational", "split" if all(v == 1 for v in local.values()) else "division"
    else:
        local, field_mode, verdict = None, "real-numeric", "real-split-only" if beta > 0 else "division"

    def snapped(v):  # the Fraction when exact or within the zero cut of one, else the float
        q = snap_rational(v, tol.eps_zero * max(1.0, abs(v)))
        return float(v) if q is None else q

    return QuaternionSymbol(snapped(a), snapped(beta), field_mode, local, verdict, (p, ps), label, anti)
