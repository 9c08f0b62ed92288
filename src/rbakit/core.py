"""Core data model for reality-based algebras (RBAs).

An RBA is held as a dense structure-constant tensor lam[i, j, k] (the
coefficient of b_k in b_i*b_j), a basis involution ``star`` acting on indices,
and a mode flag. An exact RBA is stored as its integer view lam = N / D
(``lam_int``), a float one as ``lam_float``; every RBA also keeps ``lam_float``.
The axiom checks and the integrality test run on (D, N) with zero tolerances,
or on (1, lam_float) with the float tolerances. Exact element arithmetic
(RBA.mul, standardize, rep_residual, symbol) has one integer frame, _frame:
lam = N / D and each rational operand x = X / E, in int64 while m^2 max(D, |N|)
prod max(E, |X|)^2 < 2^62 (m the largest axis length), else in Python ints.
Associativity, the one r^5 check, has two kernels: a thin tensor of rank at
least THIN_RANK (one nonzero per row lam[i,j,:], as every group algebra,
rescaled or not) takes the thin block of _thin_kernel in its own dtype; every
other tensor takes gemm in its own dtype (BLAS for float64, exact for int64 or
Python-int N). N with r max|N|^2 < 2^52 is first cast to float64, where it is
still exact. An exact RBA's degree map c / D is proved by one integer product,
N c = c c^T, for c = N[i,i*,0] (a standard basis) or the Newton-refined
round(D v) of the real all-positive eigenvector v of one random element; no
tolerance decides it (a float c = lam[i,i*,0] takes eig's bound). Well-formed text
is read a column at a time, other text line by line. Eigen-computations run in
doubles; exact mode checks identities exactly and snaps derived values back. One
tolerance, ToleranceConfig.eps_residual, sets the float residual bound, the is-zero
cut and the cluster gap; bounds on the tensor are relative to ``RBA.scale``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "RBAError",
    "StructuralError",
    "AxiomError",
    "NumericalError",
    "ToleranceConfig",
    "RBA",
    "DegreeMap",
    "CheckResult",
    "ValidationReport",
    "snap_rational",
    "snap_value",
    "validate",
    "degree_map",
    "standardize",
    "to_standard_basis",
    "gram_matrix",
]

SNAP_MAX_DENOMINATOR = 10**6
ASSOC_BLOCK = 2**16  # entries per block of the associativity check: memory r^3, not r^4
THIN_RANK = 12        # measured: from this rank on the thin block beats gemm on a thin tensor
_FIELDS = {"rank": 2, "lambda": 5}  # fields on a line of these .rba directives
_FRACTIONS = np.frompyfunc(Fraction, 2, 1)  # elementwise Fraction(N, D), for Python-int N


class RBAError(Exception):
    """Base class for errors raised by this package."""


class StructuralError(RBAError):
    """Malformed input (bad dimensions, bad permutation, unparseable file)."""


class AxiomError(RBAError):
    """An operation was applied to data violating the RBA axioms."""


class NumericalError(RBAError):
    """A numerical procedure could not reach a trustworthy answer."""


@dataclass(frozen=True)
class ToleranceConfig:
    """One tolerance and the seed used by randomized procedures.

    eps_residual bounds residuals; the is-zero cut eps_zero = min(1e-9, eps)
    and the cluster gap eps_cluster = max(1e-6, eps) follow from it.
    """

    eps_residual: float = 1e-8
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.eps_residual < math.inf:  # NaN fails too
            raise StructuralError(
                f"tolerance eps_residual must be finite and positive, got {self.eps_residual}")
        if not (isinstance(self.rng_seed, (int, np.integer)) and self.rng_seed >= 0):
            raise StructuralError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")

    # cached: hot loops read them once per value, a plain attribute after the first
    @functools.cached_property
    def eps_zero(self) -> float:
        return min(1e-9, self.eps_residual)

    @functools.cached_property
    def eps_cluster(self) -> float:
        return max(1e-6, self.eps_residual)

    def rng(self, attempt: int = 0) -> np.random.Generator:
        """Deterministic generator for a given retry attempt."""
        return np.random.default_rng((self.rng_seed, attempt))


DEFAULT_TOL = ToleranceConfig()


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------

def snap_rational(x: float, eps: float):
    """Nearest small-denominator rational within eps of x, else None.

    The candidate is Fraction(x).limit_denominator(SNAP_MAX_DENOMINATOR),
    found by the same continued-fraction walk on the integers of
    x.as_integer_ratio() and built as one Fraction. A margin guard follows: the error must also be
    well below the 1/q^2 scale at which the convergents of irrationals live,
    otherwise sqrt(2) and friends would snap onto their own convergents.
    """
    if isinstance(x, Fraction):
        return x
    if not math.isfinite(x):
        return None
    p, q = float(x).as_integer_ratio()
    if q > SNAP_MAX_DENOMINATOR:
        p0, q0, p1, q1 = 0, 1, 1, 0
        n, d = p, q
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > SNAP_MAX_DENOMINATOR:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (SNAP_MAX_DENOMINATOR - q0) // q1
        # the semiconvergent (p0 + k p1) / (q0 + k q1) sits 1 / (q1 (q0 + k q1))
        # from p1 / q1, which sits d / (q1 q) from x: keep p1 / q1 on a tie
        if 2 * d * (q0 + k * q1) <= q:
            p, q = p1, q1
        else:
            p, q = p0 + k * p1, q0 + k * q1
    err = abs(p / q - x)
    if err > eps or err > 1e-6 / q**2:
        return None
    return Fraction(p, q)


def snap_value(x, eps: float):
    """Snap the floats or complexes of x: its shape as nested lists (a scalar for a
    scalar) of Fractions, floats that do not snap, and complexes, where |imag| > eps.

    One array pass settles the complexes and each value within min(eps, 5e-7) of an
    integer k, which snap_rational snaps to k: every other fraction of denominator
    at most 10^6 lies at least 10^-6 from k, so farther from x. The rest go one at
    a time.
    """
    z = np.asarray(x, dtype=complex)
    re = z.real
    k = np.round(np.where(np.isinf(re), 0.5, re))  # inf is not whole; inf - inf would warn
    cplx = abs(z.imag) > eps
    whole = (abs(re - k) < min(eps, 0.5 / SNAP_MAX_DENOMINATOR)) & ~cplx
    out = np.empty(z.shape, dtype=object)
    out[cplx] = z[cplx]
    ints = k[whole].tolist()
    fractions = {v: Fraction(int(v)) for v in set(ints)}  # one per distinct integer
    out[whole] = [fractions[v] for v in ints]
    rest = ~(cplx | whole)
    out[rest] = [v if (s := snap_rational(v, eps)) is None else s for v in re[rest].tolist()]
    return out.tolist()


def _rational(x: np.ndarray) -> bool:
    """True when every entry of x is an integer or a Fraction."""
    return x.dtype.kind in "biu" or x.dtype == object and all(
        map(isinstance, x.flat, itertools.repeat((int, Fraction, np.integer))))


def over_common_denominator(x: np.ndarray):
    """(D, N = D x) for rationals x, D the lcm of their denominators: (1, x) for integers, else Python ints."""
    if x.dtype.kind in "biu":
        return 1, x
    values = x.ravel().tolist()
    d = math.lcm(*(f.denominator for f in values))
    return d, np.array([int(f.numerator) * (d // f.denominator) for f in values], dtype=object).reshape(x.shape)


def _frame(rba, *xs):
    """(D, N, [(E, X), ...]): lam = N / D and x = X / E for an exact RBA and rational xs, in
    int64 while m^2 t prod_k s_k^2 < 2^62 (m the largest axis length, t = max(D, |N|), s_k =
    max(E_k, |X_k|)), which holds any sum of m^2 products of a t and two s_k per x, and the
    difference of two such sums; else Python ints. Otherwise (1, lam_float, [(1, x), ...])."""
    if not (rba.exact and all(_rational(np.asarray(x)) for x in xs)):  # a float RBA's operands: not inspected
        return 1, rba.lam_float, [(1, x) for x in xs]
    d, n = rba.lam_int
    parts = [over_common_denominator(np.asarray(x)) for x in xs]
    m = max([rba.rank] + [max(x.shape, default=1) for _, x in parts])
    s = math.prod(max(e, max(map(abs, x.ravel().tolist()), default=0)) for e, x in parts)
    dtype = np.int64 if m * m * rba._magnitude * s * s < 2**62 else object
    n = rba._lam_int64 if dtype is np.int64 else n.astype(object, copy=False)
    return d, n, [(e, x.astype(dtype, copy=False)) for e, x in parts]


def _div(x, d) -> float:
    """x / d, or +-inf where an exact quotient does not fit a double."""
    try:
        return x / d
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _parse_scalar(token: str, lineno: int):
    """Parse an .rba numeric token: 'p/q' and integer give the pair (p, q), a
    decimal gives a float. nan and inf (spelled out, or reached by overflow)
    are refused, and so is an exact value beyond the range of a double."""
    token = token.strip()
    try:
        if "/" in token:
            num, den = token.split("/")
            value = int(num), int(den)
        elif token.lstrip("+-").isdigit():
            value = int(token), 1
        else:
            value = float(token)
        finite = math.isfinite(value[0] / value[1] if isinstance(value, tuple) else value)
    except (ValueError, ZeroDivisionError) as exc:
        raise StructuralError(f"line {lineno}: bad numeric token {token!r}") from exc
    except OverflowError:
        raise StructuralError(f"line {lineno}: value out of range") from None
    if not finite:
        raise StructuralError(f"line {lineno}: non-finite value {token!r}")
    return value


def _content_lines(text: str):
    """(line number, content) of each non-blank line of .rba, .cayley or .scheme text, cut at "#"."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read_lines(text: str):
    """(rank, star, (i, j, k) index, D, values) of .rba text, line by line:
    values are N / D over one D when every entry is exact, else floats."""
    rank = None
    star = None
    entries = {}  # (i, j, k) -> (line number, value)
    for lineno, line in _content_lines(text):
        fields = line.split()
        if len(fields) != _FIELDS.get(fields[0], len(fields)):
            raise StructuralError(f"line {lineno}: a '{fields[0]}' line has "
                                  f"{_FIELDS[fields[0]]} fields, not {len(fields)}")
        try:
            if fields[0] == "rank":
                rank = int(fields[1])
            elif fields[0] == "star":
                star = [int(t) for t in fields[1:]]
            elif fields[0] == "lambda":
                key = (int(fields[1]), int(fields[2]), int(fields[3]))
                if key in entries:
                    raise StructuralError(
                        f"line {lineno}: duplicate lambda {' '.join(map(str, key))}"
                        f" (first on line {entries[key][0]})"
                    )
                entries[key] = (lineno, _parse_scalar(fields[4], lineno))
            else:
                raise StructuralError(f"line {lineno}: unknown directive {fields[0]!r}")
        except ValueError as exc:
            raise StructuralError(f"line {lineno}: {line!r}") from exc
    if rank is None or rank < 1:
        raise StructuralError("missing or invalid 'rank' line")
    if star is None or len(star) != rank:
        raise StructuralError("missing or wrong-length 'star' line")
    for i, j, k in entries:
        if not (0 <= i < rank and 0 <= j < rank and 0 <= k < rank):
            raise StructuralError(f"lambda index ({i},{j},{k}) out of range for rank {rank}")
    values = [v for _, v in entries.values()]
    if all(isinstance(v, tuple) for v in values):  # lam = N / D over one D
        d = math.lcm(*(q for _, q in values))
        values = _exact_values([p * (d // q) for p, q in values])
    else:  # one decimal entry puts the whole RBA in float mode
        d = None
        values = np.array([v[0] / v[1] if isinstance(v, tuple) else v for v in values], dtype=float)
    return rank, star, tuple(np.array(list(entries), dtype=np.intp).reshape(-1, 3).T), d, values


def _exact_values(numerators: list) -> np.ndarray:
    """The numerators as int64, or as Python ints once one reaches 2^63."""
    big = max(map(abs, numerators), default=0) >= 2**63
    return np.array(numerators, dtype=object if big else np.int64)


def _read_columns(text: str):
    """_read_lines's result for well-formed text, read a column at a time, or
    None for other text, before any error. Well-formed: ASCII with no '_' or
    '/' (rational text takes the line loop), leading '#' lines, 'rank r', 'star'
    and r entries, then n lines, each starting 'lambda ', of 5n tokens in all.
    A line of other than five fields would put a 'lambda' where unsigned
    indices and values must parse."""
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1 or len(text)
    head_end = text.find("\n", start)
    star_end = text.find("\n", head_end + 1)
    head, star = text[start:head_end].split(), text[head_end + 1:star_end].split()
    tokens = text[star_end + 1:].split()
    n = len(tokens) // 5
    if (min(head_end, star_end) < 0 or not text.isascii() or any(c in text for c in "_\r\v\f\x1c\x1d\x1e")
            or max(text.find("#", start), text.find("/", start)) >= 0 or len(head) != 2 or head[0] != "rank"
            or star[:1] != ["star"] or len(tokens) != 5 * n or text.count("\nlambda ", star_end) != n
            or text.count("\n", star_end + 1) + (not text.endswith("\n")) != n):
        return None
    # unsigned digit strings, which numpy reads as int() does (saturating past int64)
    digits = " ".join(itertools.chain(tokens[1::5], tokens[2::5], tokens[3::5]))
    values = tokens[4::5]
    del tokens
    try:
        rank, star = int(head[1]), list(map(int, star[1:]))
        if not digits.replace(" ", "").isdigit():
            return None
        index = np.fromstring(digits, np.int64, sep=" ").reshape(3, n)
        try:  # with no '_', int() takes just the tokens _parse_scalar reads as integers
            values, d = list(map(int, values)), 1
        except ValueError:  # a decimal token: float mode
            values, d = np.fromiter(map(float, values), float, n), None
        else:
            sum(map(float, values))  # out-of-range values raise, as in _parse_scalar
            values = _exact_values(values)
    except (ValueError, OverflowError):
        return None
    if (rank < 1 or len(star) != rank or rank >= 2**20 or index.max(initial=0) >= rank
            or d is None and not np.isfinite(values).all()):
        return None
    keys = np.sort((index[0] * rank + index[1]) * rank + index[2])  # below 2^60, as rank < 2^20
    return None if (keys[1:] == keys[:-1]).any() else (rank, star, tuple(index), d, values)


# ---------------------------------------------------------------------------
# the RBA object
# ---------------------------------------------------------------------------

class RBA:
    """A reality-based algebra presented by its structure-constant tensor.

    Parameters
    ----------
    lam : (r, r, r) array-like
        lam[i, j, k] is the coefficient of b_k in the product b_i b_j.
        An integer array, or one whose every entry is a Fraction or an int,
        gives an exact RBA; anything else puts the RBA in float mode.
    star : length-r iterable of ints
        The involution on basis indices, star[i] = i*.

    An exact RBA stores lam = N / D in lowest terms as ``lam_int = (D, N)``, N int64
    when r * max(D, max|N|)^2 < 2^62 (no sum of r products overflows), else Python
    ints. Every RBA stores the float64 ``lam_float``; float mode has lam_int None.
    """

    def __init__(self, lam, star):
        lam = np.asarray(lam)
        d, n = over_common_denominator(lam) if _rational(lam) else (None, np.array(lam, dtype=float))
        self._store(d, n, star)

    @classmethod
    def _from_numerators(cls, d, n, star) -> "RBA":
        """The RBA lam = n / d, n an integer array; d None: the float RBA lam = n."""
        return cls.__new__(cls)._store(d, n, star)

    def _store(self, d, n, star) -> "RBA":
        if n.ndim != 3 or len(set(n.shape)) != 1:
            raise StructuralError(f"lambda tensor must be r x r x r, got shape {n.shape}")
        r = n.shape[0]
        star = np.asarray(star, dtype=int)
        if star.shape != (r,) or sorted(star.tolist()) != list(range(r)):
            raise StructuralError("star must be a permutation of 0..r-1")
        self.rank, self.star = r, star
        self.exact, self.lam_int, self.lam_float = d is not None, None, n
        if self.exact:  # the one place where n / d is put in lowest terms
            g = math.gcd(d, int(np.gcd.reduce(n, axis=None))) if d > 1 else 1
            d, n = d // g, n // g
            self._magnitude = big = max(d, int(n.max(initial=0)), -int(n.min(initial=0)))
            n = n.astype(np.int64 if r * big * big < 2**62 else object, copy=False)
            self.lam_int = (d, n)
            if n.dtype == object:
                self.lam_float = np.asarray(np.frompyfunc(_div, 2, 1)(n, d), dtype=float)
            else:  # n / 1 is n.astype(float), bit for bit
                self.lam_float = n / d if d > 1 else n.astype(float)
        return self

    @functools.cached_property
    def lam(self) -> np.ndarray:
        """The tensor: Fractions for an exact RBA (built on first use), else lam_float."""
        if not self.exact:
            return self.lam_float
        return _FRACTIONS(self.lam_int[1].astype(object), self.lam_int[0])

    @functools.cached_property
    def _lam_int64(self) -> np.ndarray:
        """N as int64 (N itself when stored so), cast once: _frame picks it under its bound."""
        return self.lam_int[1].astype(np.int64, copy=False)

    @functools.cached_property
    def scale(self) -> float:
        """max(1, max|lam|): the size that tolerances on the tensor are relative to."""
        return max(1.0, float(abs(self.lam_float).max()))

    # -- basis structure ----------------------------------------------------

    def nonreal_pairs(self):
        """Unordered {i, i*} pairs with i < i*, one tuple per pair."""
        return [(i, int(self.star[i])) for i in range(self.rank) if i < self.star[i]]

    def star_fixed_count(self) -> int:
        return int((self.star == np.arange(self.rank)).sum())

    # -- algebra operations on coefficient vectors --------------------------

    def mul(self, u, v):
        """u v for coefficient vectors u = X / E and v = Y / F: for an exact RBA and
        rational u, v, the Fractions Y (X N) / (D E F) in _frame's integers, int64 while
        r^2 max(D, |N|) max(E, |X|)^2 max(F, |Y|)^2 < 2^62; else floats, v @ (u @ lam_float)."""
        d, n, ((e, x), (f, y)) = _frame(self, u, v)
        uv = y @ (x @ n.reshape(self.rank, -1)).reshape(self.rank, self.rank)
        return uv if n is self.lam_float else _FRACTIONS(uv.astype(object), d * e * f)

    # -- text format ---------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: rank and star lines, then one lambda line per
        nonzero entry, exact values as p/q or integer, floats via repr."""
        lines = [f"rank {self.rank}", "star " + " ".join(str(int(s)) for s in self.star)]
        d, n = self.lam_int if self.exact else (None, self.lam_float)
        for (i, j, k), v in zip(np.argwhere(n).tolist(), n[n != 0].tolist()):
            lines.append(f"lambda {i} {j} {k} {Fraction(v, d) if self.exact else repr(v)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RBA":
        """Parse .rba text: well-formed text column by column (_read_columns),
        any other text line by line (_read_lines), which owns every error."""
        rank, star, index, d, values = _read_columns(text) or _read_lines(text)
        try:
            lam = np.zeros((rank, rank, rank), dtype=values.dtype)
        except MemoryError:
            raise StructuralError(
                f"rank {rank}: the r^3 = {rank**3} entry tensor cannot be allocated") from None
        lam[index] = values
        return cls._from_numerators(d, lam, star)

    @classmethod
    def from_file(cls, path) -> "RBA":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def __repr__(self):
        mode = "exact" if self.exact else "float"
        return f"RBA(rank={self.rank}, mode={mode}, pairs={len(self.nonreal_pairs())})"


# ---------------------------------------------------------------------------
# degree map and trace
# ---------------------------------------------------------------------------

@dataclass
class DegreeMap:
    """The positive one-dimensional representation: values on the basis and the order n."""

    values: np.ndarray          # object array of Fractions when exact, else float64
    exact: bool

    @functools.cached_property
    def n(self):
        return sum(self.values) if self.exact else float(self.values.sum())

    @functools.cached_property
    def values_float(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    @functools.cached_property
    def n_float(self) -> float:
        return float(self.values_float.sum())


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    """One axiom check; the fields are the keys of its row in the validation section."""
    name: str
    passed: bool
    residual: float
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)
        self.residual = float(self.residual)


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            extra = f"  {c.detail}" if c.detail else ""
            lines.append(f"[{status}] {c.name}: residual {c.residual:.3e}{extra}")
        return "\n".join(lines)


def validate(rba: RBA, tol: ToleranceConfig = DEFAULT_TOL) -> ValidationReport:
    """Check every defining axiom, reporting a residual per check.

    One body for both modes: exact mode reads lam = N / D as (D, N) with zero
    tolerances, float mode reads (1, lam_float) with tol.eps_residual * rba.scale
    (tol.eps_zero for is-zero decisions). Every axiom is homogeneous in lam
    except the identity, whose 1 becomes D and is 1 at every scale, so its
    float bound stays the bare tol.eps_residual. Residuals are divided by D
    (D^2 for associativity), so they keep the units of lam. A residual that is
    not finite raises NumericalError naming its check. Associativity, the one
    r^5 check, is not run (and fails) when the identity check fails.
    """
    r = rba.rank
    star = rba.star
    d, lam = rba.lam_int if rba.exact else (1, rba.lam_float)
    eps_zero, eps_id, eps_res = (0, 0, 0) if rba.exact else (
        tol.eps_zero, tol.eps_residual, tol.eps_residual * rba.scale)
    report = ValidationReport()

    # star is an involution fixing 0
    invol_ok = bool(np.all(star[star] == np.arange(r)) and star[0] == 0)
    report.checks.append(CheckResult("star-involution", invol_ok, 0.0 if invol_ok else 1.0))

    # b_0 is the two-sided identity
    eye = np.eye(r, dtype=lam.dtype) * d
    res_id = max(abs(lam[0] - eye).max(), abs(lam[:, 0, :] - eye).max())
    report.checks.append(CheckResult("identity", res_id <= eps_id, _div(res_id, d)))

    # anti-automorphism: lam[i,j,k] = lam[j*,i*,k*]
    res_star = abs(lam - lam[star][:, star][:, :, star].transpose(1, 0, 2)).max()
    report.checks.append(CheckResult("anti-automorphism", res_star <= eps_res, _div(res_star, d)))

    # pseudo-inverse condition
    col0 = lam[:, :, 0]
    off = col0.copy()
    off[np.arange(r), star] = 0
    diag = col0[np.arange(r), star]
    diag_sym = abs(diag - col0[star, np.arange(r)]).max()
    worst_off = abs(off).max()
    pos_ok = bool(diag.min() > eps_zero)
    detail = ""
    if not pos_ok or worst_off > eps_zero:
        bad = int(np.argmax(np.abs(off).max(axis=1) + (diag <= eps_zero)))
        detail = f"failing index pair ({bad}, {int(star[bad])})"
    report.checks.append(
        CheckResult(
            "pseudo-inverse",
            pos_ok and worst_off <= eps_zero and diag_sym <= eps_res,
            _div(max(worst_off, diag_sym), d),
            detail,
        )
    )

    # associativity, the one r^5 check: not run on a tensor whose b_0 is not an identity
    if not report["identity"].passed:
        report.checks.append(
            CheckResult("associativity", False, 0.0, "not run: identity check failed")
        )
    else:
        report.checks.append(_associativity(lam, d, eps_res))
    for c in report.checks:
        if not math.isfinite(c.residual):
            raise NumericalError(f"{c.name} residual is not finite ({c.residual})")
    return report


@np.errstate(invalid="ignore", over="ignore")  # inf - inf: the NaN residual is the report
def _associativity(lam, d, eps_res) -> CheckResult:
    """sum_m lam[i,j,m] lam[m,k,l] = sum_m lam[j,k,m] lam[i,m,l] on lam = N / D
    (D = 1 for a float tensor), over blocks of i of at most ASSOC_BLOCK
    entries, r^3 per i (r^2 for the thin block), or one i when that is more:
    memory stays flat, not r^4.

    A thin tensor takes the thin block (_thin_kernel), any other gemm in lam's
    own dtype (BLAS for float64, numpy's exact matmul for int64 and Python-int
    N). Integer N with r * max|N|^2 < 2^52 is cast to float64 first: both
    sides are then integers below 2^52 in magnitude, so float64 computes them
    and their difference exactly, in any summation order, and the residual and
    worst quadruple are those of exact arithmetic.
    """
    r = lam.shape[0]
    cast = lam.dtype.kind == "i" and r * float(abs(lam).max()) ** 2 < 2**52
    terms = lam.astype(float) if cast else lam
    thin = _thin_kernel(terms)
    step = max(1, ASSOC_BLOCK // (r**3 if thin is None else r * r))
    res_assoc, worst, keys = 0, None, None  # keys: the flat indices diff holds, if not all
    for i0 in range(0, r, step):
        block = terms[i0:i0 + step]
        if thin is not None:
            keys, diff = thin(i0, i0 + block.shape[0])
        else:
            b = block.shape[0]
            left = block.reshape(b * r, r) @ terms.reshape(r, r * r)
            right = terms.reshape(r * r, r) @ block.transpose(1, 0, 2).reshape(r, b * r)
            diff = abs(left.reshape(b, r, r, r) - right.reshape(r, r, b, r).transpose(2, 0, 1, 3))
        res = diff.max(initial=0)
        if res != res:  # inf - inf: validate raises on the NaN residual, naming no quadruple
            return CheckResult("associativity", False, res)
        if res > res_assoc:
            res_assoc = res  # the first worst quadruple: the smallest key at the maximum
            at = int(diff.argmax()) if keys is None else int(keys[diff == res].min())
            worst = np.unravel_index(at + i0 * r**3, (r, r, r, r))
    if cast:  # _div then rounds N / D^2 as it does an integer residual
        res_assoc = lam.dtype.type(res_assoc)
    detail = f"worst quadruple ({','.join(map(str, worst))})" if res_assoc > eps_res else ""
    return CheckResult("associativity", res_assoc <= eps_res, _div(res_assoc, d * d), detail)


def _thin_kernel(terms):
    """The thin block for associativity, or None when terms is not thin or
    its rank is below THIN_RANK, where gemm is faster.

    A tensor is thin when each row terms[i,j,:] has exactly one nonzero, so
    that b_i b_j = v_ij b_m(i,j): every group algebra, rescaled or not (the
    thin schemes of Zieschang, Theory of Association Schemes, 2005). Each side
    of each triple (i,j,k) is then one product, v_ij v_m(i,j),k at
    l = m(m(i,j),k) on the left and v_jk v_i,m(j,k) at l = m(i,m(j,k)) on the
    right: 2 r^3 products in all against gemm's 2 r^5 multiply-adds, and no
    sums. The returned function maps a block [i0, i1) of i to the flat keys
    (((i - i0) r + j) r + k) r + l its products touch and |left - right| at
    those keys: their difference where the two l agree, else each product
    alone; every other entry of the block is 0. Gemm's sum at each (i,j,k,l)
    has at most one nonzero product per side, so these are gemm's values bit
    for bit, and the residual and worst quadruple are gemm's, on decimal
    entries too. The products are formed in terms' own dtype, where an int64
    N past _associativity's 2^52 bound cannot overflow (each is below
    2^62 / r) and a Python-int N costs 2 r^3 exact products, not 2 r^5.
    """
    r = terms.shape[0]
    if r < THIN_RANK:
        return None
    nz = terms != 0
    m = nz.argmax(axis=2)  # the first nonzero of each row terms[i,j,:] (0 in a zero row)
    v = np.take_along_axis(terms, m[:, :, None], 2)[:, :, 0]
    if not np.count_nonzero(nz) == r * r == np.count_nonzero(v):  # thin: no zero row, r^2 nonzeros
        return None

    def thin(i0, i1):
        mij = m[i0:i1]
        l1, w1 = m[mij], v[i0:i1, :, None] * v[mij]  # left: v_ij v_m(i,j),k at m(m(i,j),k)
        l2, w2 = m[i0:i1][:, m], v * v[i0:i1][:, m]  # right: v_jk v_i,m(j,k) at m(i,m(j,k))
        at = np.arange(0, l1.size * r, r).reshape(l1.shape)  # key - l: (flat index of (i - i0, j, k)) r
        if np.array_equal(l1, l2):  # one key per triple
            return (at + l1).ravel(), abs(w1 - w2).ravel()
        same = l1 == l2
        return (np.concatenate([(at + l1).ravel(), (at + l2)[~same]]),
                np.concatenate([abs(w1 - np.where(same, w2, 0)).ravel(), abs(w2[~same])]))

    return thin


# ---------------------------------------------------------------------------
# degree map computation
# ---------------------------------------------------------------------------

def degree_map(rba: RBA, tol: ToleranceConfig = DEFAULT_TOL) -> DegreeMap:
    """The unique all-positive one-dimensional representation, plus the order n.

    An exact RBA's degrees are proved in integers (_proved), first c_i = N[i,i*,0]: no
    eig and no draw; no other positive one exists by the axioms (Arad and Blau 1991),
    which analyze validates first. Else v (v_0 = 1) is an eigenvector of a seeded random
    combination of the transposed left regular matrices that passes _degree_columns,
    reseeding until one does; exact input then proves round(D v), refined, and irrational
    degrees stay floats. Float input always takes eig: to_standard_basis tries its
    diagonal first, as the bench pins eig here (ROADMAP items 1, 2(b)).
    """
    r = rba.rank
    if rba.exact and (dm := _proved(rba, rba.lam_int[1][np.arange(r), rba.star, 0])):
        return dm
    for attempt in range(8):
        c = tol.rng(attempt).uniform(-1.0, 1.0, r)
        _, vecs = np.linalg.eig(np.einsum("i,ijk->jk", c, rba.lam_float))  # (Mw)_j = sum_k c.lam[.,j,k] w_k
        vecs = vecs[:, abs(vecs[0]) >= tol.eps_zero]
        vecs = vecs / vecs[0]
        vecs = vecs[:, abs(vecs.imag).max(axis=0) < tol.eps_zero].real
        positive = []
        for v in _degree_columns(rba, vecs, tol).T:
            if not any(abs(v - u).max() < tol.eps_cluster * rba.scale for u in positive):
                positive.append(v)
        if positive:
            break
    if not positive:
        raise NumericalError("no positive degree map")
    if len(positive) > 1:
        raise NumericalError(f"{len(positive)} all-positive one-dimensional representations found; "
                             "input is not a valid RBA")
    return rba.exact and _proved(rba, positive[0]) or DegreeMap(positive[0], exact=False)


def _degree_columns(rba: RBA, vecs, tol: ToleranceConfig):
    """The columns v of vecs with min v > eps_zero and |lam v - v v^T| <= eps_residual scale r."""
    r = rba.rank
    vecs = vecs[:, vecs.min(axis=0) > tol.eps_zero]
    res = abs(rba.lam_float.reshape(r * r, r) @ vecs - (vecs[:, None] * vecs[None]).reshape(r * r, -1))
    return vecs[:, res.max(axis=0) <= tol.eps_residual * rba.scale * r]


def _proved(rba: RBA, c):
    """The degree map c / D of lam = N / D when c > 0 and N c = c c^T prove it, else None:
    in int64 while r max(D, |N|, |c|)^2 < 2^62, else in Python ints. Float degrees v give
    c = round(D v), then Newton on c_i^2 = sum_k N[i,i*,k] c_k until its residual R, exact, is
    0. A float64 solve of (lam[i,i*,k] - 2 diag(c / D)) s = -R / D, which only has to round
    right, gains 53 bits a step, so 8 + bits(D) / 53 steps suffice; a singular or inf one stops.
    R / D past 2^64 is solved as R / (2^e D) and the step shifted by e, so D need not fit a float."""
    (d, n), r, i = rba.lam_int, rba.rank, np.arange(rba.rank)
    steps = 8 + d.bit_length() // 53 if c.dtype == float else 0
    c = np.array([round(Fraction(x) * d) for x in c], object) if steps else c
    for _ in range(steps):
        if not (res := n[i, rba.star].astype(object) @ c - c * c).any():
            break
        e = max(0, max(map(abs, res.tolist())).bit_length() - d.bit_length() - 64)
        try:
            jac = rba.lam_float[i, rba.star] - 2 * np.diag([x / d for x in c])
            c = c + np.array([round(x) << e for x in np.linalg.solve(jac, [-x / (d << e) for x in res])], object)
        except (np.linalg.LinAlgError, OverflowError, ValueError):
            break
    big = max(rba._magnitude, *map(abs, c.tolist()))
    n, x = (rba._lam_int64, c.astype(np.int64)) if r * big * big < 2**62 else (n.astype(object), c.astype(object))
    if x.min() > 0 and np.array_equal(n.reshape(r * r, r) @ x, np.outer(x, x).ravel()):
        return DegreeMap(_FRACTIONS(c.astype(object), d), exact=True)
    return None


# ---------------------------------------------------------------------------
# standard basis and Gram matrix
# ---------------------------------------------------------------------------

def standardize(rba: RBA, dm: DegreeMap) -> RBA:
    """Rescale the basis so the b_0-coefficient of b_i b_i* equals the degree of b_i.

    b_i' = t_i b_i with t_i = delta_i / lam[i,i*,0]; idempotent. An RBA comes back as itself
    when every t_i == 1 (exact only with exact degrees, float with to_standard_basis' diagonal
    ones), else is rescaled in floats or in _frame's integers: t = X / E, 1 / t = Y / F,
    lam' = N X_i X_j Y_k / (D E^2 F). to_standard_basis owns the call in analyze.
    """
    r = rba.rank
    star = rba.star
    exact = rba.exact and dm.exact
    d, lam = rba.lam_int if exact else (1, rba.lam_float)
    diag = lam[np.arange(r), star, 0]
    if diag.min() <= 0:
        raise AxiomError("lam[i,i*,0] must be positive (pseudo-inverse violation)")
    if not exact:
        t = dm.values_float / diag
        if not rba.exact and (t == 1).all():  # a float RBA with its diagonal degrees
            return rba
        return RBA(lam * t[:, None, None] * t[None, :, None] / t[None, None, :], star)
    if all(v * d == x for v, x in zip(dm.values, diag.tolist())):  # every group and scheme RBA
        return rba
    t = np.array([v * d / x for v, x in zip(dm.values, diag.tolist())], dtype=object)
    d, n, ((e, x), (f, y)) = _frame(rba, t, 1 / t)
    return RBA._from_numerators(d * e * e * f, n * x[:, None, None] * x[None, :, None] * y, star)


def to_standard_basis(rba: RBA, tol: ToleranceConfig = DEFAULT_TOL):
    """(dm, rba', dm'): the degree map of rba, rba in the standard basis, and its degree map.

    Float input first tries delta_i = lam[i,i*,0], checked by one _degree_columns pass;
    any other input, or a float one that fails it, takes degree_map. An input is standard
    when delta_i = lam[i,i*,0] for every i (every group and scheme RBA), and then rba' is
    rba and dm' is dm. A float input within tol.eps_residual of its rescaling, relative to
    its largest entry above 1, counts as standard too; exact input has no tolerance. Any
    other is rescaled (standardize), and degree_map runs again on rba'. Raises AxiomError
    when the trace form of rba' is not positive definite (gram_matrix).
    """
    c = None if rba.exact else _degree_columns(rba, rba.lam_float[np.arange(rba.rank), rba.star, 0][:, None], tol)
    dm = DegreeMap(c[:, 0], exact=False) if c is not None and c.size else degree_map(rba, tol)
    std, std_dm = standardize(rba, dm), dm
    if std is rba or not rba.exact and float(
            abs(std.lam_float - rba.lam_float).max()) <= tol.eps_residual * rba.scale:
        std = rba
    else:
        std_dm = degree_map(std, tol)
    gram_matrix(std, std_dm)  # raises if the trace form degenerates
    return dm, std, std_dm


def gram_matrix(rba: RBA, dm: DegreeMap) -> np.ndarray:
    """Gram matrix G[i,j] = tau(b_i b_j*) = n * lam[i, j*, 0] of the trace form."""
    lam = rba.lam_float
    g = dm.n_float * lam[:, rba.star, 0]
    if np.linalg.eigvalsh((g + g.T) / 2).min() <= 0:
        raise AxiomError("trace form is not positive definite; RBA axioms fail upstream")
    return g
