"""Axioms, degree map, standardization, Gram matrix, text format."""

import itertools
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbakit import core
from rbakit.core import (
    RBA,
    AxiomError,
    DegreeMap,
    NumericalError,
    StructuralError,
    ToleranceConfig,
    degree_map,
    gram_matrix,
    snap_rational,
    snap_value,
    standardize,
    to_standard_basis,
    validate,
)
from rbakit.fixtures import fixture_text, load_fixture
from rbakit.ingest import from_group, from_scheme
from rbakit.report import analyze

from conftest import (
    TOL,
    c_n_table,
    d8_table,
    dihedral_table,
    hamming,
    johnson,
    overflow_rba_text,
    rank5_split_rba,
    relations,
    rescale,
    s3_table,
    s4_table,
    s_n_table,
)


# ---------------------------------------------------------------------------
# construction and text format
# ---------------------------------------------------------------------------

def test_structural_errors():
    with pytest.raises(StructuralError):
        RBA(np.zeros((2, 2)), [0, 1])          # not a 3-tensor
    with pytest.raises(StructuralError):
        RBA(np.zeros((2, 2, 3)), [0, 1])       # ragged
    with pytest.raises(StructuralError):
        RBA(np.zeros((2, 2, 2)), [0, 0])       # star not a permutation


def test_mode_detection(s3_rba):
    assert s3_rba.exact
    floaty = RBA(s3_rba.lam_float, s3_rba.star)
    assert not floaty.exact


def test_text_round_trip(s3_rba, rank7_rba):
    wide = rescale(s3_rba, [Fraction(1)] + [Fraction(3**10)] * 5)  # Python-int numerators
    floaty = RBA(rescale(s3_rba, [1, Fraction(1, 3), Fraction(1, 3), 1, 1, 1]).lam_float,
                 s3_rba.star)
    assert wide.lam_int[1].dtype == object and not floaty.exact
    for rba in (s3_rba, rank7_rba, wide, floaty):
        text = rba.to_text()
        back = RBA.from_text(text)
        assert back.exact == rba.exact
        assert np.array_equal(back.star, rba.star)
        assert np.array_equal(back.lam, rba.lam)
        assert back.to_text() == text
    assert "lambda 1 2 0 3486784401\n" in wide.to_text()  # 3^20
    assert "lambda 1 1 2 0.3333333333333333\n" in floaty.to_text()


def s5_table():
    perms = list(itertools.permutations(range(5)))
    idx = {p: i for i, p in enumerate(perms)}
    return np.array([[idx[tuple(p[q[x]] for x in range(5))] for q in perms] for p in perms])


@pytest.mark.parametrize(
    "build",
    [
        lambda: RBA.from_text("rank 150\nstar " + " ".join(map(str, range(150))) + "\n"),
        lambda: from_group(s5_table()),
    ],
    ids=["from_text-rank150", "from_group-S5"],
)
def test_integer_construction_is_bounded(build):
    # an integer tensor is stored as (1, int64 N) with no per-entry Python work
    start = time.process_time()
    rba = build()
    assert time.process_time() - start < 2.0
    d, n = rba.lam_int
    assert rba.exact and d == 1 and n.dtype == np.int64


def test_text_parsing_modes():
    text = "# comment\nrank 2\nstar 0 1\nlambda 0 0 0 1\nlambda 0 1 1 1\nlambda 1 0 1 1\nlambda 1 1 0 1/2\n"
    rba = RBA.from_text(text)
    assert rba.exact
    assert rba.lam[1, 1, 0] == Fraction(1, 2)
    # a single decimal flips the whole algebra to float mode
    rba_f = RBA.from_text(text.replace("1/2", "0.5"))
    assert not rba_f.exact
    assert rba_f.lam[1, 1, 0] == 0.5


def test_text_parse_errors(tmp_path):
    with pytest.raises(StructuralError):
        RBA.from_text("star 0\n")                       # missing rank
    with pytest.raises(StructuralError):
        RBA.from_text("rank 2\nstar 0\n")               # wrong star length
    with pytest.raises(StructuralError):
        RBA.from_text("rank 1\nstar 0\nlambda 0 0 2 1\n")  # index out of range
    with pytest.raises(StructuralError):
        RBA.from_text("rank 1\nstar 0\nlambda 0 0 0 x\n")  # bad token
    with pytest.raises(StructuralError, match=r"^line 1: 'rank x'$"):
        RBA.from_text("rank x\nstar 0\n")              # rank not an integer
    path = tmp_path / "t.rba"
    path.write_text("rank 1\nstar 0\nlambda 0 0 0 1\n")
    assert RBA.from_file(path).rank == 1


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_text_parse_rejects_non_finite(token):
    with pytest.raises(StructuralError, match=f"line 3: non-finite value '{token}'"):
        RBA.from_text(f"rank 1\nstar 0\nlambda 0 0 0 {token}\n")


HUGE = "1" + "0" * 400  # 10^400: an exact value no double can hold


@pytest.mark.parametrize("token", [HUGE, "-" + HUGE, HUGE + "/3"], ids=["int", "neg", "ratio"])
def test_text_parse_rejects_out_of_range(token):
    with pytest.raises(StructuralError, match="line 3: value out of range"):
        RBA.from_text(f"rank 1\nstar 0\nlambda 0 0 0 {token}\n")


def test_text_parse_rejects_duplicate_lambda():
    text = "rank 1\nstar 0\nlambda 0 0 0 1\n# again\nlambda 0 0 0 2\n"
    with pytest.raises(StructuralError, match=r"line 5: duplicate lambda 0 0 0 \(first on line 3\)"):
        RBA.from_text(text)


def test_text_parse_exact_tokens():
    # p/q tokens need not be in lowest terms, nor have a positive denominator
    text = "rank 2\nstar 0 1\nlambda 0 0 0 1\nlambda 0 1 1 2/2\nlambda 1 0 1 {}\nlambda 1 1 0 {}\n"
    rba = RBA.from_text(text.format("-3/-3", "6/-4"))
    assert rba.exact and rba.lam_int[0] == 2
    assert rba.lam[1, 1, 0] == Fraction(-3, 2) and rba.lam[1, 0, 1] == 1
    # in a float RBA an exact token is p / q, rounded once
    rba_f = RBA.from_text(text.format("1/3", "0.25"))
    assert not rba_f.exact and rba_f.lam[1, 0, 1] == 1 / 3
    with pytest.raises(StructuralError, match="line 6: bad numeric token '1/0'"):
        RBA.from_text(text.format("1", "1/0"))


# ---------------------------------------------------------------------------
# text: the column read and the line loop agree
# ---------------------------------------------------------------------------

def _read(text, monkeypatch, columns):
    """RBA.from_text's outcome with or without the column read: the RBA's
    exactness, star, (D, dtype, N) and lam_float, or the error's type and message."""
    with monkeypatch.context() as m:
        if not columns:
            m.setattr(core, "_read_columns", lambda text: None)
        try:
            rba = RBA.from_text(text)
        except Exception as exc:  # compared, not swallowed
            return type(exc), str(exc)
    d, n = rba.lam_int if rba.exact else (None, None)
    return (rba.exact, rba.star.tolist(), d, None if n is None else (n.dtype, n.tolist()),
            rba.lam_float.tolist())


def _texts_read_by_columns():
    s3 = from_group(s3_table())
    wide = rescale(s3, [Fraction(1)] + [Fraction(3**25)] * 5)          # numerators past 2^63
    rational = rescale(s3, [1, Fraction(2, 3), Fraction(2, 3), Fraction(5, 7), 3, 4])
    decimal = RBA(rational.lam_float, rational.star)                   # repr(float) tokens
    texts = {name: fixture_text(name) for name in ("s3.rba", "rank7_h")}
    rbas = {"s3": s3, "wide": wide, "rational": rational, "decimal": decimal,
            "d8": from_group(d8_table()), "c6": from_group(c_n_table(6)),
            "petersen": load_fixture("petersen"), "rank7_h": load_fixture("rank7_h")}
    texts.update({name + ".to_text": rba.to_text() for name, rba in rbas.items()})
    texts["crlf-free bench style"] = "rank 2\nstar 0 1\n" + "".join(
        f"lambda {i} {j} {(i + j) % 2} {v}\n" for (i, j), v in zip(itertools.product(range(2), repeat=2),
                                                                   ["1", "1", "1", "7/3"]))
    return texts


RATIONAL_TEXTS = {"crlf-free bench style", "rational.to_text"}  # a '/' in the body: the line loop


@pytest.mark.parametrize("name", sorted(_texts_read_by_columns()))
def test_column_read_matches_line_loop(name, monkeypatch):
    text = _texts_read_by_columns()[name]
    assert (core._read_columns(text) is None) == (name in RATIONAL_TEXTS)  # else the column read takes it
    assert _read(text, monkeypatch, True) == _read(text, monkeypatch, False)


S2 = "rank 2\nstar 0 1\nlambda 0 0 0 1\nlambda 0 1 1 1\nlambda 1 0 1 1\nlambda 1 1 0 {}\n"
NEAR_MISSES = {
    "two statements on a line": "rank 2\nstar 0 1\nlambda 0 0 0 1 lambda 0 1 1 1\nlambda 1 0 1 1\n",
    "two statements, then a blank line": "rank 2\nstar 0 1\nlambda 0 0 0 1 lambda 0 1 1 1\n\nlambda 1 0 1 1\n",
    "4 then 6 fields": "rank 2\nstar 0 1\nlambda 0 0 0\nlambda 1 0 1 1 1\nlambda 1 1 0 1\n",
    "blank line in body": S2.format(1).replace("lambda 0 1", "\nlambda 0 1"),
    "crlf": S2.format(1).replace("\n", "\r\n"),
    "tabs": S2.format(1).replace(" ", "\t"),
    "vertical tab": S2.format("1\v1"),
    "inline comment": S2.format("1  # one"),
    "leading space": S2.format(1).replace("lambda 1 1", " lambda 1 1"),
    "trailing blank line": S2.format(1) + "\n",
    "no final newline": S2.format(1).rstrip("\n"),
    "underscore": S2.format("1_000"),
    "underscore among rationals": S2.format("1_0").replace("lambda 0 1 1 1", "lambda 0 1 1 2/3"),
    "plus sign": S2.format("+1"),
    "plus index": S2.format(1).replace("lambda 1 1 0", "lambda +1 1 0"),
    "double sign": S2.format("+-1"),
    "negative over negative": S2.format("-3/-3"),
    "two slashes": S2.format("1/2/3"),
    "zero denominator": S2.format("1/0"),
    "overflow": S2.format("1e400"),
    "nan": S2.format("nan"),
    "inf": S2.format("-inf"),
    "huge integer": S2.format("1" + "0" * 400),
    "huge ratio": S2.format("1" + "0" * 400 + "/3"),
    "superscript digit": S2.format("\u00b2"),
    "not a number": S2.format("x"),
    "duplicate key": S2.format(1) + "lambda 0 0 0 2\n",
    "negative index": S2.format(1).replace("lambda 1 1 0", "lambda -1 1 0"),
    "index out of range": S2.format(1).replace("lambda 1 1 0", "lambda 1 1 2"),
    "index past int64": S2.format(1).replace("lambda 1 1 0", "lambda 1 1 18446744073709551616"),
    "entry 2^63": S2.format(2**63),
    "entry -2^63": S2.format(-2**63),
    "entry 2^63 - 1": S2.format(2**63 - 1),
    "one decimal among rationals": S2.format("0.5").replace("lambda 0 1 1 1", "lambda 0 1 1 2/3"),
    "huge rank, no entries": "rank 100000\nstar " + " ".join(map(str, range(100000))) + "\n",
    "huge rank, short star": "rank 1000000000\nstar 0\n",
    "rank 0": "rank 0\nstar\n",
    "star not a permutation": S2.format(1).replace("star 0 1", "star 0 0"),
    "rank line of 3 fields": S2.format(1).replace("rank 2", "rank 2 2"),
    "second line not star": S2.format(1).replace("star 0 1", "start 0 1"),
    "nothing after star": "rank 1\nstar 0",
    "star line first": S2.format(1).replace("rank 2\nstar 0 1", "star 0 1\nrank 2"),
    "unknown directive": S2.format(1) + "mu 0\n",
    "comment after rank": S2.format(1).replace("star", "# star next\nstar"),
    "non-ascii comment": "# \u03bb\n" + S2.format(1),
}


@pytest.mark.parametrize("name", sorted(NEAR_MISSES))
def test_column_read_near_misses_match_line_loop(name, monkeypatch):
    text = NEAR_MISSES[name]
    assert _read(text, monkeypatch, True) == _read(text, monkeypatch, False)


VALUE_TOKENS = ["0", "1", "-2", "007", "+3", "3/4", "-6/-4", "2/0", "0.5", "1e-3", "1_0", "1e400", "nan",
                str(2**63), str(-2**63), "9" * 320, "x", "1/2/3", "--1", "."]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-1, 3), st.integers(0, 2), st.integers(0, 2),
                          st.sampled_from(VALUE_TOKENS)), max_size=10),
       st.sampled_from(["\n", "\r\n", " \n"]))
def test_column_read_matches_line_loop_on_random_text(entries, newline):
    text = newline.join(["rank 3", "star 0 2 1"] + [f"lambda {i} {j} {k} {v}" for i, j, k, v in entries]) + newline
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert _read(text, monkeypatch, True) == _read(text, monkeypatch, False)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_rank1(rank1_rba):
    rep = validate(rank1_rba, TOL)
    assert rep.passed
    assert all(c.residual == 0.0 for c in rep.checks)


def test_validate_group_fixtures(s3_rba, d8_rba, c2_rba):
    # group axioms imply the RBA axioms (oracle: cayley_check in conftest)
    for rba in (s3_rba, d8_rba, c2_rba):
        rep = validate(rba, TOL)
        assert rep.passed, rep.summary()


def test_validate_rank7(rank7_rba):
    rep = validate(rank7_rba, TOL)
    assert rep.passed, rep.summary()
    assert max(c.residual for c in rep.checks) < 1e-12


def test_validate_pseudo_inverse_failure(s3_rba):
    lam = s3_rba.lam.copy()
    lam[1, 2, 0] = Fraction(0)  # zero out the b_0-coefficient of b_1 b_1*
    broken = RBA(lam, s3_rba.star)
    rep = validate(broken, TOL)
    assert not rep.passed
    check = rep["pseudo-inverse"]
    assert not check.passed
    assert "(1, 2)" in check.detail


def test_validate_associativity_failure(s3_rba):
    lam = s3_rba.lam.copy()
    lam[1, 1, 1] = Fraction(1, 3)
    broken = RBA(lam, s3_rba.star)
    rep = validate(broken, TOL)
    assert not rep["associativity"].passed


def test_validate_anti_automorphism_failure(s3_rba):
    lam = s3_rba.lam_float.copy()
    lam[3, 4, 1] += 0.5
    broken = RBA(lam, s3_rba.star)
    rep = validate(broken, TOL)
    assert not rep.passed


@pytest.mark.parametrize("table", [s3_table(), d8_table(), c_n_table(8)], ids=["D3", "D4", "C8"])
def test_validate_float_bounds_are_relative_to_scale(table):
    # b_i' = t_i b_i with t_i = t_{i*} in [1, 1000] is the same algebra at
    # scale ~9e5, where float associativity residuals reach 6e-8
    rba = from_group(table)
    t = np.random.default_rng(1).uniform(1, 1000, rba.rank)[np.minimum(np.arange(rba.rank), rba.star)]
    t[0] = 1
    lam = rba.lam_float * t[:, None, None] * t[None, :, None] / t[None, None, :]
    rescaled = RBA(lam, rba.star)
    assert rescaled.scale > 5e5 and validate(rescaled, TOL).passed
    report = analyze(rescaled, TOL).data
    assert report["overall_pass"]
    assert report["quaternion"].get("verdict", "real-split-only") == "real-split-only"
    # a bump of a quarter of the scale on lam[1,2,3] and its mirror still fails
    bumped = lam.copy()
    s = rba.star
    bumped[1, 2, 3] += 0.25 * rescaled.scale
    bumped[s[2], s[1], s[3]] += 0.25 * rescaled.scale
    rep = validate(RBA(bumped, rba.star), TOL)
    assert [c.name for c in rep.checks if not c.passed] == ["associativity"]
    # the identity's entries are 1 at every scale, so its bound stays absolute:
    # b_0 b_1 = 3 b_1 fails at scale 1e9, where the relative bound would be 10
    lam = np.zeros((2, 2, 2))
    lam[0, 0, 0] = lam[1, 1, 0] = 1
    lam[0, 1, 1] = lam[1, 0, 1] = 3
    lam[1, 1, 1] = 1e9
    rep = validate(RBA(lam, np.array([0, 1])), TOL)
    assert not rep["identity"].passed and rep["identity"].residual == 2


TINY = Fraction(1, 10**30)


@pytest.mark.parametrize(
    "entry, value, check",
    [
        ((0, 1, 1), 1 + Fraction(1, 10**10), "identity"),       # b_0 b_1 = (1 + 1e-10) b_1
        ((1, 1, 2), 1 + TINY, "anti-automorphism"),             # r r = r^2, off by 1e-30
        ((1, 1, 0), TINY, "pseudo-inverse"),                    # b_0 in b_1 b_1, 1* = 2
    ],
)
def test_validate_exact_mode_is_exact(s3_rba, entry, value, check):
    # each perturbation is below the float tolerances: float mode passes the
    # check, exact mode must not
    lam = s3_rba.lam.copy()
    lam[entry] = value
    broken = RBA(lam, s3_rba.star)
    assert not validate(broken, TOL)[check].passed
    assert validate(RBA(broken.lam_float, broken.star), TOL)[check].passed


def test_validate_python_int_fallback(s3_rba):
    # t = 3^10 off the identity puts lam[i,i*,0] at 3^20, past the int64 bound
    big = rescale(s3_rba, [Fraction(1)] + [Fraction(3**10)] * 5)
    d, n = big.lam_int
    assert n.dtype == object and big.rank * int(abs(n).max()) ** 2 >= 2**63
    assert validate(big, TOL).passed
    lam = big.lam.copy()
    lam[1, 1, 2] += TINY
    rep = validate(RBA(lam, big.star), TOL)
    assert not rep["anti-automorphism"].passed and not rep.passed


def test_validate_non_finite_residual():
    rba = RBA.from_text(overflow_rba_text("1e308"))   # products overflow: inf - inf
    assert not rba.exact
    with pytest.raises(NumericalError, match="associativity residual is not finite"):
        validate(rba, TOL)


HUGE = 10**300  # fits a double; products of two such entries do not


def test_validate_exact_residual_beyond_double():
    rba = RBA.from_text(overflow_rba_text(HUGE))
    assert rba.exact
    with pytest.raises(NumericalError, match=r"associativity residual is not finite \(inf\)"):
        validate(rba, TOL)


@pytest.mark.parametrize("text", [
    "rank 1\nstar 0\nlambda 0 0 0 1e308\n",      # lam^2 would overflow: inf - inf
    f"rank 2\nstar 0 1\nlambda 0 1 0 {HUGE}\nlambda 1 0 0 {HUGE}\nlambda 1 1 0 1\n",
])
def test_validate_skips_associativity_without_identity(text):
    # b_0 is not an identity: the r^5 check is reported as not run, whatever
    # it would have given
    rep = validate(RBA.from_text(text), TOL)
    assert not rep["identity"].passed
    assoc = rep["associativity"]
    assert (assoc.passed, assoc.residual, assoc.detail) == (
        False, 0.0, "not run: identity check failed")


def _assoc_reference(rba):
    """(residual, detail) of associativity from one einsum over the whole
    tensor (D, N) or (1, lam_float), in the arithmetic of its own dtype."""
    d, lam = rba.lam_int if rba.exact else (1, rba.lam_float)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf: the NaN residual is the answer
        diff = abs(np.einsum("ijm,mkl->ijkl", lam, lam) - np.einsum("jkm,iml->ijkl", lam, lam))
    worst = np.unravel_index(int(np.argmax(diff)), diff.shape)
    res = diff[worst]
    if res != res:
        return math.nan, ""
    detail = f"worst quadruple ({','.join(map(str, worst))})"
    if rba.exact:
        return float(Fraction(int(res), d * d)), detail if res else ""
    return float(res), detail if res > TOL.eps_residual else ""


def _assert_within_rounding_of_exact(rba, assoc):
    """A float tensor's residual and named quadruple against exact arithmetic on
    the same float64 values: each is a dyadic rational, so |left - right| and
    |left| + |right| (the magnitudes of the 2r products) at every quadruple are
    Python-int numerators over D^2, D a power of two. Gemm rounds each
    product and sums at most 2r of them per quadruple, in two dot products
    and their difference (the thin block's values are gemm's), so a computed
    difference is within gamma(2r) (|left| + |right|) of the exact one
    (gamma(n) = n u / (1 - n u), u = 2^-53); bound is the largest such error.
    The residual is then within bound of the exact maximum, and the named
    quadruple's exact difference within 2 bound of it."""
    lam = rba.lam_float
    d, n = core.over_common_denominator(np.array([Fraction(x) for x in lam.flat], dtype=object).reshape(lam.shape))
    left, right, left_abs, right_abs = (
        np.einsum(spec, x, x) for x in (n, abs(n)) for spec in ("ijm,mkl->ijkl", "jkm,iml->ijkl"))
    diff = abs(left - right)
    u = Fraction(1, 2**53)
    bound = 2 * rba.rank * u / (1 - 2 * rba.rank * u) * Fraction(int((left_abs + right_abs).max()), d * d)
    top = Fraction(int(diff.max()), d * d)
    assert abs(Fraction(assoc.residual) - top) <= bound
    if assoc.detail:
        quad = tuple(map(int, assoc.detail.removeprefix("worst quadruple (").removesuffix(")").split(",")))
        assert top - Fraction(int(diff[quad]), d * d) <= 2 * bound


def _perturbed(rba, entry, delta):
    lam = rba.lam.copy()
    lam[entry] += delta
    return RBA(lam, rba.star)


def _assoc_cases():
    """Exact and float tensors on both sides of the bound r max|N|^2 < 2^52 under
    which float64 gemm is exact, with and without a perturbed entry, each with
    the flag `rounded`: a float tensor whose sums gemm rounds otherwise than
    einsum does."""
    one = Fraction(1)
    s3, s4 = from_group(s3_table()), from_group(s4_table())
    h33 = np.array([[sum(a != b for a, b in zip(x, y)) for y in itertools.product(range(3), repeat=3)]
                    for x in itertools.product(range(3), repeat=3)])
    scheme = from_scheme([(h33 == k).astype(int) for k in range(4)])
    rank7 = load_fixture("rank7_h")
    # the pair scaled by t puts t^2 at lam[1,2,0]: 6 t^4 just past 2^52, and just below
    t = math.isqrt(math.isqrt(2**52 // 6))
    while 6 * t**4 < 2**52:
        t += 1
    # dense signed entries with b_0 an identity: float64 products lose bits here
    star, bound = np.arange(6), math.isqrt(2**61 // 6)
    dense = np.random.default_rng(5).integers(-bound, bound, (6, 6, 6), endpoint=True)
    dense[0], dense[:, 0] = np.eye(6, dtype=np.int64), np.eye(6, dtype=np.int64)
    cases = {
        "S4": s4,
        "S4 perturbed at i = 21": _perturbed(s4, (21, 5, 7), 1),
        "H(3,3)": scheme,
        "H(3,3) perturbed": _perturbed(scheme, (2, 2, 1), 1),
        "S3 rescaled, D > 1": rescale(s3, [one, Fraction(2, 3), Fraction(2, 3), Fraction(5, 7), one, one]),
        "S3 rescaled by 3^10 (Python ints)": _perturbed(rescale(s3, [one] + [Fraction(3**10)] * 5), (1, 1, 2), 1),
        "S3 6 t^4 past 2^52": _perturbed(rescale(s3, [one, t, t, one, one, one]), (1, 1, 2), 1),
        "S3 6 t^4 below 2^52": _perturbed(rescale(s3, [one, t - 1, t - 1, one, one, one]), (1, 1, 2), 1),
        "random int64, r max|N|^2 near 2^61": RBA(dense, star),
        "rank5 exact, int64 past 2^52": rank5_split_rba(1),
        "rank7_h (decimals)": rank7,
        "rank7_h perturbed": _perturbed(rank7, (3, 4, 0), 1e-6),
    }
    floats = {f"{name}, float": RBA(rba.lam_float, rba.star) for name, rba in cases.items() if rba.exact}
    rounded = {"random int64, r max|N|^2 near 2^61, float", "rank5 exact, int64 past 2^52, float"}
    return [pytest.param(rba, name in rounded, id=name) for name, rba in {**cases, **floats}.items()]


@pytest.mark.parametrize("block", [1, core.ASSOC_BLOCK])   # one i per block, and the default
@pytest.mark.parametrize("rba, rounded", _assoc_cases())
def test_validate_associativity_matches_einsum_reference(rba, rounded, block, monkeypatch):
    monkeypatch.setattr(core, "ASSOC_BLOCK", block)
    assoc = validate(rba, TOL)["associativity"]
    if rounded:  # the reference is exact arithmetic, not einsum's summation order
        _assert_within_rounding_of_exact(rba, assoc)
    else:
        assert (assoc.residual, assoc.detail) == _assoc_reference(rba)


def _exact_assoc_reference(rba):
    """(residual, detail) of associativity on the integers N of an exact RBA,
    by int64 einsum four i at a time: exact, since r max|N|^2 < 2^63. (An
    object-dtype einsum is as exact but takes ~30 s at r = 48.)"""
    d, n = rba.lam_int
    assert n.dtype == np.int64 and rba.rank * int(abs(n).max()) ** 2 < 2**63
    res, worst = 0, None
    for i0 in range(0, rba.rank, 4):
        block = n[i0:i0 + 4]
        diff = abs(np.einsum("ijm,mkl->ijkl", block, n) - np.einsum("jkm,iml->ijkl", n, block))
        at = np.unravel_index(int(np.argmax(diff)), diff.shape)
        if diff[at] > res:
            res, worst = diff[at], (at[0] + i0, *at[1:])
    if not res:
        return 0.0, ""
    return float(Fraction(int(res), d * d)), f"worst quadruple ({','.join(map(str, worst))})"


def _kernel(lam):
    """The associativity kernel lam takes: thin or gemm."""
    return "gemm" if core._thin_kernel(lam) is None else "thin"


def _dense_scheme():
    """The adjacency algebra of H(3,3) x H(3,2), rank 16, as an integer tensor."""
    def scheme(d, q):
        pts = list(itertools.product(range(q), repeat=d))
        dist = np.array([[sum(a != b for a, b in zip(x, y)) for y in pts] for x in pts])
        return from_scheme([(dist == k).astype(int) for k in range(d + 1)]).lam_int[1]
    a, b = scheme(3, 3), scheme(3, 2)
    lam = np.einsum("ace,bdf->abcdef", a, b).reshape(16, 16, 16)
    return RBA(lam, np.arange(16))


def _rescaled_float(rba, seed):
    """rba over floats, its basis rescaled by seeded t_i = t_{i*} in [0.5, 2] (t_0 = 1)."""
    t = np.random.default_rng(seed).uniform(0.5, 2, rba.rank)
    t = t[np.minimum(np.arange(rba.rank), rba.star)]
    t[0] = 1
    return RBA(rba.lam_float * t[:, None, None] * t[None, :, None] / t[None, None, :], rba.star)


def _bumped(lam, entries):
    """A copy of lam with each (index, value) of entries added."""
    lam = lam.copy()
    for at, value in entries:
        lam[at] += value
    return lam


def _perturbations(lam, kernel):
    """(kernel, lam broken) pairs for an exact tensor lam that takes kernel: two
    entries off the identity row and column bumped, one of them a new nonzero,
    which takes a group tensor to gemm; for a thin tensor also the value of
    row (5, 7) doubled and the nonzero of row (r - 1, 2) moved to the next k,
    both still thin."""
    r = lam.shape[0]
    two = _bumped(lam, [((5, 7, 3), 2), ((r - 1, 2, r - 2), -1)])
    if kernel != "thin":
        return [(kernel, two)]
    doubled, moved = lam.copy(), lam.copy()
    doubled[5, 7] *= 2
    moved[r - 1, 2] = np.roll(lam[r - 1, 2], 1)
    return [("gemm", two), ("thin", doubled), ("thin", moved)]


@pytest.mark.parametrize("build, kernel", [
    (lambda: from_group(c_n_table(24)), "thin"),
    (lambda: from_group(c_n_table(48)), "thin"),
    (_dense_scheme, "gemm"),
    (lambda: _rescaled_float(from_group(c_n_table(48)), 48), "thin"),
], ids=["C24", "C48", "H(3,3)xH(3,2)", "C48 rescaled, float"])
def test_associativity_kernel_matches_exact_reference(build, kernel, monkeypatch):
    rba = build()
    r = rba.rank
    # a group tensor is thin, one nonzero per row lam[i,j,:]; any other
    # tensor, such as the dense scheme, takes gemm
    assert _kernel(rba.lam_float) == kernel
    if not rba.exact:
        # decimal entries have no exact reference: the tensor passes, and with
        # one entry bumped, to a new nonzero (gemm) or on its nonzero (thin),
        # fails alike in gemm, and with one i per block and with the default
        lam = rba.lam_float
        for broken_kernel, at in (("gemm", (5, 7, 3)), ("thin", (5, 7, int(np.flatnonzero(lam[5, 7])[0])))):
            broken = RBA(_bumped(lam, [(at, 1)]), rba.star)
            assert _kernel(broken.lam_float) == broken_kernel
            found = []
            for block, rank in ((1, r + 1), (1, core.THIN_RANK), (core.ASSOC_BLOCK, core.THIN_RANK)):
                monkeypatch.setattr(core, "ASSOC_BLOCK", block)
                monkeypatch.setattr(core, "THIN_RANK", rank)
                assert validate(rba, TOL)["associativity"].passed
                assoc = validate(broken, TOL)["associativity"]
                found.append((assoc.passed, assoc.residual, assoc.detail))
            assert found[0] == found[1] == found[2] and not found[0][0]
        return
    for valid in (rba, RBA(rba.lam_float, rba.star)):
        assert validate(valid, TOL)["associativity"].passed
    for broken_kernel, n in _perturbations(rba.lam_int[1], kernel):
        perturbed = RBA(n, rba.star)
        assert _kernel(perturbed.lam_float) == broken_kernel
        reference = _exact_assoc_reference(perturbed)
        assert reference[0] > 0
        for tensor in (perturbed, RBA(perturbed.lam_float, rba.star)):
            assoc = validate(tensor, TOL)["associativity"]
            assert (assoc.residual, assoc.detail) == reference


def _rescaled_exact(rba, t):
    """rba rescaled by t_i = t_{i*} = t[min(i, i*)] off b_0 (t_0 = 1)."""
    return rescale(rba, [Fraction(1)] + [t[min(i, int(rba.star[i]))] for i in range(1, rba.rank)])


@pytest.mark.parametrize("build, dtype", [
    # p / q with p, q < 1000: D of 73 digits, N up to 75
    (lambda: _rescaled_exact(from_group(s4_table()), [Fraction(int(p), int(q)) for p, q in
                                                       np.random.default_rng(24).integers(1, 1000, (24, 2))]),
     object),
    # t = 2^13 off b_0: N up to 2^26, past r max|N|^2 < 2^52 but within int64's bound
    (lambda: _rescaled_exact(from_group(c_n_table(24)), [Fraction(2**13)] * 24), np.int64),
], ids=["S4 rescaled by p/q (Python ints)", "C24 rescaled by 2^13 (int64)"])
def test_thin_kernel_in_own_dtype_matches_gemm(build, dtype, monkeypatch):
    # integer N past the 2^52 bound: the thin block runs in N's own dtype,
    # where gemm does r^5 exact multiply-adds
    rba = build()
    d, n = rba.lam_int
    assert n.dtype == dtype and rba.rank * int(abs(n).max()) ** 2 >= 2**52 and _kernel(n) == "thin"
    start = time.process_time()
    assert validate(rba, TOL).passed
    assert time.process_time() - start <= 0.1
    lam = rba.lam.copy()
    lam[5, 7] *= 2   # one row's value doubled: still thin
    broken = RBA(lam, rba.star)
    assert broken.lam_int[1].dtype == dtype and _kernel(broken.lam_int[1]) == "thin"
    found = []
    for rank in (core.THIN_RANK, rba.rank + 1):   # the thin block, then gemm
        monkeypatch.setattr(core, "THIN_RANK", rank)
        found.append([(c.passed, c.residual, c.detail) for c in (
            validate(rba, TOL)["associativity"], validate(broken, TOL)["associativity"])])
    assert found[0] == found[1] and found[0][0][0] and not found[0][1][0]


def test_validate_exact_s5_is_bounded():
    # the rank-120 group tensor is thin: the thin block forms 2 r^3 products
    # where gemm does 2 r^5 multiply-adds, on integer and on decimal entries
    rba = from_group(s_n_table(5))
    for tensor, seconds in ((rba, 3.0), (_rescaled_float(rba, 120), 2.0)):
        start = time.process_time()
        rep = validate(tensor, TOL)
        assert time.process_time() - start <= seconds
        assert rep.passed
    assert rba.exact


def _c24_overflowing():
    """C24 over floats with lam[1:, 1:] scaled by 1e200: finite entries whose
    products overflow, inf - inf."""
    c24 = from_group(c_n_table(24))
    lam = c24.lam_float.copy()
    lam[1:, 1:] *= 1e200
    return RBA(lam, c24.star)


def test_validate_associativity_nan_matches_einsum_reference():
    for rba, kernel in ((RBA.from_text(overflow_rba_text("1e308")), "gemm"), (_c24_overflowing(), "thin")):
        assert _kernel(rba.lam_float) == kernel
        assert math.isnan(_assoc_reference(rba)[0])
        with pytest.raises(NumericalError, match=r"associativity residual is not finite \(nan\)"):
            validate(rba, TOL)


def test_tolerance_config_invariants():
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(StructuralError, match="tolerance eps_residual must be finite"):
            ToleranceConfig(eps_residual=eps)
    for seed in (-1, 1.5, "3", None):
        with pytest.raises(StructuralError, match="rng_seed must be a non-negative integer"):
            ToleranceConfig(rng_seed=seed)


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-8, 1e-6, 1e-3])
def test_tolerance_config_derives_zero_and_cluster_cuts(eps):
    tol = ToleranceConfig(eps)
    assert (tol.eps_zero, tol.eps_cluster) == (min(1e-9, eps), max(1e-6, eps))


# ---------------------------------------------------------------------------
# element products and the integer frame
# ---------------------------------------------------------------------------

def _fractions(rng, r):
    return np.array([Fraction(int(p), int(q)) for p, q in
                     zip(rng.integers(-9, 10, r), rng.integers(1, 10, r))], dtype=object)


@pytest.mark.parametrize("build", [
    lambda: from_group(s3_table()),
    lambda: rank5_split_rba(0),
    # t = 3^10 off the identity: N holds Python ints
    lambda: rescale(from_group(s3_table()), [Fraction(1)] + [Fraction(3**10)] * 5),
], ids=["s3", "rank5", "python-int N"])
def test_mul_on_rationals_is_the_exact_product(build):
    rba = build()
    rng = np.random.default_rng(7)
    for _ in range(5):
        u, v = _fractions(rng, rba.rank), _fractions(rng, rba.rank)
        uv = rba.mul(u, v)
        assert all(type(c) is Fraction for c in uv)
        assert (uv == np.einsum("i,j,ijk->k", u, v, rba.lam)).all()


def test_mul_on_floats_and_complex_stays_in_floats(s3_rba, rank7_rba):
    rng = np.random.default_rng(8)
    for rba in (s3_rba, rank7_rba, RBA(s3_rba.lam_float, s3_rba.star)):
        r = rba.rank
        for u, v, dtype in ((rng.normal(size=r), rng.normal(size=r), np.float64),
                            (rng.normal(size=r) + 1j * rng.normal(size=r), rng.normal(size=r), np.complex128)):
            uv = rba.mul(u, v)
            assert uv.dtype == dtype
            assert abs(uv - np.einsum("i,j,ijk->k", u, v, rba.lam_float)).max() < 1e-12


def test_frame_int64_bound():
    # exact S3: t = max(D, max|N|) = 1 and m = r = 6, so with v a basis vector
    # (s_v = 1) the frame is int64 while 36 s_u^2 < 2^62
    rba = from_group(s3_table())
    below = math.isqrt((2**62 - 1) // 36)
    assert 36 * below**2 < 2**62 <= 36 * (below + 1) ** 2
    w, v = np.array([1, -1, 1, 0, -1, 1]), np.eye(6, dtype=int)[2]
    products = []
    for s, dtype in ((below, np.int64), (below + 1, object)):
        _, n, parts = core._frame(rba, s * w, v)
        assert n.dtype == dtype and all(x.dtype == dtype for _, x in parts)
        uv = rba.mul(s * w, v)
        assert (uv == np.einsum("i,j,ijk->k", s * w.astype(object), v.astype(object), rba.lam)).all()
        products.append(uv)
    assert (products[0] * (below + 1) == products[1] * below).all()


def test_frame_casts_python_int_numerators_once(s3_rba):
    # N past int64 storage (t = 3^10 off the identity) fits the frame's int64
    # bound: the cast is made once per RBA, not once per product
    wide = rescale(s3_rba, [Fraction(1)] + [Fraction(3**10)] * 5)
    assert wide.lam_int[1].dtype == object
    first, second = core._frame(wide)[1], core._frame(wide)[1]
    assert first.dtype == np.int64 and first is second
    assert core._frame(s3_rba)[1] is s3_rba.lam_int[1]


# ---------------------------------------------------------------------------
# degree map
# ---------------------------------------------------------------------------

def test_degree_map_rank1(rank1_rba):
    dm = degree_map(rank1_rba, TOL)
    assert list(dm.values) == [Fraction(1)]
    assert dm.n == 1


def test_degree_map_s3(s3_rba):
    dm = degree_map(s3_rba, TOL)
    assert dm.exact
    assert list(dm.values) == [Fraction(1)] * 6
    assert dm.n == 6
    # independent verification of the homomorphism property
    vals = dm.values_float
    lhs = np.einsum("ijk,k->ij", s3_rba.lam_float, vals)
    assert abs(lhs - np.outer(vals, vals)).max() < 1e-12


def test_degree_map_rank7(rank7_rba):
    dm = degree_map(rank7_rba, TOL)
    assert abs(dm.values_float - np.array([1, 2, 2, 2, 2, 2, 2.0])).max() < 1e-8
    assert abs(dm.n_float - 13.0) < 1e-8


def test_degree_map_missing():
    # b_1^2 = -b_0 admits no real one-dimensional representation at all
    lam = np.zeros((2, 2, 2))
    lam[0, 0, 0] = lam[0, 1, 1] = lam[1, 0, 1] = 1.0
    lam[1, 1, 0] = -1.0
    with pytest.raises(NumericalError):
        degree_map(RBA(lam, [0, 1]), TOL)


def test_degree_map_two_positive_reps():
    # b_1^2 = -2 b_0 + 3 b_1: x^2 = 3x - 2 has the two positive roots 1 and 2;
    # exact, lam[1,1,0] = -2 is no degree, so the eig search runs and finds both
    for dtype in (float, np.int64):
        lam = np.zeros((2, 2, 2), dtype=dtype)
        lam[0, 0, 0] = lam[0, 1, 1] = lam[1, 0, 1] = 1
        lam[1, 1, 0], lam[1, 1, 1] = -2, 3
        with pytest.raises(NumericalError, match="2 all-positive"):
            degree_map(RBA(lam, [0, 1]), TOL)


def _refuse(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize("build, degrees", [
    (lambda: from_group(s3_table()), [1] * 6),
    (lambda: from_group(d8_table()), [1] * 8),
    (lambda: from_group(c_n_table(12)), [1] * 12),
    (lambda: from_scheme(relations(hamming(3, 3))), [1, 6, 12, 8]),
    (lambda: from_scheme(relations(johnson(6, 3))), [1, 9, 9, 1]),
], ids=["S3", "D8", "C12", "H(3,3)", "J(6,3)"])
def test_exact_degree_map_is_proved_without_eig(build, degrees, monkeypatch):
    # a standard exact RBA: delta_i = lam[i,i*,0], proved by N c = c c^T alone
    rba = build()
    monkeypatch.setattr(np.linalg, "eig", _refuse)
    monkeypatch.setattr(ToleranceConfig, "rng", _refuse)
    dm = degree_map(rba, TOL)
    assert dm.exact and all(type(v) is Fraction for v in dm.values)
    assert list(dm.values) == degrees


def test_exact_degree_map_of_a_rescaled_pair(s3_rba, monkeypatch):
    # not standard (lam[1,2,0] = 9, delta_1 = 3): one eig finds the degrees, and
    # the degree map of the standardized RBA is proved without one
    rescaled = rescale(s3_rba, [Fraction(v) for v in (1, 3, 3, 1, 1, 1)])
    eig, calls = np.linalg.eig, []
    monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append(1) or eig(m))
    dm, std, std_dm = to_standard_basis(rescaled, TOL)
    assert len(calls) == 1 and std is not rescaled
    assert dm.exact and list(dm.values) == [1, 3, 3, 1, 1, 1]
    assert std_dm.exact and list(std_dm.values) == [1] * 6
    assert np.array_equal(std.lam, s3_rba.lam)


def _rescaled_by_fractions(table, seed, bound=1000):
    """The group RBA of table with b_i' = t_i b_i, t_i = t_{i*} = p/q for seeded
    p, q < bound, and t, its degree map."""
    rba, rng = from_group(table), np.random.default_rng(seed)
    t = [Fraction(1)] * rba.rank
    for i in range(1, rba.rank):
        if i <= rba.star[i]:
            t[i] = t[rba.star[i]] = Fraction(int(rng.integers(1, bound)), int(rng.integers(1, bound)))
    return rescale(rba, t), t


@pytest.mark.parametrize("build", [
    lambda: _rescaled_by_fractions(s4_table(), 0),
    lambda: _rescaled_by_fractions(s4_table(), 1),
    lambda: _rescaled_by_fractions(dihedral_table(12), 0),
    lambda: _rescaled_by_fractions(dihedral_table(12), 3),
    lambda: _rescaled_by_fractions(s4_table(), 0, 10**6),
    lambda: _rescaled_by_fractions(s4_table(), 0, 10**12),
], ids=["S4 p/q seed 0", "S4 p/q seed 1", "D24 p/q seed 0", "D24 p/q seed 3", "S4 p/q < 10^6", "S4 p/q < 10^12"])
def test_exact_degree_map_of_a_rescaled_basis(build, monkeypatch):
    # D up to ~10^99 (10^221 for p, q < 10^6, which takes 14 Newton steps; 10^521
    # for p, q < 10^12, where R / D is past the float range and is scaled by 2^-e):
    # c = round(D v) from the float eigenvector is refined by Newton and proved
    # by N c = c c^T, with no snapping and no _frame (S3 scaled by 1 + 10^-k:
    # test_quaternion.py::test_symbol_off_standard_by_1e_k)
    rba, degrees = build()
    monkeypatch.setattr(core, "snap_value", _refuse)
    monkeypatch.setattr(core, "_frame", _refuse)
    dm = degree_map(rba, TOL)
    assert dm.exact and list(dm.values) == degrees


def test_exact_input_with_an_irrational_degree_runs_in_floats():
    # b_1^2 = b_0 + b_1: delta_1 = (1 + sqrt 5) / 2 fails the integer proof, so
    # the degrees stay floats and the report says the analysis ran in floats
    lam = np.zeros((2, 2, 2), dtype=np.int64)
    lam[0, 0, 0] = lam[0, 1, 1] = lam[1, 0, 1] = lam[1, 1, 0] = lam[1, 1, 1] = 1
    rba = RBA(lam, [0, 1])
    dm = degree_map(rba, TOL)
    assert not dm.exact and abs(dm.values - [1, (1 + math.sqrt(5)) / 2]).max() < 1e-12
    assert analyze(rba, TOL).data["meta"]["mode"] == "float"


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_degree_map_relabelled_and_rescaled(data):
    # b'_a = t_a b_{p[a]} with p[0] = 0 and t_a = t_{a*} has degrees t_a delta_{p[a]}
    rba = load_fixture(data.draw(st.sampled_from(["s3", "d8", "rank7_h"])))
    r = rba.rank
    p = np.array([0] + data.draw(st.permutations(range(1, r))))
    inv = np.argsort(p)
    star = inv[rba.star[p]]
    draws = data.draw(st.lists(st.floats(0.5, 2.0), min_size=r, max_size=r))
    t = np.array([1.0] + [draws[min(a, star[a])] for a in range(1, r)])
    lam = rba.lam_float[np.ix_(p, p, p)] * t[:, None, None] * t[None, :, None] / t[None, None, :]
    expected = t * degree_map(rba, TOL).values_float[p]
    got = degree_map(RBA(lam, star), TOL)
    assert not got.exact
    assert abs(got.values / expected - 1).max() <= 1e-10


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_exact_degree_map_relabelled_and_rescaled(data):
    # the same with t_a = p/q: the degrees are proved, and are t_a delta_{p[a]} exactly
    rba = load_fixture(data.draw(st.sampled_from(["s3", "d8"])))
    r = rba.rank
    p = np.array([0] + data.draw(st.permutations(range(1, r))))
    star = np.argsort(p)[rba.star[p]]
    ratio = st.builds(Fraction, st.integers(1, 999), st.integers(1, 999))
    draws = data.draw(st.lists(ratio, min_size=r, max_size=r))
    t = np.array([Fraction(1)] + [draws[min(a, star[a])] for a in range(1, r)], dtype=object)
    lam = rba.lam[np.ix_(p, p, p)] * t[:, None, None] * t[None, :, None] / t[None, None, :]
    expected = t * degree_map(rba, TOL).values[p]
    got = degree_map(RBA(lam, star), TOL)
    assert got.exact
    assert list(got.values) == list(expected)


def test_degree_map_exact_s5_is_bounded():
    # the positive candidates of one eig are tested by one product with the
    # r^3 tensor, not one r^3 einsum per eigenvector
    rba = from_group(s_n_table(5))
    seconds = []
    for _ in range(3):  # the best of three: waking idle BLAS threads can cost ~1 s once
        start = time.process_time()
        dm = degree_map(rba, TOL)
        seconds.append(time.process_time() - start)
    assert min(seconds) <= 0.25
    assert dm.exact and dm.n == 120 and set(dm.values) == {1}


@pytest.mark.xfail(strict=True, reason="float degree map off by ~7e-10 relative: a = -16.000000034, 7 offenders")
def test_rescaled_d8_517_is_analysed_as_d8():
    # a relabelled D8 rescaled by t_i = t_{i*} in [0.5, 2], written by the
    # rank7_screen workload (seed 901, pass 4, input d8#517)
    report = analyze(RBA.from_file(Path(__file__).parent / "regress" / "d8_517.rba"), TOL).data
    assert report["overall_pass"]
    assert report["quaternion"]["a"] == -16


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

def test_standardize_fixed_point(s3_rba):
    dm = degree_map(s3_rba, TOL)
    again = standardize(s3_rba, dm)
    assert np.array_equal(again.lam, s3_rba.lam)


def test_standardize_round_trip(s3_rba):
    # rescale the nonreal pair by 3: lam[1,1*,0] becomes 9 while the degree
    # of the rescaled element is 3, so t = 1/3 restores the original tensor
    scale = [Fraction(1), Fraction(3), Fraction(3), Fraction(1), Fraction(1), Fraction(1)]
    rescaled = rescale(s3_rba, scale)
    assert rescaled.lam[1, 2, 0] == 9
    assert validate(rescaled, TOL).passed
    dm = degree_map(rescaled, TOL)
    assert dm.values[1] == Fraction(3)
    restored = standardize(rescaled, dm)
    assert np.array_equal(restored.lam, s3_rba.lam)


def _standardized(rba, dm):
    """lam[i,j,k] t_i t_j / t_k with t_i = delta_i / lam[i,i*,0], in Fractions."""
    lam = rba.lam
    t = [dm.values[i] / lam[i, rba.star[i], 0] for i in range(rba.rank)]
    out = np.empty(lam.shape, dtype=object)
    for i, j, k in itertools.product(range(rba.rank), repeat=3):
        out[i, j, k] = lam[i, j, k] * t[i] * t[j] / t[k]
    return out


def test_standardize_idempotent(s3_rba):
    # exact mode rescales the integer numerators; each result must match the
    # Fraction formula, hold D = lcm of its denominators, and be a fixed point
    one = Fraction(1)
    cases = [
        rescale(s3_rba, [one, Fraction(5, 2), Fraction(5, 2), Fraction(2), one, one]),
        rescale(s3_rba, [one, Fraction(2, 3), Fraction(2, 3), Fraction(5, 7), one, one]),
        rescale(s3_rba, [one] + [Fraction(3**10)] * 5),  # N past int64
    ] + [rank5_split_rba(seed) for seed in range(4)]
    for rba in cases:
        dm = degree_map(rba, TOL)
        assert dm.exact
        std = standardize(rba, dm)
        assert std.exact and np.array_equal(std.lam, _standardized(rba, dm))
        assert std.lam_int[0] == math.lcm(*(v.denominator for v in std.lam.flat))
        dm2 = degree_map(std, TOL)
        std2 = standardize(std, dm2)
        assert np.array_equal(std.lam, std2.lam)
        # the standard-basis property: lam[i,i*,0] equals the degree of the new basis
        for i in range(rba.rank):
            assert std.lam[i, std.star[i], 0] == dm2.values[i]


def test_to_standard_basis(s3_rba):
    dm, std, std_dm = to_standard_basis(s3_rba, TOL)
    assert std is s3_rba and std_dm is dm
    assert dm.exact and list(dm.values) == [1] * 6
    scale = [Fraction(1), Fraction(3), Fraction(3), Fraction(2), Fraction(1), Fraction(1)]
    rescaled = rescale(s3_rba, scale)
    dm2, std, std_dm = to_standard_basis(rescaled, TOL)
    assert std is not rescaled and std.exact
    assert list(dm2.values) == scale
    assert np.array_equal(std.lam, s3_rba.lam)
    assert list(std_dm.values) == list(dm.values)


@pytest.mark.parametrize("dtype", [np.int64, float])
def test_to_standard_basis_tolerance_is_relative(dtype, monkeypatch):
    # K_201 as a rank-2 scheme, b_1^2 = 200 (1 + eps) b_0 + 199 b_1. Exact input
    # has no tolerance: at eps = 0 its degrees are proved, and they make it
    # standard. A float lam[1,1,0] off by eps relative fails the diagonal check
    # (residual ~4e4 eps), and eig's delta_1 ~ 200 (1 + eps / 201) moves the
    # rescaled entries by ~4e-3 eps, noise at this scale, not a change of basis:
    # the input comes back as itself, up to eps = 3e-9, and is rescaled at 1e-8.
    def k201(eps):
        lam = np.zeros((2, 2, 2), dtype=dtype)
        lam[0, 0, 0] = lam[0, 1, 1] = lam[1, 0, 1] = 1
        lam[1, 1] = [200 * (1 + eps), 199]
        return RBA(lam, [0, 1])

    if dtype is np.int64:
        rba = k201(0)
        dm, std, std_dm = to_standard_basis(rba, TOL)
        assert std is rba and std_dm is dm
        assert dm.exact and list(dm.values) == [1, 200]
        return
    degree_map, calls = core.degree_map, []
    monkeypatch.setattr(core, "degree_map", lambda rba, tol: calls.append(rba) or degree_map(rba, tol))
    for eps in (1e-10, 1e-9, 3e-9):
        rba, calls[:] = k201(eps), []
        dm, std, std_dm = to_standard_basis(rba, TOL)
        assert calls == [rba] and std is rba and std_dm is dm and not dm.exact
        assert abs(dm.values_float - [1, 200]).max() < 1e-6
        assert standardize(rba, dm) is not rba  # standardize alone rescales it
    rba, calls[:] = k201(1e-8), []
    dm, std, std_dm = to_standard_basis(rba, TOL)
    assert calls == [rba, std] and std is not rba and std_dm is not dm
    assert std.lam_float[1, 1, 0] == pytest.approx(std_dm.values_float[1], rel=1e-12)


def test_standardize_rejects_bad_diagonal(s3_rba):
    lam = s3_rba.lam.copy()
    lam[1, 2, 0] = Fraction(-1)
    dm = degree_map(s3_rba, TOL)
    with pytest.raises(AxiomError):
        standardize(RBA(lam, s3_rba.star), dm)


def test_degree_map_unchanged_by_standardize(s3_rba, rank7_rba):
    for rba in (s3_rba, rank7_rba):
        dm = degree_map(rba, TOL)
        std = standardize(rba, dm)
        dm2 = degree_map(std, TOL)
        assert abs(dm2.values_float - dm.values_float).max() < 1e-8


# ---------------------------------------------------------------------------
# Gram matrix and trace
# ---------------------------------------------------------------------------

def test_gram_rank1(rank1_rba):
    dm = degree_map(rank1_rba, TOL)
    assert np.allclose(gram_matrix(rank1_rba, dm), [[1.0]])


def test_gram_s3(s3_rba):
    dm = degree_map(s3_rba, TOL)
    g = gram_matrix(s3_rba, dm)
    assert np.allclose(g, 6.0 * np.eye(6))


def test_gram_rank7(rank7_rba):
    dm = degree_map(rank7_rba, TOL)
    g = gram_matrix(rank7_rba, dm)
    assert abs(g - np.diag([13, 26, 26, 26, 26, 26, 26.0])).max() < 1e-8
    assert np.linalg.eigvalsh(g).min() > 0


def test_gram_refuses_a_trace_form_that_is_not_positive_definite():
    # b_1^2 = -b_0 with degrees (1, 1): tau(b_1 b_1*) = -2
    lam = np.zeros((2, 2, 2), dtype=int)
    lam[0, 0, 0] = lam[0, 1, 1] = lam[1, 0, 1] = 1
    lam[1, 1, 0] = -1
    dm = DegreeMap(np.array([Fraction(1), Fraction(1)], dtype=object), exact=True)
    with pytest.raises(AxiomError, match="trace form is not positive definite"):
        gram_matrix(RBA(lam, [0, 1]), dm)


def test_feasible_trace(s3_rba):
    # tau picks n times the b_0-coefficient, so tau(b_i b_j*) = n lam[i,j*,0]
    # is the Gram form: tau(b_0 b_0*) = n = 6, symmetric positive definite
    dm = degree_map(s3_rba, TOL)
    g = gram_matrix(s3_rba, dm)
    assert g[0, 0] == dm.n_float == 6.0
    assert np.allclose(g, g.T)
    assert np.linalg.eigvalsh(g).min() > 0


# ---------------------------------------------------------------------------
# snapping
# ---------------------------------------------------------------------------

def _snap_reference(x, eps):
    """snap_rational as Fraction.limit_denominator and the two guards."""
    if not math.isfinite(x):
        return None
    cand = Fraction(x).limit_denominator(10**6)
    err = abs(float(cand) - x)
    return None if err > eps or err > 1e-6 / cand.denominator**2 else cand


EPS = st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 10.0])


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(st.floats(allow_nan=False, allow_infinity=False), EPS)
def test_snap_rational_matches_limit_denominator(x, eps):
    assert snap_rational(x, eps) == _snap_reference(x, eps)


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(st.integers(-10**8, 10**8), st.integers(1, 10**6),
       st.sampled_from([0.0, 1e-15, -1e-12, 1e-9, 3e-7, 1e-4]), EPS)
def test_snap_rational_matches_limit_denominator_near_fractions(p, q, noise, eps):
    x = p / q + noise
    assert snap_rational(x, eps) == _snap_reference(x, eps)


def _snap_one(x, eps):
    """snap_value's answer for one value: the complex when |imag| > eps, else the
    real part snapped by snap_rational, or the real part when it does not snap."""
    z = complex(x)
    if abs(z.imag) > eps:
        return z
    snapped = snap_rational(z.real, eps)
    return z.real if snapped is None else snapped


def _typed(values):
    return [(type(v), repr(v)) for v in values]  # repr tells -0.0 from 0.0 and nan from nan


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_snap_value_on_an_array_is_the_scalar_route(data):
    eps = data.draw(EPS)
    # offsets at the edges of the one-pass integer window, min(eps, 5e-7), and around them
    edge = st.sampled_from([0.0, eps, 1e-6, 5e-7]).flatmap(
        lambda e: st.sampled_from([e, -e, e * (1 + 2**-30), -e * (1 - 2**-30)]))
    real = st.one_of(
        st.floats(),  # nan, inf, -0.0 and |x| >= 2^53 among them
        st.builds(lambda k, d: k + d, st.integers(-10**6, 10**6).map(float), edge),
        st.builds(lambda k, m, e: k + m / 2**e, st.integers(-99, 99), st.integers(-9, 9), st.integers(1, 40)),
        st.integers(-2**80, 2**80).map(float),
    )
    imag = st.one_of(st.sampled_from([0.0, -0.0, eps, -eps, eps * (1 + 2**-30), math.nan, math.inf]), st.floats())
    z = np.array(data.draw(st.lists(st.builds(complex, real, imag), min_size=1, max_size=12)))
    x = z.real if data.draw(st.booleans()) else z
    assert _typed(snap_value(x, eps)) == _typed(_snap_one(v, eps) for v in x.tolist())
    assert _typed(snap_value(x.reshape(1, -1), eps)[0]) == _typed(snap_value(x, eps))
    assert _typed([snap_value(x[0], eps)]) == _typed([_snap_one(x[0], eps)])


def test_snap_value_settles_integers_in_one_pass():
    # -0.0 and |x| >= 2^53 snap to integers; 1 - 1e-10 is within the window, 1 + 2^-20 is not
    x = np.array([-0.0, 2.0**60, 1 - 1e-10, 1 + 2**-20, 0.5, 0.25 + 1e-3j, math.nan])
    assert _typed(snap_value(x, 1e-6)) == _typed(
        [Fraction(0), Fraction(2**60), Fraction(1), 1 + 2**-20, Fraction(1, 2), 0.25 + 1e-3j, math.nan])
    assert snap_value(np.zeros((2, 0)), 1e-9) == [[], []]


def test_snap_rational():
    # a denominator already <= 10^6 is its own candidate
    assert snap_rational(0.5, 1e-9) == Fraction(1, 2)
    assert snap_rational(-0.0, 1e-9) == 0
    for x in (math.nan, math.inf, -math.inf):
        assert snap_rational(x, 1e-9) is None
    # the semiconvergent -29000001/10^6 beats the convergent -29, then fails the margin
    assert Fraction(-29.00000089134119).limit_denominator(10**6) == Fraction(-29000001, 10**6)
    assert snap_rational(-29.00000089134119, 1e-6) is None
    assert snap_rational(1.1555555555555554, 1e-9) == Fraction(52, 45)
    assert snap_rational(float(np.pi), 1e-12) is None
    # within 2e-9 of 1/3 but outside the 1e-9 window, and the next convergent
    # has denominator far above the 10^6 bound
    assert snap_rational(1.0 / 3.0 + 2e-9, 1e-9) is None
