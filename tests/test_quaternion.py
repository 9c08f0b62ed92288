"""Quaternions as 4x4 matrices, the symbol's generators, Hilbert symbols."""

import dataclasses
import json
import math
import re
import time
import types
from fractions import Fraction

import numpy as np
import pytest

from rbakit import quaternion
from rbakit.cli import main
from rbakit.core import RBA, NumericalError, degree_map
from rbakit.decomp import (
    character_table,
    rep_residual,
    star_rep_extract,
)
from rbakit.quaternion import RHO_STEPS, hilbert_places, hilbert_symbol, symbol
from rbakit.integrality import RANK7_IMAGES, _quaternion
from rbakit.report import analyze

from conftest import TOL, padic_norm_oracle, rank5_split_rba, rescale


def _deg2_rep(rba):
    dm = degree_map(rba, TOL)
    table = character_table(rba, dm, TOL)
    chi = table.degree_two()[0]
    rep = star_rep_extract(rba, dm, chi, TOL)
    return dm, table, chi, rep


def _symbol(rba):
    """symbol() of an RBA already in the standard basis, with its degree-2 character."""
    chi = character_table(rba, degree_map(rba, TOL), tol=TOL).degree_two()[0]
    return symbol(rba, chi, TOL)


# ---------------------------------------------------------------------------
# quaternions as 4x4 left-multiplication matrices
# ---------------------------------------------------------------------------

def _nrd(x):
    """Reduced norm of a left-multiplication matrix: L(q) L(q)^T = Nrd(q) I."""
    return (x @ x.T)[0, 0]


def _image(i):
    """X(b_i) of the rank-7 witness as the pair (P, Q) of Fraction matrices, X = P + Q sqrt5."""
    return tuple(x[i] * Fraction(1, 2) for x in RANK7_IMAGES)


def _times(x, y):
    """(P + Q sqrt5)(R + S sqrt5) = (PR + 5QS) + (PS + QR) sqrt5, on pairs of matrices."""
    (p, q), (r, s) = x, y
    return p @ r + 5 * (q @ s), p @ s + q @ r


def _conj(x):
    return tuple(m.T for m in x)


def _pair_nrd(x):
    """Reduced norm of a pair, as (rational part, sqrt5 coefficient)."""
    return tuple(m[0, 0] for m in _times(x, _conj(x)))


def _pair_trd(x):
    """Reduced trace (half the trace) of a pair, as (rational part, sqrt5 coefficient)."""
    return tuple(np.trace(m) / 2 for m in x)


def _float_images():
    a, b = RANK7_IMAGES
    return (a + b * np.sqrt(5.0)) / 2


def test_quaternion_units():
    one, i, j, k = (_quaternion(*row) for row in np.eye(4, dtype=int).tolist())
    assert (i @ i == -one).all()
    assert (j @ j == -one).all()
    assert (k @ k == -one).all()
    assert (i @ j == k).all()
    assert (j @ i == -k).all()
    assert (i @ j @ k == -one).all()
    assert (one @ i == i).all()


def test_quaternion_conjugation_and_norm():
    rng = np.random.default_rng(5)
    for _ in range(12):
        pc, qc = (
            [Fraction(int(v), 4) for v in rng.integers(-8, 9, 4)] for _ in range(2)
        )
        p, q = _quaternion(*pc), _quaternion(*qc)
        # the transpose is the conjugate, and q q* = Nrd(q)
        assert (q.T == _quaternion(qc[0], *(-c for c in qc[1:]))).all()
        assert (q @ q.T == np.eye(4, dtype=int) * _nrd(q)).all()
        assert _nrd(q) == sum(c * c for c in qc)
        # the norm is multiplicative, and L(p) L(q) = L(pq)
        pq = p @ q
        assert _nrd(pq) == _nrd(p) * _nrd(q)
        assert (pq == _quaternion(*pq[:, 0])).all()


def test_quaternion_exact_norm_product():
    # images of b_1 and b_2 in the rank-7 example: norm(X(b1) X(b2)) = 25/16
    x1, x2 = _image(1), _image(2)
    assert _pair_nrd(_times(x1, x2)) == (Fraction(25, 16), 0)
    assert _pair_nrd(x1) == _pair_nrd(x2) == (Fraction(5, 4), 0)
    # reduced trace of X(b1) X(b1)^T is 2 Nrd = 5/2
    assert _pair_trd(_times(x1, _conj(x1))) == (Fraction(5, 2), 0)


def test_rank7_image_char_polys():
    # X(b_3) = -1/2 + (sqrt5/2) k: reduced trace -1, norm 1/4 + 5/4 = 3/2
    assert _pair_trd(_image(5)) == (-1, 0)
    assert _pair_nrd(_image(5)) == (Fraction(3, 2), 0)
    # X(b_1): reduced trace 0, norm 5/4
    assert _pair_trd(_image(1)) == (0, 0)
    assert _pair_nrd(_image(1)) == (Fraction(5, 4), 0)


# ---------------------------------------------------------------------------
# pair basis and generators
# ---------------------------------------------------------------------------

def test_dc_change_of_basis(s3_rba, d8_rba, rank7_rba):
    # d = b_p - b_p* and c = b_p + b_p* come from the one nonreal pair
    assert _symbol(s3_rba).pair == (1, 2)
    assert _symbol(d8_rba).pair == (1, 3)
    with pytest.raises(ValueError, match="3 nonreal pairs"):
        _symbol(rank7_rba)


def test_x_generator_s3(s3_rba):
    dm, table, chi, rep = _deg2_rep(s3_rba)
    xd = rep[1] - rep[2]
    assert abs(xd @ xd + 3.0 * np.eye(2)).max() < 1e-8  # X(d)^2 = -3 I
    # x = m_chi d in the algebra: x^2 = a e with a = -n delta_p m_chi = -6*1*2
    assert symbol(s3_rba, chi, TOL).a_exact == -dm.n * dm.values[1] * chi.multiplicity == -12


def test_x_generator_d8(d8_rba):
    dm, table, chi, rep = _deg2_rep(d8_rba)
    xd = rep[1] - rep[3]
    assert abs(xd @ xd + 4.0 * np.eye(2)).max() < 1e-8  # X(d)^2 = -4 I
    assert symbol(d8_rba, chi, TOL).a_exact == -dm.n * dm.values[1] * chi.multiplicity == -16


def test_y_generator(s3_rba, d8_rba):
    # y = z - x z x / a from the first real z = e b_l that x does not commute with
    for rba, label in ((s3_rba, "3"), (d8_rba, "4")):
        sym = _symbol(rba)
        assert sym.beta_exact == 4  # reflections have eigenvalues +-1
        assert sym.y_label == label
        assert sym.anticommute_residual == 0.0  # x y = -y x, checked exactly
        # the float route computes the same generators within eps_residual
        sym = _symbol(RBA(rba.lam_float, rba.star))
        assert abs(sym.beta - 4.0) < 1e-8 and abs(sym.a - sym.a_exact) < 1e-8
        assert sym.y_label == label and sym.anticommute_residual < 1e-8
        assert (sym.field_mode, sym.verdict) == ("real-numeric", "real-split-only")


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("index, message", [
    ((0, 0, 0), "e^2 = e fails"),
    ((0, 3, 0), "e central fails"),
    ((3, 3, 0), "does not match the multiplicity"),
    ((3, 3, 1), "y^2 = beta e fails"),
])
def test_symbol_failure_paths(s3_rba, index, message, exact):
    # S3 from its Cayley table is in the standard basis, its pair is (1, 2) and
    # b_3 an involution; 1 added to one entry of N trips one identity, exactly
    # or within the float tolerance
    chi = character_table(s3_rba, degree_map(s3_rba, TOL), tol=TOL).degree_two()[0]
    lam = s3_rba.lam_int[1].copy()
    lam[index] += 1
    rba = RBA(lam if exact else lam.astype(float), s3_rba.star)
    assert rba.exact == exact
    with pytest.raises(NumericalError, match=re.escape(message)):
        symbol(rba, chi, TOL)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_symbol_rejects_a_character_of_another_multiplicity(s3_rba, exact):
    rba = s3_rba if exact else RBA(s3_rba.lam_float, s3_rba.star)
    chi = character_table(rba, degree_map(rba, TOL), tol=TOL).degree_two()[0]
    off = dataclasses.replace(chi, multiplicity_raw=chi.multiplicity_raw + 1)
    message = f"m_chi = 2.0 does not match the multiplicity {off.multiplicity_raw}"
    with pytest.raises(NumericalError, match=re.escape(message)):
        symbol(rba, off, TOL)


def test_traceless_symmetric_anticommutes_antisymmetric():
    rng = np.random.default_rng(3)
    for _ in range(100):
        alpha = rng.uniform(-3, 3)
        x = np.array([[0.0, alpha], [-alpha, 0.0]])
        r, s = rng.uniform(-3, 3, 2)
        y = np.array([[r, s], [s, -r]])
        assert abs(x @ y + y @ x).max() < 1e-12
        # antisymmetric squares are non-positive scalars
        sq = x @ x
        assert sq[0, 0] <= 0 and abs(sq[0, 1]) < 1e-12


# ---------------------------------------------------------------------------
# the symbol pipeline
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture,a_expected", [("s3_rba", -12), ("d8_rba", -16)])
def test_symbol_split(fixture, a_expected, request):
    rba = request.getfixturevalue(fixture)
    sym = _symbol(rba)
    assert sym.a_exact == a_expected
    assert sym.beta_exact == 4
    assert sym.beta > 0
    assert sym.field_mode == "rational"
    assert sym.verdict == "split"
    assert all(v == 1 for v in sym.local_symbols.values())
    assert sym.anticommute_residual < 1e-8


@pytest.mark.parametrize("fixture,a_expected", [("s3_rba", -12), ("d8_rba", -16)])
def test_symbol_standardizes_the_basis_first(fixture, a_expected, request, tmp_path, capsys):
    # b_i' = t_i b_i with distinct t_i = t_{i*} > 0 is the same algebra in a
    # non-standard basis: analyze, and `rbakit quaternion` through it,
    # standardize it first
    rba = request.getfixturevalue(fixture)
    t = [Fraction(1)] + [Fraction(min(i, int(rba.star[i])) + 2, 2) for i in range(1, rba.rank)]
    rba = rescale(rba, t)
    report = analyze(rba, TOL).data
    assert report["rba"]["standard_basis"] is False
    q = report["quaternion"]
    assert (q["a"], q["beta"], q["verdict"]) == (str(a_expected), "4", "split")

    path = tmp_path / "rescaled.rba"
    path.write_text(rba.to_text())
    assert main(["quaternion", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["a"], payload["beta"], payload["verdict"]) == (q["a"], q["beta"], q["verdict"])


def test_symbol_rejects_rank7(rank7_rba):
    with pytest.raises(ValueError, match="nonreal pairs"):
        _symbol(rank7_rba)


@pytest.mark.parametrize("seed", range(24))
def test_rank5_one_pair_algebra_is_split(seed, tmp_path, capsys):
    # the main theorem on rational Q + M_2(Q) with one nonreal pair: the
    # degree-2 component is split over Q, decided exactly
    rba = rank5_split_rba(seed)
    q = analyze(rba, TOL).data["quaternion"]
    assert (q["field_mode"], q["verdict"]) == ("rational", "split")
    assert q["anticommute_residual"] == 0.0
    path = tmp_path / "rank5.rba"
    path.write_text(rba.to_text())
    assert main(["quaternion", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["field_mode"], payload["verdict"]) == ("rational", "split")
    assert (payload["a"], payload["beta"]) == (q["a"], q["beta"])


# ---------------------------------------------------------------------------
# Hilbert symbols
# ---------------------------------------------------------------------------

def test_hilbert_one_is_always_split():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = Fraction(int(rng.integers(-50, 51)) or 1, int(rng.integers(1, 30)))
        for p in (2, 3, 5, 7, "inf"):
            assert hilbert_symbol(a, 1, p) == 1


def test_hilbert_minus_one_pair():
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, "inf") == -1
    for p in (3, 5, 7, 11, 13):
        assert hilbert_symbol(-1, -1, p) == 1
    places = hilbert_places(-1, -1)
    assert places == {2: -1, "inf": -1}


def test_hilbert_square_argument():
    for p in (2, 3, 5, 7, "inf"):
        assert hilbert_symbol(-3, 4, p) == 1  # 4 is a square


def test_hilbert_known_values():
    # (2,3)_2 = -1 (3 is not +-1 mod 8); (3,5)_p: -1 exactly at 3 and 5
    assert hilbert_symbol(2, 3, 2) == -1
    assert hilbert_symbol(2, 3, 3) == -1
    assert hilbert_symbol(2, 3, "inf") == 1
    assert hilbert_symbol(5, 5, 5) == hilbert_symbol(5, -1, 5)  # (5,5) ~ (5,-1) mod squares


def test_hilbert_errors():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 2)
    with pytest.raises(ValueError):
        hilbert_symbol(2, 3, 4)  # 4 is not a prime


def test_hilbert_product_formula_seeded():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = Fraction(int(rng.integers(-60, 61)) or 5, int(rng.integers(1, 40)))
        b = Fraction(int(rng.integers(-60, 61)) or 7, int(rng.integers(1, 40)))
        places = hilbert_places(a, b)
        prod = 1
        for v in places.values():
            prod *= v
        assert prod == 1


def test_hilbert_places_large_primes():
    # (10^11 + 3)(10^11 + 19): trial division would take ~10^5.5 steps per
    # prime test and 5 * 10^10 to factor
    start = time.process_time()
    places = hilbert_places(-1, 10000000002200000000057)
    assert places == {2: 1, 100000000003: -1, 100000000019: -1, "inf": 1}
    assert time.process_time() - start < 5.0


def test_symbol_off_standard_by_1e_10(s3_rba):
    # the pair scaled by 1 + 10^-10 stays within eps_residual of standard, so
    # the symbol's a has a 61-digit numerator with the factor 2723957777^2
    s = 1 + Fraction(1, 10**10)
    start = time.process_time()
    quaternion = analyze(rescale(s3_rba, [1, s, s, 1, 1, 1]), TOL).data["quaternion"]
    assert (quaternion["verdict"], quaternion["field_mode"]) == ("split", "rational")
    assert quaternion["local_symbols"]["2723957777"] == 1
    assert time.process_time() - start < 5.0


def test_symbol_off_standard_by_1e_9_is_refused_within_the_rho_budget(s3_rba):
    # a's cofactor is a product of two primes that RHO_STEPS cannot separate
    s = 1 + Fraction(1, 10**9)
    start = time.process_time()
    quaternion = analyze(rescale(s3_rba, [1, s, s, 1, 1, 1]), TOL).data["quaternion"]
    assert quaternion["status"].startswith("failed: no factor of a ")
    assert quaternion["status"].endswith(f"-digit cofactor in {RHO_STEPS} rho steps")
    assert time.process_time() - start < 10.0


def test_factoring_spends_one_rho_budget_over_all_its_cofactors(monkeypatch):
    # each of the 7 splits of 8 primes above 10^11 fits one budget; together they do not
    primes = [100000000003, 100000000019, 100000000057, 100000000063,
              100000000069, 100000000073, 100000000091, 100000000103]
    steps = 0

    def gcd(a, b):
        nonlocal steps
        steps += 1
        return math.gcd(a, b)

    monkeypatch.setattr(quaternion, "math", types.SimpleNamespace(gcd=gcd, inf=math.inf))
    with pytest.raises(NumericalError, match="rho steps$"):
        hilbert_places(-1, math.prod(primes))
    assert steps == RHO_STEPS


def test_hilbert_agrees_with_norm_equation_oracle():
    rng = np.random.default_rng(29)
    for _ in range(60):
        a = Fraction(int(rng.integers(-40, 41)) or 3, int(rng.integers(1, 20)))
        b = Fraction(int(rng.integers(-40, 41)) or -3, int(rng.integers(1, 20)))
        for p in (2, 3, 5, 7, "inf"):
            assert hilbert_symbol(a, b, p) == padic_norm_oracle(a, b, p), (a, b, p)


# ---------------------------------------------------------------------------
# quaternion-valued representation checking
# ---------------------------------------------------------------------------

def test_quaternion_verify_rank7(rank7_rba):
    dm = degree_map(rank7_rba, TOL)
    table = character_table(rank7_rba, dm, TOL)
    images = _float_images()
    product, star = rep_residual(rank7_rba, images)
    assert product < 1e-12
    assert star == 0.0
    # reduced traces (half the 4x4 traces) match the degree-2 character row
    chi = table.degree_two()[0]
    assert abs(np.einsum("iaa->i", images) / 2 - chi.values_raw.real).max() < 1e-9


def test_quaternion_verify_detects_broken_star(rank7_rba):
    images = _float_images()
    images[[1, 2]] = images[[2, 1]]  # break the pairing
    product, star = rep_residual(rank7_rba, images)
    assert product > 0.1


def test_quaternion_verify_identity_image(rank7_rba):
    images = _float_images()
    assert np.array_equal(images[0], np.eye(4))  # X(b_0) = 1
    # the images span the quaternions
    assert np.linalg.matrix_rank(images.reshape(7, 16), tol=TOL.eps_cluster) == 4
