"""Q(sqrt5) integrality, the rank-7 reconstruction, 2-adic obstruction."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from rbakit.core import RBA, degree_map, over_common_denominator, validate
from rbakit.decomp import CharacterTable, character_table
from rbakit.integrality import (
    RANK7_IMAGES,
    integral_check,
    is_algebraic_integer,
    rank7_exact_data,
    row_sum_relation_holds,
    two_adic_obstruction,
    two_adic_valuation,
)

from conftest import RANK7_TABLE, TOL


# ---------------------------------------------------------------------------
# Q(sqrt 5)
# ---------------------------------------------------------------------------

def test_sqrt5_algebraic_integers():
    # (1 + sqrt5)/2 and 3 - 2 sqrt5 are integral; sqrt5/4 and 1/2 are not
    rational = [Fraction(1, 2), Fraction(3), Fraction(0), Fraction(1, 2)]
    coef = [Fraction(1, 2), Fraction(-2), Fraction(1, 4), Fraction(0)]
    assert is_algebraic_integer(rational, coef).tolist() == [True, True, False, False]
    assert is_algebraic_integer(Fraction(1, 2), Fraction(1, 2))


def test_two_adic_valuation():
    assert two_adic_valuation(Fraction(8)) == 3
    assert two_adic_valuation(Fraction(-5, 2)) == -1
    assert two_adic_valuation(Fraction(3)) == 0
    assert two_adic_valuation(Fraction(0)) == float("inf")
    assert two_adic_valuation(Fraction(12, 20)) == 0


# ---------------------------------------------------------------------------
# the rank-7 reconstruction
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def exact_data():
    return rank7_exact_data()


@pytest.fixture(scope="module")
def lam_pair(exact_data):
    """(D, (R, C)): lam = (R + C sqrt5) / D with int64 R, C over one denominator."""
    d, n = over_common_denominator(np.stack(exact_data["lam"]))
    return d, tuple(n.astype(np.int64))


def _pair_einsum(spec, x, y):
    """einsum of two pairs (R, C) standing for R + C sqrt5, as the pair of the result:
    (R1 + C1 sqrt5)(R2 + C2 sqrt5) = (R1 R2 + 5 C1 C2) + (R1 C2 + C1 R2) sqrt5."""
    (r1, c1), (r2, c2) = x, y
    return (np.einsum(spec, r1, r2) + 5 * np.einsum(spec, c1, c2),
            np.einsum(spec, r1, c2) + np.einsum(spec, c1, r2))


def test_rank7_exact_axioms(exact_data, lam_pair):
    d, (rat, coef) = lam_pair
    star = list(exact_data["star"])
    delta = np.array(exact_data["delta"], dtype=np.int64)
    for part, one in ((rat, d), (coef, 0)):  # the rational part, then the sqrt5 coefficient
        # identity, then b_0-coefficients: lam[i,j,0] = delta_i iff j = i*
        eye = one * np.eye(7, dtype=np.int64)
        pseudo = np.zeros((7, 7), dtype=np.int64)
        pseudo[range(7), star] = one * delta
        assert np.array_equal(part[0], eye) and np.array_equal(part[:, 0], eye)
        assert np.array_equal(part[:, :, 0], pseudo)
        # anti-automorphism: lam[i,j,k] = lam[j*,i*,k*]
        assert np.array_equal(part, part[np.ix_(star, star, star)].transpose(1, 0, 2))
    # associativity, exactly over Q(sqrt 5)
    lhs = _pair_einsum("ijm,mkl->ijkl", lam_pair[1], lam_pair[1])
    rhs = _pair_einsum("jkm,iml->ijkl", lam_pair[1], lam_pair[1])
    assert all(np.array_equal(x, y) for x, y in zip(lhs, rhs))
    # degree homomorphism: sum_k lam[i,j,k] delta_k = delta_i delta_j
    assert np.array_equal(rat @ delta, d * np.outer(delta, delta))
    assert not (coef @ delta).any()


def test_rank7_field_of_definition(exact_data):
    # exactly 48 entries are +-sqrt(5)/4: the tensor is NOT rational
    rational, coef = exact_data["lam"]
    irrational = coef != 0
    assert irrational.sum() == 48
    assert (rational[irrational] == 0).all() and (abs(coef[irrational]) == Fraction(1, 4)).all()


def test_rank7_frozen_entries(exact_data):
    rational, coef = exact_data["lam"]

    def lam(*ijk):
        return rational[ijk], coef[ijk]

    assert lam(1, 2, 0) == (2, 0)                 # b_0-coefficient of b_1 b_1* = delta_1
    assert lam(1, 1, 0) == (0, 0)
    assert lam(1, 1, 2) == (Fraction(-1, 4), 0)
    assert lam(1, 2, 5) == (Fraction(3, 4), 0)
    assert lam(5, 5, 5) == (Fraction(1, 2), 0)
    assert lam(5, 5, 6) == (Fraction(3, 2), 0)
    assert lam(1, 3, 5) == (0, Fraction(1, 4))
    assert lam(1, 3, 6) == (0, Fraction(-1, 4))


def test_rank7_not_algebraic_integral(exact_data):
    assert (~is_algebraic_integer(*exact_data["lam"])).sum() == 120


def test_rank7_chi_row(exact_data):
    assert exact_data["chi"] == tuple(RANK7_TABLE["chi"])


def test_rank7_images_represent_the_tensor(exact_data, lam_pair):
    # X_i X_j = sum_k lam[i,j,k] X_k and X_{i*} = X_i^T, exactly over Q(sqrt 5):
    # with 2 X = A + B sqrt5 and lam = L / D, X_i X_j = P / 4 and
    # sum_k lam[i,j,k] X_k = S / (2 D) for the pairs P and S below, so D P = 2 S
    d, lam = lam_pair
    products = _pair_einsum("iab,jbc->ijac", RANK7_IMAGES, RANK7_IMAGES)
    sums = _pair_einsum("ijk,kab->ijab", lam, RANK7_IMAGES)
    assert all(np.array_equal(d * p, 2 * s) for p, s in zip(products, sums))
    star = list(exact_data["star"])
    assert all(np.array_equal(x[star], x.transpose(0, 2, 1)) for x in RANK7_IMAGES)


def test_build_rank7_example(rank7_rba):
    assert rank7_rba.rank == 7
    assert not rank7_rba.exact
    assert rank7_rba.star_fixed_count() == 1
    assert validate(rank7_rba, TOL).passed
    dm = degree_map(rank7_rba, TOL)
    assert abs(dm.n_float - 13.0) < 1e-8


def test_rank7_full_pipeline_round_trip(rank7_rba):
    # the whole table comes back exactly after snapping
    dm = degree_map(rank7_rba, TOL)
    table = character_table(rank7_rba, dm, TOL)
    assert table.multiplicities() == RANK7_TABLE["multiplicities"]
    assert tuple(table[1].values) == RANK7_TABLE["phi"]
    assert tuple(table[2].values) == RANK7_TABLE["psi"]
    assert tuple(table[3].values) == RANK7_TABLE["chi"]


# ---------------------------------------------------------------------------
# integral_check
# ---------------------------------------------------------------------------

def test_integral_check_groups(s3_rba, d8_rba, c2_rba):
    for rba in (s3_rba, d8_rba, c2_rba):
        assert integral_check(rba)


def test_integral_check_rank7(rank7_rba, exact_data):
    result = integral_check(rank7_rba)
    assert not result.integral
    # every entry that is not an integer counts, not only the 8 listed: here
    # they are the 120 entries that are not algebraic integers over Q(sqrt 5)
    assert result.count == 120 == (~is_algebraic_integer(*exact_data["lam"])).sum()
    assert len(result.offenders) == 8
    assert [o[:3] for o in result.offenders] == sorted(o[:3] for o in result.offenders)
    i, j, k, v = result.offenders[0]
    assert abs(v - round(v)) > 0.2  # e.g. -1/4 or sqrt5/4


def test_integral_check_scaled(s3_rba):
    # rescaling a basis element by 1/2 forces non-integral entries
    scale = [Fraction(1), Fraction(1, 2), Fraction(1, 2),
             Fraction(1), Fraction(1), Fraction(1)]
    lam = s3_rba.lam.copy()
    for i, j, k in itertools.product(range(6), repeat=3):
        lam[i, j, k] = s3_rba.lam[i, j, k] * scale[i] * scale[j] / scale[k]
    assert not integral_check(RBA(lam, s3_rba.star))


def test_integral_check_float_mode(rank7_rba):
    # float path agrees with the exact path on an integral tensor
    s3f = RBA(np.eye(1).reshape(1, 1, 1), [0])
    assert integral_check(s3f)


# ---------------------------------------------------------------------------
# 2-adic obstruction
# ---------------------------------------------------------------------------

def test_row_sum_relation():
    assert row_sum_relation_holds(Fraction(-5, 2), 0, 2)
    assert row_sum_relation_holds(2, Fraction(-9, 2), 2)
    assert not row_sum_relation_holds(1, 1, 1)


def test_parity_exhaustion():
    # no integer triple can satisfy the relation: 1 + 2(a+b+c) is odd
    rng = np.random.default_rng(41)
    for _ in range(10_000):
        a, b, c = (int(v) for v in rng.integers(-50, 51, 3))
        assert not row_sum_relation_holds(a, b, c)


def test_two_adic_obstruction_rank7(rank7_rba):
    dm = degree_map(rank7_rba, TOL)
    table = character_table(rank7_rba, dm, TOL)
    report = two_adic_obstruction(rank7_rba, table)
    assert report.obstructed
    assert len(report.rows) == 2
    phi_row, psi_row = report.rows
    assert phi_row.values == (Fraction(-5, 2), Fraction(0), Fraction(2))
    assert phi_row.relation_holds
    assert phi_row.phi3_formula_value == Fraction(2)
    assert phi_row.valuations[0] == -1  # v_2(-5/2)
    assert psi_row.values == (Fraction(2), Fraction(-9, 2), Fraction(2))
    assert psi_row.valuations[1] == -1  # v_2(-9/2)


def test_two_adic_rows_follow_the_basis_pairs(rank7_rba):
    # b'_a = b_{p[a]}: the pairs become (1, 4), (2, 5), (3, 6), and psi = 2 on
    # the first two, so grouping equal values would pair b'_1 with b'_2
    p = np.array([0, 1, 5, 3, 2, 6, 4])
    star = np.argsort(p)[rank7_rba.star[p]]
    rba = RBA(rank7_rba.lam_float[np.ix_(p, p, p)], star)
    assert rba.nonreal_pairs() == [(1, 4), (2, 5), (3, 6)]
    table = character_table(rba, degree_map(rba, TOL), TOL)
    report = two_adic_obstruction(rba, table)
    assert report.obstructed
    assert [row.values for row in report.rows] == [
        (Fraction(-5, 2), Fraction(2), Fraction(0)),  # phi
        (Fraction(2), Fraction(2), Fraction(-9, 2)),  # psi
    ]
    for row, char in zip(report.rows, table.characters[1:3]):
        assert row.values == tuple(char.values[i] for i, _ in rba.nonreal_pairs())


def test_two_adic_refuses_a_character_that_differs_on_a_pair(rank7_rba):
    table = character_table(rank7_rba, degree_map(rank7_rba, TOL), TOL)
    table[1].values[2] += 1  # phi(b_1*) != phi(b_1)
    with pytest.raises(ValueError, match=r"differs on the nonreal pair \(1, 2\)"):
        two_adic_obstruction(rank7_rba, table)


def test_two_adic_requires_shape(s3_rba):
    dm = degree_map(s3_rba, TOL)
    table = character_table(s3_rba, dm, TOL)
    with pytest.raises(ValueError):
        two_adic_obstruction(s3_rba, table)


def test_two_adic_refuses_a_star_that_fixes_every_element(rank7_rba):
    table = character_table(rank7_rba, degree_map(rank7_rba, TOL), TOL)
    fixed = RBA(rank7_rba.lam, np.arange(7))  # no nonreal pair; only nonreal_pairs is read
    with pytest.raises(ValueError, match="^expected a rank-7 table with three nonreal pairs$"):
        two_adic_obstruction(fixed, table)


def test_two_adic_refuses_a_linear_row_of_floats(rank7_rba):
    table = character_table(rank7_rba, degree_map(rank7_rba, TOL), TOL)
    chars = list(table)
    chars[1] = dataclasses.replace(chars[1], values=[float(v) for v in chars[1].values])
    with pytest.raises(ValueError, match="^obstruction check requires rational table values$"):
        two_adic_obstruction(rank7_rba, CharacterTable(chars, table.order))
