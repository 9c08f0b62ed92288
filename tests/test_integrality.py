"""Q(sqrt5) arithmetic, the rank-7 reconstruction, 2-adic obstruction."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from rbakit.core import RBA, degree_map, validate
from rbakit.decomp import central_idempotents, character_table
from rbakit.integrality import (
    RANK7_IMAGES,
    Sqrt5,
    SQRT5,
    integral_check,
    rank7_exact_data,
    row_sum_relation_holds,
    two_adic_obstruction,
    two_adic_valuation,
)

from conftest import RANK7_TABLE, TOL


# ---------------------------------------------------------------------------
# Q(sqrt 5)
# ---------------------------------------------------------------------------

def test_sqrt5_arithmetic():
    x = Sqrt5(Fraction(1, 2), Fraction(3, 2))
    y = Sqrt5(Fraction(-2), Fraction(1, 3))
    assert (x + y) - y == x
    assert x * y == y * x
    assert (x / y) * y == x
    assert SQRT5 * SQRT5 == Sqrt5(Fraction(5))
    assert float(SQRT5) == pytest.approx(np.sqrt(5.0))
    with pytest.raises(ZeroDivisionError):
        x / Sqrt5()
    # an operand Fraction() cannot take is left to its own type: numpy broadcasts
    eye = np.eye(4, dtype=int)
    assert (x * eye == eye * x).all() and (x * eye)[0, 0] == x and (x + eye)[0, 1] == x
    assert (x == eye).shape == (4, 4) and x != "x"


def test_sqrt5_algebraic_integers():
    golden = Sqrt5(Fraction(1, 2), Fraction(1, 2))  # (1 + sqrt5)/2
    assert golden.is_algebraic_integer()
    assert Sqrt5(Fraction(3), Fraction(-2)).is_algebraic_integer()
    assert not Sqrt5(Fraction(0), Fraction(1, 4)).is_algebraic_integer()  # sqrt5/4
    assert not Sqrt5(Fraction(1, 2), Fraction(0)).is_algebraic_integer()


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


def test_rank7_exact_axioms(exact_data):
    lam = exact_data["lam"]
    star = exact_data["star"]
    delta = exact_data["delta"]
    zero = Sqrt5()
    for j, k in itertools.product(range(7), repeat=2):
        assert lam[0, j, k] == (1 if j == k else zero)
        assert lam[j, 0, k] == (1 if j == k else zero)
    for i, j, k in itertools.product(range(7), repeat=3):
        assert lam[i, j, k] == lam[star[j], star[i], star[k]]
    for i, j in itertools.product(range(7), repeat=2):
        if j == star[i]:
            assert lam[i, j, 0] == delta[i]
        else:
            assert lam[i, j, 0] == zero
    # associativity, exactly over Q(sqrt 5)
    for i, j, k, l in itertools.product(range(7), repeat=4):
        lhs = sum((lam[i, j, m] * lam[m, k, l] for m in range(7)), zero)
        rhs = sum((lam[j, k, m] * lam[i, m, l] for m in range(7)), zero)
        assert lhs == rhs
    # degree homomorphism
    for i, j in itertools.product(range(7), repeat=2):
        acc = sum((lam[i, j, k] * delta[k] for k in range(7)), zero)
        assert acc == delta[i] * delta[j]


def test_rank7_field_of_definition(exact_data):
    # exactly 48 entries are +-sqrt(5)/4: the tensor is NOT rational
    lam = exact_data["lam"]
    irrational = {ijk: v for ijk, v in lam.items() if not v.is_rational}
    assert len(irrational) == 48
    quarter = Fraction(1, 4)
    assert all(v.rational == 0 and abs(v.coef) == quarter for v in irrational.values())


def test_rank7_frozen_entries(exact_data):
    lam = exact_data["lam"]
    assert lam[1, 2, 0] == Fraction(2)         # b_0-coefficient of b_1 b_1* = delta_1
    assert lam[1, 1, 0] == Sqrt5()
    assert lam[1, 1, 2] == Fraction(-1, 4)
    assert lam[1, 2, 5] == Fraction(3, 4)
    assert lam[5, 5, 5] == Fraction(1, 2)
    assert lam[5, 5, 6] == Fraction(3, 2)
    assert lam[1, 3, 5] == Sqrt5(Fraction(0), Fraction(1, 4))
    assert lam[1, 3, 6] == Sqrt5(Fraction(0), Fraction(-1, 4))


def test_rank7_not_algebraic_integral(exact_data):
    bad = [v for v in exact_data["lam"].values() if not v.is_algebraic_integer()]
    assert len(bad) == 120


def test_rank7_chi_row(exact_data):
    assert exact_data["chi"] == tuple(RANK7_TABLE["chi"])


def test_rank7_images_represent_the_tensor(exact_data):
    # X_i X_j = sum_k lam[i,j,k] X_k and X_{i*} = X_i^T, exactly over Q(sqrt 5)
    x = RANK7_IMAGES
    lam = exact_data["lam"]
    for i, j in itertools.product(range(7), repeat=2):
        assert (x[i] @ x[j] == sum(x[k] * lam[i, j, k] for k in range(7))).all(), (i, j)
    assert (x[list(exact_data["star"])] == x.transpose(0, 2, 1)).all()


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
    table = character_table(rank7_rba, dm, central_idempotents(rank7_rba, TOL), TOL)
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


def test_integral_check_rank7(rank7_rba):
    result = integral_check(rank7_rba)
    assert not result.integral
    assert result.offenders
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
    table = character_table(rank7_rba, dm, central_idempotents(rank7_rba, TOL), TOL)
    report = two_adic_obstruction(table)
    assert report.obstructed
    assert len(report.rows) == 2
    phi_row, psi_row = report.rows
    assert phi_row.values == (Fraction(-5, 2), Fraction(0), Fraction(2))
    assert phi_row.relation_holds
    assert phi_row.phi3_formula_value == Fraction(2)
    assert phi_row.valuations[0] == -1  # v_2(-5/2)
    assert psi_row.values == (Fraction(2), Fraction(-9, 2), Fraction(2))
    assert psi_row.valuations[1] == -1  # v_2(-9/2)


def test_two_adic_requires_shape(s3_rba):
    dm = degree_map(s3_rba, TOL)
    table = character_table(s3_rba, dm, central_idempotents(s3_rba, TOL), TOL)
    with pytest.raises(ValueError):
        two_adic_obstruction(table)
