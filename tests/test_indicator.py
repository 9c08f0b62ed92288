"""Frobenius-Schur indicators, the real-count identity, classifications."""

import numpy as np
import pytest

from rbakit.core import NumericalError, degree_map
from rbakit.decomp import Character, CharacterTable, character_table
from rbakit.indicator import (
    IndicatorReport,
    classify_one_pair,
    indicator_report,
    rank7_trichotomy,
)

from conftest import D8_CLASSICAL, RANK7_TABLE, S3_CLASSICAL, TOL


def _report(rba):
    dm = degree_map(rba, TOL)
    table = character_table(rba, dm, TOL)
    return dm, table, indicator_report(rba, dm, table, TOL)


ALL_FIXTURES = ["rank1_rba", "c2_rba", "c3_rba", "s3_rba", "d8_rba", "rank7_rba"]


@pytest.mark.parametrize("fixture", ALL_FIXTURES)
def test_delta_indicator_is_one(fixture, request):
    rba = request.getfixturevalue(fixture)
    _, table, report = _report(rba)
    assert report.nu[0] == 1  # forced by sum(delta_i) = n


@pytest.mark.parametrize("fixture", ALL_FIXTURES)
def test_real_count_identity(fixture, request):
    rba = request.getfixturevalue(fixture)
    _, table, report = _report(rba)
    assert report.consistent
    assert report.s_actual == rba.star_fixed_count()


@pytest.mark.parametrize("fixture", ALL_FIXTURES)
def test_nu_zero_iff_nonreal_row(fixture, request):
    rba = request.getfixturevalue(fixture)
    _, table, report = _report(rba)
    for char, nu in zip(table, report.nu):
        assert (nu == 0) == char.values_raw.imag.any()


@pytest.mark.parametrize("fixture", ALL_FIXTURES)
def test_gap_identity(fixture, request):
    # sum psi(b_0)^2 - sum nu(psi) psi(b_0) = r - s on snapped tables
    rba = request.getfixturevalue(fixture)
    _, table, report = _report(rba)
    lhs = sum(d * d for d in table.degrees()) - report.s_predicted
    assert lhs == rba.rank - report.s_actual


def test_indicator_report_refuses_a_raw_value_far_from_every_indicator(s3_rba):
    dm = degree_map(s3_rba, TOL)
    table = character_table(s3_rba, dm, TOL)
    table[1].values_raw = 1.5 * table[1].values_raw
    with pytest.raises(NumericalError, match="indicator out of range: raw value"):
        indicator_report(s3_rba, dm, table, TOL)


def test_s3_indicators(s3_rba):
    _, table, report = _report(s3_rba)
    assert report.nu == S3_CLASSICAL["nu"]
    assert report.s_actual == S3_CLASSICAL["s"]
    assert report.pattern == "all-plus"


def test_d8_indicators(d8_rba):
    _, table, report = _report(d8_rba)
    assert report.nu == D8_CLASSICAL["nu"]
    assert report.s_actual == D8_CLASSICAL["s"]


def test_c3_indicators(c3_rba):
    _, table, report = _report(c3_rba)
    assert sorted(report.nu) == [0, 0, 1]
    assert report.s_actual == 1
    assert report.pattern == "has-zero"


def test_rank7_indicators(rank7_rba):
    _, table, report = _report(rank7_rba)
    assert report.nu == RANK7_TABLE["nu"]
    assert report.s_predicted == 1 + 1 + 1 - 2 == RANK7_TABLE["s"]
    assert report.pattern == "has-minus"


def test_raw_values_close_to_snapped(s3_rba, d8_rba, rank7_rba):
    for rba in (s3_rba, d8_rba, rank7_rba):
        _, table, report = _report(rba)
        for raw, nu in zip(report.raw, report.nu):
            assert abs(raw - nu) < 1e-8


# ---------------------------------------------------------------------------
# one-nonreal-pair classification
# ---------------------------------------------------------------------------

def test_classify_s3(s3_rba):
    _, table, report = _report(s3_rba)
    verdict = classify_one_pair(s3_rba, table, report)
    assert verdict.passed
    assert verdict.chi.degree == 2
    assert tuple(verdict.chi.values) == (2, -1, -1, 0, 0, 0)


def test_classify_d8(d8_rba):
    _, table, report = _report(d8_rba)
    verdict = classify_one_pair(d8_rba, table, report)
    assert verdict.passed
    assert table.degrees() == [1, 1, 1, 1, 2]


def test_classify_rejects_rank7(rank7_rba):
    _, table, report = _report(rank7_rba)
    verdict = classify_one_pair(rank7_rba, table, report)
    assert not verdict.passed
    assert "3 nonreal pairs" in verdict.reason


def test_classify_rejects_commutative(c3_rba):
    # C3 has one nonreal pair but is commutative
    _, table, report = _report(c3_rba)
    verdict = classify_one_pair(c3_rba, table, report)
    assert not verdict.passed
    assert "commutative" in verdict.reason


def test_classify_rejects_no_pairs(c2_rba):
    _, table, report = _report(c2_rba)
    verdict = classify_one_pair(c2_rba, table, report)
    assert not verdict.passed
    assert "0 nonreal pairs" in verdict.reason


# ---------------------------------------------------------------------------
# rank-7 trichotomy
# ---------------------------------------------------------------------------

def test_trichotomy_rank7_example(rank7_rba):
    _, table, report = _report(rank7_rba)
    result = rank7_trichotomy(report)
    assert result.s_class == 1
    assert result.consistent


def test_trichotomy_patterns():
    def fake(nu, s):
        return IndicatorReport(nu=nu, raw=[complex(v) for v in nu],
                               s_predicted=s, s_actual=s, pattern="")

    assert rank7_trichotomy(fake([1, 0, 0, 1], 3)).s_class == 3
    assert rank7_trichotomy(fake([1, 1, 1, 1], 5)).s_class == 5
    assert rank7_trichotomy(fake([1, 1, 1, -1], 1)).s_class == 1
    mismatch = rank7_trichotomy(fake([1, 1, 1, -1], 5))
    assert not mismatch.consistent
    with pytest.raises(ValueError):
        rank7_trichotomy(fake([1, -1, -1, 1], 1))  # inadmissible pattern
    with pytest.raises(ValueError):
        rank7_trichotomy(fake([1, 1, 1], 3))       # wrong character count


@pytest.mark.parametrize("degrees, nu, reason", [
    ([1, 1, 2, 2], [1, 1, 1, 1], "2 characters of degree > 1 (contract requires exactly 1)"),
    ([1, 1, 3], [1, 1, 1], "large character has degree 3, not 2"),
    ([1, 1, 2], [1, 1, -1], "indicator pattern [1, 1, -1] is not all +1"),
])
def test_classify_one_pair_refusals(s3_rba, degrees, nu, reason):
    # no valid one-pair RBA reaches these reasons: stand-in records with S3's one pair
    table = CharacterTable([Character(d, np.zeros(6, complex), 1.0) for d in degrees], 6)
    report = IndicatorReport(nu=nu, raw=[complex(v) for v in nu], s_predicted=4, s_actual=4, pattern="")
    verdict = classify_one_pair(s3_rba, table, report)
    assert (verdict.passed, verdict.reason, verdict.chi) == (False, reason, None)
