"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from rbakit.cli import main as cli_main
from rbakit.core import RBA, degree_map, validate
from rbakit.decomp import (
    averaging_matrix,
    character_table,
    rep_residual,
    star_rep_extract,
    symmetrize,
)
from rbakit.indicator import classify_one_pair, indicator_report
from rbakit.ingest import from_group, from_scheme, thin_scheme
from rbakit.integrality import integral_check, row_sum_relation_holds
from rbakit.quaternion import hilbert_places, hilbert_symbol, symbol

from conftest import (
    RANK7_TABLE,
    TOL,
    padic_norm_oracle,
    s3_table,
    two_dim_s3_star_rep,
)


def _verdict(name: str, checks):
    ok = all(bool(v) for _, v in checks)
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    if not ok:
        for label, v in checks:
            if not v:
                print(f"        failed: {label}")
    assert ok, [label for label, v in checks if not v]


def _full_pipeline(rba):
    dm = degree_map(rba, TOL)
    table = character_table(rba, dm, TOL)
    report = indicator_report(rba, dm, table, TOL)
    return dm, table, report


def test_criterion_1_rank7_reproduction(capsys):
    with capsys.disabled():
        t0 = time.perf_counter()
        code = cli_main(["example", "rank7", "--out", "/tmp/rbakit_accept_rank7.rba"])
        rba = RBA.from_file("/tmp/rbakit_accept_rank7.rba")
        dm, table, report = _full_pipeline(rba)
        elapsed = time.perf_counter() - t0
        checks = [
            ("example subcommand runs", code == 0),
            ("degrees (1,1,1,2)", table.degrees() == [1, 1, 1, 2]),
            (
                "multiplicities (1, 52/45, 4/9, 26/5) exactly",
                table.multiplicities()
                == [Fraction(1), Fraction(52, 45), Fraction(4, 9), Fraction(26, 5)],
            ),
            (
                "chi row (2,0,0,0,0,-1,-1) exactly",
                tuple(table[3].values) == RANK7_TABLE["chi"],
            ),
            ("nu = (1,1,1,-1)", report.nu == [1, 1, 1, -1]),
            ("s = 1", report.s_actual == 1 and report.s_predicted == 1),
            ("n = 13 within 1e-8", abs(dm.n_float - 13.0) < 1e-8),
            (
                "float-mode residual of table values < 1e-8",
                max(
                    abs(np.array([float(v) for v in c.values]) - c.values_raw.real).max()
                    for c in table
                )
                < 1e-8,
            ),
            ("runtime < 1 s", elapsed < 1.0),
        ]
        _verdict("criterion 1: rank-7 table reproduction", checks)


@pytest.mark.parametrize(
    "fixture,xd_square,a_expected",
    [("s3_rba", -3.0, -12), ("d8_rba", -4.0, -16)],
)
def test_criterion_2_main_theorem(fixture, xd_square, a_expected, request, capsys):
    rba = request.getfixturevalue(fixture)
    with capsys.disabled():
        t0 = time.perf_counter()
        dm, table, report = _full_pipeline(rba)
        chi = classify_one_pair(rba, table, report).chi
        rep = star_rep_extract(rba, dm, chi, TOL)
        p, ps = rba.nonreal_pairs()[0]
        xd = rep[p] - rep[ps]
        sym = symbol(rba, chi, TOL)
        elapsed = time.perf_counter() - t0
        closed_form = -dm.n * dm.values[p] * chi.multiplicity
        checks = [
            (
                f"X(d)^2 = {xd_square} I",
                abs(xd @ xd - xd_square * np.eye(2)).max() < 1e-8,
            ),
            ("x^2 = a e with a = -n delta_p m_chi",
             sym.a_exact == closed_form == a_expected),
            ("beta > 0", sym.beta_exact > 0),
            ("x y = -y x exactly", sym.anticommute_residual == 0.0),
            ("Q-split verdict (all Hilbert symbols +1)",
             sym.verdict == "split" and all(v == 1 for v in sym.local_symbols.values())),
            ("runtime < 1 s", elapsed < 1.0),
        ]
        _verdict(f"criterion 2: main theorem on {fixture[:-4]}", checks)


def test_criterion_3_symmetrization(s3_rba, capsys):
    with capsys.disabled():
        dm = degree_map(s3_rba, TOL)
        two = two_dim_s3_star_rep()
        one = np.ones((6, 1, 1))
        sign = np.array([1, 1, 1, -1, -1, -1.0]).reshape(6, 1, 1)
        three = np.zeros((6, 3, 3))
        three[:, :2, :2] = two
        three[:, 2, 2] = sign[:, 0, 0]
        reps = {1: one, 2: two, 3: three}
        rng = np.random.default_rng(TOL.rng_seed)
        worst = 0.0
        spd_failures = 0
        trials = 0
        for trial in range(100):
            dim = (1, 2, 3)[trial % 3]
            base = reps[dim]
            m = rng.uniform(-1.0, 1.0, (dim, dim))
            while abs(np.linalg.det(m)) < 0.1:
                m = rng.uniform(-1.0, 1.0, (dim, dim))
            minv = np.linalg.inv(m)
            phi = np.array([m @ base[i] @ minv for i in range(6)])
            avg = averaging_matrix(dm, phi)
            if np.linalg.eigvalsh((avg + avg.T) / 2).min() <= 0:
                spd_failures += 1
            rep = symmetrize(s3_rba, dm, phi, TOL)
            worst = max(worst, rep_residual(s3_rba, rep)[1])
            trials += 1
        checks = [
            ("100 trials ran", trials == 100),
            ("max *-compat residual < 1e-8", worst < 1e-8),
            ("averaging matrix SPD in every trial", spd_failures == 0),
        ]
        _verdict(
            f"criterion 3: symmetrization suite (worst residual {worst:.2e})", checks
        )


def test_criterion_4_indicator_identities(request, capsys):
    with capsys.disabled():
        fixtures = ["rank1_rba", "c2_rba", "c3_rba", "s3_rba", "d8_rba", "rank7_rba"]
        checks = []
        for name in fixtures:
            rba = request.getfixturevalue(name)
            dm, table, report = _full_pipeline(rba)
            checks.append(
                (f"{name}: nu snapped in {{-1,0,1}}",
                 all(nu in (-1, 0, 1) for nu in report.nu)),
            )
            checks.append(
                (f"{name}: raw deviation < 1e-8",
                 max(abs(raw - nu) for raw, nu in zip(report.raw, report.nu)) < 1e-8),
            )
            checks.append(
                (f"{name}: s identity exact", report.s_predicted == report.s_actual),
            )
            if len(rba.nonreal_pairs()) == 1 and any(c.degree > 1 for c in table):
                verdict = classify_one_pair(rba, table, report)
                checks.append((f"{name}: one-pair contract", verdict.passed))
                checks.append((f"{name}: unique degree-2 character",
                               verdict.chi is not None and verdict.chi.degree == 2))
                checks.append((f"{name}: all nu = +1", all(v == 1 for v in report.nu)))
        _verdict("criterion 4: indicator identities on every fixture", checks)


def test_criterion_5_orthogonality_idempotents(request, capsys):
    with capsys.disabled():
        checks = []
        for name in ["s3_rba", "d8_rba", "c3_rba", "rank7_rba"]:
            rba = request.getfixturevalue(name)
            dm = degree_map(rba, TOL)
            table = character_table(rba, dm, TOL)
            idems = [c.idempotent for c in table]
            r = rba.rank
            total = np.zeros(r, dtype=complex)
            worst_idem = 0.0
            for e in idems:
                total += e
                worst_idem = max(worst_idem, abs(rba.mul(e, e) - e).max())
            for a in range(len(idems)):
                for b in range(a + 1, len(idems)):
                    worst_idem = max(
                        worst_idem,
                        abs(rba.mul(idems[a], idems[b])).max(),
                    )
            unit = np.zeros(r)
            unit[0] = 1.0
            worst_idem = max(worst_idem, abs(total - unit).max())
            checks.append((f"{name}: idempotent residuals < 1e-9", worst_idem < 1e-9))
            checks.append(
                (f"{name}: sum of squared degrees = r",
                 sum(d * d for d in table.degrees()) == r)
            )
            mn = sum(Fraction(c.multiplicity) * c.degree for c in table)
            checks.append((f"{name}: sum m_psi n_psi = n", mn == round(dm.n_float)))
            checks.append(
                (f"{name}: row sums vanish off the degree map",
                 max(abs(c.values_raw.sum()) for c in table.characters[1:]) < 1e-8)
            )
            route_gap = max(
                abs(dm.n_float * c.idempotent[0].real / c.degree - c.multiplicity_raw)
                for c in table
            )
            checks.append((f"{name}: multiplicity routes agree < 1e-8", route_gap < 1e-8))
        _verdict("criterion 5: orthogonality and idempotent suite", checks)


def test_criterion_6_integrality(rank7_rba, capsys):
    with capsys.disabled():
        t0 = time.process_time()  # CPU time: a busy machine does not fail the bound
        rng = np.random.default_rng(TOL.rng_seed)
        solutions = 0
        for _ in range(10_000):
            a, b, c = (int(v) for v in rng.integers(-1000, 1001, 3))
            if row_sum_relation_holds(a, b, c):
                solutions += 1
        result = integral_check(rank7_rba)
        elapsed = time.process_time() - t0
        checks = [
            ("no integer triple satisfies the row-sum relation (10^4 samples)",
             solutions == 0),
            ("rank-7 example is not integral", not result.integral),
            ("offending entries reported", len(result.offenders) > 0),
            ("runtime < 1 s", elapsed < 1.0),
        ]
        _verdict("criterion 6: 2-adic integrality theorem", checks)


def test_criterion_7_hilbert_suite(capsys):
    with capsys.disabled():
        rng = np.random.default_rng(TOL.rng_seed)
        product_failures = 0
        for _ in range(1000):
            a = Fraction(int(rng.integers(-200, 201)) or 11, int(rng.integers(1, 60)))
            b = Fraction(int(rng.integers(-200, 201)) or -13, int(rng.integers(1, 60)))
            prod = 1
            for v in hilbert_places(a, b).values():
                prod *= v
            if prod != 1:
                product_failures += 1
        oracle_disagreements = 0
        for _ in range(200):
            a = Fraction(int(rng.integers(-48, 49)) or 3, int(rng.integers(1, 24)))
            b = Fraction(int(rng.integers(-48, 49)) or 5, int(rng.integers(1, 24)))
            for p in (2, 3, 5, 7, "inf"):
                if hilbert_symbol(a, b, p) != padic_norm_oracle(a, b, p):
                    oracle_disagreements += 1
        checks = [
            ("product formula holds on 1000 seeded pairs", product_failures == 0),
            ("(-1,-1)_2 = -1", hilbert_symbol(-1, -1, 2) == -1),
            ("(-1,-1)_inf = -1", hilbert_symbol(-1, -1, "inf") == -1),
            ("division verdict for the quaternions",
             any(v == -1 for v in hilbert_places(-1, -1).values())),
            ("norm-equation oracle agrees on 200 pairs x 5 places",
             oracle_disagreements == 0),
        ]
        _verdict("criterion 7: Hilbert symbol suite", checks)


def test_criterion_8_ingestion(capsys):
    with capsys.disabled():
        table = s3_table()
        via_group = from_group(table)
        via_scheme = from_scheme(thin_scheme(table))
        dmg = degree_map(via_group, TOL)
        dms = degree_map(via_scheme, TOL)
        checks = [
            ("identical tensors",
             np.array_equal(via_group.lam, via_scheme.lam)
             and np.array_equal(via_group.star, via_scheme.star)),
            ("group RBA validates", validate(via_group, TOL).passed),
            ("scheme RBA validates", validate(via_scheme, TOL).passed),
            ("degree map all ones",
             list(dmg.values) == [Fraction(1)] * 6 and list(dms.values) == [Fraction(1)] * 6),
        ]
        _verdict("criterion 8: ingestion oracle", checks)
