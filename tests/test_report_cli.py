"""AnalysisReport serialization and the command-line interface."""

import collections
import dataclasses
import enum
import json
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbakit import core, report
from rbakit.cli import main
from rbakit.core import RBA, CheckResult
from rbakit.fixtures import FIXTURES, fixture_text, load_fixture
from rbakit.ingest import from_group, from_scheme
from rbakit.integrality import RowObstruction, integral_check
from rbakit.quaternion import QuaternionSymbol
from rbakit.report import (
    analyze,
    canonical_json,
    encode_value,
    integrality_section,
    write_atomic,
)

from conftest import (
    TOL,
    c_n_table,
    d8_table,
    hamming,
    johnson,
    overflow_rba_text,
    relations,
    rescale,
    s3_associativity_variant,
    s3_table,
    s4_table,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def s3_report(s3_rba):
    return analyze(s3_rba, TOL)


def test_encode_decode_round_trip():
    values = [Fraction(52, 45), 1.5, -3, "text", complex(1, -2), [Fraction(1, 2), 0.25]]
    encoded = encode_value(values)
    assert encoded == ["52/45", 1.5, -3, "text", {"re": 1.0, "im": -2.0}, ["1/2", 0.25]]
    text = canonical_json(values)
    assert json.loads(text) == encoded
    assert canonical_json(json.loads(text)) == text


def test_analyze_s3(s3_report):
    d = s3_report.data
    assert d["overall_pass"]
    assert s3_report.exit_code == 0
    assert d["rba"]["rank"] == 6
    assert d["rba"]["order"] == "6"
    assert d["rba"]["star_fixed"] == 4
    assert d["validation"]["passed"]
    assert d["indicators"]["nu"] == [1, 1, 1]
    assert d["classification"]["one_pair"]["passed"]
    assert d["quaternion"]["verdict"] == "split"
    assert d["integrality"]["integral"]


def test_analyze_rank7(rank7_rba):
    rep = analyze(rank7_rba, TOL)
    d = rep.data
    assert not d["overall_pass"]          # non-integral tensor
    assert rep.exit_code == 1
    assert d["indicators"]["nu"] == [1, 1, 1, -1]
    assert d["classification"]["rank7_class"] == 1
    assert d["classification"]["rank7_consistent"]
    assert not d["integrality"]["integral"]
    assert d["integrality"]["offender_count"] == 120  # every offender, not the 8 listed
    assert len(d["integrality"]["offenders"]) == 8
    assert d["integrality"]["two_adic"]["verdict"] == "obstructed-non-integral"
    assert "quaternionic" in d["quaternion"]["status"]
    ct = d["character_table"]
    assert ct["multiplicities"] == ["1", "52/45", "4/9", "26/5"]


def test_analyze_exact_s4():
    # rank 24, exact mode end to end: every axiom checked on integers
    from rbakit.ingest import from_group
    rep = analyze(from_group(s4_table()), TOL)
    d = rep.data
    assert rep.exit_code == 0 and d["meta"]["mode"] == "exact"
    assert d["rba"]["rank"] == 24 and d["rba"]["order"] == "24"
    assert d["character_table"]["degrees"] == [1, 1, 2, 3, 3]
    assert d["character_table"]["multiplicities"] == ["1", "1", "2", "3", "3"]
    assert d["indicators"]["nu"] == [1] * 5
    assert d["indicators"]["s_actual"] == 10


def test_analyze_invalid_rba():
    text = "rank 2\nstar 0 1\nlambda 0 0 0 1\nlambda 0 1 1 1\nlambda 1 0 1 1\nlambda 1 1 0 -1\n"
    rep = analyze(RBA.from_text(text), TOL)
    assert not rep.data["validation"]["passed"]
    assert rep.exit_code == 1


def test_json_round_trip_and_determinism(s3_rba, s3_report):
    text = s3_report.to_json()
    assert canonical_json(json.loads(text)) == text
    # identical runs give byte-identical reports
    rerun = analyze(s3_rba, TOL)
    assert rerun.to_json() == text
    # sorted keys
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)


# ---------------------------------------------------------------------------
# canonical JSON: sorted keys, no whitespace, one line
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _is_canonical(text) -> bool:
    """text is one line of JSON, then "\\n", that canonical_json writes back unchanged."""
    return text.count("\n") == 1 and text.endswith("\n") and canonical_json(json.loads(text)) == text


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_canonical_json_writes_each_golden(golden):
    assert _is_canonical((GOLDEN / golden).read_text(encoding="utf-8"))


@pytest.mark.parametrize("table", [c_n_table(8), s4_table()], ids=["C8", "S4"])
def test_canonical_json_writes_complex_float_reports(table):
    data = analyze(from_group(table), TOL, force_float=True).data
    text = canonical_json(data)
    assert _is_canonical(text) and json.loads(text) == data


class Level(enum.IntEnum):
    LOW = 1


class Text(str):
    pass


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), _FINITE,
    st.sampled_from([-0.0, 1e-300, 1e16, 5e-324, 1.7976931348623157e308]),
    st.text(), st.text(alphabet='"\\/\x00\x01\n\t{}[],: \u00e9\u20ac\U0001f600', max_size=6),
)
_LEAVES = st.one_of(
    _SCALARS, st.fractions(max_denominator=10**6), st.builds(np.float64, _FINITE),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)), st.builds(np.bool_, st.booleans()),
    st.builds(complex, _FINITE, _FINITE), st.just(Level.LOW), st.builds(Text, st.text(max_size=4)),
    st.lists(_FINITE, max_size=4).map(np.array),
)
_KEYS = st.text(alphabet='ab"\\: {}\x00\u00e9', max_size=4)
_JSONISH = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5), st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_KEYS, children, max_size=5),
        # a table: scalars and dicts of scalars, as a character's values
        st.lists(st.one_of(_SCALARS, st.dictionaries(_KEYS, _SCALARS, max_size=3)), max_size=6)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_JSONISH)
def test_canonical_json_is_json_dumps(obj):
    # the value json reads back is encode_value's, and writing it again gives the same line
    text = canonical_json(obj)
    assert _is_canonical(text) and json.loads(text) == encode_value(obj)


def _key_text(k) -> str:
    return k if isinstance(k, str) else json.dumps(k)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.one_of(st.integers(-5, 5), st.floats(-2, 2), st.booleans(), st.none(), st.text(max_size=2)),
                       st.one_of(_SCALARS, st.lists(_SCALARS, max_size=2)), max_size=4))
def test_canonical_json_converts_keys_as_json_does(obj):
    # a key that is not a str becomes its JSON text, in the order of the keys
    # themselves; keys that do not compare raise json's TypeError
    try:
        keys = sorted(obj)
    except TypeError:
        with pytest.raises(TypeError):
            canonical_json(obj)
        return
    parsed = json.loads(canonical_json(obj))
    assert list(parsed) == [_key_text(k) for k in keys]
    assert list(parsed.values()) == [json.loads(json.dumps(obj[k])) for k in keys]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
@pytest.mark.parametrize("where", [
    lambda x: x, lambda x: [1.0, x], lambda x: {"a": x}, lambda x: ["1", {"im": 0.5, "re": x}],
    lambda x: [{"re": 1.0, "im": x}, {"re": float("nan"), "im": 0.0}], lambda x: {"a": [{"b": [x]}]},
    lambda x: {x: 1}, lambda x: [[0.5, x], {"k": x}]])
def test_canonical_json_refuses_nan_and_inf_as_json_does(bad, where):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        canonical_json(where(bad))


@pytest.mark.parametrize("obj", [
    [{"im": 0.5, "re": -1.0}],
    ["1", {"im": 0.5, "re": -1.0}, -0.5, None, True, {"im": -0.5, "re": 2}],
    ['"re": ', {"im": "}{", "re": '\x00"re": '}, "}", {"im": 0.5, "re": "{"}],
    [{"a": 1, "b": "}{"}, {"c": "}\x00{", "d": None}],
    [{}, {"a": 1}],
    [{"im": 1, "re": []}, "1"],
], ids=["one", "mixed", "key-like", "flat", "empty", "nested"])
def test_canonical_json_writes_lists_of_flat_dicts_as_json_does(obj):
    # strings that look like the JSON around them stay inside their quotes
    text = canonical_json(obj)
    assert _is_canonical(text) and json.loads(text) == obj
    assert text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def test_canonical_json_takes_subclasses_without_recursing():
    # an IntEnum, np.float64 or str subclass is written as its base type
    obj = {"level": Level.LOW, "x": np.float64(0.1), "s": Text("t"), "mixed": [Level.LOW, np.float64(2.5)],
           "sub": collections.OrderedDict(b=1, a=[Text("u")]), "keys": {Level.LOW: 1, 2.5: None, 3: True}, "none": {None: 0}}
    assert canonical_json(obj) == ('{"keys":{"1":1,"2.5":null,"3":true},"level":1,"mixed":[1,2.5],'
                                   '"none":{"null":0},"s":"t","sub":{"a":["u"],"b":1},"x":0.1}\n')
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
        canonical_json({(1, 2): 1})


class Half(Fraction):
    pass


@pytest.mark.parametrize("value, encoded", [
    (Fraction(-1, 2), "-1/2"), (Half(1, 2), "1/2"), (complex(2, -0.0), 2.0), (complex(0, 1), {"re": 0.0, "im": 1.0}),
    (np.complex128(1, -1), {"re": 1.0, "im": -1.0}), (np.complex64(3), 3.0), (np.bool_(True), True),
    (np.int8(-3), -3), (np.float32(0.5), 0.5), (Level.LOW, 1), (Text("t"), "t"), (None, None),
    ((1, [Fraction(3), 0.25]), [1, ["3", 0.25]]), (np.array([1.5, -2.0]), [1.5, -2.0]), ({3: Half(3)}, {"3": "3"}),
], ids=repr)
def test_encode_value_of_each_type(value, encoded):
    # exact types take the tests by type, numpy scalars and subclasses the isinstance chain
    got = encode_value(value)
    assert got == encoded and json.dumps(got) == json.dumps(encoded)


def _fields(record) -> set:
    return {f.name for f in dataclasses.fields(record)}


@pytest.mark.parametrize("force_float", [False, True], ids=["exact", "float"])
def test_sections_are_written_from_their_records(s3_rba, rank7_rba, force_float):
    # the quaternion section, each validation check and each 2-adic row hold
    # exactly their record's fields
    d = analyze(s3_rba, TOL, force_float=force_float).data
    assert d["meta"]["mode"] == ("float" if force_float else "exact")
    assert set(d["quaternion"]) == _fields(QuaternionSymbol) | {"status"}
    assert d["validation"]["checks"] and all(set(c) == _fields(CheckResult) for c in d["validation"]["checks"])
    rows = analyze(rank7_rba, TOL, force_float=force_float).data["integrality"]["two_adic"]["rows"]
    assert rows and all(set(r) == _fields(RowObstruction) for r in rows)


def test_render_text(s3_report):
    out = s3_report.render_text()
    assert "overall: PASS" in out
    assert "split" in out


def test_analyze_c3_complex_values(c3_rba):
    # complex character values serialize as {re, im} and round-trip
    rep = analyze(c3_rba, TOL)
    assert rep.data["overall_pass"]
    text = rep.to_json()
    assert canonical_json(json.loads(text)) == text
    rows = rep.data["character_table"]["characters"]
    complex_entries = [
        v for row in rows for v in row["values"] if isinstance(v, dict)
    ]
    assert complex_entries and all(v.keys() == {"re", "im"} for v in complex_entries)
    vals = json.loads(text)["character_table"]["characters"][1]["values"]
    assert any(isinstance(v, dict) for v in vals)


def test_analyze_standardizes(s3_rba):
    # a rescaled (non-standard) input is standardized before decomposition
    from fractions import Fraction as F
    import itertools
    scale = [F(1), F(3), F(3), F(1), F(1), F(1)]
    lam = s3_rba.lam.copy()
    for i, j, k in itertools.product(range(6), repeat=3):
        lam[i, j, k] = s3_rba.lam[i, j, k] * scale[i] * scale[j] / scale[k]
    from rbakit.core import RBA
    rep = analyze(RBA(lam, s3_rba.star), TOL)
    assert not rep.data["rba"]["standard_basis"]
    assert rep.data["quaternion"]["verdict"] == "split"


def _float_copy(rba):
    return RBA(rba.lam_float, rba.star)


_STANDARD_FLOAT = {
    "S3": lambda: from_group(s3_table()),
    "D8": lambda: from_group(d8_table()),
    "C24": lambda: from_group(c_n_table(24)),
    "H(3,3)": lambda: from_scheme(relations(hamming(3, 3))),
    "J(6,3)": lambda: from_scheme(relations(johnson(6, 3))),
    "rank7_h": lambda: load_fixture("rank7_h"),
}


def _refuse(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize("build", _STANDARD_FLOAT.values(), ids=_STANDARD_FLOAT.keys())
def test_float_input_in_its_standard_basis_needs_no_degree_map(build, monkeypatch):
    # delta_i = lam[i,i*,0], checked by one product: no eig, and the same report
    # as the eig path, which it takes when the diagonal is refused
    rba = _float_copy(build())
    with monkeypatch.context() as m:
        m.setattr(report, "degree_map", _refuse)
        m.setattr(core, "degree_map", _refuse)
        fast = analyze(rba, TOL)
    monkeypatch.setattr(report, "_standard_degrees", lambda rba, tol: None)
    slow = analyze(rba, TOL)
    assert fast.data["meta"]["mode"] == "float" and fast.data["rba"]["standard_basis"]
    assert fast.to_json() == slow.to_json()


def test_float_input_off_its_standard_basis_calls_degree_map_twice(s3_rba, monkeypatch):
    # a rescaled float S3 finds its degrees by eig, then again on the standardized RBA
    degree_map, calls = core.degree_map, []

    def counted(rba, tol):
        calls.append(rba)
        return degree_map(rba, tol)

    monkeypatch.setattr(report, "degree_map", counted)
    monkeypatch.setattr(core, "degree_map", counted)
    rba = _float_copy(rescale(s3_rba, [1.0, 3.0, 3.0, 1.0, 1.0, 1.0]))
    data = analyze(rba, TOL).data
    assert len(calls) == 2 and not data["rba"]["standard_basis"]
    assert data["overall_pass"] and data["quaternion"]["a"] == "-12"


def test_standardize_hands_back_a_float_input_in_its_standard_basis(s3_rba):
    rba = _float_copy(s3_rba)
    dm = core._standard_degrees(rba, TOL)
    assert not dm.exact and list(dm.values) == [1.0] * 6
    assert core.standardize(rba, dm) is rba
    assert core.to_standard_basis(rba, dm, TOL) == (rba, dm, True)


@pytest.mark.parametrize("seed", [2, 31])
def test_float_order_of_a_relabelled_scheme_product_is_exact(seed):
    # J(8,4) x H(4,3) with b_i relabelled b_p[i]: eig's degrees were off by ~2e-13
    # relative, past eps_zero at n = 5670, so the order read 5670.000000001252 at
    # seed 2 and 5670.0000000023665 at seed 31; the diagonal is exact
    a = from_scheme(relations(johnson(8, 4)))
    b = from_scheme(relations(hamming(4, 3)))
    lam = np.einsum("ijk,abc->iajbkc", a.lam_float, b.lam_float).reshape(25, 25, 25)
    star = (a.star[:, None] * 5 + b.star).ravel()
    p = np.array([0, *(1 + np.random.default_rng(seed).permutation(24))])
    q = np.argsort(p)
    rba = RBA(lam[np.ix_(q, q, q)], p[star[q]])
    data = analyze(rba, TOL, force_float=True).data
    assert data["meta"]["mode"] == "float" and data["rba"]["standard_basis"]
    assert data["rba"]["order"] == data["character_table"]["order"] == "5670"


def _keys(obj):
    """Every dict key in a nest of dicts, lists and tuples."""
    if isinstance(obj, dict):
        yield from obj
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _keys(x)


@pytest.mark.parametrize("force_float", [False, True], ids=["exact", "float"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_report_keys_are_str(name, force_float):
    # canonical_json sorts int keys by value, not by their text: a report has none
    keys = list(_keys(analyze(load_fixture(name), TOL, force_float=force_float).data))
    assert keys and all(type(k) is str for k in keys)


# ---------------------------------------------------------------------------
# fixtures bundle
# ---------------------------------------------------------------------------

def test_bundled_fixtures(s3_rba, rank7_rba):
    assert np.array_equal(load_fixture("s3").lam, s3_rba.lam)
    assert np.array_equal(load_fixture("s3.rba").lam, s3_rba.lam)
    bundled = load_fixture("rank7_h")
    assert np.array_equal(bundled.lam, rank7_rba.lam)
    assert load_fixture("d8").rank == 8
    assert load_fixture("c2").rank == 2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_s3(tmp_path):
    path = tmp_path / "s3.rba"
    path.write_text(fixture_text("s3.rba"))
    return str(path)


def test_cli_validate(tmp_path, capsys):
    path = _write_s3(tmp_path)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out


def test_cli_validate_json(tmp_path, capsys):
    path = _write_s3(tmp_path)
    assert main(["validate", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"]


def test_cli_analyze_json(tmp_path, capsys):
    path = _write_s3(tmp_path)
    assert main(["analyze", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall_pass"]
    assert payload["quaternion"]["verdict"] == "split"
    assert payload["indicators"]["s_actual"] == 4


def test_cli_quaternion(tmp_path, capsys):
    path = _write_s3(tmp_path)
    assert main(["quaternion", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a"] == "-12"
    assert payload["beta"] == "4"
    assert payload["verdict"] == "split"
    # analyze's section as it stands: a symbol that is not applicable exits 2
    # with its status, and failing axioms exit 1 naming the check
    r7 = tmp_path / "r7.rba"
    r7.write_text(fixture_text("rank7_h"))
    assert main(["quaternion", str(r7)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not applicable: 3 nonreal pairs (need exactly 1)")
    variant = tmp_path / "variant.rba"
    variant.write_text(s3_associativity_variant().to_text())
    assert main(["quaternion", str(variant)]) == 1
    assert capsys.readouterr().out == "axioms fail: associativity\n"


def test_cli_hilbert(capsys):
    assert main(["hilbert", "-1", "-1", "--json"]) == 1  # division verdict
    payload = json.loads(capsys.readouterr().out)
    assert payload["places"] == {"2": -1, "inf": -1}
    assert payload["product"] == 1
    assert payload["verdict"] == "division"
    assert main(["hilbert", "-3", "4"]) == 0
    capsys.readouterr()
    assert main(["hilbert", "0", "4"]) == 2  # zero argument
    assert main(["hilbert", "2", "3/0"]) == 2


def test_cli_hilbert_refuses_a_product_of_two_large_primes(capsys):
    # (10^19 + 51)(3 10^19 + 41): past the rho step budget, an input error
    assert main(["hilbert", "-1", str(10000000000000000051 * 30000000000000000041)]) == 2
    assert "no factor of a 39-digit cofactor" in capsys.readouterr().err


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("a, b, name", [
    ("1e5000", "3", "a"),
    ("3", "1e-5000", "b"),
    ("1e1000000", "3", "a"),
    ("-1", "7e-99999999", "b"),
])
def test_cli_hilbert_refuses_long_arguments(a, b, name, json_flag, capsys):
    # exponent notation gets past the 4,300-digit bound of int() on a digit string;
    # such an argument is refused before any factoring, as text and as JSON
    start = time.process_time()
    assert main(["hilbert", a, b, *json_flag]) == 2
    assert time.process_time() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} has more than 4300 digits in its numerator or denominator\n"


def test_cli_hilbert_takes_arguments_up_to_the_bound(capsys):
    # 10^4299 has 4,300 digits: (10^4299, 3) = (10, 3) is a division algebra
    assert main(["hilbert", "1e4299", "3", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["places"] == {"2": -1, "3": 1, "5": -1, "inf": 1}


def test_cli_example_pipe(capsys):
    assert main(["example", "rank7"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("#")
    from rbakit.core import RBA
    rba = RBA.from_text(text)
    assert rba.rank == 7
    assert main(["example", "nope"]) == 2
    capsys.readouterr()


def test_cli_check_integrality(tmp_path, capsys):
    path = _write_s3(tmp_path)
    assert main(["check-integrality", path]) == 0
    capsys.readouterr()
    r7 = tmp_path / "r7.rba"
    r7.write_text(fixture_text("rank7_h"))
    assert main(["check-integrality", str(r7), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["integral"]
    assert payload["offender_count"] == 120 and len(payload["offenders"]) == 8
    assert payload["two_adic"]["verdict"] == "obstructed-non-integral"
    assert main(["check-integrality", str(r7)]) == 1
    assert capsys.readouterr().out.startswith("non-integral (120 offending entries, first (1, 1, 1))")
    # the verdict is on the basis as given: C7 with b_i' = b_i / 2 has lam = 1/2,
    # though analyze's standard basis is the group basis again
    from rbakit.ingest import from_group
    c7 = from_group(c_n_table(7))
    halved = tmp_path / "c7_halved.rba"
    halved.write_text(rescale(c7, [Fraction(1)] + [Fraction(1, 2)] * 6).to_text())
    assert analyze(RBA.from_text(halved.read_text()), TOL).data["integrality"]["integral"]
    assert main(["check-integrality", str(halved), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["integral"] and "two_adic" not in payload


def test_cli_check_integrality_skips_analysis_outside_rank7(tmp_path, capsys):
    # C24 has no 2-adic section; its integrality verdict needs no decomposition
    from rbakit.ingest import from_group
    path = tmp_path / "c24.rba"
    path.write_text(from_group(c_n_table(24)).to_text())
    assert main(["check-integrality", str(path)]) == 0
    assert capsys.readouterr().out == "integral\n"


def test_cli_from_group_and_scheme(tmp_path, capsys):
    cayley = tmp_path / "s3.cayley"
    cayley.write_text(fixture_text("s3"))
    assert main(["from-group", str(cayley)]) == 0
    rba_text = capsys.readouterr().out
    assert RBA.from_text(rba_text).rank == 6

    # export the regular scheme of the same group and re-ingest
    from rbakit.ingest import parse_cayley, thin_scheme
    mats = thin_scheme(parse_cayley(fixture_text("s3")))
    scheme_file = tmp_path / "s3.scheme"
    lines = ["points 6 classes 6"]
    for m in mats:
        for row in m:
            lines.append(" ".join(str(x) for x in row))
    scheme_file.write_text("\n".join(lines) + "\n")
    assert main(["from-scheme", str(scheme_file)]) == 0
    scheme_text = capsys.readouterr().out
    assert scheme_text == rba_text  # identical tensors, identical emission


def test_cli_batch_directory(tmp_path, capsys):
    (tmp_path / "a.rba").write_text(fixture_text("s3.rba"))
    (tmp_path / "b.rba").write_text(fixture_text("rank7_h"))
    code = main(["analyze", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1  # worst of the batch (rank7 is non-integral)
    assert out.count("rbakit analysis") == 2


def test_cli_batch_directory_json_is_one_document(tmp_path, capsys):
    # one strict JSON array, in sorted file order; a single file's --json is unchanged
    (tmp_path / "b.rba").write_text(fixture_text("s3.rba"))
    (tmp_path / "a.rba").write_text(fixture_text("rank7_h"))
    singles = []
    for name in ("a.rba", "b.rba"):
        main(["analyze", str(tmp_path / name), "--json"])
        singles.append(capsys.readouterr().out)
    assert main(["analyze", str(tmp_path), "--json"]) == 1
    out = capsys.readouterr().out
    assert out == canonical_json([json.loads(text) for text in singles])
    assert [rep["meta"]["source"] for rep in json.loads(out)] == ["a.rba", "b.rba"]


def test_cli_batch_directory_survives_a_bad_file(tmp_path, capsys):
    (tmp_path / "s3.rba").write_text(fixture_text("s3.rba"))
    (tmp_path / "bad.rba").write_text("rank 2\nstar 0\n")
    assert main(["analyze", str(tmp_path / "s3.rba")]) == 0
    s3_text = capsys.readouterr().out
    code = main(["analyze", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2  # worst of the batch
    assert captured.out == s3_text
    assert captured.err == f"error: {tmp_path / 'bad.rba'}: missing or wrong-length 'star' line\n"


def test_cli_batch_directory_with_exact_and_float_is_refused_once(tmp_path, capsys):
    for name in ("a.rba", "b.rba"):
        (tmp_path / name).write_text(fixture_text("rank7_h"))
    assert main(["analyze", str(tmp_path), "--exact", "--float"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --exact and --float exclude each other\n"


def test_cli_empty_directory_exits_2(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("not an .rba file\n")
    assert main(["analyze", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no .rba files in {tmp_path}\n"


def test_write_atomic_failed_rename_leaves_the_target_and_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_atomic(str(target), "new\n")
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_cli_out_flag(tmp_path, capsys):
    path = _write_s3(tmp_path)
    target = tmp_path / "report.json"
    assert main(["analyze", path, "--json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["overall_pass"]


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=oct)
def test_cli_out_file_mode(tmp_path, capsys, umask):
    # --out leaves the mode open(path, "w") would: 0o666 less the umask for a new
    # file, the old mode for a file it replaces
    target = tmp_path / "rank7.rba"
    old = os.umask(umask)
    try:
        assert main(["example", "rank7", "--out", str(target)]) == 0
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask
        target.chmod(0o640)
        assert main(["example", "rank7", "--out", str(target)]) == 0
        assert target.stat().st_mode & 0o777 == 0o640
    finally:
        os.umask(old)
    assert target.read_text() == fixture_text("rank7_h")
    assert capsys.readouterr().out == ""


def test_cli_out_writes_through_a_symbolic_link(tmp_path, capsys):
    # as open(path, "w"): the link stays a link, its target gets the content
    # and keeps its mode
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("old\n")
    real.chmod(0o640)
    link.symlink_to(real.name)
    assert main(["example", "rank7", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == real.name
    assert real.read_text() == fixture_text("rank7_h")
    assert real.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]
    assert capsys.readouterr().out == ""


def test_cli_tol_flag(tmp_path, capsys):
    path = _write_s3(tmp_path)
    assert main(["analyze", path, "--json", "--tol", "1e-6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["meta"]["eps_residual"] == 1e-6


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_cli_rejects_bad_tolerance(command, eps, tmp_path, capsys):
    assert main([command, _write_s3(tmp_path), "--tol", eps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: tolerance eps_residual must be finite and positive" in captured.err


@pytest.mark.parametrize("argv", [
    ["hilbert", "-1", "-1", "--float"],
    ["example", "rank7", "--json"],
    ["from-group", "s3.cayley", "--tol", "1e-6"],
    ["validate", "s3.rba", "--seed", "3"],
])
def test_cli_rejects_flags_the_command_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_seed_and_env(tmp_path, capsys, monkeypatch):
    path = _write_s3(tmp_path)
    assert main(["analyze", path, "--json", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert json.loads(first)["meta"]["seed"] == 7
    monkeypatch.setenv("RBA_SEED", "9")
    assert main(["analyze", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["seed"] == 9


def test_cli_malformed_seed_env_exits_2(tmp_path, capsys, monkeypatch):
    path = _write_s3(tmp_path)
    monkeypatch.setenv("RBA_SEED", "abc")
    assert main(["analyze", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: RBA_SEED must be an integer, got 'abc'\n"
    assert main(["analyze", path, "--json", "--seed", "4"]) == 0  # the flag wins
    assert json.loads(capsys.readouterr().out)["meta"]["seed"] == 4


@pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-5")], ids=["flag", "env"])
def test_cli_negative_seed_exits_2_before_analysis(flag, env, tmp_path, capsys, monkeypatch):
    path = _write_s3(tmp_path)
    if env is not None:
        monkeypatch.setenv("RBA_SEED", env)
    assert main(["analyze", path, "--json", *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: rng_seed must be a non-negative integer, got {flag[1] if flag else env}\n"


def test_cli_validate_reads_no_seed_env(tmp_path, capsys, monkeypatch):
    path = _write_s3(tmp_path)
    monkeypatch.setenv("RBA_SEED", "abc")
    assert main(["validate", path]) == 0
    captured = capsys.readouterr()
    assert "[pass]" in captured.out
    assert captured.err == ""


def test_cli_exact_float_flags(tmp_path, capsys):
    path = _write_s3(tmp_path)
    assert main(["analyze", path, "--exact", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["mode"] == "exact"
    assert main(["analyze", path, "--float", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["mode"] == "float"
    r7 = tmp_path / "r7.rba"
    r7.write_text(fixture_text("rank7_h"))
    assert main(["analyze", str(r7), "--exact"]) == 2  # decimals cannot be exact
    capsys.readouterr()


@pytest.mark.parametrize("command", ["analyze", "validate", "quaternion", "check-integrality"])
def test_cli_exact_with_float_exits_2(command, tmp_path, capsys):
    assert main([command, _write_s3(tmp_path), "--exact", "--float"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --exact and --float exclude each other" in captured.err


def test_cli_stdin(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(fixture_text("s3.rba")))
    assert main(["analyze", "-", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["overall_pass"]


def test_cli_structural_error(tmp_path, capsys):
    bad = tmp_path / "bad.rba"
    bad.write_text("rank 2\nstar 0\n")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["validate", str(tmp_path / "missing.rba")]) == 2


def test_cli_unallocatable_rank_exits_2(tmp_path, capsys):
    # the r^3 tensor of rank 10^5 (8 PB) is refused at allocation, before any
    # memory is touched. A rank that does allocate still costs r^3.
    big = tmp_path / "big.rba"
    big.write_text("rank 100000\nstar " + " ".join(map(str, range(100000))) + "\n")
    assert main(["validate", str(big)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rank 100000: the r^3 = 1000000000000000 entry tensor cannot be allocated" in captured.err


RBA_COMMANDS = ["analyze", "validate", "quaternion", "check-integrality"]


@pytest.mark.parametrize("command", RBA_COMMANDS)
def test_cli_rejects_non_finite_tokens(command, tmp_path, capsys):
    cases = [(t, "line 3: non-finite value") for t in ("nan", "inf", "-inf", "1e999")]
    cases.append(("1" + "0" * 400, "line 3: value out of range"))
    for token, message in cases:
        bad = tmp_path / "bad.rba"
        bad.write_text(f"rank 1\nstar 0\nlambda 0 0 0 {token}\n")
        assert main([command, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


@pytest.mark.parametrize("command", RBA_COMMANDS)
def test_cli_rejects_wrong_field_count(command, tmp_path, capsys):
    cases = [
        ("rank 1 7\nstar 0\nlambda 0 0 0 1\n", "line 1: a 'rank' line has 2 fields, not 3"),
        ("rank 1\nstar 0\nlambda 0 0 0 1 9/2\n", "line 3: a 'lambda' line has 5 fields, not 6"),
        ("rank 1\nstar 0\nlambda 0 0 0\n", "line 3: a 'lambda' line has 5 fields, not 4"),
    ]
    for text, message in cases:
        bad = tmp_path / "bad.rba"
        bad.write_text(text)
        assert main([command, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


@pytest.mark.parametrize("command", RBA_COMMANDS)
def test_cli_rejects_duplicate_lambda(command, tmp_path, capsys):
    bad = tmp_path / "dup.rba"
    bad.write_text("rank 1\nstar 0\nlambda 0 0 0 1\nlambda 0 0 0 1\n")
    assert main([command, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 4: duplicate lambda 0 0 0 (first on line 3)" in captured.err


def test_cli_json_output_is_strict(tmp_path, capsys):
    # 1e308 is finite, but the associativity residual of this rank-3 tensor is
    # inf - inf: --json must fail (exit 2) rather than print bare NaN. Every
    # --json output, the directory's array too, is canonical: one line, then "\n"
    overflow = tmp_path / "overflow.rba"
    overflow.write_text(overflow_rba_text("1e308"))
    rank1 = tmp_path / "rank1.rba"   # not an identity: associativity is not run
    rank1.write_text("rank 1\nstar 0\nlambda 0 0 0 1e308\n")
    variant = tmp_path / "variant.rba"  # associativity alone fails
    variant.write_text(s3_associativity_variant().to_text())
    inputs = [_write_s3(tmp_path), str(overflow), str(rank1), str(variant)]
    runs = [[command, path, "--json"] for command in RBA_COMMANDS for path in inputs]
    runs += [["analyze", str(tmp_path), "--json"], ["hilbert", "-1", "-1", "--json"], ["hilbert", "2", "3", "--json"]]
    for argv in runs:
        code = main(argv)
        out = capsys.readouterr().out
        assert "NaN" not in out and "Infinity" not in out, argv
        if out:
            parsed = json.loads(out, parse_constant=lambda c: pytest.fail(f"{argv}: {c}"))
            assert out == canonical_json(parsed) and out.count("\n") == 1, argv
        else:
            assert code == 2, argv

    # quaternion validates first; in a process of its own, so that what LAPACK
    # and the warnings module write is seen as well
    proc = subprocess.run(
        [sys.executable, "-m", "rbakit.cli", "quaternion", str(variant), "--json"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["checks"][-1] == {
        "name": "associativity", "passed": False, "residual": 9.0,
        "detail": "worst quadruple (4,5,5,3)"}
    assert "DLASCL" not in proc.stdout + proc.stderr and "Warning" not in proc.stderr

    # check-integrality judges the basis as given, adding analyze's 2-adic part
    rank7 = tmp_path / "rank7.rba"
    rank7.write_text(fixture_text("rank7_h"))
    for path, code in ((variant, 0), (rank7, 1)):
        assert main(["check-integrality", str(path), "--json"]) == code
        payload = json.loads(capsys.readouterr().out)
        rba = RBA.from_text(path.read_text())
        two = payload.pop("two_adic", None)
        assert payload == json.loads(canonical_json(integrality_section(integral_check(rba))))
        expected = analyze(rba, TOL).data.get("integrality", {}).get("two_adic")
        assert two == json.loads(canonical_json(expected))


def test_cli_validate_without_identity_is_bounded(tmp_path, capsys):
    # an empty rank-150 file: b_0 is not an identity, so the r^5 check is not run
    empty = tmp_path / "empty.rba"
    empty.write_text("rank 150\nstar " + " ".join(map(str, range(150))) + "\n")
    start = time.process_time()
    assert main(["validate", str(empty)]) == 1
    assert time.process_time() - start < 1.0
    assert "[FAIL] associativity: residual 0.000e+00  not run: identity check failed" in (
        capsys.readouterr().out)


@pytest.mark.parametrize("fmt", [[], ["--json"]])
@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_cli_non_finite_residual_exits_2(command, fmt, tmp_path, capsys):
    # text and --json agree: the NaN residual is an error, not a report, and
    # the inf - inf that makes it raises no numpy warning on the way, from
    # gemm at rank 3 and from the thin block on C24 with entries of 1e200
    c24 = from_group(c_n_table(24))
    lam = c24.lam_float.copy()
    lam[1:, 1:] *= 1e200
    for text in (overflow_rba_text("1e308"), RBA(lam, c24.star).to_text()):
        overflow = tmp_path / "overflow.rba"
        overflow.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(overflow), *fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: associativity residual is not finite (nan)\n"


@pytest.mark.parametrize("fmt", [[], ["--json"]])
@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_cli_exact_residual_beyond_double_exits_2(command, fmt, tmp_path, capsys):
    # every entry fits a double, but the exact associativity residual is ~10^600
    huge = tmp_path / "huge.rba"
    huge.write_text(overflow_rba_text(10**300))
    assert main([command, str(huge), *fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: associativity residual is not finite (inf)" in captured.err
