"""Checks an rbakit JSON report against expectations built without rbakit.

``workloads`` derives each expectation from first principles (class counts,
closed-form character degrees, scheme eigenvalue multiplicities, the frozen
rank-7 table). This module only reads the report the program printed and
compares. Characters are compared as a multiset of (degree, multiplicity,
indicator), because relabelling the basis reorders the rows of the table.

A report can also leave out a verdict for a reason it states itself: rbakit
checks the 2-adic obstruction only when every linear character snapped to
exact rationals, and marks a row that did not with ``"exact": false``.
``declined`` names such an omission; the benchmark counts it against
``ok_frac`` like a refusal, not as a wrong answer.
"""

from __future__ import annotations

from fractions import Fraction

REL_TOL = 1e-6


def _number(v):
    """A report scalar ("p/q" string or JSON number) as a Fraction or float."""
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"not a real number: {v!r}")
    return v


def _close(got, want) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(float(want)))


def _char_key(c):
    return (c[0], c[2], float(c[1]))


def _unmatched(got: list, want: list) -> list:
    """Expected characters left after pairing each with an equal reported one.

    Multiplicities are compared within REL_TOL, so sorting alone could pair
    the wrong rows when two multiplicities are nearly equal.
    """
    pool = list(got)
    left = []
    for w in want:
        hit = next((g for g in pool if g[0] == w[0] and g[2] == w[2] and _close(g[1], w[1])),
                   None)
        if hit is None:
            left.append(w)
        else:
            pool.remove(hit)
    return left + pool


def _two_adic_verdict(report: dict):
    return ((report.get("integrality") or {}).get("two_adic") or {}).get("verdict")


def declined(expect: dict, report: dict):
    """Why the report leaves out a verdict the expectation asks for, when the
    report itself shows rbakit's reason; None when nothing is left out."""
    if "two_adic" in expect and _two_adic_verdict(report) is None:
        inexact = [c for c in report["character_table"]["characters"]
                   if c["degree"] == 1 and not c["exact"]]
        if inexact:
            return ("2-adic obstruction not checked: a linear character did not "
                    "snap to exact rationals")
    return None


def check(expect: dict, report: dict) -> list:
    """Mismatches between a parsed report and its expectation; [] when it matches."""
    try:
        return _check(expect, report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def _check(expect: dict, report: dict) -> list:
    bad = []
    if report["overall_pass"] != expect["overall_pass"]:
        bad.append(f"overall_pass {report['overall_pass']} != {expect['overall_pass']}")
    val = report["validation"]
    if expect["family"] == "invalid":
        failing = sorted(c["name"] for c in val["checks"] if not c["passed"])
        if failing != [expect["failing_check"]]:
            bad.append(f"failing checks {failing} != [{expect['failing_check']!r}]")
        return bad
    if not val["passed"]:
        bad.append("validation failed on a valid algebra")
        return bad

    # the order of the input's own basis, then of the standard basis
    input_order = _number(report["rba"]["order"])
    if not _close(input_order, expect.get("input_order", expect["order"])):
        bad.append(f"order {input_order} != {expect.get('input_order', expect['order'])}")
    order = _number(report["character_table"]["order"])
    if not _close(order, expect["order"]):
        bad.append(f"standard-basis order {order} != {expect['order']}")
    got = [(c["degree"], _number(c["multiplicity"]), c["nu"])
           for c in report["character_table"]["characters"]]
    unmatched = _unmatched(got, expect["chars"])
    if unmatched:
        bad.append(f"characters (degree, m, nu) {sorted(got, key=_char_key)} do not match "
                   f"{expect['chars']}: {unmatched} left over")
    ind = report["indicators"]
    if ind["s_actual"] != expect["s"] or ind["s_predicted"] != expect["s"]:
        bad.append(f"s actual/predicted {ind['s_actual']}/{ind['s_predicted']} != {expect['s']}")
    if "two_adic" in expect and declined(expect, report) is None:
        verdict = _two_adic_verdict(report)
        if verdict != expect["two_adic"]:
            bad.append(f"2-adic verdict {verdict!r} != {expect['two_adic']!r}")
    return bad
