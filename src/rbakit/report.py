"""Orchestration of the full analysis pipeline and machine-readable reports.

Reports serialize to canonical JSON: one line with sorted keys and no
whitespace, then a newline, written by one call of json's C encoder. Exact
rationals are "p/q" strings, floats plain JSON numbers (shortest round-trip
form), complex values {"im": ..., "re": ...}; nan and inf raise ValueError.
Identical inputs, seed and tolerances give byte-identical output.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .core import (
    DEFAULT_TOL,
    NumericalError,
    RBA,
    ToleranceConfig,
    snap_value,
    to_standard_basis,
    validate,
)
from .decomp import character_table
from .indicator import classify_one_pair, indicator_report, rank7_trichotomy
from .integrality import integral_check, two_adic_obstruction
from .quaternion import symbol

__all__ = [
    "AnalysisReport",
    "analyze",
    "canonical_json",
    "validation_section",
    "integrality_section",
    "encode_value",
    "write_atomic",
]


_AS_IS = frozenset((float, int, str, bool, type(None)))  # the JSON scalars


def encode_value(v):
    """JSON-encodable form of a value; exact values and dict keys become str, as every report
    key must be (json sorts int keys by value). Exact types first, numpy and subclasses after."""
    t = type(v)
    if t in _AS_IS:
        return v
    if t is Fraction:  # a subclass falls through to str(v) too
        return str(v)
    if t is complex:
        return v.real if v.imag == 0.0 else {"re": v.real, "im": v.imag}
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    if isinstance(v, (np.bool_, np.integer)):
        return v.item()
    if isinstance(v, (int, str)):
        return v
    if isinstance(v, (complex, np.complexfloating)):
        return encode_value(complex(v))
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, dict):
        return {str(k): encode_value(x) for k, x in v.items()}
    if isinstance(v, np.ndarray):
        return [encode_value(x) for x in v.tolist()]
    return str(v)


def canonical_json(obj) -> str:
    """Sorted, compact JSON on one line, then "\\n", with encode_value for every leaf
    json cannot encode; nan and inf raise ValueError. One call of json's C encoder.
    Canonical for str keys, which every report has: json sorts int keys by value."""
    return json.dumps(obj, default=encode_value, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


@dataclass
class AnalysisReport:
    """Nested-dict report with canonical JSON rendering."""

    data: dict

    @property
    def overall_pass(self) -> bool:
        return bool(self.data.get("overall_pass"))

    @property
    def exit_code(self) -> int:
        return 0 if self.overall_pass else 1

    def to_json(self) -> str:
        return canonical_json(self.data)

    def render_text(self) -> str:
        def fmt(v):
            if isinstance(v, list):
                return "(" + ", ".join(fmt(x) for x in v) + ")"
            if isinstance(v, dict) and set(v) == {"re", "im"}:
                return f"{v['re']}{v['im']:+}i"
            return str(v)

        d = self.data
        lines = [f"rbakit analysis ({d['meta']['mode']} mode)"]
        rb = d["rba"]
        lines.append(
            f"  rank {rb['rank']}, order n = {fmt(rb['order'])}, "
            f"{rb['star_fixed']} *-fixed, {rb['nonreal_pairs']} nonreal pair(s)"
        )
        val = d["validation"]
        lines.append(f"  axioms: {'pass' if val['passed'] else 'FAIL'} "
                     f"(max residual {val['max_residual']:.2e})")
        if d.get("character_table"):
            ct = d["character_table"]
            lines.append(
                f"  degrees {fmt(ct['degrees'])}  multiplicities {fmt(ct['multiplicities'])}"
            )
            for row in ct["characters"]:
                lines.append(
                    f"    chi = {fmt(row['values'])}  m = {fmt(row['multiplicity'])}  nu = {row['nu']}"
                )
        if d.get("indicators"):
            ind = d["indicators"]
            lines.append(
                f"  indicators {ind['nu']} pattern {ind['pattern']}; "
                f"s = {ind['s_actual']} (predicted {ind['s_predicted']}, "
                f"{'consistent' if ind['consistent'] else 'MISMATCH'})"
            )
        cls_ = d.get("classification") or {}
        if "one_pair" in cls_:
            op = cls_["one_pair"]
            lines.append(
                "  one-nonreal-pair contract: "
                + ("satisfied" if op["passed"] else f"not applicable ({op['reason']})")
            )
        if "rank7_class" in cls_:
            lines.append(f"  rank-7 class: {cls_['rank7_class']} "
                         f"({'consistent' if cls_['rank7_consistent'] else 'MISMATCH'})")
        q = d.get("quaternion")
        if q:
            if q.get("status") == "computed":
                lines.append(
                    f"  quaternion symbol (a, beta) = ({q['a']}, {q['beta']}) -> {q['verdict']}"
                )
                if q.get("local_symbols"):
                    lines.append(f"    local symbols: {q['local_symbols']}")
            else:
                lines.append(f"  quaternion symbol: {q['status']}")
        integ = d.get("integrality")
        if integ:
            lines.append(
                "  structure constants integral: "
                + ("yes" if integ["integral"] else f"no ({integ['offender_count']} offenders)")
            )
            if integ.get("two_adic"):
                lines.append(f"    2-adic obstruction: {integ['two_adic']['verdict']}")
        lines.append(f"overall: {'PASS' if d['overall_pass'] else 'NEGATIVE'}")
        return "\n".join(lines) + "\n"


def validation_section(val) -> dict:
    """The verdict and per-check rows of a ValidationReport."""
    return {"passed": val.passed, "checks": [dict(vars(c)) for c in val.checks]}


def integrality_section(integ) -> dict:
    """The verdict, offender count and first 8 offenders of an integral_check."""
    return {
        "integral": integ.integral,
        "offender_count": integ.count,
        "offenders": [
            {"i": i, "j": j, "k": k, "value": encode_value(v)} for i, j, k, v in integ.offenders
        ],
    }


def _table_section(table, nus):
    rows = [{"degree": c.degree, "values": encode_value(c.values), "multiplicity": encode_value(c.multiplicity),
             "nu": nu, "exact": c.is_exact} for c, nu in zip(table, nus)]
    return {
        "degrees": table.degrees(),
        "multiplicities": encode_value(table.multiplicities()),
        "order": encode_value(table.order),
        "characters": rows,
    }


def analyze(rba: RBA, tol: ToleranceConfig = DEFAULT_TOL, force_float: bool = False) -> AnalysisReport:
    """Run the whole pipeline on an RBA and report.

    The report records every verdict; overall_pass requires the axioms,
    all consistency cross-checks, and integrality (when the tensor is
    integral nothing is flagged; a non-integral tensor is a negative
    mathematical verdict, mirroring the 2-adic theorem's subject).
    The degrees and the standard basis come from one to_standard_basis call.
    """
    if force_float and rba.exact:  # the float RBA over the same lam_float array
        rba = RBA._from_numerators(None, rba.lam_float, rba.star)

    data = {
        "meta": {
            "tool": "rbakit",
            "version": __version__,
            "mode": "exact" if rba.exact else "float",
            "eps_zero": tol.eps_zero,
            "eps_cluster": tol.eps_cluster,
            "eps_residual": tol.eps_residual,
            "seed": tol.rng_seed,
            "source": "<object>",
        },
        "rba": {
            "rank": rba.rank,
            "star": [int(s) for s in rba.star],
            "star_fixed": rba.star_fixed_count(),
            "nonreal_pairs": len(rba.nonreal_pairs()),
        },
    }
    verdicts = []

    val = validate(rba, tol)
    data["validation"] = validation_section(val)
    data["validation"]["max_residual"] = max(c.residual for c in val.checks)
    verdicts.append(val.passed)
    if not val.passed:
        data["rba"]["order"] = None
        data["overall_pass"] = False
        return AnalysisReport(data)

    dm, std, std_dm = to_standard_basis(rba, tol)
    *degrees, order = [*dm.values, dm.n] if dm.exact else snap_value(
        np.append(dm.values_float, dm.n_float), tol.eps_zero)
    data["rba"]["order"], data["rba"]["degrees"] = encode_value(order), encode_value(degrees)
    data["meta"]["mode"] = "exact" if std.exact else "float"  # exact input with unproved degrees runs in floats
    data["rba"]["standard_basis"] = std is rba
    rba, dm = std, std_dm

    table = character_table(rba, dm, tol=tol)
    ind = indicator_report(rba, dm, table, tol)
    data["character_table"] = _table_section(table, ind.nu)
    data["indicators"] = {
        "nu": ind.nu,
        "s_predicted": ind.s_predicted,
        "s_actual": ind.s_actual,
        "consistent": ind.consistent,
        "pattern": ind.pattern,
    }
    verdicts.append(ind.consistent)

    classification = {}
    one_pair = classify_one_pair(rba, table, ind)
    classification["one_pair"] = {"passed": one_pair.passed, "reason": one_pair.reason}
    if rba.rank == 7 and sorted(table.degrees()) == [1, 1, 1, 2]:
        try:
            tri = rank7_trichotomy(ind)
            classification["rank7_class"] = tri.s_class
            classification["rank7_consistent"] = tri.consistent
            verdicts.append(tri.consistent)
        except ValueError as exc:
            classification["rank7_class"] = None
            classification["rank7_error"] = str(exc)
    data["classification"] = classification

    if one_pair.passed:
        try:
            sym = symbol(rba, one_pair.chi, tol)
            data["quaternion"] = {"status": "computed", **encode_value(vars(sym))}
            verdicts.append(sym.verdict != "division")
        except NumericalError as exc:
            data["quaternion"] = {"status": f"failed: {exc}"}
            verdicts.append(False)
    else:
        status = "not applicable: " + one_pair.reason
        if any(c.degree == 2 and nu == -1 for c, nu in zip(table, ind.nu)):
            status += "; degree-2 component is quaternionic (nu = -1), no real 2x2 *-representation"
        data["quaternion"] = {"status": status}

    integ = integral_check(rba, tol)
    data["integrality"] = integrality_section(integ)
    verdicts.append(integ.integral)
    if (
        classification.get("rank7_class") == 1
        and all(c.is_exact for c in table if c.degree == 1)
    ):
        two = two_adic_obstruction(rba, table)
        data["integrality"]["two_adic"] = {
            "verdict": two.verdict,
            "rows": [  # v_2(0) = inf is not a JSON number
                {**encode_value(vars(r)),
                 "valuations": [v if v != float("inf") else "inf" for v in r.valuations]}
                for r in two.rows
            ],
        }
        verdicts.append(not two.obstructed or not integ.integral)

    data["residuals"] = {"validation": data["validation"]["max_residual"]}
    data["overall_pass"] = all(verdicts)
    return AnalysisReport(data)


def write_atomic(path: str, content: str) -> None:
    """Write via a temp file in the target directory, then rename. As open(path, "w"),
    it writes through a symbolic link, and the file gets the old file's mode, else
    0o666 less the umask."""
    path = os.path.realpath(path)
    directory = os.path.dirname(path)
    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        os.umask(umask := os.umask(0))
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        os.chmod(tmp, mode)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
