"""Orchestration of the full analysis pipeline and machine-readable reports.

Reports serialize to canonical JSON: sorted keys, exact rationals as "p/q"
strings, floats as plain JSON numbers (shortest round-trip form), complex
values as {"im": ..., "re": ...}. Identical inputs, seed and tolerances
give byte-identical output.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

from . import __version__
from .core import (
    DEFAULT_TOL,
    NumericalError,
    RBA,
    ToleranceConfig,
    degree_map,
    gram_matrix,
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
    "decode_value",
    "write_atomic",
]


def encode_value(v):
    """JSON-encodable form of a scalar; exact values become strings."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, str)) or v is None:
        return v
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, complex) or isinstance(v, np.complexfloating):
        z = complex(v)
        if z.imag == 0.0:
            return float(z.real)
        return {"re": z.real, "im": z.imag}
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    if isinstance(v, dict):
        return {str(k): encode_value(x) for k, x in v.items()}
    if isinstance(v, np.ndarray):
        return [encode_value(x) for x in v.tolist()]
    return str(v)


def canonical_json(obj) -> str:
    """Sorted, indented JSON, with encode_value for every leaf json cannot encode;
    nan and inf raise ValueError. The bytes are json.dumps(obj, default=encode_value,
    sort_keys=True, indent=2, allow_nan=False) + "\\n", whose pure-Python encoder
    yields a piece per item. Here json's C encoder writes each list or dict of
    scalars, and each list of scalars and complexes {"im": .., "re": ..} (a
    character's values), in one call, and string replacements indent it; a nan or
    inf is found again item by item, in json's order."""
    return _encode(obj, "\n") + "\n"


def _float(x) -> str:
    text = float.__repr__(x)
    if "n" in text:  # nan, inf, -inf
        raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
    return text


# the text of a scalar of exactly these types; a subclass is tested in json's order
_TEXT = {str: encode_basestring_ascii, int: int.__repr__, float: _float,
         bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}
_SCALARS = frozenset(_TEXT)
_FLAT = _SCALARS | {dict}
_COMPLEX = frozenset(("im", "re"))  # the keys of encode_value's complex
# json's C encoder, keys sorted and items separated by \x00, which no string holds
_compact = c_make_encoder(None, None, encode_basestring_ascii, None, ": ", "\x00", True, False, False)


def _encode(o, newline: str) -> str:
    """The JSON text of o, whose nested lines start with newline plus two spaces."""
    text = _TEXT.get(type(o))
    if text is not None:
        return text(o)
    kind, inner = type(o), newline + "  "
    if (kind is dict or kind is list or kind is tuple) and o and _SCALARS.issuperset(
            map(type, o.values() if kind is dict else o)):  # one item a line
        try:
            text = "".join(_compact(o, 0))
            return text[0] + inner + text[1:-1].replace("\x00", "," + inner) + newline + text[-1]
        except ValueError:  # a nan or inf: raised below
            pass
    elif (kind is list or kind is tuple) and dict in (kinds := set(map(type, o))) and kinds <= _FLAT and all(
            x.keys() == _COMPLEX and _SCALARS.issuperset(map(type, x.values())) for x in o if type(x) is dict):
        try:  # a character's values; no string holds \x00: \x00"re": is within a complex, \x00{ opens one
            text, deeper = "\x00" + "".join(_compact(o, 0))[1:-1] + "\x00", inner + "  "
            text = text.replace('\x00"re": ', "," + deeper + '"re": ')
            text = text.replace("\x00{", "\x00{" + deeper).replace("}\x00", inner + "}\x00")
            return "[" + inner + text[1:-1].replace("\x00", "," + inner) + newline + "]"
        except ValueError:
            pass
    for base in (str, int, float):
        if isinstance(o, base):
            return _TEXT[base](o)
    if isinstance(o, (list, tuple)):
        items = map(_encode, o, itertools.repeat(inner))
    elif isinstance(o, dict):
        items = [encode_basestring_ascii(k if isinstance(k, str) else _key(k)) + ": " + _encode(v, inner)
                 for k, v in sorted(o.items())]
    else:
        return _encode(encode_value(o), newline)
    brackets = "{}" if isinstance(o, dict) else "[]"
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1] if o else brackets


def _key(k) -> str:
    """json's text for a dict key that is not a str."""
    if isinstance(k, (float, int)) or k is None:  # bool is an int
        return _encode(k, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def decode_value(v):
    """Inverse of encode_value for scalar leaves ("p/q" strings back to Fraction)."""
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ValueError:
            return v
    if isinstance(v, dict) and set(v) == {"re", "im"}:
        return complex(v["re"], v["im"])
    if isinstance(v, list):
        return [decode_value(x) for x in v]
    if isinstance(v, dict):
        return {k: decode_value(x) for k, x in v.items()}
    return v


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

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls(json.loads(text))

    def render_text(self) -> str:
        def fmt(v):
            if isinstance(v, list):
                return "(" + ", ".join(fmt(x) for x in v) + ")"
            if isinstance(v, dict) and set(v) == {"re", "im"}:
                return f"{v['re']}+{v['im']}i"
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
    return {
        "passed": val.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "residual": c.residual, "detail": c.detail}
            for c in val.checks
        ],
    }


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
    rows = []
    for c, nu in zip(table, nus):
        rows.append(
            {
                "degree": c.degree,
                "values": encode_value(c.values),
                "multiplicity": encode_value(c.multiplicity),
                "nu": nu,
                "exact": c.is_exact,
            }
        )
    return {
        "degrees": table.degrees(),
        "multiplicities": encode_value(table.multiplicities()),
        "order": encode_value(table.order),
        "characters": rows,
        "warnings": list(table.warnings),
    }


def analyze(rba: RBA, tol: ToleranceConfig = DEFAULT_TOL, force_float: bool = False) -> AnalysisReport:
    """Run the whole pipeline on an RBA and report.

    The report records every verdict; overall_pass requires the axioms,
    all consistency cross-checks, and integrality (when the tensor is
    integral nothing is flagged; a non-integral tensor is a negative
    mathematical verdict, mirroring the 2-adic theorem's subject).
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

    dm = degree_map(rba, tol)
    if dm.exact:
        degrees, order = list(dm.values), dm.n
    else:
        *degrees, order = snap_value(np.append(dm.values_float, dm.n_float), tol.eps_zero)
    data["rba"]["order"], data["rba"]["degrees"] = encode_value(order), encode_value(degrees)

    rba, dm, was_standard = to_standard_basis(rba, dm, tol)
    data["rba"]["standard_basis"] = was_standard

    gram_matrix(rba, dm)  # raises if the trace form degenerates

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
            data["quaternion"] = {  # (a, beta), exact where they snapped, and the verdicts
                "status": "computed",
                "a": encode_value(sym.a_exact if sym.a_exact is not None else sym.a),
                "beta": encode_value(sym.beta_exact if sym.beta_exact is not None else sym.beta),
                "field_mode": sym.field_mode,
                "verdict": sym.verdict,
                "local_symbols": encode_value(sym.local_symbols) if sym.local_symbols else None,
                "pair": list(sym.pair),
                "y_label": sym.y_label,
                "anticommute_residual": sym.anticommute_residual,
            }
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
            "rows": [
                {
                    "values": encode_value(list(r.values)),
                    "relation_holds": r.relation_holds,
                    "phi3_formula_value": encode_value(r.phi3_formula_value),
                    "valuations": [encode_value(v if v != float("inf") else "inf") for v in r.valuations],
                    "witness": r.witness,
                }
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
