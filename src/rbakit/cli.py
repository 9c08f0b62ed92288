"""Command-line interface.

Subcommands: analyze, validate, quaternion, hilbert, check-integrality,
example, from-group, from-scheme. Each takes only the flags it reads: the
commands on an .rba file take --json, --tol, --seed (not validate, which
draws no random number), --exact, --float and --out; hilbert takes --json
and --out; example, from-group and from-scheme take --out. Exit codes: 0
all checks pass, 1 a mathematical verdict is negative, 2 input or contract
error (a malformed flag, --exact with --float, a --tol that is not finite
and positive, a seed from --seed or RBA_SEED that is not a non-negative
integer, or a hilbert argument that factoring gives up on).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .core import DEFAULT_TOL, RBA, RBAError, StructuralError, ToleranceConfig, validate
from .fixtures import fixture_text
from .ingest import from_group, from_scheme, parse_cayley
from .quaternion import hilbert_places
from .report import analyze, canonical_json, integrality_section, validation_section, write_atomic
from .integrality import integral_check
from . import __version__

INPUT_ERRORS = (RBAError, ValueError, FileNotFoundError, IsADirectoryError)  # exit code 2


def _tolerances(args) -> ToleranceConfig:
    seed = getattr(args, "seed", 0)  # validate has no --seed and reads no RBA_SEED
    if seed is None:
        env = os.environ.get("RBA_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise StructuralError(f"RBA_SEED must be an integer, got {env!r}") from None
    return ToleranceConfig(DEFAULT_TOL.eps_residual if args.tol is None else args.tol, seed)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_rba(path: str, args) -> RBA:
    if args.exact and args.float:
        raise StructuralError("--exact and --float exclude each other")
    rba = RBA.from_text(_read_source(path))
    if args.exact and not rba.exact:
        raise StructuralError(
            "--exact requested but the input has decimal entries (float mode)"
        )
    if args.float and rba.exact:  # the float RBA over the same lam_float array
        rba = RBA._from_numerators(None, rba.lam_float, rba.star)
    return rba


def _emit(args, text: str) -> None:
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    tol = _tolerances(args)
    batch = args.path != "-" and os.path.isdir(args.path)
    paths = sorted(os.path.join(args.path, f) for f in os.listdir(args.path)
                   if f.endswith(".rba")) if batch else [args.path]
    if not paths:
        raise StructuralError(f"no .rba files in {args.path}")
    worst = 0
    reports = []
    for p in paths:
        try:
            rep = analyze(_load_rba(p, args), tol)
        except INPUT_ERRORS as exc:
            if not batch:  # a single input: main reports it
                raise
            print(f"error: {p}: {exc}", file=sys.stderr)
            worst = 2
            continue
        rep.data["meta"]["source"] = os.path.basename(p) if p != "-" else "<stdin>"
        worst = max(worst, rep.exit_code)
        reports.append(rep)
    if args.json:  # a directory: one JSON array of its reports
        _emit(args, canonical_json([rep.data for rep in reports]) if batch else reports[0].to_json())
    else:
        _emit(args, "".join(rep.render_text() for rep in reports))
    return worst


def _cmd_validate(args) -> int:
    tol = _tolerances(args)
    rba = _load_rba(args.path, args)
    rep = validate(rba, tol)
    if args.json:
        _emit(args, canonical_json(validation_section(rep)))
    else:
        _emit(args, rep.summary() + "\n")
    return 0 if rep.passed else 1


def _cmd_quaternion(args) -> int:
    tol = _tolerances(args)
    report = analyze(_load_rba(args.path, args), tol).data
    if not report["validation"]["passed"]:
        failing = ", ".join(c["name"] for c in report["validation"]["checks"] if not c["passed"])
        _emit(args, canonical_json(report["validation"]) if args.json else f"axioms fail: {failing}\n")
        return 1
    q = dict(report["quaternion"])
    status = q.pop("status")
    if status != "computed":
        raise StructuralError(status)
    if args.json:
        _emit(args, canonical_json(q))
    else:
        _emit(
            args,
            f"(a, beta) = ({q['a']}, {q['beta']})  verdict: {q['verdict']}\n"
            + (f"local symbols: {q['local_symbols']}\n" if q["local_symbols"] else ""),
        )
    return 0 if q["verdict"] in ("split", "real-split-only") else 1


MAX_DIGITS = 4300  # Python's bound on int() of a digit string; exponent notation gets past it


def _hilbert_argument(name: str, token: str) -> Fraction:
    """token as a Fraction with at most MAX_DIGITS digits in its numerator and denominator;
    an exponent too large for that is refused before 10**exponent is built."""
    try:
        exponent = token.lower().partition("e")[2]
        q = None if exponent and abs(int(exponent)) > MAX_DIGITS + len(token) else Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise StructuralError(f"bad rational: {exc}") from exc
    if q is None or max(abs(q.numerator), q.denominator) >= 10**MAX_DIGITS:
        raise StructuralError(f"{name} has more than {MAX_DIGITS} digits in its numerator or denominator")
    return q


def _cmd_hilbert(args) -> int:
    a, b = _hilbert_argument("a", args.a), _hilbert_argument("b", args.b)
    places = hilbert_places(a, b)
    product = 1
    for v in places.values():
        product *= v
    verdict = "split" if all(v == 1 for v in places.values()) else "division"
    payload = {
        "a": a,
        "b": b,
        "places": {str(k): v for k, v in places.items()},
        "product": product,
        "verdict": verdict,
    }
    if args.json:
        _emit(args, canonical_json(payload))
    else:
        _emit(args, f"places: {payload['places']}\nproduct: {product}\nverdict: {verdict}\n")
    return 0 if verdict == "split" else 1


def _cmd_check_integrality(args) -> int:
    tol = _tolerances(args)
    rba = _load_rba(args.path, args)
    result = integral_check(rba, tol)
    payload = integrality_section(result)
    two = None
    if rba.rank == 7 and rba.star_fixed_count() == 1:
        # the only inputs that analyze gives a 2-adic section
        two = analyze(rba, tol).data.get("integrality", {}).get("two_adic")
    if two:
        payload["two_adic"] = two
    if args.json:
        _emit(args, canonical_json(payload))
    else:
        text = "integral\n" if result.integral else (
            f"non-integral ({result.count} offending entries, first {result.offenders[0][:3]})\n"
        )
        if two:
            text += f"2-adic obstruction: {two['verdict']}\n"
        _emit(args, text)
    return 0 if result.integral else 1


def _cmd_example(args) -> int:
    if args.name != "rank7":
        raise StructuralError(f"unknown example {args.name!r} (available: rank7)")
    _emit(args, fixture_text("rank7_h"))
    return 0


def _cmd_from_group(args) -> int:
    rba = from_group(parse_cayley(_read_source(args.path)))
    _emit(args, rba.to_text())
    return 0


def _cmd_from_scheme(args) -> int:
    rba = from_scheme(_read_source(args.path))
    _emit(args, rba.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbakit",
        description="Analyze reality-based algebras with positive degree map.",
    )
    parser.add_argument("--version", action="version", version=f"rbakit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--json": dict(action="store_true", help="machine-readable output"),
        "--tol": dict(type=float, default=None, metavar="EPS",
                      help="residual tolerance (default 1e-8); also sets the zero cut "
                           "min(1e-9, EPS) and the cluster gap max(1e-6, EPS)"),
        "--seed": dict(type=int, default=None, help="RNG seed (default: $RBA_SEED or 0)"),
        "--exact": dict(action="store_true", help="require exact rational mode"),
        "--float": dict(action="store_true", help="force float mode"),
        "--out": dict(default=None, metavar="PATH", help="write output to PATH (atomic)"),
    }
    every = list(flags)
    path = {"path": ".rba file, '-' for stdin"}
    # each subcommand takes only the flags it reads
    for name, func, summary, positional, names in [
        ("analyze", _cmd_analyze, "full pipeline report (file, '-' or directory)", path, every),
        ("validate", _cmd_validate, "check the defining axioms", path,
         [f for f in every if f != "--seed"]),  # nothing in validate draws a random number
        ("quaternion", _cmd_quaternion, "quaternion symbol of the degree-2 component", path, every),
        ("hilbert", _cmd_hilbert, "local Hilbert symbols of a rational pair",
         {"a": "nonzero rational, e.g. -1 or 3/4", "b": "nonzero rational"}, ["--json", "--out"]),
        ("check-integrality", _cmd_check_integrality, "integrality of the structure constants",
         path, every),
        ("example", _cmd_example, "emit a bundled example as .rba text",
         {"name": "example name (rank7)"}, ["--out"]),
        ("from-group", _cmd_from_group, "RBA of a group Cayley table", path, ["--out"]),
        ("from-scheme", _cmd_from_scheme, "RBA of an association scheme", path, ["--out"]),
    ]:
        p = sub.add_parser(name, help=summary)
        for arg, arg_help in positional.items():
            p.add_argument(arg, help=arg_help)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
