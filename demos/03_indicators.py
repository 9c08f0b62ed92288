"""Frobenius-Schur indicators and what they say about realizability.

nu(psi) = +1: realizable over the reals; 0: the character is not
real-valued; -1: quaternionic type. The count of *-fixed basis elements
always equals sum nu(psi) psi(b_0).
"""

from rbakit import (
    character_table,
    classify_one_pair,
    degree_map,
    indicator_report,
    rank7_trichotomy,
)
from rbakit.fixtures import load_fixture

for name in ("s3", "d8", "rank7_h"):
    rba = load_fixture(name)
    dm = degree_map(rba)
    table = character_table(rba, dm)
    report = indicator_report(rba, dm, table)
    print(f"{name}: degrees {table.degrees()}  nu {report.nu}  "
          f"s = {report.s_actual} (predicted {report.s_predicted})  "
          f"pattern {report.pattern}")

    verdict = classify_one_pair(rba, table, report)
    if verdict.passed:
        print("   one nonreal pair: a unique degree-2 character, everything real")
    else:
        print(f"   one-pair contract not applicable: {verdict.reason}")

# the rank-7 trichotomy: an admissible indicator pattern forces the number
# of *-fixed basis elements
rba = load_fixture("rank7_h")
dm = degree_map(rba)
table = character_table(rba, dm)
report = indicator_report(rba, dm, table)
tri = rank7_trichotomy(report)
print(f"\nrank-7 pattern {tuple(report.nu)} forces s = {tri.s_class}; "
      f"observed {report.s_actual} ({'consistent' if tri.consistent else 'mismatch'})")
