"""The rank-7 witness: a quaternionic component and a 2-adic obstruction.

A noncommutative rank-7 RBA with a single *-fixed basis element has
indicator pattern (1,1,1,-1): its degree-2 character is quaternionic, so
no real 2x2 *-representation exists, and the structure constants can
never be algebraic integers: each linear character phi != delta satisfies
1 + 2 phi_1 + 2 phi_2 + 2 phi_3 = 0, and 1 + 2(phi_1 + phi_2) is odd.
"""

from fractions import Fraction

import numpy as np

from rbakit import (
    NumericalError,
    character_table,
    degree_map,
    integral_check,
    rep_residual,
    star_rep_extract,
    two_adic_obstruction,
    validate,
)
from rbakit.integrality import (
    RANK7_IMAGES,
    build_rank7_example,
    is_algebraic_integer,
    rank7_exact_data,
)

rba = build_rank7_example()
print(rba)
print("axioms pass:", validate(rba).passed)

dm = degree_map(rba)
table = character_table(rba, dm)
print("\nrecovered character table:")
for char in table:
    print(f"  deg {char.degree}: {[str(v) for v in char.values]}  m = {char.multiplicity}")

# the degree-2 character is quaternionic: extraction of a real 2x2 rep fails
chi = table.degree_two()[0]
try:
    star_rep_extract(rba, dm, chi.idempotent)
except NumericalError as exc:
    print("\nreal 2x2 extraction fails as it must:", exc)

# ... but the quaternion-valued representation works: each quaternion is its
# 4x4 left-multiplication matrix, whose transpose is the conjugate; the images
# are stored exactly as integer matrices A, B with 2 X = A + B sqrt(5)
a, b = RANK7_IMAGES
images = (a + b * np.sqrt(5.0)) / 2
product, star = rep_residual(rba, images)
traces_match = np.allclose(np.einsum("iaa->i", images) / 2, chi.values_raw.real)
print("quaternion-valued representation verifies:",
      product < 1e-9 and star < 1e-9 and traces_match,
      f"(product residual {product:.1e}, star residual {star:.1e})")

# integrality: the tensor provably contains +-sqrt(5)/4
result = integral_check(rba)
print("\nintegral structure constants:", bool(result),
      f"({len(result.offenders)}+ offenders)")
rational, coef = rank7_exact_data()["lam"]  # lam = rational + coef * sqrt(5), exactly
irrational = coef != 0
print("irrational entries (exact):", int(irrational.sum()), "all equal to +-sqrt(5)/4:",
      bool((rational[irrational] == 0).all() and (abs(coef[irrational]) == Fraction(1, 4)).all()))
print("entries that are not algebraic integers:", int((~is_algebraic_integer(rational, coef)).sum()))

# the 2-adic obstruction, straight from the character table
report = two_adic_obstruction(rba, table)
print("\n2-adic verdict:", report.verdict)
for row in report.rows:
    print(f"  pair values {tuple(str(v) for v in row.values)}: "
          f"forced third value {row.phi3_formula_value}, "
          f"2-adic valuations {row.valuations}")
