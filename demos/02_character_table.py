"""Semisimple decomposition: idempotents, character table, *-representations.

The span of the basis is semisimple; the eigenvectors of a random central
element acting on the center are the central primitive idempotents, and the
character table (with multiplicities) falls out of them.
"""

import numpy as np

from rbakit import (
    center_basis,
    central_idempotents,
    character_table,
    charpoly_check,
    degree_map,
    rep_residual,
    star_rep_extract,
    symmetrize,
)
from rbakit.fixtures import load_fixture

s3 = load_fixture("s3")
dm = degree_map(s3)

print("center dimension (= number of irreducible characters):",
      center_basis(s3).shape[0])

table = character_table(s3, dm)
print("\ncentral primitive idempotents: rank L(e) =",
      central_idempotents(s3)[1].tolist(), "= degree^2")

print("\ncharacter table (degree | values | multiplicity):")
for char in table:
    print(f"  {char.degree}  {[str(v) for v in char.values]}  m = {char.multiplicity}")

# extract a real 2x2 *-representation of the degree-2 character
chi = table.degree_two()[0]
rep = star_rep_extract(s3, dm, chi)
product, star = rep_residual(s3, rep)
print("\n2x2 *-representation: X(b_i) X(b_j) = sum_k lam[i,j,k] X(b_k) with residual",
      f"{product:.2e},\n  X(b_{{i*}}) = X(b_i)^T with residual {star:.2e}")
print("X(r) =")
print(np.round(rep[1], 6))
print("traces match the character row:",
      np.allclose(np.einsum("iaa->i", rep), chi.values_raw.real))

# characteristic polynomials snap to rationals (rational field of definition)
polys = charpoly_check(rep)
print("\nchar poly of X(r):", [str(c) for c in polys[1]], "(t^2 + t + 1)")

# symmetrization: conjugate a *-rep away and recover *-compatibility
rng = np.random.default_rng(1)
m = rng.uniform(-1, 1, (2, 2)) + np.eye(2)
phi = np.array([m @ rep[i] @ np.linalg.inv(m) for i in range(6)])
fixed = symmetrize(s3, dm, phi)
print("\nafter a random conjugation, symmetrize restores *-compatibility:",
      f"{rep_residual(s3, fixed)[1]:.2e}")
