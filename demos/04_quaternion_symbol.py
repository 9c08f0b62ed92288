"""The quaternion symbol of the degree-2 component, and Hilbert symbols.

For a noncommutative RBA with exactly one nonreal pair, d = b_p - b_p*
lies in the degree-2 component and squares to a negative multiple of its
identity e. Computed in the algebra, x = m_chi d gives x^2 = a e, some
*-invariant element z = e b_l gives an anticommuting y = z - x z x / a
with y^2 = beta e, and the resulting symbol (a, beta) always satisfies
beta > 0. Over the rationals, splitness is decided place by place with
exact Hilbert symbols.
"""

from rbakit import analyze, hilbert_places, hilbert_symbol
from rbakit.fixtures import load_fixture

for name in ("s3", "d8"):
    q = analyze(load_fixture(name)).data["quaternion"]
    print(f"{name}: x^2 = {q['a']} e, y^2 = {q['beta']} e  "
          f"(pair {q['pair']}, y from element {q['y_label']})")
    print(f"   local Hilbert symbols: {q['local_symbols']} -> verdict {q['verdict']}")

# the classical division algebra: (-1, -1) ramifies exactly at 2 and infinity
print("\n(-1,-1):", hilbert_places(-1, -1), "-> division algebra")

# multiplying either argument by a square never changes the symbol
for p in (2, 3, 5, "inf"):
    assert hilbert_symbol(-3, 4, p) == 1  # 4 is a square, so always split
print("(-3, 4) splits everywhere: a square argument is always a norm")

# the product over all places is +1 (here: the two -1s cancel)
places = hilbert_places(-1, -1)
prod = 1
for v in places.values():
    prod *= v
print("product formula:", prod)
