"""Ingesting groups and association schemes; machine-readable reports.

A group Cayley table and the relation matrices of its regular action
produce the same RBA. The analyze() pipeline bundles every check into one
canonical-JSON report: one line with sorted keys and no whitespace, exact
rationals as "p/q" strings, written by one call of json's C encoder.
"""

import json

import numpy as np

from rbakit import analyze, from_group, from_scheme, thin_scheme
from rbakit.fixtures import fixture_text

cayley = fixture_text("s3")
print("Cayley file:")
print(cayley)

via_group = from_group(cayley)
via_scheme = from_scheme(thin_scheme(cayley))
print("group route == scheme route:",
      np.array_equal(via_group.lam, via_scheme.lam))

report = analyze(via_group)
print("\nhuman-readable report:")
print(report.render_text())

payload = json.loads(report.to_json())
print("JSON keys:", sorted(payload))
print("quaternion section:", payload["quaternion"])

# reports are deterministic: same input, same seed, same bytes
assert analyze(via_group).to_json() == report.to_json()
print("\nbyte-identical on re-run: True")
