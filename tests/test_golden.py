"""Reports on the bundled fixtures stay byte-identical.

tests/golden/<fixture>.<mode>.json holds the canonical JSON of
``analyze(load_fixture(fixture))`` in exact mode and with ``force_float``.
A change that alters one of these reports on purpose regenerates the file
and says why.
"""

from pathlib import Path

import pytest

from rbakit.fixtures import FIXTURES, load_fixture
from rbakit.report import analyze

from conftest import TOL

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_report_is_byte_identical(name, mode):
    text = analyze(load_fixture(name), TOL, force_float=mode == "float").to_json()
    assert text == (GOLDEN / f"{name}.{mode}.json").read_text(encoding="utf-8")
