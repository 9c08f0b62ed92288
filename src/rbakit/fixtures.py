"""Bundled fixtures: small groups, the Petersen scheme and the canonical rank-7 example."""

from __future__ import annotations

from importlib import resources

from .core import RBA
from .ingest import from_group, from_scheme

__all__ = ["fixture_text", "load_fixture", "FIXTURES"]

FIXTURES = {
    "c2": "c2.cayley",
    "s3": "s3.cayley",
    "d8": "d8.cayley",
    "petersen": "petersen.scheme",
    "s3.rba": "s3.rba",
    "rank7_h": "rank7_h.rba",
}


def fixture_text(name: str) -> str:
    """Text of a bundled fixture, named by a key or a file name of FIXTURES."""
    fname = FIXTURES.get(name, name)
    if fname not in FIXTURES.values():
        raise KeyError(f"unknown fixture {name!r}")
    return (resources.files("rbakit") / "fixtures" / fname).read_text(encoding="utf-8")


def load_fixture(name: str) -> RBA:
    """RBA for a bundled fixture: .rba files parse directly, .cayley via from_group,
    .scheme via from_scheme."""
    fname = FIXTURES.get(name, name)
    text = fixture_text(fname)
    if fname.endswith(".rba"):
        return RBA.from_text(text)
    if fname.endswith(".cayley"):
        return from_group(text)
    return from_scheme(text)
