"""Byte-identity gate for the Hasse diagrams of definable-set lattices.

Every covering with at most three elements and the seeded four-element
coverings of ``test_report_identity`` give one lattice each.  Each lattice
is rendered as ``fileio.dumps(lattice_payload(...))`` and as
``export_dot(...)``, and each rendering is hashed into its own sha256.
The expected digests were recorded from the implementation that found the
covers among the unions of member masks, before the covers were read off
the family's inclusion order, so a change to any node, edge, edge order,
bottom, top or rendering shows up here.  Run the module as a script to
print the digests.
"""

from __future__ import annotations

import hashlib

import pytest

from roughmatroids import build_lattice, definable_family, export_dot, neighborhoods_of_covering
from roughmatroids.fileio import dumps, lattice_payload
from test_report_identity import SAMPLED_FOUR, _coverings

RENDER = {
    "json": lambda diagram: dumps(lattice_payload(diagram)),
    "dot": export_dot,
}

EXPECTED = {
    "dot": "c47e251d2942b2310090707ff2684bd327ba6aafb958578764b693e267b627ae",
    "json": "daf8ec0b0e48a908cebe55d757dad192b159390bd84d027b5d54fd8dd53456eb",
}


def digest(name: str) -> str:
    h = hashlib.sha256()
    for covering in _coverings():
        diagram = build_lattice(definable_family(neighborhoods_of_covering(covering)))
        h.update(RENDER[name](diagram).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(RENDER))
def test_lattices_are_byte_identical_to_the_recorded_digest(name):
    assert digest(name) == EXPECTED[name]


def test_sweep_covers_every_small_covering():
    coverings = _coverings()
    assert len(coverings) == 1 + 5 + 109 + SAMPLED_FOUR
    families = (definable_family(neighborhoods_of_covering(c)) for c in coverings)
    sizes = {len(build_lattice(family).edges) for family in families}
    assert min(sizes) == 1 and max(sizes) == 32


if __name__ == "__main__":
    for name in sorted(RENDER):
        print(f'    "{name}": "{digest(name)}",')
