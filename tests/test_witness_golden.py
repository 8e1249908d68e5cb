"""Canonical witnesses stay byte-identical.

``witness_golden.json`` holds ``shortest_path`` results recorded from the
backward distance-to-sink search that the forward probe walk replaced:
the B_n/P_n and C_n/P1 outliers, F4, G2, E8 at nodes 1 and 8, the
D6/P3 and E6/P4 configurations where the lattice bound falls short, a
few tabulated configurations of every classical family and relaxed
edges.  Each entry is one (configuration, d) with its cost and steps.
"""

import json
from pathlib import Path

import pytest

from weylpath import Parabolic, build, shortest_path

GOLDEN = json.loads((Path(__file__).parent / "witness_golden.json").read_text())
CONFIGS = sorted({(e["family"], e["rank"], e["omitted"], e["relaxed"]) for e in GOLDEN},
                 key=lambda c: (c[3], c[0], c[1], c[2]))


def test_golden_covers_every_family_and_the_outliers():
    assert {fam for fam, _, _, _ in CONFIGS} == set("ABCDEFG")
    for config in [("B", 8, 8, False), ("C", 6, 1, False), ("E", 8, 8, False),
                   ("D", 6, 3, False), ("E", 6, 4, False)]:
        assert config in CONFIGS
    assert any(relaxed for *_, relaxed in CONFIGS)


@pytest.mark.parametrize("family,rank,omitted,relaxed", CONFIGS)
def test_witness_matches_golden(family, rank, omitted, relaxed):
    rs = build(family, rank)
    parab = Parabolic.maximal(rank, omitted)
    for e in GOLDEN:
        if (e["family"], e["rank"], e["omitted"], e["relaxed"]) != (family, rank, omitted, relaxed):
            continue
        cost, steps, nodes = shortest_path(rs, parab, e["d"], relaxed=relaxed)
        assert cost == e["cost"]
        assert [[list(c), r] for c, r in steps] == e["steps"]
        assert len(nodes) == len(steps) + 1
