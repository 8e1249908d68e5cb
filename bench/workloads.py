"""Workload definitions and seeded input generation.

Everything here is plain data: the benchmark derives each workload's
inputs from ``--seed`` and the golden files, never by calling weylpath,
so the program under test receives only the generated inputs.

Why each workload exists (see also ``BENCHMARK.json``):

* ``sweep`` - every configuration of ``verify_suite(SWEEP_MAX_RANK)``,
  one cold ``verify`` at a time, then the cold ``verify_suite`` and
  ``suite_to_json`` that ``weylpath verify-all`` runs.  The B_n spin
  witness search does most of the work; the many small type-A
  configurations expose per-call overhead.
* ``exceptional`` - cold path-order and lattice profiles over every
  maximal parabolic of E6, E7, F4 and G2, plus E8 at nodes 1 and 8.  The
  path order does most of the work; the witness search never runs.
  E8's interior nodes are left out: E8/P7 alone takes tens of seconds.
* ``lattice-wall`` - cold ``verify`` of the last-node C13/D13
  configurations and D13/P1.  The lattice bound does most of the work
  and every certificate is tabulated.
* ``certs`` - a seeded stream of certificate documents through
  ``certificate_from_dict`` and ``check_certificate`` with the oracles
  warmed in set-up, so parsing and checking dominate.

Which end-to-end metric a change to each layer should move:

=======================================  ==========================  ============  =====================
layer                                    moves                       on workload   does not move on
=======================================  ==========================  ============  =====================
certificates.path                        wall_s, peak_rss_mb         sweep         exceptional,
                                                                                   lattice-wall
vanishing.order                          wall_s, config_p50_ms       exceptional
vanishing.lattice                        wall_s                      lattice-wall
vanishing.target, rootsystem.build,      config_p50_ms               sweep
verify.assemble
vanishing.check, certificates.parse      ops_per_s, ok_share         certs
=======================================  ==========================  ============  =====================
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

WORKLOADS = ("sweep", "exceptional", "lattice-wall", "certs")

# Rank 10 is the smallest sweep in which the B_n spin witness search
# (B9 at node 9) outweighs every other layer.
SWEEP_MAX_RANK = 10

EXCEPTIONAL = (
    [("E", 6, p) for p in range(1, 7)]
    + [("E", 7, p) for p in range(1, 8)]
    + [("F", 4, p) for p in range(1, 5)]
    + [("G", 2, p) for p in range(1, 3)]
    + [("E", 8, 1), ("E", 8, 8)]
)

# Path-order profiles stated by acceptance criteria 1 and 2.
CRITERIA_PROFILES = {
    ("E", 6, 1): [2, 2, 3, 4, 3, 2],
    ("E", 7, 7): [2, 3, 4, 6, 5, 4, 3],
}

LATTICE_WALL = [("C", 13, 13), ("D", 13, 13), ("D", 13, 12), ("D", 13, 1)]

# Certificates for the tabulated configurations of rank <= CERTS_MAX_RANK
# (catalog) and for B_n at node n, n <= CERTS_MAX_RANK (path).
CERTS_MAX_RANK = 9

VALID = frozenset({"valid"})
INVALID = frozenset({"invalid"})
# A malformed document must be rejected (RootSystemError) or judged
# invalid; a "valid" verdict or any other exception is a failure.
NOT_VALID = frozenset({"rejected", "invalid"})

# kind -> expected verdicts.  They follow from how the kind is made, not
# from running the checker.  ``catalog`` and ``path`` are the corpus
# documents unchanged; every other kind is a mutation.  The wrong-sum
# kinds are invalid by construction; the malformed kinds are the hostile
# inputs listed in ROADMAP item 5.
CERT_KINDS = {
    "catalog": VALID,
    "path": VALID,
    "wrong_sum_bump": INVALID,
    "wrong_sum_drop": INVALID,
    "bool_multiplicity": NOT_VALID,
    "float_multiplicity": NOT_VALID,
    "huge_multiplicity": NOT_VALID,
    "float_root_coords": NOT_VALID,
    "short_root_coords": NOT_VALID,
    "long_root_coords": NOT_VALID,
    "d_out_of_range": NOT_VALID,
    "parabolic_out_of_range": NOT_VALID,
}
MUTATIONS = tuple(kind for kind in CERT_KINDS if kind not in ("catalog", "path"))

# JSON cannot carry 1e400 from a Python float, so it is spliced in.
_HUGE = "__huge_multiplicity__"


def config_key(family: str, rank: int, omitted: int) -> str:
    return f"{family}{rank}/P{omitted}"


def load_golden(workload: str) -> dict:
    with open(GOLDEN_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def make_inputs(workload: str, seed: int, golden: dict) -> dict:
    """The inputs one pass of ``workload`` runs, fixed by ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        configs = [list(c) for c in golden["suite_order"]]
        rng.shuffle(configs)
        return {"configs": configs, "max_rank": golden["max_rank"]}
    if workload == "exceptional":
        profiles = [list(c) for c in EXCEPTIONAL]
        rng.shuffle(profiles)
        return {"profiles": profiles}
    if workload == "lattice-wall":
        configs = [list(c) for c in LATTICE_WALL]
        rng.shuffle(configs)
        return {"configs": configs}
    if workload == "certs":
        return {"warm": golden["warm"], "docs": cert_stream(rng, golden["corpus"])}
    raise ValueError(f"unknown workload {workload!r}")


def cert_stream(rng: random.Random, corpus: list) -> list:
    """Certificate documents as ``[kind, json_text, expected_cost]``.

    Every corpus document appears once unchanged and once under every
    mutation (each has an entry of multiplicity 1, so every mutation
    applies), so the mix of kinds follows the corpus and no kind is
    weighted by hand.  ``expected_cost`` is the certificate cost (= m_d)
    for the unchanged documents and ``None`` otherwise.  Which entry a
    mutation touches and the order of the stream depend on ``rng``.
    """
    stream = []
    for item in corpus:
        doc = item["doc"]
        cost = sum(e["multiplicity"] for e in doc["entries"])
        stream.append([item["origin"], json.dumps(doc), cost])
        for kind in MUTATIONS:
            mutated = _mutate(kind, copy.deepcopy(doc), rng)
            text = json.dumps(mutated).replace(f'"{_HUGE}"', "1e400")
            stream.append([kind, text, None])
    rng.shuffle(stream)
    return stream


def _mutate(kind: str, doc: dict, rng: random.Random) -> dict:
    entries = doc["entries"]
    k = rng.randrange(len(entries))
    entry = entries[k]
    # Both wrong-sum kinds change the weighted sum by a nonzero multiple
    # of a root, so the sum clause must fail.
    if kind == "wrong_sum_bump":
        entry["multiplicity"] += 1
    elif kind == "wrong_sum_drop":
        del entries[k]
    elif kind == "bool_multiplicity":
        # json.dumps writes True as the JSON literal true
        ones = [e for e in entries if e["multiplicity"] == 1]
        rng.choice(ones)["multiplicity"] = True
    elif kind == "float_multiplicity":
        entry["multiplicity"] += 0.9
    elif kind == "huge_multiplicity":
        entry["multiplicity"] = _HUGE
    elif kind == "float_root_coords":
        j = rng.randrange(len(entry["root_coords"]))
        entry["root_coords"][j] += 0.5
    elif kind == "short_root_coords":
        entry["root_coords"].pop()
    elif kind == "long_root_coords":
        entry["root_coords"].append(0)
    elif kind == "d_out_of_range":
        doc["d"] = doc["rank"] + 1
    elif kind == "parabolic_out_of_range":
        doc["parabolic_omitted_index"] = doc["rank"] + 1
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    return doc
