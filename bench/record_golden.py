"""Record the benchmark's golden data from the current checkout.

    python3 bench/record_golden.py

Writes ``bench/golden/<workload>.json``: the report and suite JSON
digests of ``sweep`` and ``lattice-wall``, the ``exceptional``
profiles, and the ``certs`` corpus with the failures this checkout
shows on the malformed kinds.  The files in the repository were
recorded from the commit that introduced the benchmark; a change that
claims a gain must not re-record them.
"""

from __future__ import annotations

import json
import sys

# worker puts the checkout's src/ on sys.path, so it is imported first.
from worker import check_document, sha256
from weylpath import (
    Parabolic, build, catalog_certificate, certificate_to_dict, dijkstra_order,
    lattice_lower_bound, path_certificate, report_to_json, suite_to_json,
    tabulated_configurations, verify, verify_suite,
)
from tracing import NullTracer
from workloads import (
    CERT_KINDS, CERTS_MAX_RANK, EXCEPTIONAL, GOLDEN_DIR, LATTICE_WALL,
    SWEEP_MAX_RANK, config_key, make_inputs,
)

# Seeds whose ``certs`` streams, made exactly as the benchmark makes
# them, are run to collect the failure modes of the malformed kinds.
FAILURE_SEEDS = range(8)


def digests(configs) -> dict:
    return {config_key(*c): sha256(report_to_json(verify(c[0], c[1], omitted=c[2])))
            for c in configs}


def sweep() -> dict:
    suite = verify_suite(SWEEP_MAX_RANK)
    order = [[r.family, r.rank, r.omitted] for r in suite.reports]
    return {
        "max_rank": SWEEP_MAX_RANK,
        "suite_order": order,
        "report_sha256": digests(order),
        "suite_sha256": sha256(suite_to_json(suite)),
    }


def exceptional() -> dict:
    profiles = {}
    for family, rank, omitted in EXCEPTIONAL:
        rs = build(family, rank)
        parab = Parabolic.maximal(rank, omitted)
        ds = range(1, rank + 1)
        profiles[config_key(family, rank, omitted)] = {
            "order": [dijkstra_order(rs, parab, d) for d in ds],
            "lattice": [lattice_lower_bound(rs, parab, d) for d in ds],
        }
    return {"profiles": profiles}


def lattice_wall() -> dict:
    return {"report_sha256": digests(LATTICE_WALL)}


def certs() -> dict:
    corpus = []
    tabulated = list(tabulated_configurations(CERTS_MAX_RANK))
    spin = [("B", n, n) for n in range(2, CERTS_MAX_RANK + 1)]
    for family, rank, omitted in tabulated + spin:
        rs = build(family, rank)
        parab = Parabolic.maximal(rank, omitted)
        for d in range(1, rank + 1):
            cert = catalog_certificate(rs, parab, d)
            origin = "catalog"
            if cert is None:
                cert, origin = path_certificate(rs, parab, d), "path"
            corpus.append({"origin": origin, "doc": certificate_to_dict(cert)})
    warm = [list(c) for c in tabulated + spin]
    known = {}
    for seed in FAILURE_SEEDS:
        inputs = make_inputs("certs", seed, {"warm": warm, "corpus": corpus})
        for kind, text, _ in inputs["docs"]:
            verdict, _ = check_document(NullTracer(), text)
            if verdict not in CERT_KINDS[kind]:
                known.setdefault(kind, set()).add(verdict)
    return {
        "warm": warm,
        "known_failures": {k: sorted(v) for k, v in sorted(known.items())},
        "corpus": corpus,
    }


def dump(golden: dict) -> str:
    """JSON with one line per element of each top-level list or dict."""
    parts = []
    for key, value in golden.items():
        if isinstance(value, list):
            body = "[\n  " + ",\n  ".join(json.dumps(v) for v in value) + "\n ]"
        elif isinstance(value, dict):
            body = "{\n  " + ",\n  ".join(
                f"{json.dumps(k)}: {json.dumps(v)}" for k, v in value.items()) + "\n }"
        else:
            body = json.dumps(value)
        parts.append(f" {json.dumps(key)}: {body}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> int:
    for name, make in (("sweep", sweep), ("exceptional", exceptional),
                       ("lattice-wall", lattice_wall), ("certs", certs)):
        (GOLDEN_DIR / f"{name}.json").write_text(dump(make()))
        print(f"recorded {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
