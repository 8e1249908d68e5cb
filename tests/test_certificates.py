import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from weylpath import (
    Certificate, Parabolic, RootSystem, RootSystemError, RootSystemType, build,
    best_certificate, catalog_certificate, catalog_pair_choices,
    certificate_from_dict, certificate_to_dict, check_certificate, clear_caches,
    dijkstra_order, dump_certificate, epsilon_to_root, greedy_certificate, load_certificate,
    path_certificate, shortest_path, target_weight, verify,
)
from weylpath import certificates, vanishing
from weylpath.certificates import MAX_CERTIFICATE_RANK, _eps_entries
from weylpath.cli import main

ROOT = Path(__file__).resolve().parents[1]


def P(rank, d):
    return Parabolic.maximal(rank, d)


def test_epsilon_to_root_examples():
    assert epsilon_to_root(build("A3"), (1, -1, 0, 0)) == (1, 0, 0)
    n = 6
    rs = build("D", n)
    e1_plus_en = epsilon_to_root(rs, (1, 0, 0, 0, 0, 1))
    assert e1_plus_en == (1, 1, 1, 1, 0, 1)
    rs = build("C5")
    for d in range(1, 5):
        vec = [0] * 5
        vec[d - 1] = 2
        coords = epsilon_to_root(rs, tuple(vec))
        assert coords == tuple([0] * (d - 1) + [2] * (5 - d) + [1])


def test_conversion_refuses_halves_and_negative_roots():
    # e1 in C3 has coordinates (1, 1, 1/2): the odd half is a Fraction,
    # which no root's coordinates hold.
    with pytest.raises(RootSystemError, match=r"epsilon vector \(1, 0, 0\) is not a root"):
        epsilon_to_root(build("C3"), (1, 0, 0))
    # e2 - e1 is a root of D5, but a negative one, so no certificate entry.
    with pytest.raises(RootSystemError, match=r"epsilon vector \(-1, 1, 0, 0, 0\)"):
        _eps_entries(build("D5"), (((2, 1), (1, -1)),))


def test_epsilon_to_root_rejects_non_roots():
    with pytest.raises(RootSystemError):
        epsilon_to_root(build("A3"), (1, 1, -1, -1))
    with pytest.raises(RootSystemError):
        epsilon_to_root(build("D5"), (1, 1, 1, 0, 0))
    # only plain ints: these all used to read as e1 - e2
    for eps in [(1.0, -1.0, 0, 0), (True, -1, 0, 0), ("1", "-1", 0, 0)]:
        with pytest.raises(RootSystemError):
            epsilon_to_root(build("A3"), eps)
    for label in ("A3", "B3", "C3", "D4"):
        with pytest.raises(RootSystemError):
            epsilon_to_root(build(label), ())


CONFIGS = (
    [("A", 1, 1)]
    + [("A", r, c) for r in range(2, 13) for c in range(1, r + 1)]
    + [("C", n, n) for n in range(2, 11)]
    + [("D", 3, p) for p in (1, 2, 3)]
    + [("D", n, 1) for n in range(4, 13)]
    + [("D", n, n) for n in range(4, 13)]
    + [("D", n, n - 1) for n in range(4, 13)]
    + [("E", 6, 1), ("E", 6, 6), ("E", 7, 7)]
)


@pytest.mark.parametrize("family,rank,p", CONFIGS)
def test_catalog_certificates_are_valid(family, rank, p):
    rs = build(family, rank)
    parab = P(rank, p)
    for d in range(1, rank + 1):
        cert = catalog_certificate(rs, parab, d)
        assert cert is not None
        rep = check_certificate(rs, cert)
        assert rep.valid, (family, rank, p, d, rep.failures)
        assert rep.cost == dijkstra_order(rs, parab, d)


# sha256 over every catalog answer below, None included, then the D_n/P1
# pair choices; any change to a tabulated tuple or its order moves it.
CATALOG_DIGEST = "cbff01c3ebb06c9e2c41d8923871137e80994b7a3abfb237088c368749a48f27"


def test_catalog_entries_are_pinned():
    labels = ([f"A{n}" for n in range(1, 25)] + [f"B{n}" for n in range(2, 25)]
              + [f"C{n}" for n in range(2, 25)] + [f"D{n}" for n in range(3, 25)]
              + ["E6", "E7", "E8", "F4", "G2"])
    digest = hashlib.sha256()
    tabulated = 0
    for label in labels:
        rs = build(label)
        n = rs.rank
        for p in range(1, n + 1):
            for d in range(1, n + 1):
                cert = catalog_certificate(rs, P(n, p), d)
                tabulated += cert is not None
                digest.update(repr(None if cert is None else cert.entries).encode())
        if rs.rst.family == "D":
            for d in range(1, n - 1):
                digest.update(repr([c.entries for c in catalog_pair_choices(rs, d)]).encode())
    assert tabulated == 6109
    assert digest.hexdigest() == CATALOG_DIGEST


def test_catalog_flips_are_diagram_flips():
    def entries(rs, p, d):
        return catalog_certificate(rs, P(rs.rank, p), d).entries

    for n in range(1, 13):
        rs = build("A", n)
        for c in range(1, n + 1):
            if c > n + 1 - c:
                for d in range(1, n + 1):
                    flipped = tuple((coords[::-1], m) for coords, m in entries(rs, n + 1 - c, n + 1 - d))
                    assert entries(rs, c, d) == flipped, (n, c, d)
    for n in range(3, 13):
        rs = build("D", n)
        swap = {n - 1: n, n: n - 1}
        for d in range(1, n + 1):
            flipped = tuple(((*coords[:-2], coords[-1], coords[-2]), m)
                            for coords, m in entries(rs, n, swap.get(d, d)))
            assert entries(rs, n - 1, d) == flipped, (n, d)
    rs = build("E6")
    perm = {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}
    for d in range(1, 7):
        flipped = []
        for coords, m in entries(rs, 1, perm[d]):
            image = [0] * 6
            for j in range(1, 7):
                image[perm[j] - 1] = coords[j - 1]
            flipped.append((tuple(image), m))
        assert entries(rs, 6, d) == tuple(flipped), d


def test_catalog_orthogonality_pattern_type_d():
    # tabulated tuples are orthogonal except the chained groupings in the
    # doubled range n+1-d <= d <= n-2 with an odd middle block, where no
    # orthogonal tuple of minimal cost exists at all
    for n in range(4, 13):
        rs = build("D", n)
        parab = P(n, n)
        for d in range(1, n + 1):
            rep = check_certificate(rs, catalog_certificate(rs, parab, d))
            chained = (n + 1 - d <= d <= n - 2) and (2 * d - n) % 2 == 1
            if chained:
                assert not rep.strict and rep.valid, (n, d)
            elif d < n + 1 - d or d > n - 2:
                assert rep.strict, (n, d, rep.failures)


def test_exceptional_tuples_sequential_where_not_orthogonal():
    seq_only = {("E6", 1): {3, 4, 5}, ("E7", 7): {3, 4, 5, 6}}
    for (label, p), ds in seq_only.items():
        rs = build(label)
        parab = P(rs.rank, p)
        for d in range(1, rs.rank + 1):
            rep = check_certificate(rs, catalog_certificate(rs, parab, d))
            assert rep.valid
            assert rep.strict == (d not in ds), (label, d)


def test_d_node1_every_pair_choice_works():
    for n in (4, 6, 10):
        rs = build("D", n)
        for d in range(1, n - 1):
            choices = catalog_pair_choices(rs, d)
            assert len(choices) == n - d
            for cert in choices:
                rep = check_certificate(rs, cert)
                assert rep.valid and rep.strict


@pytest.mark.parametrize("d", [True, 0, -1, 6])
def test_pair_choices_check_the_index(d):
    with pytest.raises(RootSystemError, match=f"simple index {d!r}"):
        catalog_pair_choices(build("D5"), d)


def test_no_catalog_for_uncovered_configurations():
    assert catalog_certificate(build("B4"), P(4, 4), 2) is None
    assert catalog_certificate(build("C5"), P(5, 1), 1) is None
    assert catalog_certificate(build("D6"), P(6, 3), 1) is None
    assert catalog_certificate(build("E7"), P(7, 1), 1) is None


@pytest.mark.parametrize("n", range(2, 11))
def test_path_certificates_cover_spin_b(n):
    rs = build("B", n)
    parab = P(n, n)
    for d in range(1, n + 1):
        cert = path_certificate(rs, parab, d)
        rep = check_certificate(rs, cert)
        assert rep.valid, (n, d, rep.failures)
        assert rep.cost == dijkstra_order(rs, parab, d)


def test_best_certificate_prefers_catalog():
    rs = build("E6")
    assert best_certificate(rs, P(6, 1), 1).origin == "catalog"
    assert best_certificate(build("B3"), P(3, 3), 3).origin == "greedy"


def _closed_form(family, n, p, d):
    """The observed classical profile m_d of family_n/P_p (ROADMAP item 3)."""
    if family == "A":
        return min(d, p, n + 1 - d, n + 1 - p)
    if family == "C":
        return min(d, p)
    if family == "D" and p >= n - 1 and d >= n - 1:
        # the two spin nodes: even n gives n/2 at d = p and (n - 2)/2 at the other
        return (n - 1) // 2 if n % 2 else n // 2 - (d != p)
    # B, and D below its spin nodes: the B_n form with d = n standing for d >= n - 1
    if d < p:
        return d
    if d < n - (family == "D"):
        return p + p % 2
    return (p + 1) // 2


GREEDY_LABELS = (
    [f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 13)]
    + [f"C{n}" for n in range(2, 13)] + [f"D{n}" for n in range(3, 13)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def test_greedy_certificates_are_exact_and_classical_profiles_closed():
    # Every maximal parabolic up to rank 8, E6-E8, F4 and G2 included, and
    # A-D up to rank 12: 2762 cells, about 1 s cold (under 6 s allowed).
    # The greedy tuple passes the full check and costs exactly the path
    # order, and the A-D orders (D from rank 4) follow the closed forms.
    start = time.perf_counter()
    cells = 0
    for label in GREEDY_LABELS:
        rs = build(label)
        family, n = rs.rst.family, rs.rank
        for p in range(1, n + 1):
            parab = P(n, p)
            for d in range(1, n + 1):
                cert = greedy_certificate(rs, parab, d)
                rep = check_certificate(rs, cert)
                m = dijkstra_order(rs, parab, d)
                assert cert.origin == "greedy" and rep.valid, (label, p, d, rep.failures)
                assert rep.cost == m, (label, p, d)
                if family in "ABCD" and not (family == "D" and n == 3):
                    assert m == _closed_form(family, n, p, d), (label, p, d)
                cells += 1
    assert cells == 2762
    assert time.perf_counter() - start < 6


def test_greedy_certificate_checks_its_arguments():
    rs = build("B4")
    for d in (0, 5, True):
        with pytest.raises(RootSystemError):
            greedy_certificate(rs, P(4, 4), d)
    with pytest.raises(RootSystemError):
        greedy_certificate(rs, P(5, 4), 1)


def _old_best_certificate(rs, parab, d):
    """The certificate route that walked the witness where no catalog tuple is."""
    cert = catalog_certificate(rs, parab, d)
    return cert if cert is not None else path_certificate(rs, parab, d)


def _refuse(*args, **kwargs):
    raise AssertionError("the canonical witness was walked")


WITNESS_FREE = [("B", 5, 5), ("C", 6, 1), ("D", 6, 3), ("E", 8, 4), ("F", 4, 2)]


def test_verify_never_walks_a_witness(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(sys.modules["weylpath.verify"], "best_certificate", _old_best_certificate)
        want = [verify(*config) for config in WITNESS_FREE]
    witnesses = [shortest_path(build("B5"), P(5, 5), d)[1] for d in range(1, 6)]
    clear_caches()
    for module in (vanishing, certificates):
        monkeypatch.setattr(module, "shortest_path", _refuse)
    monkeypatch.setattr(certificates, "path_certificate", _refuse)
    assert [verify(*config) for config in WITNESS_FREE] == want
    # Only verify's own binding walks witnesses, and only on request.
    assert verify("B", 5, 5, with_witnesses=True).witnesses == tuple(witnesses)


def _stuck_search_data(rst, d):
    """The step data at d, with a walk that yields nothing after its first step."""
    search = vanishing._search_data(rst, d)
    calls = []

    def walk(chi, v, slack):
        calls.append(v)
        if len(calls) == 1:
            yield from search.walk(chi, v, slack)

    return search._replace(walk=walk)


def test_stuck_greedy_walk_fails_its_row(monkeypatch):
    rs, parab = build("B5"), P(5, 5)
    full = [greedy_certificate(rs, parab, d) for d in range(1, 6)]
    monkeypatch.setattr(certificates, "_search_data", _stuck_search_data)
    monkeypatch.setattr(certificates, "path_certificate", _refuse)
    monkeypatch.setattr(certificates, "shortest_path", _refuse)
    stuck = [greedy_certificate(rs, parab, d) for d in range(1, 6)]
    assert [c.entries for c in stuck] == [c.entries[:1] for c in full]
    assert any(len(c.entries) > 1 for c in full)
    for row, cert in zip(verify("B", 5, 5).rows, full):
        if len(cert.entries) > 1:
            assert (row.certificate_cost, row.agreed) == (None, False), row.d
        else:
            assert (row.certificate_cost, row.agreed) == (row.m_dijkstra, True), row.d


def test_certificate_dict_round_trip():
    rs = build("D5")
    cert = catalog_certificate(rs, P(5, 1), 2)
    data = certificate_to_dict(cert)
    back = certificate_from_dict(json.loads(json.dumps(data)))
    assert back.rst == cert.rst
    assert back.entries == cert.entries
    assert (back.omitted, back.d) == (cert.omitted, cert.d)


def test_certificate_file_round_trip(tmp_path):
    rs = build("E7")
    cert = catalog_certificate(rs, P(7, 7), 7)
    path = tmp_path / "cert.json"
    dump_certificate(cert, path)
    back = load_certificate(path)
    assert back.entries == cert.entries
    assert check_certificate(rs, back).valid


def test_malformed_certificate_data_rejected():
    with pytest.raises(RootSystemError):
        certificate_from_dict({"family": "D", "rank": 5})
    with pytest.raises(RootSystemError):
        certificate_from_dict({
            "family": "Q", "rank": 5, "parabolic_omitted_index": 1, "d": 1,
            "entries": [],
        })


def test_certificate_rank_above_cap_rejected():
    doc = {"family": "A", "rank": 100000, "parabolic_omitted_index": 1, "d": 1, "entries": []}
    with pytest.raises(RootSystemError, match=f"cap of {MAX_CERTIFICATE_RANK}"):
        certificate_from_dict(doc)
    doc["rank"] = MAX_CERTIFICATE_RANK
    assert certificate_from_dict(doc).rst.rank == MAX_CERTIFICATE_RANK


def test_check_cert_cli_rejects_huge_rank_without_building(tmp_path, capsys, monkeypatch):
    def refuse(self, rst):
        raise AssertionError(f"built {rst}")

    monkeypatch.setattr(RootSystem, "__init__", refuse)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"family": "A", "rank": 100000, "parabolic_omitted_index": 1,
                                "d": 1, "entries": []}))
    code = main(["check-cert", str(path)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert str(MAX_CERTIFICATE_RANK) in out.err


# -- hostile certificate documents --------------------------------------------

def _mutate(kind):
    """JSON text of the E7/P7, d=7 catalog certificate with one defect."""
    doc = certificate_to_dict(catalog_certificate(build("E7"), P(7, 7), 7))
    entry = doc["entries"][0]
    if kind == "true_multiplicity":
        entry["multiplicity"] = True
    elif kind == "float_multiplicity":
        entry["multiplicity"] = 1.9
    elif kind == "huge_multiplicity":
        entry["multiplicity"] = "HUGE"
    elif kind == "float_root_coords":
        entry["root_coords"][0] += 0.5
    elif kind == "integral_float_root_coords":
        entry["root_coords"][0] = float(entry["root_coords"][0])
    elif kind == "short_root_coords":
        entry["root_coords"].pop()
    elif kind == "long_root_coords":
        entry["root_coords"].append(0)
    elif kind == "d_above_rank":
        doc["d"] = 8
    elif kind == "d_zero":
        doc["d"] = 0
    elif kind == "parabolic_above_rank":
        doc["parabolic_omitted_index"] = 8
    return json.dumps(doc).replace('"HUGE"', "1e400")


MALFORMED = ["true_multiplicity", "float_multiplicity", "huge_multiplicity",
             "float_root_coords", "integral_float_root_coords", "short_root_coords",
             "long_root_coords", "d_above_rank", "d_zero", "parabolic_above_rank"]


def test_unmutated_document_parses_and_is_valid():
    cert = certificate_from_dict(json.loads(_mutate(None)))
    assert check_certificate(build("E7"), cert).valid


@pytest.mark.parametrize("kind", MALFORMED)
def test_malformed_document_rejected(kind):
    with pytest.raises(RootSystemError, match="malformed certificate data"):
        certificate_from_dict(json.loads(_mutate(kind)))


@pytest.mark.parametrize("kind", MALFORMED)
def test_check_cert_cli_rejects_malformed(kind, tmp_path, capsys):
    path = tmp_path / f"{kind}.json"
    path.write_text(_mutate(kind))
    code = main(["check-cert", str(path)])
    out = capsys.readouterr()
    assert code != 0
    assert out.out == ""
    assert out.err.startswith("error: malformed certificate data")
    assert out.err.count("\n") == 1
    assert "Traceback" not in out.err


# Each shape defect names the field it sits in, and check-cert exits 2.
SHAPE_DEFECTS = {
    "entries_dict": (lambda doc: doc.update(entries={"root_coords": [1, 0, 0]}),
                     "entries must be a list, got dict"),
    "entries_string": (lambda doc: doc.update(entries="root_coords"),
                       "entries must be a list, got str"),
    "entry_list": (lambda doc: doc["entries"].__setitem__(1, [[0, 1, 0], 1]),
                   "entries[1] must be an object, got list"),
    "scalar_root_coords": (lambda doc: doc["entries"][0].update(root_coords=5),
                           "entries[0].root_coords must be a list, got int"),
    "short_root_coords": (lambda doc: doc["entries"][0]["root_coords"].pop(),
                          "entries[0].root_coords [1, 1] has length 2, rank is 3"),
}


@pytest.mark.parametrize("kind", sorted(SHAPE_DEFECTS))
def test_shape_defect_names_its_field(kind, tmp_path, capsys):
    mutate, message = SHAPE_DEFECTS[kind]
    doc = certificate_to_dict(catalog_certificate(build("A3"), P(3, 2), 2))
    assert [e["root_coords"] for e in doc["entries"]] == [[1, 1, 1], [0, 1, 0]]
    mutate(doc)
    with pytest.raises(RootSystemError) as exc:
        certificate_from_dict(doc)
    assert str(exc.value) == f"malformed certificate data: {message}"
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    assert main(["check-cert", str(path)]) == 2
    assert capsys.readouterr().err == f"error: malformed certificate data: {message}\n"


# A document that is not an object, or that lacks a key, says so.
DOCUMENT_DEFECTS = {
    "list": (lambda doc: [1, 2], "certificate must be an object, got list"),
    "string": (lambda doc: "text", "certificate must be an object, got str"),
    "null": (lambda doc: None, "certificate must be an object, got NoneType"),
    "no_family": (lambda doc: {k: v for k, v in doc.items() if k != "family"},
                  "missing key 'family'"),
    "entry_without_multiplicity": (lambda doc: {**doc, "entries": [{"root_coords": [1, 1, 1]}]},
                                   "entries[0] has no 'multiplicity'"),
    "entry_without_root_coords": (lambda doc: {**doc, "entries": [{"multiplicity": 1}]},
                                  "entries[0] has no 'root_coords'"),
}


@pytest.mark.parametrize("kind", sorted(DOCUMENT_DEFECTS))
def test_document_defect_names_document_or_key(kind):
    replace, message = DOCUMENT_DEFECTS[kind]
    doc = replace(certificate_to_dict(catalog_certificate(build("A3"), P(3, 2), 2)))
    with pytest.raises(RootSystemError) as exc:
        certificate_from_dict(json.loads(json.dumps(doc)))
    assert str(exc.value) == f"malformed certificate data: {message}"


# The coordinate check is one pass over the value types; its message still
# names the first value that is not a plain integer.
BAD_COORDINATES = [True, False, 1.0, 0.5, "1", None, [1], {"x": 1}]


@pytest.mark.parametrize("bad", BAD_COORDINATES, ids=lambda v: type(v).__name__ + repr(v))
def test_root_coordinate_of_wrong_type_rejected(bad):
    doc = certificate_to_dict(catalog_certificate(build("A3"), P(3, 2), 2))
    doc["entries"][0]["root_coords"][1] = bad
    doc["entries"][0]["root_coords"][2] = 2.5
    with pytest.raises(RootSystemError) as exc:
        certificate_from_dict(doc)
    assert str(exc.value) == (
        f"malformed certificate data: root coordinate must be an integer, got {bad!r}")


def test_root_coordinates_of_any_integer_size_accepted():
    doc = certificate_to_dict(catalog_certificate(build("A3"), P(3, 2), 2))
    doc["entries"][0]["root_coords"] = [10 ** 40, -(10 ** 40), 0]
    cert = certificate_from_dict(doc)
    assert cert.entries[0][0] == (10 ** 40, -(10 ** 40), 0)
    rep = check_certificate(build("A3"), cert)
    assert not rep.roots_ok and not rep.valid


@pytest.mark.parametrize("bad", [True, 1.0, 2.0], ids=repr)
def test_multiplicity_that_is_not_an_int_fails_membership(bad):
    # A Certificate built in Python skips the parser's type checks; True
    # and 1.0 pair and sum like 1, so without this check the tuple was valid.
    rs, parab = build("E7"), P(7, 7)
    cert = catalog_certificate(rs, parab, 4)
    (c, n), *rest = cert.entries
    assert n == 1 and check_certificate(rs, cert).valid
    rep = check_certificate(rs, cert._replace(entries=((c, bad), *rest)))
    assert not rep.roots_ok and not rep.valid
    assert f"multiplicity {bad!r} is not an integer for {c}" in rep.failures


def test_multiplicities_that_are_not_ints_are_listed_under_the_cap():
    from weylpath.vanishing import MAX_PAIR_FAILURES

    rs = build("C40")
    rep = check_certificate(rs, Certificate(rs.rst, 1, 1, tuple((c, 1.0) for c in rs.positive_roots)))
    lines = [f for f in rep.failures if f.startswith("multiplicity")]
    assert len(lines) == MAX_PAIR_FAILURES + 1
    assert lines[-1] == f"multiplicity not an integer: list cut after {MAX_PAIR_FAILURES} entries"


def test_repeated_non_orthogonal_pair_reported_once():
    rs = build("A2")
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    cert = Certificate(rst=rs.rst, omitted=1, d=1, entries=((a1, 1), (a2, 1), (a1, 1), (a2, 1)))
    rep = check_certificate(rs, cert)
    assert not rep.orthogonal
    assert [f for f in rep.failures if f.startswith("(b)")] == [
        f"(b) {a1} and {a2} are not orthogonal"]


def test_check_cert_cli_time_is_linear_in_entries(tmp_path):
    # 100 000 entries cycling through the four A3 roots outside the Levi
    # at d = 2: clause (b) compares four distinct roots, not 5e9 pairs.
    rs = build("A3")
    roots = [list(c) for c in rs.positive_roots if c[1]]
    doc = {"family": "A", "rank": 3, "parabolic_omitted_index": 2, "d": 2,
           "entries": [{"root_coords": roots[k % 4], "multiplicity": 1}
                       for k in range(100_000)]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "weylpath.cli", "check-cert", str(path), "--format", "json"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["valid"] is False and payload["cost"] == 100_000
    assert elapsed < 2.0, elapsed


def test_check_cert_cli_caps_clause_b_on_every_root(tmp_path):
    # Each of the 1600 positive roots of C40 once: over 100 000
    # non-orthogonal pairs, of which clause (b) lists only the first
    # MAX_PAIR_FAILURES and one line saying the list was cut.
    from weylpath.vanishing import MAX_PAIR_FAILURES

    rs = build("C40")
    doc = {"family": "C", "rank": 40, "parabolic_omitted_index": 1, "d": 1,
           "entries": [{"root_coords": list(c), "multiplicity": 1} for c in rs.positive_roots]}
    path = tmp_path / "every_root.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "weylpath.cli", "check-cert", str(path)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    clause_b = [line for line in proc.stderr.splitlines() if line.startswith("  ! (b)")]
    assert len(clause_b) == MAX_PAIR_FAILURES + 1
    assert clause_b[-1] == f"  ! (b) list cut after {MAX_PAIR_FAILURES} non-orthogonal pairs"
    assert "orthogonal: FAIL" in proc.stdout
    assert elapsed < 2.0, elapsed


def test_check_cert_caps_every_per_entry_clause(tmp_path, capsys):
    # The 1600-root document fails clause (c) and Levi membership on 1521
    # entries each.  Every per-entry clause prints at most
    # MAX_PAIR_FAILURES lines, then one line saying its list was cut.
    from weylpath.vanishing import MAX_PAIR_FAILURES

    cap = MAX_PAIR_FAILURES + 1
    checks = {"(b)": "(b)", "(c)": "(c)", "Levi": "in the Levi at index 1",
              "positive": "not a positive root", "multiplicity": "multiplicity"}
    rs = build("C40")
    path = tmp_path / "every_root.json"

    def printed(entries):
        doc = {"family": "C", "rank": 40, "parabolic_omitted_index": 1, "d": 1,
               "entries": [{"root_coords": list(c), "multiplicity": n} for c, n in entries]}
        path.write_text(json.dumps(doc))
        assert main(["check-cert", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        return lines, {name: sum(key in line for line in lines) for name, key in checks.items()}

    lines, counts = printed([(c, 1) for c in rs.positive_roots])
    assert counts == {"(b)": cap, "(c)": cap, "Levi": cap, "positive": 0, "multiplicity": 0}
    for check in ("(c)", "in the Levi at index 1:"):
        assert f"  ! {check} list cut after {MAX_PAIR_FAILURES} entries" in lines
    # Zero multiplicities and non-roots stop (b) and (c) from running.
    lines, counts = printed([(c, 0) for c in rs.positive_roots] + [((2,) + (0,) * 39, 1)] * 100)
    assert counts == {"(b)": 0, "(c)": 0, "Levi": cap, "positive": cap, "multiplicity": cap}
    for check in ("multiplicity < 1:", "not a positive root:"):
        assert f"  ! {check} list cut after {MAX_PAIR_FAILURES} entries" in lines


# -- the clauses that valid reads ---------------------------------------------

def _bench_workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unparsed(doc):
    """The certificate a document names, built without the parser's checks."""
    return Certificate(rst=RootSystemType(doc["family"], doc["rank"]),
                       omitted=doc["parabolic_omitted_index"], d=doc["d"],
                       entries=tuple((tuple(e["root_coords"]), e["multiplicity"])
                                     for e in doc["entries"]))


def _mutated(workloads, kind, cert, rng):
    """``cert`` under one certs-stream mutation, as the stream's JSON reads back."""
    text = json.dumps(workloads._mutate(kind, certificate_to_dict(cert), rng))
    return _unparsed(json.loads(text.replace(f'"{workloads._HUGE}"', "1e400")))


VALID_FIELDS = ("valid", "cost", "roots_ok", "outside_levi", "sum_matches",
                "ladder_sequential", "cost_matches")


def _assert_non_strict_matches(rs, cert):
    try:
        full = check_certificate(rs, cert)
    except RootSystemError as exc:
        with pytest.raises(RootSystemError, match=re.escape(str(exc))):
            check_certificate(rs, cert, strict=False)
        return
    rep = check_certificate(rs, cert, strict=False)
    assert [getattr(rep, f) for f in VALID_FIELDS] == [getattr(full, f) for f in VALID_FIELDS], cert
    assert rep.orthogonal is None and rep.ladder_uniform is None
    assert rep.failures == tuple(f for f in full.failures if not f.startswith(("(b)", "(c)")))


NON_STRICT_LABELS = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7"]
)


@pytest.mark.parametrize("label", NON_STRICT_LABELS)
def test_non_strict_check_matches_the_full_check(label):
    rs = build(label)
    n = rs.rank
    for p in range(1, n + 1):
        for d in range(1, n + 1):
            for cert in (catalog_certificate(rs, P(n, p), d), path_certificate(rs, P(n, p), d),
                         greedy_certificate(rs, P(n, p), d)):
                if cert is not None:
                    _assert_non_strict_matches(rs, cert)


def test_non_strict_check_matches_the_full_check_under_every_mutation():
    workloads = _bench_workloads()
    rng = random.Random(25)
    bases = [catalog_certificate(build("E7"), P(7, 7), 4),
             catalog_certificate(build("D6"), P(6, 1), 2),
             path_certificate(build("B5"), P(5, 5), 5),
             greedy_certificate(build("B5"), P(5, 5), 5),
             greedy_certificate(build("D6"), P(6, 3), 4)]
    for kind in workloads.MUTATIONS:
        for base in bases:
            cert = _mutated(workloads, kind, base, rng)
            _assert_non_strict_matches(build(cert.rst), cert)


@pytest.mark.parametrize("strict", [True, False])
def test_certificate_with_no_entries(strict):
    # The certs stream's wrong_sum_drop on A7/P3 at d = 1 deletes the one entry.
    workloads = _bench_workloads()
    rs = build("A7")
    cert = _mutated(workloads, "wrong_sum_drop", catalog_certificate(rs, P(7, 3), 1),
                    random.Random(0))
    assert cert.entries == ()
    rep = check_certificate(rs, cert, strict=strict)
    assert not rep.valid and not rep.sum_matches
    target = target_weight(rs, P(7, 3), 1).root_coords
    assert [f for f in rep.failures if f.startswith("(a)")] == [
        f"(a) sum {(0,) * 7} != target {target}"]
