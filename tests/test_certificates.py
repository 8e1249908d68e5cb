import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from weylpath import (
    Certificate, Parabolic, RootSystem, RootSystemError, build,
    best_certificate, catalog_certificate, catalog_pair_choices,
    certificate_from_dict, certificate_to_dict, check_certificate,
    dijkstra_order, dump_certificate, epsilon_to_root, load_certificate,
    path_certificate,
)
from weylpath.certificates import MAX_CERTIFICATE_RANK
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
    [("A", r, c) for r in range(2, 13) for c in range(1, r + 1)]
    + [("C", n, n) for n in range(2, 11)]
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
    assert best_certificate(build("B3"), P(3, 3), 3).origin == "path"


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
