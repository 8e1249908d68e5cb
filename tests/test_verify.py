import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

import weylpath.rootsystem
from weylpath import (
    Parabolic, RootSystem, RootSystemError, build, clear_caches, cominuscule_indices,
    dim_quotient, list_minuscule,
    report_from_json, report_to_dict, report_to_json, report_to_markdown,
    suite_to_dict, suite_to_json, suite_to_markdown,
    tabulated_configurations, verify, verify_suite,
)


def test_verify_e6():
    rep = verify("E6", omitted=1)
    assert rep.m_profile == (2, 2, 3, 4, 3, 2)
    assert rep.sum_m == 16 == rep.dim_gp
    assert rep.identity and rep.minuscule
    assert all(r.agreed for r in rep.rows)


def test_verify_e7():
    rep = verify("E7", omitted=7)
    assert rep.m_profile == (2, 3, 4, 6, 5, 4, 3)
    assert rep.sum_m == 27 == rep.dim_gp


def test_verify_c_node1_shortfall():
    for n in (2, 4, 6):
        rep = verify("C", n, omitted=1)
        assert rep.minuscule
        assert rep.sum_m < rep.dim_gp == 2 * n - 1
        assert not rep.identity


def test_dim_quotient():
    assert dim_quotient(build("E6"), Parabolic.maximal(6, 1)) == 16
    assert dim_quotient(build("E7"), Parabolic.maximal(7, 7)) == 27
    assert dim_quotient(build("A5"), Parabolic.maximal(5, 2)) == 8
    assert dim_quotient(build("D6"), Parabolic.maximal(6, 6)) == 15


def test_list_minuscule_matches_classification_table():
    assert list_minuscule("A", 7) == list(range(1, 8))
    assert list_minuscule("B", 6) == [6]
    assert list_minuscule("C", 6) == [1]
    assert list_minuscule("D", 9) == [1, 8, 9]
    assert list_minuscule("E", 6) == [1, 6]
    assert list_minuscule("E", 7) == [7]
    assert list_minuscule("E", 8) == []
    assert list_minuscule("F", 4) == []
    assert list_minuscule("G", 2) == []


def test_report_json_round_trip():
    for kwargs in (dict(), dict(relaxed_edges=True), dict(with_witnesses=True)):
        rep = verify("D5", omitted=1, **kwargs)
        assert report_from_json(report_to_json(rep)) == rep


def test_report_formats_carry_same_numbers():
    rep = verify("D6", omitted=6)
    data = report_to_dict(rep)
    md = report_to_markdown(rep)
    for row in data["rows"]:
        cells = [c.strip() for c in md.splitlines()[5 + row["d"]].split("|")[1:-1]]
        assert cells[0] == str(row["d"])
        assert cells[1] == str(row["m_dijkstra"])
        assert cells[2] == str(row["m_lattice_lb"])
    assert f"sum m_d = {data['sum_m']}, dim G/P = {data['dim_gp']}" in md


def test_relaxed_edges_reported():
    rep = verify("E6", omitted=1, relaxed_edges=True)
    for row in rep.rows:
        assert row.m_dijkstra_relaxed is not None
        assert row.m_dijkstra_relaxed <= row.m_dijkstra


def test_tabulated_configurations_cover_expected_families():
    configs = set(tabulated_configurations(7))
    assert ("E", 6, 1) in configs and ("E", 7, 7) in configs
    assert ("A", 5, 3) in configs
    assert ("D", 7, 6) in configs and ("D", 7, 7) in configs and ("D", 7, 1) in configs
    assert ("C", 7, 7) in configs
    assert not any(f == "B" for f, _, _ in configs)
    assert not any(f == "C" and p == 1 for f, _, p in configs)


def _old_tabulated_configurations(max_rank):
    # The hand list tabulated_configurations held before it was derived
    # from the highest root.
    out = [("A", r, c) for r in range(1, max_rank + 1) for c in range(1, r + 1)]
    out += [("C", n, n) for n in range(2, max_rank + 1)]
    out += [("D", n, p) for n in range(3, max_rank + 1) for p in (1, n - 1, n)]
    if max_rank >= 6:
        out += [("E", 6, 1), ("E", 6, 6)]
    if max_rank >= 7:
        out += [("E", 7, 7)]
    return out


def test_tabulated_configurations_match_old_hand_list():
    for max_rank in range(1, 21):
        assert list(tabulated_configurations(max_rank)) == _old_tabulated_configurations(max_rank)


def test_identity_holds_exactly_at_cominuscule_parabolics():
    labels = ([f"{fam}{n}" for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
               for n in range(lo, 9)] + ["E6", "E7", "F4", "G2"])
    seen = 0
    for label in labels:
        rs = build(label)
        for p in range(1, rs.rank + 1):
            rep = verify(label, omitted=p)
            assert rep.identity == (p in cominuscule_indices(rs)), (label, p)
            for row in rep.rows:
                assert row.c_alpha is None or row.c_alpha <= row.m_lattice_lb, (label, p, row)
                assert row.m_lattice_lb <= row.m_dijkstra, (label, p, row)
            seen += 1
    assert seen == 158


# Path-order and lattice profiles of E8 at every node, from the searches
# that settle one weight at a time (up to about 190 s per node on a
# 2-vCPU VM, so they are not rerun here).
E8_PLAIN_PROFILES = {
    1: ((4, 5, 7, 10, 8, 6, 4, 2), (4, 5, 7, 10, 8, 6, 4, 2)),
    2: ((4, 8, 9, 14, 11, 8, 5, 2), (4, 6, 7, 10, 8, 6, 4, 2)),
    3: ((4, 7, 10, 14, 11, 8, 5, 2), (4, 5, 7, 10, 8, 6, 4, 2)),
    4: ((4, 7, 9, 14, 11, 8, 5, 2), (4, 5, 7, 10, 8, 6, 4, 2)),
    5: ((4, 7, 9, 14, 12, 8, 5, 2), (4, 5, 7, 10, 8, 6, 4, 2)),
    6: ((4, 6, 8, 12, 10, 8, 5, 2), (3, 5, 6, 9, 8, 6, 4, 2)),
    7: ((4, 6, 8, 12, 10, 8, 6, 2), (3, 4, 6, 8, 7, 6, 4, 2)),
    8: ((2, 3, 4, 6, 5, 4, 3, 2), (2, 3, 4, 6, 5, 4, 3, 2)),
}


def test_e8_every_node():
    # E8 has no cominuscule node, so the identity fails at every one.
    rs = build("E8")
    assert cominuscule_indices(rs) == []
    for p in range(1, 9):
        rep = verify("E8", omitted=p)
        assert not rep.identity and rep.sum_m < rep.dim_gp, p
        for row in rep.rows:
            assert row.c_alpha is None or row.c_alpha <= row.m_lattice_lb, (p, row)
            assert row.m_lattice_lb <= row.m_dijkstra, (p, row)
        lattice = tuple(row.m_lattice_lb for row in rep.rows)
        assert (rep.m_profile, lattice) == E8_PLAIN_PROFILES[p], p


def test_dim_quotient_rejects_parabolic_of_wrong_rank():
    for parab in (Parabolic.maximal(5, 5), Parabolic.maximal(2, 1)):
        with pytest.raises(RootSystemError):
            dim_quotient(build("A3"), parab)


def test_suite_small():
    suite = verify_suite(6)
    assert suite.ok
    assert not suite.identity_failures and not suite.disagreements
    assert all(ok for *_, ok in suite.spin_cross_checks)
    assert all(ok for *_, ok in suite.parity_checks)
    assert all(ok for *_, ok in suite.negative_checks)


def test_suite_spin_cross_check_values():
    suite = verify_suite(6)
    by_n = {n: (mb, md) for n, mb, md, _ in suite.spin_cross_checks}
    assert by_n[3][0] == (1, 2, 2)
    assert by_n[3][1] == (1, 2, 1, 2)
    assert by_n[4][0] == (1, 2, 3, 2)
    assert by_n[4][1] == (1, 2, 3, 2, 2)


def test_suite_full_default_ceiling():
    suite = verify_suite(12)
    assert suite.ok
    assert not suite.identity_failures


def test_suite_serialization():
    suite = verify_suite(4)
    data = json.loads(suite_to_json(suite))
    assert data["ok"] is True
    assert data["max_rank"] == 4
    md = suite_to_markdown(suite)
    assert "overall: ok" in md
    assert suite_to_dict(suite)["reports"]


# -- cold starts and the traced benchmark ------------------------------------

def _weylpath_caches():
    """Every functools cache at module or class level in weylpath's modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "weylpath" and not name.startswith("weylpath."):
            continue
        for value in vars(module).values():
            candidates = [value]
            if inspect.isclass(value) and value.__module__ == name:
                candidates += [getattr(a, "__func__", getattr(a, "fget", a))
                               for a in vars(value).values()]
            for obj in candidates:
                if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear"):
                    found[id(obj)] = obj
    return list(found.values())


def test_clear_caches_empties_every_cache():
    verify("B", 3, omitted=3, relaxed_edges=True, with_witnesses=True)
    caches = _weylpath_caches()
    assert [c for c in caches if c.cache_info().currsize]
    clear_caches()
    assert [c.__qualname__ for c in caches if c.cache_info().currsize] == []


def test_cold_suite_runs_on_the_integer_root_table(monkeypatch):
    # The certificate checks, the minuscule test and the epsilon
    # conversion read RootSystem's stored coroots; none may fall back on
    # rational arithmetic or the generic pairing.
    clear_caches()
    want = suite_to_json(verify_suite(8))
    clear_caches()

    def refuse(*args, **kwargs):
        raise AssertionError("rational or generic pairing on the cold verify path")

    monkeypatch.setattr(weylpath.rootsystem, "Fraction", refuse)
    monkeypatch.setattr(RootSystem, "pairing", refuse)
    monkeypatch.setattr(RootSystem, "from_root_basis", refuse)
    try:
        assert suite_to_json(verify_suite(8)) == want
    finally:
        clear_caches()


def test_traced_layers_resolve():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for functions in tracing.LAYERS.values():
        for module, name in functions:
            assert callable(getattr(importlib.import_module(f"weylpath.{module}"), name, None)), \
                f"weylpath.{module}.{name}"
