import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

from weylpath import (
    Parabolic, build, clear_caches, dim_quotient, list_minuscule,
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


def test_traced_layers_resolve():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for functions in tracing.LAYERS.values():
        for module, name in functions:
            assert callable(getattr(importlib.import_module(f"weylpath.{module}"), name, None)), \
                f"weylpath.{module}.{name}"
