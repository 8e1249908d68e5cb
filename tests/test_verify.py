import hashlib
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

import weylpath.rootsystem
from weylpath import (
    Parabolic, RootSystem, RootSystemError, SuiteReport, build, clear_caches,
    cominuscule_indices, dim_quotient, list_minuscule,
    report_from_json, report_to_dict, report_to_json, report_to_markdown,
    shortest_path, suite_to_dict, suite_to_json, suite_to_markdown,
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
    for kwargs in (dict(), dict(with_witnesses=True)):
        rep = verify("D5", omitted=1, **kwargs)
        assert report_from_json(report_to_json(rep)) == rep


def test_report_json_keeps_its_bytes_and_reads_a_filled_relaxed_key():
    # Every row is still written with "m_dijkstra_relaxed": null, so the
    # default report round-trips byte for byte; a report from the former
    # relaxed-edges option, with the key filled in, still loads.
    text = report_to_json(verify("E6", omitted=1))
    assert report_to_json(report_from_json(text)) == text
    data = json.loads(text)
    assert all(list(row)[-1] == "m_dijkstra_relaxed" and row["m_dijkstra_relaxed"] is None
               for row in data["rows"])
    for row in data["rows"]:
        row["m_dijkstra_relaxed"] = 3
    assert report_from_json(json.dumps(data)) == report_from_json(text)


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


DIM_QUOTIENT_LABELS = (
    [f"A{n}" for n in range(1, 6)] + [f"B{n}" for n in range(2, 5)]
    + [f"C{n}" for n in range(2, 5)] + ["D4", "D5", "F4", "G2"]
)


@pytest.mark.parametrize("label", DIM_QUOTIENT_LABELS)
def test_dim_quotient_counts_roots_off_the_levi_on_every_parabolic(label):
    # Every nonempty omitted set, the non-maximal ones included: |R+| less
    # the roots with coefficient 0 at every omitted index.
    rs = build(label)
    n = rs.rank
    for mask in range(1, 1 << n):
        omitted = [j for j in range(1, n + 1) if mask >> (j - 1) & 1]
        levi = sum(all(c[j - 1] == 0 for j in omitted) for c in rs.positive_roots)
        assert dim_quotient(rs, Parabolic(n, omitted)) == rs.num_positive_roots - levi, omitted


def test_verify_checks_certificates_without_the_strict_clauses(monkeypatch):
    module = sys.modules["weylpath.verify"]
    original, calls = module.check_certificate, []

    def recording(rs, cert, **kwargs):
        calls.append(kwargs)
        return original(rs, cert, **kwargs)

    monkeypatch.setattr(module, "check_certificate", recording)
    rep = verify("D", 5, omitted=5)
    assert calls == [{"strict": False}] * 5
    assert all(row.certificate_cost == row.m_dijkstra for row in rep.rows)


def test_dim_quotient_rejects_parabolic_of_wrong_rank():
    for parab in (Parabolic.maximal(5, 5), Parabolic.maximal(2, 1)):
        with pytest.raises(RootSystemError):
            dim_quotient(build("A3"), parab)


def test_max_rank_must_be_plain_int():
    # 3.0, 2.5, "4" and None used to escape as TypeError from range() or <.
    for bad in (3.0, 2.5, "4", None, True):
        with pytest.raises(RootSystemError):
            verify_suite(bad)
        with pytest.raises(RootSystemError):
            list(tabulated_configurations(bad))


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


# sha256 of suite_to_json(verify_suite(k)): every report, check and key
# of the sweep in its order, byte for byte.
SUITE_SHA256 = {
    2: "b5eb042b1d17ba196e7fe78e7c1bbaab9e51f86cfa660515f8799950d651f942",
    3: "6612dad8453885878fef8cb1160ed58e148aa3e7817a74901adc81e3bca328a7",
    4: "c12e0063e88cc9b8d22a653b797b95c28cf05c6a48fd4980c1b34b6cc6936581",
    5: "a8176cafd6c4633f509c21782fd16f83c1fb9ce6f51ca641994ccb58b3db4a4b",
    6: "4784044e4f212a8615de032c02d780bace66ed4a80e4a5ccaa651cd0ae1da1b6",
    7: "9a54025c80d72df3e10ec397fe3c8a8e3284125d3f27b94961ea4edde6cd6add",
    8: "29a66761b6f2e680dc8bb311d77025048949fda8284379715025752e9ce80b25",
    9: "005c9c322c06139d73815293ed98b76b26d1f4c96adb1004d3aecd90cd1bb261",
    10: "ec1749ee36761208689d28d6f6d55a95cc3162cfba47324aa9aa1353a637b20e",
    11: "24c6c6fa34c1ae9adec24d16eb372bd65b9659f9c518d58d3ba9562713bca823",
    12: "2162fbce80dd747ef55430abf365dddbaa20d7c9c2deee5d2e3f2a043b6f95f8",
}


@pytest.mark.parametrize("max_rank", sorted(SUITE_SHA256))
def test_suite_json_is_pinned(max_rank):
    text = suite_to_json(verify_suite(max_rank))
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_SHA256[max_rank]


# The reports are written by certificates._dumps, not by json.dumps(..., indent=2),
# and must keep its bytes.

@pytest.mark.parametrize("max_rank", [2, 10, 12])
def test_report_json_is_json_dumps_on_every_suite_report(max_rank):
    suite = verify_suite(max_rank)
    for rep in suite.reports:
        assert report_to_json(rep) == json.dumps(report_to_dict(rep), indent=2), rep[:3]
    assert suite_to_json(suite) == json.dumps(suite_to_dict(suite), indent=2)


@pytest.mark.parametrize("label,p", [("B9", 9), ("E6", 1), ("C5", 1), ("D6", 3), ("G2", 1),
                                     ("F4", 2), ("E8", 4)])
def test_witness_report_json_is_json_dumps(label, p):
    # The witnesses are the writer's deepest nesting: a list per d of step objects
    # holding a list of coordinates.
    rep = verify(label, omitted=p, with_witnesses=True)
    assert report_to_json(rep) == json.dumps(report_to_dict(rep), indent=2)


# suite_to_json writes each report once at top level and shifts its lines
# into place; on inputs verify never makes it must still be json.dumps.

def _edited(rep, edit):
    """``rep`` read back by report_from_json after ``edit`` changed its data."""
    data = report_to_dict(rep)
    edit(data)
    return report_from_json(json.dumps(data))


def _set_row(key, value):
    def edit(data):
        data["rows"][0][key] = value
    return edit


def _set_config(key, value):
    def edit(data):
        data["config"][key] = value
    return edit


EDITS = {
    "float row value": _set_row("m_lattice_lb", 2.5),
    "float sum": lambda data: data.update(sum_m=1e-7),
    "non-ASCII family": _set_config("family", "\u00c9\u2113"),
    "escaped newline": _set_config("family", "A\nB"),
    "newline in a row": _set_row("agreed", "yes\nno"),
    "filled m_dijkstra_relaxed": _set_row("m_dijkstra_relaxed", 3),
}


def _checks_suite(reports, max_rank=2):
    return SuiteReport(max_rank, tuple(reports), (), (("A", 1, 1, 2),), ((2, (1, 1), (1, 0, 1), True),),
                       ((4, 1, 2, True),), ((2, 3, 4, True),), False)


def test_suite_json_without_reports_is_json_dumps():
    suite = _checks_suite([])
    assert suite_to_json(suite) == json.dumps(suite_to_dict(suite), indent=2)
    assert json.loads(suite_to_json(suite))["reports"] == []


@pytest.mark.parametrize("with_witnesses", [False, True])
@pytest.mark.parametrize("edit", sorted(EDITS))
def test_suite_json_of_edited_reports_is_json_dumps(edit, with_witnesses):
    base = [verify(label, omitted=p, with_witnesses=with_witnesses)
            for label, p in (("A3", 2), ("B3", 3), ("G2", 1))]
    reports = [_edited(base[0], EDITS[edit]), *base[1:], _edited(base[2], EDITS[edit])]
    for suite in (_checks_suite(reports), _checks_suite(reports[:1])):
        assert suite_to_json(suite) == json.dumps(suite_to_dict(suite), indent=2), edit


def _patch_verify(monkeypatch, change):
    """Route verify_suite's calls to verify through ``change(config, report)``."""
    module = sys.modules["weylpath.verify"]
    original = module.verify

    def patched(family, rank=None, omitted=None, **kwargs):
        return change((family, rank, omitted), original(family, rank, omitted=omitted, **kwargs))

    monkeypatch.setattr(module, "verify", patched)


def test_suite_verifies_each_configuration_once(monkeypatch):
    calls = []
    _patch_verify(monkeypatch, lambda config, rep: calls.append(config) or rep)
    suite = verify_suite(9)
    assert calls == [(rep.family, rep.rank, rep.omitted) for rep in suite.reports]
    assert len(set(calls)) == len(calls)
    assert calls[-8:] == [("C", n, 1) for n in range(2, 10)]
    assert calls[-15:-8] == [("B", n, n) for n in range(2, 9)]


def test_c_node1_disagreement_reaches_the_suite(monkeypatch):
    def spoil(config, rep):
        if config != ("C", 2, 1):
            return rep
        return rep._replace(rows=(rep.rows[0], rep.rows[1]._replace(agreed=False)))

    _patch_verify(monkeypatch, spoil)
    suite = verify_suite(3)
    assert suite.disagreements == (("C", 2, 1, 2),)
    assert not suite.ok
    assert not suite.identity_failures
    assert all(ok for *_, ok in suite.negative_checks)


def test_suite_raises_when_a_checked_profile_is_not_listed(monkeypatch):
    # The spin and parity checks read D_n/P_n from the listed reports; a
    # listing without it must fail loudly, not verify it on the side.
    module = sys.modules["weylpath.verify"]
    listed = module.tabulated_configurations
    monkeypatch.setattr(module, "tabulated_configurations",
                        lambda max_rank: [c for c in listed(max_rank) if c != ("D", 5, 5)])
    calls = []
    _patch_verify(monkeypatch, lambda config, rep: calls.append(config) or rep)
    with pytest.raises(KeyError):
        verify_suite(6)
    assert ("D", 5, 5) not in calls


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
    verify("B", 3, omitted=3, with_witnesses=True)
    caches = _weylpath_caches()
    assert [c for c in caches if c.cache_info().currsize]
    clear_caches()
    assert [c.__qualname__ for c in caches if c.cache_info().currsize] == []


def test_only_computations_are_cached():
    # The oracles' answers and their inputs are cached; a record assembled
    # from them, such as a report, is built when it is needed.
    assert sorted(c.__qualname__ for c in _weylpath_caches()) == sorted([
        "_build_cached", "_system", "_targets", "_search_data", "_dijkstra_cached",
        "_lattice_cached", "_maximal_at"])


def test_cold_verify_builds_the_system_record_once():
    # The bitsets, the raise over W and the estimator are one record per
    # system, which every d and every search reads.
    vanishing = sys.modules["weylpath.vanishing"]
    for family, rank, p in (("A", 5, 2), ("B", 4, 4), ("C", 4, 1), ("D", 5, 3), ("E", 6, 1),
                            ("G", 2, 1)):
        clear_caches()
        verify(family, rank, omitted=p, with_witnesses=True)
        assert vanishing._system.cache_info().misses == 1, (family, rank, p)
    clear_caches()


def test_cold_verify_finds_the_distinguished_index_once(monkeypatch):
    # It depends on the parabolic only, so the target record computes it
    # once for every d.
    vanishing = sys.modules["weylpath.vanishing"]
    distinguished, calls = vanishing._distinguished, []
    monkeypatch.setattr(vanishing, "_distinguished",
                        lambda rs, parab: calls.append(parab) or distinguished(rs, parab))
    for family, rank, p in (("A", 5, 2), ("B", 4, 4), ("C", 4, 1), ("D", 5, 3), ("E", 6, 1)):
        clear_caches()
        calls.clear()
        verify(family, rank, omitted=p, with_witnesses=True)
        assert calls == [Parabolic.maximal(rank, p)], (family, rank, p)
    clear_caches()


def test_clear_caches_finds_a_cache_in_a_module_imported_later(monkeypatch):
    module = sys.modules["weylpath.verify"]
    clear_caches()
    kept = module._scanned
    clear_caches()
    assert module._scanned is kept  # no new module, no new scan
    late = importlib.util.module_from_spec(
        importlib.util.spec_from_loader("weylpath._late", loader=None))
    exec("from functools import lru_cache\n"
         "@lru_cache(maxsize=None)\n"
         "def square(x):\n"
         "    return x * x\n", vars(late))
    monkeypatch.setitem(sys.modules, "weylpath._late", late)
    late.square(3)
    verify("A", 2, omitted=1)
    clear_caches()
    assert late.square.cache_info().currsize == 0
    assert [c.__qualname__ for c in _weylpath_caches() if c.cache_info().currsize] == []


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


def test_witnesses_walk_each_path_once(monkeypatch):
    # E8/P6 has no tabulated tuples, so every certificate comes from the
    # greedy ladder, which walks no witness: one walk per d, by verify.
    clear_caches()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return shortest_path(*args, **kwargs)

    for module in ("vanishing", "certificates", "verify"):
        monkeypatch.setattr(sys.modules[f"weylpath.{module}"], "shortest_path", counted)
    try:
        rep = verify("E", 8, omitted=6, with_witnesses=True)
    finally:
        clear_caches()
    assert sorted(calls) == list(range(1, 9))
    assert len(rep.witnesses) == 8


@pytest.mark.parametrize("label,p", [("A4", 2), ("B4", 4), ("B3", 1), ("C3", 1),
                                     ("D5", 5), ("E6", 2), ("F4", 3), ("G2", 1)])
def test_witnesses_are_the_canonical_paths(label, p):
    rs = build(label)
    rep = verify(label, omitted=p, with_witnesses=True)
    parab = Parabolic.maximal(rs.rank, p)
    want = tuple(shortest_path(rs, parab, d)[1] for d in range(1, rs.rank + 1))
    assert rep.witnesses == want


def test_traced_layers_resolve():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for functions in tracing.LAYERS.values():
        for module, name in functions:
            assert callable(getattr(importlib.import_module(f"weylpath.{module}"), name, None)), \
                f"weylpath.{module}.{name}"
