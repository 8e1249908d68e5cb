import random

import pytest

from weylpath import (
    Certificate, Parabolic, build,
    apply_word, check_certificate, coefficient_lower_bound, dijkstra_order,
    lattice_lower_bound, longest_element, shortest_path, source_weight,
    target_weight, vanishing_result,
)
from weylpath.certificates import catalog_certificate, epsilon_to_root
from weylpath.vanishing import _search_data


def P(rank, d):
    return Parabolic.maximal(rank, d)


# -- targets ----------------------------------------------------------------

def test_target_d_type_vector_cases():
    for n in (4, 6, 9):
        rs = build("D", n)
        for d in range(1, n - 1):
            tw = target_weight(rs, P(n, 1), d)
            want = tuple([2] * (n - 2) + [1, 1])
            assert tw.root_coords == want


def test_target_e6_e7():
    assert target_weight(build("E6"), P(6, 1), 1).root_coords == (2, 1, 2, 2, 1, 0)
    assert target_weight(build("E7"), P(7, 7), 7).root_coords == (2, 3, 4, 6, 5, 4, 3)
    assert target_weight(build("E7"), P(7, 7), 4).root_coords == (4, 6, 8, 12, 10, 8, 6)


def test_target_value_splits_into_source_plus_weight():
    rs = build("D5")
    parab = P(5, 5)
    for d in range(1, 6):
        tw = target_weight(rs, parab, d)
        src = source_weight(rs, parab, d)
        assert tuple(a + b for a, b in zip(src, rs.fundamental_weight(d))) == tw.value


def test_source_is_negated_longest_image():
    # tau(-w0(omega_d)) == -tau(w0(omega_d))
    for label, p in [("D5", 1), ("E6", 1), ("A4", 2)]:
        rs = build(label)
        parab = P(rs.rank, p)
        tau = longest_element(rs, parab.retained)
        w0 = longest_element(rs)
        for d in range(1, rs.rank + 1):
            lhs = source_weight(rs, parab, d)
            rhs = tuple(-x for x in apply_word(rs, tau, apply_word(rs, w0, rs.fundamental_weight(d))))
            assert lhs == rhs


# -- path oracle ------------------------------------------------------------

def test_profiles_exceptional():
    rs6 = build("E6")
    assert [dijkstra_order(rs6, P(6, 1), d) for d in range(1, 7)] == [2, 2, 3, 4, 3, 2]
    rs7 = build("E7")
    assert [dijkstra_order(rs7, P(7, 7), d) for d in range(1, 8)] == [2, 3, 4, 6, 5, 4, 3]


def test_profiles_d_node1():
    for n in (4, 7, 10):
        rs = build("D", n)
        prof = [dijkstra_order(rs, P(n, 1), d) for d in range(1, n + 1)]
        assert prof == [2] * (n - 2) + [1, 1]


def test_profiles_grassmannian():
    # min(d, c, n-d) in the case-analysis range c <= n-c; general c by the
    # diagram flip, giving min(d, c, n-c, n-d)
    for nmat in (4, 6, 9):
        rs = build("A", nmat - 1)
        for c in range(1, nmat):
            prof = [dijkstra_order(rs, P(nmat - 1, c), d) for d in range(1, nmat)]
            assert prof == [min(d, c, nmat - c, nmat - d) for d in range(1, nmat)]


def test_profiles_c_last_node():
    for n in (2, 5, 8):
        rs = build("C", n)
        assert [dijkstra_order(rs, P(n, n), d) for d in range(1, n + 1)] == list(range(1, n + 1))


def test_zero_order_when_no_node_is_omitted():
    rs = build("A3")
    full = Parabolic(3, frozenset())
    for d in range(1, 4):
        assert dijkstra_order(rs, full, d) == 0


def test_relaxed_edges_never_increase_cost():
    for label, p in [("C4", 1), ("D5", 5), ("E6", 1), ("B4", 4)]:
        rs = build(label)
        parab = P(rs.rank, p)
        for d in range(1, rs.rank + 1):
            assert dijkstra_order(rs, parab, d, relaxed=True) <= dijkstra_order(rs, parab, d)


def test_witness_path_steps_are_exact_reflections():
    for label, p in [("E6", 1), ("D6", 6), ("B4", 4), ("A5", 3)]:
        rs = build(label)
        parab = P(rs.rank, p)
        for d in range(1, rs.rank + 1):
            cost, steps, nodes = shortest_path(rs, parab, d)
            assert cost == dijkstra_order(rs, parab, d)
            assert nodes[0] == source_weight(rs, parab, d)
            assert nodes[-1] == tuple(-x for x in rs.fundamental_weight(d))
            assert sum(r for _, r in steps) == cost
            for (beta, r), chi, nxt in zip(steps, nodes, nodes[1:]):
                assert rs.pairing(chi, beta) == r
                assert rs.reflect_by_root(beta, chi) == nxt
                assert beta[d - 1] >= 1


def test_witness_path_is_deterministic():
    rs = build("E7")
    first = shortest_path(rs, P(7, 7), 4)
    again = shortest_path(rs, P(7, 7), 4)
    assert first == again


# -- lattice oracle ----------------------------------------------------------

def test_lattice_single_root_targets():
    rs = build("D5")
    assert lattice_lower_bound(rs, P(5, 1), 4) == 1
    assert lattice_lower_bound(rs, P(5, 1), 5) == 1


def test_lattice_e6_node4():
    assert lattice_lower_bound(build("E6"), P(6, 1), 4) == 4


def test_lattice_c_node1_shortfall():
    for n in (2, 4, 6):
        rs = build("C", n)
        vals = [lattice_lower_bound(rs, P(n, 1), d) for d in range(1, n + 1)]
        assert sum(vals) < 2 * n - 1


def test_chain_of_bounds():
    configs = [("A5", c) for c in range(1, 6)] + [
        ("B4", 4), ("C5", 5), ("C5", 1), ("D6", 1), ("D6", 6), ("D6", 5),
        ("E6", 1), ("E6", 6), ("E7", 7), ("B3", 1), ("D5", 3),
    ]
    for label, p in configs:
        rs = build(label)
        parab = P(rs.rank, p)
        for d in range(1, rs.rank + 1):
            m = dijkstra_order(rs, parab, d)
            lat = lattice_lower_bound(rs, parab, d)
            ca = coefficient_lower_bound(rs, parab, d)
            assert lat is not None and lat <= m
            if ca is not None:
                assert ca <= lat


# -- search estimator --------------------------------------------------------

@pytest.mark.parametrize("label,p", [("A5", 3), ("B5", 5), ("C5", 1), ("D6", 3),
                                     ("E6", 4), ("F4", 2), ("G2", 1)])
@pytest.mark.parametrize("relaxed", [False, True])
def test_estimator_is_consistent_and_below_lattice(label, p, relaxed):
    # The forward probes behind shortest_path are exact only for a
    # consistent estimator: h(v) <= 1 + h(v - beta) for every usable beta.
    rng = random.Random(f"{label}/{p}/{relaxed}")
    rs = build(label)
    parab = P(rs.rank, p)
    for d in range(1, rs.rank + 1):
        T = target_weight(rs, parab, d).root_coords
        rootcos, _, estimate = _search_data(rs.rst, d, relaxed)
        residuals = [T, (0,) * rs.rank] + [
            tuple(rng.randint(0, t) for t in T) for _ in range(60)
        ]
        for v in residuals:
            h = estimate(v)
            for beta in rootcos:
                rest = tuple(a - b for a, b in zip(v, beta))
                if min(rest) < 0:
                    continue
                h2 = estimate(rest)
                if h2 is None:
                    assert h is None
                else:
                    assert h is not None and h <= 1 + h2, (d, v, beta)
        assert estimate(T) <= lattice_lower_bound(rs, parab, d, relaxed=relaxed)


# -- coefficient bound --------------------------------------------------------

def test_coefficient_bound_values():
    assert coefficient_lower_bound(build("E7"), P(7, 7), 4) == 6
    for n in (5, 8):
        assert coefficient_lower_bound(build("D", n), P(n, 1), n - 1) == 1
    rs = build("A5")
    for c in (2, 3):
        assert coefficient_lower_bound(rs, P(5, c), c) == min(c, 6 - c)


def test_coefficient_bound_not_applicable():
    assert coefficient_lower_bound(build("B4"), P(4, 4), 2) is None
    assert coefficient_lower_bound(build("D6"), P(6, 3), 2) is None
    assert coefficient_lower_bound(build("E7"), P(7, 1), 1) is None


# -- certificates -------------------------------------------------------------

def test_e6_case_one_pair_passes_all_clauses():
    rs = build("E6")
    cert = Certificate(
        rst=rs.rst, omitted=1, d=1,
        entries=(((1, 0, 1, 1, 0, 0), 1), ((1, 1, 1, 1, 1, 0), 1)),
    )
    rep = check_certificate(rs, cert)
    assert rep.valid and rep.strict
    assert rep.cost == 2 and rep.dijkstra == 2


def test_d_node1_any_pair_passes():
    for n in (4, 6, 9):
        rs = build("D", n)
        for d in range(1, n - 1):
            for j in range(d + 1, n + 1):
                minus = epsilon_to_root(rs, tuple(
                    (1 if k == 0 else (-1 if k == j - 1 else 0)) for k in range(n)))
                plus = epsilon_to_root(rs, tuple(
                    (1 if k in (0, j - 1) else 0) for k in range(n)))
                cert = Certificate(rst=rs.rst, omitted=1, d=d,
                                   entries=((minus, 1), (plus, 1)))
                rep = check_certificate(rs, cert)
                assert rep.valid and rep.strict, (n, d, j, rep.failures)


def test_perturbed_certificate_fails_membership():
    rs = build("D5")
    good = catalog_certificate(rs, P(5, 1), 2)
    # swap one entry for a root supported away from node 1
    bad_entries = ((rs.simple_root(3), 1), good.entries[1])
    rep = check_certificate(rs, Certificate(rst=rs.rst, omitted=1, d=2, entries=bad_entries))
    assert not rep.outside_levi
    assert not rep.valid
    assert any("Levi" in f for f in rep.failures)


def test_perturbed_certificate_fails_sum():
    rs = build("E6")
    good = catalog_certificate(rs, P(6, 1), 1)
    entries = ((good.entries[0][0], 2), good.entries[1])
    rep = check_certificate(rs, Certificate(rst=rs.rst, omitted=1, d=1, entries=entries))
    assert not rep.sum_matches
    assert not rep.valid


def test_perturbed_certificate_fails_root_membership():
    rs = build("E6")
    entries = (((1, 1, 1, 1, 1, 1), 1), ((1, 0, 1, 1, 0, -1), 1))
    rep = check_certificate(rs, Certificate(rst=rs.rst, omitted=1, d=1, entries=entries))
    assert not rep.roots_ok
    assert not rep.valid


def test_oversized_certificate_fails_cost_clause():
    # decomposes the B3 spin target with three short steps: ladder fine,
    # total cost 3 exceeds the true order 2
    rs = build("B3")
    e = lambda k: epsilon_to_root(rs, tuple(int(i == k) for i in range(3)))
    cert = Certificate(rst=rs.rst, omitted=3, d=3,
                       entries=((e(0), 1), (e(1), 1), (e(2), 1)))
    rep = check_certificate(rs, cert)
    assert rep.roots_ok and rep.outside_levi and rep.sum_matches
    assert rep.ladder_sequential
    assert not rep.cost_matches
    assert not rep.valid


def test_vanishing_result_assembly():
    rs = build("E6")
    row = vanishing_result(rs, P(6, 1), 4, certificate_cost=4)
    assert (row.m_dijkstra, row.m_lattice_lb, row.c_alpha, row.certificate_cost) == (4, 4, 4, 4)
    assert row.agreed
    row = vanishing_result(rs, P(6, 1), 4, certificate_cost=5)
    assert not row.agreed


def test_diagram_flip_symmetry_of_orders():
    # relabeling by a diagram automorphism applied to (P, d) at once
    # leaves every order unchanged
    flips = {
        "A5": {j: 6 - j for j in range(1, 6)},
        "D5": {1: 1, 2: 2, 3: 3, 4: 5, 5: 4},
        "E6": {1: 6, 6: 1, 3: 5, 5: 3, 2: 2, 4: 4},
    }
    for label, perm in flips.items():
        rs = build(label)
        for p in range(1, rs.rank + 1):
            for d in range(1, rs.rank + 1):
                lhs = dijkstra_order(rs, P(rs.rank, p), d)
                rhs = dijkstra_order(rs, P(rs.rank, perm[p]), perm[d])
                assert lhs == rhs, (label, p, d)


def test_involution_source_identity():
    # source weight tau(i(omega_d)) lies in the orbit of i(omega_d)
    from weylpath import orbit, involution_index
    rs = build("A4")
    parab = P(4, 2)
    for d in range(1, 5):
        src = source_weight(rs, parab, d)
        dual = involution_index(rs, d)
        assert src in set(orbit(rs, rs.fundamental_weight(dual)))
