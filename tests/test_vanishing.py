import random
import sys

import pytest

from weylpath import (
    Certificate, Parabolic, RootSystemError, build,
    apply_word, check_certificate, clear_caches, coefficient_lower_bound, dijkstra_order,
    lattice_lower_bound, longest_element, shortest_path, source_weight,
    target_weight, vanishing_result, verify, verify_suite, weyl_involution,
)
from weylpath import vanishing
from weylpath.certificates import catalog_certificate, epsilon_to_root, path_certificate
from weylpath.rootsystem import eps_from_root_coords
from weylpath.vanishing import (
    InternalInconsistencyError, TargetWeight, _astar, _estimator_bounds, _search_data,
    allowed_root_indices,
)


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


TARGET_LABELS = (
    [f"{fam}{n}" for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("label", TARGET_LABELS)
def test_integer_target_matches_rational_reference(label):
    # Reference: the target from the public Weyl-group functions, taken to
    # root coordinates through the rational inverse of the Cartan matrix.
    rs = build(label)
    for p in range(1, rs.rank + 1):
        parab = P(rs.rank, p)
        tau = longest_element(rs, parab.retained)
        for d in range(1, rs.rank + 1):
            omega = rs.fundamental_weight(d)
            want = tuple(a + b for a, b in zip(omega, apply_word(rs, tau, weyl_involution(rs, omega))))
            coords = rs.to_root_basis(want)
            assert all(x.denominator == 1 for x in coords), (label, p, d, coords)
            tw = target_weight(rs, parab, d)
            assert tw.value == want, (label, p, d)
            assert tw.root_coords == coords, (label, p, d)


def test_cold_verify_computes_longest_words_once(monkeypatch):
    # The target comes from the W- and Levi-dominant points of -omega_d
    # (the canonicalizer), so a cold verify computes no longest word at all.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return longest_element(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("weylpath") and getattr(module, "longest_element", None) is longest_element:
            monkeypatch.setattr(module, "longest_element", counting)
    for family, ranks in (("A", (4, 8)), ("B", (3, 6))):
        counts = []
        for n in ranks:
            clear_caches()
            calls.clear()
            verify(family, n, omitted=n, with_witnesses=True)
            counts.append(len(calls))
        assert counts == [0, 0], (family, counts)
    clear_caches()


def test_cold_suite_raises_once_per_system_and_parabolic(monkeypatch):
    # -w0(omega_d) for every d comes from one packed raise over all of W
    # per system, and tau(-w0(omega_d)) for every d from one packed raise
    # over the Levi per (system, parabolic), however many d share them.
    targeted, pairs, over_w, over_levi = set(), set(), [], []
    target_cached, raise_ = vanishing._target_cached, vanishing._raise

    def recording(rst, parab, d):
        targeted.add((rst, parab))
        pairs.add((rst, d))
        return target_cached(rst, parab, d)

    def counting(cols, indices, chi):
        (over_w if list(indices) == list(range(len(cols))) else over_levi).append(chi)
        return raise_(cols, indices, chi)

    clear_caches()
    monkeypatch.setattr(vanishing, "_target_cached", recording)
    monkeypatch.setattr(vanishing, "_raise", counting)
    verify_suite(8)
    systems = {rst for rst, _ in targeted}
    assert len(over_w) == len(systems) < len(pairs)
    assert len(over_levi) == len(targeted)


def _reference_target(rs, parab, d):
    # The per-d raise the packed raises replaced: -omega_d raised over all
    # of W gives lam = -w0(omega_d) = -omega_d + b, then -lam raised over
    # the Levi gives -tau(lam) = -lam + c; the target is b - c in root
    # coordinates and the source tau(lam).
    n = rs.rank
    cols = rs._cartan_cols
    lam, b = vanishing._make_canon(cols, range(n))(tuple(-int(j == d - 1) for j in range(n)), (0,) * n)
    levi = [i - 1 for i in sorted(parab.retained)]
    neg_tau, c = vanishing._make_canon(cols, levi)(tuple(-x for x in lam), (0,) * n)
    source = tuple(-x for x in neg_tau)
    value = tuple(x + int(j == d - 1) for j, x in enumerate(source))
    return TargetWeight(d=d, value=value, root_coords=tuple(a - x for a, x in zip(b, c))), source


PACKED_LABELS = (
    [f"{fam}{n}" for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 13)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("label", PACKED_LABELS)
def test_packed_raise_matches_per_d_raise(label):
    rs = build(label)
    n = rs.rank
    rng = random.Random(f"packed {label}")
    parabolics = [P(n, p) for p in range(1, n + 1)] + [Parabolic(n, frozenset()),
                                                      Parabolic(n, frozenset(range(1, n + 1)))]
    parabolics += [Parabolic(n, frozenset(rng.sample(range(1, n + 1), rng.randint(2, n))))
                   for _ in range(3) if n > 1]
    for parab in parabolics:
        for d in range(1, n + 1):
            want = _reference_target(rs, parab, d)
            assert (target_weight(rs, parab, d), source_weight(rs, parab, d)) == want, \
                (label, sorted(parab.omitted), d)


DIGIT_LABELS = (
    [f"{fam}{n}" for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 25)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("label", DIGIT_LABELS)
def test_packed_digits_stay_below_the_base(label):
    # 0 <= c_d <= b_d <= 2 rho and |tau(lam_d)| <= max(theta) all lie in
    # [-M/2, M/2), where the packed raises' digits are read.
    rs = build(label)
    n = rs.rank
    half = 1 << (vanishing._digit_bits(rs) - 1)
    two_rho = tuple(map(sum, zip(*rs.positive_roots)))
    top = max(rs.positive_roots[-1])
    assert max(two_rho) < half and top < half
    for d in range(1, n + 1):
        _, b = vanishing._make_canon(rs._cartan_cols, range(n))(
            tuple(-int(j == d - 1) for j in range(n)), (0,) * n)
        assert all(0 <= x <= y for x, y in zip(b, two_rho)), d
        for p in range(1, n + 1):
            tw = target_weight(rs, P(n, p), d)
            assert all(0 <= x <= y for x, y in zip(tw.root_coords, b)), (p, d)
            assert max(map(abs, source_weight(rs, P(n, p), d))) <= top, (p, d)
            assert tw.value == rs.from_root_basis(tw.root_coords), (p, d)


def test_packed_decode_checks_its_base(monkeypatch):
    rs = build("E6")
    real = vanishing._digit_bits(rs)
    clear_caches()
    monkeypatch.setattr(vanishing, "_digit_bits", lambda rs: 2)
    with pytest.raises(InternalInconsistencyError, match=r"^E6 P=\[1\]: target: packed entry"):
        target_weight(rs, P(6, 1), 3)
    monkeypatch.setattr(vanishing, "_digit_bits", lambda rs: real)
    clear_caches()
    assert target_weight(rs, P(6, 1), 1).root_coords == (2, 1, 2, 2, 1, 0)
    clear_caches()


def test_unpack_reads_signed_digits():
    rng = random.Random(13)
    for bits in (1, 2, 5, 11):
        half = 1 << (bits - 1)
        for n in (1, 3, 8):
            digits = [tuple(rng.randrange(-half, half) for _ in range(n)) for _ in range(n)]
            packed = tuple(sum(row[k] << (bits * k) for k in range(n)) for row in zip(*digits))
            assert vanishing._unpack(packed, bits, "x") == tuple(digits)
            lo = sum(-half << (bits * k) for k in range(n))
            hi = sum(half - 1 << (bits * k) for k in range(n))
            rest = (0,) * (n - 1)
            for x, digit in ((lo, -half), (hi, half - 1)):
                assert vanishing._unpack((*rest, x), bits, "x") == ((*rest, digit),) * n
            for x in (lo - 1, hi + 1):
                with pytest.raises(InternalInconsistencyError, match=f"^x: packed entry {x} "):
                    vanishing._unpack((*rest, x), bits, "x")


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


def _probe_walk(rs, parab, d, relaxed):
    # The witness walk the depth-first walk replaced: greedy steps, each
    # successor proved by its own A* from its orbit, bounded by the budget
    # left after the step; a probe that found nothing is not repeated.
    m = dijkstra_order(rs, parab, d, relaxed)
    search = _search_data(rs.rst, d, relaxed)
    cur, v, left = source_weight(rs, parab, d), target_weight(rs, parab, d).root_coords, m
    steps, nodes, missed = [], [cur], set()
    while any(v):
        children = sorted(((tuple(a - r * b for a, b in zip(cur, rs._fund_coords[k])),
                            tuple(a - r * b for a, b in zip(v, rs.positive_roots[k]))), r)
                          for r, k in search.walk(cur, v, left))
        for (child, v2), r in children:
            start = search.canon(child, v2)
            if (start[0], left - r) in missed:
                continue
            if _astar(*start, search.ladder, search.step, search.estimate, left - r) == left - r:
                break
            missed.add((start[0], left - r))
        else:
            raise AssertionError("probe walk lost the path")
        steps.append((tuple((a - b) // r for a, b in zip(v, v2)), r))
        cur, v, left = child, v2, left - r
        nodes.append(cur)
    return m, tuple(steps), tuple(nodes)


# Configurations outside witness_golden.json: the spin outliers past B8,
# two E8 interior nodes, a D configuration with lattice < order, and a
# relaxed one.
PROBE_CONFIGS = [(f"B{n}", n, False) for n in range(10, 15)] + [
    ("E8", 2, False), ("E8", 4, False), ("D8", 3, False), ("E6", 4, True)]


@pytest.mark.parametrize("label,p,relaxed", PROBE_CONFIGS)
def test_witness_walk_matches_probe_walk(label, p, relaxed):
    rs = build(label)
    parab = P(rs.rank, p)
    for d in range(1, rs.rank + 1):
        assert shortest_path(rs, parab, d, relaxed) == _probe_walk(rs, parab, d, relaxed), d


def test_witness_walk_runs_no_astar(monkeypatch):
    # The walk and the order it is budgeted by are both depth-first, so a
    # cold witness runs no A* at all.
    clear_caches()
    rs = build("E7")
    parab = P(7, 2)

    def no_astar(*args):
        raise AssertionError("shortest_path ran _astar")

    monkeypatch.setattr(vanishing, "_astar", no_astar)
    for d in range(1, 8):
        cost, steps, _ = shortest_path(rs, parab, d)
        assert sum(r for _, r in steps) == cost


def test_order_runs_no_astar_and_lattice_does(monkeypatch):
    clear_caches()
    calls = []
    astar = vanishing._astar

    def counted(*args):
        calls.append(args)
        return astar(*args)

    monkeypatch.setattr(vanishing, "_astar", counted)
    for label, p in [("E7", 2), ("B6", 6), ("D6", 3), ("C5", 1)]:
        rs = build(label)
        for relaxed in (False, True):
            for d in range(1, rs.rank + 1):
                dijkstra_order(rs, P(rs.rank, p), d, relaxed)
        assert not calls, label
        for d in range(1, rs.rank + 1):
            lattice_lower_bound(rs, P(rs.rank, p), d)
        assert calls, label
        calls.clear()


def test_witness_walk_failure_names_configuration_layer_and_budget(monkeypatch):
    rs = build("B4")
    m = dijkstra_order(rs, P(4, 4), 2)
    order = vanishing._dijkstra_cached
    monkeypatch.setattr(vanishing, "_dijkstra_cached", lambda *key: order(*key) - 1)
    with pytest.raises(vanishing.InternalInconsistencyError,
                       match=rf"^B4 P=\[4\] d=2: witness: no path within budget {m - 1}$"):
        shortest_path(rs, P(4, 4), 2)


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
            assert lat <= m
            if ca is not None:
                assert ca <= lat


# Every (configuration, d) with lattice < order among the maximal
# parabolics of A1-A8, B2-B8, C2-C8, D3-D8, E6, E7, F4 and G2, as
# (label, p) -> {d: (lattice, order)}; every other cell has lattice == order.
LATTICE_BELOW_ORDER = {
    ("B4", 3): {3: (3, 4)},
    ("B5", 3): {3: (3, 4), 4: (3, 4)},
    ("B6", 3): {3: (3, 4), 4: (3, 4), 5: (3, 4)},
    ("B6", 5): {5: (5, 6)},
    ("B7", 3): {3: (3, 4), 4: (3, 4), 5: (3, 4), 6: (3, 4)},
    ("B7", 5): {5: (5, 6), 6: (5, 6)},
    ("B8", 3): {3: (3, 4), 4: (3, 4), 5: (3, 4), 6: (3, 4), 7: (3, 4)},
    ("B8", 5): {5: (5, 6), 6: (5, 6), 7: (5, 6)},
    ("B8", 7): {7: (7, 8)},
    ("D5", 3): {3: (3, 4)},
    ("D6", 3): {3: (3, 4), 4: (3, 4)},
    ("D7", 3): {3: (3, 4), 4: (3, 4), 5: (3, 4)},
    ("D7", 5): {5: (5, 6)},
    ("D8", 3): {3: (3, 4), 4: (3, 4), 5: (3, 4), 6: (3, 4)},
    ("D8", 5): {5: (5, 6), 6: (5, 6)},
    ("E6", 3): {3: (3, 4), 4: (4, 5), 5: (3, 4)},
    ("E6", 4): {3: (3, 4), 4: (4, 6), 5: (3, 4)},
    ("E6", 5): {3: (3, 4), 4: (4, 5), 5: (3, 4)},
    ("E7", 2): {2: (4, 5), 3: (4, 5), 4: (6, 8), 5: (5, 6), 6: (3, 4)},
    ("E7", 3): {2: (3, 4), 3: (4, 6), 4: (6, 8), 5: (4, 6), 6: (3, 4)},
    ("E7", 4): {2: (3, 4), 3: (4, 5), 4: (6, 8), 5: (5, 6), 6: (3, 4)},
    ("E7", 5): {2: (3, 4), 3: (4, 5), 4: (6, 8), 5: (5, 7)},
    ("F4", 2): {2: (4, 6), 3: (3, 4)},
    ("F4", 3): {2: (4, 5), 3: (3, 4)},
}


def test_cells_with_lattice_below_order():
    cells = {}
    for label in TARGET_LABELS:
        if label == "E8":
            continue
        rs = build(label)
        for p in range(1, rs.rank + 1):
            parab = P(rs.rank, p)
            for d in range(1, rs.rank + 1):
                lat, m = lattice_lower_bound(rs, parab, d), dijkstra_order(rs, parab, d)
                assert lat <= m, (label, p, d)
                if lat < m:
                    cells.setdefault((label, p), {})[d] = (lat, m)
    assert cells == LATTICE_BELOW_ORDER
    assert (len(cells), sum(map(len, cells.values()))) == (24, 67)


# -- search estimator --------------------------------------------------------

def _cheapest(search, moves, chi, v, slack):
    # The orbit children of moves(chi, v, slack), which are neither built
    # nor deduplicated: the cheapest step to each, sorted.
    best = {}
    for r, k in moves(chi, v, slack):
        child, v2 = search.step(chi, v, r, k)
        if child not in best or r < best[child][0]:
            best[child] = (r, v2)
    return sorted((r, child, v2) for child, (r, v2) in best.items())


@pytest.mark.parametrize("label,p", [("A5", 3), ("B5", 5), ("C5", 1), ("D6", 3),
                                     ("E6", 4), ("F4", 2), ("G2", 1)])
@pytest.mark.parametrize("relaxed", [False, True])
def test_estimator_is_consistent_and_below_lattice(label, p, relaxed):
    # A* ends at its first sink pop, which is exact only for a consistent
    # estimator: h(v) <= 1 + h(v - beta) for every usable beta, and
    # h(u) <= r + h(child) on every step of the orbit searches, whose
    # children are canonicalized.  The depth-first order and witness walk
    # need only admissibility, the last assertion below.  The lattice search's
    # slack filter may drop only children that cannot fit the slack.
    rng = random.Random(f"{label}/{p}/{relaxed}")
    rs = build(label)
    parab = P(rs.rank, p)
    for d in range(1, rs.rank + 1):
        T = target_weight(rs, parab, d).root_coords
        search = _search_data(rs.rst, d, relaxed)
        rootcos = [rs.positive_roots[k] for k in allowed_root_indices(rs, d, relaxed)]
        estimate, canon = search.estimate, search.canon
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
            # The residual's own weight is a lattice state; shifted by
            # -omega_d it is a ladder state with the same residual.
            fund = rs.from_root_basis(v)
            chi = tuple(a - b for a, b in zip(fund, rs.fundamental_weight(d)))
            for state, moves in (((fund, v), search.subtract), ((chi, v), search.ladder)):
                u, w = canon(*state)
                hu = estimate(w)
                assert min(w) >= 0 and hu is not None and hu >= estimate(v)
                for r, child, w2 in _cheapest(search, moves, u, w, sum(w)):
                    assert canon(child, w2) == (child, w2)
                    h2 = estimate(w2)
                    if h2 is not None:
                        assert hu <= r + h2, (d, u, child)
            # Under a slack, unit subtraction keeps exactly the children
            # the bound could still take and returns nothing new.
            u, w = canon(fund, v)
            full = set(search.subtract(u, w, sum(w)))
            for slack in range(1, estimate(w) + 3):
                got = set(search.subtract(u, w, slack))
                assert got <= full, (d, u, slack)
                assert {e for e in full if 1 + estimate(search.step(u, w, *e)[1]) <= slack} <= got, \
                    (d, u, slack)
        # Random walks of plain ladder steps from the source meet only
        # states in the W-orbit of the antidominant -omega_d, whose
        # residuals lie above it.  There every usable root with r >= 1 fits
        # under the residual, so no ladder child goes negative, and the
        # masked ladder leads to exactly the plain ladder's cheapest children.
        for _ in range(12):
            chi, v = source_weight(rs, parab, d), T
            while any(v):
                u, w = canon(chi, v)
                plain, steps = {}, []
                for beta in rootcos:
                    r = rs.pairing(u, beta)
                    if r < 1:
                        continue
                    w2 = tuple(a - r * b for a, b in zip(w, beta))
                    assert min(w2) >= 0, (d, u, beta)
                    child, w2 = canon(rs.reflect_by_root(beta, u), w2)
                    if child not in plain or r < plain[child][0]:
                        plain[child] = (r, w2)
                    steps.append((r, beta))
                got = _cheapest(search, search.ladder, u, w, sum(w))
                assert got == sorted((r, c, w2) for c, (r, w2) in plain.items()), (d, u)
                r, beta = rng.choice(steps)
                chi, v = rs.reflect_by_root(beta, u), tuple(a - r * b for a, b in zip(w, beta))
        assert estimate(T) <= lattice_lower_bound(rs, parab, d, relaxed=relaxed)


def test_order_is_at_most_the_start_residual_height():
    # Each ladder step of cost r subtracts r*beta with ht(beta) >= 1, so
    # m never exceeds the height of the residual it starts from, which is
    # the ceiling the order search runs under.
    for label in TARGET_LABELS:
        if label == "E8":
            continue
        rs = build(label)
        for p in range(1, rs.rank + 1):
            parab = P(rs.rank, p)
            for d in range(1, rs.rank + 1):
                T = target_weight(rs, parab, d).root_coords
                start = _search_data(rs.rst, d, False).canon(source_weight(rs, parab, d), T)
                assert dijkstra_order(rs, parab, d) <= sum(T) <= sum(start[1]), (label, p, d)


ESTIMATOR_LABELS = (
    [f"A{n}" for n in range(1, 21)]
    + [f"B{n}" for n in range(2, 21)]
    + [f"C{n}" for n in range(2, 21)]
    + [f"D{n}" for n in range(3, 21)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("label", ESTIMATOR_LABELS)
def test_estimator_bounds_match_scan_over_usable_roots(label):
    # The highest root's coefficients and epsilon L1 norm equal the
    # largest ones among the usable roots at every d, relaxed or not.
    rs = build(label)
    classical = rs.rst.family in "ABCD"
    for d in range(1, rs.rank + 1):
        for relaxed in (False, True):
            rootcos = [rs.positive_roots[k] for k in allowed_root_indices(rs, d, relaxed)]
            maxcoef = tuple(max(c[j] for c in rootcos) for j in range(rs.rank))
            maxstep = max(sum(map(abs, eps_from_root_coords(rs.rst, c))) for c in rootcos) \
                if classical else 0
            assert _estimator_bounds(rs) == (maxcoef, maxstep), (d, relaxed)


def _plain_orders(rs, parab, d, relaxed):
    # The order and the lattice bound searched one state at a time: the
    # ladder and unit root subtraction over every usable root, no orbits.
    usable = allowed_root_indices(rs, d, relaxed)

    def ladder(chi, v, _):
        for k in usable:
            r = sum(a * b for a, b in zip(chi, rs._coroots[k]))
            if r >= 1:
                yield r, k

    def subtract(v, _, __):
        for k in usable:
            yield 1, k

    def step(chi, v, r, k):
        return (tuple(a - r * b for a, b in zip(chi, rs._fund_coords[k])),
                tuple(a - r * b for a, b in zip(v, rs.positive_roots[k])))

    def unit(v, _, r, k):
        v2 = step(v, v, r, k)[1]
        return v2, v2

    estimate = _search_data(rs.rst, d, relaxed).estimate
    T = target_weight(rs, parab, d).root_coords
    return (_astar(source_weight(rs, parab, d), T, ladder, step, estimate, sum(T)),
            _astar(T, T, subtract, unit, estimate, sum(T)))


EQUIVALENCE_CONFIGS = [(label, p) for label in TARGET_LABELS if label != "E8"
                       for p in range(1, build(label).rank + 1)] + [("E8", 1), ("E8", 8)]


@pytest.mark.parametrize("label,p", EQUIVALENCE_CONFIGS)
def test_orbit_search_matches_plain_search(label, p):
    rs = build(label)
    parab = P(rs.rank, p)
    for d in range(1, rs.rank + 1):
        got = (dijkstra_order(rs, parab, d), lattice_lower_bound(rs, parab, d))
        assert got == _plain_orders(rs, parab, d, False), (label, p, d)


@pytest.mark.parametrize("label,p", EQUIVALENCE_CONFIGS)
@pytest.mark.parametrize("relaxed", [False, True])
def test_order_matches_astar_over_the_orbit_ladder(label, p, relaxed):
    # The depth-first order, by iterative deepening, against the heap
    # search over the same ladder, estimator and ceiling.
    rs = build(label)
    parab = P(rs.rank, p)
    for d in range(1, rs.rank + 1):
        search = _search_data(rs.rst, d, relaxed)
        start = search.canon(source_weight(rs, parab, d), target_weight(rs, parab, d).root_coords)
        want = _astar(*start, search.ladder, search.step, search.estimate, sum(start[1]))
        assert dijkstra_order(rs, parab, d, relaxed) == want, (label, p, d)


@pytest.mark.parametrize("label,p", [("A5", 3), ("B4", 4), ("C4", 1), ("D5", 2),
                                     ("E6", 1), ("F4", 3), ("G2", 2)])
def test_relaxed_search_matches_plain_search(label, p):
    rs = build(label)
    parab = P(rs.rank, p)
    for d in range(1, rs.rank + 1):
        got = (dijkstra_order(rs, parab, d, relaxed=True),
               lattice_lower_bound(rs, parab, d, relaxed=True))
        assert got == _plain_orders(rs, parab, d, True), (label, p, d)


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


def _old_distinguished_index(rs, p, d):
    # The hand table distinguished_index held before it was derived from
    # the highest root.
    fam, n = rs.rst.family, rs.rank
    if fam == "A":
        return d
    if fam == "C":
        return n
    if fam == "D":
        return p if p in (1, n - 1, n) else None
    if (rs.rst.label, p) in (("E6", 1), ("E6", 6), ("E7", 7)):
        return p
    return None


def test_coefficient_bound_matches_old_table():
    labels = ([f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 13)]
              + [f"C{n}" for n in range(2, 13)] + [f"D{n}" for n in range(3, 13)]
              + ["E6", "E7", "E8", "F4", "G2"])
    for label in labels:
        rs = build(label)
        for p in range(1, rs.rank + 1):
            parab = P(rs.rank, p)
            for d in range(1, rs.rank + 1):
                alpha = _old_distinguished_index(rs, p, d)
                ca = coefficient_lower_bound(rs, parab, d)
                if alpha is not None:
                    assert ca == target_weight(rs, parab, d).root_coords[alpha - 1], (label, p, d)
                elif (rs.rst.family, p) == ("B", 1):
                    assert ca == target_weight(rs, parab, d).root_coords[0]
                else:
                    assert ca is None, (label, p, d)


def test_coefficient_bound_at_the_odd_quadric_equals_the_order():
    # B_n/P1 is cominuscule but outside the old table; its bound is exact.
    for n in range(2, 9):
        rs = build("B", n)
        for d in range(1, n + 1):
            ca = coefficient_lower_bound(rs, P(n, 1), d)
            assert ca == lattice_lower_bound(rs, P(n, 1), d) == dijkstra_order(rs, P(n, 1), d)


def test_parabolic_of_wrong_rank_rejected():
    rs = build("A3")
    for parab in (P(2, 1), P(5, 5), P(4, 1)):
        for oracle in (target_weight, source_weight, dijkstra_order, lattice_lower_bound,
                       coefficient_lower_bound, shortest_path):
            with pytest.raises(RootSystemError):
                oracle(rs, parab, 1)


@pytest.mark.parametrize("bad", [2.7, 2.0, True, "2", None])
def test_non_integer_indices_rejected(bad):
    # A float index must not be truncated, nor True read as index 1.
    rs = build("A3")
    with pytest.raises(RootSystemError):
        verify("A", 3, omitted=bad)
    with pytest.raises(RootSystemError):
        P(3, bad)
    for oracle in (dijkstra_order, lattice_lower_bound, target_weight):
        with pytest.raises(RootSystemError):
            oracle(rs, P(3, 1), bad)


@pytest.mark.parametrize("label", ["A3", "D5", "E6"])
def test_hand_built_certificate_out_of_range_raises_root_system_error(label):
    # Every entry is a positive root, so nothing but the range checks can
    # stop the clauses from indexing with d.
    rs = build(label)
    n = rs.rank
    entries = tuple((c, 1) for c in rs.positive_roots[-3:])
    for omitted, d in ((0, 1), (n + 1, 1), (1, 0), (1, n + 1), (n + 1, n + 1)):
        with pytest.raises(RootSystemError):
            check_certificate(rs, Certificate(rst=rs.rst, omitted=omitted, d=d, entries=entries))


def test_coefficient_bound_never_runs_the_path_or_lattice_oracle(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"oracle called with {args}")

    want = {}
    for label in ("A5", "C4", "D5", "E6", "E7", "B4", "F4"):
        rs = build(label)
        for p in range(1, rs.rank + 1):
            for d in range(1, rs.rank + 1):
                alpha = vanishing.distinguished_index(rs, P(rs.rank, p), d)
                tw = target_weight(rs, P(rs.rank, p), d)
                want[label, p, d] = None if alpha is None else tw.root_coords[alpha - 1]
    clear_caches()
    monkeypatch.setattr(vanishing, "_dijkstra_cached", refuse)
    monkeypatch.setattr(vanishing, "_lattice_cached", refuse)
    for (label, p, d), value in want.items():
        rs = build(label)
        assert coefficient_lower_bound(rs, P(rs.rank, p), d) == value


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


def test_certificate_with_short_or_long_roots_reports_failure():
    rs = build("A3")
    for coords in ((1, 0), (1, 0, 0, 0), ()):
        rep = check_certificate(rs, Certificate(rs.rst, 1, 1, ((coords, 1),)))
        assert not rep.roots_ok and not rep.sum_matches and not rep.valid
        assert any("not a positive root" in f for f in rep.failures)


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


def _reference_check(rs, cert):
    """check_certificate's clauses through the generic rational pairing."""
    parab, d = cert.parabolic, cert.d
    failures = []
    roots_ok = outside = True
    for c, n in cert.entries:
        if n < 1:
            roots_ok = False
            failures.append(f"multiplicity {n} < 1 for {c}")
        if not rs.is_positive_root(c):
            roots_ok = False
            failures.append(f"{c} is not a positive root")
        elif c[d - 1] < 1:
            outside = False
            failures.append(f"{c} lies in the Levi at index {d}")
    tw = target_weight(rs, parab, d)
    total = tuple(sum(n * c[j] for c, n in cert.entries) for j in range(rs.rank))
    sum_matches = total == tw.root_coords
    if not sum_matches:
        failures.append(f"(a) sum {total} != target {tw.root_coords}")
    orthogonal = True
    if roots_ok:
        # each unordered pair of distinct roots once, in first-appearance order
        distinct = list(dict.fromkeys(bi for bi, _ in cert.entries))
        for i, bi in enumerate(distinct):
            for bj in distinct[i + 1:]:
                if rs.pairing(rs.from_root_basis(bi), bj) != 0:
                    orthogonal = False
                    failures.append(f"(b) {bi} and {bj} are not orthogonal")
    chi0 = source_weight(rs, parab, d)
    ladder_uniform = roots_ok
    if roots_ok:
        for c, n in cert.entries:
            if rs.pairing(chi0, c) != n:
                ladder_uniform = False
                failures.append(f"(c) <chi0, {c}^vee> = {rs.pairing(chi0, c)} != {n}")
    sink = tuple(-x for x in rs.fundamental_weight(d))
    end = tuple(a - b for a, b in zip(chi0, rs.from_root_basis(total)))
    ladder_uniform = ladder_uniform and sum_matches and end == sink
    ladder_sequential = roots_ok
    if roots_ok:
        chi = chi0
        for c, n in cert.entries:
            if rs.pairing(chi, c) != n:
                ladder_sequential = False
                failures.append(f"sequential ladder stalls at {c}: pairing {rs.pairing(chi, c)} != {n}")
                break
            chi = tuple(a - n * b for a, b in zip(chi, rs.from_root_basis(c)))
        else:
            if chi != sink:
                ladder_sequential = False
                failures.append(f"sequential ladder ends at {chi}, not {sink}")
    m = dijkstra_order(rs, parab, d)
    ca = coefficient_lower_bound(rs, parab, d)
    cost = cert.cost
    cost_matches = cost == m and (ca is None or cost == ca)
    if not cost_matches:
        failures.append(f"(d) cost {cost} != dijkstra {m}" + ("" if ca is None else f", c_alpha {ca}"))
    return (roots_ok, outside, sum_matches, orthogonal, ladder_uniform, ladder_sequential,
            cost, m, ca, cost_matches, tuple(failures))


def _mutate(rng, rs, d, entries):
    """One random defect, or a harmless reordering, of a certificate's entries."""
    entries = list(entries)
    k = rng.randrange(len(entries))
    kind = rng.randrange(7)
    if kind == 0:
        rng.shuffle(entries)
    elif kind == 1:
        levi = [c for c in rs.positive_roots if c[d - 1] == 0]
        entries[k] = (rng.choice(levi), entries[k][1]) if levi else entries[k]
    elif kind == 2:
        c = entries[k][0]
        entries[k] = (rng.choice([tuple(-x for x in c), tuple(x + 1 for x in c)]), entries[k][1])
    elif kind == 3:
        entries[k] = (entries[k][0], rng.randint(0, 3))
    elif kind == 4:
        entries.insert(rng.randint(0, len(entries)), (rng.choice(rs.positive_roots), rng.randint(1, 3)))
    elif kind == 5 and len(entries) > 1:
        del entries[k]
    return tuple(entries)


# The non-simply-laced systems matter: in types A, D and E a root's coroot
# and fundamental coordinates coincide with data a swapped table would give.
DIFFERENTIAL_LABELS = (
    [f"A{n}" for n in range(2, 7)] + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)] + [f"D{n}" for n in range(4, 8)]
    + ["E6", "E7", "F4", "G2"]
)


@pytest.mark.parametrize("label", DIFFERENTIAL_LABELS)
def test_check_certificate_matches_rational_reference(label):
    rng = random.Random(label)
    rs = build(label)
    n = rs.rank
    configs = [(p, d) for p in range(1, n + 1) for d in range(1, n + 1)]
    # the last node carries a tabulated certificate in A, C, D, E6 and E7
    picks = rng.sample(configs, min(4, len(configs))) + [(n, rng.randint(1, n))]
    for p, d in picks:
        parab = P(n, p)
        bases = [path_certificate(rs, parab, d), catalog_certificate(rs, parab, d)]
        for base in filter(None, bases):
            for entries in [base.entries] + [_mutate(rng, rs, d, base.entries) for _ in range(12)]:
                cert = Certificate(rst=rs.rst, omitted=p, d=d, entries=entries)
                got = check_certificate(rs, cert)
                assert (got.roots_ok, got.outside_levi, got.sum_matches, got.orthogonal,
                        got.ladder_uniform, got.ladder_sequential, got.cost, got.dijkstra,
                        got.c_alpha, got.cost_matches, got.failures) \
                    == _reference_check(rs, cert), (label, p, d, entries)


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
