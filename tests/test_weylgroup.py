import math
import random

import pytest

from weylpath import (
    Parabolic, RootSystem, build,
    apply_word, apply_word_to_root, cominuscule_indices, involution_index, longest_element,
    minuscule_indices, orbit, orbit_size, tau_on_omitted_root,
    weyl_involution, weyl_order, word_length, words_equal,
)
from weylpath import vanishing, weylgroup
from weylpath.rootsystem import _RANK_BOUNDS, RootSystemError, RootSystemType, _build_cached


def test_longest_element_rank_one():
    rs = build("A1")
    assert longest_element(rs, {1}) == (1,)


def test_longest_element_length_matches_levi():
    # |word| equals the number of positive roots of the sub-diagram
    cases = [("E6", {2, 3, 4, 5, 6}, 20), ("E7", {1, 2, 3, 4, 5, 6}, 36),
             ("D5", {2, 3, 4, 5}, 12), ("A4", None, 10)]
    for label, subset, length in cases:
        rs = build(label)
        word = longest_element(rs, subset)
        assert len(word) == length
        assert word_length(rs, word) == length


@pytest.mark.parametrize("label", ["E8", "F4", "G2", "B7", "C6", "D6", "A8", "E6", "E7"])
def test_word_length_matches_roots_sent_negative(label):
    # The definition, kept as the reference: apply the word to every
    # positive root and count the images that come out negative.
    rs = build(label)
    rng = random.Random(label)
    words = [(), longest_element(rs)] + [
        tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(1, 30))) for _ in range(40)]
    for word in words:
        want = sum(1 for c in rs.positive_roots if max(apply_word_to_root(rs, word, c)) <= 0)
        assert word_length(rs, word) == want, word


def test_e6_levi_action_table():
    rs = build("E6")
    tau = longest_element(rs, {2, 3, 4, 5, 6})
    images = {j: apply_word_to_root(rs, tau, rs.simple_root(j)) for j in (2, 3, 4, 5, 6)}
    neg = lambda j: tuple(-x for x in rs.simple_root(j))
    assert images[2] == neg(3)
    assert images[3] == neg(2)
    assert images[4] == neg(4)
    assert images[5] == neg(5)
    assert images[6] == neg(6)


def test_e7_levi_action_table():
    rs = build("E7")
    tau = longest_element(rs, {1, 2, 3, 4, 5, 6})
    neg = lambda j: tuple(-x for x in rs.simple_root(j))
    assert apply_word_to_root(rs, tau, rs.simple_root(1)) == neg(6)
    assert apply_word_to_root(rs, tau, rs.simple_root(3)) == neg(5)
    assert apply_word_to_root(rs, tau, rs.simple_root(2)) == neg(2)
    assert apply_word_to_root(rs, tau, rs.simple_root(4)) == neg(4)


def test_tau_on_omitted_root_exceptional():
    assert tau_on_omitted_root(build("E6"), Parabolic.maximal(6, 1)) == (1, 2, 2, 3, 2, 1)
    assert tau_on_omitted_root(build("E7"), Parabolic.maximal(7, 7)) == (2, 2, 3, 4, 3, 2, 1)


def test_tau_on_omitted_root_type_a_is_all_ones():
    for r in (2, 4, 7):
        rs = build("A", r)
        for c in range(1, r + 1):
            assert tau_on_omitted_root(rs, Parabolic.maximal(r, c)) == (1,) * r


def test_longest_element_squares_to_identity():
    rng = random.Random(2)
    for label in ("A4", "B3", "C4", "D5", "E6", "G2"):
        rs = build(label)
        w0 = longest_element(rs)
        for _ in range(10):
            lam = tuple(rng.randint(-5, 5) for _ in range(rs.rank))
            assert apply_word(rs, w0, apply_word(rs, w0, lam)) == lam


def test_parabolic_longest_squares_to_identity():
    rng = random.Random(4)
    for label, subset in [("E6", {2, 3, 4, 5, 6}), ("D6", {2, 3, 4, 5, 6}), ("B4", {1, 2, 3})]:
        rs = build(label)
        tau = longest_element(rs, subset)
        for _ in range(10):
            lam = tuple(rng.randint(-5, 5) for _ in range(rs.rank))
            assert apply_word(rs, tau, apply_word(rs, tau, lam)) == lam


def test_tau_negates_levi_roots():
    rs = build("D6")
    subset = {2, 3, 4, 5, 6}
    tau = longest_element(rs, subset)
    for j in subset:
        img = apply_word_to_root(rs, tau, rs.simple_root(j))
        assert all(x <= 0 for x in img)
        assert all(img[k] == 0 for k in range(rs.rank) if k + 1 not in subset)


def test_word_equality_via_rho():
    rs = build("A2")
    assert words_equal(rs, (1, 2, 1), (2, 1, 2))
    assert not words_equal(rs, (1,), (2,))


def test_weyl_involution_tables():
    assert [involution_index(build("E7"), d) for d in range(1, 8)] == [1, 2, 3, 4, 5, 6, 7]
    assert [involution_index(build("E6"), d) for d in range(1, 7)] == [6, 2, 5, 4, 3, 1]
    assert [involution_index(build("D5"), d) for d in range(1, 6)] == [1, 2, 3, 5, 4]
    assert [involution_index(build("D6"), d) for d in range(1, 7)] == [1, 2, 3, 4, 5, 6]
    assert [involution_index(build("A5"), d) for d in range(1, 6)] == [5, 4, 3, 2, 1]


def test_involution_index_raises_once_per_root_system(monkeypatch):
    rs = RootSystem(build("A60").rst)  # fresh: no sigma kept yet
    raises = []

    def counted(*args):
        raises.append(args)
        return real(*args)

    real = weylgroup._raise
    monkeypatch.setattr(weylgroup, "_raise", counted)
    assert [involution_index(rs, d) for d in range(1, 61)] == list(range(60, 0, -1))
    assert weyl_involution(rs, tuple(range(60))) == tuple(range(59, -1, -1))
    assert len(raises) == 1


def test_weyl_involution_is_involutive():
    rng = random.Random(9)
    for label in ("A4", "D5", "E6"):
        rs = build(label)
        for _ in range(10):
            lam = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
            assert weyl_involution(rs, weyl_involution(rs, lam)) == lam


def test_orbit_rank_one():
    rs = build("A1")
    assert orbit(rs, (1,)) == [(-1,), (1,)]


def test_orbit_sizes():
    assert orbit_size(build("E7"), build("E7").fundamental_weight(7)) == 56
    assert orbit_size(build("E6"), build("E6").fundamental_weight(2)) == 72
    assert orbit_size(build("D4"), build("D4").fundamental_weight(4)) == 8
    assert orbit_size(build("C3"), build("C3").fundamental_weight(1)) == 6


def test_orbit_contains_extremes_and_divides_group_order():
    for label, d in [("A3", 2), ("B3", 3), ("C3", 2), ("D4", 1), ("G2", 1)]:
        rs = build(label)
        om = rs.fundamental_weight(d)
        orb = orbit(rs, om)
        w0 = longest_element(rs)
        assert tuple(om) in set(orb)
        assert apply_word(rs, w0, om) in set(orb)
        assert weyl_order(rs) % len(orb) == 0


def test_longest_element_rejects_non_integer_entries():
    # Entries were truncated by int(): 2.7 gave (2,), True (1,) and "3" (3,).
    rs = build("A4")
    for bad in (2.7, True, "3", None):
        with pytest.raises(RootSystemError):
            longest_element(rs, [bad])
        with pytest.raises(RootSystemError):
            longest_element(rs, [1, bad])
    for bad in (0, 5, -1):
        with pytest.raises(RootSystemError):
            longest_element(rs, [bad])
    assert longest_element(rs, [2]) == (2,)
    assert longest_element(rs, [3, 2, 3]) == longest_element(rs, {2, 3})


def test_orbit_rejects_non_dominant():
    rs = build("A2")
    with pytest.raises(RootSystemError):
        orbit(rs, (-1, 0))


def test_orbit_rejects_wrong_lengths():
    rs = build("A3")
    for weight in ((1,), (1, 0), (1, 0, 0, 5, 7), ()):
        with pytest.raises(RootSystemError):
            orbit(rs, weight)
    assert len(orbit(rs, (1, 0, 0))) == 4


def test_minuscule_classification():
    assert minuscule_indices(build("A6")) == [1, 2, 3, 4, 5, 6]
    assert minuscule_indices(build("B5")) == [5]
    assert minuscule_indices(build("C5")) == [1]
    assert minuscule_indices(build("D7")) == [1, 6, 7]
    assert minuscule_indices(build("E6")) == [1, 6]
    assert minuscule_indices(build("E7")) == [7]
    for label in ("E8", "F4", "G2"):
        assert minuscule_indices(build(label)) == []
    labels = ([f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 13)]
              + [f"C{n}" for n in range(2, 13)] + [f"D{n}" for n in range(3, 13)]
              + ["E6", "E7", "E8", "F4", "G2"])
    for label in labels:
        rs = build(label)
        want = [d for d in range(1, rs.rank + 1)
                if all(rs.pairing(rs.fundamental_weight(d), c) <= 1 for c in rs.positive_roots)]
        assert minuscule_indices(rs) == want, label


SCAN_LABELS = ([f"A{n}" for n in range(1, 21)] + [f"B{n}" for n in range(2, 21)]
               + [f"C{n}" for n in range(2, 21)] + [f"D{n}" for n in range(3, 21)]
               + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("label", SCAN_LABELS)
def test_minuscule_indices_match_scan_over_every_coroot(label):
    # The highest coroot dominates every coroot, so reading it alone gives
    # the same answer as the scan over every stored coroot.
    rs = build(label)
    want = [d for d in range(1, rs.rank + 1) if max(cv[d - 1] for cv in rs._coroots) <= 1]
    assert minuscule_indices(rs) == want


def test_cominuscule_classification():
    assert cominuscule_indices(build("A6")) == [1, 2, 3, 4, 5, 6]
    assert cominuscule_indices(build("B5")) == [1]
    assert cominuscule_indices(build("C5")) == [5]
    assert cominuscule_indices(build("D7")) == [1, 6, 7]
    assert cominuscule_indices(build("D3")) == [1, 2, 3]
    assert cominuscule_indices(build("E6")) == [1, 6]
    assert cominuscule_indices(build("E7")) == [7]
    for label in ("E8", "F4", "G2"):
        assert cominuscule_indices(build(label)) == []


def test_cominuscule_index_has_coefficient_at_most_one_in_every_root():
    # The coefficient bound relies on this; it used to be checked at run time.
    labels = ([f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 13)]
              + [f"C{n}" for n in range(2, 13)] + [f"D{n}" for n in range(3, 13)]
              + ["E6", "E7", "E8", "F4", "G2"])
    for label in labels:
        rs = build(label)
        highest = max(rs.positive_roots, key=sum)
        assert cominuscule_indices(rs) == [j for j in range(1, rs.rank + 1) if highest[j - 1] == 1]
        for j in cominuscule_indices(rs):
            assert max(c[j - 1] for c in rs.positive_roots) == 1, (label, j)


def test_highest_root_from_one_raise_is_the_last_positive_root():
    types = [RootSystemType(f, n) for f, (lo, hi) in _RANK_BOUNDS.items()
             for n in range(lo, (hi or 24) + 1)]
    types += [RootSystemType(f, n) for f in "ABCD" for n in (32, 48, 64)]
    for rst in types:
        assert weylgroup._highest_root(rst) == build(rst).positive_roots[-1], rst
        _build_cached.cache_clear()


def test_minuscule_orbit_pairings_are_small():
    for label, d in [("D5", 5), ("E6", 1), ("A4", 2), ("C4", 1), ("B3", 3)]:
        rs = build(label)
        for chi in orbit(rs, rs.fundamental_weight(d)):
            for c in rs.positive_roots:
                assert rs.pairing(chi, c) in (-1, 0, 1)


REFERENCE_LABELS = [f"{f}{n}" for f, low in zip("ABCD", (1, 2, 2, 3))
                    for n in range(low, 9)] + ["E6", "E7", "E8", "F4", "G2"]


def _family_order(label):
    # The closed forms weyl_order used before it read the root heights.
    fam, n = label[0], int(label[1:])
    if fam == "A":
        return math.factorial(n + 1)
    if fam in "BC":
        return 2 ** n * math.factorial(n)
    if fam == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}[label]


@pytest.mark.parametrize("label", [f"{f}{n}" for f, low in zip("ABCD", (1, 2, 2, 3))
                                   for n in range(low, 13)] + ["E6", "E7", "E8", "F4", "G2"])
def test_weyl_order_matches_family_formulas(label):
    assert weyl_order(build(label)) == _family_order(label)


@pytest.mark.parametrize("label", [f"{f}{n}" for f, low in zip("ABCD", (1, 2, 2, 3))
                                   for n in range(low, 6)] + ["G2", "F4", "E6"])
def test_orbit_size_matches_enumerated_orbit(label):
    # The listed orbit is the reference for the height product; closed under
    # every simple_reflection and of that size, it is the whole orbit.
    rs = build(label)
    rng = random.Random(label)
    seeds = [rs.fundamental_weight(d) for d in range(1, rs.rank + 1)]
    seeds += [tuple(rng.choice((0, 0, 1, 2)) for _ in range(rs.rank)) for _ in range(4)]
    if rs.rank <= 4:
        seeds.append(rs.rho)
    for seed in seeds:
        orb = orbit(rs, seed)
        assert orbit_size(rs, seed) == len(orb), seed
        members = set(orb)
        assert all(rs.simple_reflection(i, w) in members
                   for w in orb for i in range(1, rs.rank + 1)), seed


def test_orbit_size_of_e8_rho_is_the_group_order():
    rs = build("E8")
    assert orbit_size(rs, rs.rho) == weyl_order(rs) == 696729600
    assert orbit_size(rs, (0,) * 8) == 1


@pytest.mark.parametrize("label", REFERENCE_LABELS)
def test_involution_matches_longest_word(label):
    rs = build(label)
    w0 = longest_element(rs)
    rng = random.Random(label)
    for d in range(1, rs.rank + 1):
        img = tuple(-x for x in apply_word(rs, w0, rs.fundamental_weight(d)))
        assert img == rs.fundamental_weight(involution_index(rs, d))
    for _ in range(5):
        lam = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
        assert weyl_involution(rs, lam) == tuple(-x for x in apply_word(rs, w0, lam))


@pytest.mark.parametrize("label", REFERENCE_LABELS)
def test_tau_on_omitted_root_matches_longest_word(label):
    rs = build(label)
    for p in range(1, rs.rank + 1):
        parab = Parabolic.maximal(rs.rank, p)
        tau = longest_element(rs, parab.retained)
        assert tau_on_omitted_root(rs, parab) == apply_word_to_root(rs, tau, rs.simple_root(p)), p


def test_helpers_taking_no_word_build_none(monkeypatch):
    # Each reads one raise or the root heights, never a word or a listed orbit.
    def refuse(*args):
        raise AssertionError("word or orbit helper called")

    for name in ("longest_element", "apply_word", "apply_word_to_root", "orbit"):
        monkeypatch.setattr(weylgroup, name, refuse)
    rs = build("E7")
    assert weylgroup.weyl_order(rs) == 2903040
    assert weylgroup.orbit_size(rs, rs.fundamental_weight(7)) == 56
    assert weylgroup.involution_index(rs, 1) == 1
    assert weylgroup.weyl_involution(rs, rs.rho) == rs.rho
    assert weylgroup.tau_on_omitted_root(rs, Parabolic.maximal(7, 7)) == (2, 2, 3, 4, 3, 2, 1)


def test_vanishing_reads_the_raise_of_weylgroup():
    assert vanishing._make_canon is weylgroup._make_canon
    assert vanishing._raise is weylgroup._raise


def test_orbit_refuses_above_its_cap():
    # E8's rho orbit has 696 729 600 weights; the closure ran without bound.
    rs = build("E8")
    with pytest.raises(RootSystemError, match=r"E8 orbit of \(1, 1, 1, 1, 1, 1, 1, 1\) has 696729600"):
        orbit(rs, rs.rho)
    with pytest.raises(RootSystemError, match="E7"):
        orbit(build("E7"), build("E7").rho)
    assert weylgroup.MAX_ORBIT_SIZE >= orbit_size(build("E6"), build("E6").rho)


def test_tau_on_omitted_root_rejects_a_parabolic_of_another_rank():
    # A rank-3 parabolic on A5 came back as (1, 1, 1, 0, 0).
    with pytest.raises(RootSystemError, match="rank 3"):
        tau_on_omitted_root(build("A5"), Parabolic.maximal(3, 1))


def test_empty_words_check_the_length():
    # The empty word skipped every length check and returned its input.
    rs = build("A5")
    with pytest.raises(RootSystemError, match="length 2"):
        apply_word(rs, (), (1, 2))
    with pytest.raises(RootSystemError, match="length 2"):
        apply_word_to_root(rs, (), (1, 2))
    assert apply_word(rs, (), rs.rho) == rs.rho
