import random

import pytest

from weylpath import (
    Parabolic, build,
    apply_word, apply_word_to_root, cominuscule_indices, involution_index, longest_element,
    minuscule_indices, orbit, orbit_size, tau_on_omitted_root,
    weyl_involution, weyl_order, word_length, words_equal,
)
from weylpath.rootsystem import RootSystemError


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


def test_minuscule_orbit_pairings_are_small():
    for label, d in [("D5", 5), ("E6", 1), ("A4", 2), ("C4", 1), ("B3", 3)]:
        rs = build(label)
        for chi in orbit(rs, rs.fundamental_weight(d)):
            for c in rs.positive_roots:
                assert rs.pairing(chi, c) in (-1, 0, 1)
