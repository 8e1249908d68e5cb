"""The folding rule: every B, C, F4 and G2 profile against its unfolding.

C_n, B_n, F4 and G2 are the fixed points of diagram automorphisms of
A_{2n-1}, D_{n+1}, E6 and D4.  Omit the whole orbit of p upstairs; the
folded path-order and lattice profiles of P_p then equal the unfolded
ones, read at one node per orbit.  The non-simply-laced searches pair
with coroots of two lengths, so a convention error in a short coroot or
in tau breaks the rule; the last two tests seed such errors.
"""

import random

import pytest

from weylpath import Parabolic, build, clear_caches, dijkstra_order, lattice_lower_bound
from weylpath import vanishing
from weylpath.vanishing import InternalInconsistencyError


def _unfolding(label):
    """The upstairs label, p -> the orbit of p it omits, d -> the node read."""
    fam, n = label[0], int(label[1:])
    if fam == "C":
        return f"A{2 * n - 1}", lambda p: {p, 2 * n - p}, lambda d: d
    if fam == "B":
        return f"D{n + 1}", lambda p: {p} if p < n else {n, n + 1}, lambda d: d
    if fam == "F":
        return "E6", {1: {2}, 2: {4}, 3: {3, 5}, 4: {1, 6}}.get, lambda d: (2, 4, 3, 1)[d - 1]
    return "D4", {1: {1, 3, 4}, 2: {2}}.get, lambda d: d


def _assert_folds(label):
    rs = build(label)
    up_label, orbit, node = _unfolding(label)
    up = build(up_label)
    for p in range(1, rs.rank + 1):
        down, upstairs = Parabolic.maximal(rs.rank, p), Parabolic(up.rank, orbit(p))
        for oracle in (dijkstra_order, lattice_lower_bound):
            folded = [oracle(rs, down, d) for d in range(1, rs.rank + 1)]
            unfolded = [oracle(up, upstairs, node(d)) for d in range(1, rs.rank + 1)]
            assert folded == unfolded, (label, p, oracle.__name__)


FOLDED = [f"B{n}" for n in range(2, 13)] + [f"C{n}" for n in range(2, 13)] + ["F4", "G2"]


@pytest.mark.parametrize("label", FOLDED)
def test_profiles_fold(label):
    _assert_folds(label)


@pytest.fixture
def cold():
    # A mutation lives on a freshly built system and the records built from
    # it; dropping every cache afterwards takes them all away.
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize("seed", range(4))
def test_a_wrong_short_coroot_breaks_the_rule(cold, monkeypatch, seed):
    # The highest short root's coroot taken at the long roots' norm, as a
    # length convention error would.  G2 is left out: no change to one of
    # its short coroots (doubled, tripled, or one entry moved by 1) moves
    # any of its profiles, measured on every short root.
    rng = random.Random(seed)
    label = rng.choice([x for x in FOLDED if x != "G2"])
    rs = build(label)
    norms = rs._halfnorm
    k = max(k for k, h in enumerate(norms) if h == min(norms))
    coroots = list(rs._coroots)
    coroots[k] = tuple(max(norms) // min(norms) * x for x in coroots[k])
    monkeypatch.setattr(rs, "_coroots", tuple(coroots))
    with pytest.raises((AssertionError, InternalInconsistencyError)):
        _assert_folds(label)


@pytest.mark.parametrize("seed", range(4))
def test_a_wrong_tau_breaks_the_rule(cold, monkeypatch, seed):
    # tau is the longest element of the Levi, read off one raise over it in
    # vanishing._targets; leaving the first or the last Levi reflection out
    # of that raise, on the folded side only, makes it the longest element
    # of a smaller group.
    rng = random.Random(seed)
    label = rng.choice(FOLDED)
    rs = build(label)
    keep = rng.choice((slice(1, None), slice(None, -1)))
    raise_ = vanishing._raise

    def wrong_tau(cols, indices, chi):
        # _targets passes the Levi as a list, _system all of W as a range.
        if cols is rs._cartan_cols and type(indices) is list:
            indices = indices[keep]
        return raise_(cols, indices, chi)

    monkeypatch.setattr(vanishing, "_raise", wrong_tau)
    with pytest.raises((AssertionError, InternalInconsistencyError)):
        _assert_folds(label)
