"""Weyl-group words, longest elements, the involution -w0, weight orbits.

Group elements are kept as words in the simple reflections (tuples of
1-based letters, applied right to left); two words represent the same
element exactly when they act identically on the strictly dominant
weight rho, which is how :func:`words_equal` tests equality.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .rootsystem import Parabolic, Root, RootSystem, RootSystemError, Weight

WeylWord = tuple


def apply_word(rs: RootSystem, word: Sequence, weight: Sequence) -> Weight:
    """Act by the word on a weight; the last letter acts first."""
    w = tuple(weight)
    for i in reversed(word):
        w = rs.simple_reflection(i, w)
    return w


def apply_word_to_root(rs: RootSystem, word: Sequence, root: Sequence) -> Root:
    """Act by the word on simple-root coordinates."""
    c = tuple(root)
    for i in reversed(word):
        c = rs.reflect_root(i, c)
    return c


def words_equal(rs: RootSystem, u: Sequence, v: Sequence) -> bool:
    return apply_word(rs, u, rs.rho) == apply_word(rs, v, rs.rho)


def word_length(rs: RootSystem, word: Sequence) -> int:
    """Coxeter length: number of positive roots sent negative."""
    count = 0
    for c in rs.positive_roots:
        img = apply_word_to_root(rs, word, c)
        if all(x <= 0 for x in img):
            count += 1
    return count


def longest_element(rs: RootSystem, subset: Iterable | None = None) -> WeylWord:
    """Longest element of the parabolic subgroup generated by ``subset``.

    Greedy descent: starting from the sum of the fundamental weights
    indexed by ``subset``, repeatedly apply the smallest reflection from
    ``subset`` with positive coordinate.  Always picking the smallest
    descent makes the returned reduced word deterministic; any descent
    order would yield the same group element.  ``subset=None`` means all
    indices, producing w0.
    """
    idx = sorted(range(1, rs.rank + 1) if subset is None else {int(j) for j in subset})
    if not set(idx) <= set(range(1, rs.rank + 1)):
        raise RootSystemError(f"subset {idx} out of range 1..{rs.rank}")
    v = tuple(int(j + 1 in idx) for j in range(rs.rank))
    applied = []
    while True:
        for j in idx:
            if v[j - 1] > 0:
                v = rs.simple_reflection(j, v)
                applied.append(j)
                break
        else:
            break
    return tuple(reversed(applied))


def weyl_order(rs: RootSystem) -> int:
    """|W| in closed form."""
    n = rs.rank
    fam = rs.rst.family
    if fam == "A":
        return math.factorial(n + 1)
    if fam in ("B", "C"):
        return 2 ** n * math.factorial(n)
    if fam == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}[rs.rst.label]


def weyl_involution(rs: RootSystem, weight: Sequence) -> Weight:
    """The involution -w0 acting on a weight; permutes fundamental weights."""
    w0 = longest_element(rs)
    return tuple(-x for x in apply_word(rs, w0, weight))


def involution_index(rs: RootSystem, d: int) -> int:
    """Index d' with -w0(omega_d) = omega_{d'}."""
    img = weyl_involution(rs, rs.fundamental_weight(d))
    for j in range(1, rs.rank + 1):
        if img == rs.fundamental_weight(j):
            return j
    raise RootSystemError(f"involution image of omega_{d} is not fundamental: {img}")


def tau_on_omitted_root(rs: RootSystem, parabolic: Parabolic) -> Root:
    """tau(alpha_d) for the longest element tau of a maximal parabolic.

    The result is always a positive root: tau fixes the complement of
    the Levi's root subsystem and l(tau s_d) = l(tau) + 1.
    """
    d = parabolic.omitted_index
    tau = longest_element(rs, parabolic.retained)
    img = apply_word_to_root(rs, tau, rs.simple_root(d))
    if not all(x >= 0 for x in img):
        raise RootSystemError(f"tau(alpha_{d}) came out negative: {img}")
    return img


def is_dominant(weight: Sequence) -> bool:
    return all(x >= 0 for x in weight)


def orbit(rs: RootSystem, weight: Sequence) -> list:
    """The full W-orbit of a dominant weight, lexicographically sorted.

    Breadth-first closure under the simple reflections; node identity is
    exact equality of fundamental coordinates.  Rejects non-dominant
    seeds (normalize first: every orbit meets the dominant cone once).
    """
    seed = tuple(weight)
    rs._check_length(seed, "weight")
    if not is_dominant(seed):
        raise RootSystemError(f"orbit seed must be dominant, got {seed}")
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, rs.rank + 1):
                if w[i - 1] != 0:
                    img = rs.simple_reflection(i, w)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
        frontier = nxt
    return sorted(seen)


def orbit_size(rs: RootSystem, weight: Sequence) -> int:
    return len(orbit(rs, weight))


def minuscule_indices(rs: RootSystem) -> list:
    """Fundamental indices d with <omega_d, beta^vee> <= 1 over all beta > 0.

    <omega_d, beta^vee> is entry d of beta^vee in simple coroots, which
    the root system stores as an integer vector for every beta > 0.
    """
    return [d for d in range(1, rs.rank + 1) if max(cv[d - 1] for cv in rs._coroots) <= 1]


def cominuscule_indices(rs: RootSystem) -> list:
    """Indices j with alpha_j of coefficient 1 in the highest root, the
    last positive root; such an alpha_j has coefficient <= 1 in every root."""
    return [j for j, c in enumerate(rs.positive_roots[-1], start=1) if c == 1]


def is_minuscule(rs: RootSystem, d: int) -> bool:
    return d in minuscule_indices(rs)
