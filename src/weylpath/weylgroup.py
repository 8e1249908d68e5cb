"""The Weyl group on weights: the dominant-point raise, words, -w0, orbits.

This module owns the raise (:func:`_make_canon`) that ``vanishing`` draws
its targets from; every helper returning a weight, a root or a count reads
one raise or the root heights.  Words are tuples of 1-based letters,
applied right to left, equal exactly when they agree on rho.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import mul

from .rootsystem import Parabolic, Root, RootSystem, RootSystemError, Weight

WeylWord = tuple

# Weights :func:`orbit` lists before it refuses; E6's rho orbit has 51 840.
MAX_ORBIT_SIZE = 100_000


def _make_canon(cols, indices):
    """The W_J-dominant point of the orbit of a state ``(chi, v)``.

    J is the set of 0-based ``indices``; ``chi`` is a weight in fundamental
    coordinates and ``v`` a vector in root coordinates that moves with it.
    Only the coordinates in J are tested, so a state that is already
    W_J-dominant comes back as it is, whatever its other coordinates.
    While some chi_i < 0 with i in J, s_i adds -chi_i to v_i and subtracts
    chi_i times column i of the Cartan matrix from chi; only i's
    neighbours can newly turn negative.  The dominant point is unique, so
    v ends raised by the root coordinates of its difference from chi.
    """
    inside = [False] * len(cols)
    for i in indices:
        inside[i] = True

    def canon(chi, v):
        todo = [i for i in indices if chi[i] < 0]
        if not todo:
            return chi, v
        chi, v = list(chi), list(v)
        while todo:
            i = todo.pop()
            k = chi[i]
            if k >= 0:
                continue
            v[i] -= k
            for j, a in cols[i]:
                chi[j] -= k * a
                if chi[j] < 0 and inside[j]:
                    todo.append(j)
        return tuple(chi), tuple(v)

    return canon


def _raise(cols, indices, chi):
    """The W_J-dominant point of chi and, in root coordinates, how far it
    lies above chi (see :func:`_make_canon`)."""
    return _make_canon(cols, indices)(chi, (0,) * len(cols))


def _sigma(rs: RootSystem) -> tuple:
    """sigma = -w0 as (sigma(1), ..., sigma(n)), raised once per root system
    and kept in its ``_sigma`` slot.  w0 raises the regular antidominant
    -sum_j 2**j omega_{j+1} to sum_j 2**j omega_{sigma(j+1)}, and sigma is
    an involution, so sigma(i) is coordinate i's bit length."""
    sigma = rs._sigma
    if sigma is None:
        top, _ = _raise(rs._cartan_cols, range(rs.rank), tuple(-1 << j for j in range(rs.rank)))
        sigma = rs._sigma = tuple(x.bit_length() for x in top)
    return sigma


def _height_quotient(roots) -> int:
    """prod (ht beta + 1) // prod ht beta over ``roots``: |W| over all positive
    roots (Macdonald, "The Poincare series of a Coxeter group", Math. Ann.
    199, 1972), and |W| / |W_J| over those outside the subsystem of W_J."""
    num = den = 1
    for h in map(sum, roots):
        num, den = num * (h + 1), den * h
    return num // den


def apply_word(rs: RootSystem, word: Sequence, weight: Sequence) -> Weight:
    """Act by the word on a weight; the last letter acts first."""
    w = tuple(weight)
    rs._check_length(w, "weight")
    for i in reversed(word):
        w = rs.simple_reflection(i, w)
    return w


def apply_word_to_root(rs: RootSystem, word: Sequence, root: Sequence) -> Root:
    """Act by the word on simple-root coordinates."""
    c = tuple(root)
    rs._check_length(c, "root coordinate vector")
    for i in reversed(word):
        c = rs.reflect_root(i, c)
    return c


def words_equal(rs: RootSystem, u: Sequence, v: Sequence) -> bool:
    return apply_word(rs, u, rs.rho) == apply_word(rs, v, rs.rho)


def word_length(rs: RootSystem, word: Sequence) -> int:
    """Coxeter length: number of positive roots sent negative.

    w^-1 sends beta > 0 negative exactly when <w(rho), beta^vee> < 0, as
    rho is strictly dominant, and l(w^-1) = l(w); so one image of rho,
    paired with every positive coroot, gives the length.
    """
    img = apply_word(rs, word, rs.rho)
    return sum(1 for c in rs._coroots if sum(map(mul, img, c)) < 0)


def longest_element(rs: RootSystem, subset: Iterable | None = None) -> WeylWord:
    """Longest element of the parabolic subgroup generated by ``subset``.

    Greedy descent: starting from the sum of the fundamental weights
    indexed by ``subset``, repeatedly apply the smallest reflection from
    ``subset`` with positive coordinate.  Always picking the smallest
    descent makes the returned reduced word deterministic; any descent
    order would yield the same group element.  ``subset=None`` means all
    indices, producing w0.  Entries must be plain ints (not bool, float or
    str), as for every simple index.
    """
    if subset is None:
        idx = range(1, rs.rank + 1)
    else:
        chosen = list(subset)
        for j in chosen:
            rs._check_index(j)
        idx = sorted(set(chosen))
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
    """|W|, from the heights of the positive roots (:func:`_height_quotient`)."""
    return _height_quotient(rs.positive_roots)


def weyl_involution(rs: RootSystem, weight: Sequence) -> Weight:
    """The involution -w0 acting on a weight; permutes fundamental weights."""
    w = tuple(weight)
    rs._check_length(w, "weight")
    return tuple(w[s - 1] for s in _sigma(rs))


def involution_index(rs: RootSystem, d: int) -> int:
    """Index d' with -w0(omega_d) = omega_{d'}."""
    rs._check_index(d)
    return _sigma(rs)[d - 1]


def tau_on_omitted_root(rs: RootSystem, parabolic: Parabolic) -> Root:
    """tau(alpha_d) for the longest element tau of a maximal parabolic.

    alpha_d (column d of the Cartan matrix) is Levi-antidominant, so tau
    raises it to its Levi-dominant point; the result is a positive root.
    """
    rs._check_parabolic(parabolic)
    d = parabolic.omitted_index
    levi = [i - 1 for i in sorted(parabolic.retained)]
    _, v = _raise(rs._cartan_cols, levi, tuple(row[d - 1] for row in rs.cartan))
    return tuple(x + (j == d - 1) for j, x in enumerate(v))


def orbit(rs: RootSystem, weight: Sequence) -> list:
    """The full W-orbit of a dominant weight, lexicographically sorted.

    Closure under the simple reflections, each step subtracting w_i times
    the sparse Cartan column i; node identity is exact equality of
    fundamental coordinates.  Rejects non-dominant seeds (normalize
    first) and, by :func:`orbit_size`, orbits above ``MAX_ORBIT_SIZE``.
    """
    seed = tuple(weight)
    size = orbit_size(rs, seed)
    if size > MAX_ORBIT_SIZE:
        raise RootSystemError(f"{rs.rst} orbit of {seed} has {size} weights, cap {MAX_ORBIT_SIZE}")
    cols = rs._cartan_cols
    seen = {seed}
    todo = [seed]
    while todo:
        w = todo.pop()
        for i, col in enumerate(cols):
            k = w[i]
            if k:
                img = list(w)
                for j, a in col:
                    img[j] -= k * a
                img = tuple(img)
                if img not in seen:
                    seen.add(img)
                    todo.append(img)
    return sorted(seen)


def orbit_size(rs: RootSystem, weight: Sequence) -> int:
    """|W| / |W_J| for a dominant weight with J its zero coordinates: the
    height product over the positive roots whose support meets a nonzero
    coordinate (:func:`_height_quotient`)."""
    seed = tuple(weight)
    rs._check_length(seed, "weight")
    if min(seed) < 0:
        raise RootSystemError(f"orbit seed must be dominant, got {seed}")
    moved = [j for j, x in enumerate(seed) if x]
    return _height_quotient(c for c in rs.positive_roots if any(c[j] for j in moved))


def minuscule_indices(rs: RootSystem) -> list:
    """Fundamental indices d with <omega_d, beta^vee> <= 1 over all beta > 0.

    <omega_d, beta^vee> is entry d of beta^vee in simple coroots.  The
    coroots are the positive roots of the dual system, whose highest root,
    the coroot of the highest short root, dominates every coroot entry by
    entry.  Short roots have half norm 1, and the highest short root is the
    last of them in the (height, lex) order of ``positive_roots``.
    """
    hn = rs._halfnorm
    return [d for d, c in enumerate(rs._coroots[len(hn) - 1 - hn[::-1].index(1)], start=1) if c <= 1]


def cominuscule_indices(rs: RootSystem) -> list:
    """Indices j with alpha_j of coefficient 1 in the highest root, the
    last positive root; such an alpha_j has coefficient <= 1 in every root."""
    return [j for j, c in enumerate(rs.positive_roots[-1], start=1) if c == 1]


def is_minuscule(rs: RootSystem, d: int) -> bool:
    return d in minuscule_indices(rs)
