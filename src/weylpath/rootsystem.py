"""Finite crystallographic root systems in Bourbaki numbering.

All arithmetic is exact: integer coordinates for roots and integral
weights, ``fractions.Fraction`` wherever a rational value can occur.
Every identity checked downstream is an exact equality, so nothing in
this package ever touches floating point.

Conventions
-----------
* Simple roots, fundamental weights and Weyl-group letters are indexed
  1..rank externally (Bourbaki numbering); internal arrays are 0-based.
* A ``Weight`` is a coordinate vector in the fundamental-weight basis,
  entry ``j`` being the coroot pairing with the j-th simple coroot.
* A ``Root`` is an integer coordinate vector in the simple-root basis.
* The Cartan matrix is stored as ``A[i][j] = <alpha_j, alpha_i^vee>``,
  so a fundamental-coordinate vector of a root ``beta = sum c_j alpha_j``
  is ``A @ c``.
* Symmetrizers ``d_i`` make ``diag(d) @ A`` symmetric and are normalized
  so short roots have ``(beta, beta)/2 = 1``; pairings of integral
  weights with coroots are then plain integers.
* The labels :class:`RootSystemType` and :class:`Parabolic` are
  immutable named tuples: they hash and compare by value as plain
  tuples do, index and unpack, and check their fields in ``__new__``,
  which ``_make``, ``_replace`` and unpickling also go through.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from operator import sub

Weight = tuple  # fundamental-weight coordinates, ints or Fractions
Root = tuple    # simple-root coordinates, ints

FAMILIES = "ABCDEFG"

# rank constraints per family: (min, max); None means unbounded above
_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

# classical |R+| counts, used as a build-time self check
_POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


class RootSystemError(ValueError):
    """Invalid root-system data: bad (family, rank), non-root input, ..."""


def _validated_make(cls, iterable):
    """``_make``, and so ``_replace``, through the validating ``__new__``."""
    return cls(*iterable)


class RootSystemType(namedtuple("RootSystemType", "family rank")):
    """A finite type label such as E6 or D7: the named tuple ``(family, rank)``."""

    __slots__ = ()

    def __new__(cls, family, rank):
        if not isinstance(family, str) or family not in _RANK_BOUNDS:
            raise RootSystemError(f"unknown family {family!r}")
        lo, hi = _RANK_BOUNDS[family]
        # type() rather than isinstance(): True must not pass as rank 1.
        if type(rank) is not int or rank < lo or (hi is not None and rank > hi):
            raise RootSystemError(
                f"rank {rank!r} out of range for family {family} "
                f"(allowed: {lo}..{hi if hi is not None else 'inf'})"
            )
        return tuple.__new__(cls, (family, rank))

    _make = classmethod(_validated_make)

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "RootSystemType":
        text = text.strip()
        if len(text) < 2 or text[0].upper() not in FAMILIES or not text[1:].isdigit():
            raise RootSystemError(f"cannot parse root-system label {text!r}")
        return cls(text[0].upper(), int(text[1:]))

    def __str__(self) -> str:
        return self.label


class Parabolic(namedtuple("Parabolic", "rank omitted")):
    """Standard parabolic: simple indices split into omitted and retained.

    The named tuple ``(rank, omitted)``: ``omitted`` is the frozenset of
    simple indices NOT in the Levi; a maximal parabolic omits exactly one.
    """

    __slots__ = ()

    def __new__(cls, rank, omitted):
        try:
            indices = tuple(omitted)
        except TypeError:
            indices = None
        # type() rather than isinstance(): True must not pass as index 1.
        if type(rank) is not int or indices is None or any(type(j) is not int for j in indices):
            raise RootSystemError(
                f"parabolic rank {rank!r} and omitted indices "
                f"{omitted if indices is None else indices!r} must be plain integers")
        om = frozenset(indices)
        if not all(0 < j <= rank for j in om):
            raise RootSystemError(f"omitted indices {sorted(om)} out of range 1..{rank}")
        return tuple.__new__(cls, (rank, om))

    _make = classmethod(_validated_make)

    @classmethod
    def maximal(cls, rank: int, d: int) -> "Parabolic":
        return cls(rank, frozenset({d}))

    @property
    def retained(self) -> frozenset:
        return frozenset(range(1, self.rank + 1)) - self.omitted

    @property
    def omitted_index(self) -> int:
        """The unique omitted index; raises if not maximal."""
        if len(self.omitted) != 1:
            raise RootSystemError("parabolic is not maximal")
        return next(iter(self.omitted))


def _cartan_and_symmetrizers(rst: RootSystemType):
    """Cartan matrix and symmetrizers per Bourbaki diagram shapes."""
    n = rst.rank
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = 2

    def bond(i, j, aij=-1, aji=-1):
        # 1-based node labels
        A[i - 1][j - 1] = aij
        A[j - 1][i - 1] = aji

    fam = rst.family
    d = [1] * n
    if fam == "A":
        for i in range(1, n):
            bond(i, i + 1)
    elif fam == "B":
        for i in range(1, n - 1):
            bond(i, i + 1)
        # alpha_n short: <alpha_n, alpha_{n-1}^vee> = -1, <alpha_{n-1}, alpha_n^vee> = -2
        bond(n - 1, n, -1, -2)
        d = [2] * (n - 1) + [1]
    elif fam == "C":
        for i in range(1, n - 1):
            bond(i, i + 1)
        # alpha_n long
        bond(n - 1, n, -2, -1)
        d = [1] * (n - 1) + [2]
    elif fam == "D":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 2, n)
    elif fam == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(2, 4)
    elif fam == "F":
        bond(1, 2)
        # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        bond(2, 3, -1, -2)
        bond(3, 4)
        d = [2, 2, 1, 1]
    elif fam == "G":
        # alpha_1 short, alpha_2 long
        bond(1, 2, -3, -1)
        d = [1, 3]
    return tuple(tuple(row) for row in A), tuple(d)


def _invert_integer_matrix(M) -> tuple:
    """Exact inverse of a small integer matrix, rows of Fractions."""
    n = len(M)
    aug = [
        [Fraction(M[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class RootSystem:
    """One immutable root system: Cartan data plus the positive roots.

    Positive roots are enumerated by reflection closure of the simple
    roots and frozen in (height, lexicographic) order.  The closure
    carries each root's fundamental coordinates, coroot and half-norm
    with it: s_i moves a root beta to beta - k*alpha_i with
    k = <beta, alpha_i^vee>, so the image's fundamental coordinates are
    the parent's minus k times column i of the Cartan matrix, stored once
    by its nonzero entries.  The integer pairing data is thus computed in
    that one pass; the rational inverse of the Cartan matrix, needed
    only by :meth:`to_root_basis`, is computed on its first call, and
    -w0's index permutation on the first call that reads it
    (``weylgroup.involution_index`` and ``weyl_involution``).
    Instances are safe to share between threads.
    """

    __slots__ = (
        "rst", "rank", "cartan", "sym", "positive_roots",
        "_halfnorm", "_coroots", "_fund_coords",
        "_cartan_inv", "_sigma", "_root_index", "_cartan_cols",
    )

    def __init__(self, rst: RootSystemType):
        self.rst = rst
        n = self.rank = rst.rank
        A, d = self.cartan, self.sym = _cartan_and_symmetrizers(rst)
        # diag(d) @ A symmetric with d > 0 makes (beta, beta) W-invariant,
        # which the closure relies on to pass half-norms to images.
        if not all(x > 0 for x in d) or any(d[i] * A[i][j] != d[j] * A[j][i]
                                            for i in range(n) for j in range(i)):
            raise RootSystemError(f"{rst}: symmetrizers {d} do not symmetrize the Cartan matrix")
        self._cartan_inv = self._sigma = None  # filled on first use
        # column i by its nonzero entries (j, <alpha_{i+1}, alpha_{j+1}^vee>)
        self._cartan_cols = tuple(tuple((j, A[j][i]) for j in range(n) if A[j][i])
                                  for i in range(n))
        roots, fund, coroots, halfnorm, _ = zip(*chain.from_iterable(self._close_positive_roots()))

        want = _POSITIVE_COUNTS[rst.family](n)
        if len(roots) != want:
            raise RootSystemError(
                f"{rst}: enumerated {len(roots)} positive roots, expected {want}"
            )
        self.positive_roots = roots
        self._root_index = dict(zip(roots, range(len(roots))))
        self._fund_coords = fund
        self._coroots = coroots
        self._halfnorm = halfnorm

    # -- enumeration ---------------------------------------------------

    def _close_positive_roots(self) -> list:
        """The positive roots by height, each level sorted.

        Level h lists the records ``(coords, fund, coroot, halfnorm, key)``
        of the roots of height h; ``key`` packs the coordinates 3 bits
        apiece, enough for every coefficient up to E8's 6.  Each positive
        root of height > 1 is s_i(gamma) = gamma - k*alpha_i for a lower
        positive root gamma with k = <gamma, alpha_i^vee> < 0, so only
        those raising reflections are followed, level by level.  The image
        has height ht(gamma) - k, the key plus -k units at i, the
        fundamental coordinates minus k times the sparse column i, and
        gamma's half-norm; s_i changes only coroot coordinate i, which
        loses <alpha_i, gamma^vee> = k*d_i / halfnorm.
        """
        n, d = self.rank, self.sym
        cols = self._cartan_cols
        unit = [1 << 3 * i for i in range(n)]
        # alpha_i: fundamental coordinates column i, coroot alpha_i^vee
        simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        levels = [[], [(e, tuple(row[i] for row in self.cartan), e, d[i], unit[i])
                       for i, e in enumerate(simple)]]
        seen = set(unit)
        for h, level in enumerate(levels):
            level.sort()
            for c, f, cv, hn, key in level:
                for i, k in enumerate(f):
                    if k >= 0:
                        continue
                    img = key - k * unit[i]
                    if img in seen:
                        continue
                    seen.add(img)
                    step, rem = divmod(-k * d[i], hn)
                    if rem:
                        raise RootSystemError(f"{self.rst}: non-integral coroot for s_{i + 1}{c}")
                    x, g, y = list(c), list(f), list(cv)
                    x[i] -= k
                    for j, a in cols[i]:
                        g[j] -= k * a
                    y[i] += step
                    top = h - k
                    while len(levels) <= top:
                        levels.append([])
                    levels[top].append((tuple(x), tuple(g), tuple(y), hn, img))
        return levels

    # -- basic accessors -----------------------------------------------

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    def simple_root(self, i: int) -> Root:
        self._check_index(i)
        return tuple(int(j == i - 1) for j in range(self.rank))

    def fundamental_weight(self, d: int) -> Weight:
        self._check_index(d)
        return tuple(int(j == d - 1) for j in range(self.rank))

    @property
    def rho(self) -> Weight:
        return (1,) * self.rank

    def is_positive_root(self, coords) -> bool:
        return tuple(coords) in self._root_index

    def is_root(self, coords) -> bool:
        c = tuple(coords)
        return c in self._root_index or tuple(-x for x in c) in self._root_index

    def height(self, coords) -> int:
        return sum(coords)

    # -- exact linear algebra -------------------------------------------

    def pairing(self, weight: Sequence, root: Sequence):
        """Coroot pairing <weight, root^vee>, exact.

        ``weight`` is in fundamental coordinates, ``root`` in simple-root
        coordinates; ``root`` must be a root of this system.  The result
        is an ``int`` whenever it is integral (always, for integral
        weights), otherwise a ``Fraction``.
        """
        self._check_length(weight, "weight")
        c = tuple(root)
        neg = False
        if c not in self._root_index:
            c = tuple(-x for x in c)
            neg = True
            if c not in self._root_index:
                raise RootSystemError(f"{tuple(root)} is not a root of {self.rst}")
        k = self._root_index[c]
        val = sum(w * cv for w, cv in zip(weight, self._coroots[k]))
        if neg:
            val = -val
        if isinstance(val, Fraction):
            return int(val) if val.denominator == 1 else val
        return val

    def to_root_basis(self, weight: Sequence) -> tuple:
        """Simple-root coordinates of a weight, as exact Fractions."""
        self._check_length(weight, "weight")
        inv = self._cartan_inv
        if inv is None:
            inv = self._cartan_inv = _invert_integer_matrix(self.cartan)
        out = []
        for i in range(self.rank):
            v = sum(inv[i][j] * Fraction(weight[j]) for j in range(self.rank))
            out.append(v)
        return tuple(out)

    def from_root_basis(self, coords: Sequence) -> Weight:
        """Fundamental coordinates of ``sum coords_j alpha_j``."""
        self._check_length(coords, "root coordinate vector")
        A = self.cartan
        out = []
        for i in range(self.rank):
            v = sum(A[i][j] * coords[j] for j in range(self.rank))
            if isinstance(v, Fraction) and v.denominator == 1:
                v = int(v)
            out.append(v)
        return tuple(out)

    def simple_reflection(self, i: int, weight: Sequence) -> Weight:
        """Apply s_i to a weight in fundamental coordinates."""
        self._check_index(i)
        self._check_length(weight, "weight")
        wi = weight[i - 1]
        A = self.cartan
        return tuple(weight[j] - wi * A[j][i - 1] for j in range(self.rank))

    def reflect_root(self, i: int, root: Sequence) -> Root:
        """Apply s_i to a root in simple-root coordinates."""
        self._check_index(i)
        self._check_length(root, "root coordinate vector")
        A = self.cartan
        pair = sum(A[i - 1][j] * root[j] for j in range(self.rank))
        out = list(root)
        out[i - 1] -= pair
        return tuple(out)

    def reflect_by_root(self, beta: Sequence, weight: Sequence) -> Weight:
        """Apply the reflection s_beta to a weight, beta any root."""
        r = self.pairing(weight, beta)
        fund = self.from_root_basis(beta)
        return tuple(w - r * f for w, f in zip(weight, fund))

    def _check_index(self, i: int):
        if type(i) is not int:
            raise RootSystemError(f"simple index {i!r} must be a plain integer")
        if not 1 <= i <= self.rank:
            raise RootSystemError(f"simple index {i} out of range 1..{self.rank}")

    def _check_parabolic(self, parabolic: Parabolic):
        if parabolic.rank != self.rank:
            raise RootSystemError(f"parabolic of rank {parabolic.rank} given for {self.rst}")

    def _check_length(self, vector: Sequence, what: str):
        if len(vector) != self.rank:
            raise RootSystemError(f"{what} {tuple(vector)} has length {len(vector)}, rank is {self.rank}")

    def __repr__(self) -> str:
        return f"RootSystem({self.rst.label})"


# ---------------------------------------------------------------------------
# classical epsilon coordinates (Bourbaki realizations of A, B, C, D)
# ---------------------------------------------------------------------------

def eps_from_root_coords(rst: RootSystemType, coords: Sequence) -> tuple:
    """Epsilon coordinates of an element of the root lattice.

    Uses the standard realizations: alpha_i = e_i - e_{i+1} in every
    classical family, with alpha_n = e_n (B), 2e_n (C), e_{n-1} + e_n (D).
    So e_i carries c_i - c_{i-1} (with c_0 = 0), except in the last
    entries, which the last simple root changes.
    """
    c = coords
    fam = rst.family
    if fam == "A":
        return tuple(map(sub, (*c, 0), (0, *c)))
    if fam == "B":
        return tuple(map(sub, c, (0, *c)))
    if fam == "C":
        return (*map(sub, c[:-1], (0, *c)), 2 * c[-1] - c[-2])
    if fam == "D":
        return (*map(sub, c[:-2], (0, *c)), c[-2] + c[-1] - c[-3], c[-1] - c[-2])
    raise RootSystemError(f"{rst} has no epsilon realization here")


def _eps_l1(family):
    """The epsilon L1 norm of root coordinates c in a classical family, as
    :func:`eps_from_root_coords` realizes it, or None."""
    return {
        "A": lambda c: sum(map(abs, map(sub, c, (0, *c)))) + abs(c[-1]),
        "B": lambda c: sum(map(abs, map(sub, c, (0, *c)))),
        "C": lambda c: sum(map(abs, map(sub, c[:-1], (0, *c)))) + abs(2 * c[-1] - c[-2]),
        "D": lambda c: (sum(map(abs, map(sub, c[:-2], (0, *c))))
                        + abs(c[-2] + c[-1] - c[-3]) + abs(c[-1] - c[-2])),
    }.get(family)


def _coords_from_eps(family: str, eps: Sequence) -> tuple:
    """Simple-root coordinates of an epsilon vector of plain ints whose
    length fits ``family`` (and which sums to 0 in type A), unchecked.

    The coordinates are the prefix sums ``run`` of ``eps``, except that A
    drops the last (zero) one, C halves the last one and D replaces the
    last two by half of ``run[-2] -+ eps[-1]``.  An odd half comes back as
    a ``Fraction``; every other entry is an ``int``.
    """
    run = tuple(accumulate(eps))
    if family == "A":
        return run[:-1]
    if family == "B":
        return run

    def half(x):
        return Fraction(x, 2) if x % 2 else x // 2

    if family == "C":
        return (*run[:-1], half(run[-1]))
    return (*run[:-2], half(run[-2] - eps[-1]), half(run[-2] + eps[-1]))


def root_coords_from_eps(rst: RootSystemType, eps: Sequence) -> tuple:
    """Simple-root coordinates of an epsilon vector of plain ints.

    Inverts :func:`eps_from_root_coords` by :func:`_coords_from_eps`: an
    odd C/D half comes back as a ``Fraction``, every other entry as an
    ``int``.  Raises :class:`RootSystemError` for entries that are not
    plain ints (bool, float and str included), a wrong length, or a type
    A sum other than 0.
    """
    fam, n = rst.family, rst.rank
    if fam not in "ABCD":
        raise RootSystemError(f"{rst} has no epsilon realization here")
    if any(type(x) is not int for x in eps):
        raise RootSystemError(f"epsilon vector {tuple(eps)} must hold plain integers")
    if fam == "A":
        if len(eps) != n + 1 or sum(eps) != 0:
            raise RootSystemError(f"type A epsilon vector must have length {n + 1} and sum 0")
    elif len(eps) != n:
        raise RootSystemError(f"epsilon vector must have length {n}")
    return _coords_from_eps(fam, eps)


@lru_cache(maxsize=None)
def _build_cached(rst: RootSystemType) -> RootSystem:
    return RootSystem(rst)


def build(family, rank: int | None = None) -> RootSystem:
    """Build (or fetch the cached copy of) a root system.

    Accepts ``build("E6")``, ``build("E", 6)`` or ``build(RootSystemType(...))``.
    """
    if isinstance(family, RootSystem):
        return family
    if isinstance(family, RootSystemType):
        return _build_cached(family)
    text = str(family).strip().upper()
    if rank is None:
        return _build_cached(RootSystemType.parse(text))
    if len(text) > 1:
        rst = RootSystemType.parse(text)
        if rst != RootSystemType(rst.family, rank):
            raise RootSystemError(f"label {text} disagrees with rank {rank}")
        return _build_cached(rst)
    return _build_cached(RootSystemType(text, rank))
