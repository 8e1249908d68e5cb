"""Vanishing orders of extremal-weight sections along a parabolic.

For a fixed parabolic P (with longest Levi element tau) and each
fundamental index d, the order m_d is computed here by independent
routes that must agree:

* :func:`dijkstra_order` - the cost of a cheapest path through extremal
  weights from tau(-w0(omega_d)) to -omega_d, stepping from a weight chi
  to s_beta(chi) = chi - r*beta at cost r = <chi, beta^vee> >= 1, with
  beta restricted to positive roots outside the Levi of the maximal
  parabolic at d.
* :func:`lattice_lower_bound` - brute-force minimum of sum(n_j) over
  plain decompositions of omega_d + tau(-w0(omega_d)) into those same
  roots, with no path/realizability constraint.
* :func:`coefficient_lower_bound` - the coefficient of a cominuscule
  simple root (coefficient one in the highest root, so at most one in
  every positive root) matched to the parabolic, where one is.
* certificate checking - explicit root tuples claiming to realize m_d
  are validated clause by clause in :func:`check_certificate`.

The chain ``coefficient <= lattice <= dijkstra <= certificate cost``
holds whenever the pieces are defined, and collapses to equality at
every cominuscule parabolic.

Every route starts from the target, and the targets of all d come from
two packed raises.  -w0 is linear and -sum_d M**(d-1) omega_d is
regular antidominant, so one raise of it over all of W gives every
b_d = omega_d - w0(omega_d) in root coordinates as base-M digits, once
per system (:func:`_raise_over_w`); one raise of the packed result over
the Levi gives every tau(-w0(omega_d)) and the target b_d - c_d, once
per (system, parabolic) (:func:`_targets`).  The digits satisfy
0 <= c_d <= b_d <= 2 rho, so M = 2**bitlen(2 |R+| max(theta)) lies above
every one of them (:func:`_digit_bits`).

The Levi Weyl group W_L at d (the s_i, i != d) permutes the usable
roots, fixes omega_d and keeps every pairing <chi, beta^vee>, so the
path and lattice distances are W_L-invariant and their searches run on
Levi-dominant points (:func:`_search_data`); relaxed searches also step
along Levi roots, which W_L does not permute.  The path order and the
witness are one depth-first routine (:func:`_depth_first`) with a memo
of orbits that do not fit a budget: the order runs it on orbits under
bounds deepened from its start's estimate to its start residual's
height, the witness on single weights under the order.  The lattice
search is a bounded A* (:func:`_astar`) widened alike.  Candidate roots
come lazily, highest first, from per-system bitsets
(:func:`_reflection_tables`): the usable set at d, less the roots the
stabilizer moves and those that do not fit under the residual, cut to
the slack (:func:`_make_moves`).

The records :class:`TargetWeight`, :class:`Certificate`,
:class:`CertificateValidation` and :class:`VanishingResult` are immutable
named tuples: beside their named fields they index, unpack, hash by value
and compare equal to a plain tuple of the same values.
"""

from __future__ import annotations

import heapq
import struct
from collections import namedtuple
from functools import lru_cache
from itertools import chain
from operator import mul, sub

from .rootsystem import (
    Parabolic, RootSystem, RootSystemError, RootSystemType, Weight, _eps_l1, build,
)
from .weylgroup import cominuscule_indices


class InternalInconsistencyError(RuntimeError):
    """A structural identity failed; indicates a convention bug, never expected."""


# Failure lines one clause lists before it stops: clause (b)'s non-orthogonal
# pairs, and the entries that fail (c) or a membership check; a document can
# hold millions.
MAX_PAIR_FAILURES = 64


class TargetWeight(namedtuple("TargetWeight", "d value root_coords")):
    """omega_d + tau(-w0(omega_d)) with its simple-root coordinates."""

    __slots__ = ()


class Certificate(namedtuple("Certificate", [
    "rst",
    "omitted",
    "d",
    "entries",  # ((root_coords, multiplicity), ...)
    "origin",
], defaults=("",))):
    """An ordered multiset of positive roots claiming to realize m_d."""

    __slots__ = ()

    @property
    def cost(self) -> int:
        return sum(n for _, n in self.entries)

    @property
    def parabolic(self) -> Parabolic:
        return Parabolic.maximal(self.rst.rank, self.omitted)


class CertificateValidation(namedtuple("CertificateValidation", [
    "certificate",
    "roots_ok",           # every entry is a positive root
    "outside_levi",       # every entry lies outside the Levi at d
    "sum_matches",        # (a) weighted sum equals the target weight
    "orthogonal",         # (b) pairwise coroot pairings vanish
    "ladder_uniform",     # (c) <chi0, beta_j^vee> = n_j for every j at once
    "ladder_sequential",  # order-sensitive ladder: pairing equals n_j at each step
    "cost",
    "dijkstra",
    "c_alpha",
    "cost_matches",       # (d) cost equals dijkstra (and c_alpha when defined)
    "failures",
], defaults=((),))):
    """Clause-by-clause report for one certificate."""

    __slots__ = ()

    @property
    def valid(self) -> bool:
        """Realizes m_d: membership, sum, a working ladder, minimal cost."""
        return (self.roots_ok and self.outside_levi and self.sum_matches
                and self.ladder_sequential and self.cost_matches)

    @property
    def strict(self) -> bool:
        """Valid and pairwise orthogonal (reflections mutually commute)."""
        return self.valid and self.orthogonal and self.ladder_uniform


class VanishingResult(namedtuple("VanishingResult", [
    "d", "m_dijkstra", "m_lattice_lb", "c_alpha", "certificate_cost", "agreed",
    "m_dijkstra_relaxed",
], defaults=(None,))):
    """All routes to m_d for one fundamental index."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# dominant points of Weyl-group orbits
# ---------------------------------------------------------------------------

class _Tables(namedtuple("_Tables", [
    "cols",     # cols[i]: the (j, <alpha_{i+1}, alpha_{j+1}^vee>) that are nonzero
    "blocked",  # blocked[i]: roots with <beta, alpha_{i+1}^vee> > 0
    "atleast",  # atleast[j][t]: roots with coefficient at least t at j
    "tops",     # theta_j + 1, so atleast[j][tops[j]] is empty
])):
    """Per-system data of the searches and the raises; see :func:`_reflection_tables`."""

    __slots__ = ()


@lru_cache(maxsize=None)
def _reflection_tables(rst: RootSystemType) -> _Tables:
    """The root system's stored sparse Cartan columns and two bitset tables
    over its positive roots, bit k standing for ``rs.positive_roots[k]``.

    ``atleast[j][t]`` runs over t = 0..theta_j + 1 with theta the highest
    root, so ``atleast[j][0]`` holds every root and the last entry none.
    Each bitset is one column of the roots' coordinates as bytes, mapped
    by ``bytes.translate`` to the digits ``0`` and ``1`` and read by
    ``int(..., 2)``, highest root first.
    """
    rs = build(rst)
    roots, n = rs.positive_roots, rs.rank

    def bitset(column, table):
        return int(column.translate(table)[::-1], 2)

    # Pairings lie in -3..3; packed as signed bytes, exactly 1..127 are positive.
    flat = [*chain.from_iterable(rs._fund_coords)]
    pairings = struct.pack(f"{len(flat)}b", *flat)
    positive = b"0" + b"1" * 127 + b"0" * 128
    coeffs = bytes(chain.from_iterable(roots))
    every = (1 << len(roots)) - 1
    return _Tables(
        cols=rs._cartan_cols,
        blocked=tuple(bitset(pairings[i::n], positive) for i in range(n)),
        atleast=tuple((every, *(bitset(coeffs[j::n], b"0" * t + b"1" * (256 - t))
                                for t in range(1, top + 1)), 0)
                      for j, top in enumerate(roots[-1])),
        tops=tuple(t + 1 for t in roots[-1]),
    )


def _make_canon(cols, indices):
    """The W_J-dominant point of the orbit of a state ``(chi, v)``.

    J is the set of 0-based ``indices``; ``chi`` is a weight in fundamental
    coordinates and ``v`` a vector in root coordinates that moves with it.
    While some chi_i < 0 with i in J, s_i adds -chi_i to v_i and subtracts
    chi_i times column i of the Cartan matrix from chi; only i's
    neighbours can newly turn negative.  The dominant point is unique, so
    v ends raised by the root coordinates of its difference from chi.
    """
    inside = [False] * len(cols)
    for i in indices:
        inside[i] = True

    def canon(chi, v):
        if min(chi) >= 0:
            return chi, v
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


# ---------------------------------------------------------------------------
# target weight
# ---------------------------------------------------------------------------

def _digit_bits(rs: RootSystem) -> int:
    """Bits s of the digit base M = 2**s of the packed raises.

    The root-coordinate digits b_d = omega_d + omega_{sigma(d)} and c_d
    (:func:`_raise_over_w`, :func:`_targets`) satisfy 0 <= c_d <= b_d <= 2 rho,
    whose coefficients are sums of |R+| root coefficients, each at most
    max(theta).  The weight digits tau(omega_{sigma(d)}) pair omega_{sigma(d)}
    with coroots, so they are at most the highest coroot's coefficients,
    which never exceed max(theta).  With M > 2 |R+| max(theta) every digit
    lies in [-M/2, M/2), where :func:`_unpack` reads it.
    """
    return (2 * len(rs.positive_roots) * max(rs.positive_roots[-1])).bit_length()


def _unpack(packed, bits: int, where: str) -> tuple:
    """Per d, digit d - 1 of every entry of ``packed``, in base M = 2**bits.

    Digits are read in [-M/2, M/2): the entry is offset by M/2 in every
    digit, cut into ``len(packed)`` digits of ``bits`` bits and shifted
    back.  The digits re-pack to the entry exactly when the offset entry
    lies in [0, M**n); an entry outside raises, naming ``where``.
    """
    n = len(packed)
    shifts = range(0, bits * n, bits)
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    offset = sum(half << s for s in shifts)
    top = 1 << (bits * n)
    rows = []
    for x in packed:
        x += offset
        if not 0 <= x < top:
            raise InternalInconsistencyError(
                f"{where}: packed entry {x - offset} does not re-pack from {n} digits of base 2**{bits}")
        rows.append([((x >> s) & mask) - half for s in shifts])
    return tuple(zip(*rows))


@lru_cache(maxsize=None)
def _raise_over_w(rst: RootSystemType):
    """-w0 and every omega_d + omega_{sigma(d)}, sigma = -w0, from one raise.

    -w0 is linear, and the packed weight -sum_d M**(d-1) omega_d is regular
    antidominant, so w0 takes it to its dominant point.  Raising it over
    all of W therefore gives ``lam = sum_d M**(d-1) omega_{sigma(d)}`` and
    ``b``, whose digit d - 1 in each entry is the root coordinate of
    b_d = omega_d + omega_{sigma(d)}.  Returns ``(bits, lam, b)`` with
    M = 2**bits from :func:`_digit_bits`; it depends on the system only.
    """
    rs = build(rst)
    n = rs.rank
    bits = _digit_bits(rs)
    lam, b = _raise(_reflection_tables(rst).cols, range(n), tuple(-1 << (bits * j) for j in range(n)))
    return bits, lam, b


@lru_cache(maxsize=None)
def _targets(rst: RootSystemType, parab: Parabolic) -> tuple:
    """Per d, the target ``TargetWeight`` and the source tau(-w0(omega_d)).

    With lam_d = -w0(omega_d) = omega_{sigma(d)} = -omega_d + b_d, raising
    -lam_d over the Levi gives -tau(lam_d) = -lam_d + c_d, so the target
    omega_d + tau(lam_d) is b_d - c_d in root coordinates, integral by
    construction.  The raise is linear on -lam_d, which is antidominant,
    so one raise of the packed -lam of :func:`_raise_over_w` gives every
    c_d and every tau(lam_d) at once, read off by :func:`_unpack`.  Each
    target is a sum of positive roots, which the check below confirms.
    """
    rs = build(rst)
    rs._check_parabolic(parab)
    bits, lam, b = _raise_over_w(rst)
    levi = [i - 1 for i in sorted(parab.retained)]
    neg_tau, c = _raise(_reflection_tables(rst).cols, levi, tuple(-x for x in lam))
    where = f"{rst} P={sorted(parab.omitted)}: target"
    coords = _unpack(tuple(map(sub, b, c)), bits, where)
    sources = _unpack(tuple(-x for x in neg_tau), bits, where)
    out = []
    for d, (root_coords, source) in enumerate(zip(coords, sources), start=1):
        if min(root_coords) < 0:
            raise InternalInconsistencyError(
                f"{where} d={d}: target has coordinates {root_coords}, expected nonnegative integers")
        value = (*source[:d - 1], source[d - 1] + 1, *source[d:])
        out.append((TargetWeight(d=d, value=value, root_coords=root_coords), source))
    return tuple(out)


def _target_cached(rst: RootSystemType, parab: Parabolic, d: int):
    """``(target, source)`` at d, read from the cached record of
    :func:`_targets`; ``d`` is a checked index."""
    return _targets(rst, parab)[d - 1]


def target_weight(rs: RootSystem, parabolic: Parabolic, d: int) -> TargetWeight:
    """omega_d + tau(-w0(omega_d)) in both bases, exactly."""
    rs._check_index(d)
    return _target_cached(rs.rst, parabolic, d)[0]


def source_weight(rs: RootSystem, parabolic: Parabolic, d: int) -> Weight:
    """tau(-w0(omega_d)); equals -tau(w0(omega_d)), the path source."""
    rs._check_index(d)
    return _target_cached(rs.rst, parabolic, d)[1]


def allowed_root_indices(rs: RootSystem, d: int, relaxed: bool = False) -> tuple:
    """Positive roots usable at index d: support meets d, or all if relaxed."""
    rs._check_index(d)
    if relaxed:
        return tuple(range(len(rs.positive_roots)))
    return tuple(k for k, c in enumerate(rs.positive_roots) if c[d - 1] >= 1)


# ---------------------------------------------------------------------------
# shortest extremal-weight paths, one W_L-orbit at a time
# ---------------------------------------------------------------------------

def _depth_first(start, v0, budget, children, step, orbit, estimate, failed):
    """The stack ``[(state, v, left, untried), ...]`` of a walk from ``start``
    that clears the residual ``v0`` within ``budget``, or ``None``.

    It descends into the first of ``children(state, v, left)``, steps
    ``(r, k)`` leading to ``step(state, v, r, k)``, whose cost plus estimate
    fits the budget left and whose W_L-orbit ``orbit(child, v2)[0]`` is not
    known in ``failed`` to need more; a state whose children run out is
    backed up, its orbit and budget recorded there.  Steps lower the
    residual's height, the estimator is admissible and distances are
    W_L-invariant, so each record holds under any later budget.
    """
    stack = [(start, v0, budget, children(start, v0, budget))]
    while any(stack[-1][1]):
        chi, v, left, todo = stack[-1]
        for r, k in todo:
            child, v2 = step(chi, v, r, k)
            key, w = orbit(child, v2)
            if r + estimate(w) <= left and failed.get(key, -1) < left - r:
                stack.append((child, v2, left - r, children(child, v2, left - r)))
                break
        else:
            failed[orbit(chi, v)[0]] = left
            stack.pop()
            if not stack:
                return None
    return stack


def _astar(start, v0, successors, step, estimate, bound) -> Optional[int]:
    """Cost of a cheapest walk from ``start`` that clears the residual ``v0``,
    or ``None`` if none fits in ``bound``.

    ``successors`` and ``step`` are as in :func:`_make_moves` and
    :func:`_make_step`; a child with a negative residual or over ``bound``
    is dropped.  The estimator is consistent, so the first zero residual
    popped is exact.  It serves the lattice bound, whose states many roots reach.
    """
    heap = [(estimate(v0), 0, start, v0)]
    settled = set()
    while heap:
        _, negg, state, v = heapq.heappop(heap)
        if state in settled:
            continue
        if not any(v):
            return -negg
        settled.add(state)
        g = -negg
        for r, k in successors(state, v, bound - g):
            child, v2 = step(state, v, r, k)
            if min(v2) < 0 or child in settled:
                continue
            f = g + r + estimate(v2)
            if f <= bound:
                heapq.heappush(heap, (f, -(g + r), child, v2))
    return None


def _same(chi, v):
    return chi, v


def _make_moves(rs: RootSystem, usable: int, levi, ladder):
    """Steps ``(r, k)`` along positive root k from a Levi-dominant state
    ``(chi, v)`` under a slack, lazily and highest root first.

    ``usable`` is the bitset of usable roots (see :func:`_reflection_tables`).
    A ladder step costs r = <chi, beta^vee> in 1..``slack`` and subtracts
    r*beta; its residual stays nonnegative, as every ladder state lies in
    the W-orbit of the antidominant -omega_d and so above it.  A unit step
    costs 1 and subtracts beta.  Both keep only the usable roots that fit
    under v, and of each orbit of the stabilizer of chi (the s_i, i in
    ``levi``, with chi_i = 0) only the member outside every ``blocked[i]``.
    A unit step also drops roots whose child cannot meet the slack: as
    canonicalizing only raises v, beta_j < v_j - (slack - 1)*theta_j gives
    1 + h(child) > slack.  The caller builds the children it tries
    (:func:`_make_step`); they may repeat an orbit.
    """
    _, blocked, atleast, tops = _reflection_tables(rs.rst)
    coroots, theta = rs._coroots, rs.positive_roots[-1]

    def successors(chi, v, slack):
        mask = usable
        for i in levi:
            if not chi[i]:
                mask &= ~blocked[i]
        for j, vj in enumerate(v):
            if vj < tops[j]:
                mask &= ~atleast[j][vj + 1]
            if not ladder and (t := vj - (slack - 1) * theta[j]) > 0:
                mask &= atleast[j][min(t, tops[j])]
        while mask:
            k = mask.bit_length() - 1
            mask ^= 1 << k
            if not ladder:
                yield 1, k
            elif 0 < (r := sum(map(mul, chi, coroots[k]))) <= slack:
                yield r, k

    return successors


def _make_step(rs: RootSystem, canon):
    """``step(chi, v, r, k)``: ``canon`` of ``(chi, v)`` less r times positive root k."""
    funds, roots = rs._fund_coords, rs.positive_roots

    def step(chi, v, r, k):
        f, b = funds[k], roots[k]
        if r != 1:
            f, b = [r * x for x in f], [r * x for x in b]
        return canon(tuple(map(sub, chi, f)), tuple(map(sub, v, b)))

    return step


class _Search(namedtuple("_Search", [
    "walk",      # the ladder on single weights
    "ladder",    # the ladder on orbits
    "subtract",  # unit root subtraction on orbits
    "step",      # the step between orbits
    "estimate",
    "canon",
])):
    __slots__ = ()


@lru_cache(maxsize=None)
def _search_data(rst: RootSystemType, d: int, relaxed: bool) -> _Search:
    """The searches' successors, steps, estimator and canonicalizer at d.

    Both searches carry a state ``(chi, v)``: a weight in fundamental and
    a residual in root coordinates.  The path order steps chi to
    s_beta(chi) = chi - r*beta at cost r = <chi, beta^vee> >= 1, with v
    those of chi + omega_d, zero exactly at -omega_d; the lattice bound
    subtracts one usable root at unit cost, with chi the residual's weight.

    Both distances are W_L-invariant, so ``ladder`` and ``subtract`` run
    on one state per W_L-orbit, its Levi-dominant point ``canon(chi, v)``,
    where ``step`` lands; ``walk`` is the ladder on single weights, which
    the witness follows.  ``canon`` only raises v, and the estimator's
    epsilon part is W_L-invariant, so the estimator stays consistent on
    orbit steps.  Relaxed searches also step along Levi roots, so there
    ``canon`` is the identity.
    """
    rs = build(rst)
    cols, _, atleast, _ = _reflection_tables(rst)
    if relaxed:
        usable, levi, canon = (1 << len(rs.positive_roots)) - 1, (), _same
    else:
        usable, levi = atleast[d - 1][1], tuple(i for i in range(rs.rank) if i != d - 1)
        canon = _make_canon(cols, levi)
    return _Search(
        walk=_make_moves(rs, usable, (), True),
        ladder=_make_moves(rs, usable, levi, True),
        subtract=_make_moves(rs, usable, levi, False),
        step=_make_step(rs, canon),
        estimate=_estimator(rst),
        canon=canon,
    )


def _estimator_bounds(rs: RootSystem):
    """Largest j-coefficient of a usable root per j, and in A-D the largest
    epsilon L1 norm of one (else 0), at every d: the highest root's, which
    has full support and dominates every positive root, with norm 2."""
    theta, l1 = rs.positive_roots[-1], _eps_l1(rs.rst.family)
    return theta, l1(theta) if l1 else 0


@lru_cache(maxsize=None)
def _estimator(rst: RootSystemType):
    """Admissible lower bound on the cost still needed to clear a residual.

    The larger of: per simple index j, the residual coefficient over the
    largest j-coefficient of a usable root; and, in the classical families,
    the residual's epsilon L1 norm (``_eps_l1``) over the largest of a
    usable root, since each unit of cost moves at most that many epsilon
    units.  Both constants are the highest root's
    (:func:`_estimator_bounds`) at every d, so it is built once per system.
    """
    maxcoef, maxstep = _estimator_bounds(build(rst))
    l1 = _eps_l1(rst.family)

    def estimate(v) -> int:
        h = 0
        for vj, mj in zip(v, maxcoef):
            if vj > h * mj:  # ceil(vj / mj) > h
                h = -(-vj // mj)
        if maxstep and (q := -(-l1(v) // maxstep)) > h:
            h = q
        return h

    return estimate


@lru_cache(maxsize=None)
def _dijkstra_cached(rst: RootSystemType, parab: Parabolic, d: int, relaxed: bool) -> int:
    # Iterative deepening on orbits under one memo.  A step of cost r
    # subtracts r*beta with ht(beta) >= 1, so m <= ht(v); the estimate is
    # admissible, so the first bound from it up that a walk fits in is m.
    search = _search_data(rst, d, relaxed)
    tw, source = _target_cached(rst, parab, d)
    chi, v = search.canon(source, tw.root_coords)
    failed = {}
    for bound in range(search.estimate(v), sum(v) + 1):
        if _depth_first(chi, v, bound, search.ladder, search.step, _same, search.estimate, failed):
            return bound
    raise InternalInconsistencyError(
        f"{rst} P={sorted(parab.omitted)} d={d}: path order: no path within ceiling {sum(v)}")


def dijkstra_order(rs: RootSystem, parabolic: Parabolic, d: int, relaxed: bool = False) -> int:
    """Minimum cost of an extremal-weight path realizing m_d."""
    rs._check_index(d)
    return _dijkstra_cached(rs.rst, parabolic, d, bool(relaxed))


def shortest_path(rs: RootSystem, parabolic: Parabolic, d: int, relaxed: bool = False):
    """One canonical cheapest path as ``(cost, steps, nodes)``.

    ``steps`` is a tuple of ``(root_coords, r)``; ``nodes`` the visited
    weights from source to sink.  It is one :func:`_depth_first` walk on
    single weights under the budget m, trying successors in lexicographic
    order of their weight and keeping only their ``(r, k)`` until tried.
    Steps lower the residual's height, the estimator is admissible and
    distances are W_L-invariant, so the first path to reach the sink is
    the lexicographically first cheapest one, reproducible run to run.
    """
    rs._check_index(d)
    m = _dijkstra_cached(rs.rst, parabolic, d, bool(relaxed))
    search = _search_data(rs.rst, d, bool(relaxed))
    funds = rs._fund_coords

    def children(chi, v, left):
        # chi - r*beta ascending is r*beta descending: beta itself at r = 1.
        return iter(sorted(search.walk(chi, v, left), reverse=True, key=lambda e: (
            funds[e[1]] if e[0] == 1 else tuple([e[0] * x for x in funds[e[1]]]))))

    tw, source = _target_cached(rs.rst, parabolic, d)
    stack = _depth_first(source, tw.root_coords, m, children, _make_step(rs, _same), search.canon,
                         search.estimate, {})
    if stack is None:
        raise InternalInconsistencyError(
            f"{rs.rst} P={sorted(parabolic.omitted)} d={d}: witness: no path within budget {m}")
    steps = tuple((tuple((a - b) // (g - h) for a, b in zip(v, v2)), g - h)
                  for (_, v, g, _), (_, v2, h, _) in zip(stack, stack[1:]))
    return m, steps, tuple(f[0] for f in stack)


# ---------------------------------------------------------------------------
# integer-decomposition lower bound
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lattice_cached(rst: RootSystemType, parab: Parabolic, d: int, relaxed: bool) -> int:
    # Shortest path in the lattice-point DAG: states are the nonnegative
    # residuals below the target, with their own weights as chi, and each
    # edge subtracts one usable root at unit cost; no ladder constraint.
    # The bound widens from the start's estimate, usually exact, up to
    # ht(v0), which the cheapest ladder, itself a decomposition, fits in.
    search = _search_data(rst, d, relaxed)
    tw = _target_cached(rst, parab, d)[0]
    start, v0 = search.canon(tw.value, tw.root_coords)
    for bound in range(search.estimate(v0), sum(v0) + 1):
        m = _astar(start, v0, search.subtract, search.step, search.estimate, bound)
        if m is not None:
            return m
    raise InternalInconsistencyError(
        f"{rst} P={sorted(parab.omitted)} d={d}: lattice: no decomposition within ceiling {sum(v0)}")


def lattice_lower_bound(rs: RootSystem, parabolic: Parabolic, d: int,
                        relaxed: bool = False) -> int:
    """Exact min of sum(n_j) over decompositions of the target.

    This enumeration knows nothing about extremal-weight ladders and
    serves as the independent brute-force oracle.
    """
    rs._check_index(d)
    return _lattice_cached(rs.rst, parabolic, d, bool(relaxed))


# ---------------------------------------------------------------------------
# distinguished-coefficient lower bound
# ---------------------------------------------------------------------------

def distinguished_index(rs: RootSystem, parabolic: Parabolic, d: int) -> Optional[int]:
    """Cominuscule simple index whose target coefficient attains m_d, or None.

    That is p itself when the omitted index p is cominuscule, and in type
    C the cominuscule node n at every p.  A cominuscule index has
    coefficient <= 1 in every positive root.  The answer does not depend
    on d.
    """
    if len(parabolic.omitted) != 1:
        return None
    p = parabolic.omitted_index
    if p in cominuscule_indices(rs):
        return p
    if rs.rst.family == "C":
        return rs.rank
    return None


def coefficient_lower_bound(rs: RootSystem, parabolic: Parabolic, d: int) -> Optional[int]:
    """Coefficient of the distinguished simple root in the target weight.

    Defined on the catalog's coverage, every cominuscule parabolic except
    the odd quadric B_n/P1, and also on B_n/P1 and on every parabolic of
    type C; ``None`` elsewhere (for instance the odd orthogonal spin
    configurations, where every bound of this shape is too weak).  The
    value comes from the cached record :func:`check_certificate` reads,
    which is built from the target weight alone.
    """
    rs._check_index(d)
    rs._check_parabolic(parabolic)
    if len(parabolic.omitted) != 1:
        return None
    return _config(rs.rst, parabolic.omitted_index, d).c_alpha


class _Config(namedtuple("_Config", [
    "parab",
    "target",   # target weight in root coordinates
    "source",   # chi0 = target - omega_d, in fundamental coordinates
    "sink",     # -omega_d
    "c_alpha",
])):
    """What a certificate at one (system, maximal parabolic, d) is checked
    against, all of it read off the target weight."""

    __slots__ = ()


@lru_cache(maxsize=None)
def _maximal_at(rank: int, i: int):
    """The maximal parabolic omitting i, and -omega_i: one copy of each
    for all the records of a rank, which keeps the records small."""
    return Parabolic.maximal(rank, i), tuple(-int(j == i - 1) for j in range(rank))


@lru_cache(maxsize=None)
def _config(rst: RootSystemType, omitted: int, d: int) -> _Config:
    # Only the target goes in: the path and lattice oracles stay separate
    # calls, so the routes that clause (d) compares remain independent.
    rs = build(rst)
    parab = _maximal_at(rst.rank, omitted)[0]
    rs._check_index(d)
    tw, source = _target_cached(rst, parab, d)
    sink = _maximal_at(rst.rank, d)[1]
    alpha = distinguished_index(rs, parab, d)
    return _Config(
        parab=parab,
        target=tw.root_coords,
        source=source,
        sink=sink,
        c_alpha=None if alpha is None else tw.root_coords[alpha - 1],
    )


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def check_certificate(rs: RootSystem, cert: Certificate) -> CertificateValidation:
    """Validate every clause of a certificate independently.

    Clauses: (a) the weighted root sum equals the target; (b) the roots
    are pairwise orthogonal, so their reflections commute; (c) the
    source weight pairs to exactly n_j against every entry at once
    (order-free ladder), and the ladder ends at the sink -omega_d, which
    holds exactly when (a) does, since the source is target - omega_d;
    sequential ladder, the order-sensitive variant that is what
    realizability actually needs; (d) the total cost equals the path
    oracle and the distinguished coefficient where defined.  Membership
    preconditions (positive roots outside the Levi at d) are reported
    separately.  Clause (b) compares each unordered pair of distinct
    roots once, in order of first appearance, so a root repeated in the
    entries adds no pairs; it lists at most :data:`MAX_PAIR_FAILURES`
    non-orthogonal pairs, and (c) and each membership check as many
    failing entries, each list then one line saying it was cut.

    Target, source, sink and c_alpha come from one cached record per
    (system, parabolic, d), and the path oracle from its own cache.
    """
    if cert.rst != rs.rst:
        raise RootSystemError(f"certificate is for {cert.rst}, root system is {rs.rst}")
    rec = _config(cert.rst, cert.omitted, cert.d)
    d = cert.d
    entries = cert.entries
    coroots, funds = rs._coroots, rs._fund_coords
    failures = []
    listed = {}  # per-entry check -> entries that failed it

    def fail(check, line):
        count = listed[check] = listed.get(check, 0) + 1
        if count <= MAX_PAIR_FAILURES:
            failures.append(line)
        elif count == MAX_PAIR_FAILURES + 1:
            failures.append(f"{check} list cut after {MAX_PAIR_FAILURES} entries")

    roots_ok = True
    outside = True
    ks = []
    for c, n in entries:
        if n < 1:
            roots_ok = False
            fail("multiplicity < 1:", f"multiplicity {n} < 1 for {c}")
        k = rs._root_index.get(tuple(c))
        ks.append(k)
        if k is None:
            roots_ok = False
            fail("not a positive root:", f"{c} is not a positive root")
        elif c[d - 1] < 1:
            outside = False
            fail(f"in the Levi at index {d}:", f"{c} lies in the Levi at index {d}")

    total = [0] * rs.rank
    for c, n in entries:
        total = [t + n * x for t, x in zip(total, c)]
    sum_matches = (tuple(total) == rec.target
                   and all(len(c) == rs.rank for c, _ in entries))
    if not sum_matches:
        failures.append(f"(a) sum {tuple(total)} != target {rec.target}")

    orthogonal = True
    ladder_uniform = ladder_sequential = roots_ok
    if roots_ok:
        # Every entry is a positive root, so its coroot and fundamental
        # coordinates come from the root system's integer table.
        first = {}
        for (c, _), k in zip(entries, ks):
            first.setdefault(k, c)
        distinct = list(first.items())
        bad = ((bi, bj) for i, (ki, bi) in enumerate(distinct) for kj, bj in distinct[i + 1:]
               if sum(map(mul, funds[ki], coroots[kj])) != 0)
        for count, (bi, bj) in enumerate(bad):
            orthogonal = False
            if count == MAX_PAIR_FAILURES:
                failures.append(f"(b) list cut after {count} non-orthogonal pairs")
                break
            failures.append(f"(b) {bi} and {bj} are not orthogonal")

        chi0 = rec.source
        for (c, n), k in zip(entries, ks):
            r = sum(map(mul, chi0, coroots[k]))
            if r != n:
                ladder_uniform = False
                fail("(c)", f"(c) <chi0, {c}^vee> = {r} != {n}")

        chi = chi0
        for (c, n), k in zip(entries, ks):
            r = sum(map(mul, chi, coroots[k]))
            if r != n:
                ladder_sequential = False
                failures.append(f"sequential ladder stalls at {c}: pairing {r} != {n}")
                break
            chi = tuple(a - n * b for a, b in zip(chi, funds[k]))
        else:
            if chi != rec.sink:
                ladder_sequential = False
                failures.append(f"sequential ladder ends at {chi}, not {rec.sink}")
    # The source is target - omega_d, so the order-free ladder ends at the
    # sink exactly when the entries sum to the target: clause (a).
    ladder_uniform = ladder_uniform and sum_matches

    m = _dijkstra_cached(cert.rst, rec.parab, d, False)
    ca = rec.c_alpha
    cost = cert.cost
    cost_matches = cost == m and (ca is None or cost == ca)
    if not cost_matches:
        failures.append(f"(d) cost {cost} != dijkstra {m}" + ("" if ca is None else f", c_alpha {ca}"))

    return CertificateValidation(
        certificate=cert,
        roots_ok=roots_ok,
        outside_levi=outside,
        sum_matches=sum_matches,
        orthogonal=orthogonal,
        ladder_uniform=ladder_uniform,
        ladder_sequential=ladder_sequential,
        cost=cost,
        dijkstra=m,
        c_alpha=ca,
        cost_matches=cost_matches,
        failures=tuple(failures),
    )


def vanishing_result(rs: RootSystem, parabolic: Parabolic, d: int,
                     certificate_cost: Optional[int] = None,
                     relaxed_extra: bool = False) -> VanishingResult:
    """Assemble all routes to m_d and check that the defined ones agree."""
    m = dijkstra_order(rs, parabolic, d)
    lat = lattice_lower_bound(rs, parabolic, d)
    ca = coefficient_lower_bound(rs, parabolic, d)
    if not ((ca is None or ca <= lat) and lat <= m):
        raise InternalInconsistencyError(
            f"{rs.rst} d={d}: bound chain violated: c_alpha={ca} lattice={lat} dijkstra={m}"
        )
    values = [m, lat] + ([ca] if ca is not None else []) \
        + ([certificate_cost] if certificate_cost is not None else [])
    agreed = len(set(values)) == 1
    mrel = dijkstra_order(rs, parabolic, d, relaxed=True) if relaxed_extra else None
    return VanishingResult(
        d=d, m_dijkstra=m, m_lattice_lb=lat, c_alpha=ca,
        certificate_cost=certificate_cost, agreed=agreed, m_dijkstra_relaxed=mrel,
    )
