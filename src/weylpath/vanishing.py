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
two packed dominant-point raises (``weylgroup._raise``).  One of the
regular antidominant -sum_d M**(d-1) omega_d over W gives every
b_d = omega_d - w0(omega_d) as base-M digits, once per system
(:func:`_system`); one of the result over the Levi gives every
tau(-w0(omega_d)) and target b_d - c_d, once per (system, parabolic)
(:func:`_targets`).  M lies above every digit (:func:`_digit_bits`).

The Levi Weyl group W_L at d (the s_i, i != d) permutes the usable
roots, fixes omega_d and keeps every pairing <chi, beta^vee>, so the
path and lattice distances are W_L-invariant and their searches run on
Levi-dominant points (:func:`_search_data`).  Levi roots are not
usable: a step along one is a W_L move of cost r >= 1, so it never
shortens a path.  Every search is one depth-first routine
(:func:`_depth_first`).  The path order (ladder steps) and the lattice
bound (unit root subtractions) run it on orbits under budgets deepened
from the start's estimate to the start residual's height
(:func:`_deepen`); the witness runs it on single weights under the
order.  The graph at d depends only on (system, d): its sink, its
steps and its orbits are those of W_L at d, whatever the parabolic.  So
each search reads and writes one memo per (system, d), kept in the
:func:`_search_data` record, of orbits known to need more than a budget
and of orbits known to lie exactly so far from the sink; a later
parabolic at the same d settles those orbits without expanding them.
The witness shares the path order's memo.  Candidate roots come
lazily from per-system step tables of bitsets (:func:`_system`), one
lookup and one AND per coordinate: the usable set at d, less the roots
the stabilizer moves, those that do not fit under the residual and those
whose child cannot meet the slack (:func:`_make_moves`).

The records :class:`TargetWeight`, :class:`Certificate`,
:class:`CertificateValidation` and :class:`VanishingResult` are immutable
named tuples: beside their named fields they index, unpack, hash by value
and compare equal to a plain tuple of the same values.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from functools import lru_cache
from itertools import chain
from operator import floordiv, mul, sub

from .rootsystem import (
    Parabolic, RootSystem, RootSystemError, RootSystemType, Weight, _eps_l1, build,
)
from .weylgroup import _make_canon, _raise, cominuscule_indices


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
    "orthogonal",         # (b) pairwise coroot pairings vanish; None when not checked
    "ladder_uniform",     # (c) <chi0, beta_j^vee> = n_j for every j at once; None likewise
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
        """Valid and pairwise orthogonal (reflections mutually commute).

        Falsy for a check made with ``strict=False``, which skips (b) and (c).
        """
        return self.valid and self.orthogonal and self.ladder_uniform


class VanishingResult(namedtuple("VanishingResult", [
    "d", "m_dijkstra", "m_lattice_lb", "c_alpha", "certificate_cost", "agreed",
])):
    """All routes to m_d for one fundamental index."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# per-system record and target weight
# ---------------------------------------------------------------------------

def _digit_bits(rs: RootSystem) -> int:
    """Bits s of the digit base M = 2**s of the packed raises.

    The root-coordinate digits b_d = omega_d + omega_{sigma(d)} and c_d
    (:func:`_system`, :func:`_targets`) satisfy 0 <= c_d <= b_d <= 2 rho,
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


class _System(namedtuple("_System", [
    "free",      # free[i]: roots with <beta, alpha_{i+1}^vee> <= 0
    "atleast",   # atleast[j][t]: roots with coefficient at least t at j, t <= theta_j
    "columns",   # per j: theta_j, "coefficient <= x at j" for x < theta_j, atleast[j]
    "bits",      # the packed raises' digit base is M = 2**bits
    "lam",       # sum_d M**(d-1) omega_{sigma(d)}, sigma = -w0
    "b",         # digit d - 1 of each entry: b_d = omega_d + omega_{sigma(d)}
    "estimate",  # admissible lower bound on the cost of clearing a residual
])):
    __slots__ = ()


@lru_cache(maxsize=None)
def _system(rst: RootSystemType) -> _System:
    """The per-system inputs of the searches and the target raises.

    ``free`` and ``columns`` are the step tables of :func:`_make_moves`,
    built here once per system: bitsets over the positive roots, bit k
    standing for ``rs.positive_roots[k]``.  ``free[i]`` holds the roots
    that a zero Levi coordinate chi_i leaves (the others are s_i-images
    of lower ones).  With theta the highest root, ``atleast[j][t]`` runs
    over t = 0..theta_j, so ``atleast[j][0]`` holds every root, and
    ``columns[j]`` is ``(theta_j, atmost, atleast[j])`` with ``atmost[x]``
    the roots of coefficient at most x at j for x = 0..theta_j - 1, past
    which it would hold every root.  Each bitset is one column of the
    roots' coordinates as bytes, mapped by ``bytes.translate`` to the
    digits ``0`` and ``1`` and read by ``int(..., 2)``, highest root
    first.

    ``lam`` and ``b`` come from one raise.  -w0 is linear, and the packed
    weight -sum_d M**(d-1) omega_d is regular antidominant, so w0 takes it
    to its dominant point; raising it over all of W gives -w0 of every
    omega_d at once, with M = 2**bits from :func:`_digit_bits`.

    ``estimate(v)`` is the larger of: per simple index j, the residual
    coefficient over the largest j-coefficient of a usable root, rounded
    up (one ``floordiv`` by -theta_j per coordinate); and, in the
    classical families, the residual's epsilon L1 norm (``_eps_l1``) over
    the largest of a usable root, since each unit of cost moves at most
    that many epsilon units.  Both constants are the highest root's
    (:func:`_estimator_bounds`) at every d.
    """
    rs = build(rst)
    roots, n = rs.positive_roots, rs.rank

    def bitset(column, table):
        return int(column.translate(table)[::-1], 2)

    # Pairings lie in -3..3; packed as signed bytes, exactly 1..127 are positive.
    flat = [*chain.from_iterable(rs._fund_coords)]
    pairings = struct.pack(f"{len(flat)}b", *flat)
    nonpositive = b"1" + b"0" * 127 + b"1" * 128
    coeffs = bytes(chain.from_iterable(roots))
    every = (1 << len(roots)) - 1
    atleast = tuple((every, *(bitset(coeffs[j::n], b"0" * t + b"1" * (256 - t))
                              for t in range(1, top + 1)))
                    for j, top in enumerate(roots[-1]))
    bits = _digit_bits(rs)
    lam, b = _raise(rs._cartan_cols, range(n), tuple(-1 << (bits * j) for j in range(n)))
    maxcoef, maxstep = _estimator_bounds(rs)
    negated = tuple(-m for m in maxcoef)
    l1 = _eps_l1(rst.family)

    def estimate(v) -> int:
        h = -min(map(floordiv, v, negated))  # max_j ceil(v_j / theta_j)
        if maxstep and (q := -(-l1(v) // maxstep)) > h:
            h = q
        return h

    return _System(
        free=tuple(bitset(pairings[i::n], nonpositive) for i in range(n)),
        atleast=atleast,
        columns=tuple((top, tuple(every ^ a for a in col[1:]), col)
                      for top, col in zip(roots[-1], atleast)),
        bits=bits, lam=lam, b=b, estimate=estimate,
    )


@lru_cache(maxsize=None)
def _targets(rst: RootSystemType, parab: Parabolic) -> tuple:
    """Per d, the target ``TargetWeight``, the source tau(-w0(omega_d)),
    c_alpha, the target's coefficient at the parabolic's distinguished
    index (:func:`distinguished_index`) or ``None`` where it has none, and
    the path order's start ``canon(source, target)``, the Levi-dominant
    point of :func:`_search_data` at d.  W_{L_d} fixes omega_d and ``canon``
    reads only Levi coordinates, so the same reflections take the target
    weight, the source plus omega_d, to that start plus 1 at d: the
    lattice bound's start.

    With lam_d = -w0(omega_d) = omega_{sigma(d)} = -omega_d + b_d, raising
    -lam_d over the Levi gives -tau(lam_d) = -lam_d + c_d, so the target
    omega_d + tau(lam_d) is b_d - c_d in root coordinates, integral by
    construction.  The raise is linear on -lam_d, which is antidominant,
    so one raise of the packed -lam of :func:`_system` gives every
    c_d and every tau(lam_d) at once, read off by :func:`_unpack`.  Each
    target is a sum of positive roots, which the check below confirms.
    """
    rs = build(rst)
    rs._check_parabolic(parab)
    alpha = _distinguished(rs, parab)
    system = _system(rst)
    levi = [i - 1 for i in sorted(parab.retained)]
    neg_tau, c = _raise(rs._cartan_cols, levi, tuple(-x for x in system.lam))
    where = f"{rst} P={sorted(parab.omitted)}: target"
    coords = _unpack(tuple(map(sub, system.b, c)), system.bits, where)
    sources = _unpack(tuple(-x for x in neg_tau), system.bits, where)
    out = []
    for d, (root_coords, source) in enumerate(zip(coords, sources), start=1):
        if min(root_coords) < 0:
            raise InternalInconsistencyError(
                f"{where} d={d}: target has coordinates {root_coords}, expected nonnegative integers")
        value = (*source[:d - 1], source[d - 1] + 1, *source[d:])
        out.append((TargetWeight(d=d, value=value, root_coords=root_coords), source,
                    None if alpha is None else root_coords[alpha - 1],
                    _search_data(rst, d).canon(source, root_coords)))
    return tuple(out)


def _target_cached(rst: RootSystemType, parab: Parabolic, d: int):
    """``(target, source, c_alpha, start)`` at d, read from the cached
    record of :func:`_targets`; ``d`` is a checked index."""
    return _targets(rst, parab)[d - 1]


def target_weight(rs: RootSystem, parabolic: Parabolic, d: int) -> TargetWeight:
    """omega_d + tau(-w0(omega_d)) in both bases, exactly."""
    rs._check_index(d)
    return _target_cached(rs.rst, parabolic, d)[0]


def source_weight(rs: RootSystem, parabolic: Parabolic, d: int) -> Weight:
    """tau(-w0(omega_d)); equals -tau(w0(omega_d)), the path source."""
    rs._check_index(d)
    return _target_cached(rs.rst, parabolic, d)[1]


def allowed_root_indices(rs: RootSystem, d: int) -> tuple:
    """Positive roots usable at index d: those whose support meets d."""
    rs._check_index(d)
    return tuple(k for k, c in enumerate(rs.positive_roots) if c[d - 1] >= 1)


# ---------------------------------------------------------------------------
# shortest extremal-weight paths, one W_L-orbit at a time
# ---------------------------------------------------------------------------

def _depth_first(start, v0, budget, children, step, estimate, memo, orbit=None):
    """The stack ``[(state, v, left, untried), ...]`` of a walk from ``start``
    that clears the residual ``v0`` within ``budget``, or ``None``.

    It descends into the first of ``children(state, v, left)``, steps
    ``(r, k)`` leading to ``step(state, v, r, k)``, that can still fit
    the budget left.  The states are W_L-orbits, or with ``orbit`` single
    weights whose orbit is ``orbit(child, v2)[0]``.  ``memo`` is
    ``(failed, exact)``, keyed by orbit: a child whose orbit is in
    ``exact`` is exactly that far from the sink, so it fits exactly when
    r plus that distance does.  On orbits a fitting one ends the walk
    there, its frame's residual not cleared and its ``untried`` ``None``;
    a walk on weights descends into it, as it needs every weight of the
    path.  The sink, a child whose residual is zero, always fits: every
    step has r <= slack = left.  Its frame ends the walk at once, with
    ``untried`` ``None`` and neither its key nor its estimate computed.
    Any other child fits when r plus its estimate does and
    ``failed`` does not know its orbit to need more.  A state whose
    children run out is backed up, its orbit and budget recorded in
    ``failed``.  Steps lower the residual's height, the estimator is
    admissible and distances are W_L-invariant, so each record holds
    under any later budget.
    """
    failed, exact = memo
    stack = [(start, v0, budget, children(start, v0, budget))]
    while any(stack[-1][1]):
        chi, v, left, todo = stack[-1]
        for r, k in todo:
            child, v2 = step(chi, v, r, k)
            if not any(v2):
                stack.append((child, v2, left - r, None))
                return stack
            key, w = (child, v2) if orbit is None else orbit(child, v2)
            if exact and (e := exact.get(key)) is not None:
                if r + e > left:
                    continue
                if orbit is None:
                    stack.append((child, v2, left - r, None))
                    return stack
            elif r + estimate(w) > left or failed and failed.get(key, -1) >= left - r:
                continue
            stack.append((child, v2, left - r, children(child, v2, left - r)))
            break
        else:
            failed[chi if orbit is None else orbit(chi, v)[0]] = left
            stack.pop()
            if not stack:
                return None
    return stack


def _same(chi, v):
    return chi, v


def _make_moves(rs: RootSystem, usable: int, levi, ladder):
    """Steps ``(r, k)`` along positive root k from a Levi-dominant state
    ``(chi, v)`` under a slack of at least 1, lazily.

    ``usable`` is the bitset of usable roots (see :func:`_system`).
    A ladder step costs r = <chi, beta^vee> in 1..``slack`` and subtracts
    r*beta; its residual stays nonnegative, as every ladder state lies in
    the W-orbit of the antidominant -omega_d and so above it.  A unit step
    costs 1 and subtracts beta.  Both keep only the usable roots that fit
    under v, and of each orbit of the stabilizer of chi (the s_i, i in
    ``levi``, with chi_i = 0) only the member in every ``free[i]``.
    Both also drop, before any pairing, the roots whose child cannot meet
    the slack: for r >= 1 and beta_j <= theta_j, beta_j < v_j - (slack - 1)*theta_j
    leaves v_j - r*beta_j > (slack - r)*theta_j, and canonicalizing only
    raises v, so r + h(child) > slack.  The cut under v needs
    v_j < theta_j and, at slack >= 2, the slack cut needs v_j > theta_j,
    so each coordinate costs at most one lookup in ``columns[j]`` and one
    AND; at slack 1 the two cuts leave only the root equal to v, if v is
    one, read from the root index.  Unit steps come lowest root first
    and ladder steps highest root first: in both searches that order
    builds the fewest children before one fits (measured; on every E8
    cell the lattice search dives with one child per unit of its bound).
    The caller builds the children it tries (:func:`_make_step`); they may
    repeat an orbit.
    """
    system = _system(rs.rst)
    free, columns, index, coroots = system.free, system.columns, rs._root_index, rs._coroots

    def successors(chi, v, slack):
        mask = usable
        for i in levi:
            if not chi[i]:
                mask &= free[i]
        if slack == 1:
            k = index.get(v)
            mask &= 0 if k is None else 1 << k
        else:
            reach = slack - 1
            for vj, (th, below, above) in zip(v, columns):
                if vj < th:
                    mask &= below[vj]
                elif (t := vj - reach * th) > 0:
                    if t > th:  # no root reaches t
                        return
                    mask &= above[t]
        if not ladder:
            while mask:
                low = mask & -mask
                mask ^= low
                yield 1, low.bit_length() - 1
        while mask:
            k = mask.bit_length() - 1
            mask ^= 1 << k
            if 0 < (r := sum(map(mul, chi, coroots[k]))) <= slack:
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
    "order",     # the path order's memo (failed, exact), shared with the witness
    "lattice",   # the lattice bound's memo (failed, exact)
])):
    __slots__ = ()


@lru_cache(maxsize=None)
def _search_data(rst: RootSystemType, d: int) -> _Search:
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
    orbit steps.

    ``order`` and ``lattice`` are the two searches' memos, each a pair of
    dicts keyed by a Levi-dominant chi: ``failed`` maps an orbit to a
    budget it needs more than, ``exact`` to its distance from the sink
    (:func:`_depth_first`).  Both distances depend only on the orbit and
    on d: the path order's sink is -omega_d and the lattice bound's is
    the zero residual, whatever the parabolic, so a fact found at one
    parabolic holds at every other and each later search at d starts
    from them.  The witness walk reads and writes ``order`` too.  The
    memos are dropped with this cached record; a cold ``verify_suite(20)``
    leaves 10 264 exact and 54 failed facts in them, about 1.8 MB of
    peak RSS.  Every fact stays true once recorded, so threads may share the
    dicts under the interpreter lock: a race can lose a fact, never make
    a wrong one.
    """
    rs = build(rst)
    system = _system(rst)
    usable, levi = system.atleast[d - 1][1], tuple(i for i in range(rs.rank) if i != d - 1)
    canon = _make_canon(rs._cartan_cols, levi)
    return _Search(
        walk=_make_moves(rs, usable, (), True),
        ladder=_make_moves(rs, usable, levi, True),
        subtract=_make_moves(rs, usable, levi, False),
        step=_make_step(rs, canon),
        estimate=system.estimate,
        canon=canon,
        order=({}, {}),
        lattice=({}, {}),
    )


def _estimator_bounds(rs: RootSystem):
    """Largest j-coefficient of a usable root per j, and in A-D the largest
    epsilon L1 norm of one (else 0), at every d: the highest root's, which
    has full support and dominates every positive root, with norm 2."""
    theta, l1 = rs.positive_roots[-1], _eps_l1(rs.rst.family)
    return theta, l1(theta) if l1 else 0


def _deepen(search, moves, memo, chi, v, config, missing: str) -> int:
    """The least budget within which a :func:`_depth_first` walk of ``moves``
    from ``(chi, v)`` clears v, by iterative deepening under ``memo``.

    An orbit ``memo`` knows the distance of is settled at once.  Otherwise
    the budget rises by one from the start's estimate, or from one past a
    budget the start is known to need more than, whichever is larger; both
    are lower bounds and every step lowers the residual's height, so the
    first budget B that a walk fits in is the distance.  That walk then
    costs exactly B, so each of its frames, a Levi-dominant orbit, lies
    exactly the budget left there from the sink (a shorter tail would
    give a cheaper walk), and goes into the memo as exact, all but the
    last, which is the sink or an orbit the memo already knows.  A search
    of one parabolic reads none of them back, so it pays only for these
    stores and for the emptiness tests that guard each lookup.  ``config``,
    the ``(system, parabolic, d)`` searched, and ``missing`` name the
    search in the error raised when none fits under the ceiling ht(v);
    only that error formats them.
    """
    failed, exact = memo
    if exact and (e := exact.get(chi)) is not None:
        return e
    low = search.estimate(v)
    if failed:
        low = max(low, failed.get(chi, -1) + 1)
    for bound in range(low, sum(v) + 1):
        if stack := _depth_first(chi, v, bound, moves, search.step, search.estimate, memo):
            stack.pop()  # the sink, or an orbit the memo already knows
            for key, _, left, _ in stack:
                exact[key] = left
            return bound
    rst, parab, d = config
    raise InternalInconsistencyError(
        f"{rst} P={sorted(parab.omitted)} d={d}: {missing} within ceiling {sum(v)}")


@lru_cache(maxsize=None)
def _dijkstra_cached(rst: RootSystemType, parab: Parabolic, d: int) -> int:
    # The ladder on orbits, deepened: a step of cost r subtracts r*beta
    # with ht(beta) >= 1, so m <= ht(v), the ceiling of the deepening.
    search = _search_data(rst, d)
    return _deepen(search, search.ladder, search.order, *_target_cached(rst, parab, d)[3],
                   (rst, parab, d), "path order: no path")


def dijkstra_order(rs: RootSystem, parabolic: Parabolic, d: int) -> int:
    """Minimum cost of an extremal-weight path realizing m_d."""
    rs._check_index(d)
    return _dijkstra_cached(rs.rst, parabolic, d)


def shortest_path(rs: RootSystem, parabolic: Parabolic, d: int):
    """One canonical cheapest path as ``(cost, steps, nodes)``.

    ``steps`` is a tuple of ``(root_coords, r)``; ``nodes`` the visited
    weights from source to sink.  It is one :func:`_depth_first` walk on
    single weights under the budget m, trying successors in lexicographic
    order of their weight and keeping only their ``(r, k)`` until tried.
    Steps lower the residual's height, the estimator is admissible and
    distances are W_L-invariant, so the first path to reach the sink is
    the lexicographically first cheapest one, reproducible run to run.
    The walk reads and writes the path order's memo at d
    (:func:`_search_data`): an orbit known to be too far is skipped and
    one known to fit is entered without its estimate.  Every fact is
    true, so the memo decides only how soon a child that cannot fit is
    dropped, never which path comes first.  The budget m is the
    distance, so the orbit of every node on the path lies exactly the
    budget left there from the sink, and is recorded so.
    """
    rs._check_index(d)
    m = _dijkstra_cached(rs.rst, parabolic, d)
    search = _search_data(rs.rst, d)
    funds = rs._fund_coords

    def children(chi, v, left):
        # chi - r*beta ascending is r*beta descending: beta itself at r = 1.
        return iter(sorted(search.walk(chi, v, left), reverse=True, key=lambda e: (
            funds[e[1]] if e[0] == 1 else tuple([e[0] * x for x in funds[e[1]]]))))

    tw, source, _, _ = _target_cached(rs.rst, parabolic, d)
    stack = _depth_first(source, tw.root_coords, m, children, _make_step(rs, _same),
                         search.estimate, search.order, search.canon)
    if stack is None:
        raise InternalInconsistencyError(
            f"{rs.rst} P={sorted(parabolic.omitted)} d={d}: witness: no path within budget {m}")
    exact = search.order[1]
    for chi, v, left, _ in stack:
        exact[search.canon(chi, v)[0]] = left
    steps = tuple((tuple((a - b) // (g - h) for a, b in zip(v, v2)), g - h)
                  for (_, v, g, _), (_, v2, h, _) in zip(stack, stack[1:]))
    return m, steps, tuple(f[0] for f in stack)


# ---------------------------------------------------------------------------
# integer-decomposition lower bound
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lattice_cached(rst: RootSystemType, parab: Parabolic, d: int) -> int:
    # Shortest path in the lattice-point DAG: states are the nonnegative
    # residuals below the target, with their own weights as chi, and each
    # edge subtracts one usable root at unit cost; no ladder constraint.
    # Deepened from the start's estimate, usually exact, up to ht(v0),
    # which the cheapest ladder, itself a decomposition, fits in.  The
    # start is the path order's plus omega_d (see :func:`_targets`).
    search = _search_data(rst, d)
    chi, v = _target_cached(rst, parab, d)[3]
    chi = (*chi[:d - 1], chi[d - 1] + 1, *chi[d:])
    return _deepen(search, search.subtract, search.lattice, chi, v, (rst, parab, d),
                   "lattice: no decomposition")


def lattice_lower_bound(rs: RootSystem, parabolic: Parabolic, d: int) -> int:
    """Exact min of sum(n_j) over decompositions of the target.

    This enumeration knows nothing about extremal-weight ladders and
    serves as the independent brute-force oracle.
    """
    rs._check_index(d)
    return _lattice_cached(rs.rst, parabolic, d)


# ---------------------------------------------------------------------------
# distinguished-coefficient lower bound
# ---------------------------------------------------------------------------

def _distinguished(rs: RootSystem, parabolic: Parabolic) -> int | None:
    """The distinguished index of a checked parabolic (:func:`distinguished_index`),
    which does not depend on d."""
    if len(parabolic.omitted) != 1:
        return None
    p = parabolic.omitted_index
    if p in cominuscule_indices(rs):
        return p
    if rs.rst.family == "C":
        return rs.rank
    return None


def distinguished_index(rs: RootSystem, parabolic: Parabolic, d: int) -> int | None:
    """Cominuscule simple index whose target coefficient attains m_d, or None.

    That is p itself when the omitted index p is cominuscule, and in type
    C the cominuscule node n at every p.  A cominuscule index has
    coefficient <= 1 in every positive root.  The answer does not depend
    on d.
    """
    rs._check_parabolic(parabolic)
    rs._check_index(d)
    return _distinguished(rs, parabolic)


def coefficient_lower_bound(rs: RootSystem, parabolic: Parabolic, d: int) -> int | None:
    """Coefficient of the distinguished simple root in the target weight.

    Defined on the catalog's coverage, every cominuscule parabolic except
    the odd quadric B_n/P1, and also on B_n/P1 and on every parabolic of
    type C; ``None`` elsewhere (for instance the odd orthogonal spin
    configurations, where every bound of this shape is too weak).  The
    value is read from the parabolic's cached target record
    (:func:`_targets`), which never runs the path or lattice oracle.
    """
    rs._check_index(d)
    rs._check_parabolic(parabolic)
    return _target_cached(rs.rst, parabolic, d)[2]


@lru_cache(maxsize=None, typed=True)
def _maximal_at(rank: int, i: int):
    """The maximal parabolic omitting i and -omega_i, interned per (rank, i):
    the checker builds neither per certificate, and keys the target and path
    caches on the parabolic.  Keys are typed, so ``True`` and ``1.0`` miss
    the entry of 1 and reach :class:`Parabolic`'s plain-integer check."""
    return Parabolic.maximal(rank, i), tuple(-int(j == i - 1) for j in range(rank))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def check_certificate(rs: RootSystem, cert: Certificate, *,
                      strict: bool = True) -> CertificateValidation:
    """Validate every clause of a certificate independently.

    Clauses: (a) the weighted root sum equals the target; (b) the roots
    are pairwise orthogonal, so their reflections commute; (c) the
    source weight pairs to exactly n_j against every entry at once
    (order-free ladder), and the ladder ends at the sink -omega_d, which
    holds exactly when (a) does, since the source is target - omega_d;
    sequential ladder, the order-sensitive variant that is what
    realizability actually needs; (d) the total cost equals the path
    oracle and the distinguished coefficient where defined.  Membership
    preconditions (positive roots outside the Levi at d, each given as a
    ``tuple`` of rank plain ``int`` coordinates with a plain ``int``
    multiplicity of at least 1, so a list, ``True`` and ``1.0`` are no
    root and no multiplicity) are reported separately.  Clause (b)
    compares each unordered pair of distinct roots once, in order of
    first appearance, so a root repeated in the entries adds no pairs; it
    lists at most :data:`MAX_PAIR_FAILURES` non-orthogonal pairs, and (c)
    and each membership check as many failing entries, each list then one
    line saying it was cut.

    With ``strict=False`` clauses (b) and (c), which only the ``strict``
    verdict reads, are skipped: ``orthogonal`` and ``ladder_uniform``
    come back ``None`` and no (b) or (c) line is listed.  Every clause
    that ``valid`` reads runs as with the default, so ``valid``,
    ``cost`` and the other failure lines, in order, are the same.

    Target, source and c_alpha are read from the parabolic's cached target
    record, which never runs the path or lattice oracle; the path order
    comes from its own cache.
    """
    if cert.rst != rs.rst:
        raise RootSystemError(f"certificate is for {cert.rst}, root system is {rs.rst}")
    parab = _maximal_at(rs.rank, cert.omitted)[0]
    d = cert.d
    rs._check_index(d)
    tw, chi0, ca, _ = _target_cached(rs.rst, parab, d)
    target, entries = tw.root_coords, cert.entries
    coroots, funds = rs._coroots, rs._fund_coords
    failures = []
    listed = {}  # per-entry check -> entries that failed it

    def fail(check, line):
        count = listed[check] = listed.get(check, 0) + 1
        if count <= MAX_PAIR_FAILURES:
            failures.append(line)
        elif count == MAX_PAIR_FAILURES + 1:
            failures.append(f"{check} list cut after {MAX_PAIR_FAILURES} entries")

    # One pass: membership, each entry's root index, its weighted row for
    # clause (a), and the cost, summed in entry order as Certificate.cost does.
    roots_ok = True
    outside = True
    shaped = True  # every entry has rank coordinates, which clause (a) needs
    index, rank, ks, rows, cost = rs._root_index, rs.rank, [], [], 0
    ints = [int] * rank  # the types of a root's coordinates
    for c, n in entries:
        cost += n
        if type(n) is not int:
            roots_ok = False
            fail("multiplicity not an integer:", f"multiplicity {n!r} is not an integer for {c}")
        elif n < 1:
            roots_ok = False
            fail("multiplicity < 1:", f"multiplicity {n} < 1 for {c}")
        # Only rank plain ints are looked up: a list, or a bool or float
        # equal to an int, would find a root's index.
        if type(c) is tuple and [*map(type, c)] == ints:
            k = index.get(c)
        else:
            k = None
            shaped = shaped and len(c) == rank
        if k is None:
            roots_ok = False
            fail("not a positive root:", f"{c} is not a positive root")
        elif c[d - 1] < 1:
            outside = False
            fail(f"in the Levi at index {d}:", f"{c} lies in the Levi at index {d}")
        ks.append(k)
        rows.append(c if n == 1 else [n * x for x in c])

    # Column sums; a short entry shortens the total, as zip does.
    total = tuple(map(sum, zip((0,) * rank, *rows)))
    sum_matches = shaped and total == target
    if not sum_matches:
        failures.append(f"(a) sum {total} != target {target}")

    orthogonal = True if strict else None
    ladder_uniform = roots_ok if strict else None
    ladder_sequential = roots_ok
    # Every entry is a positive root, so its coroot and fundamental
    # coordinates come from the root system's integer table.
    if roots_ok and strict:
        # Equal indices are equal coordinates, so the last value kept per
        # root is its first: the distinct roots in first-appearance order.
        distinct = list(dict(zip(ks, (c for c, _ in entries))).items())
        bad = ((bi, bj) for i, (ki, bi) in enumerate(distinct) for kj, bj in distinct[i + 1:]
               if sum(map(mul, funds[ki], coroots[kj])) != 0)
        for count, (bi, bj) in enumerate(bad):
            orthogonal = False
            if count == MAX_PAIR_FAILURES:
                failures.append(f"(b) list cut after {count} non-orthogonal pairs")
                break
            failures.append(f"(b) {bi} and {bj} are not orthogonal")

        for (c, n), k in zip(entries, ks):
            r = sum(map(mul, chi0, coroots[k]))
            if r != n:
                ladder_uniform = False
                fail("(c)", f"(c) <chi0, {c}^vee> = {r} != {n}")
        # The source is target - omega_d, so the order-free ladder ends at
        # the sink exactly when the entries sum to the target: clause (a).
        ladder_uniform = ladder_uniform and sum_matches

    if roots_ok:
        chi = chi0
        for (c, n), k in zip(entries, ks):
            r = sum(map(mul, chi, coroots[k]))
            if r != n:
                ladder_sequential = False
                failures.append(f"sequential ladder stalls at {c}: pairing {r} != {n}")
                break
            f = funds[k]
            chi = tuple(map(sub, chi, f if n == 1 else [n * b for b in f]))
        else:
            if chi != (sink := _maximal_at(rank, d)[1]):
                ladder_sequential = False
                failures.append(f"sequential ladder ends at {chi}, not {sink}")

    m = _dijkstra_cached(rs.rst, parab, d)
    cost_matches = cost == m and (ca is None or cost == ca)
    if not cost_matches:
        failures.append(f"(d) cost {cost} != dijkstra {m}" + ("" if ca is None else f", c_alpha {ca}"))

    return CertificateValidation(cert, roots_ok, outside, sum_matches, orthogonal, ladder_uniform,
                                 ladder_sequential, cost, m, ca, cost_matches, tuple(failures))


def vanishing_result(rs: RootSystem, parabolic: Parabolic, d: int,
                     certificate_cost: int | None = None) -> VanishingResult:
    """Assemble all routes to m_d and check that the defined ones agree."""
    rs._check_index(d)
    m = _dijkstra_cached(rs.rst, parabolic, d)
    lat = lattice_lower_bound(rs, parabolic, d)
    ca = coefficient_lower_bound(rs, parabolic, d)
    if not ((ca is None or ca <= lat) and lat <= m):
        raise InternalInconsistencyError(
            f"{rs.rst} P={sorted(parabolic.omitted)} d={d}: bound chain violated: "
            f"c_alpha={ca} lattice={lat} dijkstra={m}"
        )
    agreed = (lat == m and (ca is None or ca == m)
              and (certificate_cost is None or certificate_cost == m))
    return VanishingResult(d, m, lat, ca, certificate_cost, agreed)
