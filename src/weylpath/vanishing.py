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

The path and lattice searches run on orbits of the Levi Weyl group W_L
at d, generated by the s_i with i != d.  W_L permutes the usable roots,
fixes omega_d and keeps every pairing <chi, beta^vee>, so both distances
are W_L-invariant and each search settles only the Levi-dominant point
of an orbit (see :func:`_search_data`).  The witness walk in
:func:`shortest_path` follows single weights and records its failures
by orbit.  Relaxed searches step along Levi roots too, which W_L does
not permute, so they are not quotiented.

Every search asks a state for its children with the slack left under a
bound: the path order (one bounded A*, :func:`_astar`) runs under its
start residual's height, the lattice search (the same A*) under a bound
widened from its estimate up to that height, and the witness walk
depth-first under the path order.  Candidate roots come from per-system
bitsets (:func:`_reflection_tables`): the usable set at d, minus the
roots the stabilizer moves, minus those that do not fit under the
residual, then cut to the slack (:func:`_make_moves`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from operator import add, mul, sub
from typing import Callable, NamedTuple, Optional

from .rootsystem import (
    Parabolic, Root, RootSystem, RootSystemError, RootSystemType, Weight, build,
    eps_from_root_coords,
)
from .weylgroup import cominuscule_indices


class InternalInconsistencyError(RuntimeError):
    """A structural identity failed; indicates a convention bug, never expected."""


# Failure lines one clause lists before it stops: clause (b)'s non-orthogonal
# pairs, and the entries that fail (c) or a membership check; a document can
# hold millions.
MAX_PAIR_FAILURES = 64


@dataclass(frozen=True)
class TargetWeight:
    """omega_d + tau(-w0(omega_d)) with its simple-root coordinates."""

    d: int
    value: Weight
    root_coords: Root


@dataclass(frozen=True)
class Certificate:
    """An ordered multiset of positive roots claiming to realize m_d."""

    rst: RootSystemType
    omitted: int
    d: int
    entries: tuple  # ((root_coords, multiplicity), ...)
    origin: str = ""

    @property
    def cost(self) -> int:
        return sum(n for _, n in self.entries)

    @property
    def parabolic(self) -> Parabolic:
        return Parabolic.maximal(self.rst.rank, self.omitted)


@dataclass(frozen=True)
class CertificateValidation:
    """Clause-by-clause report for one certificate."""

    certificate: Certificate
    roots_ok: bool             # every entry is a positive root
    outside_levi: bool         # every entry lies outside the Levi at d
    sum_matches: bool          # (a) weighted sum equals the target weight
    orthogonal: bool           # (b) pairwise coroot pairings vanish
    ladder_uniform: bool       # (c) <chi0, beta_j^vee> = n_j for every j at once
    ladder_sequential: bool    # order-sensitive ladder: pairing equals n_j at each step
    cost: int
    dijkstra: int
    c_alpha: Optional[int]
    cost_matches: bool         # (d) cost equals dijkstra (and c_alpha when defined)
    failures: tuple = ()

    @property
    def valid(self) -> bool:
        """Realizes m_d: membership, sum, a working ladder, minimal cost."""
        return (self.roots_ok and self.outside_levi and self.sum_matches
                and self.ladder_sequential and self.cost_matches)

    @property
    def strict(self) -> bool:
        """Valid and pairwise orthogonal (reflections mutually commute)."""
        return self.valid and self.orthogonal and self.ladder_uniform


@dataclass(frozen=True)
class VanishingResult:
    """All routes to m_d for one fundamental index."""

    d: int
    m_dijkstra: int
    m_lattice_lb: int
    c_alpha: Optional[int]
    certificate_cost: Optional[int]
    agreed: bool
    m_dijkstra_relaxed: Optional[int] = None


# ---------------------------------------------------------------------------
# dominant points of Weyl-group orbits
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _reflection_tables(rst: RootSystemType):
    """The root system's stored sparse Cartan columns and two bitset tables
    over its positive roots, bit k standing for ``rs.positive_roots[k]``.

    ``cols[i]`` holds the ``(j, <alpha_{i+1}, alpha_{j+1}^vee>)`` that are
    nonzero.  ``blocked[i]`` is the set of roots with
    ``<beta, alpha_{i+1}^vee> > 0``.  ``atleast[j][t]`` is the set of roots
    whose coefficient at j is at least t, for t = 0..theta_j + 1 with theta
    the highest root, so ``atleast[j][0]`` holds every root and the last
    entry none.
    """
    rs = build(rst)
    roots = rs.positive_roots
    blocked = [0] * rs.rank
    for k, f in enumerate(rs._fund_coords):
        for i, x in enumerate(f):
            if x > 0:
                blocked[i] |= 1 << k
    atleast = []
    for col, top in zip(zip(*roots), roots[-1]):
        sets = [0] * (top + 2)  # first the roots with coefficient exactly t
        for k, x in enumerate(col):
            if x:
                sets[x] |= 1 << k
        sets[0] = (1 << len(roots)) - 1
        for t in range(top, 0, -1):
            sets[t] |= sets[t + 1]
        atleast.append(tuple(sets))
    return rs._cartan_cols, tuple(blocked), tuple(atleast)


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


# ---------------------------------------------------------------------------
# target weight
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _dominant_negated(rst: RootSystemType, d: int):
    """-omega_d raised to its dominant point over all of W: the pair
    ``(lam, b)`` with lam = -w0(omega_d) = -omega_d + b, b in root
    coordinates.  It depends on the system and d only, not the parabolic."""
    n = rst.rank
    cols = _reflection_tables(rst)[0]
    return _make_canon(cols, range(n))(tuple(-int(j == d - 1) for j in range(n)), (0,) * n)


@lru_cache(maxsize=None)
def _target_cached(rst: RootSystemType, parab: Parabolic, d: int) -> TargetWeight:
    # With lam = -w0(omega_d) = -omega_d + b, raising -lam over the Levi
    # gives -tau(lam) = -lam + c.  So the target omega_d + tau(lam) is
    # exactly b - c in root coordinates, integral by construction.  It is a
    # sum of positive roots, which the check below confirms.
    rs = build(rst)
    rs._check_parabolic(parab)
    cols = _reflection_tables(rst)[0]
    zero = (0,) * rs.rank
    omega = rs.fundamental_weight(d)
    lam, b = _dominant_negated(rst, d)
    levi = [i - 1 for i in sorted(parab.retained)]
    neg_tau, c = _make_canon(cols, levi)(tuple(-x for x in lam), zero)
    value = tuple(map(sub, omega, neg_tau))
    coords = tuple(map(sub, b, c))
    if min(coords) < 0:
        raise InternalInconsistencyError(
            f"{rst} P={sorted(parab.omitted)} d={d}: target has coordinates {coords}, "
            "expected nonnegative integers"
        )
    return TargetWeight(d=d, value=value, root_coords=coords)


def target_weight(rs: RootSystem, parabolic: Parabolic, d: int) -> TargetWeight:
    """omega_d + tau(-w0(omega_d)) in both bases, exactly."""
    rs._check_index(d)
    return _target_cached(rs.rst, parabolic, d)


def source_weight(rs: RootSystem, parabolic: Parabolic, d: int) -> Weight:
    """tau(-w0(omega_d)); equals -tau(w0(omega_d)), the path source."""
    tw = target_weight(rs, parabolic, d)
    return tuple(v - w for v, w in zip(tw.value, rs.fundamental_weight(d)))


def allowed_root_indices(rs: RootSystem, d: int, relaxed: bool = False) -> tuple:
    """Positive roots usable at index d: support meets d, or all if relaxed."""
    rs._check_index(d)
    if relaxed:
        return tuple(range(len(rs.positive_roots)))
    return tuple(k for k, c in enumerate(rs.positive_roots) if c[d - 1] >= 1)


# ---------------------------------------------------------------------------
# shortest extremal-weight paths, one W_L-orbit at a time
# ---------------------------------------------------------------------------

def _astar(start, v0, successors, estimate, bound) -> Optional[int]:
    """Cost of a cheapest walk from ``start`` that clears the residual ``v0``,
    or ``None`` if none fits in ``bound``.

    ``successors(state, v, slack)`` yields ``(cost, child, v2)`` and may
    leave out children whose cost plus estimate cannot fit the slack
    ``bound - g``.  Children whose residual goes negative or whose
    cost-plus-estimate exceeds ``bound`` are dropped.  The estimator is
    consistent, so each state is settled once at its exact distance, the
    first state popped with a zero residual ends the search, and any bound
    at or above the answer gives the same answer.  Equal estimates pop
    deepest first, which walks straight down the tight-estimate corridor.
    It serves the path order and the lattice bound, not the witness walk.
    """
    h0 = estimate(v0)
    if h0 > bound:
        return None
    heap = [(h0, 0, start, v0)]
    settled = set()
    while heap:
        f, negg, state, v = heapq.heappop(heap)
        if state in settled:
            continue
        if not any(v):
            return -negg
        settled.add(state)
        g = -negg
        for r, child, v2 in successors(state, v, bound - g):
            if min(v2) < 0 or child in settled:
                continue
            h = estimate(v2)
            if g + r + h > bound:
                continue
            heapq.heappush(heap, (g + r + h, -(g + r), child, v2))
    return None


def _same(chi, v):
    return chi, v


def _make_moves(rs: RootSystem, usable: int, levi, canon, ladder):
    """Successors ``(cost, child, v2)`` of a Levi-dominant state.

    ``usable`` is the bitset of usable roots (see :func:`_reflection_tables`).
    A ladder step costs r = <chi, beta^vee> in 1..``slack`` and subtracts
    r*beta; its residual stays nonnegative, as every ladder state lies in
    the W-orbit of the antidominant -omega_d and so above it.  A unit step
    costs 1 and subtracts beta.  Both keep only the usable roots that fit
    under v, and of each orbit of the stabilizer of chi, generated by the
    s_i, i in ``levi``, with chi_i = 0, only the member outside every such
    ``blocked[i]``.  A unit step also keeps only roots whose child can
    still meet the slack: canonicalizing only raises v, so the child's
    estimate is at least max_j ceil((v_j - beta_j) / theta_j), and a root
    with beta_j < v_j - (slack - 1)*theta_j has 1 + h(child) > slack.
    Children are canonicalized and the cheapest step to each is kept.
    With ``levi`` empty and ``canon`` the identity these are the plain
    steps between single states.
    """
    _, blocked, atleast = _reflection_tables(rs.rst)
    coroots, funds, roots = rs._coroots, rs._fund_coords, rs.positive_roots
    theta = roots[-1]
    tops = tuple(t + 1 for t in theta)  # atleast[j][tops[j]] is empty

    def successors(chi, v, slack):
        mask = usable
        for i in levi:
            if not chi[i]:
                mask &= ~blocked[i]
        for j, vj in enumerate(v):
            if vj < tops[j]:
                mask &= ~atleast[j][vj + 1]
            if not ladder:
                t = vj - (slack - 1) * theta[j]
                if t > 0:
                    mask &= atleast[j][min(t, tops[j])]
        best = {}
        while mask:
            low = mask & -mask
            mask ^= low
            k = low.bit_length() - 1
            if ladder:
                r = sum(map(mul, chi, coroots[k]))
                if not 0 < r <= slack:
                    continue
                child, v2 = canon(tuple(a - r * b for a, b in zip(chi, funds[k])),
                                  tuple(a - r * b for a, b in zip(v, roots[k])))
            else:
                r = 1
                child, v2 = canon(tuple(map(sub, chi, funds[k])), tuple(map(sub, v, roots[k])))
            if child not in best or r < best[child][0]:
                best[child] = (r, v2)
        return [(r, child, v2) for child, (r, v2) in best.items()]

    return successors


class _Search(NamedTuple):
    walk: Callable      # the ladder on single weights
    ladder: Callable    # the ladder on orbits
    subtract: Callable  # unit root subtraction on orbits
    estimate: Callable
    canon: Callable


@lru_cache(maxsize=None)
def _search_data(rst: RootSystemType, d: int, relaxed: bool) -> _Search:
    """The searches' successors, estimator and canonicalizer at d.

    Both searches carry a state ``(chi, v)``: a weight in fundamental
    coordinates and a residual in root coordinates.  The path order walks
    chi -> s_beta(chi) = chi - r*beta at cost r = <chi, beta^vee> >= 1,
    with v the root coordinates of chi + omega_d, so v reaches zero
    exactly at -omega_d; the lattice bound subtracts one usable root at
    unit cost, with chi the residual's own weight.

    The Levi Weyl group W_L, generated by the s_i with i != d, permutes the
    usable roots, fixes omega_d and keeps every pairing <chi, beta^vee>, so
    both distances are W_L-invariant.  ``ladder`` and ``subtract`` therefore
    settle one state per W_L-orbit, its Levi-dominant point ``canon(chi,
    v)``; ``walk`` is the ladder on single weights, which the witness
    follows.  ``canon`` only raises v, and the estimator's epsilon part is
    W_L-invariant, so no estimate drops across it and the estimator stays
    consistent on orbit steps.  Relaxed searches also step along Levi
    roots, which W_L does not permute, so there ``canon`` is the identity
    and no step is skipped.

    The usable roots are one bitset, ``atleast[d-1][1]`` of
    :func:`_reflection_tables` (every root when relaxed), which the
    successors narrow per state; see :func:`_make_moves`.
    """
    rs = build(rst)
    cols, _, atleast = _reflection_tables(rst)
    if relaxed:
        usable, levi, canon = (1 << len(rs.positive_roots)) - 1, (), _same
    else:
        usable, levi = atleast[d - 1][1], tuple(i for i in range(rs.rank) if i != d - 1)
        canon = _make_canon(cols, levi)
    return _Search(
        walk=_make_moves(rs, usable, (), _same, True),
        ladder=_make_moves(rs, usable, levi, canon, True),
        subtract=_make_moves(rs, usable, levi, canon, False),
        estimate=_make_estimator(rs),
        canon=canon,
    )


def _estimator_bounds(rs: RootSystem):
    """Largest j-coefficient of a usable root per j, and in the classical
    families the largest epsilon L1 norm of one (0 elsewhere), at every d.

    Both are the highest root's: it has full support, so it is usable at
    every d, relaxed or not, and it dominates every positive root
    coefficient by coefficient.  Its epsilon L1 norm is 2, the most any
    root of the classical realizations has.
    """
    theta = rs.positive_roots[-1]
    if rs.rst.family not in "ABCD":
        return theta, 0
    return theta, sum(map(abs, eps_from_root_coords(rs.rst, theta)))


def _make_estimator(rs: RootSystem):
    """Admissible lower bound on the cost still needed to clear a residual.

    Combines two arguments: per simple index j, the residual coefficient
    divided by the largest j-coefficient among the usable roots; and, in
    the classical families, the L1 norm of the residual in epsilon
    coordinates divided by the largest L1 norm of a usable root, since
    each unit of cost moves at most that many epsilon units.  Both
    constants come from the highest root (:func:`_estimator_bounds`),
    whose full support also means no residual is declared hopeless.
    """
    rst = rs.rst
    maxcoef, maxstep = _estimator_bounds(rs)

    def estimate(v) -> int:
        h = 0
        for vj, mj in zip(v, maxcoef):
            if vj > 0:
                q = -(-vj // mj)
                if q > h:
                    h = q
        if maxstep:
            l1 = sum(map(abs, eps_from_root_coords(rst, v)))
            q = -(-l1 // maxstep)
            if q > h:
                h = q
        return h

    return estimate


@lru_cache(maxsize=None)
def _dijkstra_cached(rst: RootSystemType, parab: Parabolic, d: int, relaxed: bool) -> int:
    search = _search_data(rst, d, relaxed)
    source = source_weight(build(rst), parab, d)
    start = search.canon(source, _target_cached(rst, parab, d).root_coords)
    # Each step of cost r subtracts r*beta with ht(beta) >= 1, so m is at
    # most the start residual's height: a ceiling that leaves m unchanged.
    m = _astar(*start, search.ladder, search.estimate, sum(start[1]))
    if m is None:
        raise InternalInconsistencyError(
            f"{rst} P={sorted(parab.omitted)} d={d}: path order: no path within ceiling {sum(start[1])}")
    return m


def dijkstra_order(rs: RootSystem, parabolic: Parabolic, d: int, relaxed: bool = False) -> int:
    """Minimum cost of an extremal-weight path realizing m_d."""
    rs._check_index(d)
    return _dijkstra_cached(rs.rst, parabolic, d, bool(relaxed))


def shortest_path(rs: RootSystem, parabolic: Parabolic, d: int, relaxed: bool = False):
    """One canonical cheapest path as ``(cost, steps, nodes)``.

    ``steps`` is a tuple of ``(root_coords, r)``; ``nodes`` the visited
    weights from source to sink.  It is one depth-first walk on single
    weights under the budget m: successors go in lexicographic order,
    skipping any whose orbit's estimate exceeds the budget left or whose
    orbit already failed with at least that budget.  Steps lower the
    residual's height, the estimator is admissible and distances are
    W_L-invariant, so the first path to reach the sink is the
    lexicographically first cheapest one, reproducible run to run.
    """
    rs._check_index(d)
    m = _dijkstra_cached(rs.rst, parabolic, d, bool(relaxed))
    search = _search_data(rs.rst, d, bool(relaxed))

    def node(chi, v, left):
        return chi, v, left, iter(sorted(search.walk(chi, v, left), key=lambda e: e[1]))

    stack = [node(source_weight(rs, parabolic, d), _target_cached(rs.rst, parabolic, d).root_coords, m)]
    failed = {}  # orbit -> largest budget it is known not to fit
    while any(stack[-1][1]):
        chi, v, left, todo = stack[-1]
        for r, child, v2 in todo:
            orbit, w = search.canon(child, v2)
            if r + search.estimate(w) <= left and failed.get(orbit, -1) < left - r:
                stack.append(node(child, v2, left - r))
                break
        else:
            failed[search.canon(chi, v)[0]] = left
            stack.pop()
            if not stack:
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
    # residuals below the target, each edge subtracts one usable root at
    # unit cost.  Exact by exhaustion; no ladder constraint.  The target's
    # weight is its residual's weight, the lattice state's chi.  The bound
    # widens from the start's estimate, which is usually already exact, so
    # each expansion generates only the children that can still meet it;
    # the cheapest ladder is a decomposition into m <= ht(v0) usable roots.
    search = _search_data(rst, d, relaxed)
    tw = _target_cached(rst, parab, d)
    start, v0 = search.canon(tw.value, tw.root_coords)
    for bound in range(search.estimate(v0), sum(v0) + 1):
        m = _astar(start, v0, search.subtract, search.estimate, bound)
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


class _Config(NamedTuple):
    """What a certificate at one (system, maximal parabolic, d) is checked
    against, all of it read off the target weight."""

    parab: Parabolic
    target: Root        # target weight in root coordinates
    source: Weight      # chi0 = target - omega_d, in fundamental coordinates
    sink: Weight        # -omega_d
    c_alpha: Optional[int]


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
    tw = _target_cached(rst, parab, d)
    sink = _maximal_at(rst.rank, d)[1]
    alpha = distinguished_index(rs, parab, d)
    return _Config(
        parab=parab,
        target=tw.root_coords,
        source=tuple(map(add, tw.value, sink)),
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
