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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from operator import mul, sub
from typing import Optional

from .rootsystem import (
    Parabolic, Root, RootSystem, RootSystemError, RootSystemType, Weight, build,
    eps_from_root_coords,
)
from .weylgroup import cominuscule_indices


class InternalInconsistencyError(RuntimeError):
    """A structural identity failed; indicates a convention bug, never expected."""


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
# target weight
# ---------------------------------------------------------------------------

def _lower(rs: RootSystem, mu, indices) -> tuple:
    """Apply s_i while some mu_i > 0, i in ``indices``: the orbit's lowest
    point, and the drop mu - image in root coordinates (both unique)."""
    cols = tuple(zip(*rs.cartan))  # cols[i]: fundamental coordinates of alpha_{i+1}
    drop = [0] * rs.rank
    while True:
        for i in indices:
            k = mu[i - 1]
            if k > 0:
                drop[i - 1] += k
                mu = tuple(a - k * b for a, b in zip(mu, cols[i - 1]))
                break
        else:
            return mu, drop


@lru_cache(maxsize=None)
def _target_cached(rst: RootSystemType, parab: Parabolic, d: int) -> TargetWeight:
    # Lowering omega_d over all of W gives w0(omega_d) = omega_d - b; lowering
    # lam = -w0(omega_d) over the Levi gives tau(lam) = lam - c.  So the
    # target omega_d + tau(lam) is exactly b - c in root coordinates,
    # integral by construction.  It is a sum of positive roots, which the
    # check below confirms.
    rs = build(rst)
    rs._check_parabolic(parab)
    omega = rs.fundamental_weight(d)
    img, b = _lower(rs, omega, range(1, rs.rank + 1))
    chi0, c = _lower(rs, tuple(-x for x in img), sorted(parab.retained))
    value = tuple(a + x for a, x in zip(omega, chi0))
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
# shortest extremal-weight paths
# ---------------------------------------------------------------------------

def _astar(start, v0, successors, estimate, bound=None) -> Optional[int]:
    """Cost of a cheapest walk from ``start`` that clears the residual ``v0``.

    ``successors(state, v)`` yields ``(cost, child, v2)``.  Children whose
    residual goes negative, that ``estimate`` declares hopeless, or whose
    cost-plus-estimate exceeds ``bound`` are dropped.  The estimator is
    consistent, so each state is settled once at its exact distance and
    the first state popped with a zero residual ends the search.  Equal
    estimates pop deepest first, which walks straight down the
    tight-estimate corridor.  Returns ``None`` if nothing fits in ``bound``.
    """
    h0 = estimate(v0)
    if h0 is None or (bound is not None and h0 > bound):
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
        for r, child, v2 in successors(state, v):
            if min(v2) < 0 or child in settled:
                continue
            h = estimate(v2)
            if h is None or (bound is not None and g + r + h > bound):
                continue
            heapq.heappush(heap, (g + r + h, -(g + r), child, v2))
    return None


@lru_cache(maxsize=None)
def _search_data(rst: RootSystemType, d: int, relaxed: bool):
    """Usable roots at d, the extremal-weight ladder over them, the estimator."""
    rs = build(rst)
    idxs = allowed_root_indices(rs, d, relaxed)
    rootcos = tuple(rs.positive_roots[k] for k in idxs)
    edges = tuple((rs._coroots[k], rs._fund_coords[k], rs.positive_roots[k]) for k in idxs)

    def ladder(chi, v):
        # chi -> s_beta(chi) = chi - r*beta at cost r = <chi, beta^vee> >= 1;
        # the residual v tracks the root coordinates of chi + omega_d, so it
        # reaches zero exactly at -omega_d.
        for cv, fk, rc in edges:
            r = sum(a * b for a, b in zip(chi, cv))
            if r >= 1:
                yield (r, tuple(a - r * b for a, b in zip(chi, fk)),
                       tuple(a - r * b for a, b in zip(v, rc)))

    return rootcos, ladder, _make_estimator(rst, rootcos)


def _make_estimator(rst: RootSystemType, rootcos):
    """Admissible lower bound on the cost still needed to clear a residual.

    Combines two arguments: per simple index j, the residual coefficient
    divided by the largest j-coefficient among the usable roots; and, in
    the classical families, the L1 norm of the residual in epsilon
    coordinates divided by the largest L1 norm of a usable root (at most
    two), since each unit of cost moves at most that many epsilon units.
    Returns None for residuals no combination of usable roots can clear.
    """
    rank = rst.rank
    maxcoef = tuple(max(c[j] for c in rootcos) for j in range(rank))
    classical = rst.family in "ABCD"
    maxstep = 0
    if classical:
        maxstep = max(sum(map(abs, eps_from_root_coords(rst, c))) for c in rootcos)

    def estimate(v) -> Optional[int]:
        h = 0
        for vj, mj in zip(v, maxcoef):
            if vj > 0:
                if mj == 0:
                    return None
                q = -(-vj // mj)
                if q > h:
                    h = q
        if classical:
            l1 = sum(map(abs, eps_from_root_coords(rst, v)))
            q = -(-l1 // maxstep)
            if q > h:
                h = q
        return h

    return estimate


@lru_cache(maxsize=None)
def _dijkstra_cached(rst: RootSystemType, parab: Parabolic, d: int, relaxed: bool) -> int:
    rs = build(rst)
    _, ladder, estimate = _search_data(rst, d, relaxed)
    source = source_weight(rs, parab, d)
    m = _astar(source, _target_cached(rst, parab, d).root_coords, ladder, estimate)
    if m is None:
        raise InternalInconsistencyError(f"{rst} d={d}: sink unreachable from {source}")
    return m


def dijkstra_order(rs: RootSystem, parabolic: Parabolic, d: int, relaxed: bool = False) -> int:
    """Minimum cost of an extremal-weight path realizing m_d."""
    rs._check_index(d)
    return _dijkstra_cached(rs.rst, parabolic, d, bool(relaxed))


def shortest_path(rs: RootSystem, parabolic: Parabolic, d: int, relaxed: bool = False):
    """One canonical cheapest path as ``(cost, steps, nodes)``.

    ``steps`` is a tuple of ``(root_coords, r)``; ``nodes`` the visited
    weights from source to sink.  The path is walked greedily from the
    source: at each step the successors are tried in lexicographic order
    of their weight, and the first one whose exact distance to the sink,
    probed by an A* bounded by the budget left, equals that budget is
    taken.  So ties go to the lexicographically smallest successor
    weight and the witness is reproducible run to run.
    """
    rs._check_index(d)
    relaxed = bool(relaxed)
    m = _dijkstra_cached(rs.rst, parabolic, d, relaxed)
    _, ladder, estimate = _search_data(rs.rst, d, relaxed)
    cur = source_weight(rs, parabolic, d)
    v = _target_cached(rs.rst, parabolic, d).root_coords
    left = m
    nodes = [cur]
    steps = []
    while any(v):
        for r, child, v2 in sorted(ladder(cur, v), key=lambda e: e[1]):
            if _astar(child, v2, ladder, estimate, left - r) == left - r:
                break
        else:
            raise InternalInconsistencyError("witness walk lost the path")
        steps.append((tuple((a - b) // r for a, b in zip(v, v2)), r))
        cur, v, left = child, v2, left - r
        nodes.append(cur)
    return m, tuple(steps), tuple(nodes)


# ---------------------------------------------------------------------------
# integer-decomposition lower bound
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lattice_cached(rst: RootSystemType, parab: Parabolic, d: int, relaxed: bool) -> Optional[int]:
    rootcos, _, estimate = _search_data(rst, d, relaxed)

    # Shortest path in the lattice-point DAG: states are the nonnegative
    # residual vectors below the target, each edge subtracts one usable
    # root at unit cost.  Exact by exhaustion; no ladder constraint.
    def subtract(res, _):
        for rc in rootcos:
            res2 = tuple(map(sub, res, rc))
            yield 1, res2, res2

    T = _target_cached(rst, parab, d).root_coords
    return _astar(T, T, subtract, estimate)


def lattice_lower_bound(rs: RootSystem, parabolic: Parabolic, d: int,
                        relaxed: bool = False) -> Optional[int]:
    """Exact min of sum(n_j) over decompositions of the target, or None.

    This enumeration knows nothing about extremal-weight ladders and
    serves as the independent brute-force oracle; ``None`` means no
    decomposition exists at all (never expected for these targets).
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
    configurations, where every bound of this shape is too weak).
    """
    rs._check_index(d)
    tw = target_weight(rs, parabolic, d)
    alpha = distinguished_index(rs, parabolic, d)
    return None if alpha is None else tw.root_coords[alpha - 1]


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
    separately.
    """
    if cert.rst != rs.rst:
        raise RootSystemError(f"certificate is for {cert.rst}, root system is {rs.rst}")
    parab = cert.parabolic
    d = cert.d
    failures = []

    roots_ok = True
    outside = True
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
    total = [0] * rs.rank
    for c, n in cert.entries:
        total = [t + n * x for t, x in zip(total, c)]
    sum_matches = (tuple(total) == tw.root_coords
                   and all(len(c) == rs.rank for c, _ in cert.entries))
    if not sum_matches:
        failures.append(f"(a) sum {tuple(total)} != target {tw.root_coords}")

    orthogonal = True
    ladder_uniform = ladder_sequential = roots_ok
    if roots_ok:
        # Every entry is a positive root, so its coroot and fundamental
        # coordinates come from the root system's integer table.
        chi0 = source_weight(rs, parab, d)
        sink = tuple(-x for x in rs.fundamental_weight(d))
        ks = [rs._root_index[tuple(c)] for c, _ in cert.entries]
        for i, (bi, _) in enumerate(cert.entries):
            fi = rs._fund_coords[ks[i]]
            for (bj, _), kj in zip(cert.entries[i + 1:], ks[i + 1:]):
                if bi != bj and sum(map(mul, fi, rs._coroots[kj])) != 0:
                    orthogonal = False
                    failures.append(f"(b) {bi} and {bj} are not orthogonal")

        for (c, n), k in zip(cert.entries, ks):
            r = sum(map(mul, chi0, rs._coroots[k]))
            if r != n:
                ladder_uniform = False
                failures.append(f"(c) <chi0, {c}^vee> = {r} != {n}")

        chi = chi0
        for (c, n), k in zip(cert.entries, ks):
            r = sum(map(mul, chi, rs._coroots[k]))
            if r != n:
                ladder_sequential = False
                failures.append(f"sequential ladder stalls at {c}: pairing {r} != {n}")
                break
            chi = tuple(a - n * b for a, b in zip(chi, rs._fund_coords[k]))
        else:
            if chi != sink:
                ladder_sequential = False
                failures.append(f"sequential ladder ends at {chi}, not {sink}")
    # The source is target - omega_d, so the order-free ladder ends at the
    # sink exactly when the entries sum to the target: clause (a).
    ladder_uniform = ladder_uniform and sum_matches

    m = dijkstra_order(rs, parab, d)
    ca = coefficient_lower_bound(rs, parab, d)
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
    if lat is None:
        raise InternalInconsistencyError(f"{rs.rst} d={d}: target admits no decomposition")
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
