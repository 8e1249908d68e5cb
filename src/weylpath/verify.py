"""Batch verification: vanishing profiles, the dimension identity, reports.

For a maximal parabolic P of a simple root system, :func:`verify`
computes every m_d by all available routes and checks the headline
identity

    sum_d m_d  ==  dim G/P  ==  |R+| - |R+_P|.

:func:`verify_suite` sweeps every configuration covered by the
tabulated case analysis (type A everywhere, C at the last node, D at
nodes 1, n-1, n, E6 at 1 and 6, E7 at 7), where the identity provably
holds, and adds three factual side checks: the C_n node-1 profiles fall
short of the dimension; the even/odd split of the two spin orders in
type D; and the entrywise match between odd and even orthogonal spin
profiles (B_n at node n against D_{n+1} at node n+1, dropping the
latter's next-to-last entry).

Note the two minuscule families deliberately absent from the identity
sweep: C_n at node 1 and B_n at node n.  For both, the canonical
section does not vanish maximally along P/B, so sum_d m_d < dim G/P;
the projective-space and even-orthogonal models of those spaces are
what carry the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .certificates import best_certificate
from .rootsystem import Parabolic, RootSystem, RootSystemError, RootSystemType, build
from .vanishing import (
    VanishingResult, check_certificate, shortest_path, vanishing_result,
)
from .weylgroup import minuscule_indices


@dataclass(frozen=True)
class VerificationReport:
    family: str
    rank: int
    omitted: int
    minuscule: bool
    rows: tuple  # VanishingResult per d = 1..rank
    sum_m: int
    dim_gp: int
    identity: bool
    witnesses: Optional[tuple] = None  # per d: tuple of (root_coords, r) steps

    @property
    def m_profile(self) -> tuple:
        return tuple(r.m_dijkstra for r in self.rows)


def dim_quotient(rs: RootSystem, parabolic: Parabolic) -> int:
    """dim G/P = |R+| - |R+_P|, the positive roots with support off the Levi."""
    omitted = sorted(parabolic.omitted)
    levi = sum(
        1 for c in rs.positive_roots if all(c[j - 1] == 0 for j in omitted)
    )
    return rs.num_positive_roots - levi


def list_minuscule(family, rank: int | None = None) -> list:
    """Fundamental indices whose weight pairs <= 1 with every positive coroot."""
    return minuscule_indices(build(family, rank))


@lru_cache(maxsize=None)
def _verify_cached(rst: RootSystemType, omitted: int, relaxed: bool,
                   with_witnesses: bool) -> VerificationReport:
    rs = build(rst)
    parab = Parabolic.maximal(rs.rank, omitted)
    rows = []
    witnesses = [] if with_witnesses else None
    for d in range(1, rs.rank + 1):
        cert = best_certificate(rs, parab, d)
        rep = check_certificate(rs, cert)
        cost = rep.cost if rep.valid else None
        rows.append(vanishing_result(rs, parab, d, certificate_cost=cost,
                                     relaxed_extra=relaxed))
        if with_witnesses:
            _, steps, _ = shortest_path(rs, parab, d)
            witnesses.append(steps)
    sum_m = sum(r.m_dijkstra for r in rows)
    dim = dim_quotient(rs, parab)
    return VerificationReport(
        family=rst.family,
        rank=rst.rank,
        omitted=omitted,
        minuscule=omitted in minuscule_indices(rs),
        rows=tuple(rows),
        sum_m=sum_m,
        dim_gp=dim,
        identity=sum_m == dim,
        witnesses=tuple(witnesses) if with_witnesses else None,
    )


def verify(family, rank: int | None = None, omitted: int | None = None, *,
           relaxed_edges: bool = False, with_witnesses: bool = False) -> VerificationReport:
    """Full vanishing-order report for one (system, maximal parabolic)."""
    rs = build(family, rank)
    if omitted is None:
        raise RootSystemError("an omitted simple index is required")
    rs._check_index(omitted)
    return _verify_cached(rs.rst, int(omitted), bool(relaxed_edges), bool(with_witnesses))


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def report_to_dict(rep: VerificationReport) -> dict:
    return {
        "config": {
            "family": rep.family,
            "rank": rep.rank,
            "parabolic_omitted_index": rep.omitted,
        },
        "minuscule": rep.minuscule,
        "rows": [
            {
                "d": r.d,
                "m_dijkstra": r.m_dijkstra,
                "m_lattice_lb": r.m_lattice_lb,
                "c_alpha": r.c_alpha,
                "certificate_cost": r.certificate_cost,
                "agreed": r.agreed,
                "m_dijkstra_relaxed": r.m_dijkstra_relaxed,
            }
            for r in rep.rows
        ],
        "sum_m": rep.sum_m,
        "dim_gp": rep.dim_gp,
        "identity": rep.identity,
        "witnesses": None if rep.witnesses is None else [
            [{"root_coords": list(c), "r": r} for c, r in steps]
            for steps in rep.witnesses
        ],
    }


def report_from_dict(data: dict) -> VerificationReport:
    cfg = data["config"]
    rows = tuple(
        VanishingResult(
            d=r["d"],
            m_dijkstra=r["m_dijkstra"],
            m_lattice_lb=r["m_lattice_lb"],
            c_alpha=r["c_alpha"],
            certificate_cost=r["certificate_cost"],
            agreed=r["agreed"],
            m_dijkstra_relaxed=r.get("m_dijkstra_relaxed"),
        )
        for r in data["rows"]
    )
    wits = data.get("witnesses")
    return VerificationReport(
        family=cfg["family"],
        rank=cfg["rank"],
        omitted=cfg["parabolic_omitted_index"],
        minuscule=data["minuscule"],
        rows=rows,
        sum_m=data["sum_m"],
        dim_gp=data["dim_gp"],
        identity=data["identity"],
        witnesses=None if wits is None else tuple(
            tuple((tuple(step["root_coords"]), step["r"]) for step in steps)
            for steps in wits
        ),
    )


def report_to_json(rep: VerificationReport) -> str:
    return json.dumps(report_to_dict(rep), indent=2)


def report_from_json(text: str) -> VerificationReport:
    return report_from_dict(json.loads(text))


def report_to_markdown(rep: VerificationReport) -> str:
    head = f"## {rep.family}{rep.rank} / P{rep.omitted}"
    lines = [
        head,
        "",
        f"minuscule parabolic: {'yes' if rep.minuscule else 'no'}",
        "",
        "| d | m_d | lattice lb | c_alpha | certificate | agreed |",
        "|---|-----|------------|---------|-------------|--------|",
    ]
    for r in rep.rows:
        ca = "-" if r.c_alpha is None else r.c_alpha
        cc = "-" if r.certificate_cost is None else r.certificate_cost
        lines.append(
            f"| {r.d} | {r.m_dijkstra} | {r.m_lattice_lb} | {ca} | {cc} "
            f"| {'yes' if r.agreed else 'NO'} |"
        )
    lines += [
        "",
        f"sum m_d = {rep.sum_m}, dim G/P = {rep.dim_gp}, "
        f"identity: {'holds' if rep.identity else 'FAILS'}",
    ]
    if rep.witnesses is not None:
        lines.append("")
        lines.append("cheapest paths (root, step size):")
        for d, steps in enumerate(rep.witnesses, start=1):
            pretty = ", ".join(f"{c}x{r}" for c, r in steps) or "(empty)"
            lines.append(f"* d={d}: {pretty}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the full sweep
# ---------------------------------------------------------------------------

def tabulated_configurations(max_rank: int = 12):
    """Configurations the case analysis proves the identity for."""
    for r in range(1, max_rank + 1):
        for c in range(1, r + 1):
            yield ("A", r, c)
    for n in range(2, max_rank + 1):
        yield ("C", n, n)
    for n in range(3, max_rank + 1):
        yield ("D", n, 1)
        yield ("D", n, n - 1)
        yield ("D", n, n)
    if max_rank >= 6:
        yield ("E", 6, 1)
        yield ("E", 6, 6)
    if max_rank >= 7:
        yield ("E", 7, 7)


@dataclass(frozen=True)
class SuiteReport:
    max_rank: int
    reports: tuple
    identity_failures: tuple
    disagreements: tuple
    spin_cross_checks: tuple   # (n, B profile, D profile, ok)
    parity_checks: tuple       # (n, m_{n-1}, m_n, ok)
    negative_checks: tuple     # (n, sum_m, dim, ok) for C_n at node 1
    ok: bool


def verify_suite(max_rank: int = 12) -> SuiteReport:
    """Sweep every tabulated configuration plus the factual side checks."""
    if max_rank < 2:
        raise RootSystemError("max_rank must be at least 2")
    reports = []
    identity_failures = []
    disagreements = []
    for fam, rank, p in tabulated_configurations(max_rank):
        rep = verify(fam, rank, omitted=p)
        reports.append(rep)
        if not rep.identity:
            identity_failures.append((fam, rank, p, rep.sum_m, rep.dim_gp))
        for row in rep.rows:
            if not row.agreed:
                disagreements.append((fam, rank, p, row.d))

    spin = []
    for n in range(2, max_rank):
        repB = verify("B", n, omitted=n)
        repD = verify("D", n + 1, omitted=n + 1)
        reports.append(repB)
        mb, md = repB.m_profile, repD.m_profile
        ok = mb[: n - 1] == md[: n - 1] and mb[n - 1] == md[n]
        spin.append((n, mb, md, ok))
        for row in repB.rows:
            if not row.agreed:
                disagreements.append(("B", n, n, row.d))

    parity = []
    for n in range(4, max_rank + 1):
        rep = verify("D", n, omitted=n)
        m = rep.m_profile
        if n % 2 == 0:
            want = ((n - 2) // 2, n // 2)
        else:
            want = ((n - 1) // 2, (n - 1) // 2)
        ok = (m[n - 2], m[n - 1]) == want and m[n - 2] + m[n - 1] == n - 1
        parity.append((n, m[n - 2], m[n - 1], ok))

    negative = []
    for n in range(2, max_rank + 1):
        rep = verify("C", n, omitted=1)
        reports.append(rep)
        negative.append((n, rep.sum_m, rep.dim_gp, rep.sum_m < rep.dim_gp))

    ok = (not identity_failures and not disagreements
          and all(x[-1] for x in spin)
          and all(x[-1] for x in parity)
          and all(x[-1] for x in negative))
    return SuiteReport(
        max_rank=max_rank,
        reports=tuple(reports),
        identity_failures=tuple(identity_failures),
        disagreements=tuple(disagreements),
        spin_cross_checks=tuple(spin),
        parity_checks=tuple(parity),
        negative_checks=tuple(negative),
        ok=ok,
    )


def suite_to_dict(suite: SuiteReport) -> dict:
    return {
        "max_rank": suite.max_rank,
        "ok": suite.ok,
        "identity_failures": [list(x) for x in suite.identity_failures],
        "disagreements": [list(x) for x in suite.disagreements],
        "spin_cross_checks": [
            {"n": n, "b_profile": list(mb), "d_profile": list(md), "ok": ok}
            for n, mb, md, ok in suite.spin_cross_checks
        ],
        "parity_checks": [
            {"n": n, "m_second_spin": a, "m_last_spin": b, "ok": ok}
            for n, a, b, ok in suite.parity_checks
        ],
        "negative_checks": [
            {"n": n, "sum_m": s, "dim_gp": dim, "ok": ok}
            for n, s, dim, ok in suite.negative_checks
        ],
        "reports": [report_to_dict(r) for r in suite.reports],
    }


def suite_to_json(suite: SuiteReport) -> str:
    return json.dumps(suite_to_dict(suite), indent=2)


def clear_caches() -> None:
    """Drop every memoized computation (used for cold-start timing)."""
    from . import rootsystem as _rootsystem
    from . import vanishing as _vanishing
    _rootsystem._build_cached.cache_clear()
    _vanishing._target_cached.cache_clear()
    _vanishing._search_data.cache_clear()
    _vanishing._dijkstra_cached.cache_clear()
    _vanishing._lattice_cached.cache_clear()
    _verify_cached.cache_clear()


def suite_to_markdown(suite: SuiteReport) -> str:
    lines = [f"# Verification sweep, ranks <= {suite.max_rank}", ""]
    lines.append("| config | minuscule | m profile | sum | dim | identity |")
    lines.append("|--------|-----------|-----------|-----|-----|----------|")
    for rep in suite.reports:
        prof = ",".join(str(m) for m in rep.m_profile)
        lines.append(
            f"| {rep.family}{rep.rank}/P{rep.omitted} | {'yes' if rep.minuscule else 'no'} "
            f"| {prof} | {rep.sum_m} | {rep.dim_gp} "
            f"| {'holds' if rep.identity else 'short'} |"
        )
    lines.append("")
    lines.append("spin cross checks (B_n node n vs D_{n+1} node n+1):")
    for n, mb, md, ok in suite.spin_cross_checks:
        lines.append(f"* n={n}: B={list(mb)} D={list(md)} {'ok' if ok else 'MISMATCH'}")
    lines.append("")
    lines.append("type D spin parity splits:")
    for n, a, b, ok in suite.parity_checks:
        lines.append(f"* n={n}: (m_{{n-1}}, m_n) = ({a}, {b}) {'ok' if ok else 'WRONG'}")
    lines.append("")
    lines.append("type C node-1 shortfalls (expected):")
    for n, s, dim, ok in suite.negative_checks:
        lines.append(f"* n={n}: sum {s} < dim {dim} {'ok' if ok else 'VIOLATED'}")
    lines.append("")
    lines.append(f"overall: {'ok' if suite.ok else 'FAILURES PRESENT'}")
    return "\n".join(lines) + "\n"
