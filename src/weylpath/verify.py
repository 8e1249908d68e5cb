"""Batch verification: vanishing profiles, the dimension identity, reports.

For a maximal parabolic P of a simple root system, :func:`verify`
computes every m_d by all available routes and checks the headline
identity

    sum_d m_d  ==  dim G/P  ==  |R+| - |R+_P|.

:func:`verify_suite` sweeps every cominuscule parabolic (alpha_p has
coefficient 1 in the highest root) except the odd quadric B_n/P1, where
the identity holds, and adds three factual side checks: the C_n node-1
profiles fall short of the dimension; the even/odd split of the two
spin orders in type D; and the entrywise match between odd and even
orthogonal spin profiles (B_n at node n against D_{n+1} at node n+1,
dropping the latter's next-to-last entry).

Note the two minuscule families deliberately absent from the identity
sweep, exactly the minuscule parabolics that are not cominuscule:
C_n at node 1 and B_n at node n.  For both, the canonical
section does not vanish maximally along P/B, so sum_d m_d < dim G/P;
the projective-space and even-orthogonal models of those spaces are
what carry the identity.

The reports :class:`VerificationReport` and :class:`SuiteReport` are
immutable named tuples, like the records of :mod:`weylpath.vanishing`:
beside their named fields they index, unpack, hash by value and compare
equal to a plain tuple of the same values.

:func:`report_to_json` and :func:`suite_to_json` write indent-2 JSON
through ``certificates._dumps``, one ``join`` per container.  Its output
is byte-identical to ``json.dumps(..., indent=2)``, whose pure-Python
encoder (up to Python 3.12 the C one takes no indent) cost about a tenth
of a cold ``verify-all``.  :func:`suite_to_json` writes each report once,
as :func:`report_to_json` does, and shifts its lines by the 4 spaces of
its depth in the suite document, instead of writing it again nested.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple

from .certificates import _catalog_covers, _dumps, best_certificate
from .rootsystem import _RANK_BOUNDS, Parabolic, RootSystem, RootSystemError, build
from .vanishing import (
    VanishingResult, _system, check_certificate, shortest_path, vanishing_result,
)
from .weylgroup import minuscule_indices


class VerificationReport(namedtuple("VerificationReport", [
    "family",
    "rank",
    "omitted",
    "minuscule",
    "rows",       # VanishingResult per d = 1..rank
    "sum_m",
    "dim_gp",
    "identity",
    "witnesses",  # None, or per d: tuple of (root_coords, r) steps
], defaults=(None,))):
    __slots__ = ()

    @property
    def m_profile(self) -> tuple:
        return tuple(r.m_dijkstra for r in self.rows)


def dim_quotient(rs: RootSystem, parabolic: Parabolic) -> int:
    """dim G/P = |R+| - |R+_P|, the positive roots with support off the Levi.

    Those are the roots with coefficient at least 1 at some omitted index:
    the bits of the OR of the step tables' ``atleast[j - 1][1]``.
    """
    rs._check_parabolic(parabolic)
    atleast = _system(rs.rst).atleast
    off_levi = 0
    for j in parabolic.omitted:
        off_levi |= atleast[j - 1][1]
    return off_levi.bit_count()


def list_minuscule(family, rank: int | None = None) -> list:
    """Fundamental indices whose weight pairs <= 1 with every positive coroot."""
    return minuscule_indices(build(family, rank))


def verify(family, rank: int | None = None, omitted: int | None = None, *,
           with_witnesses: bool = False) -> VerificationReport:
    """Full vanishing-order report for one (system, maximal parabolic).

    The report is assembled on every call from the cached oracles.  Each
    row's certificate is the catalog's or else the greedy ladder's
    (:func:`best_certificate`), so no witness is walked unless
    ``with_witnesses`` asks for one; each is then walked by
    :func:`shortest_path`, as every call walks it.  The certificate is
    checked only in the clauses that ``valid`` reads
    (``check_certificate(..., strict=False)``), since the report keeps
    only its cost.
    """
    rs = build(family, rank)
    if omitted is None:
        raise RootSystemError("an omitted simple index is required")
    rs._check_index(omitted)
    parab = Parabolic.maximal(rs.rank, omitted)
    rows = []
    witnesses = [] if with_witnesses else None
    for d in range(1, rs.rank + 1):
        cert = best_certificate(rs, parab, d)
        rep = check_certificate(rs, cert, strict=False)
        row = vanishing_result(rs, parab, d, certificate_cost=rep.cost if rep.valid else None)
        # A certificate that fails its check is a disagreement, not a missing route.
        rows.append(row if rep.valid else row._replace(agreed=False))
        if with_witnesses:
            witnesses.append(shortest_path(rs, parab, d)[1])
    sum_m = sum(r.m_dijkstra for r in rows)
    dim = dim_quotient(rs, parab)
    return VerificationReport(
        family=rs.rst.family,
        rank=rs.rank,
        omitted=omitted,
        minuscule=omitted in minuscule_indices(rs),
        rows=tuple(rows),
        sum_m=sum_m,
        dim_gp=dim,
        identity=sum_m == dim,
        witnesses=tuple(witnesses) if with_witnesses else None,
    )


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
        # Kept only for the pinned report bytes; the golden re-record of ROADMAP item 1 drops it.
        "rows": [dict(zip(VanishingResult._fields, r), m_dijkstra_relaxed=None)
                 for r in rep.rows],
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
    rows = tuple(VanishingResult(*(r[k] for k in VanishingResult._fields)) for r in data["rows"])
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
    return _dumps(report_to_dict(rep))


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

def _check_max_rank(max_rank) -> None:
    # type() rather than isinstance(): True must not pass as rank 1.
    if type(max_rank) is not int:
        raise RootSystemError(f"max rank {max_rank!r} must be a plain integer")


def tabulated_configurations(max_rank: int = 12):
    """Every (family, rank, p) of rank <= max_rank that the catalog covers.

    That is every cominuscule parabolic except the odd quadric B_n/P1,
    by family, then rank, then p.  A max rank that is not a plain int
    raises :class:`RootSystemError` when iteration starts.
    """
    _check_max_rank(max_rank)
    for fam, (lo, hi) in _RANK_BOUNDS.items():
        for rank in range(lo, min(max_rank, hi or max_rank) + 1):
            rs = build(fam, rank)
            yield from ((fam, rank, p) for p in range(1, rank + 1) if _catalog_covers(rs, p))


class SuiteReport(namedtuple("SuiteReport", [
    "max_rank",
    "reports",
    "identity_failures",
    "disagreements",
    "spin_cross_checks",  # (n, B profile, D profile, ok)
    "parity_checks",      # (n, m_{n-1}, m_n, ok)
    "negative_checks",    # (n, sum_m, dim, ok) for C_n at node 1
    "ok",
])):
    __slots__ = ()


def verify_suite(max_rank: int = 12) -> SuiteReport:
    """Sweep every cominuscule parabolic except the odd quadric B_n/P1,
    plus the factual side checks.

    ``reports`` holds one report per configuration: the tabulated ones,
    then B_n/P_n for n < max_rank, then C_n/P1.  The identity is checked
    over the tabulated reports, and agreement over every row of every report.
    """
    _check_max_rank(max_rank)
    if max_rank < 2:
        raise RootSystemError("max_rank must be at least 2")
    tabulated = list(tabulated_configurations(max_rank))
    configs = (tabulated + [("B", n, n) for n in range(2, max_rank)]
               + [("C", n, 1) for n in range(2, max_rank + 1)])
    reports = tuple(verify(fam, rank, omitted=p) for fam, rank, p in configs)
    # D_n/P_n is tabulated for every n >= 3, so a failed lookup means the
    # coverage changed: it raises rather than verifying anything again.
    by_config = dict(zip(configs, reports))

    spin = []
    for n in range(2, max_rank):
        mb, md = by_config["B", n, n].m_profile, by_config["D", n + 1, n + 1].m_profile
        spin.append((n, mb, md, mb[: n - 1] == md[: n - 1] and mb[n - 1] == md[n]))
    parity = []
    for n in range(4, max_rank + 1):
        # (m_{n-1}, m_n) is ((n-2)/2, n/2) for even n, ((n-1)/2, (n-1)/2) for odd n.
        a, b = by_config["D", n, n].m_profile[n - 2:]
        parity.append((n, a, b, (a, b) == ((n - 1) // 2, n // 2)))
    negative = []
    for n in range(2, max_rank + 1):
        rep = by_config["C", n, 1]
        negative.append((n, rep.sum_m, rep.dim_gp, rep.sum_m < rep.dim_gp))

    identity_failures = tuple((*config, rep.sum_m, rep.dim_gp)
                              for config, rep in zip(tabulated, reports) if not rep.identity)
    disagreements = tuple((*config, row.d) for config, rep in zip(configs, reports)
                          for row in rep.rows if not row.agreed)
    ok = (not identity_failures and not disagreements
          and all(x[-1] for x in spin + parity + negative))
    return SuiteReport(max_rank, reports, identity_failures, disagreements,
                       tuple(spin), tuple(parity), tuple(negative), ok)


def _suite_checks(suite: SuiteReport) -> dict:
    """Every key of :func:`suite_to_dict` but the last, ``reports``."""
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
    }


def suite_to_dict(suite: SuiteReport) -> dict:
    return {**_suite_checks(suite), "reports": [report_to_dict(r) for r in suite.reports]}


def suite_to_json(suite: SuiteReport) -> str:
    """``json.dumps(suite_to_dict(suite), indent=2)``, byte for byte.

    Each report is written once at top level, as :func:`report_to_json`
    writes it (not through it, so a traced run counts one serialize span
    per public call), and its lines shifted by the 4 spaces of its depth
    in the suite: JSON text holds no raw newline, so every one in it
    starts a line.
    """
    head = _dumps(_suite_checks(suite))[:-2]  # "{...", without "\n}"
    if not suite.reports:
        return head + ',\n  "reports": []\n}'
    reports = ",\n    ".join([_dumps(report_to_dict(r)).replace("\n", "\n    ")
                               for r in suite.reports])
    return f'{head},\n  "reports": [\n    {reports}\n  ]\n}}'


# The package's loaded modules at the last scan, and the caches found in them.
_scanned = ((), ())


def clear_caches() -> None:
    """Drop every memoized computation (used for cold-start timing).

    The package's modules are scanned for functools caches defined in
    them, so a cache added anywhere is cleared without being listed.  The
    caches found are kept; the scan runs again only when the set of the
    package's loaded modules has changed since the last one.
    """
    global _scanned
    package = __name__.rpartition(".")[0]
    modules = tuple((name, module) for name, module in list(sys.modules.items())
                    if name == package or name.startswith(package + "."))
    if modules != _scanned[0]:
        _scanned = modules, tuple(
            value for name, module in modules for value in vars(module).values()
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name)
    for cache in _scanned[1]:
        cache.cache_clear()


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
