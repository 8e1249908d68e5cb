"""Command-line front end.

Verbs map one-to-one onto the library surface:

* ``list-minuscule`` - the minuscule fundamental indices of a system
* ``verify``         - full vanishing report for one maximal parabolic
* ``verify-all``     - sweep every tabulated configuration, B_n/P_n and
                       C_n/P1 up to a rank
* ``tau``            - the parabolic longest element and its action on
                       the simple roots
* ``check-cert``     - validate a certificate file clause by clause

Every rank a verb takes (``--rank``, ``--max-rank``, a certificate
file's) is capped at ``MAX_CERTIFICATE_RANK``.  Reports go to stdout,
diagnostics to stderr.  ``--format json`` and ``--format markdown``
carry identical numeric content.
"""

from __future__ import annotations

import argparse
import json
import sys

from .certificates import MAX_CERTIFICATE_RANK, _dumps, load_certificate
from .rootsystem import Parabolic, RootSystemError, build
from .vanishing import InternalInconsistencyError, check_certificate
from .verify import (
    list_minuscule, report_to_json, report_to_markdown,
    suite_to_json, suite_to_markdown, verify, verify_suite,
)
from .weylgroup import apply_word_to_root, longest_element, tau_on_omitted_root


def _add_system_args(p, parabolic=False):
    p.add_argument("--family", required=True, help="A, B, C, D, E, F or G")
    p.add_argument("--rank", required=True, type=int)
    if parabolic:
        p.add_argument("--parabolic", required=True, type=int,
                       help="omitted simple index of the maximal parabolic")


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="weylpath",
        description="Exact vanishing-order verification over root systems",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("list-minuscule", help="minuscule fundamental indices")
    _add_system_args(p)
    p.add_argument("--format", choices=("json", "markdown"), default="markdown")

    p = sub.add_parser("verify", help="vanishing report for one parabolic")
    _add_system_args(p, parabolic=True)
    p.add_argument("--format", choices=("json", "markdown"), default="markdown")
    p.add_argument("--expect-minuscule", action="store_true",
                   help="exit nonzero unless the parabolic is minuscule and the identity holds")
    p.add_argument("--witnesses", action="store_true", help="include cheapest paths")

    p = sub.add_parser("verify-all", help="sweep all tabulated configurations, B_n/P_n and C_n/P1")
    p.add_argument("--max-rank", type=int, default=12)
    p.add_argument("--format", choices=("json", "markdown"), default="markdown")

    p = sub.add_parser("tau", help="parabolic longest element and its action")
    _add_system_args(p, parabolic=True)

    p = sub.add_parser("check-cert", help="validate a certificate file")
    p.add_argument("file")
    p.add_argument("--format", choices=("json", "markdown"), default="markdown")
    return ap


def _cmd_list_minuscule(args) -> int:
    idxs = list_minuscule(args.family, args.rank)
    if args.format == "json":
        print(json.dumps({"family": args.family.upper(), "rank": args.rank,
                          "minuscule": idxs}))
    else:
        label = f"{args.family.upper()}{args.rank}"
        if idxs:
            print(f"{label}: minuscule fundamental weights at {', '.join(map(str, idxs))}")
        else:
            print(f"{label}: no minuscule fundamental weights")
    return 0


def _cmd_verify(args) -> int:
    rep = verify(args.family, args.rank, omitted=args.parabolic, with_witnesses=args.witnesses)
    print(report_to_json(rep) if args.format == "json" else report_to_markdown(rep), end="")
    if args.expect_minuscule and not (rep.minuscule and rep.identity):
        print(f"expectation failed: minuscule={rep.minuscule} identity={rep.identity}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_verify_all(args) -> int:
    suite = verify_suite(args.max_rank)
    print(suite_to_json(suite) if args.format == "json" else suite_to_markdown(suite), end="")
    if not suite.ok:
        print("verification sweep found failures", file=sys.stderr)
        return 1
    return 0


def _cmd_tau(args) -> int:
    rs = build(args.family, args.rank)
    parab = Parabolic.maximal(rs.rank, args.parabolic)
    word = longest_element(rs, parab.retained)
    print(f"{rs.rst.label}, parabolic omitting node {args.parabolic}")
    print(f"tau word ({len(word)} letters): {' '.join(map(str, word))}")
    for j in sorted(parab.retained):
        img = apply_word_to_root(rs, word, rs.simple_root(j))
        print(f"tau(alpha_{j}) = {img}")
    img = tau_on_omitted_root(rs, parab)
    print(f"tau(alpha_{args.parabolic}) = {img}  (positive)")
    return 0


# The clauses of a certificate check, in the order both formats print them.
_CLAUSES = ("roots_ok", "outside_levi", "sum_matches", "orthogonal",
            "ladder_uniform", "ladder_sequential", "cost_matches")


def _cmd_check_cert(args) -> int:
    cert = load_certificate(args.file)
    rs = build(cert.rst)
    rep = check_certificate(rs, cert)
    if args.format == "json":
        payload = {
            "family": cert.rst.family,
            "rank": cert.rst.rank,
            "parabolic_omitted_index": cert.omitted,
            "d": cert.d,
            "cost": rep.cost,
            "dijkstra": rep.dijkstra,
            "c_alpha": rep.c_alpha,
            **{key: getattr(rep, key) for key in _CLAUSES},
            "valid": rep.valid,
            "strict": rep.strict,
            "failures": list(rep.failures),
        }
        print(_dumps(payload))
    else:
        print(f"certificate for {cert.rst.label}/P{cert.omitted}, d={cert.d}, "
              f"cost {rep.cost}")
        for key in _CLAUSES:
            print(f"  {key}: {'pass' if getattr(rep, key) else 'FAIL'}")
        print(f"  valid: {'yes' if rep.valid else 'NO'}"
              f"   strict (orthogonal form): {'yes' if rep.strict else 'no'}")
        for f in rep.failures:
            print(f"  ! {f}", file=sys.stderr)
    return 0 if rep.valid else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # A rank's root system holds rank*(rank+1)/2 roots or more, each of rank
    # entries: refuse a large one before anything is built.
    for flag, rank in (("--rank", getattr(args, "rank", None)),
                       ("--max-rank", getattr(args, "max_rank", None))):
        if rank is not None and rank > MAX_CERTIFICATE_RANK:
            print(f"error: {flag} {rank} exceeds the cap of {MAX_CERTIFICATE_RANK}",
                  file=sys.stderr)
            return 2
    handlers = {
        "list-minuscule": _cmd_list_minuscule,
        "verify": _cmd_verify,
        "verify-all": _cmd_verify_all,
        "tau": _cmd_tau,
        "check-cert": _cmd_check_cert,
    }
    try:
        return handlers[args.verb](args)
    except (RootSystemError, InternalInconsistencyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
