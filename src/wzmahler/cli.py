"""Command line front end.

    wzmahler list
    wzmahler verify <id> [--bits N] [--tol T] [--format json|text]
    wzmahler all [--filter S] [--jobs N] [--bits N] [--format json|text]

Exit codes: 0 all pass, 1 at least one non-conjectural FAIL, UNRESOLVED
or ERROR, 2 usage error or unknown id (a --filter that matches no id,
--tol where every entry to run is exact, and --quiet with --format json
are usage errors).
"""

from __future__ import annotations

import argparse
import sys

from mpmath import isfinite, mpf

from .context import DEFAULT_CTX, DomainError, PrecisionCtx
from .registry import (KIND_CONJECTURAL, CheckReport, exit_code, lookup,
                       matching, registry_entries, reports_to_json, run_all,
                       run_check)


_DEFAULTS = {"bits": DEFAULT_CTX.bits, "tol": None,
             "max_terms": DEFAULT_CTX.max_terms, "jobs": None,
             "format": "text", "quiet": False}


def _add_common(parser):
    # flags are accepted both before and after the subcommand; every copy
    # defaults to SUPPRESS, so the parsed namespace holds the flags given
    parser.add_argument("--bits", type=int, default=argparse.SUPPRESS,
                        help="working mantissa precision (default "
                             f"{DEFAULT_CTX.bits}); the lattice sums and closed "
                             "forms follow it, the series sides keep their fixed "
                             "inner tolerances")
    parser.add_argument("--tol", type=str, default=argparse.SUPPRESS,
                        help="override the per-entry acceptance tolerance; changes "
                             "statuses only")
    parser.add_argument("--max-terms", type=int, default=argparse.SUPPRESS,
                        help=f"series term budget (default {DEFAULT_CTX.max_terms})")
    parser.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="parallel worker processes for 'all' (default 1)")
    parser.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    parser.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS,
                        help="suppress per-entry notes in text output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wzmahler",
        description="verify WZ certificates and Mahler-measure/dilogarithm identities")
    _add_common(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser("verify", help="run a single identity check")
    p_verify.add_argument("id")
    _add_common(p_verify)
    p_all = sub.add_parser("all", help="run every matching identity check")
    p_all.add_argument("--filter", default=None,
                       help="substring filter on identity ids")
    _add_common(p_all)
    p_list = sub.add_parser("list", help="list registry entries")
    _add_common(p_list)
    return parser


def _print_text(reports: list[CheckReport], quiet: bool):
    width = max((len(r.id) for r in reports), default=10) + 2
    status_width = max((len(r.status) for r in reports), default=0)
    for rep in reports:
        line = f"{rep.status:<{status_width}} {rep.id:<{width}}"
        if rep.abs_diff:
            line += f" |diff| = {rep.abs_diff}"
        line += f"  [{rep.elapsed_ms} ms, {rep.terms_used} terms]"
        print(line)
        if rep.notes and not quiet:
            print(f"{'':<{status_width + 1}}{rep.notes}")


def _usage_error(message: str) -> int:
    print(f"wzmahler: error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    given = [name for name in _DEFAULTS if name in vars(args)]
    if args.command == "list" and given:
        flag = "--" + given[0].replace("_", "-")
        return _usage_error(f"'list' takes no flags, got {flag}")
    args = argparse.Namespace(**{**_DEFAULTS, **vars(args)})

    if args.jobs is not None and args.command != "all":
        return _usage_error("--jobs applies only to 'all'")
    if args.jobs is not None and args.jobs < 1:
        return _usage_error("--jobs must be at least 1")
    if args.quiet and args.format == "json":
        return _usage_error("--quiet applies only to text output")

    if args.command == "list":
        for rec in registry_entries():
            flag = " (conjectural)" if rec.kind == KIND_CONJECTURAL else ""
            flag += " (exit-exempt)" if rec.exit_exempt else ""
            print(f"{rec.id:<22} {rec.kind:<20} {rec.description}{flag}")
        return 0

    tol = None
    if args.tol is not None:
        try:
            tol = mpf(args.tol)
        except ValueError:
            return _usage_error(f"--tol: not a number: {args.tol!r}")
        if not (tol > 0 and isfinite(tol)):
            return _usage_error("--tol must be positive and finite")
    try:
        ctx = PrecisionCtx(bits=args.bits, max_terms=args.max_terms)
    except DomainError as exc:
        return _usage_error(str(exc))

    if args.command == "verify":
        rec = lookup(args.id)
        if rec is None:
            print(f"unknown identity id: {args.id}", file=sys.stderr)
            return 2
        if tol is not None and rec.tol is None:
            return _usage_error(f"--tol does not apply to the exact check {args.id}")
        reports = [run_check(args.id, ctx, tol_override=tol)]
        code = exit_code(reports)
    else:
        records = matching(args.filter)
        if not records:
            return _usage_error(f"--filter {args.filter!r} matches no identity id")
        if tol is not None and all(rec.tol is None for rec in records):
            return _usage_error("--tol does not apply: every matched entry is "
                                "an exact check")
        reports, code = run_all(filter=args.filter, jobs=args.jobs or 1,
                                ctx=ctx, tol_override=tol)

    if args.format == "json":
        print(reports_to_json(reports))
    else:
        _print_text(reports, args.quiet)
    return code


if __name__ == "__main__":
    sys.exit(main())
