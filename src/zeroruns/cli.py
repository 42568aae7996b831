"""Command-line front end: every operation as a reproducible, scriptable command.

Output formats: json (one canonical object per run, byte-stable), csv (one
flat table with a header row) and plain (minimal human-readable lines).
Counts are always printed in full decimal, whatever their size.  Exit
status: 0 on success, 1 when `verify` finds a failing check, 2 on usage
errors, 3 on an internal error, 141 (128 + SIGPIPE) when stdout is closed
early, as by `| head`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import compositions as comp
from . import matrices as mat
from . import oracle
from . import palindromic as pal
from . import runcount as rc
from . import sequences as seq

__all__ = ["main"]

# parsed arguments that select how a command runs rather than what it computes
_NOT_PARAMS = ("subcommand", "func", "format", "oracle_cap")


# ---------------------------------------------------------------------------
# rendering

def _emit(args, result: dict, provenance: str, header: list[str], rows: list[list],
          plain: list[str]) -> None:
    """Print one command's result as a json record, a csv table or plain lines.

    The json record's params are the parsed arguments, without the ones in
    _NOT_PARAMS and without optional arguments left unset.
    """
    if args.format == "json":
        params = {key: value for key, value in vars(args).items()
                  if key not in _NOT_PARAMS and value is not None}
        record = {"command": args.subcommand, "params": params,
                  "result": result, "provenance": provenance}
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    elif args.format == "csv":
        print("\n".join(",".join(str(v) for v in row) for row in [header, *rows]))
    else:
        for line in plain:
            print(line)


def _emit_fields(args, result: dict, provenance: str, label: str = "field") -> None:
    """_emit for a key/value result: one row per key in sorted order, list
    values joined by ';' in csv and by a space in plain text."""
    def joined(value, sep: str):
        return sep.join(str(v) for v in value) if isinstance(value, list) else value

    keys = sorted(result)
    _emit(args, result, provenance, [label, "value"],
          [[key, joined(result[key], ";")] for key in keys],
          [f"{key} {joined(result[key], ' ')}" for key in keys])


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_count(args) -> int:
    value = (rc.F if args.family == "F" else pal.F_hat)(args.n, args.x, args.k)
    _emit(args, {"count": value}, "recurrence", ["family", "n", "x", "k", "count"],
          [[args.family, args.n, args.x, args.k, value]], [str(value)])
    return 0


def _cmd_table(args) -> int:
    if args.palindromic:
        support, count = pal.support_hat_set(args.n), pal.F_hat
    else:
        support, count = rc.support_set(args.n), rc.F
    entries = [[x, k, count(args.n, x, k)] for x, k in support]
    _emit(args, {"entries": entries}, "recurrence", ["x", "k", "count"], entries,
          [f"{x} {k} {c}" for x, k, c in entries])
    return 0


def _cmd_support(args) -> int:
    if args.palindromic:
        support = pal.support_hat_set(args.n)
        formula = pal.support_hat_size_formula(args.n) if args.n >= 2 else None
    else:
        support = rc.support_set(args.n)
        formula = rc.support_size_formula(args.n)
    if args.formula:
        size = len(support)
        _emit_fields(args, {"enumerated": size, "formula": formula,
                            "match": formula == size}, "formula")
        return 0
    rows = [[x, k] for x, k in support]
    _emit(args, {"pairs": rows}, "recurrence" if args.palindromic else "formula",
          ["x", "k"], rows, [f"{x} {k}" for x, k in rows])
    return 0


def _cmd_matrix(args) -> int:
    matrix = mat.build_matrix(args.n, "palindromic" if args.palindromic else "plain")
    if args.props:
        props: dict = {
            "trace": mat.trace(matrix),
            "determinant": mat.determinant(matrix),
            "eigenvalues": list(mat.eigenvalues(matrix)),
            "nonzero": mat.nonzero_entries(matrix),
        }
        if args.palindromic:
            props["idempotent"] = mat.is_idempotent(matrix)
        _emit_fields(args, props, "recurrence", label="property")
        return 0
    _emit(args, {"rows": [list(r) for r in matrix.rows]}, "recurrence",
          ["x"] + [str(k) for k in range(args.n + 1)],
          [[x] + list(row) for x, row in enumerate(matrix.rows)],
          [" ".join(str(v) for v in row) for row in matrix.rows])
    return 0


def _cmd_seq(args) -> int:
    start = getattr(args, "from")
    terms = seq.sequence(seq.SequenceSpec(name=args.name, start=start, count=args.count,
                                          r=args.r, k=args.k, x=args.x))
    _emit(args, {"terms": terms}, "recurrence", ["n", "value"],
          [[start + i, term] for i, term in enumerate(terms)],
          [" ".join(str(t) for t in terms)])
    return 0


def _cmd_compositions(args) -> int:
    dist = comp.compositions_by_largest_summand(args.m, args.palindromic)
    if args.stats:
        result = {
            "total": sum(dist),
            "plus_signs": comp.plus_signs_total(args.m, args.palindromic),
            "summands": comp.summands_total(args.m, args.palindromic),
        }
        if args.palindromic:
            result["twos"] = comp.two_count_palindromic(args.m)
        _emit_fields(args, result, "formula")
        return 0
    _emit(args, {"by_largest_summand": list(dist)}, "recurrence",
          ["largest_summand", "count"], [[s + 1, c] for s, c in enumerate(dist)],
          [" ".join(str(c) for c in dist)])
    return 0


def _cmd_partitions(args) -> int:
    if (args.x is None) != (args.k is None):
        raise ValueError("partitions takes either both x and k or neither")
    if args.x is not None:
        value = (comp.P_hat if args.palindromic else comp.P)(args.n, args.x, args.k)
        _emit(args, {"classes": value}, "recurrence", ["n", "x", "k", "classes"],
              [[args.n, args.x, args.k, value]], [str(value)])
        return 0
    if args.palindromic:
        result = {"total": comp.P_hat_total(args.n)}
    else:
        p = comp.partition_function(args.n + 1)  # = P_total(n) but at n = -1
        result = {"total": p if args.n >= 0 else 0, "partition_function": p}
    _emit_fields(args, result, "recurrence")
    return 0


def _cmd_verify(args) -> int:
    # imported here: verify is the one subcommand that needs it, and every
    # other command would pay for compiling the module at start-up
    from .verify import run_checks

    failures, report, rows = 0, [], []
    for check in run_checks(args.max_n, args.suite, args.oracle_cap):
        lines = [f"{check.status} {check.name}",
                 *(f"  flag: {message}" for message in check.flags),
                 *(f"  fail: {message}" for message in check.failures[:20])]
        if args.format == "plain":  # stream: a long suite shows each check as it ends
            print("\n".join(lines))
        failures += bool(check.failures)
        report += lines
        rows.append([check.name, check.status, len(check.flags), len(check.failures)])
    # plain printed its lines above, so it passes none here
    _emit(args, {"failures": failures, "report": report}, "oracle",
          ["check", "status", "flags", "failures"], rows, [])
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "plain"),
                        default="plain", help="output format")
    palindromic = argparse.ArgumentParser(add_help=False)
    palindromic.add_argument("--palindromic", action="store_true")

    parser = argparse.ArgumentParser(
        prog="zeroruns",
        description="Exact counts of binary strings by zero count and longest zero-run.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count", parents=[common],
                       help="one class count F or F-hat")
    p.add_argument("family", choices=("F", "Fhat"))
    p.add_argument("n", type=int)
    p.add_argument("x", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("table", parents=[common, palindromic],
                       help="all nonzero counts for one length")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("support", parents=[common, palindromic],
                       help="the pairs (x, k) with a nonzero count")
    p.add_argument("n", type=int)
    p.add_argument("--formula", action="store_true",
                   help="compare the enumerated size against the closed formula")
    p.set_defaults(func=_cmd_support)

    p = sub.add_parser("matrix", parents=[common, palindromic], help="the count matrix")
    p.add_argument("n", type=int)
    p.add_argument("--props", action="store_true",
                   help="trace, determinant, eigenvalues, idempotence")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("seq", parents=[common], help="a catalogued sequence")
    p.add_argument("name", choices=seq.SEQUENCE_NAMES)
    p.add_argument("--r", type=int, default=2, help="run bound for t-run / o-run")
    p.add_argument("--k", type=int, default=1, help="column index for column sums")
    p.add_argument("--x", type=int, default=3, help="zero count for the oblong slice")
    p.add_argument("--from", type=int, required=True, help="first index")
    p.add_argument("--count", type=int, required=True, help="number of terms")
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("compositions", parents=[common, palindromic],
                       help="composition counts by largest summand")
    p.add_argument("m", type=int)
    p.add_argument("--stats", action="store_true",
                   help="totals of compositions, '+' signs and summands")
    p.set_defaults(func=_cmd_compositions)

    p = sub.add_parser("partitions", parents=[common, palindromic],
                       help="partition-class counts")
    p.add_argument("n", type=int)
    p.add_argument("x", type=int, nargs="?", default=None)
    p.add_argument("k", type=int, nargs="?", default=None)
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser("verify", parents=[common],
                       help="run the brute-force cross-checks")
    p.add_argument("--max-n", type=int, default=10, dest="max_n")
    p.add_argument("--oracle-cap", type=int, default=None,
                   help="enumeration cap")
    p.add_argument("--suite", choices=("all", "core", "palindromic", "compositions"),
                   default="all")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # counts print in full: lift Python's 4300-digit int-to-str limit (3.10.7
    # and later) for this call, and hand in-process callers theirs back
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader left: send what is still buffered to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, oracle.EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in the library: one line, no traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
