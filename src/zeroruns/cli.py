"""Command-line front end: every operation as a reproducible, scriptable command.

Output formats: json (one canonical object per run, byte-stable), csv (one
flat table with a header row) and plain (minimal human-readable lines).
Counts are always printed in full decimal.  Exit status: 0 on success, 1 when
`verify` finds a failing check, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from . import compositions as comp
from . import matrices as mat
from . import oracle
from . import palindromic as pal
from . import runcount as rc
from . import sequences as seq

ENV_ORACLE_CAP = "ZERORUNS_ORACLE_CAP"

__all__ = ["main", "run_verify"]


# ---------------------------------------------------------------------------
# rendering

def _render_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _render_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines)


def _emit(args, record: dict, csv_table: tuple[list[str], list[list]], plain: list[str]) -> None:
    if args.format == "json":
        print(_render_json(record))
    elif args.format == "csv":
        print(_render_csv(*csv_table))
    else:
        for line in plain:
            print(line)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_count(args) -> int:
    if args.family == "F":
        value = rc.F(args.n, args.x, args.k)
    else:
        value = pal.F_hat(args.n, args.x, args.k)
    record = {
        "command": "count",
        "params": {"family": args.family, "n": args.n, "x": args.x, "k": args.k},
        "result": {"count": value},
        "provenance": "recurrence",
    }
    csv_table = (["family", "n", "x", "k", "count"],
                 [[args.family, args.n, args.x, args.k, value]])
    _emit(args, record, csv_table, [str(value)])
    return 0


def _cmd_table(args) -> int:
    if args.palindromic:
        pairs = sorted(pal.support_hat_set(args.n).pairs)
        entries = [[x, k, pal.F_hat(args.n, x, k)] for x, k in pairs]
    else:
        pairs = sorted(rc.support_set(args.n).pairs)
        entries = [[x, k, rc.F(args.n, x, k)] for x, k in pairs]
    record = {
        "command": "table",
        "params": {"n": args.n, "palindromic": args.palindromic},
        "result": {"entries": entries},
        "provenance": "recurrence",
    }
    csv_table = (["x", "k", "count"], entries)
    _emit(args, record, csv_table, [f"{x} {k} {c}" for x, k, c in entries])
    return 0


def _cmd_support(args) -> int:
    if args.palindromic:
        pairs = sorted(pal.support_hat_set(args.n).pairs)
        formula = pal.support_hat_size_formula(args.n) if args.n >= 2 else None
    else:
        pairs = sorted(rc.support_set(args.n).pairs)
        formula = rc.support_size_formula(args.n)
    if args.formula:
        result = {
            "enumerated": len(pairs),
            "formula": formula,
            "match": formula == len(pairs),
        }
        record = {
            "command": "support",
            "params": {"n": args.n, "palindromic": args.palindromic, "formula": True},
            "result": result,
            "provenance": "formula",
        }
        rows = [[key, result[key]] for key in ("enumerated", "formula", "match")]
        _emit(args, record, (["field", "value"], rows),
              [f"{key} {result[key]}" for key in ("enumerated", "formula", "match")])
        return 0
    record = {
        "command": "support",
        "params": {"n": args.n, "palindromic": args.palindromic, "formula": False},
        "result": {"pairs": [list(p) for p in pairs]},
        "provenance": "formula" if not args.palindromic else "recurrence",
    }
    _emit(args, record, (["x", "k"], [list(p) for p in pairs]),
          [f"{x} {k}" for x, k in pairs])
    return 0


def _cmd_matrix(args) -> int:
    kind = "palindromic" if args.palindromic else "plain"
    matrix = mat.build_matrix(args.n, kind)
    if args.props:
        props: dict = {
            "trace": mat.trace(matrix),
            "determinant": mat.determinant(matrix),
            "eigenvalues": list(mat.eigenvalues(matrix)),
            "nonzero": mat.nonzero_entries(matrix),
        }
        if args.palindromic:
            props["idempotent"] = mat.is_idempotent(matrix)
        record = {
            "command": "matrix",
            "params": {"n": args.n, "palindromic": args.palindromic, "props": True},
            "result": props,
            "provenance": "recurrence",
        }
        rows = []
        plain = []
        for key in sorted(props):
            value = props[key]
            if isinstance(value, list):
                rows.append([key, ";".join(str(v) for v in value)])
                plain.append(f"{key} {' '.join(str(v) for v in value)}")
            else:
                rows.append([key, value])
                plain.append(f"{key} {value}")
        _emit(args, record, (["property", "value"], rows), plain)
        return 0
    record = {
        "command": "matrix",
        "params": {"n": args.n, "palindromic": args.palindromic, "props": False},
        "result": {"rows": [list(r) for r in matrix.rows]},
        "provenance": "recurrence",
    }
    header = ["x"] + [str(k) for k in range(args.n + 1)]
    rows = [[x] + list(matrix.rows[x]) for x in range(args.n + 1)]
    plain = [" ".join(str(v) for v in row) for row in matrix.rows]
    _emit(args, record, (header, rows), plain)
    return 0


def _cmd_seq(args) -> int:
    spec = seq.SequenceSpec(
        name=args.name, start=getattr(args, "from"), count=args.count,
        r=args.r, k=args.k, x=args.x,
    )
    terms = seq.sequence(spec)
    record = {
        "command": "seq",
        "params": {
            "name": spec.name, "from": spec.start, "count": spec.count,
            "r": spec.r, "k": spec.k, "x": spec.x,
        },
        "result": {"terms": terms},
        "provenance": "recurrence",
    }
    rows = [[spec.start + i, term] for i, term in enumerate(terms)]
    _emit(args, record, (["n", "value"], rows), [" ".join(str(t) for t in terms)])
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
        record = {
            "command": "compositions",
            "params": {"m": args.m, "palindromic": args.palindromic, "stats": True},
            "result": result,
            "provenance": "formula",
        }
        keys = sorted(result)
        _emit(args, record, (["field", "value"], [[key, result[key]] for key in keys]),
              [f"{key} {result[key]}" for key in keys])
        return 0
    record = {
        "command": "compositions",
        "params": {"m": args.m, "palindromic": args.palindromic, "stats": False},
        "result": {"by_largest_summand": list(dist)},
        "provenance": "recurrence",
    }
    rows = [[s + 1, c] for s, c in enumerate(dist)]
    _emit(args, record, (["largest_summand", "count"], rows),
          [" ".join(str(c) for c in dist)])
    return 0


def _cmd_partitions(args) -> int:
    if (args.x is None) != (args.k is None):
        raise ValueError("partitions takes either both x and k or neither")
    if args.x is not None:
        value = (comp.P_hat if args.palindromic else comp.P)(args.n, args.x, args.k)
        record = {
            "command": "partitions",
            "params": {"n": args.n, "x": args.x, "k": args.k,
                       "palindromic": args.palindromic},
            "result": {"classes": value},
            "provenance": "recurrence",
        }
        _emit(args, record, (["n", "x", "k", "classes"],
                             [[args.n, args.x, args.k, value]]), [str(value)])
        return 0
    if args.palindromic:
        result = {"total": comp.P_hat_total(args.n)}
    else:
        result = {
            "total": comp.P_total(args.n),
            "partition_function": comp.partition_function(args.n + 1),
        }
    record = {
        "command": "partitions",
        "params": {"n": args.n, "palindromic": args.palindromic},
        "result": result,
        "provenance": "recurrence",
    }
    keys = sorted(result)
    _emit(args, record, (["field", "value"], [[key, result[key]] for key in keys]),
          [f"{key} {result[key]}" for key in keys])
    return 0


# ---------------------------------------------------------------------------
# verification suite

class _Check:
    def __init__(self, name: str):
        self.name = name
        self.failures: list[str] = []
        self.flags: list[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def flag(self, message: str) -> None:
        self.flags.append(message)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    @property
    def status(self) -> str:
        return "FAIL" if self.failures else ("FLAG" if self.flags else "ok")


def _verify_plain_oracle(check: _Check, max_n: int, cap: int | None) -> None:
    for n in range(max_n + 1):
        table = oracle.oracle_count(n, cap=cap)
        check.expect(table.total() == 2**n, f"n={n}: oracle total != 2^n")
        sweep = rc.support_set(n).pairs
        check.expect(table.pairs() == sweep, f"n={n}: support sweep != oracle support")
        for x in range(n + 1):
            for k in range(x + 1):
                want = table.count(x, k)
                got = rc.F(n, x, k)
                if got != want:
                    check.fail(f"F({n},{x},{k})={got} oracle={want}")
            check.expect(
                sum(table.count(x, k) for k in range(x + 1)) == rc.binomial(n, x),
                f"n={n}, x={x}: oracle row sum != C(n,x)",
            )


def _verify_plain_identities(check: _Check, max_n: int) -> None:
    for n in range(1, max_n + 1):
        total = sum(rc.F(n, x, k) for x in range(n + 1) for k in range(x + 1))
        check.expect(total == 2**n, f"n={n}: sum F != 2^n")
        for x in range(n + 1):
            check.expect(
                sum(rc.F(n, x, k) for k in range(x + 1)) == rc.binomial(n, x),
                f"n={n}, x={x}: row sum != C(n,x)",
            )
        check.expect(
            1 + sum(rc.F(n, x, 1) for x in range(1, n + 1)) == seq.fib_f(n),
            f"n={n}: Fibonacci column identity",
        )
        for x in range(1, n + 1):
            check.expect(rc.F(n, x, x) == rc.F_diagonal(n, x), f"diag({n},{x})")
            if x >= 3 and n >= 3:
                check.expect(
                    rc.F(n, x, x - 1) == rc.F_near_diagonal(n, x),
                    f"near-diag({n},{x})",
                )
            lo = rc.min_k(n, x)
            check.expect(
                rc.F(n, x, lo) > 0 and (lo == 1 or rc.F(n, x, lo - 1) == 0),
                f"min_k({n},{x})",
            )
            for k in range(1, x + 1):
                check.expect(
                    rc.support_contains(n, x, k) == (rc.F(n, x, k) > 0),
                    f"lemma bound vs positivity at ({n},{x},{k})",
                )
                if k <= x < 2 * k and x <= n - 1 and rc.support_contains(n, x, k):
                    check.expect(
                        rc.F_closed_high_k(n, x, k) == rc.F(n, x, k),
                        f"high-k closed form at ({n},{x},{k})",
                    )
                if x <= n - 1:
                    # the paper's recurrence, by the leading zero block
                    check.expect(
                        rc.F(n, x, k)
                        == sum(rc.F(n - i - 1, x - i, k) for i in range(k))
                        + sum(rc.F(n - k - 1, x - k, j) for j in range(k + 1)),
                        f"recurrence at ({n},{x},{k})",
                    )
        if n >= 2:
            check.expect(
                rc.F(n, 2, 1) == (n - 1) * (n - 2) // 2, f"triangular at n={n}"
            )
        check.expect(
            rc.F(n, 3, 1) == rc.binomial(n - 2, 3), f"tetrahedral at n={n}"
        )
        check.expect(
            len(rc.support_set(n)) == rc.support_size_formula(n),
            f"support size formula at n={n}",
        )


def _verify_runs(check: _Check, max_n: int, cap: int | None) -> None:
    oracle.check_cap(max_n, False, cap)
    for r in range(2, 7):
        for n in range(1, max_n + 1):
            t_rec = seq.T(r, n)
            t_idn = seq.T(r, n, "identity")
            t_orc = oracle.oracle_T(r, n, cap=cap)
            check.expect(t_rec == t_idn == t_orc,
                         f"T({r},{n}): rec={t_rec} idn={t_idn} oracle={t_orc}")
            o_rec = seq.O(r, n)
            o_idn = seq.O(r, n, "identity")
            o_orc = oracle.oracle_zero_total(r, n, cap=cap)
            check.expect(o_rec == o_idn == o_orc,
                         f"O({r},{n}): rec={o_rec} idn={o_idn} oracle={o_orc}")
    for n in range(1, min(max_n, 12) + 1):
        totals: dict[tuple[int, int], int] = {}
        for w in oracle.iter_words(n):
            key = oracle.classify(w)
            totals[key] = totals.get(key, 0) + w.count("1")
        for (x, k), ones in totals.items():
            check.expect(seq.ones_total(n, x, k) == ones,
                         f"ones_total({n},{x},{k})")


def _verify_matrices(check: _Check, max_n: int) -> None:
    for n in range(1, max_n + 1):
        matrix = mat.build_matrix(n)
        check.expect(mat.grand_sum(matrix) == 2**n, f"grand sum F_{n}")
        check.expect(
            mat.row_sums(matrix) == tuple(rc.binomial(n, x) for x in range(n + 1)),
            f"Pascal row sums F_{n}",
        )
        check.expect(mat.trace(matrix) == 1 + n * (n + 1) // 2, f"trace F_{n}")
        determinant = mat.determinant(matrix)
        factorial = 1
        for i in range(2, n + 1):
            factorial *= i
        check.expect(determinant == factorial, f"determinant F_{n}")
        check.expect(
            mat.eigenvalues(matrix) == tuple(sorted([1] + list(range(1, n + 1)))),
            f"eigenvalues F_{n}",
        )
        check.expect(
            mat.nonzero_entries(matrix) == rc.support_size_formula(n),
            f"nonzero entries F_{n}",
        )
        distribution = comp.compositions_by_largest_summand(n + 1)
        check.expect(
            tuple(distribution) == mat.col_sums(matrix),
            f"column sums vs composition distribution at n={n}",
        )


def _verify_palindromic_oracle(check: _Check, max_n: int, cap: int | None) -> None:
    for n in range(max_n + 1):
        table = oracle.oracle_count(n, palindromic=True, cap=cap)
        check.expect(table.total() == 2 ** ((n + 1) // 2),
                     f"n={n}: palindromic oracle total")
        check.expect(pal.support_hat_set(n).pairs == table.pairs(),
                     f"n={n}: palindromic support vs oracle")
        for x in range(n + 1):
            for k in range(x + 1):
                want = table.count(x, k)
                got = pal.F_hat(n, x, k)
                if got != want:
                    check.fail(f"F_hat({n},{x},{k})={got} oracle={want}")


def _verify_palindromic_identities(check: _Check, max_n: int) -> None:
    for n in range(1, max_n + 1):
        total = sum(pal.F_hat(n, x, k) for x in range(n + 1) for k in range(x + 1))
        check.expect(total == 2 ** ((n + 1) // 2), f"n={n}: sum F_hat")
        for x in range(n + 1):
            row = sum(pal.F_hat(n, x, k) for k in range(x + 1))
            want = 0 if (n % 2 == 0 and x % 2 == 1) else rc.binomial(n // 2, x // 2)
            check.expect(row == want, f"n={n}, x={x}: palindromic row sum")
        check.expect(pal.F_hat(n, 0, 0) == 1 and pal.F_hat(n, n, n) == 1,
                     f"n={n}: unit corners")
        if n % 2 == 0:
            check.expect(
                all(pal.F_hat(n, x, k) == 0
                    for x in range(1, n + 1, 2) for k in range(x + 1)),
                f"n={n}: odd zero count in even palindrome",
            )
    for n in range(1, (max_n + 1) // 2 + 1):
        odd = 1 + sum(pal.F_hat(2 * n - 1, x, 1) for x in range(1, 2 * n))
        check.expect(odd == seq.fib_f(n), f"odd-length Fibonacci identity at n={n}")
        if n >= 2:
            even = 1 + sum(pal.F_hat(2 * n, 2 * i, 1) for i in range(1, n + 1))
            check.expect(even == seq.fib_f(n - 1),
                         f"even-length Fibonacci identity at n={n}")


def _verify_palindromic_support_formula(check: _Check, max_n: int) -> None:
    for n in range(2, max_n + 1):
        enumerated, formula = pal.support_hat_report(n)
        if enumerated != formula:
            check.flag(
                f"|S_hat_{n}|: printed formula {formula} != enumerated {enumerated}"
                " (enumerated value is authoritative)"
            )


def _verify_lemma_gap(check: _Check, max_n: int) -> None:
    accepted_empty: list[tuple[int, int, int]] = []
    for n in range(1, max_n + 1):
        for x in range(1, n + 1):
            for k in range(1, x + 1):
                holds = pal.lemma_positivity_hat(n, x, k)
                positive = pal.F_hat(n, x, k) > 0
                if positive and not holds:
                    check.fail(f"lemma rejects nonempty class ({n},{x},{k})")
                if holds and not positive:
                    accepted_empty.append((n, x, k))
    if accepted_empty:
        sample = ", ".join(str(t) for t in accepted_empty[:5])
        check.flag(
            f"printed palindromic positivity lemma accepts {len(accepted_empty)}"
            f" empty classes up to n={max_n} (parity gap), e.g. {sample}"
        )


def _verify_palindromic_matrices(check: _Check, max_n: int) -> None:
    for n in range(1, max_n + 1):
        matrix = mat.build_matrix(n, "palindromic")
        check.expect(mat.grand_sum(matrix) == 2 ** ((n + 1) // 2),
                     f"grand sum F_hat_{n}")
        check.expect(mat.trace(matrix) == 1 + (n + 1) // 2, f"trace F_hat_{n}")
        if n >= 2:
            check.expect(mat.determinant(matrix) == 0, f"determinant F_hat_{n}")
        check.expect(set(mat.eigenvalues(matrix)) <= {0, 1},
                     f"eigenvalues F_hat_{n}")
        check.expect(mat.nonzero_entries(matrix) == len(pal.support_hat_set(n)),
                     f"nonzero entries F_hat_{n}")
        distribution = comp.compositions_by_largest_summand(n + 1, palindromic=True)
        check.expect(tuple(distribution) == mat.col_sums(matrix),
                     f"palindromic column sums vs distribution at n={n}")
    if max_n >= 5:
        check.expect(mat.is_idempotent(mat.build_matrix(4, "palindromic")),
                     "F_hat_4 idempotent")
        check.expect(not mat.is_idempotent(mat.build_matrix(5, "palindromic")),
                     "F_hat_5 not idempotent")


def _verify_column_sum_lists(check: _Check, max_n: int) -> None:
    printed_plain = (1, 2, 4, 7, 12, 20, 33, 54, 88)
    for n, want in enumerate(printed_plain[:max_n], start=1):
        check.expect(seq.column_sum(n, 1) == want, f"plain column-sum list at n={n}")
    printed_hat = (1, 1, 2, 2, 4, 4, 7, 7, 12, 12, 20, 20, 33, 33, 54, 54, 88, 88)
    for n, want in enumerate(printed_hat[:max_n], start=1):
        got = seq.palindromic_column_sum(n, 1)
        if got != want:
            check.flag(
                f"printed palindromic column-sum list says {want} at n={n},"
                f" enumeration gives {got}"
            )
        # the identity value is authoritative at every n
        fib = seq.fib_f((n + 1) // 2) if n % 2 else (
            seq.fib_f(n // 2 - 1) if n >= 4 else 1
        )
        check.expect(got == fib - 1, f"palindromic column sum vs identity at n={n}")


def _verify_compositions(check: _Check, max_n: int, cap: int | None) -> None:
    oracle.check_cap(max_n, False, cap)  # words of length m - 1 <= max_n
    for m in range(1, max_n + 2):
        for palindromic in (False, True):
            words = (oracle.iter_palindromes(m - 1) if palindromic
                     else oracle.iter_words(m - 1))
            direct = [0] * m
            signs = summands = 0
            for w in words:
                parts = oracle.string_to_composition(w)
                direct[max(parts) - 1] += 1
                signs += len(parts) - 1
                summands += len(parts)
            dist = comp.compositions_by_largest_summand(m, palindromic)
            check.expect(tuple(direct) == dist,
                         f"largest-summand distribution m={m} pal={palindromic}")
            expected_total = 2 ** (m // 2) if palindromic else 2 ** (m - 1)
            check.expect(sum(dist) == expected_total,
                         f"distribution total m={m} pal={palindromic}")
            if m >= 2:
                for method in ("formula", "fsum"):
                    check.expect(
                        comp.plus_signs_total(m, palindromic, method) == signs,
                        f"plus signs m={m} pal={palindromic} method={method}",
                    )
                    check.expect(
                        comp.summands_total(m, palindromic, method) == summands,
                        f"summands m={m} pal={palindromic} method={method}",
                    )
        if m >= 2:
            twos = 0
            for w in oracle.iter_palindromes(m - 1):
                parts = oracle.string_to_composition(w)
                if max(parts) <= 2:
                    twos += sum(1 for c in parts if c == 2)
            check.expect(comp.two_count_palindromic(m) == twos,
                         f"palindromic two-count at m={m}")


def _verify_partitions(check: _Check, max_n: int, cap: int | None) -> None:
    for n in range(max_n + 1):
        table = oracle.oracle_partition_table(n, cap=cap)
        for x in range(n + 1):
            for k in range(x + 1):
                want = table.get((x, k), 0)
                got = comp.P(n, x, k)
                if got != want:
                    check.fail(f"P({n},{x},{k})={got} oracle={want}")
        hat_table = oracle.oracle_partition_table(n, palindromic=True, cap=cap)
        for x in range(n + 1):
            for k in range(x + 1):
                want = hat_table.get((x, k), 0)
                got = comp.P_hat(n, x, k)
                if got != want:
                    check.fail(f"P_hat({n},{x},{k})={got} oracle={want}")
        check.expect(comp.P_total(n) == comp.partition_function(n + 1),
                     f"P_total({n}) vs pentagonal p({n + 1})")
        check.expect(comp.P_hat_total(n) == sum(hat_table.values()),
                     f"P_hat_total({n}) vs oracle class total")
        support_size = len(rc.support_set(n))
        if n <= 5:
            check.expect(support_size == comp.P_total(n),
                         f"|S_{n}| == P_total({n})")
        else:
            check.expect(support_size < comp.P_total(n),
                         f"|S_{n}| < P_total({n})")
    for n in range(2, max_n + 1):
        for x in range(4, n + 1):
            if pal.F_hat(n, x, 2) == 0:
                continue
            printed = comp.p_hat_two_printed(n, x)
            truth = comp.P_hat(n, x, 2)
            if printed != truth:
                check.flag(
                    f"printed palindromic k=2 rule gives {printed} at"
                    f" (n={n}, x={x}), enumeration gives {truth}"
                )


def _verify_bijection(check: _Check, max_n: int) -> None:
    for n in range(min(max_n, 12) + 1):
        for w in oracle.iter_words(n):
            parts = oracle.string_to_composition(w)
            check.expect(oracle.composition_to_string(parts) == w,
                         f"round trip at {w!r}")
            x, k = oracle.classify(w)
            check.expect(oracle.classify(w[::-1]) == (x, k),
                         f"reversal invariance at {w!r}")
            check.expect(sum(parts) == n + 1, f"total at {w!r}")
            check.expect(max(parts) == k + 1, f"largest summand at {w!r}")
            check.expect(len(parts) == (n - x) + 1, f"summand count at {w!r}")
            check.expect((w == w[::-1]) == (parts == parts[::-1]),
                         f"palindromicity at {w!r}")
        if check.failures:
            break


_SUITES: dict[str, list[tuple[str, Callable]]] = {
    "core": [
        ("plain-counts-vs-oracle", _verify_plain_oracle),
        ("plain-identities", _verify_plain_identities),
        ("run-avoiding-counts", _verify_runs),
        ("matrix-properties", _verify_matrices),
    ],
    "palindromic": [
        ("palindromic-counts-vs-oracle", _verify_palindromic_oracle),
        ("palindromic-identities", _verify_palindromic_identities),
        ("palindromic-support-formula", _verify_palindromic_support_formula),
        ("palindromic-positivity-lemma", _verify_lemma_gap),
        ("palindromic-matrix-properties", _verify_palindromic_matrices),
        ("column-sum-lists", _verify_column_sum_lists),
    ],
    "compositions": [
        ("composition-statistics", _verify_compositions),
        ("partition-classes", _verify_partitions),
        ("word-composition-bijection", _verify_bijection),
    ],
}


def run_verify(max_n: int, suite: str = "all", cap: int | None = None,
               out=None) -> int:
    """Run the oracle cross-checks; returns the number of failing checks."""
    out = out if out is not None else sys.stdout
    names = ["core", "palindromic", "compositions"] if suite == "all" else [suite]
    failures = 0
    for suite_name in names:
        for check_name, func in _SUITES[suite_name]:
            check = _Check(check_name)
            try:
                if func in (_verify_plain_oracle, _verify_runs,
                            _verify_palindromic_oracle, _verify_compositions,
                            _verify_partitions):
                    func(check, max_n, cap)
                else:
                    func(check, max_n)
            except oracle.EnumerationLimitError as exc:
                check.fail(f"enumeration cap hit: {exc}")
            print(f"{check.status} {check.name}", file=out)
            for message in check.flags:
                print(f"  flag: {message}", file=out)
            for message in check.failures[:20]:
                print(f"  fail: {message}", file=out)
            if check.failures:
                failures += 1
    return failures


def _cmd_verify(args) -> int:
    if args.format == "json":
        import io

        buffer = io.StringIO()
        failures = run_verify(args.max_n, args.suite, args.oracle_cap, out=buffer)
        record = {
            "command": "verify",
            "params": {"max_n": args.max_n, "suite": args.suite},
            "result": {
                "failures": failures,
                "report": buffer.getvalue().splitlines(),
            },
            "provenance": "oracle",
        }
        print(_render_json(record))
    else:
        failures = run_verify(args.max_n, args.suite, args.oracle_cap)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "plain"),
                        default="plain", help="output format")
    common.add_argument("--oracle-cap", type=int, default=None,
                        help=f"enumeration cap (overrides ${ENV_ORACLE_CAP})")

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

    p = sub.add_parser("table", parents=[common],
                       help="all nonzero counts for one length")
    p.add_argument("n", type=int)
    p.add_argument("--palindromic", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("support", parents=[common],
                       help="the pairs (x, k) with a nonzero count")
    p.add_argument("n", type=int)
    p.add_argument("--palindromic", action="store_true")
    p.add_argument("--formula", action="store_true",
                   help="compare the enumerated size against the closed formula")
    p.set_defaults(func=_cmd_support)

    p = sub.add_parser("matrix", parents=[common], help="the count matrix")
    p.add_argument("n", type=int)
    p.add_argument("--palindromic", action="store_true")
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

    p = sub.add_parser("compositions", parents=[common],
                       help="composition counts by largest summand")
    p.add_argument("m", type=int)
    p.add_argument("--palindromic", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="totals of compositions, '+' signs and summands")
    p.set_defaults(func=_cmd_compositions)

    p = sub.add_parser("partitions", parents=[common],
                       help="partition-class counts")
    p.add_argument("n", type=int)
    p.add_argument("x", type=int, nargs="?", default=None)
    p.add_argument("k", type=int, nargs="?", default=None)
    p.add_argument("--palindromic", action="store_true")
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser("verify", parents=[common],
                       help="run the brute-force cross-checks")
    p.add_argument("--max-n", type=int, default=10, dest="max_n")
    p.add_argument("--suite", choices=("all", "core", "palindromic", "compositions"),
                   default="all")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.oracle_cap is None:
        env = os.environ.get(ENV_ORACLE_CAP)
        if env is not None:
            try:
                args.oracle_cap = int(env)
            except ValueError:
                print(f"invalid {ENV_ORACLE_CAP}: {env!r}", file=sys.stderr)
                return 2
    try:
        return args.func(args)
    except (ValueError, oracle.EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in the library: one line, no traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
