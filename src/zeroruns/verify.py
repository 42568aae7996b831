"""The verification suite: the paper's identities rechecked against enumeration.

Every check has the signature (check, max_n, cap): it records failures and
flags on `check` for lengths up to max_n, and passes cap to any oracle
enumeration it runs.  Flags mark printed claims that enumeration contradicts;
they are reported but do not fail the run.  run_checks yields each check once
it has run, with its status, flags and failures; the caller renders them.

Where the paper writes a count as a sum over F, the sum is kept here as a
reference (_run_avoiding_by_F, _zeros_by_F), and its check holds the public
value, the reference and the oracle equal.  P_total reads the pentagonal
list, and its reference is the Gaussian pass (_P_total_by_gaussian), which
shares no code with that list.
"""

from __future__ import annotations

import math
from typing import Callable

from . import compositions as comp
from . import matrices as mat
from . import oracle
from . import palindromic as pal
from . import runcount as rc
from . import sequences as seq

__all__ = ["Check", "run_checks"]


class Check:
    """The failures and flags one named check has recorded."""

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


def _cells(check: Check, name: str, count: Callable[[int, int, int], int],
           n: int, want: Callable[[int, int], int]) -> None:
    """Compare count(n, x, k) with the oracle's want(x, k) on 0 <= k <= x <= n."""
    for x in range(n + 1):
        for k in range(x + 1):
            got, expected = count(n, x, k), want(x, k)
            if got != expected:
                check.fail(f"{name}({n},{x},{k})={got} oracle={expected}")


def _lengths(max_n: int, cap: int | None, *kinds: bool) -> range:
    """The lengths 0..max_n that a check walks, once each has passed the
    oracle's cap for each of kinds (palindromic or not): a check past the
    cap then raises the EnumerationLimitError of its first length past it,
    as a walk up to that length would, and walks none."""
    for n in range(max_n + 1):
        for palindromic in kinds:
            oracle.check_cap(n, palindromic, cap)
    return range(max_n + 1)


def _verify_plain_oracle(check: Check, max_n: int, cap: int | None) -> None:
    for n in _lengths(max_n, cap, False):
        table = oracle.oracle_count(n, cap=cap)
        check.expect(table.total() == 2**n, f"n={n}: oracle total != 2^n")
        sweep = rc.support_set(n).pairs
        check.expect(table.pairs() == sweep, f"n={n}: support sweep != oracle support")
        _cells(check, "F", rc.F, n, table.count)
        for x in range(n + 1):
            check.expect(
                sum(table.count(x, k) for k in range(x + 1)) == rc.binomial(n, x),
                f"n={n}, x={x}: oracle row sum != C(n,x)",
            )


def _verify_plain_identities(check: Check, max_n: int, cap: int | None) -> None:
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


def _run_avoiding_by_F(r: int, n: int, zeros: bool) -> int:
    """T(r, n), or O(r, n) when zeros, as the paper's sum over F: a word has
    no r consecutive ones iff its complement's longest zero-run k is below r
    (k = 0 the all-ones word, F(n, 0, 0) = 1), and the word's zeros are the
    complement's ones, n - x.  x outer reads each row of F once."""
    return sum((n - x if zeros else 1) * rc.F(n, x, k)
               for x in range(n + 1) for k in range(min(r, x + 1)))


def _zeros_by_F(n: int, palindromic: bool) -> int:
    """Total zeros over the words (or palindromes) of length n, the sum of
    x F(n, x, k): the '+' signs over the compositions of n + 1, since the
    complement swaps each word's zeros and ones."""
    count = pal.F_hat if palindromic else rc.F
    return sum(x * count(n, x, k) for x in range(1, n + 1) for k in range(1, x + 1))


def _P_total_by_gaussian(n: int) -> int:
    """P_total(n), the number of partitions of n + 1, from one pass of
    compositions._gaussian.

    Summed over k, P(n, x, k) counts the partitions of x into at most
    n - x + 1 parts, or by conjugation the partitions of x with parts at most
    a = min(x, n + 1 - x) (Andrews, The Theory of Partitions, ch. 3).  With
    m = n + 1 and the caps n + 1 - a, no multiplication by 1 - q^(m+a) fires,
    so after step a the list holds the partitions into parts at most a:
    coefficient x at step a, about n^2/4 additions and no cache.
    """
    passes = comp._gaussian(n + 1, range(n + 1, n - (n + 1) // 2, -1)) if n >= 0 else ()
    # x = a and x = n + 1 - a read step a; a set counts the middle x of odd n once
    return sum(coeffs[x] for a, coeffs in enumerate(passes) for x in {a, n + 1 - a} if x <= n)


def _verify_runs(check: Check, max_n: int, cap: int | None) -> None:
    lengths = _lengths(max_n, cap, False)[1:]
    for r in range(2, 7):
        for n in lengths:
            t_rec = seq.T(r, n)
            t_idn = _run_avoiding_by_F(r, n, False)
            t_orc = oracle.oracle_T(r, n, cap=cap)
            check.expect(t_rec == t_idn == t_orc,
                         f"T({r},{n}): rec={t_rec} idn={t_idn} oracle={t_orc}")
            o_rec = seq.O(r, n)
            o_idn = _run_avoiding_by_F(r, n, True)
            o_orc = oracle.oracle_zero_total(r, n, cap=cap)
            check.expect(o_rec == o_idn == o_orc,
                         f"O({r},{n}): rec={o_rec} idn={o_idn} oracle={o_orc}")
    for n in range(1, min(max_n, 12) + 1):
        for (x, k), count in oracle.oracle_count(n, cap=cap).counts.items():
            check.expect(seq.ones_total(n, x, k) == (n - x) * count,
                         f"ones_total({n},{x},{k})")


def _verify_matrices(check: Check, max_n: int, cap: int | None) -> None:
    for n in range(1, max_n + 1):
        matrix = mat.build_matrix(n)
        check.expect(mat.grand_sum(matrix) == 2**n, f"grand sum F_{n}")
        check.expect(
            mat.row_sums(matrix) == tuple(rc.binomial(n, x) for x in range(n + 1)),
            f"Pascal row sums F_{n}",
        )
        check.expect(mat.trace(matrix) == 1 + n * (n + 1) // 2, f"trace F_{n}")
        check.expect(mat.determinant(matrix) == math.factorial(n), f"determinant F_{n}")
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


def _verify_palindromic_oracle(check: Check, max_n: int, cap: int | None) -> None:
    for n in _lengths(max_n, cap, True):
        table = oracle.oracle_count(n, palindromic=True, cap=cap)
        check.expect(table.total() == 2 ** ((n + 1) // 2),
                     f"n={n}: palindromic oracle total")
        check.expect(pal.support_hat_set(n).pairs == table.pairs(),
                     f"n={n}: palindromic support vs oracle")
        _cells(check, "F_hat", pal.F_hat, n, table.count)


def _verify_palindromic_identities(check: Check, max_n: int, cap: int | None) -> None:
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


def _verify_palindromic_support_formula(check: Check, max_n: int,
                                        cap: int | None) -> None:
    for n in range(2, max_n + 1):
        enumerated, formula = len(pal.support_hat_set(n)), pal.support_hat_size_formula(n)
        if enumerated != formula:
            check.flag(
                f"|S_hat_{n}|: printed formula {formula} != enumerated {enumerated}"
                " (enumerated value is authoritative)"
            )


def _verify_lemma_gap(check: Check, max_n: int, cap: int | None) -> None:
    accepted_empty: list[tuple[int, int, int]] = []
    for n in range(1, max_n + 1):
        support = pal.support_hat_set(n)
        for x in range(1, n + 1):
            for k in range(1, x + 1):
                holds = pal.lemma_positivity_hat(n, x, k)
                positive = (x, k) in support
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


def _verify_palindromic_matrices(check: Check, max_n: int, cap: int | None) -> None:
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


def _verify_column_sum_lists(check: Check, max_n: int, cap: int | None) -> None:
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


def _verify_compositions(check: Check, max_n: int, cap: int | None) -> None:
    for n in _lengths(max_n, cap, False, True):
        # A word of length n = m - 1 in class (x, k) maps to a composition
        # with largest summand k + 1 and n - x + 1 summands; when k <= 1,
        # each zero is a summand 2.
        m = n + 1
        for palindromic in (False, True):
            direct = [0] * m
            signs = summands = twos = 0
            for (x, k), c in oracle.oracle_count(n, palindromic, cap).counts.items():
                direct[k] += c
                signs += (n - x) * c
                summands += (n - x + 1) * c
                if palindromic and k <= 1:
                    twos += x * c
            dist = comp.compositions_by_largest_summand(m, palindromic)
            check.expect(tuple(direct) == dist,
                         f"largest-summand distribution m={m} pal={palindromic}")
            expected_total = 2 ** (m // 2) if palindromic else 2 ** (m - 1)
            check.expect(sum(dist) == expected_total,
                         f"distribution total m={m} pal={palindromic}")
            if m >= 2:
                signs_by_F = _zeros_by_F(n, palindromic)
                # a composition has one more summand than '+' signs
                summands_by_F = signs_by_F + expected_total
                got = comp.plus_signs_total(m, palindromic)
                check.expect(got == signs_by_F == signs,
                             f"plus signs m={m} pal={palindromic}:"
                             f" formula={got} fsum={signs_by_F} oracle={signs}")
                got = comp.summands_total(m, palindromic)
                check.expect(got == summands_by_F == summands,
                             f"summands m={m} pal={palindromic}:"
                             f" formula={got} fsum={summands_by_F} oracle={summands}")
        if m >= 2:  # twos as counted by the palindromic pass
            check.expect(comp.two_count_palindromic(m) == twos,
                         f"palindromic two-count at m={m}")


def _verify_partitions(check: Check, max_n: int, cap: int | None) -> None:
    for n in _lengths(max_n, cap, False, True):
        table = oracle.oracle_partition_table(n, cap=cap)
        _cells(check, "P", comp.P, n, lambda x, k: table.get((x, k), 0))
        hat_table = oracle.oracle_partition_table(n, palindromic=True, cap=cap)
        _cells(check, "P_hat", comp.P_hat, n, lambda x, k: hat_table.get((x, k), 0))
        total, by_gaussian, classes = comp.P_total(n), _P_total_by_gaussian(n), sum(table.values())
        check.expect(total == by_gaussian == classes,
                     f"P_total({n}): pentagonal={total} gaussian={by_gaussian} oracle={classes}")
        check.expect(comp.P_hat_total(n) == sum(hat_table.values()),
                     f"P_hat_total({n}) vs oracle class total")
        support_size = len(rc.support_set(n))
        if n <= 5:
            check.expect(support_size == total, f"|S_{n}| == P_total({n})")
        else:
            check.expect(support_size < total, f"|S_{n}| < P_total({n})")
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


def _verify_bijection(check: Check, max_n: int, cap: int | None) -> None:
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


def run_checks(max_n: int, suite: str = "all", cap: int | None = None):
    """Run the checks of one suite, or of all, yielding each Check as it ends.

    Raises ValueError before any check runs for an unknown suite, a max_n
    or cap that is not an int, max_n < 0 or cap < 0."""
    if suite not in ("all", *_SUITES):
        raise ValueError(f"unknown suite {suite!r}; expected 'all' or one of {tuple(_SUITES)}")
    rc.require_ints(max_n)
    if cap is not None:
        rc.require_ints(cap)
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    if cap is not None and cap < 0:
        raise ValueError(f"oracle cap must be >= 0, got {cap}")
    names = list(_SUITES) if suite == "all" else [suite]
    for suite_name in names:
        for check_name, func in _SUITES[suite_name]:
            check = Check(check_name)
            try:
                func(check, max_n, cap)
            except oracle.EnumerationLimitError as exc:
                check.fail(f"enumeration cap hit: {exc}")
            yield check
