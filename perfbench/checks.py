"""Reference values and per-operation checks for the benchmark.

Nothing here imports zeroruns.  Every expected value comes from a classical
identity (binomial sums, Euler's pentagonal recurrence, Fibonacci numbers),
a transfer matrix over words, or a small partition-counting program written
for the benchmark, so a wrong answer from the library cannot also be the
expected one.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

# ---------------------------------------------------------------------------
# reference values


def partition_numbers(m: int) -> list[int]:
    """p(0) .. p(m) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * max(m, 0)
    for i in range(1, m + 1):
        total, j = 0, 1
        while j * (3 * j - 1) // 2 <= i:
            sign = 1 if j % 2 else -1
            total += sign * p[i - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= i:
                total += sign * p[i - j * (3 * j + 1) // 2]
            j += 1
        p[i] = total
    return p


def partitions_at_most_parts(total: int, parts: int) -> int:
    """Partitions of total into at most `parts` parts (by conjugation: parts
    no larger than `parts`), counted with the coin-change recurrence."""
    if total < 0 or parts < 0:
        return 0
    ways = [1] + [0] * total
    for part in range(1, min(parts, total) + 1):
        for s in range(part, total + 1):
            ways[s] += ways[s - part]
    return ways[total]


def box_partitions(total: int, parts: int, largest: int) -> int:
    """Partitions of total into at most `parts` parts, each at most `largest`.

    dp[a][s] after step b counts partitions of s into at most a parts of size
    at most b: either no part equals b, or one part b is removed.
    """
    if total < 0 or parts < 0 or largest < 0:
        return 0
    dp = [[1] + [0] * total for _ in range(parts + 1)]
    for b in range(1, largest + 1):
        for a in range(1, parts + 1):
            row, fewer = dp[a], dp[a - 1]
            for s in range(b, total + 1):
                row[s] += fewer[s - b]
    return dp[parts][total]


def P_class(n: int, x: int, k: int) -> int:
    """Partitions of x with largest part exactly k and at most n - x + 1 parts:
    one part k, and x - k left for at most n - x parts of size at most k."""
    if not 0 <= k <= x <= n:
        return 0
    if k == 0:
        return 1 if x == 0 else 0
    return box_partitions(x - k, n - x, k)


@lru_cache(maxsize=None)
def partitions_one_odd_multiplicity(m: int) -> int:
    """Partitions of m in which at most one part size has odd multiplicity.

    counts[o][s]: partitions of s using the part sizes seen so far, o of
    which have odd multiplicity (o <= 1).
    """
    if m < 0:
        return 0
    counts = [[1] + [0] * m, [0] * (m + 1)]
    for v in range(1, m + 1):
        new = [[0] * (m + 1), [0] * (m + 1)]
        for odd in (0, 1):
            for s in range(m + 1):
                c = counts[odd][s]
                if not c:
                    continue
                for mult in range((m - s) // v + 1):
                    o = odd + mult % 2
                    if o <= 1:
                        new[o][s + mult * v] += c
        counts = new
    return counts[0][m] + counts[1][m]


def F_count(n: int, x: int, k: int) -> int:
    """Words of length n with x zeros and longest zero-run exactly k, by
    inclusion-exclusion over the m + 1 gaps around the m = n - x ones."""

    def at_most(run: int) -> int:
        if run < 0:
            return 0
        if run == 0:
            return 1 if x == 0 else 0
        m = n - x
        return sum(
            (-1) ** j * comb(m + 1, j) * comb(x - j * (run + 1) + m, m)
            for j in range(min(m + 1, x // (run + 1)) + 1)
        )

    if not 0 <= x <= n:
        return 0
    return at_most(k) - at_most(k - 1)


def run_interval(length: int, zeros: int) -> tuple[int, int]:
    """Least and greatest longest zero-run over words with `zeros` zeros in
    `length` letters: the zeros fill at most ones + 1 gaps (pigeonhole)."""
    if zeros == 0:
        return 0, 0
    return -(-zeros // (length - zeros + 1)), zeros


def plain_support_size(n: int) -> int:
    """Number of (x, k) classes of length-n words that are nonempty."""
    total = 0
    for x in range(n + 1):
        lo, hi = run_interval(n, x)
        total += hi - lo + 1
    return total


@lru_cache(maxsize=None)
def palindromic_support(n: int) -> frozenset[tuple[int, int]]:
    """Nonempty (x, k) classes of length-n palindromes.

    A palindrome is a half word H, an optional centre letter and H reversed.
    With a centre one, the runs are those of H.  Otherwise H = W 1 0^t (or
    H = 0^h) and the t trailing zeros meet their mirror image, and the centre
    zero if there is one, in one middle run of 2t (+ 1).
    """
    h, odd = divmod(n, 2)
    pairs: set[tuple[int, int]] = {(n, n)}
    if odd:
        for z in range(h + 1):
            lo, hi = run_interval(h, z)
            pairs.update((2 * z, k) for k in range(lo, hi + 1))
    for t in range(h):
        middle = 2 * t + odd
        for z in range(t, h):
            lo, hi = run_interval(h - t - 1, z - t)
            pairs.update((2 * z + odd, max(run, middle)) for run in range(lo, hi + 1))
    return frozenset(pairs)


def palindromic_row_sum(n: int, x: int) -> int:
    """Palindromes of length n with x zeros: choose the half's zeros."""
    if n % 2 == 0 and x % 2 == 1:
        return 0
    return comb(n // 2, x // 2)


def fibonacci(n: int) -> int:
    """Fib(n) with Fib(0) = 0, Fib(1) = 1, by fast doubling."""
    if n == 0:
        return 0
    a, b = 0, 1  # Fib(i), Fib(i + 1) for i = the bits of n read so far
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def run_avoiding(r: int, n: int) -> tuple[int, int]:
    """(words of length n with no r consecutive ones, total zeros over them).

    Transfer matrix on the number of trailing ones, with entries a + b*eps
    where eps marks a zero, raised to the n-th power by repeated squaring:
    the a parts count words and the b parts sum their zeros.
    """

    def mul(A, B):
        out = []
        for row in A:
            new_row = []
            for j in range(r):
                a = b = 0
                for m, (ra, rb) in enumerate(row):
                    ca, cb = B[m][j]
                    a += ra * ca
                    b += ra * cb + rb * ca
                new_row.append((a, b))
            out.append(new_row)
        return out

    step = [[(0, 0)] * r for _ in range(r)]
    for s in range(r):
        step[0][s] = (1, 1)  # append a zero
        if s + 1 < r:
            step[s + 1][s] = (1, 0)  # append a one
    power = [[(int(i == j), 0) for j in range(r)] for i in range(r)]
    while n:
        if n & 1:
            power = mul(power, step)
        step = mul(step, step)
        n >>= 1
    return sum(row[0][0] for row in power), sum(row[0][1] for row in power)


def column_sum(n: int, k: int) -> int:
    """Length-n words whose longest zero-run is exactly k: complementing,
    words with every zero-run <= k are those with no k + 1 consecutive ones."""
    at_most = run_avoiding(k + 1, n)[0]
    return at_most - (run_avoiding(k, n)[0] if k >= 1 else 0)


@lru_cache(maxsize=None)
def sequence_terms(name: str, start: int, count: int, r: int, k: int) -> tuple[int, ...]:
    ns = range(start, start + count)
    if name == "t-run":
        return tuple(fibonacci(n + 2) if r == 2 else run_avoiding(r, n)[0] for n in ns)
    if name == "o-run":
        return tuple(run_avoiding(r, n)[1] for n in ns)
    if name == "column-sum":
        return tuple(column_sum(n, k) for n in ns)
    raise ValueError(f"no reference for sequence {name!r}")


# ---------------------------------------------------------------------------
# per-operation checks: each returns True when the output is right


def check_row(family: str, n: int, x: int, values: list[int]) -> bool:
    """A `queries` row: values[k] for k = 0..x (values[j] = C(n, j) for
    binomial rows)."""
    if len(values) != x + 1:
        return False
    if family == "binomial":
        return all(v == comb(n, j) for j, v in enumerate(values))
    total = sum(values)
    if family == "F":
        return total == comb(n, x)
    if family == "F_hat":
        return total == palindromic_row_sum(n, x)
    if family == "P":
        return total == partitions_at_most_parts(x, n - x + 1)
    raise ValueError(f"unknown family {family!r}")


def check_table_op(op: list, result) -> bool:
    """A `tables` operation, given the library's return value."""
    kind, n = op[0], op[1]
    if kind == "build_matrix":
        return (result.n == n and len(result.rows) == n + 1
                and all(sum(row) == comb(n, x) for x, row in enumerate(result.rows))
                and sum(map(sum, result.rows)) == 2**n)
    if kind == "build_matrix_palindromic":
        return (result.n == n and len(result.rows) == n + 1
                and all(sum(row) == palindromic_row_sum(n, x)
                        for x, row in enumerate(result.rows))
                and sum(map(sum, result.rows)) == 2 ** ((n + 1) // 2))
    if kind == "support_hat_set":
        return result.pairs == palindromic_support(n)
    if kind == "P_total":
        return result == partition_numbers(n + 1)[n + 1]
    if kind == "P_hat_total":
        return result == partitions_one_odd_multiplicity(n + 1)
    if kind == "sequence":
        _, name, start, count, r, k = op
        return tuple(result) == sequence_terms(name, start, count, r, k)
    raise ValueError(f"unknown table operation {kind!r}")


_CLI_FLAGS = ("--palindromic", "--formula", "--props", "--stats")


def _split_argv(argv: list[str]) -> tuple[list[str], dict[str, str]]:
    """Positionals and `--option value` pairs of a benchmark command line."""
    positionals, options = [], {}
    tokens = iter(argv)
    for token in tokens:
        if token in _CLI_FLAGS:
            options[token] = ""
        elif token.startswith("--"):
            options[token] = next(tokens)
        else:
            positionals.append(token)
    return positionals, options


def check_cli(argv: list[str], record: dict) -> bool:
    """A `cli` command's parsed JSON record against the same identities."""
    (sub, *pos), opts = _split_argv(argv)
    result = record["result"]
    if sub == "count":
        n, x, k = map(int, pos[1:4])
        return result["count"] == F_count(n, x, k)
    if sub == "table":
        n = int(pos[0])
        entries = result["entries"]
        if "--palindromic" in opts:
            return ({(x, k) for x, k, _ in entries} == palindromic_support(n)
                    and all(sum(c for xx, _, c in entries if xx == x)
                            == palindromic_row_sum(n, x) for x in range(n + 1)))
        return (all(c == F_count(n, x, k) for x, k, c in entries)
                and sum(c for _, _, c in entries) == 2**n)
    if sub == "support":
        size = plain_support_size(int(pos[0]))
        return result["enumerated"] == size and result["formula"] == size and result["match"]
    if sub == "matrix":
        n = int(pos[0])
        return (result["trace"] == 1 + n * (n + 1) // 2
                and result["determinant"] == factorial(n)
                and result["eigenvalues"] == sorted([1] + list(range(1, n + 1)))
                and result["nonzero"] == plain_support_size(n))
    if sub == "seq":
        return result["terms"] == list(sequence_terms(
            pos[0], int(opts["--from"]), int(opts["--count"]),
            int(opts.get("--r", 2)), int(opts.get("--k", 1))))
    if sub == "compositions":
        m = int(pos[0])
        return (result["total"] == 2 ** (m - 1)
                and result["plus_signs"] == sum((j - 1) * comb(m - 1, j - 1) for j in range(1, m + 1))
                and result["summands"] == sum(j * comb(m - 1, j - 1) for j in range(1, m + 1)))
    if sub == "partitions":
        if len(pos) == 3:
            return result["classes"] == P_class(*map(int, pos))
        p = partition_numbers(int(pos[0]) + 1)[-1]
        return result["total"] == p and result["partition_function"] == p
    if sub == "verify":
        return result["failures"] == 0 and all(
            line.startswith(("ok ", "FLAG ", "  flag: ")) for line in result["report"])
    raise ValueError(f"unknown subcommand {sub!r}")
