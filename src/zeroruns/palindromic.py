"""Exact counts of palindromic binary strings by zero count and longest zero-run."""

from __future__ import annotations

from .runcount import F, SupportSet, _bounded, binomial, feasible, not_ints, require_ints

__all__ = [
    "F_hat",
    "F_hat_high_k",
    "lemma_positivity_hat",
    "support_hat_set",
    "support_hat_size_formula",
    "support_hat_report",
]


def F_hat(n: int, x: int, k: int) -> int:
    """Palindromic class count, total on all integer triples.

    A palindrome is determined by its half, and the dispatch mirrors that:
    an even length forces an even zero count; an odd length with even zero
    count has a central one and reduces to a plain half-length count; a
    longest block with 2k > x must sit alone at the centre (closed form);
    the remaining cases split on the leading zero block of the half word.
    Raises ValueError on non-int arguments.
    """
    if type(n) is not int or type(x) is not int or type(k) is not int:
        raise not_ints(n, x, k)
    if x == 0:
        return 1 if k == 0 and n >= 0 else 0
    if not feasible(n, x, k):
        return 0
    if x == n:
        return 1 if k == n else 0
    if n % 2 == 0 and x % 2 == 1:
        return 0
    if n % 2 == 1 and x % 2 == 0:
        # central bit is a one; halves carry x/2 zeros and the same runs
        return F((n - 1) // 2, x // 2, k)
    if 2 * k > x:
        # the unique longest block is centred: A 1 0^k 1 reverse(A)
        if k % 2 != n % 2:
            return 0
        return binomial((n - k - 2) // 2, (x - k) // 2)
    half = n // 2
    if (n + k) % 2 == 0:
        acc = sum(F(half - i - 1, x // 2 - i, k) for i in range((k - 2) // 2 + 1))
        # beside a central block 0^k the half may have any longest run j <= k:
        # sum_j F(h, y, j) is A_k(h, y), with 0 <= y <= h as 2k <= x <= n - 2
        h, y = (n - k) // 2 - 1, (x - k) // 2
        acc += _bounded(h, y, k)
        return acc
    return sum(F(half - i - 1, x // 2 - i, k) for i in range((k - 1) // 2 + 1))


def F_hat_high_k(n: int, x: int, k: int) -> int:
    """Closed form C((n-k-2)/2, (x-k)/2) on the window floor(x/2) < k <= x.

    Requires n >= 3 and 1 <= x <= n - 2; the value is 0 unless x, k and n all
    share one parity.  Outside this window the closed form does not apply and
    the triple is rejected.
    """
    require_ints(n, x, k)
    if not (n >= 3 and 1 <= x <= n - 2 and x // 2 < k <= x):
        raise ValueError(f"closed form window excludes (n={n}, x={x}, k={k})")
    if not (x % 2 == n % 2 == k % 2):
        return 0
    return binomial((n - k - 2) // 2, (x - k) // 2)


def lemma_positivity_hat(n: int, x: int, k: int) -> bool:
    """The printed palindromic positivity inequality, verbatim (no parity term).

    Kept as a testable claim rather than used inside F_hat: with q = floor(x/k)
    it requires x + q - 1 <= n when k | x and x + q <= n otherwise, which
    accepts e.g. (4, 1, 1) although no length-4 palindrome has a single zero.
    """
    require_ints(n, x, k)
    if n < 1 or x < 1 or k < 1:
        raise ValueError("lemma_positivity_hat needs n, x, k >= 1")
    q = x // k
    return x + q - 1 <= n if x % k == 0 else x + q <= n


def support_hat_set(n: int) -> SupportSet:
    """Built by testing F_hat > 0 over 0 <= k <= x <= n (positivity by value)."""
    require_ints(n)
    pairs: set[tuple[int, int]] = set()
    if n >= 0:
        pairs = {
            (x, k)
            for x in range(n + 1)
            for k in range(x + 1)
            if F_hat(n, x, k) > 0
        }
    return SupportSet(n, frozenset(pairs))


def support_hat_size_formula(n: int) -> int:
    """The printed |S_hat_n| case formulas, evaluated exactly (n >= 2).

    These are claims under test: support_hat_set stays authoritative, and
    support_hat_report exposes both values for comparison.
    """
    require_ints(n)
    if n < 2:
        raise ValueError("the printed size formulas start at n = 2")
    if n % 2 == 0:
        base = 1 + n * (n + 2) // 8 - sum(n // (2 * i + 1) for i in range(1, n // 2 + 1))
        return base + (n * n // 16 if n % 4 == 0 else (n * n - 4) // 16)
    tail = sum(n // (i + 1) for i in range(1, n - 1))
    if (n - 1) % 4 == 0:
        return 1 + 5 * (n + 3) * (n - 1) // 16 - tail
    return 1 + (n + 3) * (n - 1) // 4 - tail + (n + 1) ** 2 // 16


def support_hat_report(n: int) -> tuple[int, int]:
    """(enumerated |S_hat_n|, printed formula value) for diagnostics."""
    return len(support_hat_set(n)), support_hat_size_formula(n)
