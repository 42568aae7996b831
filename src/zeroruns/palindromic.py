"""Exact counts of palindromic binary strings by zero count and longest zero-run.

A palindrome of odd length and even zero count has a central one between two
mirrored halves, so it counts as its half.  Any other palindrome but the
all-zero word reads A 1 0^c 1 reverse(A), with c = n (mod 2) and c <= k: a
central block of length k frees the half A to any run length up to k, and a
shorter one leaves the longest run k to A.  Every half of one row (n, x) has
the same ones, so the centres sum in closed form: G_k, the palindromes of one
row whose zero-runs are all at most k, is two dot products, and the cell of
longest run k is G_k - G_(k-1), as a plain cell is A_k - A_(k-1).  The rows
of the row store _F_hat_rows take every G_k from one pair of
runcount._binomials.  A lone cell, _F_hat_cell, reads a central one's cell
from runcount._F_cell and any other as its free centre plus corrections
stepped with runcount._bounded (see runcount._Rows for the choice between
row and cell).  runcount.SupportSet.ranges reads support_hat_set off the
same split, and so does compositions.P_hat.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul, sub

from .runcount import (SupportSet, _binomials, _bounded, _dot_side, _F_cell, _F_rows, _Rows,
                       binomial, feasible, not_ints, require_ints)

__all__ = [
    "F_hat",
    "F_hat_high_k",
    "lemma_positivity_hat",
    "support_hat_set",
    "support_hat_size_formula",
]


def F_hat(n: int, x: int, k: int) -> int:
    """Palindromic class count, total on all integer triples.

    The cell comes from the row store _F_hat_rows: a held row, or else a
    whole row where the half row (n // 2, x // 2) is on the dot side, or
    _F_hat_cell alone (see runcount._Rows).  Raises ValueError on non-int
    arguments.
    """
    if type(n) is not int or type(x) is not int or type(k) is not int:
        raise not_ints(n, x, k)
    row = _F_hat_rows.get((n, x))
    if row is not None and 0 <= k <= x:
        return row[k]
    return _F_hat_rows.route(n, x, k)


def _F_hat_cell(n: int, x: int, k: int) -> int:
    """F_hat(n, x, k) alone, with h, y and m as in _F_hat_row.  Odd n with
    even x is the plain cell of its half row, runcount._F_cell.  Otherwise
    G_k = dot(k, 0) - dot(k, d + 1), d = (k - n % 2) // 2, with
    dot(k, a) = sum_i (-1)^i C(m+1, i) C(h + 1 - a - i(k+1), m + 1) the
    words of length h + 1 - a with y - a zeros whose zero-runs are all at
    most k but the last, which is free: runcount._bounded(h + 1 - a, y - a,
    k, C(h + 1 - a, y - a), True).  In G_k - G_(k-1) the terms i = 0 leave,
    by Pascal's rule, C(h - d, y - d) where k = n (mod 2), the central
    block 0^k with its half free, and 0 otherwise; the terms i >= 1 are
    corrections(k), both dot products stepped with whole = 0.  Past k = y
    no correction has a term, and the centre alone is the cell.  At k = 1,
    G_1 telescopes to A_1(h, y) = C(m + 1, y), the y zeros in distinct gaps
    among m + 1: one binomial, where the corrections would step about y / 2
    terms.  So at k = 2, corrections(1) is that binomial less the terms
    i = 0 of G_1, C(h + 1, m + 1) - C(h, m + 1) = C(h, y), and only
    corrections(2) is stepped.  The arguments are not checked; an empty
    class gives 0.
    """
    if not feasible(n, x, k) or x % 2 > n % 2:  # odd x, even n: no palindrome
        return 0
    if x in (0, n):
        return 1
    if n % 2 and x % 2 == 0:
        return _F_cell(n // 2, x // 2, k) if feasible(n // 2, x // 2, k) else 0
    h, y = n // 2 - 1, (x - n % 2) // 2
    if k == 1:
        return math.comb(h - y + 1, y)

    def corrections(k: int) -> int:
        if k == 1:
            return math.comb(h - y + 1, y) - math.comb(h, y)
        a = (k - n % 2) // 2 + 1
        return _bounded(h + 1, y, k, 0, True) - _bounded(h + 1 - a, y - a, k, 0, True)

    d, odd = divmod(k - n % 2, 2)
    return corrections(k) - corrections(k - 1) + (0 if odd else math.comb(h - d, y - d))


def _F_hat_row(n: int, x: int) -> tuple[int, ...]:
    """F_hat(n, x, k) for 0 <= k <= x, with 0 <= x <= n: the centre split
    of the module docstring over the whole row at once, kept in the row
    store _F_hat_rows.  A row whose half row is on the dot side holds at
    most about 8 MB.  The arguments are not checked; F_hat and build_matrix
    check them.

    Odd n with even x has the halves of the plain row (n // 2, x // 2), and
    odd n - x admits no palindrome.  Otherwise each centre length
    c = n % 2 + 2d <= x has the half row (h - d, y - d), with (h, y) =
    (n // 2 - 1, (x - n % 2) // 2), and a palindrome has its zero-runs all at
    most k >= 1 iff c <= k and its half does: A_k(h - d, y - d) words.  Every
    half row has the same m = h - y ones, so with one pair signs, column =
    _binomials(h, y), A_k(h - d, y - d) = sum_i signs[i] column[d + i(k+1)].
    Summing over the centres first turns the column into its tails,
    tails[t] = sum_(u >= t) column[u] = C(h + 1 - t, m + 1).  With
    dot(k, a) = sum_i signs[i] tails[a + i(k+1)], where a slice past the end
    of tails reads as 0, the centres d <= (k - n % 2) // 2 give the
    palindromes of the row with runs at most k,
        G_k = dot(k, 0) - dot(k, (k - n % 2) // 2 + 1),
    two dot products of about (y + 1) / k terms, and each cell 1 <= k <= y
    is G_k - G_(k-1), as a plain cell is A_k - A_(k-1).  G_0 = 0: with
    x >= 1 every palindrome has a zero.  Past k = y no half row holds a run
    of k zeros, so only the centre c = k is left, its half words free, and
    the cell needs no dot product: it is column[d] = C(h - d, y - d), with
    d = (k - n % 2) // 2, when k = n (mod 2), and 0 otherwise, so those cells
    are one slice of the column, every other cell from k = y + 1.  The
    all-zero word x = n needs no case of its own: there m = -1, the column is
    0 but for column[y] = 1, and the same cells put its one palindrome at
    k = n.
    """
    if n % 2 and x % 2 == 0:
        return _F_rows[n // 2, x // 2] + (0,) * (x - x // 2)
    if (n - x) % 2:
        return (0,) * (x + 1)
    h, y = n // 2 - 1, (x - n % 2) // 2
    signs, column = _binomials(h, y)
    tails = list(accumulate(reversed(column)))[::-1]

    def dot(k: int, a: int) -> int:
        return sum(map(mul, signs, tails[a::k + 1]))

    high = [0] * (x - y)  # k = y + 1 + i, from column[d] where k = n (mod 2)
    high[(y + 1 - n) % 2::2] = column[(y + 2 - n % 2) // 2:]
    bounded = [0, *(dot(k, 0) - dot(k, (k - n % 2) // 2 + 1) for k in range(1, y + 1))]
    return (int(x == 0), *map(sub, bounded[1:], bounded), *high)


_F_hat_rows = _Rows(_F_hat_row, lambda n, x: _dot_side(n // 2, x // 2), _F_hat_cell)


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

    The inequality is plain feasibility, x + ceil(x/k) - 1 <= n.  The
    corrected criterion adds the parity term that the centre split (see the
    module docstring) reads off: runcount.SupportSet.ranges states it, as
    the ranges of k of each x of support_hat_set.
    """
    require_ints(n, x, k)
    if n < 1 or x < 1 or k < 1:
        raise ValueError("lemma_positivity_hat needs n, x, k >= 1")
    q = x // k
    return x + q - 1 <= n if x % k == 0 else x + q <= n


def support_hat_set(n: int) -> SupportSet:
    """The pairs 0 <= k <= x <= n whose palindromic class is non-empty,
    SupportSet(n, True): the ranges of k of each x are read off the
    corrected positivity criterion, which SupportSet.ranges states, on each
    use.  x = 0 has k = 0 alone, and n < 0 no pair."""
    return SupportSet(n, True)


def support_hat_size_formula(n: int) -> int:
    """The printed |S_hat_n| case formulas, evaluated exactly (n >= 2).

    These are claims under test: support_hat_set stays authoritative, and
    the verification suite compares its size with this value.
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

