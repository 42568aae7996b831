"""Composition and partition statistics induced by the word bijection.

A composition of m corresponds to a word of length m - 1 (see
oracle.string_to_composition), under which the largest summand is the longest
zero-run plus one and two words represent the same partition of m exactly
when their zero-run multisets coincide.  P(n, x, k) below counts those
multiset classes inside one (n, x, k) word class.  For x <= _ROW_SIDE a cell
is read from its whole row, _P_row, one Gaussian sweep over k that the cells
of one row share; past it, and for P_hat and P_total, the cell kernel
_bounded_partitions computes one Gaussian coefficient.
"""

from __future__ import annotations

from functools import lru_cache

from .palindromic import F_hat, _F_hat_cell, _halves
from .runcount import F, feasible, not_ints, require_ints
from .sequences import _bounded_run_terms, _palindromic_bounded_run_terms

__all__ = [
    "compositions_by_largest_summand",
    "plus_signs_total",
    "summands_total",
    "two_count_palindromic",
    "P",
    "P_total",
    "partition_function",
    "P_hat",
    "P_hat_total",
    "p_hat_two_printed",
]

_METHODS = ("formula", "fsum")


def compositions_by_largest_summand(m: int, palindromic: bool = False) -> tuple[int, ...]:
    """counts[s-1] = number of (palindromic) compositions of m with largest
    summand exactly s, i.e. column sum s - 1 of the order-(m-1) count matrix:
    B_(s-1)(m-1) - B_(s-2)(m-1), the words (or palindromes) whose zero-runs
    are all at most s - 1 less those at most s - 2.  Each B_k is taken once;
    B_(-1) is 0, so column 0 is B_0, the all-ones word."""
    require_ints(m)
    if m < 1:
        raise ValueError("compositions are defined for m >= 1")
    bounded = _palindromic_bounded_run_terms if palindromic else _bounded_run_terms
    totals = [0] + [bounded(k, range(m - 1, m))[0] for k in range(m)]
    return tuple(b - a for a, b in zip(totals, totals[1:]))


def plus_signs_total(m: int, palindromic: bool = False, method: str = "formula") -> int:
    """Total '+' signs over all (palindromic) compositions of m >= 2.

    The closed formulas are (m-1) 2^(m-2) in the plain case and, for
    palindromic compositions, (m-1)/2 * 2^((m-1)/2) for odd m and
    (m-1) 2^(m/2-1) for even m; the fsum path evaluates sum x*F(m-1, x, k)
    instead and must agree.
    """
    require_ints(m)
    if m < 2:
        raise ValueError("plus_signs_total is defined for m >= 2")
    if method == "formula":
        if not palindromic:
            return (m - 1) * 2 ** (m - 2)
        if m % 2:
            return (m - 1) // 2 * 2 ** ((m - 1) // 2)
        return (m - 1) * 2 ** (m // 2 - 1)
    if method == "fsum":
        count = F_hat if palindromic else F
        n = m - 1
        return sum(x * count(n, x, k) for x in range(1, n + 1) for k in range(1, x + 1))
    raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")


def summands_total(m: int, palindromic: bool = False, method: str = "formula") -> int:
    """Total summand count over all (palindromic) compositions of m >= 2:
    one more than the '+' signs per composition."""
    require_ints(m)
    if m < 2:
        raise ValueError("summands_total is defined for m >= 2")
    if method == "formula":
        if not palindromic:
            return (m + 1) * 2 ** (m - 2)
        if m % 2:
            return (m + 1) // 2 * 2 ** ((m - 1) // 2)
        return (m + 1) * 2 ** (m // 2 - 1)
    if method == "fsum":
        compositions = 2 ** (m // 2) if palindromic else 2 ** (m - 1)
        return plus_signs_total(m, palindromic, "fsum") + compositions
    raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")


def two_count_palindromic(m: int) -> int:
    """Total number of 2-summands over palindromic {1,2}-compositions of m,
    as the weighted column sum  sum_x x * F_hat(m-1, x, 1).  A column crosses
    every row, so its cells step (_F_hat_cell) rather than build the rows."""
    require_ints(m)
    if m < 2:
        raise ValueError("two_count_palindromic is defined for m >= 2")
    return sum(x * _F_hat_cell(m - 1, x, 1) for x in range(1, m))


def P(n: int, x: int, k: int) -> int:
    """Partition classes of (n, x, k): distinct zero-run multisets, exactly.

    Equivalently: partitions of x with largest part exactly k and at most
    n - x + 1 parts.  Stripping one part k leaves a partition of x - k into
    at most n - x parts, each at most k: the coefficient of q^(x-k) in the
    Gaussian binomial [n-x+k choose k]_q (Andrews, The Theory of Partitions,
    ch. 3).  For x <= _ROW_SIDE the cell is read from its whole row, _P_row;
    past it _bounded_partitions computes the one coefficient.  Raises
    ValueError on non-int arguments.
    """
    if type(n) is not int or type(x) is not int or type(k) is not int:
        raise not_ints(n, x, k)
    if not feasible(n, x, k):
        return 0
    if x <= _ROW_SIDE:
        return _P_row(n, x)[k]
    return _bounded_partitions(x - k, n - x, k)


# Measured with one row sweep against one cold kernel cell: at x = 512 a row
# took 0.45-10.5 ms over n from x to 10^6, and a cell 0.002-12 ms (median
# 2.3 ms once n >= 2x); at x = 1024 a row took up to 38 ms.  A lone cell on
# the row side pays for its whole row, so the side stops at x = 512.
_ROW_SIDE = 512


@lru_cache(maxsize=64)
def _P_row(n: int, x: int) -> tuple[int, ...]:
    """P(n, x, k) for 0 <= k <= x, with 0 <= x <= n, kept for the last 64
    rows read; cell 0 is [x == 0].  With m = n - x, the cell k >= 1 is the
    coefficient of q^(x-k) in G_k = [m+k choose k]_q, a polynomial of degree
    mk, and G_k = G_(k-1) (1 - q^(m+k)) / (1 - q^k): two in-place passes
    over the coefficients up to degree min(x - k, mk), as no later cell
    reads above x - k, so a row costs at most about x^2 additions.  The
    arguments are not checked; P checks them."""
    m = n - x
    coeffs = [1] + [0] * x
    row = [int(x == 0)]
    for k in range(1, x + 1):
        top = min(x - k, m * k)
        for s in range(top, m + k - 1, -1):
            coeffs[s] -= coeffs[s - m - k]
        for s in range(k, top + 1):
            coeffs[s] += coeffs[s - k]
        row.append(coeffs[x - k])
    return tuple(row)


def _bounded_partitions(t: int, a: int, b: int) -> int:
    """Partitions of t into at most a parts, each at most b (t, a, b >= 0).

    No part exceeds t and no partition of t has more than t parts, so both
    bounds are clipped to t, and conjugation swaps them: the cached kernel
    sees one key per class of (t, a, b), shared across orders n.
    """
    if a > t:
        a = t
    if b > t:
        b = t
    return _classes(t, a, b) if a <= b else _classes(t, b, a)


@lru_cache(maxsize=None)
def _classes(t: int, a: int, b: int) -> int:
    """_bounded_partitions on its normalised key a <= b <= t: the cells of P
    past _ROW_SIDE, of P_hat and of P_total."""
    # [a+b choose a]_q = prod_{i=1..a} (1 - q^(b+i)) / (1 - q^i) has
    # symmetric coefficients up to degree ab: read the lower half, and stop
    # at i = degree, past which the factors leave the coefficients alone.
    degree = min(t, a * b - t)
    if degree < 0:
        return 0  # t > ab: no partition fits
    coeffs = [1] + [0] * degree
    for i in range(1, min(a, degree) + 1):
        for s in range(degree, b + i - 1, -1):
            coeffs[s] -= coeffs[s - b - i]
        for s in range(i, degree + 1):
            coeffs[s] += coeffs[s - i]
    return coeffs[degree]


def P_total(n: int) -> int:
    """The number of partitions of n + 1: summed over k, P(n, x, k) counts the
    partitions of x into at most n - x + 1 parts, one kernel call per x
    (Andrews, The Theory of Partitions, ch. 3)."""
    require_ints(n)
    return sum(_bounded_partitions(x, n - x + 1, x) for x in range(n + 1))


def partition_function(m: int) -> int:
    """Classical p(m) via Euler's pentagonal-number recurrence.

    Deliberately shares no code with P: it is the independent cross-check
    for P_total(m - 1).
    """
    require_ints(m)
    return _partition_numbers(m)[-1] if m >= 0 else 0


def _partition_numbers(m: int) -> list[int]:
    """The list p(0), ..., p(m) for m >= 0, by the pentagonal recurrence."""
    p = [1] + [0] * m
    for i in range(1, m + 1):
        # pentagonal numbers g = j(3j - 1)/2 and g + j, signed + + - - ...
        j = 1
        while (g := j * (3 * j - 1) // 2) <= i:
            term = p[i - g] + (p[i - g - j] if g + j <= i else 0)
            p[i] += term if j % 2 else -term
            j += 1
    return p


def P_hat(n: int, x: int, k: int) -> int:
    """Partition classes of the palindromic class (n, x, k).

    A palindrome's multiset is its half's doubled, plus the central block
    0^c when c > 0, the one part of odd multiplicity: classes with different
    centres never meet.  So P_hat sums over the half-word classes of
    palindromic._halves: P(h, y, k), one coefficient of the kernel, for a
    half whose longest run is exactly k, and the partitions of y into at most
    h - y + 1 parts, each at most k, for a half beside a central block 0^k.
    A lone cell reads no P row.  Raises ValueError on non-int arguments.
    """
    if type(n) is not int or type(x) is not int or type(k) is not int:
        raise not_ints(n, x, k)
    return sum(_bounded_partitions(y - k, h - y, k) if exact
               else _bounded_partitions(y, h - y + 1, k)
               for h, y, exact in _halves(n, x, k))


def P_hat_total(n: int) -> int:
    """Palindromic partition classes of n: 1 + sum_{h < n/2} P_total(h).  Each
    palindrome but 0^n reads A 1 0^c 1 reverse(A), or A 1 reverse(A) for odd n
    (palindromic._halves): its multiset is A's doubled plus c, the one part of
    odd multiplicity, and each h < n/2 comes from one c (Andrews, ch. 3).  As
    P_total(h) = p(h + 1), that is sum_{m <= ceil(n/2)} p(m): one pentagonal
    list, no Gaussian kernel."""
    require_ints(n)
    return sum(_partition_numbers((n + 1) // 2)) if n >= 0 else 0


def p_hat_two_printed(n: int, x: int) -> int | None:
    """The printed piecewise rules for palindromic k = 2 classes, verbatim.

    Returns None when no printed case matches (x outside 0 <= x <= n, wrong
    parity or negative slack i).  These rules are claims under test: P_hat
    stays authoritative, and the verification suite reports every
    disagreement.
    """
    require_ints(n, x)
    if not 0 <= x <= n:
        return None
    if n % 2:
        m = (n - 1) // 2
        if x % 2 == 0:
            half = x // 2
            i = m - half - (half + 1) // 2 + 1
            bound = x // 4
        else:
            i = m - x // 2 - (x + 1) // 4
            bound = (x - 1) // 4
    else:
        if x % 2:
            return None
        m = n // 2
        if (x // 2) % 2 == 0:
            i = m - 3 * x // 4
            bound = x // 4
        else:
            i = m - (3 * x - 2) // 4
            bound = (x - 2) // 4
    if i < 0:
        return None
    return i + 1 if i < bound - 1 else bound
