"""Composition and partition statistics induced by the word bijection.

A composition of m corresponds to a word of length m - 1 (see
oracle.string_to_composition), under which the largest summand is the longest
zero-run plus one and two words represent the same partition of m exactly
when their zero-run multisets coincide.  P(n, x, k) below counts those
multiset classes inside one (n, x, k) word class: a coefficient of a
Gaussian binomial.  One generator, _gaussian, steps [m+k choose k]_q over k
and is the only such loop.  P answers from the row store _P_rows, the only
partition store (see runcount._Rows for the row-or-cell choice); a cell past
_ROW_SIDE, and P_hat, read the coefficients they need from one uncached
_box_sum pass a call.  P_total reads one pass of its own.  The '+' sign
and summand totals are closed forms in the number of compositions, and the
module reads no F or F_hat: the paper's sums over F are verify's references.
"""

from __future__ import annotations

from .runcount import _Rows, feasible, not_ints, require_ints
from .sequences import _bounded_run_terms, _palindromic_bounded_run_terms, _run_terms

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


def plus_signs_total(m: int, palindromic: bool = False) -> int:
    """Total '+' signs over all (palindromic) compositions of m >= 2.

    The printed formulas are (m-1) 2^(m-2) in the plain case and, for
    palindromic compositions, (m-1)/2 * 2^((m-1)/2) for odd m and
    (m-1) 2^(m/2-1) for even m: each is (m-1)/2 times the number of
    compositions.  The paper's sum x*F(m-1, x, k) is verify's reference for
    it.
    """
    require_ints(m)
    if m < 2:
        raise ValueError("plus_signs_total is defined for m >= 2")
    return (m - 1) * _count(m, palindromic) // 2


def summands_total(m: int, palindromic: bool = False) -> int:
    """Total summand count over all (palindromic) compositions of m >= 2:
    one more than the '+' signs per composition.  The printed formulas are
    those of plus_signs_total with m+1 in place of m-1, (m+1)/2 times the
    number of compositions."""
    require_ints(m)
    if m < 2:
        raise ValueError("summands_total is defined for m >= 2")
    return plus_signs_total(m, palindromic) + _count(m, palindromic)


def _count(m: int, palindromic: bool) -> int:
    """The number of (palindromic) compositions of m >= 1: the words of
    length m - 1, 2^(m-1), or its palindromes, 2^(m//2), each fixed by its
    first m // 2 letters."""
    return 2 ** (m // 2) if palindromic else 2 ** (m - 1)


def two_count_palindromic(m: int) -> int:
    """Total number of 2-summands over palindromic {1,2}-compositions of m,
    as the weighted column sum  sum_x x * F_hat(m-1, x, 1): the zeros of the
    palindromes of length n = m - 1 with no "00", read off their halves.

    A word has no "00" iff its complement has no "11", so with the
    run-avoiding terms of sequences._run_terms the words of length j with no
    "00" number T(2, j) and hold Z(j) = j T(2, j) - O(2, j) zeros.  An odd
    palindrome is fixed by its first j = (n + 1) / 2 letters, centre
    included, which have no "00" iff it has none; it holds each of their
    zeros twice but a central one, so the total is 2 Z(j) less the halves
    that end in 0, T(2, j) - T(2, j - 1) of them.  An even palindrome's half
    of j = n / 2 letters must end in 1, after any j - 1 letters with no
    "00": 2 Z(j - 1).
    """
    require_ints(m)
    if m < 2:
        raise ValueError("two_count_palindromic is defined for m >= 2")
    j = m // 2
    (t0, t1), (o0, o1) = (list(_run_terms(2, p, range(j - 1, j + 1))) for p in (1, 2))
    if m % 2:  # even n
        return 2 * ((j - 1) * t0 - o0)
    return 2 * (j * t1 - o1) - t1 + t0


def P(n: int, x: int, k: int) -> int:
    """Partition classes of (n, x, k): distinct zero-run multisets, exactly.

    Equivalently: partitions of x with largest part exactly k and at most
    n - x + 1 parts.  Stripping one part k leaves a partition of x - k into
    at most n - x parts, each at most k: the coefficient of q^(x-k) in the
    Gaussian binomial [n-x+k choose k]_q (Andrews, The Theory of Partitions,
    ch. 3).  The cell comes from the row store _P_rows: a held row, or else
    a whole row for x <= _ROW_SIDE or one _box_sum coefficient alone (see
    runcount._Rows).  Raises ValueError on non-int arguments.
    """
    if type(n) is not int or type(x) is not int or type(k) is not int:
        raise not_ints(n, x, k)
    row = _P_rows.get((n, x))
    if row is not None and 0 <= k <= x:
        return row[k]
    return _P_rows.route(n, x, k)


# Measured with one row sweep against one cold kernel cell: at x = 512 a row
# took 0.45-10.5 ms over n from x to 10^6, and a cell 0.002-12 ms (median
# 2.3 ms once n >= 2x); at x = 1024 a row took up to 38 ms.  A lone cell on
# the row side pays for its whole row, so the side stops at x = 512.
_ROW_SIDE = 512


def _gaussian(m: int, tops):
    """Yield the coefficient list of G_k = [m+k choose k]_q for k = 0, 1,
    ..., len(tops) - 1, each up to degree tops[k], a non-increasing sequence.
    G_0 = 1, and G_k = G_(k-1) (1 - q^(m+k)) / (1 - q^k): two in-place
    passes over the coefficients up to degree min(tops[k], mk), the degree of
    G_k.  It is one list, updated in place: read it before the next step.
    Above tops[k] its entries are stale, and no later step reads them."""
    coeffs = [1] + [0] * tops[0]
    yield coeffs
    for k, top in enumerate(tops[1:], 1):
        if top > m * k:  # the degree of G_k; cheaper than min() on short rows
            top = m * k
        for s in range(top, m + k - 1, -1):
            coeffs[s] -= coeffs[s - m - k]
        for s in range(k, top + 1):
            coeffs[s] += coeffs[s - k]
        yield coeffs


def _P_row(n: int, x: int) -> tuple[int, ...]:
    """P(n, x, k) for 0 <= k <= x, with 0 <= x <= n, kept in the row store
    _P_rows.  With m = n - x, cell k is the coefficient of
    q^(x-k) in G_k = [m+k choose k]_q (cell 0 is [x == 0], from G_0 = 1), and
    no later cell reads above x - k: one pass of _gaussian with the caps
    x - k, at most about x^2 additions a row.  The arguments are not
    checked; P checks them."""
    passes = _gaussian(n - x, range(x, -1, -1))
    return tuple([coeffs[x - k] for k, coeffs in enumerate(passes)])


_P_rows = _Rows(_P_row, lambda n, x: x <= _ROW_SIDE, lambda n, x, k: _box_sum((x - k,), n - x, k))


def _box_sum(ts, a: int, b: int) -> int:
    """The partitions of t into at most a parts, each at most b, summed over
    the t in ts (a non-empty collection, a, b >= 0), from one pass.

    Each is the coefficient of q^t in [a+b choose a]_q.  No part exceeds t
    and no partition of t has more than t parts, so both bounds are clipped
    to the largest t, and conjugation swaps them: a <= b, so a pass takes at
    most a steps.  The coefficients are symmetric up to the degree ab, so a
    t above ab/2 reads ab - t, and a t below 0 or above ab gives 0.  Past
    step t no factor changes coefficient t, so the pass stops at the largest
    t read.
    """
    a, b = sorted((min(a, max(ts)), min(b, max(ts))))
    ts = [min(t, a * b - t) for t in ts]
    top = max(ts)
    if top < 0:
        return 0  # every t > ab: no partition fits
    *_, coeffs = _gaussian(b, [top] * (min(a, top) + 1))
    return sum(coeffs[t] for t in ts if t >= 0)


def P_total(n: int) -> int:
    """The number of partitions of n + 1, from one pass of _gaussian.

    Summed over k, P(n, x, k) counts the partitions of x into at most
    n - x + 1 parts, or by conjugation the partitions of x with parts at most
    a = min(x, n + 1 - x) (Andrews, The Theory of Partitions, ch. 3).  With
    m = n + 1 and the caps n + 1 - a, no multiplication by 1 - q^(m+a) fires,
    so after step a the list holds the partitions into parts at most a:
    coefficient x at step a, about n^2/4 additions and no cache.
    """
    require_ints(n)
    passes = _gaussian(n + 1, range(n + 1, n - (n + 1) // 2, -1)) if n >= 0 else ()
    # x = a and x = n + 1 - a read step a; a set counts the middle x of odd n once
    return sum(coeffs[x] for a, coeffs in enumerate(passes) for x in {a, n + 1 - a} if x <= n)


def partition_function(m: int) -> int:
    """Classical p(m) via Euler's pentagonal-number recurrence.

    Deliberately shares no code with P or _gaussian: it is the independent
    cross-check for P_total(m - 1), which reads the Gaussian pass.
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
    centres never meet.  So P_hat writes out the centre split of the
    palindromic module.  Odd n with even x has a central one and counts as
    its half row, P(n // 2, x // 2, k).  Otherwise let M = (n - x)/2.  A
    central block 0^k, when k = n (mod 2), leaves the half (x - k)/2 zeros
    in at most M runs, each at most k.  Each shorter centre c = n (mod 2),
    c <= min(k - 1, x - 2k), leaves the half (x - c)/2 zeros with longest
    run exactly k and M - 1 ones: the coefficient of q^t, t = (x - c)/2 - k,
    in [M - 1 + k choose k]_q, the same polynomial for every c, so one
    _box_sum reads them all.  A half too short for its zeros has t above
    (M - 1) k and gives 0 there.  A lone cell reads no P row.  Raises
    ValueError on non-int arguments.
    """
    if type(n) is not int or type(x) is not int or type(k) is not int:
        raise not_ints(n, x, k)
    if not feasible(n, x, k) or x % 2 > n % 2:  # odd x, even n: no palindrome
        return 0
    if n % 2 and x % 2 == 0:
        return _box_sum((x // 2 - k,), n // 2 - x // 2, k)
    gaps = (n - x) // 2
    total = _box_sum(((x - k) // 2,), gaps, k) if (n - k) % 2 == 0 else 0
    ts = [(x - c) // 2 - k for c in range(n % 2, min(k - 1, x - 2 * k) + 1, 2)]
    return total + (_box_sum(ts, gaps - 1, k) if ts else 0)


def P_hat_total(n: int) -> int:
    """Palindromic partition classes of n: 1 + sum_{h < n/2} P_total(h).  Each
    palindrome but 0^n reads A 1 0^c 1 reverse(A), or A 1 reverse(A) for odd n
    (the centre split of the palindromic module): its multiset is A's doubled
    plus c, the one part of odd multiplicity, and each h < n/2 comes from one
    c (Andrews, ch. 3).  As P_total(h) = p(h + 1), that is
    sum_{m <= ceil(n/2)} p(m): one pentagonal list, no Gaussian kernel."""
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
