"""Derived integer sequences: run-avoiding string counts and classic families."""

from __future__ import annotations

from collections import deque
from itertools import islice
from operator import mul
from typing import NamedTuple

from .runcount import F, require_ints

__all__ = [
    "fib_f",
    "T",
    "O",
    "ones_total",
    "column_sum",
    "palindromic_column_sum",
    "SEQUENCE_NAMES",
    "SequenceSpec",
    "sequence",
]


def fib_f(n: int) -> int:
    """Shifted Fibonacci numbers: f(1) = 2, f(2) = 3, f(n) = f(n-1) + f(n-2)."""
    require_ints(n)
    if n < 1:
        raise ValueError("fib_f is defined for n >= 1")
    a, b = 1, 2  # f(0), f(1)
    for _ in range(n - 1):
        a, b = b, a + b
    return b


def _square(p: list[int]) -> list[int]:
    """The square of the polynomial with coefficients p (from x^0 up), using
    the symmetry of the products: about len(p)^2 / 2 of them."""
    sq = [0] * (2 * len(p) - 1)
    for i, a in enumerate(p):
        sq[2 * i] += a * a
        a2 = a << 1
        for j in range(i + 1, len(p)):
            sq[i + j] += a2 * p[j]
    return sq


def _mod(p: list[int], poly: list[int]) -> list[int]:
    """p mod the monic poly; both list coefficients from x^0 up (p is spent)."""
    d = len(poly) - 1
    for i in range(len(p) - 1, d - 1, -1):
        top = p[i]
        for j in range(d):
            p[i - d + j] -= top * poly[j]
    return p[:d]


def _x_powers_mod(poly: list[int], n: int):
    """x^n, x^(n+1), ... mod the monic poly of degree d.  The first comes by
    square-and-multiply (Fiduccia, SIAM J. Comput. 14, 1985), about d^2 / 2
    products per bit of n; each later one is the one before times x, d more."""
    rem = [1]
    for bit in bin(n)[2:]:
        rem = _mod([0] * (bit == "1") + _square(rem), poly)
    while True:
        yield rem
        rem = _mod([0] + rem, poly)


def _o_by_t(r: int) -> tuple[int, list[int], list[int]]:
    """Integers d > 0, a and b with d O(r, n) = sum (a_j + n b_j) T(r, n + j)
    over 0 <= j < r, for every n >= 0 (r >= 1).

    c(x) = x^r - x^(r-1) - ... - 1 is squarefree and annihilates T from
    n = 0 with T in lowest terms, so the shifts T(n + j) and n T(n + j),
    j < r, span the sequences that c(x)^2 annihilates, O among them
    (O(z) = z T(z)^2; Schilling 1990).  The 2r equations at n = 0..2r-1 over
    the stepped head terms fix the coefficients; they are solved by
    fraction-free elimination (Bareiss, Math. Comp. 22, 1968), whose last
    pivot is the determinant, and back substitution of the determinant
    times each unknown, an integer by Cramer's rule.
    """
    t = list(_run_terms(r, 1, range(3 * r - 1)))
    o = list(_run_terms(r, 2, range(2 * r)))
    size = 2 * r
    rows = [[t[n + j] for j in range(r)] + [n * t[n + j] for j in range(r)] + [o[n]]
            for n in range(size)]
    prev = 1
    for k in range(size):
        i = next(i for i in range(k, size) if rows[i][k])
        rows[k], rows[i] = rows[i], rows[k]
        pivot = rows[k]
        for row in rows[k + 1:]:
            row[:] = [(pivot[k] * u - row[k] * v) // prev for u, v in zip(row, pivot)]
        prev = pivot[k]
    det, x = prev, [0] * size
    for k in range(size - 1, -1, -1):
        row = rows[k]
        x[k] = (det * row[-1] - sum(map(mul, row[k + 1:size], x[k + 1:]))) // row[k]
    if det < 0:
        det, x = -det, [-v for v in x]
    return det, x[:r], x[r:]


def _run_terms(r: int, power: int, ns: range):
    """T(r, n) (power 1) or O(r, n) (power 2) for each n in ns; n >= 0, r >= 0.

    A word of length n < r holds no run of r ones, so r is first clipped to
    ns.stop and no cost grows with r beyond it; r = k + 1 gives B_k, and
    r = 0 the zero sequence, yielded before any window or jump is built.
    Up to s = r the terms are closed forms, T(r, s) = 2^s - [s = r] and
    O(r, s) = s 2^(s-1), which a range ending there takes directly.  From
    them, windows of r + 1 terms are stepped by
        T(s) = 2 T(s-1) - T(s-r-1),
        O(s) = 2 O(s-1) - O(s-r-1) + T(s-1) - T(s-r-1),
    the differences of T(s) = sum T(s-i) and O(s) = sum O(s-i) + T(s-i) over
    1 <= i <= r (split each word after its first zero; Schilling, "The
    Longest Run of Heads", 1990): a step is a few additions of numbers of at
    most n bits, so reaching n costs about n^2 bit operations.

    A far start, 4 * ns.start > r^4 + 256 r, is jumped to instead, for both
    counts.  c(x) = x^r - x^(r-1) - ... - 1 annihilates T from s = 0, so
    T(s) is the dot product of its first r terms with x^s mod c (see
    _x_powers_mod): about r^2 log2(s) products of s-bit numbers.  T's window
    at ns.start takes r + 1 such remainders, or as many as the range has
    terms.  O's window takes r - 1 more, and reads each O(n) off the r
    terms T(n..n+r-1) by the identity of _o_by_t, two dot products with
    small integers and one exact division; stepping goes on from there.  The
    rule is the measured crossover: r^4 for the squarings at large r, 256 r
    for the fixed cost of a jump at small r.  Over 1 <= r <= 40 and
    32 <= n <= 1.3 * 10^5 it chose within 1.4 times the faster path for T,
    and for O within 1.3 times just past the first far n at r = 2..5, 8, 13
    and 20 (single terms, 2 cores, Python 3.11).
    """
    r = min(r, ns.stop)
    if r == 0:
        # every word holds a run of no ones (and 4 * ns.start > 0 would jump)
        yield from (0 for _ in ns)
        return
    heads = (lambda s: (1 << s) - (s == r), lambda s: s << s >> 1)[:power]
    if ns.stop <= r + 1:
        # a window here would hold every term up to 2^r, O(r^2) bits
        yield from map(heads[-1], ns)
        return
    first = 0  # the index of each window's oldest term
    if 4 * ns.start > r**4 + 256 * r:
        first = ns.start
        init = list(map(heads[0], range(r)))
        width = min(len(ns), r + 1)
        ts = [sum(map(mul, rem, init)) for rem in
              islice(_x_powers_mod([-1] * r + [1], first), width + (power - 1) * (r - 1))]
        windows = [deque(ts[:width], maxlen=r + 1)]
        if power == 2:
            d, a, b = _o_by_t(r)
            shifts = [ts[i:i + r] for i in range(width)]
            windows.append(deque([(sum(map(mul, a, ti)) + n * sum(map(mul, b, ti))) // d
                                  for n, ti in enumerate(shifts, first)], maxlen=r + 1))
    else:
        windows = [deque(map(head, range(r + 1)), maxlen=r + 1) for head in heads]
    t, out = windows[0], windows[-1]
    yield from islice(out, ns.start - first, ns.stop - first)
    for s in range(first + r + 1, ns.stop):
        step = t[-1] - t[0]
        if power == 2:
            out.append(2 * out[-1] - out[0] + step)
        t.append(t[-1] + step)
        if s >= ns.start:
            yield out[-1]


def _run_counts(name: str, r: int, ns: range) -> list[int]:
    """T(r, n) (name "T") or O(r, n) (name "O") for every n in ns, by
    _run_terms."""
    if r < 2:
        raise ValueError(f"{name} is defined for r >= 2")
    if ns.start < 1:
        raise ValueError(f"{name} is defined for n >= 1")
    return list(_run_terms(r, 1 + (name == "O"), ns))


def T(r: int, n: int) -> int:
    """Number of length-n words with no r consecutive ones (r >= 2), by the
    recurrence of _run_terms.  The paper's sum of F(n, x, k) over
    0 <= k <= r-1, which counts by longest zero-run of the complement, is
    verify's reference for it."""
    require_ints(r, n)
    return _run_counts("T", r, range(n, n + 1))[0]


def O(r: int, n: int) -> int:
    """Total zeros over all length-n words with no r consecutive ones, by the
    recurrence of _run_terms, which follows from the paper's
    O(r, n) = sum O(r, n-i) + T(r, n) over 1 <= i <= r; a far n is read off
    the r terms T(r, n..n+r-1) that T's jump gives (see _o_by_t).  The sum
    of the per-class one totals (n - x) F(n, x, k) over 0 <= k <= r-1 is
    verify's reference for it."""
    require_ints(r, n)
    return _run_counts("O", r, range(n, n + 1))[0]


def ones_total(n: int, x: int, k: int) -> int:
    """Total ones over the class (n, x, k): (n - x) * F(n, x, k)."""
    require_ints(n, x, k)
    if not 0 <= k <= x <= n:
        raise ValueError(f"ones_total needs 0 <= k <= x <= n, got ({n}, {x}, {k})")
    return (n - x) * F(n, x, k)


def _palindromic_bounded_run_terms(k: int, ns: range) -> list[int]:
    """The palindromes of each length n in ns (all n >= 0) whose zero-runs
    are all at most k.

    With n <= k every palindrome counts.  Otherwise each reads A 1 reverse(A)
    (odd n) or A 1 0^c 1 reverse(A) with c = n (mod 2) and c <= k, and its
    half A is any word of its length with runs at most k.  This is the centre
    split of the palindromic module without the zero count: there the
    centres of one row x give G_k, its palindromes with runs at most k, by
    binomial dot products, and this term is the sum of G_k over all x, by
    the run-avoiding recurrence.  One pass of B_k (_run_terms) to
    length max(ns) // 2 gives every term; the window holds the half lengths
    one term needs.
    """
    terms = [1 << ((n + 1) // 2) for n in range(ns.start, min(ns.stop, k + 1))]
    rest = range(max(ns.start, k + 1), ns.stop)
    if not rest:
        return terms
    half = deque(maxlen=k // 2 + 2)
    for h, b in enumerate(_run_terms(k + 1, 1, range(rest[-1] // 2 + 1))):
        half.append(b)
        # the half of A 1 0^c 1 reverse(A) has length n // 2 - 1 - c // 2
        terms.extend(n % 2 * b + sum(half[-2 - c // 2] for c in range(n % 2, k + 1, 2))
                     for n in (2 * h, 2 * h + 1) if n in rest)
    return terms


def _bounded_run_terms(k: int, ns: range) -> list[int]:
    """B_k(n) = T(k + 1, n) for every n in ns, all n >= 0 (see _run_terms)."""
    return list(_run_terms(k + 1, 1, ns))


def _column_terms(bounded, k: int, ns: range) -> list[int]:
    """Column k at every n in ns: bounded(k, n) - bounded(k - 1, n) for
    0 <= k <= n, else 0, where bounded(k, ns) lists the words (or
    palindromes) of each length in ns whose zero-runs are all at most k."""
    if k < 0:
        return [0] * len(ns)
    first = min(max(ns.start, k), ns.stop)
    rest = range(first, ns.stop)
    return [0] * (first - ns.start) + [
        a - b for a, b in zip(bounded(k, rest), bounded(k - 1, rest))
    ]


def column_sum(n: int, k: int) -> int:
    """Sum of F(n, x, k) over x, column k of the order-n matrix: B_k(n) - B_(k-1)(n)."""
    require_ints(n, k)
    return _column_terms(_bounded_run_terms, k, range(n, n + 1))[0]


def palindromic_column_sum(n: int, k: int) -> int:
    """Sum of F_hat(n, x, k) over x, as column_sum over palindromes."""
    require_ints(n, k)
    return _column_terms(_palindromic_bounded_run_terms, k, range(n, n + 1))[0]


SEQUENCE_NAMES = (
    "fibonacci-f",
    "t-run",
    "o-run",
    "triangular",
    "oblong",
    "tetrahedral",
    "column-sum",
    "palindromic-column-sum",
)


class SequenceSpec(NamedTuple):
    """A catalogued sequence request: name, parameters and an index range.

    r feeds t-run / o-run, k the column sums, x the oblong slice; each is
    ignored by the other names.
    """

    name: str
    start: int
    count: int
    r: int = 2
    k: int = 1
    x: int = 3


def sequence(spec: SequenceSpec) -> list[int]:
    """Terms of a catalogued sequence at indices start .. start+count-1."""
    require_ints(spec.start, spec.count, spec.r, spec.k, spec.x)
    if spec.count < 1:
        raise ValueError("sequence range must be nonempty")
    ns = range(spec.start, spec.start + spec.count)
    if spec.name == "fibonacci-f":
        return [fib_f(n) for n in ns]
    if spec.name == "t-run":
        return _run_counts("T", spec.r, ns)
    if spec.name == "o-run":
        return _run_counts("O", spec.r, ns)
    if spec.name == "triangular":
        return [F(n, 2, 1) for n in ns]
    if spec.name == "oblong":
        if spec.x < 3:
            raise ValueError("the oblong slice needs x >= 3")
        return [F(n, spec.x, spec.x - 1) for n in ns]
    if spec.name == "tetrahedral":
        return [F(n, 3, 1) for n in ns]
    if spec.name == "column-sum":
        return _column_terms(_bounded_run_terms, spec.k, ns)
    if spec.name == "palindromic-column-sum":
        return _column_terms(_palindromic_bounded_run_terms, spec.k, ns)
    raise ValueError(f"unknown sequence {spec.name!r}; expected one of {SEQUENCE_NAMES}")
