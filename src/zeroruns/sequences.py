"""Derived integer sequences: run-avoiding string counts and classic families."""

from __future__ import annotations

from collections import deque
from itertools import islice
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

_METHODS = ("recurrence", "identity")


def fib_f(n: int) -> int:
    """Shifted Fibonacci numbers: f(1) = 2, f(2) = 3, f(n) = f(n-1) + f(n-2)."""
    require_ints(n)
    if n < 1:
        raise ValueError("fib_f is defined for n >= 1")
    a, b = 1, 2  # f(0), f(1)
    for _ in range(n - 1):
        a, b = b, a + b
    return b


def _nth_term(poly: list[int], init: list[int], n: int) -> int:
    """Term n >= len(init) of a sequence annihilated by the monic poly.

    poly lists the coefficients from x^0 up to its leading 1, so that
    sum_i poly[i] * a_(m+i) == 0 for every m >= 0, and init holds a_0..a_(d-1)
    for d = deg poly.  Short of about d * log2(n) steps past init, the
    recurrence is stepped with a window of d terms.  Otherwise the answer is
    the dot product of init with x^n mod poly, found by square-and-multiply
    (Fiduccia, SIAM J. Comput. 14, 1985): about d^2 log2(n) products of
    numbers of at most n bits.  Either way O(d) numbers are held at a time.
    """
    d = len(poly) - 1
    if n - d <= d * n.bit_length():
        return next(islice(_stepped(poly, init), n, None))
    rem = [1] + [0] * (d - 1)
    for bit in bin(n)[2:]:
        sq = [0] * (2 * d - 1)
        for i, a in enumerate(rem):
            sq[2 * i] += a * a
            a2 = a << 1
            for j in range(i + 1, d):
                sq[i + j] += a2 * rem[j]
        if bit == "1":
            sq.insert(0, 0)
        for i in range(len(sq) - 1, d - 1, -1):
            top = sq[i]
            for j in range(d):
                sq[i - d + j] -= top * poly[j]
        rem = sq[:d]
    return sum(c * a for c, a in zip(rem, init))


def _stepped(poly: list[int], init: list[int]):
    """init, then every later term of the sequence annihilated by the monic
    poly (see _nth_term), each from the window of the d terms before it."""
    yield from init
    window = init
    while True:
        window = window[1:] + [-sum(c * a for c, a in zip(poly, window))]
        yield window[-1]


def _o_head(r: int, count: int) -> list[int]:
    """O(r, s) for s < count by the short recurrence, with O(r, 0) = 0."""
    t, o = [1], [0]  # T(r, 0) = 1
    for m in range(1, count):
        t.append(1 << m if m < r else sum(t[-r:]))
        o.append(m << (m - 1) if m <= r else sum(o[-r:]) + t[m])
    return o


def _run_poly(r: int) -> list[int]:
    """c(x) = x^r - x^(r-1) - ... - 1, which annihilates T(r, s) from s = 0."""
    return [-1] * r + [1]


def _o_poly(r: int) -> list[int]:
    """c(x)^2, which annihilates O(r, s) from s = 0 (see O)."""
    c = _run_poly(r)
    return [sum(c[j] * c[i - j] for j in range(max(0, i - r), min(i, r) + 1))
            for i in range(2 * r + 1)]


def T(r: int, n: int, method: str = "recurrence") -> int:
    """Number of length-n words with no r consecutive ones (r >= 2).

    Two paths: the r-step linear recurrence T(r, s) = sum T(r, s - i) over
    1 <= i <= r with T(r, s) = 2^s for s < r (default; see _nth_term), or the
    identity 1 + sum F(n, x, k) over 1 <= k <= r-1 which counts by longest
    zero-run of the complement; the two must agree.
    """
    require_ints(r, n)
    if r < 2:
        raise ValueError("T is defined for r >= 2")
    if n < 1:
        raise ValueError("T is defined for n >= 1")
    if method == "recurrence":
        if n < r:
            return 1 << n
        return _nth_term(_run_poly(r), [1 << s for s in range(r)], n)
    if method == "identity":
        return 1 + sum(F(n, x, k) for k in range(1, r) for x in range(k, n + 1))
    raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")


def O(r: int, n: int, method: str = "recurrence") -> int:
    """Total zeros over all length-n words with no r consecutive ones.

    Default path is the recurrence O(r,n) = sum O(r,n-i) + T(r,n) with
    O(r,s) = s*2^(s-1) for s <= r.  Its first 2r terms are stepped directly;
    beyond them c(x)^2 annihilates O, because c(E) O(r, .) is T(r, . + r),
    which c(E) annihilates (see _nth_term).  The identity path sums the
    per-class one totals (n - x) F(n, x, k) over 0 <= k <= r-1.
    """
    require_ints(r, n)
    if r < 2:
        raise ValueError("O is defined for r >= 2")
    if n < 1:
        raise ValueError("O is defined for n >= 1")
    if method == "recurrence":
        head = _o_head(r, min(n + 1, 2 * r))
        if n < 2 * r:
            return head[n]
        return _nth_term(_o_poly(r), head, n)
    if method == "identity":
        return sum(
            (n - x) * F(n, x, k) for k in range(r) for x in range(k, n + 1)
        )
    raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")


def ones_total(n: int, x: int, k: int) -> int:
    """Total ones over the class (n, x, k): (n - x) * F(n, x, k)."""
    require_ints(n, x, k)
    if not 0 <= k <= x <= n:
        raise ValueError(f"ones_total needs 0 <= k <= x <= n, got ({n}, {x}, {k})")
    return (n - x) * F(n, x, k)


def _bounded_runs(k: int):
    """B_k(0), B_k(1), ...: the words of each length whose zero-runs are all
    at most k, by B_k(s) = 2 B_k(s-1) - B_k(s-k-2) (Schilling, "The Longest
    Run of Heads", 1990) from B_k(s) = 2^s for s <= k and
    B_k(k+1) = 2^(k+1) - 1.  A window of k + 2 terms is held; k = -1 gives
    all zeros."""
    window = deque([1 << s for s in range(k + 1)] + [(1 << (k + 1)) - 1], maxlen=k + 2)
    yield from window
    while True:
        window.append(2 * window[-1] - window[0])
        yield window[-1]


def _palindromic_bounded_run_terms(k: int, ns: range) -> list[int]:
    """The palindromes of each length n in ns (all n >= 0) whose zero-runs
    are all at most k.

    With n <= k every palindrome counts.  Otherwise each reads A 1 reverse(A)
    (odd n) or A 1 0^c 1 reverse(A) with c = n (mod 2) and c <= k, and its
    half A is any word of its length with runs at most k.  This is the centre
    split of palindromic._halves without the zero count: _halves yields the
    classes of one x whose longest run is exactly k, this counts runs at most
    k over all x.  One pass of _bounded_runs to length max(ns) // 2 gives
    every term; the window holds the half lengths one term needs.
    """
    terms = [1 << ((n + 1) // 2) for n in range(ns.start, min(ns.stop, k + 1))]
    rest = range(max(ns.start, k + 1), ns.stop)
    if not rest:
        return terms
    half = deque(maxlen=k // 2 + 2)
    for h, b in enumerate(islice(_bounded_runs(k), rest[-1] // 2 + 1)):
        half.append(b)
        # the half of A 1 0^c 1 reverse(A) has length n // 2 - 1 - c // 2
        terms.extend(n % 2 * b + sum(half[-2 - c // 2] for c in range(n % 2, k + 1, 2))
                     for n in (2 * h, 2 * h + 1) if n in rest)
    return terms


def _bounded_run_terms(k: int, ns: range) -> list[int]:
    """B_k(n) for every n in ns, all n >= 0, from one pass of _bounded_runs."""
    # an empty ns must not start the generator, whose first step builds k + 2 terms
    return list(islice(_bounded_runs(k), ns.start, ns.stop)) if ns else []


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
        # the first r terms by T (at least one, so that T rejects r < 2),
        # the rest by the recurrence
        head = [T(spec.r, n) for n in ns[:max(spec.r, 1)]]
        return list(islice(_stepped(_run_poly(spec.r), head), spec.count))
    if spec.name == "o-run":
        head = [O(spec.r, n) for n in ns[:max(2 * spec.r, 1)]]
        return list(islice(_stepped(_o_poly(spec.r), head), spec.count))
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
