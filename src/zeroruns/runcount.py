"""Exact counts F(n, x, k) of binary strings by zero count and longest zero-run.

F(n, x, k) is the number of binary strings of length n containing exactly x
zeros whose longest block of consecutive zeros has length exactly k.  Every
result is an exact Python integer; no floating point is used anywhere.
F answers from the row store _F_rows (see _Rows for the row-or-cell choice).
"""

from __future__ import annotations

import math
from operator import mul, sub

__all__ = [
    "binomial",
    "F",
    "F_diagonal",
    "F_near_diagonal",
    "F_closed_high_k",
    "support_contains",
    "min_k",
    "SupportSet",
    "support_set",
    "support_size_formula",
]


def not_ints(*values) -> ValueError:
    """The error for arguments that are not all of type int.

    The public counts check `type(v) is int` before any cache is consulted:
    7.0 and True hash like 7 and 1, so a cached answer would otherwise
    depend on cache state.  bool and other int subclasses fail.  The check
    is written inline because it runs on every warm call.
    """
    return ValueError(f"arguments must be int, got {values!r}")


def require_ints(*values) -> None:
    """Raise not_ints(*values) unless every value has type int.

    For the public functions off the warm path (build_matrix, the support
    sets, the totals, the sequences and the closed-form helpers), where one
    more call per answer is not measurable; the counts check inline.
    """
    if any(type(v) is not int for v in values):
        raise not_ints(*values)


def binomial(n: int, k: int) -> int:
    """C(n, k); 0 outside 0 <= k <= n."""
    if type(n) is not int or type(k) is not int:
        raise not_ints(n, k)
    return math.comb(n, k) if 0 <= k <= n else 0


def support_contains(n: int, x: int, k: int) -> bool:
    """True iff the class (n, x, k) is nonempty, i.e. F(n, x, k) > 0.

    Raises ValueError on non-int arguments.
    """
    require_ints(n, x, k)
    return feasible(n, x, k)


def feasible(n: int, x: int, k: int) -> bool:
    """support_contains without the argument check, for the counts' own use.

    x zeros in blocks of length <= k need at least ceil(x/k) blocks and a
    separating one between consecutive blocks, so the least feasible length
    is x + ceil(x/k) - 1.
    """
    if not 0 <= k <= x <= n:
        return False
    if x == 0:
        return True
    if k == 0:
        return False
    return x + (x + k - 1) // k - 1 <= n


def min_k(n: int, x: int) -> int:
    """Least k with F(n, x, k) > 0, equal to floor(n / (n - x + 1))."""
    require_ints(n, x)
    if not 1 <= x <= n:
        raise ValueError(f"min_k needs 1 <= x <= n, got x={x}, n={n}")
    return n // (n - x + 1)


def F_diagonal(n: int, x: int) -> int:
    """F(n, x, x) = n - x + 1: the x zeros form a single block."""
    require_ints(n, x)
    if not 1 <= x <= n:
        raise ValueError(f"F_diagonal needs 1 <= x <= n, got x={x}, n={n}")
    return n - x + 1


def F_near_diagonal(n: int, x: int) -> int:
    """F(n, x, x-1) = (n-x)(n-x+1), an oblong number (3 <= x <= n).

    The x = 2 case is triangular instead: F(n, 2, 1) = (n-1)(n-2)/2.
    """
    require_ints(n, x)
    if not 3 <= x <= n:
        raise ValueError(f"F_near_diagonal needs 3 <= x <= n, got x={x}, n={n}")
    return (n - x) * (n - x + 1)


def F_closed_high_k(n: int, x: int, k: int) -> int:
    """Closed form 2*C(n-k-1, x-k) + (n-k-1)*C(n-k-2, x-k) for x < 2k.

    Valid on nonempty classes with 1 <= k <= x < 2k and x <= n - 1.  The one
    boundary configuration it misses, x = n - 1 with n odd and k = (n-1)/2,
    is the lone string 0^k 1 0^k and returns 1.
    """
    require_ints(n, x, k)
    if n % 2 == 1 and x == n - 1 and k == (n - 1) // 2 and k >= 1:
        return 1
    if not (1 <= k <= x < 2 * k and x <= n - 1 and support_contains(n, x, k)):
        raise ValueError(f"closed form does not cover (n={n}, x={x}, k={k})")
    return 2 * binomial(n - k - 1, x - k) + (n - k - 1) * binomial(n - k - 2, x - k)


def _binomials(n: int, x: int) -> tuple[list[int], list[int]]:
    """The row (-1)^j C(m+1, j), 0 <= j <= min(x // 2, m + 1), and the column
    C(n - t, m), 0 <= t <= x, with m = n - x: A_k(n, x) for k >= 1 is the
    dot product of the row with every (k + 1)-th entry of the column, and
    reads the row up to x // (k + 1) <= x // 2.  The rows (n - d, x - d)
    have the same m ones, so one pair serves them all (palindromic._F_hat_row
    sums over them at once).  Each entry is the one before it times an exact
    one-factor ratio, the column built down from C(m, m)."""
    m = n - x
    column = [1] * (x + 1)
    for t in range(x, 0, -1):
        column[t - 1] = column[t] * (n - t + 1) // (x - t + 1)
    row = [1]
    for j in range(1, min(x // 2, m + 1) + 1):
        row.append(-row[-1] * (m + 2 - j) // j)
    return row, column


def _dot_side(n: int, x: int) -> bool:
    """True where the row (n, x) is built whole by dot products, False where
    each cell steps: x * bit_length(n // x) <= 4096, about 4096 bits in
    C(n, x).  Measured over 146 rows with 2000 <= n <= 10^7: a cold cell by
    dot products took at most 2.7 times stepping at or below the bound, and
    up to 3.6 times above it, where the vectors grow as O(x^2 log n) bits."""
    return x == 0 or x * (n // x).bit_length() <= 4096


# The bytes of rows, by _Rows's estimate, that one row store holds before it
# is cleared: the rows of a plain matrix up to order 870 or of a palindromic
# one up to order 1400 fit, so a repeated build reads them back.
_ROW_CACHE_BYTES = 32 << 20


class _Rows(dict):
    """The rows build(n, x) of one count, tuples of ints, by key (n, x), and
    that count's choice between a whole row and a lone cell.

    rows[n, x] builds a missing row and keeps it, holding at most about
    _ROW_CACHE_BYTES of rows plus one.  A held row is exact on every
    0 <= k <= x, zeros on the empty classes included, so F, F_hat and P each
    probe rows.get((n, x)) right after their argument check, and a held row
    answers whichever side it is on: a row that build_matrix left past the
    dot side answers too.  The probe is written inline in each count, not
    here, so a warm cell is one dict probe with no Python frame: about
    0.2 us, against 0.5 us when it routed first (2 cores, Python 3.11).  A
    cell the probe misses goes to route, which reads side(n, x), whether a
    cold cell of the row (n, x) is read from its whole row, and
    cell(n, x, k), which answers a feasible cell alone: _dot_side and
    _F_cell for F, _dot_side of the half row (n // 2, x // 2) and
    _F_hat_cell for F_hat, x <= _ROW_SIDE and one _box_sum coefficient for P.

    Only a miss adds its row's estimated bytes to held: an 8-byte tuple slot
    per entry, 28 more per nonzero entry (its int) and one per 8 bits.  A
    miss that would take held past the budget clears the whole store first.
    An LRU in Python would bound the store as well, but it doubles the cost
    of a warm cell.  clear() also resets held.  held is not locked: a lost
    update could only misstate it.
    """

    def __init__(self, build, side, cell):
        self.build = build
        self.side = side
        self.cell = cell
        self.held = 0

    def __missing__(self, key):
        row = self.build(*key)
        size = 8 * len(row) + 28 * (len(row) - row.count(0)) + sum(map(int.bit_length, row)) // 8
        if self.held + size > _ROW_CACHE_BYTES:
            self.clear()
        self.held += size
        self[key] = row
        return row

    def clear(self):
        super().clear()
        self.held = 0

    def route(self, n: int, x: int, k: int) -> int:
        """The cell (n, x, k) that no held row answered: 0 on an empty class,
        which builds no row; otherwise read from its whole row, built into
        the store and shared by the cells of the row, where side(n, x)
        holds, and cell(n, x, k) alone past it.  The arguments are ints,
        checked by the caller."""
        if not feasible(n, x, k):
            return 0
        return self[n, x][k] if self.side(n, x) else self.cell(n, x, k)


def _F_row(n: int, x: int) -> tuple[int, ...]:
    """F(n, x, k) for 0 <= k <= x, with 0 <= x <= n, kept in the row store
    _F_rows.  A row on the dot side holds at most about 4 MB, at
    (8191, 4096).  The arguments are not checked; F and build_matrix check
    them.

    With m = n - x and a pair signs, column = _binomials(n, x), cell 1 is
    A_1 = C(m + 1, x), the x zeros in distinct gaps among m + 1, and each
    cell 2 <= k <= x // 2 the difference of consecutive A_k, each one dot
    product (0 wherever x > (m + 1) k).  Past x // 2 two runs of more than
    k zeros do not fit, so A_k = column[0] - (m + 1) column[k + 1], and the
    cell is (m + 1)(column[k] - column[k + 1]) = (m + 1) C(n - k - 1, x - k)
    (F_closed_high_k), with column[x + 1] = 0.  At x = n (m = 0) that is
    0 but for the all-zero word at k = n, so it needs no guard.
    """
    if x == 0:
        return (1,)
    m = n - x
    signs, column = _binomials(n, x)
    bounded = [math.comb(m + 1, x)]
    bounded += [sum(map(mul, signs, column[::k + 1])) if x <= (m + 1) * k else 0
                for k in range(2, x // 2 + 1)]
    top = max(x // 2, 1)  # the last cell read off the A_k
    high = map(sub, column[top + 1:], column[top + 2:] + [0])
    return (0, bounded[0], *map(sub, bounded[1:], bounded), *map((m + 1).__mul__, high))


def _bounded(n: int, x: int, k: int, whole: int, free: bool = False) -> int:
    """Words of length n with x zeros whose zero-runs all have length <= k,
    by stepping, where whole is the j = 0 term below: C(n, x) for the count
    itself, or 0 for its corrections alone, the terms j >= 1 (asked for with
    free only: a count that is 0 because x > (m + 1) k returns 0 whatever
    whole is).  With free, the last gap is exempt: its run may have any
    length.

    The zeros fill the m + 1 gaps around m = n - x ones, at most k in each of
    the g = m + 1 - free bounded gaps; inclusion-exclusion over the j gaps
    forced past k gives
        A_k(n, x) = sum_j (-1)^j C(g, j) C(n - j(k+1), m).
    The sum is built upward from its last term, j = min(x // (k+1), g),
    where C(n - j(k+1), m) = C(m + u, u) with u = x - j(k+1) is cheap when
    the bound binds.  Each term is the one after it times an exact ratio,
    C(n - (j-1)(k+1), m) / C(n - j(k+1), m) = C(n - (j-1)(k+1), k+1) /
    C(x - (j-1)(k+1), k+1), read by whichever pair has the smaller lower
    index, min(m, k + 1): with few ones the binomials then have O(m log n)
    bits where those of lower index k + 1 would have about n.  One cell
    costs about min(x // (k+1), g) such steps and holds only a few numbers
    at a time.  At x = -1, as a palindromic correction may ask, j is -1 and
    the count is whole alone.
    """
    m = n - x
    if not free and x > (m + 1) * k:
        return 0
    g = m + 1 - free
    j = min(x // (k + 1), g)
    if j <= 0:
        return whole
    term = (-1) ** j * math.comb(g, j) * math.comb(n - j * (k + 1), m)
    total = whole + term
    low, high = sorted((m, k + 1))
    for j in range(j, 1, -1):
        top = n - (j - 1) * (k + 1)
        term = (-term * j * math.comb(top, low)
                // ((g + 1 - j) * math.comb(top - high, low)))
        total += term
    return total


def F(n: int, x: int, k: int) -> int:
    """Exact class count, total on all integer triples (0 on empty classes).

    F(n, x, k) = A_k - A_(k-1), where A_k counts the words with x zeros whose
    zero-runs are all at most k (see _bounded; Schilling, "The Longest Run of
    Heads", 1990).  The cell comes from the row store _F_rows: a held row,
    or else a whole row on the dot side or _F_cell alone (see _Rows).  No
    recursion, so large n is as safe as small n.  The paper's recurrence is
    a checked identity, not a path.  Raises ValueError on non-int arguments.
    """
    if type(n) is not int or type(x) is not int or type(k) is not int:
        raise not_ints(n, x, k)
    row = _F_rows.get((n, x))
    if row is not None and 0 <= k <= x:
        return row[k]
    return _F_rows.route(n, x, k)


def _F_cell(n: int, x: int, k: int) -> int:
    """F(n, x, k) alone, for a feasible class with k >= 1: C(m + 1, x) at
    k = 1, the x zeros in distinct gaps among m + 1 = n - x + 1, and
    (m + 1) C(n - k - 1, x - k) for k > x // 2 (F_closed_high_k), one
    binomial each, and between them A_k - A_(k-1), both stepped by _bounded.
    F answers its cells past the dot side here, and palindromic._F_hat_cell
    those of a central one.  The arguments are not checked.
    """
    m = n - x
    if k == 1:
        return math.comb(m + 1, x)
    if k > x // 2:
        return (m + 1) * math.comb(n - k - 1, x - k) if m else 1
    whole = math.comb(n, x)
    return _bounded(n, x, k, whole) - _bounded(n, x, k - 1, whole)


_F_rows = _Rows(_F_row, _dot_side, _F_cell)


class SupportSet:
    """The pairs (x, k) with a nonzero count at one length n: F(n, x, k) > 0,
    or F_hat(n, x, k) > 0 when palindromic.  Only n and the kind are held,
    and ranges(x) reads the k of one x off the kind's rule, so `in` is a
    range test, len a sum of range lengths, and iteration yields the pairs
    in sorted order; none of them keeps any state per x or builds a pair
    set.  pairs builds the frozenset of the pairs on each read.  n and
    palindromic are read-only, and two supports are equal when both are.
    Raises ValueError unless n is an int and palindromic a bool.
    """

    __slots__ = ("_n", "_palindromic")

    def __init__(self, n: int, palindromic: bool = False):
        require_ints(n)
        if type(palindromic) is not bool:
            raise ValueError(f"palindromic must be a bool, got {palindromic!r}")
        self._n, self._palindromic = n, palindromic

    n = property(lambda self: self._n)
    palindromic = property(lambda self: self._palindromic)

    def ranges(self, x: int) -> tuple[range, ...]:
        """The disjoint ranges, in increasing order, of the k with (x, k) in
        the support; none for x outside 0..n.  Plain, k runs from
        min_k(n, x) = n // (n - x + 1) up to x, and x = 0 has k = 0 alone.
        Palindromic, a class is non-empty iff it is feasible and a parity
        term holds, which palindromic.lemma_positivity_hat's printed
        inequality lacks.  Odd n with even x has a central one, and reads
        the plain rule of its half row (n // 2, x // 2).  Otherwise
        x = n (mod 2) is required, and k runs from min_k(n, x), keeping
        k = n (mod 2), where a central block 0^k leaves a half of (x - k)/2
        zeros in (n - x)/2 runs of at most k, which fits iff (n, x, k) is
        feasible, and 2k <= x, where the largest shorter centre
        c = min(k - 1, x - 2k) of the parity of n leaves the run k to its
        half, which fits whenever (n, x, k) is feasible and c >= 0:
        range(min_k(n, x), x // 2 + 1) and a step-2 range of the
        k = n (mod 2) above it."""
        n, palindromic = self._n, self._palindromic
        if palindromic and n % 2 and x % 2 == 0:
            return SupportSet(n // 2).ranges(x // 2)
        if not 0 <= x <= n or palindromic and (n - x) % 2:
            return ()
        low = n // (n - x + 1)  # min_k(n, x), 0 at x = 0
        if not palindromic:
            return (range(low, x + 1),)
        high = max(low, x // 2 + 1)
        return range(low, x // 2 + 1), range(high + (high - n) % 2, x + 1, 2)

    def __repr__(self) -> str:
        return f"SupportSet(n={self._n!r}, palindromic={self._palindromic!r})"

    def __eq__(self, other):
        if type(other) is not SupportSet:
            return NotImplemented
        return (self._n, self._palindromic) == (other._n, other._palindromic)

    def __hash__(self) -> int:
        return hash((self._n, self._palindromic))

    def __contains__(self, pair) -> bool:
        """pair in self.pairs, without the pairs.  A number equal to an int
        0 <= i < 2^61 - 1 hashes to i, so hash(x) names the one x-index x
        can equal, floats and bools included."""
        hash(pair)  # an unhashable probe raises TypeError, as in a frozenset
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        x, k = pair
        i, j = hash(x), hash(k)
        return i == x and j == k and any(j in ks for ks in self.ranges(i))

    def __len__(self) -> int:
        return sum(len(ks) for x in range(self._n + 1) for ks in self.ranges(x))

    def __iter__(self):
        return ((x, k) for x in range(self._n + 1) for ks in self.ranges(x) for k in ks)

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self)


def support_set(n: int) -> SupportSet:
    """The support of F at length n, SupportSet(n): one range of k per x,
    read off its rule on each use.  Empty for n < 0."""
    return SupportSet(n)


def support_size_formula(n: int) -> int:
    """|support_set(n)| in closed form: C(n+2, 2) - sum floor(n / (i+1))."""
    require_ints(n)
    return binomial(n + 2, 2) - sum(n // (i + 1) for i in range(n + 1))
