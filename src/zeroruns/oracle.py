"""Brute-force enumeration: ground truth for every formula in this package.

Everything here walks words explicitly -- all 2^n of them, or the 2^ceil(n/2)
half words in the palindromic case -- so lengths are capped.  The caps are
per-call arguments with module-level defaults, not hard constants: the oracle
is a validation tool, not the production path.

Each length is walked once: _tally reads each word of one (n, palindromic)
as its zero-run multiset and its longest one-run, and caches two tables that
every oracle_* function at that n reads.  Arguments and caps are checked
before the cache is consulted, and every public call builds a fresh result
from the cached tables.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import repeat
from typing import Iterator, NamedTuple

__all__ = [
    "DEFAULT_PLAIN_CAP",
    "DEFAULT_PALINDROMIC_CAP",
    "EnumerationLimitError",
    "check_cap",
    "classify",
    "zero_run_multiset",
    "iter_words",
    "iter_palindromes",
    "ClassTable",
    "oracle_count",
    "oracle_T",
    "oracle_zero_total",
    "oracle_partition_classes",
    "oracle_partition_table",
    "string_to_composition",
    "composition_to_string",
]

DEFAULT_PLAIN_CAP = 22
DEFAULT_PALINDROMIC_CAP = 30


class EnumerationLimitError(Exception):
    """Requested length exceeds the enumeration cap."""


def _check_word(word: str) -> None:
    if type(word) is not str or word.strip("01"):
        raise ValueError(f"not a binary word: {word!r}")


def _require_ints(*values) -> None:
    """Raise ValueError unless every value has type int (bool fails too).

    The oracle's own check, so that it imports nothing from the modules it
    is meant to verify.
    """
    if any(type(v) is not int for v in values):
        raise ValueError(f"arguments must be int, got {values!r}")


def check_cap(n: int, palindromic: bool = False, cap: int | None = None) -> None:
    """Reject lengths beyond the enumeration cap (argument or module default)."""
    _require_ints(n)
    if cap is not None:
        _require_ints(cap)
    if n < 0:
        raise ValueError("word length must be >= 0")
    limit = cap if cap is not None else (
        DEFAULT_PALINDROMIC_CAP if palindromic else DEFAULT_PLAIN_CAP
    )
    if n > limit:
        raise EnumerationLimitError(
            f"length {n} exceeds the enumeration cap {limit}"
        )


def classify(word: str) -> tuple[int, int]:
    """(zero count, longest zero-run length); (0, 0) for an all-ones word."""
    _check_word(word)
    x = word.count("0")
    k = max((len(run) for run in word.split("1")), default=0)
    return x, k


def zero_run_multiset(word: str) -> tuple[int, ...]:
    """Sorted lengths of the maximal zero blocks (the partition-class label)."""
    _check_word(word)
    return tuple(sorted(len(run) for run in word.split("1") if run))


def iter_words(n: int) -> Iterator[str]:
    """All binary words of length n in numeric order; '' for n = 0."""
    spec = f"0{n}b"  # once per call: rebuilt per word, it slowed the walk 1.6x
    # format(0, "00b") is "0", so length 0 is its own case
    yield from map(format, range(1 << n), repeat(spec)) if n else [""]


def iter_palindromes(n: int) -> Iterator[str]:
    """All palindromic words of length n, built from length-ceil(n/2) halves."""
    for h in iter_words((n + 1) // 2):
        yield h + (h[-2::-1] if n % 2 else h[::-1])


class ClassTable(NamedTuple):
    """Enumerated counts per (x, k) class; absent keys mean an empty class."""

    n: int
    palindromic: bool
    counts: dict[tuple[int, int], int]

    def count(self, x: int, k: int) -> int:
        return self.counts.get((x, k), 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.counts)


def _words(n: int, palindromic: bool) -> Iterator[str]:
    return iter_palindromes(n) if palindromic else iter_words(n)


@lru_cache(maxsize=None)
def _tally(n: int, palindromic: bool) -> tuple[dict, dict]:
    """The one walk over the words of length n (or palindromes); callers
    check n first.  Returns, each in order of first appearance, the words by
    (zeros, longest zero-run, longest one-run) and the distinct zero-run
    multisets by (zeros, longest zero-run).

    A word is read as its canonical word, the pieces of its split at "1"
    sorted, and its longest one-run.  The pieces are runs of one symbol, so
    string order is length order and max gives the longest.  At fixed n the
    x zeros fix the piece count n - x + 1, so canonical words are one-to-one
    with the zero-run multisets; x and the last piece, k, are read once per
    canonical word, and only the two tables are kept.
    """
    seen = Counter(
        ("1".join(sorted(w.split("1"))), len(max(w.split("0"))))
        for w in _words(n, palindromic)
    )
    class_of = {c: (c.count("0"), len(c.rpartition("1")[2])) for c, _ in seen}
    words: Counter[tuple[int, int, int]] = Counter()
    for (c, j), count in seen.items():
        words[(*class_of[c], j)] += count
    return words, Counter(class_of.values())


def oracle_count(n: int, palindromic: bool = False, cap: int | None = None) -> ClassTable:
    """Tally every class of length-n words (or palindromes) by enumeration."""
    check_cap(n, palindromic, cap)
    counts: dict[tuple[int, int], int] = {}
    for (x, k, _), count in _tally(n, bool(palindromic))[0].items():
        counts[x, k] = counts.get((x, k), 0) + count
    return ClassTable(n, palindromic, counts)


def _run_avoiding(r: int, n: int, cap: int | None) -> Iterator[tuple[int, int]]:
    """(zeros, count) per tally cell of the length-n words with no r ones in a row."""
    _require_ints(r, n)
    if r < 2:
        raise ValueError("run bound r must be >= 2")
    check_cap(n, False, cap)
    return ((x, count) for (x, _, j), count in _tally(n, False)[0].items() if j < r)


def oracle_T(r: int, n: int, cap: int | None = None) -> int:
    """Number of length-n words with no r consecutive ones, by enumeration."""
    return sum(count for _, count in _run_avoiding(r, n, cap))


def oracle_zero_total(r: int, n: int, cap: int | None = None) -> int:
    """Total zeros over all length-n words with no r consecutive ones."""
    return sum(x * count for x, count in _run_avoiding(r, n, cap))


def oracle_partition_classes(
    n: int, x: int, k: int, palindromic: bool = False, cap: int | None = None
) -> int:
    """Distinct zero-run multisets over one class; 0 when the class is empty."""
    _require_ints(n, x, k)
    return oracle_partition_table(n, palindromic, cap).get((x, k), 0)


def oracle_partition_table(
    n: int, palindromic: bool = False, cap: int | None = None
) -> dict[tuple[int, int], int]:
    """Distinct zero-run multisets per (x, k) class, in a single sweep."""
    check_cap(n, palindromic, cap)
    return dict(_tally(n, bool(palindromic))[1])


def string_to_composition(word: str) -> tuple[int, ...]:
    """Composition of len(word)+1 read off the '0...01' blocks of word + '1'.

    A zero run of length l becomes the summand l + 1 and every remaining one
    becomes a unit summand, so the longest zero-run k pairs with the largest
    summand k + 1, the summand count is ones(word) + 1, and palindromic words
    pair with palindromic compositions.
    """
    _check_word(word)
    return tuple(len(block) + 1 for block in (word + "1").split("1")[:-1])


def composition_to_string(composition) -> str:
    """Inverse of string_to_composition: the word of length sum - 1."""
    try:
        parts = tuple(composition)
    except TypeError:
        raise ValueError(f"a composition is a sequence of summands, got {composition!r}") from None
    if not parts:
        raise ValueError("a composition needs at least one summand")
    _require_ints(*parts)
    if any(c < 1 for c in parts):
        raise ValueError(f"summands must be positive: {parts}")
    return "1".join("0" * (c - 1) for c in parts)
