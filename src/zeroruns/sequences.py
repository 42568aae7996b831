"""Derived integer sequences: run-avoiding string counts and classic families."""

from __future__ import annotations

from dataclasses import dataclass

from .palindromic import F_hat
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


def _t_values(r: int, n: int) -> list[int]:
    """T(r, s) for s = 0..n: counts of words avoiding r consecutive ones."""
    vals = [1] * (n + 1)
    for s in range(1, min(r, n + 1)):
        vals[s] = 2**s
    if n >= r:
        vals[r] = 2**r - 1
    for m in range(r + 1, n + 1):
        vals[m] = sum(vals[m - i] for i in range(1, r + 1))
    return vals


def T(r: int, n: int, method: str = "recurrence") -> int:
    """Number of length-n words with no r consecutive ones (r >= 2).

    Two paths: the r-step linear recurrence with initial values 2^s and
    2^r - 1 (default), or the identity 1 + sum F(n, x, k) over 1 <= k <= r-1
    which counts by longest zero-run of the complement; the two must agree.
    """
    require_ints(r, n)
    if r < 2:
        raise ValueError("T is defined for r >= 2")
    if n < 1:
        raise ValueError("T is defined for n >= 1")
    if method == "recurrence":
        return _t_values(r, n)[n]
    if method == "identity":
        return 1 + sum(F(n, x, k) for k in range(1, r) for x in range(k, n + 1))
    raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")


def O(r: int, n: int, method: str = "recurrence") -> int:
    """Total zeros over all length-n words with no r consecutive ones.

    Default path is the recurrence O(r,n) = sum O(r,n-i) + T(r,n) with
    O(r,s) = s*2^(s-1) for s <= r; the identity path sums the per-class one
    totals (n - x) F(n, x, k) over 0 <= k <= r-1.
    """
    require_ints(r, n)
    if r < 2:
        raise ValueError("O is defined for r >= 2")
    if n < 1:
        raise ValueError("O is defined for n >= 1")
    if method == "recurrence":
        tvals = _t_values(r, n)
        vals = [0] * (n + 1)
        for s in range(1, min(r, n) + 1):
            vals[s] = s * 2 ** (s - 1)
        for m in range(r + 1, n + 1):
            vals[m] = sum(vals[m - i] for i in range(1, r + 1)) + tvals[m]
        return vals[n]
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


def column_sum(n: int, k: int) -> int:
    """Sum of F(n, x, k) over x: column k of the order-n count matrix."""
    require_ints(n, k)
    return sum(F(n, x, k) for x in range(k, n + 1))


def palindromic_column_sum(n: int, k: int) -> int:
    """Sum of F_hat(n, x, k) over x."""
    require_ints(n, k)
    return sum(F_hat(n, x, k) for x in range(k, n + 1))


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


@dataclass(frozen=True)
class SequenceSpec:
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
    if spec.count < 1:
        raise ValueError("sequence range must be nonempty")
    ns = range(spec.start, spec.start + spec.count)
    if spec.name == "fibonacci-f":
        return [fib_f(n) for n in ns]
    if spec.name == "t-run":
        return [T(spec.r, n) for n in ns]
    if spec.name == "o-run":
        return [O(spec.r, n) for n in ns]
    if spec.name == "triangular":
        return [F(n, 2, 1) for n in ns]
    if spec.name == "oblong":
        if spec.x < 3:
            raise ValueError("the oblong slice needs x >= 3")
        return [F(n, spec.x, spec.x - 1) for n in ns]
    if spec.name == "tetrahedral":
        return [F(n, 3, 1) for n in ns]
    if spec.name == "column-sum":
        return [column_sum(n, spec.k) for n in ns]
    if spec.name == "palindromic-column-sum":
        return [palindromic_column_sum(n, spec.k) for n in ns]
    raise ValueError(f"unknown sequence {spec.name!r}; expected one of {SEQUENCE_NAMES}")
