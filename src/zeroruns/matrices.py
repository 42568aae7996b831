"""Triangular count matrices and their exact algebraic properties."""

from __future__ import annotations

from typing import NamedTuple

from .palindromic import _F_hat_rows
from .runcount import _F_rows, require_ints

__all__ = [
    "CountMatrix",
    "build_matrix",
    "row_sums",
    "col_sums",
    "grand_sum",
    "trace",
    "determinant",
    "eigenvalues",
    "nonzero_entries",
    "is_idempotent",
]

_KINDS = ("plain", "palindromic")


class CountMatrix(NamedTuple):
    """(n+1) x (n+1) lower-triangular matrix with entry (x, k) a class count."""

    n: int
    kind: str
    rows: tuple[tuple[int, ...], ...]

    def entry(self, x: int, k: int) -> int:
        return self.rows[x][k]


def build_matrix(n: int, kind: str = "plain") -> CountMatrix:
    """Matrix of F (or F_hat) values over 0 <= x, k <= n, a row at a time:
    each row (n, x) is read from the row store runcount._F_rows or
    palindromic._F_hat_rows, padded with zeros past k = x."""
    require_ints(n)
    if n < 0:
        raise ValueError("matrix order parameter must be >= 0")
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    rows = _F_rows if kind == "plain" else _F_hat_rows
    return CountMatrix(n, kind, tuple(rows[n, x] + (0,) * (n - x) for x in range(n + 1)))


def row_sums(matrix: CountMatrix) -> tuple[int, ...]:
    return tuple(sum(row) for row in matrix.rows)


def col_sums(matrix: CountMatrix) -> tuple[int, ...]:
    return tuple(sum(col) for col in zip(*matrix.rows))


def grand_sum(matrix: CountMatrix) -> int:
    return sum(sum(row) for row in matrix.rows)


def trace(matrix: CountMatrix) -> int:
    return sum(matrix.rows[i][i] for i in range(len(matrix.rows)))


def determinant(matrix: CountMatrix) -> int:
    """Product of the diagonal; exact because the matrix is lower-triangular."""
    out = 1
    for i in range(len(matrix.rows)):
        out *= matrix.rows[i][i]
    return out


def eigenvalues(matrix: CountMatrix) -> tuple[int, ...]:
    """The diagonal as a sorted multiset; for triangular matrices these are
    exactly the eigenvalues, so no numeric solver is involved."""
    return tuple(sorted(matrix.rows[i][i] for i in range(len(matrix.rows))))


def nonzero_entries(matrix: CountMatrix) -> int:
    return sum(1 for row in matrix.rows for v in row if v)


def is_idempotent(matrix: CountMatrix) -> bool:
    """Exact check of M @ M == M.

    For a triangular matrix with 0/1 diagonal this is equivalent to
    diagonalizability, so it only accepts the palindromic kind (plain
    diagonals exceed 1 and the criterion does not apply).
    """
    if matrix.kind != "palindromic":
        raise ValueError("idempotence check applies to palindromic matrices only")
    rows = matrix.rows
    size = len(rows)
    for i in range(size):
        for j in range(size):
            acc = sum(rows[i][m] * rows[m][j] for m in range(size))
            if acc != rows[i][j]:
                return False
    return True
