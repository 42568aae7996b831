"""Exact counting of binary strings by zero count and longest zero-run.

The core quantity is F(n, x, k), the number of binary strings of length n
with x zeros whose longest block of consecutive zeros has length exactly k,
together with its palindromic analogue F_hat and the composition / partition
statistics the word bijection induces.  Everything is exact integer
arithmetic, and a brute-force enumeration oracle validates every formula at
small lengths.
"""

from .compositions import (
    P,
    P_hat,
    P_hat_total,
    P_total,
    compositions_by_largest_summand,
    partition_function,
    plus_signs_total,
    summands_total,
    two_count_palindromic,
)
from .matrices import (
    CountMatrix,
    build_matrix,
    col_sums,
    determinant,
    eigenvalues,
    grand_sum,
    is_idempotent,
    nonzero_entries,
    row_sums,
    trace,
)
from .oracle import (
    ClassTable,
    EnumerationLimitError,
    classify,
    composition_to_string,
    oracle_count,
    oracle_partition_classes,
    oracle_T,
    oracle_zero_total,
    string_to_composition,
    zero_run_multiset,
)
from .palindromic import (
    F_hat,
    F_hat_high_k,
    lemma_positivity_hat,
    support_hat_set,
    support_hat_size_formula,
)
from .runcount import (
    F,
    F_closed_high_k,
    F_diagonal,
    F_near_diagonal,
    SupportSet,
    binomial,
    min_k,
    support_contains,
    support_set,
    support_size_formula,
)
from .sequences import O, SequenceSpec, T, fib_f, ones_total, sequence

__version__ = "0.1.0"

__all__ = [
    "F",
    "F_hat",
    "F_diagonal",
    "F_near_diagonal",
    "F_closed_high_k",
    "F_hat_high_k",
    "binomial",
    "support_contains",
    "min_k",
    "SupportSet",
    "support_set",
    "support_size_formula",
    "support_hat_set",
    "support_hat_size_formula",
    "lemma_positivity_hat",
    "ClassTable",
    "EnumerationLimitError",
    "classify",
    "zero_run_multiset",
    "oracle_count",
    "oracle_T",
    "oracle_zero_total",
    "oracle_partition_classes",
    "string_to_composition",
    "composition_to_string",
    "T",
    "O",
    "ones_total",
    "fib_f",
    "SequenceSpec",
    "sequence",
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
    "compositions_by_largest_summand",
    "plus_signs_total",
    "summands_total",
    "two_count_palindromic",
    "P",
    "P_total",
    "P_hat",
    "P_hat_total",
    "partition_function",
    "__version__",
]
