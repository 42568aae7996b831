"""Non-int arguments are rejected before any cache is consulted."""

import re
from fractions import Fraction

import pytest

from zeroruns import (
    compositions as comp,
    matrices as mat,
    palindromic as pal,
    runcount as rc,
    sequences as seq,
)


def fibonacci_f_terms(start, count, r, k, x):
    return seq.sequence(seq.SequenceSpec("fibonacci-f", start, count, r, k, x))


def t_run_terms(start, count, r, k, x):
    return seq.sequence(seq.SequenceSpec("t-run", start, count, r, k, x))


GOOD = [
    (rc.F, (7, 3, 1)),
    (pal.F_hat, (7, 3, 1)),
    (comp.P, (10, 7, 3)),
    (comp.P_hat, (15, 9, 3)),
    (rc.binomial, (5, 1)),
    (rc.min_k, (5, 2)),
    (rc.support_contains, (5, 2, 1)),
    (rc.support_set, (5,)),
    (pal.support_hat_set, (5,)),
    (mat.build_matrix, (4,)),
    (seq.T, (2, 5)),
    (seq.O, (2, 5)),
    (comp.P_total, (6,)),
    (comp.P_hat_total, (6,)),
    (rc.F_diagonal, (5, 2)),
    (rc.F_near_diagonal, (5, 3)),
    (rc.F_closed_high_k, (7, 3, 2)),
    (rc.support_size_formula, (5,)),
    (pal.F_hat_high_k, (7, 3, 2)),
    (pal.lemma_positivity_hat, (5, 2, 1)),
    (pal.support_hat_size_formula, (5,)),
    (seq.fib_f, (3,)),
    (seq.ones_total, (5, 2, 1)),
    (seq.column_sum, (5, 1)),
    (seq.palindromic_column_sum, (5, 1)),
    (comp.compositions_by_largest_summand, (5,)),
    (comp.plus_signs_total, (5,)),
    (comp.summands_total, (5,)),
    (comp.two_count_palindromic, (5,)),
    (comp.partition_function, (5,)),
    (comp.p_hat_two_printed, (9, 4)),
    (fibonacci_f_terms, (1, 2, 2, 1, 3)),
    (t_run_terms, (5, 1, 2, 1, 3)),
]


def bad_calls():
    for func, args in GOOD:
        for pos, value in enumerate(args):
            bad = [float(value), Fraction(value), str(value), None]
            if value in (0, 1):
                bad.append(bool(value))
            for b in bad:
                yield pytest.param(
                    func, args, args[:pos] + (b,) + args[pos + 1:],
                    id=f"{func.__name__}{args[:pos] + (b,) + args[pos + 1:]!r}",
                )


def clear_caches():
    rc._F_rows.clear()
    pal._F_hat_rows.clear()
    comp._P_rows.clear()


@pytest.mark.parametrize("func, good, bad", bad_calls())
def test_rejected_cold(func, good, bad):
    clear_caches()
    # the message names the caller's own arguments, not an inner call's
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        func(*bad)


@pytest.mark.parametrize("func, good, bad", bad_calls())
def test_rejected_warm(func, good, bad):
    func(*good)  # the equal-hashing int key is now cached
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        func(*bad)

