import math
from collections import Counter
from functools import lru_cache
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeroruns import oracle, palindromic as pal, runcount as rc
from zeroruns.sequences import _palindromic_bounded_run_terms, fib_f

# the seven classes of length-5 palindromes listed in the source material
S_HAT_5 = {(0, 0), (1, 1), (3, 3), (5, 5), (2, 1), (3, 1), (4, 2)}

F_HAT_4 = (
    (1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0),
    (0, 1, 1, 0, 0),
    (0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1),
)


def test_F_hat_golden_values():
    assert pal.F_hat(6, 4, 2) == 2
    assert pal.F_hat(4, 1, 1) == 0
    assert pal.F_hat(5, 4, 2) == 1
    assert pal.F_hat(13, 10, 4) == 2
    for n in range(11):
        assert pal.F_hat(n, 0, 0) == 1
        assert pal.F_hat(n, n, n) == 1


def test_F_hat_total_on_junk_input():
    assert pal.F_hat(-1, 0, 0) == 0
    assert pal.F_hat(4, 5, 1) == 0
    assert pal.F_hat(4, 2, 3) == 0
    assert pal.F_hat(6, 6, 5) == 0


@pytest.mark.parametrize("n", range(0, 15))
def test_F_hat_matches_oracle_exhaustively(n):
    table = oracle.oracle_count(n, palindromic=True)
    for x in range(n + 1):
        for k in range(x + 1):
            assert pal.F_hat(n, x, k) == table.count(x, k), (n, x, k)


def test_F_hat_printed_matrix_rows():
    assert tuple(
        tuple(pal.F_hat(4, x, k) for k in range(5)) for x in range(5)
    ) == F_HAT_4


def F_hat_per_cell(n, x, k):
    """F_hat as computed before the cumulative lookup: one F per run length
    j <= k beside a central block of length k."""
    if x == 0:
        return 1 if k == 0 and n >= 0 else 0
    if not rc.feasible(n, x, k):
        return 0
    if x == n:
        return 1 if k == n else 0
    if n % 2 == 0 and x % 2 == 1:
        return 0
    if n % 2 == 1 and x % 2 == 0:
        return rc.F((n - 1) // 2, x // 2, k)
    if 2 * k > x:
        if k % 2 != n % 2:
            return 0
        return rc.binomial((n - k - 2) // 2, (x - k) // 2)
    half = n // 2
    if (n + k) % 2 == 0:
        acc = sum(rc.F(half - i - 1, x // 2 - i, k) for i in range((k - 2) // 2 + 1))
        acc += sum(rc.F((n - k) // 2 - 1, (x - k) // 2, j) for j in range(k + 1))
        return acc
    return sum(rc.F(half - i - 1, x // 2 - i, k) for i in range((k - 1) // 2 + 1))


@pytest.mark.parametrize("n", range(-2, 71))
def test_F_hat_equals_per_cell_code(n):
    # every integer triple, negative and infeasible ones included
    for x in range(-2, max(n, 0) + 3):
        for k in range(-2, max(n, 0) + 3):
            assert pal.F_hat(n, x, k) == F_hat_per_cell(n, x, k), (n, x, k)


def test_F_hat_high_k():
    assert pal.F_hat_high_k(7, 5, 3) == 1
    assert pal.F_hat_high_k(6, 4, 3) == 0  # parity mismatch with n
    assert pal.F_hat_high_k(13, 11, 7) == rc.binomial(2, 2)
    # (13, 10, 4) sits outside the window (k <= x/2): rejected, not zero
    with pytest.raises(ValueError):
        pal.F_hat_high_k(13, 10, 4)
    with pytest.raises(ValueError):
        pal.F_hat_high_k(6, 5, 3)  # x > n - 2


@pytest.mark.parametrize("n", range(3, 21))
def test_F_hat_high_k_agrees_on_window(n):
    for x in range(1, n - 1):
        for k in range(x // 2 + 1, x + 1):
            assert pal.F_hat_high_k(n, x, k) == pal.F_hat(n, x, k), (n, x, k)


@pytest.mark.parametrize("n, x", [(30000, 15000), (30001, 15001)])
def test_F_hat_high_k_equals_lone_stepped_cells(n, x):
    # past the dot side: the half row (15000, 7500) steps
    assert not rc._dot_side(n // 2, x // 2)
    # the closed form C((n - k - 2)/2, (x - k)/2) at k = n (mod 2), walked
    # down from C(., 0) = 1 at k = x by C(a + 1, b + 1) = C(a, b) (a + 1) / (b + 1),
    # and 0 at the other k: every stepped cell of the window against it
    window = range(x // 2 + 1, x + 1)
    closed, cell = {}, 1
    for k in range(x, x // 2, -2):
        closed[k] = cell
        cell = cell * ((n - k) // 2) // ((x - k) // 2 + 1)
    cells = {k: pal._F_hat_cell(n, x, k) for k in window}
    assert cells == {k: closed.get(k, 0) for k in window}
    # F_hat_high_k against the cells at both ends of the window and a stride between
    for k in {*window[:64], *window[-64:], *window[::97]}:
        assert pal.F_hat_high_k(n, x, k) == cells[k], (n, x, k)


def test_lemma_positivity_hat_examples():
    assert pal.lemma_positivity_hat(5, 4, 2)
    # the printed inequality misses the parity obstruction:
    assert pal.lemma_positivity_hat(4, 1, 1) and pal.F_hat(4, 1, 1) == 0
    assert not pal.lemma_positivity_hat(5, 4, 1)
    with pytest.raises(ValueError):
        pal.lemma_positivity_hat(5, 0, 1)


@pytest.mark.parametrize("n", range(1, 21))
def test_lemma_is_necessary_but_not_sufficient(n):
    for x in range(1, n + 1):
        for k in range(1, x + 1):
            if pal.F_hat(n, x, k) > 0:
                assert pal.lemma_positivity_hat(n, x, k)


def positive_hat(n, x, k):
    """Non-emptiness of the palindromic class (n, x, k), 0 <= k <= x <= n:
    the printed lemma plus the parity term it lacks."""
    if x == 0 or k == 0:
        return x == k == 0
    if not pal.lemma_positivity_hat(n, x, k):
        return False
    if x == n:
        return k == n
    if n % 2 and x % 2 == 0:
        # a central one: a half of x/2 zeros in (n-1)/2 places, longest run k
        half, y = n // 2, x // 2
        return k <= y and y + -(-y // k) - 1 <= half
    if (n - x) % 2:
        return False
    if (n - k) % 2 == 0:
        return True  # a central block 0^k
    # else the longest central block c* < k that leaves the half a run k
    c = min(k - 1, x - 2 * k)
    c -= (c - n) % 2
    return c >= 0 and -(-(x - c) // (2 * k)) <= (n - x) // 2


@pytest.mark.parametrize("n", range(0, 201))
def test_support_hat_set_equals_corrected_positivity_criterion(n):
    criterion = {(x, k) for x in range(n + 1) for k in range(x + 1) if positive_hat(n, x, k)}
    assert pal.support_hat_set(n).pairs == criterion


@pytest.mark.parametrize("n", range(-1, 121))
def test_support_hat_set_is_the_nonzero_cells(n):
    nonzero = {(x, k) for x in range(n + 1) for k in range(x + 1) if pal.F_hat(n, x, k) > 0}
    assert pal.support_hat_set(n).pairs == nonzero


@pytest.mark.parametrize("n", range(0, 31))
def test_support_hat_set_equals_enumeration(n):
    assert pal.support_hat_set(n).pairs == oracle.oracle_count(n, True).pairs()


def test_support_hat_set_n5_exact():
    assert pal.support_hat_set(5).pairs == frozenset(S_HAT_5)


def test_support_hat_set_n4():
    assert pal.support_hat_set(4).pairs == frozenset({(0, 0), (2, 1), (2, 2), (4, 4)})


def test_support_hat_size_formula_examples():
    assert pal.support_hat_size_formula(5) == 7
    assert pal.support_hat_size_formula(4) == 4
    with pytest.raises(ValueError):
        pal.support_hat_size_formula(1)


@pytest.mark.parametrize("n", range(2, 21))
def test_support_hat_formula_report(n):
    # claims-under-test: enumeration is authoritative; compare both values,
    # and (as it happens) the printed case formulas agree on this range
    enumerated, formula = len(pal.support_hat_set(n)), pal.support_hat_size_formula(n)
    assert enumerated == sum(pal.F_hat(n, x, k) > 0 for x in range(n + 1) for k in range(x + 1))
    assert formula == enumerated, f"printed |S_hat_{n}| formula disagrees: {formula}"


@pytest.mark.parametrize("n", range(0, 31))
def test_palindromic_global_identities(n):
    total = sum(pal.F_hat(n, x, k) for x in range(n + 1) for k in range(x + 1))
    assert total == 2 ** ((n + 1) // 2)
    for x in range(n + 1):
        row = sum(pal.F_hat(n, x, k) for k in range(x + 1))
        if n % 2 == 0 and x % 2 == 1:
            assert row == 0
        else:
            assert row == rc.binomial(n // 2, x // 2)


@pytest.mark.parametrize("n", range(1, 16))
def test_palindromic_fibonacci_identities(n):
    odd = 1 + sum(pal.F_hat(2 * n - 1, x, 1) for x in range(1, 2 * n))
    assert odd == fib_f(n)
    if n >= 2:
        even = 1 + sum(pal.F_hat(2 * n, 2 * i, 1) for i in range(1, n + 1))
        assert even == fib_f(n - 1)


@pytest.mark.parametrize("n", range(2, 31, 2))
def test_even_length_forces_even_zero_count(n):
    for x in range(1, n + 1, 2):
        for k in range(x + 1):
            assert pal.F_hat(n, x, k) == 0


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 600))
@example(0)
@example(1)
@example(2)
@example(599)
@example(600)
def test_row_prefix_sums_equal_run_avoiding_palindromes(n):
    # G_k, the palindromes of length n with zero-runs all at most k, from the
    # rows' cells k' <= k against the run-avoiding recurrence of sequences,
    # which shares no code with the rows' dot products
    bounded = [0] * (n + 1)
    for x in range(n + 1):
        row = pal._F_hat_row(n, x)
        want = 0 if n % 2 == 0 and x % 2 else math.comb(n // 2, x // 2)
        assert sum(row) == want, (n, x)
        bounded = [a + b for a, b in zip(bounded, accumulate(row + (0,) * (n - x)))]
    assert bounded == [_palindromic_bounded_run_terms(k, range(n, n + 1))[0]
                       for k in range(n + 1)]


@lru_cache(maxsize=2)
def prefix_states(h):
    """Counter of (zeros z, trailing zero-run t, longest finished run b)
    over the words of length h >= 0, one letter at a time from h - 1; the
    cache keeps the last two lengths, so ascending lengths cost one sweep."""
    if h == 0:
        return Counter({(0, 0, 0): 1})
    states = Counter()
    for (z, t, b), count in prefix_states(h - 1).items():
        states[z + 1, t + 1, b] += count
        states[z, 0, max(b, t)] += count
    return states


def prefix_dp_F_hat(n):
    """Counter of (x, k) over the palindromes of length n >= 0, with x zeros
    and longest zero-run k, from the words of their first ceil(n/2) letters
    (prefix_states); nothing here comes from zeroruns.  The last of those
    letters is the centre of an odd palindrome: it is counted once,
    x = 2z - [t > 0], and its run is 2t - 1.  An even palindrome has x = 2z
    and its middle run is 2t."""
    table = Counter()
    for (z, t, b), count in prefix_states((n + 1) // 2).items():
        if n % 2:
            table[2 * z - (t > 0), max(b, 2 * t - 1)] += count
        else:
            table[2 * z, max(b, 2 * t)] += count
    return table


@pytest.mark.parametrize("n", range(0, 121))
def test_F_hat_equals_prefix_dp(n):
    table = prefix_dp_F_hat(n)
    assert sum(table.values()) == 2 ** ((n + 1) // 2)
    for x in range(n + 1):
        for k in range(n + 1):
            assert pal.F_hat(n, x, k) == table[x, k], (n, x, k)
