import time
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeroruns import compositions as comp, oracle, sequences as seq
from zeroruns.palindromic import F_hat
from zeroruns.runcount import F
from zeroruns.verify import _run_avoiding_by_F


def test_fib_f():
    assert [seq.fib_f(n) for n in range(1, 6)] == [2, 3, 5, 8, 13]
    with pytest.raises(ValueError):
        seq.fib_f(0)


def test_T_examples():
    assert seq.T(2, 3) == 5
    assert seq.T(3, 4) == 13
    for r in range(2, 7):
        assert seq.T(r, r) == 2**r - 1
        for s in range(1, r):
            assert seq.T(r, s) == 2**s
    with pytest.raises(ValueError):
        seq.T(1, 3)
    with pytest.raises(ValueError):
        seq.T(2, 0)


def test_O_examples():
    assert seq.O(2, 3) == 10
    for r in range(2, 7):
        for s in range(1, r + 1):
            assert seq.O(r, s) == s * 2 ** (s - 1)
    with pytest.raises(ValueError):
        seq.O(1, 3)


@pytest.mark.parametrize("r", range(2, 7))
@pytest.mark.parametrize("n", range(1, 13))
def test_T_and_O_paths_agree_with_oracle(r, n):
    t = seq.T(r, n)
    assert t == _run_avoiding_by_F(r, n, False) == oracle.oracle_T(r, n)
    o = seq.O(r, n)
    assert o == _run_avoiding_by_F(r, n, True) == oracle.oracle_zero_total(r, n)


def list_recurrence(r, n):
    """T(r, s) and O(r, s) for s = 0..n by the full-length list recurrences."""
    t = [1] * (n + 1)
    for s in range(1, min(r, n + 1)):
        t[s] = 2**s
    if n >= r:
        t[r] = 2**r - 1
    for m in range(r + 1, n + 1):
        t[m] = sum(t[m - i] for i in range(1, r + 1))
    o = [0] * (n + 1)
    for s in range(1, min(r, n) + 1):
        o[s] = s * 2 ** (s - 1)
    for m in range(r + 1, n + 1):
        o[m] = sum(o[m - i] for i in range(1, r + 1)) + t[m]
    return t, o


# The first n that _run_terms jumps to by square-and-multiply instead of
# stepping, 4 n > r^4 + 256 r, for T and O alike:
#   r      2    3    4    5    6     7     8    13      40
#   n    133  213  321  477  709  1049  1537  7973  642561
FIRST_FAR = {2: 133, 3: 213, 4: 321, 5: 477, 6: 709, 7: 1049, 8: 1537, 13: 7973}


@contextmanager
def jumps_recorded():
    """The n of every jump that _run_terms makes while the block runs."""
    jumps = []
    jump = seq._x_powers_mod
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seq, "_x_powers_mod", lambda poly, n: jumps.append(n) or jump(poly, n))
        yield jumps


@pytest.mark.parametrize("r", sorted(FIRST_FAR))
def test_first_far_n(r):
    m = FIRST_FAR[r]
    with jumps_recorded() as jumps:
        for power in (1, 2):
            for n in (m - 1, m):
                list(seq._run_terms(r, power, range(n, n + 1)))
    assert jumps == [m, m]


def stepped_from_0(r, power, stop):
    """The terms at 0 .. stop - 1 from one range, which must never jump."""
    with jumps_recorded() as jumps:
        terms = list(seq._run_terms(r, power, range(stop)))
    assert jumps == []
    return terms


@pytest.mark.parametrize("r", range(2, 14))
def test_far_windows_equal_stepping(r):
    # windows from the jump, read off T by the identity for O, that end
    # inside the first window (1, r terms), fill it (r + 1) or step on from it
    m = (r**4 + 256 * r) // 4 + 1  # the first far n
    starts, counts = (m - 1, m, m + 1, m + 2 * r + 7, 3 * m), (1, r, r + 1, r + 2)
    for power in (1, 2):
        stepped = stepped_from_0(r, power, 3 * m + r + 2)
        for start in starts:
            for count in counts:
                far = list(seq._run_terms(r, power, range(start, start + count)))
                assert far == stepped[start:start + count], (power, start, count)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10).flatmap(lambda r: st.tuples(
    st.just(r), st.integers(0, 5000), st.integers(1, 2 * r + 3))))
@example((2, 133, 7))
@example((10, 3141, 23))
def test_far_windows_equal_stepping_anywhere(case):
    r, start, count = case
    for power in (1, 2):
        far = list(seq._run_terms(r, power, range(start, start + count)))
        assert far == stepped_from_0(r, power, start + count)[start:], power


@pytest.mark.parametrize("r", range(1, 13))
def test_O_is_read_off_T_by_the_identity(r):
    # against the dense r-term recurrences, which share no code with the kernel
    t, o = list_recurrence(r, 300 + r)
    d, a, b = seq._o_by_t(r)
    assert d > 0 and len(a) == len(b) == r
    for n in range(300):
        assert d * o[n] == sum((a[j] + n * b[j]) * t[n + j] for j in range(r)), n


def test_zero_sequence_never_jumps():
    # B_(-1), read by the k = 0 column sums, is all zeros: no start is far
    ns = range(2, 51)
    with jumps_recorded() as jumps:
        assert [seq.column_sum(n, 0) for n in ns] == [column_sum_by_F(n, 0) for n in ns]
        assert [seq.palindromic_column_sum(n, 0) for n in ns] == [
            palindromic_column_sum_by_F_hat(n, 0) for n in ns]
        assert list(seq._run_terms(0, 2, range(100, 105))) == [0] * 5
    assert jumps == []


@pytest.mark.parametrize("r", range(2, 9))
def test_T_and_O_match_list_recurrence(r):
    # covers n < r, n = r, n < 2r, and each side of the first far n
    t, o = list_recurrence(r, 2600)
    ns = [*range(1, 401), *(FIRST_FAR[r] + i for i in (-1, 0, 1)), 2600]
    assert [seq.T(r, n) for n in ns] == [t[n] for n in ns]
    assert [seq.O(r, n) for n in ns] == [o[n] for n in ns]


# r = 13 on each side of its first far n and past it; r = 40 would first
# jump at n = 642561, beyond the reach of list_recurrence, so it is stepped
@pytest.mark.parametrize("r, n", [(40, 45), (40, 79), (40, 80), (40, 300), (40, 1500),
                                  (13, 7972), (13, 7973), (13, 7974), (13, 15112),
                                  (13, 15113)])
def test_T_and_O_match_list_recurrence_at_large_r(r, n):
    t, o = list_recurrence(r, n)
    assert seq.T(r, n) == t[n]
    assert seq.O(r, n) == o[n]


@pytest.mark.parametrize("r", range(2, 7))
def test_run_ranges_equal_per_term_calls(r):
    # ranges starting below r and below 2r, one that steps past the first far
    # n (FIRST_FAR), and far starts
    for start, count in [(1, 1), (1, 2 * r + 3), (r - 1, 40), (2 * r - 1, 40),
                         (1, 160), (1000, 6), (30000, 3), (20000, 3)]:
        for name, term in (("t-run", seq.T), ("o-run", seq.O)):
            spec = seq.SequenceSpec(name, start, count, r=r)
            want = [term(r, n) for n in range(start, start + count)]
            assert seq.sequence(spec) == want, (name, start, count)


def fibonacci(n):
    """Fib(n) with Fib(0) = 0, Fib(1) = 1, by fast doubling."""
    a, b = 0, 1  # Fib(m), Fib(m + 1) for m = the bits of n read so far
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


@pytest.mark.parametrize("n", [1, 2, 3, 10**4, 10**5 + 1])
def test_T2_is_fibonacci(n):
    assert seq.T(2, n) == fibonacci(n + 2)


@pytest.mark.parametrize("r, n", [(2, 1500), (3, 1499), (5, 1501)])
def test_O_splits_at_each_zero(r, n):
    # a word with a zero at position j is a run-avoiding word of length j,
    # the zero, and a run-avoiding word of length n - 1 - j
    t = [1] + [seq.T(r, j) for j in range(1, n)]
    assert seq.O(r, n) == sum(t[j] * t[n - 1 - j] for j in range(n))


@pytest.mark.parametrize("r", range(2, 5))
def test_identity_paths_beyond_the_oracle_cap(r):
    assert oracle.DEFAULT_PLAIN_CAP < 23
    for n in range(23, 61):
        assert _run_avoiding_by_F(r, n, False) == seq.T(r, n)
        assert _run_avoiding_by_F(r, n, True) == seq.O(r, n)


def test_ones_total():
    assert seq.ones_total(6, 4, 2) == 12
    assert seq.ones_total(6, 6, 6) == 0
    with pytest.raises(ValueError):
        seq.ones_total(3, 4, 1)


@pytest.mark.parametrize("n", range(0, 13))
def test_ones_total_against_direct_count(n):
    totals: dict[tuple[int, int], int] = {}
    for w in oracle.iter_words(n):
        key = oracle.classify(w)
        totals[key] = totals.get(key, 0) + w.count("1")
    for x in range(n + 1):
        for k in range(x + 1):
            assert seq.ones_total(n, x, k) == totals.get((x, k), 0)


def test_fibonacci_column_identity():
    for n in range(1, 31):
        assert 1 + sum(F(n, x, 1) for x in range(1, n + 1)) == seq.fib_f(n)


def test_sequence_column_sums():
    spec = seq.SequenceSpec("column-sum", start=1, count=9, k=1)
    assert seq.sequence(spec) == [1, 2, 4, 7, 12, 20, 33, 54, 88]
    # the printed doubled list for palindromes is wrong at even lengths; the
    # true column sums follow the Fibonacci identities (see acceptance suite)
    spec = seq.SequenceSpec("palindromic-column-sum", start=1, count=10, k=1)
    assert seq.sequence(spec) == [1, 0, 2, 1, 4, 2, 7, 4, 12, 7]


def bounded_runs(k, count):
    """B_k(0) .. B_k(count - 1) from the kernel."""
    return list(seq._run_terms(k + 1, 1, range(count)))


@pytest.mark.parametrize("k", range(1, 13))
def test_bounded_runs_equal_T(k):
    # zero-runs at most k is no k + 1 consecutive zeros: T(k + 1, s) by
    # symmetry, here from list_recurrence, which shares no code with the kernel
    assert bounded_runs(k, 201) == list_recurrence(k + 1, 200)[0]


def test_bounded_runs_at_k_0_and_minus_1():
    assert bounded_runs(0, 50) == [1] * 50
    assert bounded_runs(-1, 50) == [0] * 50


@pytest.mark.parametrize("n", range(0, 25))
def test_palindromic_bounded_runs_against_palindromes(n):
    longest = [oracle.classify(w)[1] for w in oracle.iter_palindromes(n)]
    for k in range(-1, n + 2):
        want = sum(run <= k for run in longest)
        assert seq._palindromic_bounded_run_terms(k, range(n, n + 1)) == [want], k


# The column quantities as sums of F and F_hat over x, as they were computed
# before the bounded-run kernel; they stay as independent references.
def column_sum_by_F(n, k):
    return sum(F(n, x, k) for x in range(k, n + 1))


def palindromic_column_sum_by_F_hat(n, k):
    return sum(F_hat(n, x, k) for x in range(k, n + 1))


def distribution_by_F(m, palindromic):
    count = F_hat if palindromic else F
    n = m - 1
    return tuple(sum(count(n, x, s - 1) for x in range(n + 1)) for s in range(1, m + 1))


@pytest.mark.parametrize("n", range(-2, 71))
def test_column_sums_equal_F_sums(n):
    for k in range(-2, n + 3):
        assert seq.column_sum(n, k) == column_sum_by_F(n, k), k
        assert seq.palindromic_column_sum(n, k) == palindromic_column_sum_by_F_hat(n, k), k


@pytest.mark.parametrize("m", range(1, 72))
def test_distributions_equal_F_sums(m):
    for palindromic in (False, True):
        assert (comp.compositions_by_largest_summand(m, palindromic)
                == distribution_by_F(m, palindromic))


def bounded_runs_by_leading_block(k, count):
    """B_k(0) .. B_k(count - 1) by the leading block 0^i 1 with i <= k, a
    recurrence the kernel does not use."""
    b = []
    for s in range(count):
        b.append(1 << s if s <= k else sum(b[s - 1 - i] for i in range(k + 1)))
    return b


@pytest.mark.parametrize("k", range(-1, 9))
def test_column_sum_ranges_equal_per_term_calls(k):
    # ranges starting below 0, at 0, below k, at the first nonzero column
    # entry n = k, past it, and far out
    b_k, b_below = (bounded_runs_by_leading_block(j, 1160) for j in (k, k - 1))
    for start in (-2, 0, 1, k, k + 1, 1000):
        for count in (1, 2, 160):
            ns = range(start, start + count)
            plain = seq.sequence(seq.SequenceSpec("column-sum", start, count, k=k))
            assert plain == [seq.column_sum(n, k) for n in ns], (start, count)
            assert plain == [b_k[n] - b_below[n] if 0 <= k <= n else 0 for n in ns]
            hat = seq.sequence(seq.SequenceSpec("palindromic-column-sum", start, count, k=k))
            assert hat == [seq.palindromic_column_sum(n, k) for n in ns], (start, count)
    hat = seq.sequence(seq.SequenceSpec("palindromic-column-sum", -2, 60, k=k))
    assert hat == [palindromic_column_sum_by_F_hat(n, k) for n in range(-2, 58)]


def test_column_sum_at_large_n():
    assert seq.column_sum(3000, 5) == seq.T(6, 3000) - seq.T(5, 3000)


def test_column_sums_count_every_word_at_large_n():
    assert sum(seq.column_sum(2000, k) for k in range(2001)) == 2**2000


@pytest.mark.parametrize("n", [1000, 1001])
def test_palindromic_column_sums_count_every_palindrome_at_large_n(n):
    total = sum(seq.palindromic_column_sum(n, k) for k in range(n + 1))
    assert total == 2 ** ((n + 1) // 2)


def test_sequence_triangular():
    spec = seq.SequenceSpec("triangular", start=2, count=5)
    assert seq.sequence(spec) == [0, 1, 3, 6, 10]


def test_sequence_oblong():
    spec = seq.SequenceSpec("oblong", start=3, count=5, x=3)
    assert seq.sequence(spec) == [0, 2, 6, 12, 20]
    assert seq.sequence(seq.SequenceSpec("oblong", start=4, count=4, x=4)) == [
        0, 2, 6, 12,
    ]
    with pytest.raises(ValueError):
        seq.sequence(seq.SequenceSpec("oblong", start=3, count=2, x=2))


def test_sequence_tetrahedral():
    spec = seq.SequenceSpec("tetrahedral", start=5, count=5)
    assert seq.sequence(spec) == [1, 4, 10, 20, 35]


@pytest.mark.parametrize("r", [10**4, 10**6])
def test_runs_at_huge_r_cost_what_n_costs(r):
    # no word of length n < r holds r ones in a row, so every word counts
    began = time.perf_counter()
    for n in range(1, 6):
        assert seq.T(r, n) == 2**n
        assert seq.O(r, n) == n * 2 ** (n - 1)
    ns = range(1, 4)
    assert seq.sequence(seq.SequenceSpec("t-run", 1, 3, r=r)) == [2**n for n in ns]
    assert seq.sequence(seq.SequenceSpec("o-run", 1, 3, r=r)) == [n * 2 ** (n - 1) for n in ns]
    # up to n = r only the all-ones word of length r is barred
    assert seq.T(r, r - 1) == 1 << (r - 1) and seq.T(r, r) == (1 << r) - 1
    assert seq.O(r, r) == r << (r - 1)
    assert time.perf_counter() - began < 1


def test_sequence_fibonacci_and_runs():
    assert seq.sequence(seq.SequenceSpec("fibonacci-f", 1, 5)) == [2, 3, 5, 8, 13]
    assert seq.sequence(seq.SequenceSpec("t-run", 1, 4, r=2)) == [2, 3, 5, 8]
    assert seq.sequence(seq.SequenceSpec("o-run", 1, 3, r=2)) == [1, 4, 10]


def test_sequence_rejects_bad_specs():
    with pytest.raises(ValueError):
        seq.sequence(seq.SequenceSpec("no-such-sequence", 1, 3))
    with pytest.raises(ValueError):
        seq.sequence(seq.SequenceSpec("fibonacci-f", 1, 0))
    for name in ("t-run", "o-run"):
        for r in (1, 0, -1):
            for count in (1, 3):
                with pytest.raises(ValueError, match="r >= 2"):
                    seq.sequence(seq.SequenceSpec(name, 1, count, r=r))
        with pytest.raises(ValueError, match="n >= 1"):
            seq.sequence(seq.SequenceSpec(name, 0, 3))
