"""Large-n inputs that once exhausted the recursion limit, and the kernel
behind F checked against sums written out here.

Each expected value is computed here from first principles and shares no
code with the inclusion-exclusion or Gaussian-binomial engines.
"""

import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zeroruns
from zeroruns import compositions as comp, matrices as mat, palindromic as pal, runcount as rc
from test_palindromic import F_hat_per_cell


def gaps_at_most_2(gaps, zeros):
    """Ways to put `zeros` zeros into `gaps` gaps, at most 2 per gap:
    choose the j gaps holding two and then the gaps holding one."""
    return sum(
        math.comb(gaps, j) * math.comb(gaps - j, zeros - 2 * j)
        for j in range(zeros // 2 + 1)
    )


def gaps_at_most_3(gaps, zeros):
    """The same with at most 3 per gap, by 1+z+z^2+z^3 = (1+z)(1+z^2):
    the gap polynomial's power is a product of two binomial rows."""
    return sum(
        math.comb(gaps, i) * math.comb(gaps, (zeros - i) // 2)
        for i in range(zeros % 2, zeros + 1, 2)
    )


def bounded_direct(n, x, k, free=False):
    """Words of length n with x zeros and every zero-run <= k (k >= 0), the
    last run exempt when free: the inclusion-exclusion sum over the
    m + 1 - free bounded gaps, with one math.comb per term.  Terms past
    j = m + 1 - free or j = x // (k + 1) vanish."""
    m = n - x
    return sum(
        (-1) ** j * math.comb(m + 1 - free, j) * math.comb(n - j * (k + 1), m)
        for j in range(min(m + 1 - free, x // (k + 1)) + 1)
    )


def row_by_binomial_column(n, x):
    """F(n, x, k) for k = 0..x from one column C(m+t, m), t = 0..x, and
    one row C(m+1, j): every A_k is a signed dot product of the two."""
    m = n - x
    column = [1]
    for t in range(x):
        column.append(column[-1] * (m + t + 1) // (t + 1))
    row = [1]
    for j in range(m + 1):
        row.append(row[-1] * (m + 1 - j) // (j + 1))
    bounded = [
        sum((-1) ** j * row[j] * column[x - j * (k + 1)]
            for j in range(min(m + 1, x // (k + 1)) + 1))
        for k in range(x + 1)
    ]
    return [bounded[0]] + [bounded[k] - bounded[k - 1] for k in range(1, x + 1)]


def clear_kernel():
    rc._F_rows.clear()
    pal._F_hat_rows.clear()


def count_builds(monkeypatch, store):
    """The keys whose rows store builds from now on, one per miss: a spy on
    store.build, which the store calls on each miss and nothing else does."""
    built, build = [], store.build
    monkeypatch.setattr(store, "build", lambda n, x: built.append((n, x)) or build(n, x))
    return built


def test_bounded_against_direct_sum():
    clear_kernel()
    for n in range(61):
        for x in range(n + 1):
            # includes k > x, and the empty sums where x > (n - x + 1) k
            for k in range(n + 2):
                for free in (False, True):
                    want = bounded_direct(n, x, k, free)
                    assert rc._bounded(n, x, k, math.comb(n, x), free) == want, (n, x, k, free)
                    if free:  # whole = 0 leaves the corrections, the terms j >= 1
                        assert rc._bounded(n, x, k, 0, True) == want - math.comb(n, x), (n, x, k)
    # a palindromic correction may ask for x = -1 zeros: no term at all
    for n, k in ((0, 1), (5, 1), (5, 3), (40, 7)):
        assert rc._bounded(n, -1, k, 0, True) == 0, (n, k)


def rows(n_min, n_max, x_min, x_max):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min(x_min, n), min(x_max, n))))


def cells(row_strategy):
    return row_strategy.flatmap(
        lambda row: st.tuples(*map(st.just, row), st.integers(0, row[1] + 1)))


# F reads whole rows built by dot products while x * bit_length(n // x)
# <= 4096, which holds for every n <= 4096 and for small x, and steps each
# cell past it, as at n >= 2 * 10^5, x >= 600; _bounded always steps.
SMALL_X = rows(0, 10**6, 0, 60)
LARGE_X = rows(0, 4096, 0, 4096)
STEPPED = rows(2 * 10**5, 10**6, 600, 700)


@settings(max_examples=40, deadline=None)
@given(cells(SMALL_X) | cells(LARGE_X) | cells(STEPPED))
def test_bounded_equals_direct_sum_on_random_cells(cell):
    n, x, k = cell
    assert rc._bounded(n, x, k, math.comb(n, x)) == bounded_direct(n, x, k)


def F_few_ones(n, x, k):
    """F(n, x, k) for k >= 1 as A_k - A_(k-1), each the plain sum of
    bounded_direct: with m = n - x ones every term is one math.comb of lower
    index m, and no term is read off another."""
    return bounded_direct(n, x, k) - bounded_direct(n, x, k - 1)


def F_hat_few_ones(n, x, k):
    """F_hat(n, x, k) for k >= 1 from the gaps between the n - x ones.  An
    odd count has a central one, and the palindrome is its half word twice.
    An even count 2p leaves p mirrored gaps beside a central gap of c zeros,
    c = x (mod 2); the palindromes with every run at most k put s = (x - c) / 2
    zeros into the p gaps, at most k each, for every c <= min(k, x), and
    inclusion-exclusion over the gaps forced past k, summed over s by the
    hockey stick sum_(t <= T) C(t + p - 1, p - 1) = C(T + p, p), gives each
    term as two binomials of lower index p."""
    ones = n - x
    if ones % 2:
        return F_few_ones(n // 2, x // 2, k) if n % 2 else 0
    p = ones // 2

    def at_most(k):
        if p == 0:  # the all-zero word
            return int(x <= k)
        top = min(k, x) - (min(k, x) - x) % 2  # the largest centre c
        if top < 0:
            return 0
        low, high = (x - top) // 2, x // 2  # the range of s

        def stick(t):
            return math.comb(t + p, p) if t >= 0 else 0

        return sum((-1) ** j * math.comb(p, j)
                   * (stick(high - j * (k + 1)) - stick(low - 1 - j * (k + 1)))
                   for j in range(p + 1))

    return at_most(k) - at_most(k - 1)


def few_ones_ks(n, x):
    """k near each edge of the support and of the closed forms, within 1..x."""
    edges = {1, 2, x // 9, x // 4, x // 3, x // 2, x}
    if x < n:
        edges |= {rc.min_k(n, x), (n // 2) // (n // 2 - x // 2 + 1)}
    return sorted({e + d for e in edges for d in (-1, 0, 1)} & set(range(1, x + 1)))


def test_few_ones_cells_equal_the_plain_sums():
    # past the dot side, where _bounded steps by the binomials of lower index m
    for n in (10**4, 30001, 10**5, 10**5 + 1, 10**6, 10**6 + 1):
        for m in range(9):
            x = n - m
            assert not rc._dot_side(n, x) and not rc._dot_side(n // 2, x // 2)
            for k in few_ones_ks(n, x):
                assert rc.F(n, x, k) == F_few_ones(n, x, k), (n, x, k)
                assert pal.F_hat(n, x, k) == F_hat_few_ones(n, x, k), (n, x, k)
    assert rc.F(10**6, 10**6 - 3, 300000) == F_few_ones(10**6, 10**6 - 3, 300000) == 80002400020
    assert pal.F_hat(2 * 10**6 + 1, 2 * 10**6 - 5, 300001) == 5001200074


def test_few_ones_references_equal_the_kernel_at_small_n():
    for n in range(1, 41):
        for x in range(max(n - 8, 0), n + 1):
            for k in range(1, x + 1):
                assert F_few_ones(n, x, k) == rc.F(n, x, k), (n, x, k)
                assert F_hat_few_ones(n, x, k) == F_hat_per_cell(n, x, k), (n, x, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(1000, 10**6).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(n - 8, n)).flatmap(lambda row: st.tuples(
        *map(st.just, row), st.integers(1, row[1])))))
def test_few_ones_cells_equal_the_plain_sums_on_random_cells(cell):
    assert rc.F(*cell) == F_few_ones(*cell)
    assert pal.F_hat(*cell) == F_hat_few_ones(*cell)


@settings(max_examples=20, deadline=None)
@given(SMALL_X | LARGE_X | STEPPED)
def test_row_sums_and_diagonal_on_random_rows(row):
    n, x = row
    assert sum(rc.F(n, x, k) for k in range(x + 1)) == math.comb(n, x)
    if x:
        assert rc.F(n, x, x) == n - x + 1


def row_by_inclusion_exclusion(n, x):
    """F(n, x, k) for k = 0..x, each cell A_k - A_(k-1) with A_k the sum of
    bounded_direct; the row's cells share its x + 1 values C(n - t, m)."""
    m = n - x
    comb = functools.lru_cache(maxsize=None)(math.comb)
    bounded = [
        sum((-1) ** j * math.comb(m + 1, j) * comb(n - j * (k + 1), m)
            for j in range(min(m + 1, x // (k + 1)) + 1))
        for k in range(x + 1)
    ]
    return (bounded[0], *(bounded[k] - bounded[k - 1] for k in range(1, x + 1)))


def test_rows_equal_inclusion_exclusion_to_order_100():
    # _F_row takes cell 1 and every cell past x // 2 from closed forms and
    # the rest from dot products; the reference sums every cell term by term
    for n in range(101):
        for x in range(n + 1):
            assert rc._F_row(n, x) == row_by_inclusion_exclusion(n, x), (n, x)


@settings(max_examples=15, deadline=None)
@given(rows(0, 3000, 0, 3000))
@example((2992, 1495))
@example((3000, 3000))
@example((3001, 1))
def test_rows_equal_inclusion_exclusion_on_random_rows(row):
    assert rc._F_row(*row) == row_by_inclusion_exclusion(*row)


def test_cells_past_half_the_zeros_equal_the_closed_form():
    for n in range(1, 101):
        for x in range(1, n):
            row = rc._F_row(n, x)
            for k in range(x // 2 + 1, x + 1):
                assert row[k] == rc.F_closed_high_k(n, x, k), (n, x, k)
    for n, x in ((10**5, 5 * 10**4), (2 * 10**5, 650), (2 * 10**5 + 1, 651)):
        assert not rc._dot_side(n, x)
        for k in (x // 2 + 1, x // 2 + 2, (3 * x) // 4, x - 1, x):
            assert rc.F(n, x, k) == rc.F_closed_high_k(n, x, k), (n, x, k)


@settings(max_examples=10, deadline=None)
@given(STEPPED)
@example((20001, 10000))
@example((10**5, 10**5))
@example((10**5, 10**5 - 1))
def test_stepped_cells_from_closed_forms_equal_stepping(row):
    # past the dot side, F answers k = 1 and k > x // 2 with one binomial;
    # _bounded steps both A_k and A_(k-1) there and at k = x // 2
    n, x = row
    assert not rc._dot_side(n, x)
    whole = math.comb(n, x)
    for k in {1, x // 2, x // 2 + 1, x}:
        stepped = (rc._bounded(n, x, k, whole) - rc._bounded(n, x, k - 1, whole)
                   if rc.feasible(n, x, k) else 0)
        assert rc.F(n, x, k) == stepped, (n, x, k)


def test_kernel_side_of_each_row(monkeypatch):
    clear_kernel()
    built = count_builds(monkeypatch, rc._F_rows)
    built_hat = count_builds(monkeypatch, pal._F_hat_rows)
    for n, x in ((3014, 1507), (2992, 1495), (10**5, 5 * 10**4)):
        # k = x // 2 keeps the direct sum to two terms
        k = x // 2
        assert rc.F(n, x, k) == bounded_direct(n, x, k) - bounded_direct(n, x, k - 1), (n, x)
    assert built == [(3014, 1507), (2992, 1495)]
    # F_hat's side is that of the half row: (601, 301) halves to (300, 150),
    # and (2 * 10**5 + 1, 10**5 + 1) to (10**5, 5 * 10**4), which steps
    for n, x in ((601, 301), (2 * 10**5 + 1, 10**5 + 1)):
        pal.F_hat(n, x, x // 2)
    assert built_hat == [(601, 301)]


def estimate(row):
    """The bytes a row store counts for row: an 8-byte slot per entry, 28
    more for each nonzero int and one per 8 bits."""
    return 8 * len(row) + 28 * sum(1 for v in row if v) + sum(v.bit_length() for v in row) // 8


def assert_sweep_is_bounded(monkeypatch, store, rows, budget=4096):
    """Read each of rows, distinct and none stored, with the row budget cut
    to `budget` bytes: the store's running total is the estimate of the rows
    it holds, it never exceeds the budget plus the largest row read, and
    the budget cleared the store at least once."""
    monkeypatch.setattr(rc, "_ROW_CACHE_BYTES", budget)
    store.clear()
    built = count_builds(monkeypatch, store)
    held, largest, clears = [], 0, 0
    for n, x in rows:
        row = store[n, x]
        size = estimate(row)
        largest = max(largest, size)
        if held and len(store) == 1:  # cleared for this row
            held, clears = [], clears + 1
        held.append(size)
        assert store.held == sum(held) <= budget + largest, (n, x)
        assert len(store) == len(held)
    assert clears and len(built) == len(rows)


def test_vector_cache_is_bounded(monkeypatch):
    # the two row stores of whole rows, _F_rows and _F_hat_rows, hold what the
    # deleted cache of binomial vectors held, and must stay as bounded: every
    # row of the orders up to 60, then the rows of the queries workload
    # (moderate n at a share of n, large n with x <= 12, and x ~ n / 2 near
    # n = 3000, a row larger than the budget alone)
    moderate = zip((22, 33, 44, 55, 66, 77, 88, 99, 108),
                   (0.5, 0.2, 0.8, 0.35, 0.65, 0.5, 0.25, 0.75, 0.45))
    rows = [(n, x) for n in range(61) for x in range(n + 1)]
    rows += [(n, round(share * n)) for n, share in moderate]
    rows += [(round(10 ** (3 + j / 4)) + j % 2, x) for j, x in enumerate(range(1, 13))]
    rows += [(3000, 1500)]
    for store in (rc._F_rows, pal._F_hat_rows):
        assert_sweep_is_bounded(monkeypatch, store, list(dict.fromkeys(rows)))


def test_uncached_builder_leaves_the_row_cache_alone(monkeypatch):
    clear_kernel()
    built = count_builds(monkeypatch, rc._F_rows)
    rc.F(300, 150, 3)
    state = dict(rc._F_rows), rc._F_rows.held
    assert built == list(state[0]) == [(300, 150)] and state[1] > 0
    for n, x in ((300, 150), (301, 150)):
        rc._F_row(n, x)
        assert (dict(rc._F_rows), rc._F_rows.held) == state and len(built) == 1
    rc._F_rows.clear()
    assert len(rc._F_rows) == 0 and rc._F_rows.held == 0


def measured(rows):
    """sys.getsizeof of each tuple and of each int outside the interpreter's
    shared small ints, -5..256, which cost the tuple its slot alone."""
    return sum(sys.getsizeof(row) + sum(sys.getsizeof(v) for v in row if not -5 <= v <= 256)
               for row in rows)


@pytest.mark.parametrize("n", [400, 800])
def test_row_store_estimate_is_close_to_measured_bytes(n):
    # a zero costs a tuple slot, not an int, and most palindromic entries
    # are zero: every row of both kinds of one order is counted within 10%
    for kind, store in (("plain", rc._F_rows), ("palindromic", pal._F_hat_rows)):
        store.clear()
        mat.build_matrix(n, kind)
        assert len(store) == n + 1, kind
        assert abs(store.held - measured(store.values())) <= measured(store.values()) / 10, kind


def test_half_length_row_cold_in_both_orders():
    n, x = 2992, 1495
    expected = row_by_binomial_column(n, x)
    assert sum(expected) == math.comb(n, x)
    assert expected[x] == n - x + 1
    for order in (range(x + 1), range(x, -1, -1)):
        clear_kernel()
        row = {k: rc.F(n, x, k) for k in order}
        assert [row[k] for k in range(x + 1)] == expected


# words of length 3000 with 1500 zeros and longest zero-run exactly 3
F_3000_1500_3 = gaps_at_most_3(1501, 1500) - gaps_at_most_2(1501, 1500)


def test_row_sum_and_diagonal_at_a_million():
    n = 10**6
    assert sum(rc.F(n, 10, k) for k in range(11)) == (
        math.prod(range(n - 9, n + 1)) // math.factorial(10)
    )
    for x in range(1, 11):
        assert rc.F(n, x, x) == n - x + 1


def test_half_length_row_at_3000():
    assert rc.F(3000, 1500, 3) == F_3000_1500_3


# x just below n / 2 keeps the half row (n // 2, x // 2) past the dot side
# for every n >= 9000, so F_hat steps these cells alone (_F_hat_cell)
PAST_THE_GATE = st.integers(9000, 30000).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(n // 2 - 40, n // 2), st.integers(0, 40)))


@settings(max_examples=12, deadline=None)
@given(PAST_THE_GATE)
@example((9000, 4500, 1))
@example((9001, 4499, 2))
@example((9001, 4500, 3))
def test_stepped_palindromic_cells_equal_per_centre_sums(cell):
    # the reference sums rc.F over the centres one at a time, which no
    # production path does any more
    n, x, _ = cell
    assert not rc._dot_side(n // 2, x // 2)
    assert pal.F_hat(*cell) == F_hat_per_cell(*cell)


def test_stepped_palindromic_cells_at_mid_k_equal_their_row():
    row = pal._F_hat_row(12000, 6000)
    # y = 3000: the corrections of k = 3000 are 0, those of k - 1 one term;
    # past y only the central block 0^k is left, for even k
    for k in (1500, 2000, 2999, 3000, 3001, 5999, 6000):
        assert pal._F_hat_cell(12000, 6000, k) == row[k], k


def test_lone_central_one_cells_call_no_stepping(monkeypatch):
    # odd n, even x: the cell is F's of the half row (10^5, 5 * 10^4), one
    # binomial at k = 1 and past x // 4, half the half row's zeros
    calls = []

    def spy(*args):
        calls.append(args)
        return bounded(*args)

    bounded = rc._bounded
    monkeypatch.setattr(rc, "_bounded", spy)
    monkeypatch.setattr(pal, "_bounded", spy)
    n, x = 2 * 10**5 + 1, 10**5
    assert not rc._dot_side(n // 2, x // 2)
    assert pal._F_hat_cell(n, x, 1) == rc.binomial(n // 2 - x // 2 + 1, x // 2)
    for k in (x // 4 + 1, x // 4 + 2, 30001, x // 2 - 1, x // 2):
        assert pal._F_hat_cell(n, x, k) == rc.F_closed_high_k(n // 2, x // 2, k), k
    assert calls == []
    # past x // 2 no half row holds the run
    assert pal._F_hat_cell(n, x, x // 2 + 1) == 0


def test_palindromes_at_6001():
    # even zero count at odd length: the centre is a one and each half is a
    # length-3000 word with 1500 zeros and the same longest run
    assert pal.F_hat(6001, 3000, 3) == F_3000_1500_3


def test_partition_classes_at_4600():
    # one part 3 stripped: partitions of 2997 into at most 1600 parts <= 3
    direct = sum(
        1
        for c3 in range(2997 // 3 + 1)
        for c2 in range((2997 - 3 * c3) // 2 + 1)
        if (2997 - 3 * c3 - 2 * c2) + c2 + c3 <= 1600
    )
    assert comp.P(4600, 3000, 3) == direct
    # odd length, even zero count: a plain class at half length
    assert comp.P_hat(9201, 6000, 3) == direct


def test_cli_count_at_3000_exits_zero():
    src = str(Path(zeroruns.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "zeroruns.cli", "count", "F", "3000", "1500", "3",
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["count"] == F_3000_1500_3
