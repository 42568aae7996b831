from functools import cache
from itertools import accumulate
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeroruns import compositions as comp, oracle, palindromic as pal, runcount as rc
from zeroruns import sequences as seq
from zeroruns.palindromic import F_hat
from zeroruns.runcount import F, support_contains, support_set
from test_large_n import assert_sweep_is_bounded, count_builds
from test_palindromic import F_hat_per_cell
from zeroruns.verify import _zeros_by_F


def enumerate_compositions(m, palindromic=False):
    words = oracle.iter_palindromes(m - 1) if palindromic else oracle.iter_words(m - 1)
    return [oracle.string_to_composition(w) for w in words]


def test_distribution_examples():
    dist = comp.compositions_by_largest_summand(4)
    assert dist[1] == 4  # 2+2, 2+1+1, 1+2+1, 1+1+2
    assert dist[0] == 1  # all-ones composition
    assert sum(comp.compositions_by_largest_summand(7, palindromic=True)) == 8
    assert comp.compositions_by_largest_summand(1) == (1,)
    with pytest.raises(ValueError):
        comp.compositions_by_largest_summand(0)


# Up to m = 65 the kernel steps every B_k from its head: a jump, which
# computes its own head terms through _run_terms, needs 4 (m - 1) > 257.
@pytest.mark.parametrize("palindromic", [False, True])
@pytest.mark.parametrize("m", [1, 2, 7, 40, 65])
def test_distribution_steps_each_bounded_total_once(monkeypatch, m, palindromic):
    passes = []
    kernel = seq._run_terms

    def spy(r, power, ns):
        passes.append(r)
        return kernel(r, power, ns)

    monkeypatch.setattr(seq, "_run_terms", spy)
    comp.compositions_by_largest_summand(m, palindromic)
    assert len(passes) <= m + 1
    assert len(set(passes)) == len(passes)


@pytest.mark.parametrize("palindromic", [False, True])
@pytest.mark.parametrize("m", range(1, 16))
def test_distribution_matches_enumeration(m, palindromic):
    direct = [0] * m
    for parts in enumerate_compositions(m, palindromic):
        direct[max(parts) - 1] += 1
    assert comp.compositions_by_largest_summand(m, palindromic) == tuple(direct)
    expected_total = 2 ** (m // 2) if palindromic else 2 ** (m - 1)
    assert sum(direct) == expected_total


def test_sign_and_summand_examples():
    assert comp.plus_signs_total(4) == 12
    assert comp.summands_total(4) == 20
    assert comp.plus_signs_total(5, palindromic=True) == 8
    assert comp.plus_signs_total(2) == 1
    assert comp.summands_total(2) == 3
    with pytest.raises(ValueError):
        comp.plus_signs_total(1)


@pytest.mark.parametrize("palindromic", [False, True])
@pytest.mark.parametrize("m", [-3, 0, 1])
def test_summands_total_rejects_short_m_by_its_own_name(m, palindromic):
    with pytest.raises(ValueError, match="^summands_total is defined for m >= 2$"):
        comp.summands_total(m, palindromic)


@pytest.mark.parametrize("palindromic", [False, True])
@pytest.mark.parametrize("m", range(2, 16))
def test_sign_and_summand_paths_match_enumeration(m, palindromic):
    compositions = enumerate_compositions(m, palindromic)
    signs = sum(len(parts) - 1 for parts in compositions)
    summands = sum(len(parts) for parts in compositions)
    assert comp.plus_signs_total(m, palindromic) == signs
    assert comp.summands_total(m, palindromic) == summands
    # the sum over F, and one summand more than '+' signs per composition
    by_F = _zeros_by_F(m - 1, palindromic)
    assert (by_F, by_F + len(compositions)) == (signs, summands)
    if not palindromic:
        assert signs == (m - 1) * 2 ** (m - 2)
        assert summands == (m + 1) * 2 ** (m - 2)


def printed_totals(m, palindromic):
    """The printed closed forms of the '+' sign total and, with m + 1 in
    place of m - 1, of the summand total over the compositions of m >= 2."""
    def printed(c):
        if not palindromic:
            return c * 2 ** (m - 2)
        if m % 2:
            return c // 2 * 2 ** ((m - 1) // 2)
        return c * 2 ** (m // 2 - 1)
    return printed(m - 1), printed(m + 1)


@pytest.mark.parametrize("palindromic", [False, True])
def test_sign_and_summand_totals_equal_printed_forms(palindromic):
    for m in range(2, 400):
        signs, summands = printed_totals(m, palindromic)
        assert comp.plus_signs_total(m, palindromic) == signs, m
        assert comp.summands_total(m, palindromic) == summands, m
        if m <= 40:
            # the sum over F, and one summand more than '+' signs per composition
            by_F = _zeros_by_F(m - 1, palindromic)
            count = 2 ** (m // 2) if palindromic else 2 ** (m - 1)
            assert (by_F, by_F + count) == (signs, summands), m


def test_two_count_palindromic():
    assert comp.two_count_palindromic(2) == 1
    assert comp.two_count_palindromic(3) == 0
    assert comp.two_count_palindromic(4) == 3
    with pytest.raises(ValueError):
        comp.two_count_palindromic(1)


@pytest.mark.parametrize("m", range(2, 16))
def test_two_count_matches_enumeration(m):
    twos = sum(
        sum(1 for c in parts if c == 2)
        for parts in enumerate_compositions(m, palindromic=True)
        if max(parts) <= 2
    )
    assert comp.two_count_palindromic(m) == twos


def diagonal(N):
    """C(N - j, j) for 0 <= j <= N // 2, each from the one before by two
    exact one-factor ratio steps: with a = N - j, C(a - 1, j) = C(a, j)
    (a - j) / a and C(a - 1, j + 1) = C(a - 1, j) (a - 1 - j) / (j + 1)."""
    cells = [1]
    for j in range(N // 2):
        a = N - j
        cell = cells[-1] * (a - j) // a
        cells.append(cell * (a - 1 - j) // (j + 1))
    return cells


def walked_column(n):
    """F_hat(n, x, 1) for 1 <= x <= n at index x (index 0 is not a cell):
    the palindromes of length n with no "00" and x zeros.  Cell x = 2j + r
    is C(N - j, j) with N = (n + 1) // 2 - r, the j zeros of a half (a
    central zero aside) in distinct gaps among its ones, and 0 for odd x at
    even n; see palindromic._F_hat_cell at k = 1."""
    column = [0] * (n + 1)
    for r in (0, 1) if n % 2 else (0,):
        for j, cell in enumerate(diagonal((n + 1) // 2 - r)):
            column[2 * j + r] = cell
    return column


def test_two_count_palindromic_equals_its_column_cell_by_cell():
    # the weighted column sum of F_hat(m - 1, x, 1) over x, its cells walked
    # down each diagonal of binomials (one math.comb per cell takes 20-30 s)
    # and held to the stepped cells of _F_hat_cell while m < 400
    for m in range(2, 3000):
        column = walked_column(m - 1)
        if m < 400:
            assert column[1:] == [pal._F_hat_cell(m - 1, x, 1) for x in range(1, m)], m
        assert comp.two_count_palindromic(m) == sum(x * c for x, c in enumerate(column)), m


def test_P_golden_values():
    assert comp.P(6, 4, 2) == 2
    assert comp.P(10, 7, 3) == 3
    assert comp.P(0, 0, 0) == 1
    assert comp.P(4, 3, 1) == 0  # empty class
    for n in range(1, 12):
        for x in range(1, n + 1):
            assert (comp.P(n, x, 1) == 1) == (F(n, x, 1) > 0)


@pytest.mark.parametrize("n", range(4, 41))
def test_P_two_blocks_rule(n):
    # k = 2: one class per feasible number of 00-blocks
    for x in range(4, n + 1):
        if support_contains(n, x, 2):
            assert comp.P(n, x, 2) == min(n - x - (x + 1) // 2 + 2, x // 2), (n, x)


def test_P_does_not_depend_on_warm_state_or_call_order():
    table = oracle.oracle_partition_table(12)
    triples = [(12, x, k) for x in range(13) for k in range(x + 1)]
    want = [table.get((x, k), 0) for _, x, k in triples]
    comp._P_rows.clear()
    assert [comp.P(*t) for t in reversed(triples)] == want[::-1]
    assert [comp.P(*t) for t in triples] == want


def test_palindromic_layer_does_not_depend_on_warm_state_or_call_order():
    counts = oracle.oracle_count(12, palindromic=True)
    table = oracle.oracle_partition_table(12, palindromic=True)
    triples = [(12, x, k) for x in range(13) for k in range(x + 1)]
    for count, want in ((pal.F_hat, [counts.count(x, k) for _, x, k in triples]),
                        (comp.P_hat, [table.get((x, k), 0) for _, x, k in triples])):
        rc._F_rows.clear()
        pal._F_hat_rows.clear()
        comp._P_rows.clear()
        assert [count(*t) for t in triples] == want
        rc._F_rows.clear()
        pal._F_hat_rows.clear()
        comp._P_rows.clear()
        assert [count(*t) for t in reversed(triples)] == want[::-1]
        assert [count(*t) for t in triples] == want


@cache
def box_partitions(t, a, b):
    """Partitions of t into at most a parts, each at most b: either no part
    equals b, or one part b comes off."""
    if t == 0:
        return 1
    if t < 0 or a == 0 or b == 0:
        return 0
    return box_partitions(t, a, b - 1) + box_partitions(t - b, a - 1, b)


def test_partition_kernel_against_dp():
    # bounds on both sides of t, so every clipped, swapped and reflected
    # coefficient is reached, and t > ab too
    for t in range(41):
        for a in range(46):
            for b in range(46):
                assert comp._box_sum((t,), a, b) == box_partitions(t, a, b), (t, a, b)


@pytest.mark.parametrize("triples", [
    [(n, 8, 3) for n in range(13, 60)],  # t = 5, a = n - 8 >= 5 clips to 5
    [(20, 5, 4), (20, 6, 5)],            # t = 1, both bounds clip to 1
    [(11, 7, 3), (11, 8, 4)],            # t = 4, bounds (4, 3) and (3, 4)
])
def test_partition_kernel_key_is_shared_across_orders(triples):
    # the kernel cells (t, a, b) = (x - k, n - x, k) of the cells (n, x, k):
    # bounds clipped to t and swapped by conjugation give one class, one value
    values = {comp._box_sum((x - k,), n - x, k) for n, x, k in triples}
    assert len(values) == 1
    n, x, k = triples[0]
    assert values == {box_partitions(x - k, n - x, k)}


def test_P_row_against_dp():
    for n in range(61):
        for x in range(n + 1):
            want = [int(x == 0)] + [box_partitions(x - k, n - x, k) for k in range(1, x + 1)]
            assert list(comp._P_row(n, x)) == want, (n, x)


# rows up to the row side, n up to 10^6 where x is small; a row's kernel
# cells cost up to about a second at x = 512, so a sample of them is read
@settings(max_examples=25, deadline=None)
@given(st.integers(0, comp._ROW_SIDE).flatmap(lambda x: st.tuples(
    st.integers(x, 10**6 if x <= 60 else 2 * x + 100), st.just(x),
    st.lists(st.integers(0, x), min_size=1, max_size=12))))
@example((513, 512, [0, 1, 2, 170, 256, 511, 512]))
@example((1100, 512, [1, 3, 170, 341, 512]))
@example((10**6, 60, list(range(61))))
def test_P_row_equals_kernel_cells(case):
    n, x, ks = case
    row = comp._P_row(n, x)
    assert len(row) == x + 1
    for k in ks:
        want = comp._box_sum((x - k,), n - x, k) if k else int(x == 0)
        assert row[k] == want, (n, x, k)


def test_P_row_prefix_sums_are_bounded_partitions():
    # summed over j <= k: the partitions of x into at most n - x + 1 parts <= k
    for n, x in [*((n, x) for n in range(31) for x in range(n + 1)),
                 (300, 150), (301, 299), (1000, 80), (10**6, 12)]:
        want = [comp._box_sum((x,), n - x + 1, k) for k in range(x + 1)]
        assert list(accumulate(comp._P_row(n, x))) == want, (n, x)


def test_kernel_cells_read_no_P_row():
    comp._P_rows.clear()
    comp.P(4600, 3000, 3)
    comp.P_hat(9201, 6000, 3)
    for x in range(31):
        for k in range(x + 1):
            comp.P_hat(30, x, k)
    assert len(comp._P_rows) == 0


@pytest.mark.parametrize("n", [0, 1, 2, 61, 512, 513, 1000])
def test_rows_with_no_ones(n):
    # x = n: m = 0, G_k = 1 for every k, so only the cell k = n is 1
    assert comp._P_row(n, n) == tuple(int(k == n) for k in range(n + 1))
    assert [comp.P(n, n, k) for k in (0, 1, n - 1, n)] == [int(k == n) for k in (0, 1, n - 1, n)]


@pytest.mark.parametrize("t, a, b", [(41, 5, 8), (13, 3, 4), (10**4, 3, 7), (901, 30, 30),
                                     (3, 1, 2), (1, 0, 5), (5, 5, 0)])
def test_kernel_cells_past_the_degree_are_empty(t, a, b):
    # t > ab: no partition of t fits in the a-by-b box
    assert comp._box_sum((t,), a, b) == 0
    assert comp._box_sum((t - 1,), a, b) == box_partitions(t - 1, a, b)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 45), min_size=1, max_size=8), st.integers(0, 12), st.integers(0, 12))
@example([0], 0, 0)
@example([6, 7, 8, 30], 3, 4)  # below, at and above ab/2, and past ab
@example([5, 6, 7, 8], 4, 3)
def test_box_sum_is_one_pass_over_its_degrees(ts, a, b):
    assert comp._box_sum(ts, a, b) == sum(box_partitions(t, a, b) for t in ts)


def test_P_row_cache_is_bounded(monkeypatch):
    rows = [(n, x) for n in range(1, 100) for x in (1, n // 2)]
    assert_sweep_is_bounded(monkeypatch, comp._P_rows, list(dict.fromkeys(rows)))


def test_second_sweep_of_an_order_builds_no_P_row(monkeypatch):
    # the 101 rows of order 100 stay cached: a second sweep of every class
    # reads them back
    comp._P_rows.clear()
    built = count_builds(monkeypatch, comp._P_rows)
    for _ in range(2):
        [comp.P(100, x, k) for x in range(101) for k in range(x + 1)]
        assert len(built) == len(comp._P_rows) == 101


# the P rows of the benchmark's queries workload: moderate n with x at a
# share of n, and large n with x <= 12
QUERY_ROWS = [*((n, round(share * n)) for n, share in zip(
                  (22, 33, 44, 55, 66, 77, 88, 99, 108),
                  (0.5, 0.2, 0.8, 0.35, 0.65, 0.5, 0.25, 0.75, 0.45))),
              *((round(10 ** (3 + j / 4)), x)
                for j, x in enumerate((1, 7, 6, 11, 4, 9, 2, 12, 5, 10, 3, 8)))]


def test_second_pass_over_query_rows_builds_no_row(monkeypatch):
    comp._P_rows.clear()
    built = count_builds(monkeypatch, comp._P_rows)
    for _ in range(2):
        for n, x in QUERY_ROWS:
            for k in range(x + 1):
                comp.P(n, x, k)
        assert len(built) == len(comp._P_rows) == len(QUERY_ROWS)


@pytest.mark.parametrize("h", [*range(31), 1000, 10**5])
def test_cumulative_lookups_equal_sums_over_run_length(h):
    # F_hat and P_hat take "any run length j <= k" in one lookup each
    for y in range(h + 1) if h <= 30 else range(13):
        for k in range(y + 2):
            assert (sum(F(h, y, j) for j in range(k + 1))
                    == rc._bounded(h, y, k, comb(h, y))), (h, y, k)
            assert (sum(comp.P(h, y, j) for j in range(k + 1))
                    == comp._box_sum((y,), h - y + 1, k)), (h, y, k)


@cache
def P_per_cell(n, x, k):
    """P as computed before the kernel was keyed by (t, a, b): one
    Gaussian-binomial coefficient per (n, x, k)."""
    if not rc.feasible(n, x, k):
        return 0
    a, b = sorted((n - x, k))
    degree = min(x - k, a * b - (x - k))
    coeffs = [1] + [0] * degree
    for i in range(1, min(a, degree) + 1):
        for t in range(degree, b + i - 1, -1):
            coeffs[t] -= coeffs[t - b - i]
        for t in range(i, degree + 1):
            coeffs[t] += coeffs[t - i]
    return coeffs[degree]


def P_hat_per_cell(n, x, k):
    """P_hat as computed before the cumulative lookup: one P per run length
    j <= k beside a central block of length k."""
    if F_hat_per_cell(n, x, k) == 0:
        return 0
    if k <= 1 or k == x:
        return 1
    if n % 2:
        m = (n - 1) // 2
        if x % 2 == 0:
            return P_per_cell(m, x // 2, k)
        acc = sum(P_per_cell(m - i - 1, (x - 2 * i - 1) // 2, k) for i in range(k // 2))
        if k % 2:
            acc += sum(P_per_cell((n - k - 2) // 2, (x - k) // 2, j) for j in range(k + 1))
        return acc
    m = n // 2
    acc = sum(P_per_cell(m - i - 1, (x - 2 * i) // 2, k) for i in range((k - 1) // 2 + 1))
    if k % 2 == 0:
        acc += sum(P_per_cell(m - k // 2 - 1, (x - k) // 2, j) for j in range(k + 1))
    return acc


@pytest.mark.parametrize("n", range(-2, 71))
def test_P_and_P_hat_equal_per_cell_code(n):
    # every integer triple, negative and infeasible ones included
    for x in range(-2, max(n, 0) + 3):
        for k in range(-2, max(n, 0) + 3):
            assert comp.P(n, x, k) == P_per_cell(n, x, k), (n, x, k)
            assert comp.P_hat(n, x, k) == P_hat_per_cell(n, x, k), (n, x, k)


@pytest.mark.parametrize("n", range(0, 15))
def test_P_matches_oracle_exhaustively(n):
    table = oracle.oracle_partition_table(n)
    for x in range(n + 1):
        for k in range(x + 1):
            assert comp.P(n, x, k) == table.get((x, k), 0), (n, x, k)


def test_P_hat_golden_values():
    assert comp.P_hat(6, 4, 2) == 2
    # the worked 15-length example: enumeration finds four classes (the
    # printed listing misses the multiset (1, 1, 3, 3)); see acceptance suite
    assert comp.P_hat(15, 9, 3) == 4
    for n in range(1, 12):
        for x in range(1, n + 1):
            if F_hat(n, x, x) > 0:
                assert comp.P_hat(n, x, x) == 1


@pytest.mark.parametrize("n", range(0, 15))
def test_P_hat_matches_oracle_exhaustively(n):
    table = oracle.oracle_partition_table(n, palindromic=True)
    for x in range(n + 1):
        for k in range(x + 1):
            assert comp.P_hat(n, x, k) == table.get((x, k), 0), (n, x, k)


def test_partition_function():
    values = [comp.partition_function(m) for m in range(11)]
    assert values == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert comp.partition_function(100) == 190569292
    assert comp.partition_function(-1) == 0


@pytest.mark.parametrize("n", range(0, 15))
def test_P_total_equals_partition_function(n):
    assert comp.P_total(n) == comp.partition_function(n + 1)


def test_P_total_example():
    assert comp.P_total(6) == 15
    assert comp.P_total(0) == 1


def P_total_per_cell(n):
    return sum(comp.P(n, x, k) for x, k in support_set(n).pairs)


def P_hat_total_per_cell(n):
    return sum(comp.P_hat(n, x, k) for x, k in pal.support_hat_set(n).pairs)


def test_totals_equal_per_cell_sums():
    for n in range(-3, 61):
        assert comp.P_total(n) == P_total_per_cell(n), n
        assert comp.P_hat_total(n) == P_hat_total_per_cell(n), n


def test_P_total_equals_bounded_partition_sums():
    for n in range(-3, 61):
        assert comp.P_total(n) == sum(box_partitions(x, n - x + 1, x) for x in range(n + 1)), n


@pytest.mark.parametrize("n", [1000, 2000])
def test_P_total_at_large_orders(n):
    assert comp.P_total(n) == comp.partition_function(n + 1)


@pytest.mark.parametrize("n", [119, 120])
def test_every_P_hat_cell_sums_to_the_pentagonal_total(n):
    total = sum(comp.P_hat(n, x, k) for x in range(n + 1) for k in range(x + 1))
    assert total == comp.P_hat_total(n)


def test_every_P_cell_of_order_200_sums_to_P_total():
    total = sum(comp.P(200, x, k) for x in range(201) for k in range(x + 1))
    assert total == comp.P_total(200) == comp.partition_function(201)


def test_totals_at_large_n():
    assert comp.P_total(300) == comp.partition_function(301)
    for n in (300, 301):
        ceil_half = (n + 1) // 2
        want = sum(comp.partition_function(m) for m in range(ceil_half + 1))
        assert comp.P_hat_total(n) == want, n


def test_P_hat_total_leaves_the_gaussian_kernel_cold():
    # the pentagonal list p(0..ceil(n/2)) answers it; the kernel keeps no
    # cache, and _P_rows is the only partition store
    assert not hasattr(comp._box_sum, "cache_info")
    assert not [name for name, f in vars(comp).items() if hasattr(f, "cache_info")]
    assert [name for name, v in vars(comp).items() if isinstance(v, rc._Rows)] == ["_P_rows"]
    comp._P_rows.clear()
    comp.P_hat_total(300)
    assert len(comp._P_rows) == 0


@pytest.mark.parametrize("n", range(0, 15))
def test_support_size_vs_partition_total(n):
    size = len(support_set(n))
    if n <= 5:
        assert size == comp.P_total(n)
    else:
        assert size < comp.P_total(n)


@pytest.mark.parametrize("n", range(0, 15))
def test_P_hat_total_matches_oracle(n):
    table = oracle.oracle_partition_table(n, palindromic=True)
    assert comp.P_hat_total(n) == sum(table.values())


partitions = cache(comp.partition_function)


def one_odd_multiplicity(m):
    """Partitions of m with at most one part size of odd multiplicity: with
    none, the parts pair up; with one, s = m (mod 2), one part s comes off
    and the rest pair up."""
    paired = partitions(m // 2) if m % 2 == 0 else 0
    return paired + sum(partitions((m - s) // 2) for s in range(2 - m % 2, m + 1, 2))


def test_one_odd_multiplicity_small_cases():
    # m = 4: 4, 2+2, 2+1+1 and 1+1+1+1, not 3+1; m = 5: 5, 3+1+1, 2+2+1 and 1^5
    assert [one_odd_multiplicity(m) for m in range(1, 7)] == [1, 2, 2, 4, 4, 7]


@pytest.mark.parametrize("n", range(0, 151))
def test_P_hat_total_counts_partitions_with_one_odd_multiplicity(n):
    # a palindromic composition of n + 1 doubles its half's parts around at
    # most one central part: its partition is one of these
    assert comp.P_hat_total(n) == one_odd_multiplicity(n + 1)


def test_printed_palindromic_two_rules():
    # odd lengths: the printed rules agree with enumeration
    for n in range(3, 22, 2):
        for x in range(4, n + 1):
            if F_hat(n, x, 2) > 0:
                assert comp.p_hat_two_printed(n, x) == comp.P_hat(n, x, 2), (n, x)
    # even lengths: the printed rules drop the centred-block classes and
    # undercount; P_hat (oracle-equivalent) is authoritative
    mismatches = [
        (n, x)
        for n in range(4, 22, 2)
        for x in range(4, n + 1)
        if F_hat(n, x, 2) > 0 and comp.p_hat_two_printed(n, x) != comp.P_hat(n, x, 2)
    ]
    assert (6, 4) in mismatches
    for n, x in mismatches:
        printed = comp.p_hat_two_printed(n, x)
        truth = comp.P_hat(n, x, 2)
        assert printed is not None and printed < truth, (n, x)


def test_printed_palindromic_two_rules_have_no_case_for_an_empty_class():
    # even n with odd x admits no palindrome, and a zero count near n leaves
    # the printed slack i negative: no case applies to either
    cells = [(n, x) for n in (4, 8, 20) for x in range(1, n, 2)]
    cells += [(7, 6), (9, 8), (9, 9), (8, 8), (10, 10)]
    for n, x in cells:
        assert comp.P_hat(n, x, 2) == 0, (n, x)
        assert comp.p_hat_two_printed(n, x) is None, (n, x)


@pytest.mark.parametrize("n", range(-4, 30))
def test_printed_palindromic_two_rules_outside_the_triangle(n):
    # no printed case covers a zero count outside 0 <= x <= n; the rules once
    # gave negative counts there, e.g. -1 at (0, -4) and -2 at (-3, -5)
    for x in [*range(-6, 0), *range(max(n + 1, 0), 32)]:
        assert comp.p_hat_two_printed(n, x) is None, x
