import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeroruns import compositions as comp, matrices as mat, palindromic as pal, runcount as rc
from zeroruns.compositions import compositions_by_largest_summand
from test_large_n import count_builds

PRINTED_F = {
    1: ((1, 0), (0, 1)),
    2: ((1, 0, 0), (0, 2, 0), (0, 0, 1)),
    3: ((1, 0, 0, 0), (0, 3, 0, 0), (0, 1, 2, 0), (0, 0, 0, 1)),
    4: (
        (1, 0, 0, 0, 0),
        (0, 4, 0, 0, 0),
        (0, 3, 3, 0, 0),
        (0, 0, 2, 2, 0),
        (0, 0, 0, 0, 1),
    ),
}

PRINTED_F_HAT = {
    1: ((1, 0), (0, 1)),
    2: ((1, 0, 0), (0, 0, 0), (0, 0, 1)),
    3: ((1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)),
    4: (
        (1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 1, 1, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 1),
    ),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_printed_matrices(n):
    assert mat.build_matrix(n).rows == PRINTED_F[n]
    assert mat.build_matrix(n, "palindromic").rows == PRINTED_F_HAT[n]


def test_build_matrix_validation():
    with pytest.raises(ValueError):
        mat.build_matrix(-1)
    with pytest.raises(ValueError):
        mat.build_matrix(3, "weird")


def test_sums_examples():
    f4 = mat.build_matrix(4)
    assert mat.row_sums(f4) == (1, 4, 6, 4, 1)
    assert mat.grand_sum(f4) == 16
    assert mat.col_sums(f4) == (1, 7, 5, 2, 1)
    f5_hat = mat.build_matrix(5, "palindromic")
    assert mat.grand_sum(f5_hat) == 8
    assert mat.row_sums(f5_hat) == (1, 1, 2, 2, 1, 1)


def test_props_examples():
    f4 = mat.build_matrix(4)
    assert mat.determinant(f4) == 24
    assert mat.trace(f4) == 11
    assert mat.eigenvalues(mat.build_matrix(3)) == (1, 1, 2, 3)
    assert mat.trace(mat.build_matrix(4, "palindromic")) == 3


def test_idempotence():
    assert mat.is_idempotent(mat.build_matrix(4, "palindromic"))
    assert not mat.is_idempotent(mat.build_matrix(5, "palindromic"))
    assert mat.is_idempotent(mat.build_matrix(1, "palindromic"))
    with pytest.raises(ValueError):
        mat.is_idempotent(mat.build_matrix(4))


@pytest.mark.parametrize("n", range(1, 21))
def test_plain_matrix_properties(n):
    matrix = mat.build_matrix(n)
    factorial = 1
    for i in range(2, n + 1):
        factorial *= i
    assert mat.trace(matrix) == 1 + n * (n + 1) // 2
    assert mat.determinant(matrix) == factorial
    assert mat.eigenvalues(matrix) == tuple(sorted([1] + list(range(1, n + 1))))
    assert mat.row_sums(matrix) == tuple(rc.binomial(n, x) for x in range(n + 1))
    assert mat.grand_sum(matrix) == 2**n
    assert mat.nonzero_entries(matrix) == rc.support_size_formula(n)
    assert mat.col_sums(matrix) == compositions_by_largest_summand(n + 1)


@pytest.mark.parametrize("n", range(1, 21))
def test_palindromic_matrix_properties(n):
    matrix = mat.build_matrix(n, "palindromic")
    assert mat.trace(matrix) == 1 + (n + 1) // 2
    if n >= 2:
        assert mat.determinant(matrix) == 0
    assert set(mat.eigenvalues(matrix)) <= {0, 1}
    assert mat.grand_sum(matrix) == 2 ** ((n + 1) // 2)
    assert mat.nonzero_entries(matrix) == len(pal.support_hat_set(n))
    assert mat.col_sums(matrix) == compositions_by_largest_summand(
        n + 1, palindromic=True
    )
    if n % 2 == 1:
        half = (n - 1) // 2
        expected = tuple(
            rc.binomial(half, x // 2) for x in range(n + 1)
        )
        assert mat.row_sums(matrix) == expected
    else:
        expected = tuple(
            rc.binomial(n // 2, x // 2) if x % 2 == 0 else 0 for x in range(n + 1)
        )
        assert mat.row_sums(matrix) == expected


@pytest.mark.parametrize("n", range(0, 301, 3))
def test_palindromic_support_is_the_nonzero_pattern_of_the_rows(n):
    # support_hat_set reads a criterion, the rows sum dot products: the two
    # share no code past feasibility
    rows = mat.build_matrix(n, "palindromic").rows
    pattern = {(x, k) for x, row in enumerate(rows) for k, count in enumerate(row) if count}
    assert pal.support_hat_set(n).pairs == pattern


@pytest.mark.parametrize("n, kind", [(800, "plain"), (800, "palindromic"),
                                     (801, "palindromic")])
def test_column_sums_equal_run_avoiding_counts_at_scale(n, kind):
    # the matrix comes from binomial dot products and the distribution from
    # the run-avoiding recurrence of sequences._run_terms: no shared kernel
    assert mat.col_sums(mat.build_matrix(n, kind)) == compositions_by_largest_summand(
        n + 1, kind == "palindromic")


def cellwise(n, kind):
    count = rc.F if kind == "plain" else pal.F_hat
    return tuple(tuple(count(n, x, k) for k in range(n + 1)) for x in range(n + 1))


@pytest.mark.parametrize("kind", ["plain", "palindromic"])
def test_row_builds_equal_cellwise_counts(kind):
    for n in range(81):
        assert mat.build_matrix(n, kind).rows == cellwise(n, kind), n


# the palindromic row's cases: odd n with even x, odd n - x, and the sum over
# centres on odd and on even n, x = n (no ones at all) and the rows x = n - 2
# (half rows with no ones) among them; the smallest rows, y = 0 and y = 1,
# are where k = 1 and the cells past k = y meet
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 600).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
@example((600, 0))
@example((599, 0))
@example((600, 600))
@example((599, 599))
@example((600, 299))
@example((599, 300))
@example((599, 301))
@example((600, 300))
@example((600, 598))
@example((599, 597))
@example((2, 0))
@example((3, 1))
@example((4, 2))
@example((0, 0))
@example((1, 1))
@example((599, 1))
@example((600, 2))
def test_rows_equal_cells_to_order_600(row):
    # F and F_hat read these rows.  A plain row is checked against the
    # stepping kernel, which builds no vectors.  A palindromic row takes each
    # cell as G_k - G_(k-1), the palindromes with runs at most k summed over
    # centres, by dot products of vectors; _F_hat_cell steps the corrections
    # of G_k - G_(k-1) with _bounded and adds the free central block.  The
    # per-centre reference, the prefix DP and the run-avoiding recurrence of
    # test_palindromic check the sums themselves
    n, x = row
    whole = math.comb(n, x)
    assert rc._F_row(n, x) == tuple(rc._bounded(n, x, k, whole) - rc._bounded(n, x, k - 1, whole)
                                    for k in range(x + 1))
    assert pal._F_hat_row(n, x) == tuple(pal._F_hat_cell(n, x, k) for k in range(x + 1))


@pytest.mark.parametrize("row", [(61, 31), (60, 30), (61, 59), (60, 0), (60, 60), (61, 61)])
def test_palindromic_row_builds_one_pair_of_vectors(monkeypatch, row):
    # every half row of (n, x) with n - x even has the same (n - x)/2 - 1
    # ones, so the row sums them all from one pair, x = n included
    calls = []
    build = rc._binomials

    def spy(n, x):
        calls.append((n, x))
        return build(n, x)

    monkeypatch.setattr(rc, "_binomials", spy)
    monkeypatch.setattr(pal, "_binomials", spy)
    n, x = row
    assert pal._F_hat_row(n, x) == tuple(pal._F_hat_cell(n, x, k) for k in range(x + 1))
    assert calls == [(n // 2 - 1, (x - n % 2) // 2)]


def test_second_pass_over_rows_adds_no_cache_misses(monkeypatch):
    rows = [(n, x) for n in (30, 31, 300, 301) for x in (0, 1, 2, 7, n // 3, n)]
    rows += [(10**5, 3), (10**5, 12)]
    rc._F_rows.clear()
    pal._F_hat_rows.clear()
    built = count_builds(monkeypatch, rc._F_rows), count_builds(monkeypatch, pal._F_hat_rows)

    def sweep():
        for n, x in rows:
            for k in range(x + 1):
                rc.F(n, x, k)
                pal.F_hat(n, x, k)
        return len(built[0]), len(built[1])

    first = sweep()
    assert first[0] >= len(rows) and first[1] == len(rows)
    assert sweep() == first


def test_second_matrix_build_adds_no_cache_misses(monkeypatch):
    # the 91 rows of each kind fit the row stores' byte budget, so a second
    # build of either kind reads every row back
    rc._F_rows.clear()
    pal._F_hat_rows.clear()
    built = count_builds(monkeypatch, rc._F_rows), count_builds(monkeypatch, pal._F_hat_rows)

    def misses():
        return len(built[0]), len(built[1])

    for kind in ("plain", "palindromic"):
        first, before = mat.build_matrix(90, kind), misses()
        assert mat.build_matrix(90, kind) == first
        assert misses() == before


def test_matrix_builds_leave_the_kernel_caches_empty():
    # the stepping cell kernel keeps no cache, and the builds write only the
    # two bounded row stores (test_large_n.test_vector_cache_is_bounded),
    # never a partition store; the Gaussian kernel keeps none, and _P_rows is
    # the only one
    assert not hasattr(rc._bounded, "cache_info")
    assert not hasattr(comp._box_sum, "cache_info")
    assert not [name for name, f in vars(comp).items() if hasattr(f, "cache_info")]
    assert [name for name, v in vars(comp).items() if isinstance(v, rc._Rows)] == ["_P_rows"]
    comp._P_rows.clear()
    mat.build_matrix(300)
    mat.build_matrix(300, "palindromic")
    assert len(comp._P_rows) == 0
