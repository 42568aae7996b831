import pytest

from zeroruns import oracle, runcount as rc

# the eleven classes of length-5 strings listed in the source material
S5 = {
    (0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5),
    (2, 1), (3, 1), (3, 2), (4, 2), (4, 3),
}


def test_binomial():
    assert [rc.binomial(5, k) for k in range(6)] == [1, 5, 10, 10, 5, 1]
    assert rc.binomial(5, -1) == 0
    assert rc.binomial(5, 6) == 0
    assert rc.binomial(-1, 0) == 0
    assert rc.binomial(0, 0) == 1
    assert rc.binomial(60, 30) == 118264581564861424


def test_F_golden_values():
    assert rc.F(6, 3, 2) == 12
    assert rc.F(6, 4, 2) == 6
    assert rc.F(5, 4, 1) == 0
    for n in range(11):
        assert rc.F(n, 0, 0) == 1


def test_F_total_on_junk_input():
    assert rc.F(-1, 0, 0) == 0
    assert rc.F(3, -1, -1) == 0
    assert rc.F(3, 2, 3) == 0
    assert rc.F(2, 3, 1) == 0
    assert rc.F(5, 5, 2) == 0


@pytest.mark.parametrize("n", range(0, 15))
def test_F_matches_oracle_exhaustively(n):
    table = oracle.oracle_count(n)
    for x in range(n + 1):
        for k in range(x + 1):
            assert rc.F(n, x, k) == table.count(x, k), (n, x, k)


def test_F_diagonal():
    assert rc.F_diagonal(6, 4) == 3
    assert rc.F_diagonal(7, 7) == 1
    assert rc.F_diagonal(5, 1) == 5
    with pytest.raises(ValueError):
        rc.F_diagonal(5, 0)
    with pytest.raises(ValueError):
        rc.F_diagonal(5, 6)


def test_F_near_diagonal():
    assert rc.F_near_diagonal(6, 3) == 12
    assert rc.F_near_diagonal(7, 7) == 0
    assert rc.F_near_diagonal(7, 4) == 12
    with pytest.raises(ValueError):
        rc.F_near_diagonal(6, 2)
    for n, x in ((3, 5), (4, 7), (10, 13), (3, 4)):  # empty classes: F(n, x, x - 1) == 0
        assert rc.F(n, x, x - 1) == 0
        with pytest.raises(ValueError, match="3 <= x <= n"):
            rc.F_near_diagonal(n, x)


def test_F_closed_high_k():
    assert rc.F_closed_high_k(6, 3, 2) == 12
    assert rc.F_closed_high_k(5, 2, 2) == 4
    assert rc.F_closed_high_k(7, 6, 3) == 1
    with pytest.raises(ValueError):
        rc.F_closed_high_k(10, 6, 2)  # x >= 2k
    with pytest.raises(ValueError):
        rc.F_closed_high_k(4, 4, 3)  # x > n - 1


@pytest.mark.parametrize("n", range(1, 31))
def test_closed_forms_agree_with_F(n):
    for x in range(1, n + 1):
        assert rc.F(n, x, x) == rc.F_diagonal(n, x)
        if n >= 3 and x >= 3:
            assert rc.F(n, x, x - 1) == rc.F_near_diagonal(n, x)
        for k in range((x + 2) // 2, x + 1):
            if x <= n - 1 and rc.support_contains(n, x, k):
                assert rc.F_closed_high_k(n, x, k) == rc.F(n, x, k)
    if n >= 2:
        assert rc.F(n, 2, 1) == (n - 1) * (n - 2) // 2
    if n >= 5:
        assert rc.F(n, 3, 1) == rc.binomial(n - 2, 3)


def test_support_contains_examples():
    assert not rc.support_contains(5, 4, 1)
    assert rc.support_contains(5, 4, 2)
    assert rc.support_contains(7, 7, 7)
    assert rc.support_contains(3, 0, 0)
    assert not rc.support_contains(3, 2, 0)


def test_min_k_examples():
    assert rc.min_k(5, 4) == 2
    assert rc.min_k(5, 3) == 1
    assert rc.min_k(6, 6) == 6
    with pytest.raises(ValueError):
        rc.min_k(5, 0)


@pytest.mark.parametrize("n", range(1, 31))
def test_min_k_is_least_positive(n):
    for x in range(1, n + 1):
        k0 = rc.min_k(n, x)
        assert rc.F(n, x, k0) > 0
        assert k0 == 1 or rc.F(n, x, k0 - 1) == 0


def test_support_set_n5_exact():
    assert rc.support_set(5).pairs == frozenset(S5)
    assert rc.support_size_formula(5) == 11


def test_support_set_trivial():
    assert rc.support_set(0).pairs == frozenset({(0, 0)})
    assert rc.support_size_formula(0) == 1
    assert rc.support_set(-1).pairs == frozenset()


@pytest.mark.parametrize("n", range(0, 31))
def test_support_set_matches_formula_and_F(n):
    pairs = rc.support_set(n).pairs
    assert len(pairs) == rc.support_size_formula(n)
    for x in range(n + 1):
        for k in range(x + 1):
            assert ((x, k) in pairs) == (rc.F(n, x, k) > 0)


@pytest.mark.parametrize("n", range(0, 31))
def test_global_identities(n):
    total = sum(rc.F(n, x, k) for x in range(n + 1) for k in range(x + 1))
    assert total == 2**n
    for x in range(n + 1):
        assert sum(rc.F(n, x, k) for k in range(x + 1)) == rc.binomial(n, x)


def test_results_do_not_depend_on_warm_state_or_call_order():
    table = oracle.oracle_count(12)
    triples = [(12, x, k) for x in range(13) for k in range(x + 1)]
    want = [table.count(x, k) for _, x, k in triples]
    rc._F_rows.clear()
    assert [rc.F(*t) for t in triples] == want
    rc._F_rows.clear()
    assert [rc.F(*t) for t in reversed(triples)] == want[::-1]
    assert [rc.F(*t) for t in triples] == want


@pytest.mark.parametrize("n", range(2, 41))
def test_paper_recurrence(n):
    # classify by the leading zero block: shorter than k, or exactly k
    for x in range(1, n):
        for k in range(1, x + 1):
            assert rc.F(n, x, k) == (
                sum(rc.F(n - i - 1, x - i, k) for i in range(k))
                + sum(rc.F(n - k - 1, x - k, j) for j in range(k + 1))
            ), (n, x, k)
