import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zeroruns import oracle

words = st.text(alphabet="01", min_size=0, max_size=40)


def test_classify_examples():
    assert oracle.classify("100100") == (4, 2)
    assert oracle.classify("111111") == (0, 0)
    assert oracle.classify("001011") == (3, 2)
    assert oracle.classify("") == (0, 0)
    assert oracle.classify("0") == (1, 1)


def test_classify_rejects_non_binary():
    with pytest.raises(ValueError):
        oracle.classify("01021")


@given(words)
def test_classify_reversal_invariant(w):
    assert oracle.classify(w) == oracle.classify(w[::-1])


@given(words)
def test_classify_postconditions(w):
    x, k = oracle.classify(w)
    assert x == w.count("0")
    assert (k == 0) == (x == 0)
    assert k <= x <= len(w)


def test_oracle_count_small():
    assert oracle.oracle_count(0).counts == {(0, 0): 1}
    table = oracle.oracle_count(6)
    assert table.count(4, 2) == 6
    assert table.count(3, 2) == 12
    assert table.total() == 64
    hat = oracle.oracle_count(6, palindromic=True)
    assert hat.count(4, 2) == 2
    assert hat.total() == 8


@pytest.mark.parametrize("n", range(0, 13))
def test_oracle_count_totals(n):
    assert oracle.oracle_count(n).total() == 2**n
    assert oracle.oracle_count(n, palindromic=True).total() == 2 ** ((n + 1) // 2)


def test_oracle_count_cap():
    with pytest.raises(oracle.EnumerationLimitError):
        oracle.oracle_count(23)
    with pytest.raises(oracle.EnumerationLimitError):
        oracle.oracle_count(31, palindromic=True)
    with pytest.raises(oracle.EnumerationLimitError):
        oracle.oracle_count(5, cap=4)
    assert oracle.oracle_count(5, cap=5).total() == 32
    with pytest.raises(ValueError):
        oracle.oracle_count(-1)


ORACLE_GOOD = [
    (oracle.check_cap, {"n": 5, "cap": 6}),
    (oracle.oracle_count, {"n": 5, "cap": 6}),
    (oracle.oracle_T, {"r": 2, "n": 5, "cap": 6}),
    (oracle.oracle_zero_total, {"r": 2, "n": 5, "cap": 6}),
    (oracle.oracle_partition_classes, {"n": 5, "x": 2, "k": 1, "cap": 6}),
    (oracle.oracle_partition_table, {"n": 5, "cap": 6}),
]


def oracle_bad_calls():
    for func, good in ORACLE_GOOD:
        for name, value in good.items():
            for bad in (float(value), Fraction(value), str(value), bool(value)):
                yield pytest.param(func, good, name, bad,
                                   id=f"{func.__name__}-{name}={bad!r}")
    for func in (oracle.classify, oracle.zero_run_multiset,
                 oracle.string_to_composition):
        for bad in (5, None, b"01"):
            yield pytest.param(func, {"word": "0110"}, "word", bad,
                               id=f"{func.__name__}-word={bad!r}")
    for bad in ((True,), (1.5,), (2.0, 1), 5):
        yield pytest.param(oracle.composition_to_string, {"composition": (2, 1)},
                           "composition", bad, id=f"composition_to_string-{bad!r}")


@pytest.mark.parametrize("func, good, name, bad", oracle_bad_calls())
def test_oracle_rejects_non_int(func, good, name, bad):
    func(**good)
    # the oracle checks types itself: 5.0 would otherwise reach 1 << n,
    # and 5 a str method
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        func(**{**good, name: bad})


def test_oracle_T_examples():
    assert oracle.oracle_T(2, 3) == 5
    assert oracle.oracle_T(3, 4) == 13
    assert oracle.oracle_T(2, 1) == 2
    with pytest.raises(ValueError):
        oracle.oracle_T(1, 3)


def test_oracle_zero_total_examples():
    assert oracle.oracle_zero_total(2, 3) == 10
    assert oracle.oracle_zero_total(2, 1) == 1
    assert oracle.oracle_zero_total(3, 2) == 4
    with pytest.raises(ValueError):
        oracle.oracle_zero_total(1, 2)


def test_oracle_partition_classes_examples():
    assert oracle.oracle_partition_classes(6, 4, 2) == 2
    assert oracle.oracle_partition_classes(10, 7, 3) == 3
    # the paper prints 3 classes at (15, 9, 3) but enumeration finds a fourth,
    # with zero-run multiset (1, 1, 3, 3); see the acceptance suite
    assert oracle.oracle_partition_classes(15, 9, 3, palindromic=True) == 4
    assert oracle.oracle_partition_classes(4, 3, 1) == 0


@pytest.mark.parametrize("n", range(0, 11))
def test_partition_table_matches_pointwise(n):
    table = oracle.oracle_partition_table(n)
    for (x, k), value in table.items():
        assert oracle.oracle_partition_classes(n, x, k) == value
    assert (3, 1) not in oracle.oracle_partition_table(4)


def test_bijection_examples():
    assert oracle.composition_to_string((3, 1, 1)) == "0011"
    assert oracle.classify("0011") == (2, 2)
    assert oracle.string_to_composition("1111") == (1, 1, 1, 1, 1)
    assert oracle.string_to_composition("") == (1,)
    with pytest.raises(ValueError):
        oracle.composition_to_string((2, 0, 1))
    with pytest.raises(ValueError):
        oracle.composition_to_string(())


@pytest.mark.parametrize("n", range(0, 13))
def test_bijection_round_trip_exhaustive(n):
    for w in oracle.iter_words(n):
        assert oracle.composition_to_string(oracle.string_to_composition(w)) == w


@given(words)
def test_bijection_properties(w):
    parts = oracle.string_to_composition(w)
    x, k = oracle.classify(w)
    assert sum(parts) == len(w) + 1
    assert max(parts) == k + 1
    assert len(parts) == (len(w) - x) + 1
    assert sorted(c - 1 for c in parts if c > 1) == list(oracle.zero_run_multiset(w))
    assert (w == w[::-1]) == (parts == parts[::-1])


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=10))
def test_bijection_round_trip_from_compositions(parts):
    w = oracle.composition_to_string(parts)
    assert oracle.string_to_composition(w) == tuple(parts)


@pytest.mark.parametrize("n", range(0, 12))
def test_palindrome_iteration(n):
    palindromes = list(oracle.iter_palindromes(n))
    assert len(palindromes) == 2 ** ((n + 1) // 2)
    assert all(w == w[::-1] and len(w) == n for w in palindromes)
    assert len(set(palindromes)) == len(palindromes)
    brute = [w for w in oracle.iter_words(n) if w == w[::-1]]
    assert sorted(palindromes) == brute


@pytest.mark.parametrize("n", range(0, 15))
def test_word_iteration_equals_per_word_format(n):
    # the spec each word was once formatted with, rebuilt per word
    words = [format(v, f"0{n}b") if n else "" for v in range(1 << n)]
    assert list(oracle.iter_words(n)) == words
    half = (n + 1) // 2
    halves = [format(v, f"0{half}b") if half else "" for v in range(1 << half)]
    assert list(oracle.iter_palindromes(n)) == [
        h + (h[-2::-1] if n % 2 else h[::-1]) for h in halves]


# The per-word loops the oracle ran before it tallied each length once; they
# stay here as references for the tally.
def words_of(n, palindromic):
    return oracle.iter_palindromes(n) if palindromic else oracle.iter_words(n)


def count_by_classify(n, palindromic):
    counts = {}
    for w in words_of(n, palindromic):
        key = oracle.classify(w)
        counts[key] = counts.get(key, 0) + 1
    return counts


def run_avoiding_by_words(r, n):
    return [w for w in oracle.iter_words(n) if "1" * r not in w]


def partition_table_by_words(n, palindromic):
    seen = {}
    for w in words_of(n, palindromic):
        seen.setdefault(oracle.classify(w), set()).add(oracle.zero_run_multiset(w))
    return {key: len(multisets) for key, multisets in seen.items()}


@pytest.mark.parametrize("n", range(0, 25))
def test_oracle_count_equals_per_word_loop(n):
    if n <= 14:
        counts = oracle.oracle_count(n).counts
        assert counts == count_by_classify(n, False)
        assert list(counts) == list(count_by_classify(n, False))  # same order
    assert oracle.oracle_count(n, palindromic=True).counts == count_by_classify(n, True)


@pytest.mark.parametrize("n", range(1, 15))
def test_oracle_T_and_zero_total_equal_per_word_loop(n):
    for r in range(2, 8):
        avoiding = run_avoiding_by_words(r, n)
        assert oracle.oracle_T(r, n) == len(avoiding), r
        assert oracle.oracle_zero_total(r, n) == sum(w.count("0") for w in avoiding), r


@pytest.mark.parametrize("n", range(0, 25))
def test_partition_table_equals_per_word_loop(n):
    for palindromic in (False, True) if n <= 14 else (True,):
        table = oracle.oracle_partition_table(n, palindromic=palindromic)
        want = partition_table_by_words(n, palindromic)
        assert table == want
        assert list(table) == list(want)  # same order


@pytest.mark.parametrize("n", [0, 1, 9])
def test_one_walk_per_length(monkeypatch, n):
    walks = []
    words = oracle._words

    def spy(n, palindromic):
        walks.append((n, palindromic))
        return words(n, palindromic)

    monkeypatch.setattr(oracle, "_words", spy)
    oracle._tally.cache_clear()
    for palindromic in (False, True):
        oracle.oracle_count(n, palindromic)
        oracle.oracle_partition_table(n, palindromic)
        oracle.oracle_partition_classes(n, 1, 1, palindromic)
    oracle.oracle_T(2, n)
    oracle.oracle_zero_total(2, n)
    assert walks == [(n, False), (n, True)]


def test_cap_checked_on_a_warm_cache():
    oracle.oracle_count(6)
    with pytest.raises(oracle.EnumerationLimitError):
        oracle.oracle_count(6, cap=5)
    with pytest.raises(oracle.EnumerationLimitError):
        oracle.oracle_T(2, 6, cap=5)
    with pytest.raises(oracle.EnumerationLimitError):
        oracle.oracle_zero_total(2, 6, cap=5)


def test_results_are_fresh_dicts():
    first = oracle.oracle_count(7)
    first.counts.clear()
    assert oracle.oracle_count(7).total() == 128
    table = oracle.oracle_partition_table(7)
    table[(0, 0)] = 99
    assert oracle.oracle_partition_table(7)[(0, 0)] == 1
    assert oracle.oracle_T(2, 7) == 34


@pytest.mark.parametrize("func, good, name, bad", oracle_bad_calls())
def test_oracle_rejects_non_int_on_a_cold_cache(func, good, name, bad):
    oracle._tally.cache_clear()
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        func(**{**good, name: bad})
    assert oracle._tally.cache_info().currsize == 0
