"""The benchmark's reference values, checked against brute-force enumeration.

checks.py must agree with zeroruns.oracle wherever enumeration is cheap;
otherwise a check could pass a wrong answer or fail a right one.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import passes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from zeroruns import oracle  # noqa: E402

SMALL = range(0, 13)


@pytest.mark.parametrize("n", SMALL)
def test_word_counts_match_enumeration(n):
    table = oracle.oracle_count(n)
    for x in range(n + 1):
        for k in range(x + 1):
            assert checks.F_count(n, x, k) == table.count(x, k)
    assert checks.plain_support_size(n) == len(table.pairs())
    for k in range(n + 1):
        assert checks.column_sum(n, k) == sum(table.count(x, k) for x in range(n + 1))


@pytest.mark.parametrize("n", range(0, 21))
def test_palindromic_support_and_rows_match_enumeration(n):
    table = oracle.oracle_count(n, palindromic=True)
    assert checks.palindromic_support(n) == table.pairs()
    for x in range(n + 1):
        assert checks.palindromic_row_sum(n, x) == sum(table.count(x, k) for k in range(x + 1))


@pytest.mark.parametrize("n", SMALL)
def test_partition_counts_match_enumeration(n):
    classes = oracle.oracle_partition_table(n)
    for x in range(n + 1):
        for k in range(x + 1):
            assert checks.P_class(n, x, k) == classes.get((x, k), 0)
        row = sum(classes.get((x, k), 0) for k in range(x + 1))
        assert checks.partitions_at_most_parts(x, n - x + 1) == row
    assert checks.partition_numbers(n + 1)[n + 1] == sum(classes.values())
    hat = oracle.oracle_partition_table(n, palindromic=True)
    assert checks.partitions_one_odd_multiplicity(n + 1) == sum(hat.values())


@pytest.mark.parametrize("n", range(1, 13))
def test_run_avoiding_counts_match_enumeration(n):
    for r in range(1, 5):
        words = [w for w in oracle.iter_words(n) if "1" * r not in w]
        assert checks.run_avoiding(r, n) == (len(words), sum(w.count("0") for w in words))
    assert checks.fibonacci(n + 2) == oracle.oracle_T(2, n)


def test_sequence_terms_at_large_index_agree():
    # the two t-run paths: fast doubling for r = 2 against the transfer matrix
    n = 30_000
    assert checks.sequence_terms("t-run", n, 1, 2, 1)[0] == checks.run_avoiding(2, n)[0]


def test_checks_reject_wrong_values():
    assert checks.check_row("F", 10, 4, [0, 1, 2, 3, 204])
    assert not checks.check_row("F", 10, 4, [0, 1, 2, 3, 205])
    assert not checks.check_row("binomial", 10, 2, [1, 10, 44])
    assert not checks.check_cli(["count", "F", "10", "4", "2", "--format", "json"],
                                {"result": {"count": checks.F_count(10, 4, 2) + 1}})
    assert checks.check_cli(["partitions", "12", "--format", "json"],
                            {"result": {"total": 101, "partition_function": 101}})


def test_tail_leaves_ten_values_beyond():
    values = [float(i) for i in range(1, 101)]
    assert tracing.tail(values) == (90.0, 90)
    value, pct = tracing.tail(values[:36])
    assert sum(v > value for v in values[:36]) == 10 and pct == 72
    assert tracing.tail([3.0, 1.0]) == (3.0, 100)


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, None, 0, False], ["b", 1.0, 4.0, 0, 0, False],
             ["c", 5.0, 7.0, 0, 0, False]]
    assert tracing.self_times(spans) == [5.0, 3.0, 2.0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations(workload):
    make = workloads.GENERATORS[workload]
    assert make(workloads.DEFAULT_SEED) == make(workloads.DEFAULT_SEED)
    assert make(workloads.DEFAULT_SEED) != make(workloads.HELD_OUT_SEED)


def test_queries_stay_in_the_named_regimes():
    rows = workloads.queries(workloads.DEFAULT_SEED)
    large = [r for r in rows if r[1] >= 1000 and r[2] <= 12]
    assert {r[0] for r in large} == set(workloads.FAMILIES)
    assert all(10**3 <= r[1] <= 10**6 for r in large)
    half = [r for r in rows if r[1] >= 1000 and r[2] > 12]
    assert half and all(abs(r[1] - 3000) <= 20 and abs(r[2] - r[1] / 2) <= 3 for r in half)
    moderate = [r for r in rows if r[1] < 1000]
    assert all(20 <= r[1] <= 110 and 0 <= r[2] <= r[1] for r in moderate)
    assert len(moderate) == 9 * len(workloads.FAMILIES)


def test_an_exception_is_a_counted_failure_not_a_wrong_value():
    def deep(n, x, k):
        if k == 2:
            raise RecursionError("maximum recursion depth exceeded")
        return 1

    lib = SimpleNamespace(runcount=SimpleNamespace(F=deep, binomial=None),
                          palindromic=SimpleNamespace(F_hat=None),
                          compositions=SimpleNamespace(P=None))
    run, check = passes.query_runner(lib)
    output = run(tracing.NullTracer(), ["F", 10, 3])
    assert output == ([1, 1, None, 1], 1)
    assert check(["F", 10, 3], output) == (False, False)  # failed, not wrong


def test_a_check_that_raises_is_counted_not_raised():
    # a matrix object of another shape than the check expects
    _, check = passes.table_runner(SimpleNamespace())
    odd_matrix = SimpleNamespace(n=6, packed=b"")
    assert passes.checked(check, ["build_matrix", 6], (odd_matrix, 0)) == (False, True)
    assert passes.checked(check, ["build_matrix", 6], (None, 1)) == (False, False)
    # CLI JSON that parses but lacks a field, and output that does not parse
    _, check = passes.cli_runner({})
    argv = ["count", "F", "10", "4", "2", "--format", "json"]
    lacking = SimpleNamespace(stdout='{"result": {}}')
    assert passes.checked(check, argv, (lacking, 0)) == (False, True)
    garbled = SimpleNamespace(stdout="Traceback (most recent call last):")
    assert passes.checked(check, argv, (garbled, 0)) == (False, False)


def test_times_are_scaled_by_the_reported_speed():
    # a worker that ran at half the reference speed, then at full speed
    result = {"speed": [[0.5, 0.5], [1.0, 1.0]], "setup_speed": 0.5,
              "latencies": [[1.0, 3.0], [1.0, 3.0]]}
    assert run.at_reference_speed(0.2, result) == 0.1
    assert result["latencies"] == [[0.5, 1.5], [1.0, 3.0]]
    assert result["wall_latencies"] == [[1.0, 3.0], [1.0, 3.0]]
