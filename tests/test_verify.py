"""Planted faults: each check of verify reports FAIL when one value it
compares is off by one at a single length."""

import pytest

from zeroruns import compositions as comp, oracle, sequences as seq, verify


def run_check(suite, name, max_n=8):
    """The named check of one suite after a run to max_n."""
    checks = {check.name: check for check in verify.run_checks(max_n, suite)}
    return checks[name]


def off_by_one(f, where):
    """f, but one more wherever where(*args) holds."""
    return lambda *args: f(*args) + bool(where(*args))


@pytest.mark.parametrize("module, name, where, label", [
    (seq, "T", lambda r, n: n == 5, "T"),
    (seq, "O", lambda r, n: n == 5, "O"),
    (verify, "_run_avoiding_by_F", lambda r, n, zeros: n == 5 and not zeros, "T"),
    (verify, "_run_avoiding_by_F", lambda r, n, zeros: n == 5 and zeros, "O"),
])
def test_run_avoiding_counts_fail_on_a_wrong_value(monkeypatch, module, name, where, label):
    monkeypatch.setattr(module, name, off_by_one(getattr(module, name), where))
    check = run_check("core", "run-avoiding-counts")
    assert check.status == "FAIL"
    # one failure per run bound 2 <= r <= 6, each at the planted length
    assert [message.split(":")[0] for message in check.failures] == [
        f"{label}({r},5)" for r in range(2, 7)]


@pytest.mark.parametrize("module, name, where, failing", [
    # summands_total adds the number of compositions to plus_signs_total
    (comp, "plus_signs_total", lambda m, pal: m == 5, ["plus signs", "summands"]),
    (comp, "summands_total", lambda m, pal: m == 5, ["summands"]),
    (verify, "_zeros_by_F", lambda n, pal: n == 4, ["plus signs", "summands"]),
])
def test_composition_statistics_fail_on_a_wrong_value(monkeypatch, module, name, where,
                                                      failing):
    monkeypatch.setattr(module, name, off_by_one(getattr(module, name), where))
    check = run_check("compositions", "composition-statistics")
    assert check.status == "FAIL"
    assert [message.split(":")[0] for message in check.failures] == [
        f"{what} m=5 pal={pal}" for pal in (False, True) for what in failing]


@pytest.mark.parametrize("module, name, failing", [
    # the support check at n <= 5 also reads P_total
    (comp, "P_total", ["P_total(5)", "|S_5| == P_total(5)"]),
    (verify, "_P_total_by_gaussian", ["P_total(5)"]),
])
def test_partition_total_fails_on_a_wrong_value(monkeypatch, module, name, failing):
    monkeypatch.setattr(module, name, off_by_one(getattr(module, name), lambda n: n == 5))
    check = run_check("compositions", "partition-classes")
    assert check.status == "FAIL"
    assert [message.split(":")[0] for message in check.failures] == failing


@pytest.mark.parametrize("walk, palindromic", [
    (verify._verify_plain_oracle, False),
    (verify._verify_palindromic_oracle, True),
    (verify._verify_partitions, False),  # its plain tables reach the cap first
    (verify._verify_runs, False),
    (verify._verify_compositions, False),  # as _verify_partitions
])
@pytest.mark.parametrize("cap", [4, None])
def test_checks_past_the_cap_walk_no_length(monkeypatch, walk, palindromic, cap):
    def walked(n, palindromic):
        raise AssertionError(f"walked length {n} before the cap was checked")

    monkeypatch.setattr(oracle, "_tally", walked)
    limit = cap if cap is not None else (
        oracle.DEFAULT_PALINDROMIC_CAP if palindromic else oracle.DEFAULT_PLAIN_CAP)
    # the error names the first length past the cap, as a walk up to it did
    with pytest.raises(oracle.EnumerationLimitError,
                       match=f"^length {limit + 1} exceeds the enumeration cap {limit}$"):
        walk(verify.Check("past the cap"), limit + 5, cap)
