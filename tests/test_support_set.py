"""SupportSet, the supports read as ranges of k per x off their rule, against
the pair sets of a sweep that tests each pair on its own, with no ranges: its
ranges, pairs, size and order, and `in` on any probe, matched against `in` on
the frozenset.
"""

import copy
import pickle
import tracemalloc
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroruns import palindromic as pal, runcount as rc

KINDS = {"plain": rc.support_set, "palindromic": pal.support_hat_set}
Pair = namedtuple("Pair", "x k")


def swept_pairs(n, kind):
    """The support as a frozenset, one test per pair: the least feasible
    length x + ceil(x / k) - 1 of F, and for palindromes the parity rule of the
    SupportSet.ranges docstring (odd n with even x reads its half
    row; otherwise x = n (mod 2), and k = n (mod 2) or 2k <= x)."""
    def feasible(n, x, k):
        return x == k == 0 or 1 <= k <= x <= n and x + -(-x // k) - 1 <= n

    def palindromic(x, k):
        if n % 2 and x % 2 == 0:
            return feasible(n // 2, x // 2, k)
        return (n - x) % 2 == 0 and feasible(n, x, k) and ((n - k) % 2 == 0 or 2 * k <= x)

    test = palindromic if kind == "palindromic" else lambda x, k: feasible(n, x, k)
    return frozenset((x, k) for x in range(n + 1) for k in range(x + 1) if test(x, k))


def check_against_sweep(n, kind):
    support, want = KINDS[kind](n), swept_pairs(n, kind)
    assert support.n == n
    assert support.pairs == want, (n, kind)
    assert len(support) == len(want), (n, kind)
    assert list(support) == sorted(want), (n, kind)
    # x by x, out of 0..n too, the ranges list the swept k in order
    assert [(x, k) for x in range(-2, n + 3) for ks in support.ranges(x) for k in ks] \
        == sorted(want), (n, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_pairs_size_and_order_equal_the_sweep_on_a_grid(kind):
    for n in [*range(-2, 121), *range(125, 301, 25)]:
        check_against_sweep(n, kind)


@settings(max_examples=40, deadline=None)
@given(st.integers(-2, 300), st.sampled_from(sorted(KINDS)))
def test_pairs_size_and_order_equal_the_sweep(n, kind):
    check_against_sweep(n, kind)


def odd_probes(n):
    """Hashable probes that are not pairs of plain ints: bools, numbers equal
    to ints and not, ints past the hash modulus, non-tuples and tuples of
    the wrong length."""
    x = min(max(n, 0), 2)
    k = min(x, 1)
    return [
        (True, True), (True, 1), (1, True), (False, False), (False, 0),
        (float(x), float(k)), (x + 0.5, k), (x, k + 0.5), (Fraction(x), k),
        (Decimal(x), Decimal(k)), (complex(x, 0), k), (complex(x, 1), k),
        (float("nan"), k), (float("inf"), k), (-0.0, 0),
        (2**61 - 1 + x, k), (x, 2**61 - 1 + k), (2**64 + x, k), (-1, -1), (-2, 0),
        Pair(x, k), (str(x), k), (x, None), (None, None), ((x, k), k),
        x, None, "ab", str((x, k)), b"\x00\x01", (), (x,), (x, k, 0), frozenset({x, k}),
    ]


def assert_in_agrees(support, probes):
    pairs = support.pairs
    for probe in probes:
        assert (probe in support) == (probe in pairs), (support.n, probe)


@pytest.mark.parametrize("kind", KINDS)
def test_membership_agrees_with_the_pairs_on_a_grid(kind):
    for n in range(-2, 41):
        support = KINDS[kind](n)
        grid = [(x, k) for x in range(-2, n + 3) for k in range(-2, n + 3)]
        assert_in_agrees(support, grid + odd_probes(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(-2, 300).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from(sorted(KINDS)),
    st.lists(st.tuples(st.integers(-2, n + 2), st.integers(-2, n + 2)), max_size=40))))
def test_membership_agrees_with_the_pairs(case):
    n, kind, probes = case
    assert_in_agrees(KINDS[kind](n), probes + odd_probes(n))


@pytest.mark.parametrize("probe", [[1, 1], (1, [1]), ([1], 1), {1: 1}])
def test_an_unhashable_probe_raises_type_error_as_in_the_pairs(probe):
    support = rc.support_set(3)
    for container in (support, support.pairs):
        with pytest.raises(TypeError):
            probe in container


def test_a_set_probe_raises_type_error():
    # a frozenset looks a set up as the frozenset of its items; a support
    # hashes every probe first, as for any other unhashable one
    support = rc.support_set(3)
    assert {(1, 1)} not in support.pairs
    with pytest.raises(TypeError):
        {(1, 1)} in support


@pytest.mark.parametrize("kind", KINDS)
def test_a_support_is_an_immutable_value(kind):
    support = KINDS[kind](7)
    assert support == KINDS[kind](7) and hash(support) == hash(KINDS[kind](7))
    assert support != KINDS[kind](8) and support != support.pairs
    for other in (pickle.loads(pickle.dumps(support)), copy.copy(support), copy.deepcopy(support)):
        assert other == support and other.pairs == support.pairs
    assert repr(support) == f"SupportSet(n=7, palindromic={kind == 'palindromic'})"
    for field in ("n", "palindromic", "ranges", "pairs", "other"):
        with pytest.raises(AttributeError):
            setattr(support, field, None)
    with pytest.raises(AttributeError):
        del support.n
    # the empty supports of negative n are equal within a kind, not across
    for n in (-2, -1):
        assert KINDS[kind](n) == KINDS[kind](n) and len(KINDS[kind](n)) == 0
        assert rc.support_set(n) != pal.support_hat_set(n)


@pytest.mark.parametrize("args", [(5.0,), (True,), ("5",), (5, 1), (5, None),
                                  (5, ((range(0, 1),),))])
def test_a_support_checks_its_arguments(args):
    # n an int and the kind a bool: a tuple of ranges in place of the kind fails
    with pytest.raises(ValueError, match="^arguments must be int, got" if len(args) == 1
                       else "^palindromic must be a bool, got"):
        rc.SupportSet(*args)
    assert rc.SupportSet(5) == rc.support_set(5) and rc.SupportSet(5, True) == pal.support_hat_set(5)


def test_a_large_support_answers_without_its_pairs():
    n = 10**5
    tracemalloc.start()
    try:
        build_size_and_probe(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # only n and the kind are held, nothing per x
    assert peak < 2**20, peak


def build_size_and_probe(n):
    plain, hat = rc.support_set(n), pal.support_hat_set(n + 1)
    assert len(plain) == rc.support_size_formula(n)
    assert len(hat) == pal.support_hat_size_formula(n + 1)
    x = n // 2
    assert (x, rc.min_k(n, x)) in plain and (x, rc.min_k(n, x) - 1) not in plain
    assert (n, n) in plain and (n, n - 1) not in plain and (n + 1, 0) not in plain
    # odd n + 1 with even x reads the half row; odd x keeps k = n + 1 (mod 2) past x // 2
    assert (x, x // 2) in hat and (x, x // 2 + 1) not in hat
    assert (x + 1, x // 2 + 1) in hat and (x + 1, x // 2 + 2) not in hat
