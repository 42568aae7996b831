"""A held row answers its cells first.

F, F_hat and P probe their row store right after the argument check, and a
held row answers every 0 <= k <= x before any side test or kernel runs.
These tests hold that probe to the routed answer: a held row is exact on
every cell it covers, zeros included, and a cell it does not cover, k < 0 or
k > x, still goes the cold way.  A miss is routed by its store
(runcount._Rows.route): an empty class or a lone cell past the store's side
builds no row, and a lone cell on the row side builds its own row alone.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroruns import compositions as comp, palindromic as pal, runcount as rc
from zeroruns.matrices import build_matrix

STORES = {rc.F: rc._F_rows, pal.F_hat: pal._F_hat_rows, comp.P: comp._P_rows}
ORDERS = range(121)


def clear_stores():
    for store in STORES.values():
        store.clear()


def cells(x):
    """Every k of the row (n, x) and two past each end, so that a probe
    never reads row[-1] and a k above x is not read off the row."""
    return range(-2, x + 3)


@pytest.fixture
def built_once(monkeypatch):
    """Hand each store's build a memo of the builder's rows: a cold read
    then routes as it would with no row held, and the test does not pay
    for the same deterministic row once per cell."""
    for store in STORES.values():
        monkeypatch.setattr(store, "build", functools.cache(store.build))


def cold_row(f, n, x):
    """f(n, x, k) over cells(x), each read with every store cleared."""
    out = []
    for k in cells(x):
        clear_stores()
        out.append(f(n, x, k))
    return out


@pytest.mark.usefixtures("built_once")
@pytest.mark.parametrize("orders", [ORDERS[i::6] for i in range(6)],
                         ids=lambda orders: f"n={orders[0]}::6")
def test_held_rows_equal_cold_reads(orders):
    for n in orders:
        colds = {}
        for f, store in STORES.items():
            for x in range(n + 1):
                cold = colds[f, x] = cold_row(f, n, x)
                clear_stores()
                assert [f(n, x, k) for k in range(x + 1)] == cold[2:-2]
                assert (n, x) in store
                assert [f(n, x, k) for k in cells(x)] == cold, (f.__name__, n, x)
        for f, kind in ((rc.F, "plain"), (pal.F_hat, "palindromic")):
            clear_stores()
            build_matrix(n, kind)
            for x in range(n + 1):
                assert (n, x) in STORES[f]
                assert [f(n, x, k) for k in cells(x)] == colds[f, x], (kind, n, x)


def raises(*args, **kwargs):
    raise AssertionError("a warm cell routed")


# F rows past n // 2 on the dot side, a central-one palindromic row (odd n,
# even x, the plain half row's cells), a palindromic row with none (even n,
# odd x) and a partition row at x = 300
WARM_ROWS = ((rc.F, 2992, 1495), (pal.F_hat, 601, 300), (pal.F_hat, 600, 301),
             (comp.P, 600, 300))


def test_warm_reads_route_nothing(monkeypatch):
    clear_stores()
    first = [[f(n, x, k) for k in range(x + 1)] for f, n, x in WARM_ROWS]
    assert all(any(row) for row in first[:2] + first[3:]) and not any(first[2])
    for module, names in ((rc, ("feasible", "_dot_side", "_F_cell")),
                          (pal, ("feasible", "_dot_side", "_F_cell", "_F_hat_cell")),
                          (comp, ("feasible", "_box_sum"))):
        for name in names:
            monkeypatch.setattr(module, name, raises)
    monkeypatch.setattr(rc._Rows, "route", raises)
    for store in STORES.values():
        for name in ("build", "side", "cell"):
            monkeypatch.setattr(store, name, raises)
    assert [[f(n, x, k) for k in range(x + 1)] for f, n, x in WARM_ROWS] == first


# a lone cell past each store's side
PAST_SIDE = {rc.F: (10**5, 5 * 10**4, 40000), pal.F_hat: (20001, 10001, 1201),
              comp.P: (4600, 3000, 3)}


@pytest.mark.parametrize("f", STORES, ids=lambda f: f.__name__)
def test_lone_cells_hold_no_row_but_their_own_on_the_row_side(f):
    for cell, held in ((PAST_SIDE[f], []), ((300, 150, 0), []),
                       ((300, 150, 3), [(300, 150)])):
        clear_stores()
        assert (f(*cell) > 0) == (cell[2] > 0), cell
        assert [list(store) for store in STORES.values()] == [
            held if g is f else [] for g in STORES], cell


# a few rows of each count: n = x, x = 0, odd and even n and x, and for
# F_hat an odd-n row whose cells come from the plain half row
FEW_ROWS = ((20, 0), (20, 20), (21, 10), (24, 9), (25, 12), (30, 15), (31, 16))


@functools.cache
def cold(f, n, x, k):
    clear_stores()
    return f(n, x, k)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(STORES)), st.sampled_from(FEW_ROWS),
                          st.integers(-2, 33)), min_size=1, max_size=40))
def test_interleaved_reads_when_each_miss_clears_the_store(calls):
    expected = [cold(f, n, x, k) for f, (n, x), k in calls]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rc, "_ROW_CACHE_BYTES", 0)
        clear_stores()
        got = [f(n, x, k) for f, (n, x), k in calls]
        assert all(len(store) <= 1 for store in STORES.values())
    clear_stores()
    assert got == expected
