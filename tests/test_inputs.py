"""Non-int arguments are rejected before any cache is consulted."""

from fractions import Fraction

import pytest

from zeroruns import compositions as comp, palindromic as pal, runcount as rc

GOOD = [
    (rc.F, (7, 3, 1)),
    (pal.F_hat, (7, 3, 1)),
    (comp.P, (10, 7, 3)),
    (comp.P_hat, (15, 9, 3)),
    (rc.binomial, (5, 1)),
]


def bad_calls():
    for func, args in GOOD:
        for pos, value in enumerate(args):
            bad = [float(value), Fraction(value), str(value), None]
            if value in (0, 1):
                bad.append(bool(value))
            for b in bad:
                yield pytest.param(
                    func, args, args[:pos] + (b,) + args[pos + 1:],
                    id=f"{func.__name__}{args[:pos] + (b,) + args[pos + 1:]!r}",
                )


def clear_caches():
    rc._bounded.cache_clear()
    comp._classes.cache_clear()


@pytest.mark.parametrize("func, good, bad", bad_calls())
def test_rejected_cold(func, good, bad):
    clear_caches()
    with pytest.raises(ValueError):
        func(*bad)


@pytest.mark.parametrize("func, good, bad", bad_calls())
def test_rejected_warm(func, good, bad):
    func(*good)  # the equal-hashing int key is now cached
    with pytest.raises(ValueError):
        func(*bad)

