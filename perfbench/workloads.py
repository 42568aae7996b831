"""Seeded operation lists for the three workloads.

Pure data: nothing here imports zeroruns, so the library receives only the
generated inputs.  The same seed gives the same list on every run.  Each
list keeps its expensive shape fixed and lets the seed move values inside
narrow windows, so that run-to-run spread across seeds stays small while
the inputs still differ.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1707
HELD_OUT_SEED = 2187  # kept out of tuning; used to validate later claims

WORKLOADS = ("tables", "queries", "cli")
FAMILIES = ("F", "F_hat", "P", "binomial")

# `verify` sizes where the brute-force enumeration is a visible share of the
# command: 2^n words for core and compositions, 2^(n/2) half words for the
# palindromic suite.
VERIFY_MAX_N = {"core": 14, "palindromic": 26, "compositions": 14}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def tables(seed: int, smoke: bool = False) -> list[list]:
    """Bulk builds over an ascending ladder of orders, then sequence ranges.

    The largest order is fixed because it sets most of the cold cost (the
    smaller orders' entries are a subset of its recursion); the seed jitters
    the other orders and the sequence indices.
    """
    rng = _rng("tables", seed)
    top = 40 if smoke else 90
    # +-1 only: P_hat_total's cost climbs steeply with the order, and the
    # median operation of a pass is one of these builds.
    orders = [base + rng.randint(-1, 1) for base in range(top - 30, top, 8)] + [top]
    ops: list[list] = []
    for n in orders:
        ops += [["build_matrix", n], ["build_matrix_palindromic", n],
                ["support_hat_set", n], ["P_total", n], ["P_hat_total", n]]
    t_start = 2000 if smoke else 30_000
    o_start = 1000 if smoke else 20_000
    ops += [
        ["sequence", "t-run", t_start + rng.randint(-50, 50), 1, 2, 1],
        ["sequence", "o-run", o_start + rng.randint(-50, 50), 1, 3, 1],
        ["sequence", "column-sum", top - 12 + rng.randint(-2, 2), 10, 2, 1],
        ["sequence", "column-sum", top - 12 + rng.randint(-2, 2), 10, 2, 3],
    ]
    return ops


# Large-n rows: one fixed (x, parity of n) pair per slot, and slot j draws n
# from its own twelfth of the log range [10^3, 10^6].  Past n ~ 1000 for F
# and n ~ 2000 for F_hat (which recurses at half length), whether a row hits
# the recursion limit depends only on x and the parity of n.  The two bands
# below n = 3162 therefore hold x = 1, and an odd x with even n, where F_hat
# is 0 without recursing; then the failure count is the same for every seed.
_LARGE_SLOTS = [(1, 0), (7, 0), (6, 1), (11, 1), (4, 0), (9, 1),
                (2, 1), (12, 0), (5, 0), (10, 1), (3, 1), (8, 0)]
# Moderate rows: n near each base, x near a fixed share of n.
_MODERATE_BASES = (22, 33, 44, 55, 66, 77, 88, 99, 108)
_MODERATE_SHARES = (0.5, 0.2, 0.8, 0.35, 0.65, 0.5, 0.25, 0.75, 0.45)


def queries(seed: int, smoke: bool = False) -> list[list]:
    """Scattered single rows [family, n, x]: moderate n, large n with x <= 12,
    and x ~ n/2 near n = 3000.

    The order is a fixed interleave that alternates families and regimes and
    visits the moderate bases out of order.  A seeded shuffle would decide
    which row pays for memo entries that later rows reuse, and so move each
    row's cold latency from seed to seed.
    """
    rng = _rng("queries", seed)
    bases = _MODERATE_BASES[:3] if smoke else _MODERATE_BASES
    moderate, large = {}, {}
    for family in FAMILIES:
        moderate[family] = []
        for base, share in zip(bases, _MODERATE_SHARES):
            n = base + rng.randint(-2, 2)
            x = min(n, max(0, round(share * n) + rng.randint(-2, 2)))
            moderate[family].append([family, n, x])
        large[family] = []
        for j, (x, parity) in enumerate(_LARGE_SLOTS):
            n = round(10 ** (3 + 3 * (j + rng.random()) / len(_LARGE_SLOTS)))
            large[family].append([family, n + (n - parity) % 2, x])
    # One x ~ n/2 row: its 750 failing calls are most of a pass's time, and
    # a second row would cost a third of the workers a run can fit.
    n = 3000 + rng.randint(-20, 20)
    half = [["F", n, n // 2 + rng.randint(-2, 2)]]
    rows: list[list] = []
    for i in range(len(_LARGE_SLOTS)):
        for family in FAMILIES:
            rows.append(large[family][(5 * i) % len(_LARGE_SLOTS)])
            if i < len(bases):
                rows.append(moderate[family][(4 * i) % len(bases)])
        if i == 5:
            rows.append(half.pop())
    return rows


def cli(seed: int, smoke: bool = False) -> list[list[str]]:
    """One scripted session: argv lists for `python -m zeroruns.cli`."""
    rng = _rng("cli", seed)
    r = rng.randint
    cmds: list[list[str]] = []
    for _ in range(3):
        n = r(20, 40)
        x = r(2, n - 2)
        cmds.append(["count", "F", n, x, r(1, x)])
    n = 3000 + r(-20, 20)
    cmds.append(["count", "F", n, n // 2 + r(-2, 2), 3])
    for palindromic in ([], [], ["--palindromic"]):
        cmds.append(["table", r(12, 16)] + palindromic)
    for _ in range(2):
        cmds.append(["support", r(30, 40), "--formula"])
    for _ in range(2):
        cmds.append(["matrix", r(20, 40), "--props"])
    cmds += [
        ["seq", "t-run", "--r", 2, "--from", r(900, 1100), "--count", 5],
        ["seq", "o-run", "--r", 3, "--from", r(900, 1100), "--count", 5],
        ["seq", "column-sum", "--k", r(1, 3), "--from", r(20, 30), "--count", 10],
    ]
    for _ in range(2):
        cmds.append(["compositions", r(15, 40), "--stats"])
    for _ in range(2):
        cmds.append(["partitions", r(30, 50)])
    n = r(20, 40)
    x = r(3, n - 3)
    cmds.append(["partitions", n, x, r(1, x)])
    for suite, max_n in VERIFY_MAX_N.items():
        cmds.append(["verify", "--suite", suite, "--max-n", 8 if smoke else max_n])
    return [[str(a) for a in cmd] + ["--format", "json"] for cmd in cmds]


GENERATORS = {"tables": tables, "queries": queries, "cli": cli}
