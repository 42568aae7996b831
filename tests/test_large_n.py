"""Large-n inputs that once exhausted the recursion limit.

Each expected value is computed here from first principles and shares no
code with the inclusion-exclusion or Gaussian-binomial engines.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import zeroruns
from zeroruns import compositions as comp, palindromic as pal, runcount as rc


def gaps_at_most_2(gaps, zeros):
    """Ways to put `zeros` zeros into `gaps` gaps, at most 2 per gap:
    choose the j gaps holding two and then the gaps holding one."""
    return sum(
        math.comb(gaps, j) * math.comb(gaps - j, zeros - 2 * j)
        for j in range(zeros // 2 + 1)
    )


def gaps_at_most_3(gaps, zeros):
    """The same with at most 3 per gap, by 1+z+z^2+z^3 = (1+z)(1+z^2):
    the gap polynomial's power is a product of two binomial rows."""
    return sum(
        math.comb(gaps, i) * math.comb(gaps, (zeros - i) // 2)
        for i in range(zeros % 2, zeros + 1, 2)
    )


# words of length 3000 with 1500 zeros and longest zero-run exactly 3
F_3000_1500_3 = gaps_at_most_3(1501, 1500) - gaps_at_most_2(1501, 1500)


def test_row_sum_and_diagonal_at_a_million():
    n = 10**6
    assert sum(rc.F(n, 10, k) for k in range(11)) == (
        math.prod(range(n - 9, n + 1)) // math.factorial(10)
    )
    for x in range(1, 11):
        assert rc.F(n, x, x) == n - x + 1


def test_half_length_row_at_3000():
    assert rc.F(3000, 1500, 3) == F_3000_1500_3


def test_palindromes_at_6001():
    # even zero count at odd length: the centre is a one and each half is a
    # length-3000 word with 1500 zeros and the same longest run
    assert pal.F_hat(6001, 3000, 3) == F_3000_1500_3


def test_partition_classes_at_4600():
    # one part 3 stripped: partitions of 2997 into at most 1600 parts <= 3
    direct = sum(
        1
        for c3 in range(2997 // 3 + 1)
        for c2 in range((2997 - 3 * c3) // 2 + 1)
        if (2997 - 3 * c3 - 2 * c2) + c2 + c3 <= 1600
    )
    assert comp.P(4600, 3000, 3) == direct
    # odd length, even zero count: a plain class at half length
    assert comp.P_hat(9201, 6000, 3) == direct


def test_cli_count_at_3000_exits_zero():
    src = str(Path(zeroruns.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "zeroruns.cli", "count", "F", "3000", "1500", "3",
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["count"] == F_3000_1500_3
