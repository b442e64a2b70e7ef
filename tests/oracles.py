"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own formulas: the list radius is
found by enumerating every receivable word, and the exponent functions
are summed term by term from their definitions.  Agreement between these
and the package routes is what the oracle tests assert.
"""

from itertools import product
from math import comb, exp, log


def list_radius_by_enumeration(masks, n, list_size):
    """Largest t such that no received word is explainable by more than
    ``list_size`` codewords after at most t one-to-zero flips.

    A word x can produce y exactly when x covers y; the cost is the
    weight excess.  Works by brute force over all 2^n received words.
    """
    worst = None
    for y in range(1 << n):
        wy = y.bit_count()
        excesses = sorted(
            x.bit_count() - wy for x in masks if x & y == y
        )
        if len(excesses) > list_size:
            cut = excesses[list_size]
            if worst is None or cut < worst:
                worst = cut
    if worst is None:
        return n
    return worst - 1


def pattern_covers_pair(bits, i, j):
    """Whether the pattern written as the bit string ``bits`` (position 1
    first) covers the 1-based pair (i, j): a 0 at position i, a 1 at j."""
    return bits[i - 1] == "0" and bits[j - 1] == "1"


def packing_violations(y, m):
    """Every length-m pattern, unpruned, whose covered pairs carry total
    packing weight above 1 under ``y`` (a dict from pairs to weights)."""
    out = []
    for bits in map("".join, product("01", repeat=m)):
        total = sum(v for (i, j), v in y.items() if pattern_covers_pair(bits, i, j))
        if total > 1:
            out.append(bits)
    return out


def direct_exponent(h, list_size, omega):
    """Term-by-term evaluation of the tilted total mass and its radius
    statistic, straight from the defining sums."""
    lp = list_size + 1
    total = omega**lp + (1.0 - omega) ** lp
    for i in range(1, list_size + 1):
        total += (
            exp(-h * i / lp) * comb(lp, i) * omega**i * (1.0 - omega) ** (lp - i)
        )
    num = 0.0
    for i in range(1, list_size + 1):
        num += (
            exp(-h * i / lp)
            * comb(list_size, i - 1)
            * omega**i
            * (1.0 - omega) ** (lp - i)
        )
    return -log(total), num / total


def count_ball(center, t, n):
    """All words the channel can turn ``center`` into within t flips."""
    out = []
    for y in range(1 << n):
        if center & y == y and center.bit_count() - y.bit_count() <= t:
            out.append(y)
    return out
