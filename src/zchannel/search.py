"""Exact searches over small codes, and a sampled radius statistic.

Everything here is desk-scale: word lengths up to 24, code sizes in the
single digits.  Both searches are depth-first in canonical order and stop
once their node count passes ``max_nodes``, returning the incumbent with
``optimal`` False.  ``max_code`` builds a word's compatibility row only
when it first branches on that word, so the cap bounds that work as well.
``sample_code_radius`` draws from an explicit seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .words import BitWord, Code, _dz_row, _subset_radius, _weight_table

MAX_NODES = 10_000_000


@dataclass
class CodeSearchResult:
    code: Code
    objective: int
    optimal: bool
    nodes: int
    note: str = ""


def _check_caps(n: int, max_nodes: int) -> None:
    if not 1 <= n <= 24:
        raise ValueError(f"length {n} out of supported range 1..24")
    if max_nodes < 1:
        raise ValueError(f"node budget must be at least 1, got {max_nodes}")


def max_code(n: int, d: int, *, max_nodes: int = MAX_NODES) -> CodeSearchResult:
    """Largest code of length n with pairwise distance at least d.

    Depth-first search over words in canonical order, branching on
    include/exclude and pruning when the candidate pool cannot beat the
    incumbent.  The first maximum found (hence the canonically smallest)
    is returned.  If the node cap trips, the search stops at once: the
    incumbent so far is returned, ``optimal`` is False and ``nodes`` is
    ``max_nodes + 1``.  A word's row of compatible words is
    built (``words._dz_row``) when the search first branches on it, so at
    most one row per node.
    """
    _check_caps(n, max_nodes)
    if d < 2 or d % 2:
        raise ValueError("distance must be even and at least 2")
    universe = 1 << n
    weights = _weight_table(n)
    # rows[v]: bitset of the words compatible with v; None until the
    # search first branches on v
    rows: list[int | None] = [None] * universe
    best: list[int] = []
    best_size = 0
    chosen: list[int] = []
    # stack[k]: the pool left at depth k for when its current branch ends.
    # A loop, not recursion, since a code (so the depth) can hold all 2^n
    # words.
    stack: list[int] = []
    pool, depth, nodes = (1 << universe) - 1, 0, 0
    while True:
        if pool and depth + pool.bit_count() > best_size:
            nodes += 1
            if nodes > max_nodes:
                break
            low = pool & -pool
            v = low.bit_length() - 1
            chosen.append(v)
            if depth >= best_size:
                best, best_size = chosen[:], depth + 1
            row = rows[v]
            if row is None:
                row = rows[v] = _dz_row(v, d, weights)
            pool ^= low
            stack.append(pool)
            pool &= row
            depth += 1
            continue
        if not stack:
            break
        pool = stack.pop()
        chosen.pop()
        depth -= 1
    truncated = nodes > max_nodes
    code = Code(BitWord(n, m) for m in best)
    note = "node budget exhausted" if truncated else ""
    return CodeSearchResult(code, best_size, not truncated, nodes, note)


def best_list_code(
    n: int, w: int, size: int, list_size: int, *, max_nodes: int = MAX_NODES
) -> CodeSearchResult:
    """Constant-weight code of the given size maximizing the list radius.

    Depth-first search over the weight-w words, meeting codes in
    ``itertools.combinations`` order.  Adding a word only adds
    (list_size + 1)-subsets, so a prefix whose list radius is at most the
    incumbent's is pruned, and ties go to the first code in that order.
    ``nodes`` counts candidate codes decided, a pruned prefix deciding all
    its completions, so a finished search reports C(|shell|, size).  Once
    it passes ``max_nodes`` with work left, the incumbent is returned with
    ``optimal`` False; the first code decided is always a new incumbent.
    """
    _check_caps(n, max_nodes)
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} out of range for n={n}")
    if size < 1:
        raise ValueError("code size must be positive")
    if list_size < 1:
        raise ValueError("list size must be at least 1")
    if size > comb(n, w):
        raise ValueError(f"only {comb(n, w)} words of weight {w} exist")
    shell = [m for m in range(1 << n) if m.bit_count() == w]

    if size <= list_size:
        # any selection already attains radius n; keep the first
        code = Code(BitWord(n, m) for m in shell[:size])
        return CodeSearchResult(code, n, True, 0, "size within list bound")

    best_obj, best, chosen, nodes = -1, [], [], 0

    def dfs(start: int, radius: int) -> None:
        # radius: list radius of ``chosen``, or n while it has no full subset
        nonlocal best_obj, nodes
        need = size - len(chosen)
        for i in range(start, len(shell) - need + 1):
            if nodes > max_nodes:
                return  # every caller up the stack returns here too
            chosen.append(shell[i])
            r = radius
            if len(chosen) > list_size:
                r = min(r, _subset_radius(chosen, list_size, last=True))
            if r <= best_obj:
                nodes += comb(len(shell) - 1 - i, need - 1)
            elif need > 1:
                dfs(i + 1, r)
            else:
                nodes += 1
                best_obj, best[:] = r, chosen
            chosen.pop()

    dfs(0, n)
    code = Code(BitWord(n, m) for m in best)
    # a stopped search leaves at least one code undecided
    optimal = nodes == comb(len(shell), size)
    note = "" if optimal else "node budget exhausted"
    return CodeSearchResult(code, best_obj, optimal, nodes, note)


def sample_code_radius(
    n: int,
    size: int,
    omega: float,
    list_size: int,
    trials: int,
    seed: int,
) -> list[Fraction]:
    """Radius statistic of random codes: draw ``size`` words with i.i.d.
    Bernoulli(omega) bits, then take the smallest average gap-to-AND over
    all (list_size + 1)-subsets.  Returns one Fraction per trial (already
    divided by n).  Deterministic for a fixed seed.
    """
    if size <= list_size:
        raise ValueError("need more words than the list size")
    if not 0.0 <= omega <= 1.0:
        raise ValueError("bit probability must be in [0, 1]")
    rng = random.Random(seed)
    out: list[Fraction] = []
    for _ in range(trials):
        masks = []
        for _ in range(size):
            m = 0
            for i in range(n):
                if rng.random() < omega:
                    m |= 1 << i
            masks.append(m)
        # the average gap is this total over list_size + 1, so the integer
        # minimum picks the same subset
        best: int | None = None
        for sub in combinations(masks, list_size + 1):
            meet = sub[0]
            tot = 0
            for m in sub:
                meet &= m
                tot += m.bit_count()
            gap = tot - (list_size + 1) * meet.bit_count()
            if best is None or gap < best:
                best = gap
        assert best is not None
        out.append(Fraction(best, (list_size + 1) * n))
    return out
