"""Exhaustive and randomized searches over small codes.

Everything here is desk-scale: word lengths around 20 and below, code sizes
in the single digits.  The searches are deterministic; randomized fallbacks
take an explicit seed and use the stdlib Mersenne Twister.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .words import BitWord, Code, _subset_radius


@dataclass(frozen=True)
class SearchBudget:
    """Caps that keep exhaustive searches from running away."""

    max_nodes: int = 10_000_000
    restarts: int = 200  # randomized fallback only
    seed: int = 2024


DEFAULT_BUDGET = SearchBudget()


@dataclass
class CodeSearchResult:
    code: Code
    objective: int
    optimal: bool
    nodes: int
    note: str = ""


def _dz_masks(a: int, b: int) -> int:
    return 2 * max((a & ~b).bit_count(), (b & ~a).bit_count())


def max_code(n: int, d: int, budget: SearchBudget | None = None) -> CodeSearchResult:
    """Largest code of length n with pairwise distance at least d.

    Depth-first search over words in canonical order, branching on
    include/exclude and pruning when the candidate pool cannot beat the
    incumbent.  The first maximum found (hence the canonically smallest)
    is returned.  If the node cap trips, ``optimal`` is False and the
    incumbent so far is returned.
    """
    if n < 1 or n > 24:
        raise ValueError(f"length {n} out of supported range 1..24")
    if d < 2 or d % 2:
        raise ValueError("distance must be even and at least 2")
    budget = budget or DEFAULT_BUDGET
    universe = 1 << n

    # adjacency[v] = bitset of words compatible with v (distance >= d)
    adjacency: dict[int, int] = {}

    def adj(v: int) -> int:
        got = adjacency.get(v)
        if got is None:
            got = 0
            for u in range(universe):
                if u != v and _dz_masks(u, v) >= d:
                    got |= 1 << u
            adjacency[v] = got
        return got

    best: list[int] = []
    chosen: list[int] = []
    nodes = 0
    truncated = False

    def dfs(pool: int) -> None:
        nonlocal nodes, truncated
        if truncated:
            return
        while pool:
            if len(chosen) + pool.bit_count() <= len(best):
                return
            nodes += 1
            if nodes > budget.max_nodes:
                truncated = True
                return
            v = (pool & -pool).bit_length() - 1
            pool ^= 1 << v
            chosen.append(v)
            if len(chosen) > len(best):
                best[:] = chosen
            dfs(pool & adj(v))
            chosen.pop()

    dfs((1 << universe) - 1)
    code = Code(BitWord(n, m) for m in best)
    note = "node budget exhausted" if truncated else ""
    return CodeSearchResult(code, len(best), not truncated, nodes, note)


def best_list_code(
    n: int,
    w: int,
    size: int,
    list_size: int,
    budget: SearchBudget | None = None,
) -> CodeSearchResult:
    """Constant-weight code of the given size maximizing the list radius.

    Exhaustive over all weight-w selections when the count of candidate
    codes fits the node budget; otherwise seeded random restarts.  Ties go
    to the canonically smallest code, so exhaustive runs are reproducible
    by construction and randomized runs via the seed.
    """
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} out of range for n={n}")
    if size < 1:
        raise ValueError("code size must be positive")
    budget = budget or DEFAULT_BUDGET
    shell = [m for m in range(1 << n) if m.bit_count() == w]
    if size > len(shell):
        raise ValueError(f"only {len(shell)} words of weight {w} exist")

    if size <= list_size:
        # any selection already attains radius n; keep the first
        code = Code(BitWord(n, m) for m in shell[:size])
        return CodeSearchResult(code, n, True, 0, "size within list bound")

    total = comb(len(shell), size)
    if total <= budget.max_nodes:
        best_obj = -1
        best_masks: tuple[int, ...] | None = None
        for masks in combinations(shell, size):
            obj = _subset_radius(masks, list_size)
            if obj > best_obj:
                best_obj = obj
                best_masks = masks
        assert best_masks is not None
        code = Code(BitWord(n, m) for m in best_masks)
        return CodeSearchResult(code, best_obj, True, total, "")

    rng = random.Random(budget.seed)
    best_obj = -1
    best_masks = None
    for _ in range(budget.restarts):
        masks = tuple(sorted(rng.sample(shell, size)))
        obj = _subset_radius(masks, list_size)
        if obj > best_obj or (obj == best_obj and (best_masks is None or masks < best_masks)):
            best_obj = obj
            best_masks = masks
    assert best_masks is not None
    code = Code(BitWord(n, m) for m in best_masks)
    return CodeSearchResult(
        code, best_obj, False, budget.restarts, "randomized search, optimum not certified"
    )


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
