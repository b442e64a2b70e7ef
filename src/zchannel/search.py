"""Exact searches over small codes, and a sampled radius statistic.

Everything here is desk-scale: word lengths up to 24, code sizes in the
single digits.  Both searches are depth-first in canonical order and stop
once their node count passes ``max_nodes``, returning the incumbent with
``optimal`` False.  ``max_code`` prunes on a greedy colouring of its pool
(a code holds at most one word of a colour class, a set of pairwise
incompatible words), and its ``nodes`` counts branch nodes plus coloured
words.  It builds a word's compatibility row only when one of those units
first needs it, so the cap bounds that work, and the rows' memory, as
well.  ``sample_code_radius`` draws from an explicit seed.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb

from .words import BitWord, Code, _dz_row, _least_gap_total, _subset_radius, _weight_table

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


def _colour(
    q: int, tops: list[int], want: int, rows: dict[int, int], d: int, weights, units: int
) -> tuple[int, int]:
    """Greedy colour classes over the words of bitset q, appending each
    class's top (highest) word to ``tops``, until ``tops`` holds more than
    ``want`` classes or q is empty.  A class starts at the highest word of
    q and takes, in turn, the highest word left that is incompatible with
    every word it holds (the BBMC step), so a code holds at most one word
    of a class.  Each coloured word is one unit of work and builds at most
    its row.  Returns the words of q left uncoloured and the units spent:
    ``units + 1`` once a word is left to colour with the budget spent.
    """
    spent = 0
    while q and len(tops) <= want:
        c = q
        tops.append(q.bit_length() - 1)
        while c:
            if spent == units:
                return q, spent + 1
            spent += 1
            w = c.bit_length() - 1
            try:
                row = rows[w]
            except KeyError:
                row = rows[w] = _dz_row(w, d, weights)
            bit = 1 << w
            q ^= bit
            c = (c & ~row) ^ bit
    return q, spent


def max_code(n: int, d: int, *, max_nodes: int = MAX_NODES) -> CodeSearchResult:
    """Largest code of length n with pairwise distance at least d.

    Depth-first search over words in canonical order, branching on the
    lowest word of the pool, include before exclude.  The first maximum
    found (hence the canonically smallest) is returned.  The siblings of a
    depth branch on ever higher words of one pool, so one greedy
    colouring of that pool (``_colour``) bounds them all: the words >= v
    hold a code no larger than the number of classes whose top is >= v,
    and a sibling is pruned when depth + that count <= best.  The
    colouring is built lazily, for a sibling that passes depth + |pool| >
    best while depth < best (otherwise any pool branches), and only until
    the count exceeds best - depth.

    ``nodes`` counts branch nodes plus coloured words, and both draw on
    ``max_nodes``; each unit builds at most one row (``words._dz_row``).
    If the cap trips, the search stops at once: the incumbent so far is
    returned, ``optimal`` is False and ``nodes`` is ``max_nodes + 1``.
    Rows are kept, keyed by word, until the search ends, 2^n/8 bytes each,
    so they hold at most (max_nodes + 1) * 2^n/8 bytes.  Besides, the
    weight table takes 2^n bytes, one row build about 3 * 2^n bytes of
    numpy temporaries while it runs, and each depth (at most max_nodes of
    them) a pool and at most one set of uncoloured words of that size.
    """
    _check_caps(n, max_nodes)
    if d < 2 or d % 2:
        raise ValueError("distance must be even and at least 2")
    universe = 1 << n
    weights = _weight_table(n)
    # rows[v]: bitset of the words compatible with v, from the first unit
    # of work that needs it
    rows: dict[int, int] = {}
    best: list[int] = []
    best_size = 0
    chosen: list[int] = []
    # The frame of a depth: its pool, the words of the pool not yet
    # coloured (-1 before any colouring, so ``& pool`` gives the pool) and
    # the tops of its colour classes, descending.  stack[k] is depth k's
    # frame for when its current branch ends.  A loop, not recursion, since
    # a code (so the depth) can hold all 2^n words.
    stack: list[tuple[int, int, list[int]]] = []
    pool, uncoloured, tops = (1 << universe) - 1, -1, []
    depth = nodes = 0
    while True:
        live = pool and depth + pool.bit_count() > best_size
        if live and depth < best_size:
            v = (pool & -pool).bit_length() - 1
            while tops and tops[-1] < v:
                tops.pop()  # classes wholly below v, so out of the pool
            want = best_size - depth
            uncoloured, spent = _colour(
                uncoloured & pool, tops, want, rows, d, weights, max_nodes - nodes
            )
            nodes += spent
            if nodes > max_nodes:
                break
            # past want classes, or every word >= v coloured and counted
            live = len(tops) > want
        if live:
            nodes += 1
            if nodes > max_nodes:
                break
            low = pool & -pool
            v = low.bit_length() - 1
            chosen.append(v)
            if depth >= best_size:
                best, best_size = chosen[:], depth + 1
            try:
                row = rows[v]
            except KeyError:
                row = rows[v] = _dz_row(v, d, weights)
            stack.append((pool ^ low, uncoloured, tops))
            pool, uncoloured, tops = pool & row, -1, []
            depth += 1
            continue
        if not stack:
            break
        pool, uncoloured, tops = stack.pop()
        chosen.pop()
        depth -= 1
    truncated = nodes > max_nodes
    code = Code(BitWord(n, m) for m in best)
    note = "node budget exhausted" if truncated else ""
    return CodeSearchResult(code, best_size, not truncated, nodes, note)


def _shell(n: int, w: int) -> Iterator[int]:
    """The C(n, w) words of length n and weight w in ascending order, each
    from the one before by Gosper's same-popcount step."""
    v = (1 << w) - 1
    for k in range(comb(n, w)):
        if k:
            low = v & -v
            up = v + low
            v = up | ((v ^ up) >> 2) // low
        yield v


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
    The shell of weight-w words is read lazily from ``_shell``, only as
    far as the search reaches, so a capped search reads few of them.
    """
    _check_caps(n, max_nodes)
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} out of range for n={n}")
    if size < 1:
        raise ValueError("code size must be positive")
    if list_size < 1:
        raise ValueError("list size must be at least 1")
    total = comb(n, w)
    if size > total:
        raise ValueError(f"only {total} words of weight {w} exist")
    words, shell = _shell(n, w), []

    if size <= list_size:
        # any selection already attains radius n; keep the first
        code = Code(BitWord(n, m) for m in islice(words, size))
        return CodeSearchResult(code, n, True, 0, "size within list bound")

    best_obj, best, chosen, nodes = -1, [], [], 0

    def dfs(start: int, radius: int) -> None:
        # radius: list radius of ``chosen``, or n while it has no full subset
        nonlocal best_obj, nodes
        need = size - len(chosen)
        for i in range(start, total - need + 1):
            if nodes > max_nodes:
                return  # every caller up the stack returns here too
            try:
                chosen.append(shell[i])
            except IndexError:  # i is one past the words read so far
                shell.append(next(words))
                chosen.append(shell[i])
            r = radius
            if len(chosen) > list_size:
                r = min(r, _subset_radius(chosen, list_size, last=True))
            if r <= best_obj:
                nodes += comb(total - 1 - i, need - 1)
            elif need > 1:
                dfs(i + 1, r)
            else:
                nodes += 1
                best_obj, best[:] = r, chosen
            chosen.pop()

    dfs(0, n)
    code = Code(BitWord(n, m) for m in best)
    # a stopped search leaves at least one code undecided
    optimal = nodes == comb(total, size)
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
    if n < 1 or list_size < 1 or trials < 0:
        raise ValueError("need n >= 1, list_size >= 1 and trials >= 0")
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
        # the least average gap over (list_size + 1)-subsets, per position
        out.append(Fraction(_least_gap_total(masks, list_size + 1), (list_size + 1) * n))
    return out
