"""Binary words, codes, and distances for a channel that only flips 1 -> 0.

Words are fixed-length bit strings stored as Python ints.  Position 1 of a
word is the *leftmost* character of its string form and lives in the least
significant bit of the mask, so ``BitWord.from_string("1100").mask == 0b0011``.
Sorting words by mask therefore sorts them by their string form read left to
right, which is the canonical order used everywhere a deterministic ranking
is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class BitWord:
    """An n-bit word.  Immutable, hashable, cheap to compare."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"word length must be positive, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask:#x} out of range for n={self.n}")

    @classmethod
    def from_string(cls, bits: str) -> "BitWord":
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError(f"not a bit string: {bits!r}")
        mask = 0
        for pos, ch in enumerate(bits):
            if ch == "1":
                mask |= 1 << pos
        return cls(len(bits), mask)

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> "BitWord":
        """Build a word from 1-based positions of its ones."""
        mask = 0
        for pos in support:
            if not 1 <= pos <= n:
                raise ValueError(f"position {pos} outside 1..{n}")
            mask |= 1 << (pos - 1)
        return cls(n, mask)

    @classmethod
    def zeros(cls, n: int) -> "BitWord":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitWord":
        return cls(n, (1 << n) - 1)

    def weight(self) -> int:
        return self.mask.bit_count()

    def support(self) -> tuple[int, ...]:
        """1-based positions carrying a 1, ascending."""
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def bit(self, pos: int) -> int:
        """Value at 1-based position ``pos``."""
        if not 1 <= pos <= self.n:
            raise ValueError(f"position {pos} outside 1..{self.n}")
        return self.mask >> (pos - 1) & 1

    def __str__(self) -> str:
        return "".join("1" if self.mask >> i & 1 else "0" for i in range(self.n))

    def covers(self, other: "BitWord") -> bool:
        """True when every 1 of ``other`` is also a 1 of this word."""
        self._check_compatible(other)
        return other.mask & ~self.mask == 0

    def _check_compatible(self, other: "BitWord") -> None:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")


def delta(x: BitWord, y: BitWord) -> int:
    """Number of positions where x has a 1 and y has a 0."""
    x._check_compatible(y)
    return (x.mask & ~y.mask).bit_count()


def dh(x: BitWord, y: BitWord) -> int:
    """Plain Hamming distance."""
    x._check_compatible(y)
    return (x.mask ^ y.mask).bit_count()


def dz(x: BitWord, y: BitWord) -> int:
    """Distance matched to one-way errors: twice the larger one-sided gap.

    Equals dh(x, y) + |weight(x) - weight(y)|, which the tests check
    independently.
    """
    x._check_compatible(y)
    return _dz_masks(x.mask, y.mask)


def _dz_masks(a: int, b: int) -> int:
    """dz on raw masks of one length."""
    return 2 * max((a & ~b).bit_count(), (b & ~a).bit_count())


def _weight_table(n: int) -> np.ndarray:
    """Weight of every n-bit mask, indexed by the mask."""
    weights = np.zeros(1 << n, dtype=np.uint8)
    for k in range(n):
        weights[1 << k : 2 << k] = weights[: 1 << k] + 1
    return weights


def _dz_row(v: int, d: int, weights: np.ndarray) -> int:
    """Bitset of the masks u with ``_dz_masks(u, v) >= d``, for an even
    d >= 2, over every mask of ``weights = _weight_table(n)``.

    With c = |u & v| the one-sided gaps are |u| - c and |v| - c, so
    dz(u, v) >= d exactly when max(|u|, |v|) - c >= d/2; bit v is never
    set.  The meet weights c of the first 2^10 masks are one gather; the
    rest are built by doubling, as ``_weight_table`` builds the weights,
    adding 1 only at v's bits, with no index array over all 2^n masks.
    Then one vectorised pass over all 2^n masks, packed into a Python int.
    """
    low = min(weights.size, 1 << 10)
    meet = np.empty_like(weights)
    meet[:low] = weights[np.arange(low) & v]
    for k in range(low.bit_length() - 1, weights.size.bit_length() - 1):
        np.add(meet[: 1 << k], v >> k & 1, out=meet[1 << k : 2 << k])
    gap = np.maximum(weights, weights[v])
    gap -= meet
    return int.from_bytes(np.packbits(gap >= d // 2, bitorder="little"), "little")


def zball_contains(center: BitWord, t: int, candidate: BitWord) -> bool:
    """Whether ``candidate`` can degrade into ``center`` with at most t flips.

    The ball around x of radius t holds every y whose support contains the
    support of x and whose weight exceeds x's by at most t.  (Degradation
    only clears ones, so the channel maps y down to x, never up.)
    """
    if t < 0:
        raise ValueError("radius must be nonnegative")
    center._check_compatible(candidate)
    if center.mask & ~candidate.mask:
        return False
    return candidate.weight() - center.weight() <= t


def avg_radius(points: Sequence[BitWord]) -> Fraction:
    """Mean one-sided gap from each point down to their common AND.

    The AND of the points is the deepest word they can all degrade to; the
    returned value is the average number of flips that takes.
    """
    if not points:
        raise ValueError("need at least one word")
    n = points[0].n
    for p in points:
        if p.n != n:
            raise ValueError(f"length mismatch: {p.n} vs {n}")
    return Fraction(_least_gap_total([p.mask for p in points], len(points)), len(points))


def _least_gap_total(masks: Sequence[int], k: int) -> int:
    """The least of (sum of weights - k |AND|) over the k-subsets of
    ``masks``, k >= 1: k times the least mean gap to a subset's AND."""
    best: int | None = None
    for sub in combinations(masks, k):
        meet = sub[0]
        tot = 0
        for m in sub:
            meet &= m
            tot += m.bit_count()
        gap = tot - k * meet.bit_count()
        if best is None or gap < best:
            best = gap
    if best is None:
        raise ValueError(f"fewer than {k} words")
    return best


class Code:
    """A set of distinct words of one common length, kept in canonical order.

    ``weight`` is the common weight when the code is constant-weight, else
    None.
    """

    __slots__ = ("words", "n", "weight")

    words: tuple[BitWord, ...]
    n: int
    weight: int | None

    def __init__(self, words: Iterable[BitWord]):
        ws = sorted(words, key=lambda w: w.mask)
        if not ws:
            raise ValueError("a code needs at least one word")
        n = ws[0].n
        for w in ws:
            if w.n != n:
                raise ValueError(f"length mismatch: {w.n} vs {n}")
        for a, b in zip(ws, ws[1:]):
            if a.mask == b.mask:
                raise ValueError(f"duplicate word {a}")
        self.words = tuple(ws)
        self.n = n
        weights = {w.weight() for w in ws}
        self.weight = weights.pop() if len(weights) == 1 else None

    @classmethod
    def from_strings(cls, bit_strings: Iterable[str]) -> "Code":
        return cls(BitWord.from_string(s) for s in bit_strings)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[BitWord]:
        return iter(self.words)

    def __contains__(self, w: BitWord) -> bool:
        return isinstance(w, BitWord) and w.n == self.n and w in set(self.words)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Code) and self.words == other.words

    def __hash__(self) -> int:
        return hash(self.words)

    def __repr__(self) -> str:
        return f"Code(n={self.n}, size={len(self.words)})"

    def min_dz(self) -> int | None:
        """Smallest pairwise distance, or None for a single-word code."""
        if len(self.words) < 2:
            return None
        return min(dz(a, b) for a, b in combinations(self.words, 2))

    def min_dh(self) -> int | None:
        if len(self.words) < 2:
            return None
        return min(dh(a, b) for a, b in combinations(self.words, 2))


def list_radius(code: Code | Sequence[BitWord], list_size: int) -> int:
    """Largest t such that no degraded word is consistent with more than
    ``list_size`` codewords.

    Computed from the dual view: over every (list_size + 1)-subset, take the
    largest gap from a member down to the subset's AND; the minimum of those
    maxima, minus one, is the radius.  A code with at most ``list_size``
    words never overfills a list, so the radius is the word length (flipping
    everything is still fine).
    """
    if list_size < 1:
        raise ValueError("list size must be at least 1")
    words = tuple(code.words if isinstance(code, Code) else code)
    if not words:
        raise ValueError("need a nonempty code")
    if len(words) <= list_size:
        return words[0].n
    return _subset_radius([w.mask for w in words], list_size)


def _subset_radius(masks: Sequence[int], list_size: int, *, last: bool = False) -> int:
    """list_radius on raw masks; callers guarantee len(masks) > list_size.

    With ``last``, only the subsets holding the final mask are scored: the
    radius a prefix search can lose by appending the final word.
    """
    # each subset's AND starts from all ones (-1) or from the final mask
    meet0, top0 = (masks[-1], masks[-1].bit_count()) if last else (-1, 0)
    best: int | None = None
    for sub in combinations(masks[:-1] if last else masks, list_size + 1 - last):
        meet, top = meet0, top0
        for m in sub:
            meet &= m
            c = m.bit_count()
            if c > top:
                top = c
        worst = top - meet.bit_count()
        if best is None or worst < best:
            best = worst
    assert best is not None
    return best - 1
