"""Desk-scale two-stage coding with one use of feedback, plus an
exhaustive adversary that tries every admissible error pattern.

Stage 1 sends a constant-weight codeword.  Because errors only clear
ones, the receiver reads the error count e straight off the received
weight, and both sides can rank the surviving candidates identically.
Stage 2 then transmits the rank inside a code picked for the actual list
size, sized so its guaranteed distance covers whatever error budget the
adversary has left.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Iterable, Mapping

from .words import BitWord, Code, dz, list_radius

ADVERSARY_BUDGET = 10_000_000
_MAX_FAILURES = 10  # failing transcripts kept in a report


class ProtocolError(ValueError):
    """Channel-contract violation or undecodable input."""


class BudgetExceededError(RuntimeError):
    """The exhaustive sweep would be too large; refused, never sampled."""


@dataclass(frozen=True)
class ProtocolParams:
    """A concrete two-stage instance.

    ``stage2_family`` maps a list size to the code used when the stage-1
    candidate list has exactly that many entries; each grade must hold at
    least that many words, all of one common length.
    """

    stage1: Code
    stage2_family: Mapping[int, Code]
    t: int

    def __post_init__(self) -> None:
        if self.stage1.weight is None:
            raise ProtocolError("stage-1 code must be constant-weight")
        if len(self.stage1) < 2:
            raise ProtocolError("need at least 2 messages")
        if self.t < 0:
            raise ProtocolError("error budget must be nonnegative")
        if not self.stage2_family:
            raise ProtocolError("stage-2 family must not be empty")
        lengths = {c.n for c in self.stage2_family.values()}
        if len(lengths) != 1:
            raise ProtocolError(f"stage-2 lengths differ: {sorted(lengths)}")
        for grade, code in self.stage2_family.items():
            if grade < 1:
                raise ProtocolError(f"list size {grade} invalid")
            if len(code) < grade:
                raise ProtocolError(
                    f"grade {grade} holds only {len(code)} words"
                )

    @property
    def n1(self) -> int:
        return self.stage1.n

    @property
    def n2(self) -> int:
        return next(iter(self.stage2_family.values())).n

    @property
    def w(self) -> int:
        assert self.stage1.weight is not None
        return self.stage1.weight

    @property
    def message_count(self) -> int:
        return len(self.stage1)

    def list_bound(self, e: int) -> int:
        """Largest candidate-list size e stage-1 errors can leave: the
        smallest L whose list radius covers e."""
        if e < 0:
            raise ProtocolError("error count must be nonnegative")
        # radii[L - 1] = list_radius(stage1, L), extended only as far as
        # asked.  It lives in this instance's __dict__ (the dataclass is
        # frozen, not slotted), so it goes when the instance goes.
        radii = self.__dict__.setdefault("_radii", [])
        for L in range(1, len(self.stage1) + 1):
            if L > len(radii):
                radii.append(list_radius(self.stage1, L))
            if e <= radii[L - 1]:
                return L
        return len(self.stage1)


@dataclass(frozen=True)
class ValidationRow:
    e: int
    list_bound: int
    required_dz: int
    available_dz: int | None  # smallest over grades 2..list_bound; None: none present
    ok: bool
    note: str = ""


@dataclass
class ValidationReport:
    rows: list[ValidationRow]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def __bool__(self) -> bool:
        return self.all_ok

    def failing(self) -> list[ValidationRow]:
        return [r for r in self.rows if not r.ok]


def validate_parameters(p: ProtocolParams) -> ValidationReport:
    """Per-error-count readiness check.

    For every stage-1 error count e the candidate list holds between 1
    and list_bound(e) entries, and stage 2 uses the grade of its actual
    size.  So every grade 2..list_bound(e) must exist and keep distance at
    least 2(t - e) + 1, so that the leftover budget cannot flip the rank.
    A list of one needs no stage 2.  A row reports the smallest distance
    among those grades and names the first one that fails.
    """
    rows: list[ValidationRow] = []
    for e in range(0, min(p.w, p.t) + 1):
        bound = p.list_bound(e)
        required = 2 * (p.t - e) + 1
        if bound == 1:
            rows.append(ValidationRow(e, bound, required, None, True,
                                      "single candidate, stage 2 unused"))
            continue
        sizes = range(2, bound + 1)
        # each grade >= 2 holds >= 2 words, so min_dz is not None
        have = {s: p.stage2_family[s].min_dz() for s in sizes if s in p.stage2_family}
        failing = next((s for s in sizes if have.get(s, -1) < required), None)
        if failing is None:
            note = ""
        elif failing not in have:
            note = f"no stage-2 code for list size {failing}"
        else:
            note = f"grade {failing} distance {have[failing]} below required {required}"
        rows.append(ValidationRow(e, bound, required, min(have.values(), default=None),
                                  failing is None, note))
    return ValidationReport(rows)


def encode_stage1(p: ProtocolParams, m: int) -> BitWord:
    """Codeword for message m (0-based rank in canonical order)."""
    if not 0 <= m < p.message_count:
        raise ProtocolError(f"message {m} outside 0..{p.message_count - 1}")
    return p.stage1.words[m]


def decode_candidates(p: ProtocolParams, y1: BitWord) -> list[int]:
    """Messages still consistent with the stage-1 output, in canonical
    order.  Every one of them sits exactly w - weight(y1) flips above y1."""
    if y1.n != p.n1:
        raise ProtocolError(f"stage-1 output has length {y1.n}, expected {p.n1}")
    if y1.weight() > p.w:
        raise ProtocolError("stage-1 output heavier than the codewords")
    cands = [i for i, c in enumerate(p.stage1.words) if c.covers(y1)]
    if not cands:
        raise ProtocolError("stage-1 output consistent with no codeword")
    return cands


def encode_stage2(p: ProtocolParams, m: int, y1: BitWord) -> BitWord:
    """Stage-2 codeword: the rank of m in the shared candidate list,
    expressed in the grade matching the list size.  A singleton list
    carries nothing and sends the all-zero word."""
    cands = decode_candidates(p, y1)
    if m not in cands:
        raise ProtocolError(f"message {m} not among candidates {cands}")
    size = len(cands)
    if size == 1:
        return BitWord.zeros(p.n2)
    code = p.stage2_family.get(size)
    if code is None:
        raise ProtocolError(f"no stage-2 code for list size {size}")
    return code.words[cands.index(m)]


def decode(p: ProtocolParams, y1: BitWord, y2: BitWord) -> int:
    """Recover the message: rebuild the candidate list from y1, then read
    the rank from y2 by nearest consistent stage-2 codeword (smallest
    index on ties).  Ignores y2 entirely when one candidate remains."""
    cands = decode_candidates(p, y1)
    size = len(cands)
    if size == 1:
        return cands[0]
    code = p.stage2_family.get(size)
    if code is None:
        raise ProtocolError(f"no stage-2 code for list size {size}")
    if y2.n != p.n2:
        raise ProtocolError(f"stage-2 output has length {y2.n}, expected {p.n2}")
    best_rank = -1
    best_d = None
    for rank in range(size):
        c = code.words[rank]
        if not c.covers(y2):
            continue
        d = dz(c, y2)
        if best_d is None or d < best_d:
            best_d = d
            best_rank = rank
    if best_rank < 0:
        raise ProtocolError("stage-2 output consistent with no codeword")
    return cands[best_rank]


@dataclass(frozen=True)
class Transcript:
    m: int
    x1: BitWord
    y1: BitWord
    x2: BitWord
    y2: BitWord
    m_hat: int | None  # None: decoding raised

    @property
    def ok(self) -> bool:
        return self.m_hat == self.m

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "x1": str(self.x1),
            "y1": str(self.y1),
            "x2": str(self.x2),
            "y2": str(self.y2),
            "m_hat": self.m_hat,
        }

    def digest_line(self) -> str:
        d = self.to_json_dict()
        return "|".join(str(d[k]) for k in ("m", "x1", "y1", "x2", "y2", "m_hat"))


@dataclass
class AdversaryReport:
    message: int
    passed: bool
    patterns: int
    failures: list[Transcript]
    digest: str


def _erase(word: BitWord, positions: Iterable[int]) -> BitWord:
    mask = word.mask
    for pos in positions:
        mask &= ~(1 << (pos - 1))
    return BitWord(word.n, mask)


def _subset_budget(w: int, t: int) -> int:
    return sum(comb(w, k) for k in range(0, min(w, t) + 1))


def adversary_exhaustive(p: ProtocolParams, m: int) -> AdversaryReport:
    """Try every split of the error budget against message m.

    Stage-1 error sets range over subsets of the sent support; the
    stage-2 set is chosen against the resulting stage-2 codeword, which
    makes the sweep automatically adaptive.  Refuses outright (never
    samples) when the pattern count would exceed the budget cap, which
    is checked first, since it is plain arithmetic; then refuses
    parameters that fail ``validate_parameters``.  The report's digest is
    a sha256 over every transcript in enumeration order, so reruns can
    be compared byte-for-byte.
    """
    x1 = encode_stage1(p, m)
    w2_max = max(
        (max(c.weight() for c in code) for code in p.stage2_family.values()),
    )
    cost = _subset_budget(p.w, p.t) * _subset_budget(w2_max, p.t)
    if cost > ADVERSARY_BUDGET:
        raise BudgetExceededError(
            f"{cost} patterns exceed the cap of {ADVERSARY_BUDGET}"
        )
    report = validate_parameters(p)
    if not report:
        bad = ", ".join(f"e={r.e}: {r.note}" for r in report.failing())
        raise ProtocolError(f"parameters fail validation ({bad})")

    support1 = x1.support()
    sha = hashlib.sha256()
    patterns = 0
    failures: list[Transcript] = []
    passed = True

    def record(t: Transcript) -> None:
        nonlocal patterns, passed
        patterns += 1
        if not t.ok:
            passed = False
            if len(failures) < _MAX_FAILURES:
                failures.append(t)
        sha.update(t.digest_line().encode())
        sha.update(b"\n")

    for k1 in range(0, min(p.w, p.t) + 1):
        for e1 in combinations(support1, k1):
            y1 = _erase(x1, e1)
            try:
                x2 = encode_stage2(p, m, y1)
            except ProtocolError:
                # no grade for this list size: every leftover budget fails
                zeros = BitWord.zeros(p.n2)
                record(Transcript(m, x1, y1, zeros, zeros, None))
                continue
            support2 = x2.support()
            for k2 in range(0, min(len(support2), p.t - k1) + 1):
                for e2 in combinations(support2, k2):
                    y2 = _erase(x2, e2)
                    try:
                        m_hat = decode(p, y1, y2)
                    except ProtocolError:
                        m_hat = None
                    record(Transcript(m, x1, y1, x2, y2, m_hat))
    return AdversaryReport(m, passed, patterns, failures, sha.hexdigest())


# ---------------------------------------------------------------------------
# fixture files


def write_code_file(path: str | Path, code: Code) -> None:
    w = code.weight
    header = f"n={code.n} w={w if w is not None else '-'}"
    lines = [header] + [str(word) for word in code.words]
    Path(path).write_text("\n".join(lines) + "\n")


def read_code_file(path: str | Path) -> Code:
    text = Path(path).read_text()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ProtocolError(f"{path}: empty code file")
    head = lines[0].split()
    if len(head) != 2 or not head[0].startswith("n=") or not head[1].startswith("w="):
        raise ProtocolError(f"{path}: bad header {lines[0]!r}")
    n = int(head[0][2:])
    wdecl = head[1][2:]
    code = Code.from_strings(lines[1:])
    if code.n != n:
        raise ProtocolError(f"{path}: header says n={n}, words have length {code.n}")
    if wdecl != "-":
        if code.weight != int(wdecl):
            raise ProtocolError(
                f"{path}: header says w={wdecl}, words disagree"
            )
    return code
