"""Exact-rational LP for the largest correctable error fraction of size-M codes.

For a code of M words, the guaranteed-correctable fraction tau(M) is the
reciprocal of the optimum of a small packing LP: variables y over ordered
pairs (i, j), i < j, constrained by one column per binary pattern b of
length M, whose (i, j) entry is 1 exactly when b_i = 0 and b_j = 1.  We
solve the equivalent covering form (minimize the total dual weight over
patterns subject to every pair being covered) with a dense simplex on a
fraction-free integer tableau: every entry is an exact integer over one
shared denominator, held in int64 while a bound checked before each pivot
rules out overflow and in Python ints from then on.  Results are exact
`fractions.Fraction`s and come with a primal/dual certificate that
`verify_certificate` re-checks independently, in Fractions.

Pattern pruning: a pattern starting with 1 or ending with 0 is either
empty or dominated by the pattern obtained by forcing b_1 = 0, b_M = 1
(that only adds covered pairs).  The 2^(M-2) patterns with b_1 = 0 and
b_M = 1 have pairwise incomparable pair-sets, so they are exactly the
columns that survive pruning.

Sizes 13 and up use column generation: the restricted LP is still solved
exactly, floating point only screens for violated patterns, and every
candidate is re-checked in exact arithmetic before it enters.  The final
certificate is verified against the full pruned column set either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .words import BitWord

F = Fraction
_ZERO = F(0)
_ONE = F(1)

#: Reference values for solved sizes, cross-checked against solve_tau in the
#: test suite (the solver output is authoritative; a mismatch is a test
#: failure, not a reason to prefer this dict).
TAU_TABLE: dict[int, Fraction] = {
    2: F(1),
    3: F(1, 2),
    4: F(1, 2),
    5: F(2, 5),
    6: F(2, 5),
    7: F(3, 8),
    8: F(4, 11),
    9: F(13, 37),
    10: F(9, 26),
    11: F(31, 92),
    12: F(1, 3),
    13: F(18, 55),
    14: F(35, 108),
    # 15..18 are the certified LP optima.  Values sometimes quoted for these
    # sizes (377/1177, 1029/3238, 712/2263, 1083/3467) are small-denominator
    # rationalizations of inexact floating solves; they fail the exact
    # primal/dual check, while the fractions below pass it and agree with an
    # independent float solve to ten decimals.
    15: F(1090, 3403),
    16: F(184, 579),
    17: F(1396, 4437),
    18: F(13255, 42433),
}

_DIRECT_LIMIT = 12  # build every pruned column up to here; column generation beyond
_BLAND_AFTER = 2000  # pivots per phase before entering switches to smallest index
_CG_BATCH = 40  # columns added per column-generation round
_CG_ROUNDS_CAP = 400
_INT64_LIMIT = 1 << 63  # tableau values at or past this switch to Python ints


class UnresolvedError(RuntimeError):
    """Raised when a cap trips before an exact certificate exists.

    ``bounds`` carries whatever one-sided information was established, as
    Fractions keyed by name (possibly empty).
    """

    def __init__(self, message: str, bounds: dict[str, Fraction] | None = None):
        super().__init__(message)
        self.bounds = bounds or {}


def _pruned_masks(m: int) -> list[int]:
    """Patterns with first coordinate 0 and last coordinate 1, ascending."""
    top = 1 << (m - 1)
    return [top | (mid << 1) for mid in range(1 << (m - 2))] if m >= 2 else []


@dataclass(frozen=True)
class PairMatrix:
    """Pair-versus-pattern incidence after pruning.

    ``pairs`` are the 1-based (i, j) with i < j, in lexicographic order;
    ``patterns`` are the surviving column masks (coordinate 1 in the least
    significant bit, matching BitWord).  ``prune_stats`` records how the
    original 2^M columns were disposed of.
    """

    m: int
    pairs: tuple[tuple[int, int], ...]
    patterns: tuple[int, ...]
    prune_stats: dict[str, int] = field(compare=False)

    def column_rows(self, pattern: int) -> tuple[int, ...]:
        """Indices into ``pairs`` of the (i, j) with b_i = 0 and b_j = 1 in
        the given pattern: the one incidence rule behind columns, row sums
        and the covering check."""
        # a list, not a generator: tuple() over a generator resizes as it
        # goes and leaves tuples of many sizes on the free lists, which
        # raises peak memory when columns are built and dropped repeatedly
        return tuple([
            r for r, (i, j) in enumerate(self.pairs)
            if (pattern >> (i - 1) & 1) == 0 and (pattern >> (j - 1) & 1)
        ])


def build_pair_matrix(M: int) -> PairMatrix:
    if not 2 <= M <= 20:
        raise ValueError(f"size {M} outside supported range 2..20")
    pairs = tuple((i, j) for i in range(1, M + 1) for j in range(i + 1, M + 1))
    kept = _pruned_masks(M)
    total = 1 << M
    empty = M + 1  # the non-increasing patterns 1..10..0 cover no pair
    stats = {
        "total_columns": total,
        "kept": len(kept),
        "dropped_empty": empty,
        "dropped_dominated": total - empty - len(kept),
    }
    return PairMatrix(M, pairs, tuple(kept), stats)


@dataclass
class TauCertificate:
    """Exact optimum with both LP sides.

    ``primal`` maps pairs (i, j) to their packing weight y, ``dual`` maps
    pattern masks to their covering weight z; ``value`` is the shared
    objective and ``tau`` its reciprocal.  Only nonzero entries are stored.
    """

    m: int
    tau: Fraction
    value: Fraction
    primal: dict[tuple[int, int], Fraction]
    dual: dict[int, Fraction]
    meta: dict[str, object] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "tau": str(self.tau),
            "value": str(self.value),
            "primal": {
                f"{i},{j}": str(v) for (i, j), v in sorted(self.primal.items())
            },
            "dual": {
                str(BitWord(self.m, p)): str(v) for p, v in sorted(self.dual.items())
            },
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TauCertificate":
        m = int(data["m"])
        primal = {}
        for key, val in data["primal"].items():
            i, j = (int(part) for part in key.split(","))
            primal[(i, j)] = F(val)
        dual = {BitWord.from_string(key).mask: F(val) for key, val in data["dual"].items()}
        return cls(m, F(data["tau"]), F(data["value"]), primal, dual)


@dataclass
class CertificateCheck:
    ok: bool
    diagnostics: list[str]

    def __bool__(self) -> bool:
        return self.ok


def _absmax(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


class _ExactSimplex:
    """Dense two-phase simplex over a fraction-free integer tableau.

    The tableau ``T`` (rows by columns), the right-hand side ``rhs`` and the
    reduced-cost row ``red`` hold integers over one shared positive
    denominator ``den``: entry (i, j) of the true tableau is
    ``T[i, j] / den``.  Pivoting on (r, c) with p = T[r, c] keeps row r,
    maps every other row to ``(T[i] * p - T[i, c] * T[r]) // den`` and sets
    ``den = p`` (Edmonds; Bareiss).  That division is exact: every entry is
    a minor of the integer input, and ``den`` is the absolute determinant
    of the current basis.  A negative pivot, which only the forced pivots
    of ``_drive_out_artificials`` can meet, negates everything so that
    ``den`` stays positive.  Fractions appear only when results are read.

    The arrays start as int64.  Before each update the largest value it can
    produce is bounded; the first time the bound reaches 2**63 the arrays
    are converted once to ``dtype=object`` (Python ints) and the same
    expressions carry on exactly.

    Column layout: the first ``m`` columns are the artificial variables
    (their block stays equal to ``den`` times the basis inverse, which
    hands us duals and lets new columns be priced into the current basis),
    followed by structural columns.  Entering choice is the most negative
    reduced cost, first index on ties, with a switch to smallest index
    after ``_BLAND_AFTER`` pivots, so runs terminate even on degenerate
    bases.  The ratio test compares ``rhs[i] / T[i, c]`` by cross
    multiplication; ties break on smallest basis label.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        costs: Sequence[int],
        rhs: Sequence[int],
        pivot_cap: int,
    ):
        self.m = len(rhs)
        self.pivot_cap = pivot_cap
        self.pivots = 0
        self.den = 1
        self.T = np.eye(self.m, dtype=np.int64)
        self.rhs = np.array(rhs, dtype=np.int64)
        if (self.rhs < 0).any():
            raise ValueError("right-hand side must be nonnegative")
        self.red = np.zeros(self.m, dtype=np.int64)  # set at the start of each phase
        self.costs = np.zeros(0, dtype=np.int64)  # structural, phase 2
        self.basis = list(range(self.m))  # artificial i basic in row i
        self._append_columns(matrix, costs)

    # -- column bookkeeping ------------------------------------------------

    def _promote_if(self, bound: int) -> None:
        """Switch to exact Python ints before an update whose values may
        reach ``bound`` in magnitude, if int64 cannot hold that."""
        if bound >= _INT64_LIMIT and self.T.dtype != object:
            self.T, self.rhs, self.red = (
                a.astype(object) for a in (self.T, self.rhs, self.red)
            )

    def _append_columns(self, matrix: np.ndarray, costs: Sequence[int]) -> None:
        """Price raw integer columns (rows by k) into the current basis."""
        cols = np.asarray(matrix, dtype=np.int64)
        self._promote_if(
            _absmax(self.T[:, : self.m]) * int(np.abs(cols).sum(axis=0).max(initial=0))
        )
        priced = self.T[:, : self.m] @ cols.astype(self.T.dtype)
        self.T = np.hstack([self.T, priced])
        self.costs = np.concatenate([self.costs, np.asarray(costs, dtype=np.int64)])

    def _phase_costs(self, phase: int) -> np.ndarray:
        if phase == 1:
            return np.concatenate(
                [np.ones(self.m, dtype=np.int64), np.zeros_like(self.costs)]
            )
        return np.concatenate([np.zeros(self.m, dtype=np.int64), self.costs])

    # -- core pivoting -----------------------------------------------------

    def _set_reduced_costs(self, phase: int) -> None:
        c = self._phase_costs(phase)
        cb = c[self.basis]
        self._promote_if(
            int(np.abs(cb).sum()) * _absmax(self.T) + _absmax(c) * self.den
        )
        c = c.astype(self.T.dtype)
        self.red = c * self.den - c[self.basis] @ self.T

    def _pivot(self, r: int, c: int) -> None:
        p = int(self.T[r, c])
        if self.T.dtype != object:
            col, row = _absmax(self.T[:, c]), _absmax(self.T[r])
            self._promote_if(max(
                _absmax(self.T) * abs(p) + col * row,
                _absmax(self.rhs) * abs(p) + col * abs(int(self.rhs[r])),
                _absmax(self.red) * abs(p) + abs(int(self.red[c])) * row,
            ))
        # in place, so that no full-size temporary but the outer product is
        # made; the pivot row and column are copied first
        T, rhs, red, den = self.T, self.rhs, self.red, self.den
        prow, pcol, prhs, pred = T[r].copy(), T[:, c].copy(), rhs[r], red[c]
        T *= p
        T -= np.outer(pcol, prow)
        T //= den
        T[r] = prow
        rhs *= p
        rhs -= pcol * prhs
        rhs //= den
        rhs[r] = prhs
        red *= p
        red -= pred * prow
        red //= den
        if p < 0:
            for a in (T, rhs, red):
                np.negative(a, out=a)
            p = -p
        self.den = p
        self.basis[r] = c
        self.pivots += 1

    def _run_phase(self, phase: int) -> None:
        self._set_reduced_costs(phase)
        lo = 0 if phase == 1 else self.m  # artificials may enter in phase 1 only
        phase_pivots = 0
        while True:
            red = self.red[lo:]
            if phase_pivots < _BLAND_AFTER:
                j = int(np.argmin(red))
                if red[j] >= 0:
                    return
            else:
                negative = np.flatnonzero(red < 0)
                if not negative.size:
                    return
                j = int(negative[0])
            entering = lo + j
            leaving, best_b, best_a = -1, 0, 1
            for i, (a, b) in enumerate(zip(self.T[:, entering].tolist(), self.rhs.tolist())):
                if a > 0 and (
                    leaving < 0
                    or b * best_a < best_b * a
                    or (b * best_a == best_b * a and self.basis[i] < self.basis[leaving])
                ):
                    leaving, best_b, best_a = i, b, a
            if leaving < 0:
                raise RuntimeError("phase objective unbounded; malformed input")
            self._pivot(leaving, entering)
            phase_pivots += 1
            if self.pivots > self.pivot_cap:
                raise UnresolvedError(
                    f"pivot cap {self.pivot_cap} reached in phase {phase}"
                )

    def solve(self) -> None:
        """Phase 1 then phase 2; afterwards the basis is primal optimal."""
        self._run_phase(1)
        if any(self.rhs[i] != 0 for i, b in enumerate(self.basis) if b < self.m):
            raise RuntimeError("infeasible system; malformed input")
        self._drive_out_artificials()
        self._run_phase(2)

    def _drive_out_artificials(self) -> None:
        for i in range(self.m):
            if self.basis[i] >= self.m:
                continue
            nonzero = np.flatnonzero(self.T[i, self.m :])
            if not nonzero.size:
                continue  # redundant row; artificial stays basic at zero
            self._pivot(i, self.m + int(nonzero[0]))

    # -- extraction --------------------------------------------------------

    def objective(self) -> Fraction:
        cb = self._phase_costs(2)[self.basis].tolist()
        return F(sum(v * b for v, b in zip(cb, self.rhs.tolist())), self.den)

    def structural_solution(self) -> dict[int, Fraction]:
        return {
            b - self.m: F(v, self.den)
            for b, v in zip(self.basis, self.rhs.tolist())
            if b >= self.m and v
        }

    def duals(self) -> list[Fraction]:
        """Simplex multipliers for the original rows (phase-2 costs)."""
        pi = [0] * self.m
        for i, cb in enumerate(self._phase_costs(2)[self.basis].tolist()):
            if cb:
                for k, t in enumerate(self.T[i, : self.m].tolist()):
                    pi[k] += cb * t
        return [F(v, self.den) for v in pi]


def _covering_matrix(pm: PairMatrix, masks: Sequence[int]) -> np.ndarray:
    """0/1 pair-by-pattern incidence for the given patterns."""
    cols = np.zeros((len(pm.pairs), len(masks)), dtype=np.int64)
    for j, mask in enumerate(masks):
        cols[list(pm.column_rows(mask)), j] = 1
    return cols


def _exact_row_sum(y: Sequence[Fraction], pm: PairMatrix, mask: int) -> Fraction:
    return sum((y[r] for r in pm.column_rows(mask) if y[r]), _ZERO)


def _seed_masks(m: int) -> list[int]:
    """Starting columns for column generation: every 0-run/1-run split
    0^a 1^b plus one alternating pattern.  All lie in the pruned set."""
    seeds = []
    for a in range(1, m):
        seeds.append(((1 << (m - a)) - 1) << a)
    alternating = 0
    for i in range(1, m, 2):
        alternating |= 1 << i
    if m >= 2:
        alternating &= ~1
        alternating |= 1 << (m - 1)
        seeds.append(alternating)
    return sorted(set(seeds))


def _solve_covering(
    M: int,
    *,
    column_generation: bool,
    pivot_cap: int = 2_000_000,
) -> TauCertificate:
    pm = build_pair_matrix(M)
    pairs = pm.pairs
    K = len(pairs)
    started = time.monotonic()

    # col_mask runs parallel to the structural columns: the pattern behind
    # each one, or None for a surplus variable.
    initial = _seed_masks(M) if column_generation else list(pm.patterns)
    cols = np.hstack([_covering_matrix(pm, initial), -np.eye(K, dtype=np.int64)])
    col_mask: list[int | None] = list(initial) + [None] * K
    sx = _ExactSimplex(cols, [1] * len(initial) + [0] * K, [1] * K, pivot_cap)
    sx.solve()
    rounds = 0

    if column_generation:
        all_masks = pm.patterns
        bits = np.zeros((len(all_masks), M), dtype=np.float64)
        for idx, mask in enumerate(all_masks):
            for i in range(M):
                if mask >> i & 1:
                    bits[idx, i] = 1.0
        active_set = set(initial)
        while True:
            rounds += 1
            if rounds > _CG_ROUNDS_CAP:
                raise UnresolvedError(
                    f"column generation did not converge in {_CG_ROUNDS_CAP} rounds",
                    {"tau_lower": _ONE / sx.objective()},
                )
            y = sx.duals()
            yf = np.zeros((M, M))
            for r, (i, j) in enumerate(pairs):
                yf[i - 1, j - 1] = float(y[r])
            # pattern p violates y.D <= 1 when sum_{j in p, i not in p, i<j} y_ij > 1
            t = bits @ yf.T
            viol = t.sum(axis=1) - (bits * t).sum(axis=1)

            fresh: list[tuple[Fraction, int]] = []
            strong = np.nonzero(viol > 1.0 + 1e-9)[0]
            if strong.size:
                order = strong[np.argsort(-viol[strong])]
                for idx in order[: 6 * _CG_BATCH]:
                    mask = all_masks[int(idx)]
                    if mask in active_set:
                        continue
                    exact = _exact_row_sum(y, pm, mask)
                    if exact > 1:
                        fresh.append((exact, mask))
                        if len(fresh) >= _CG_BATCH:
                            break
            if not fresh:
                # nothing clearly violated in float: settle the borderline
                # cases exactly before declaring optimality
                near = np.nonzero(viol > 1.0 - 1e-6)[0]
                for idx in near:
                    mask = all_masks[int(idx)]
                    if mask in active_set:
                        continue
                    exact = _exact_row_sum(y, pm, mask)
                    if exact > 1:
                        fresh.append((exact, mask))
                        if len(fresh) >= _CG_BATCH:
                            break
                if not fresh:
                    break
            fresh.sort(key=lambda item: (-item[0], item[1]))
            new_masks = [mask for _, mask in fresh[:_CG_BATCH]]
            sx._append_columns(_covering_matrix(pm, new_masks), [1] * len(new_masks))
            col_mask.extend(new_masks)
            active_set.update(new_masks)
            sx._run_phase(2)  # appended columns leave the basis feasible

    value = sx.objective()
    if value <= 0:
        raise RuntimeError("covering optimum must be positive")
    tau = _ONE / value

    y = sx.duals()
    primal = {pairs[r]: v for r, v in enumerate(y) if v != 0}
    dual: dict[int, Fraction] = {}
    for j, v in sx.structural_solution().items():
        mask = col_mask[j]
        if mask is not None:
            dual[mask] = dual.get(mask, _ZERO) + v

    cert = TauCertificate(
        M,
        tau,
        value,
        primal,
        dual,
        meta={
            "pivots": sx.pivots,
            "rounds": rounds,
            "active_columns": sum(1 for m_ in col_mask if m_ is not None),
            "wall_seconds": round(time.monotonic() - started, 3),
            "column_generation": column_generation,
        },
    )
    return cert


def solve_tau(M: int, *, pivot_cap: int = 2_000_000) -> TauCertificate:
    """Exact optimum and certificate for the size-M pair LP.

    Direct solve over every pruned column through M=12; column generation
    beyond (still exact; floats only nominate columns).  Raises
    UnresolvedError when an iteration cap trips first.
    """
    if not 2 <= M <= 18:
        raise ValueError(f"size {M} outside supported range 2..18")
    cert = _solve_covering(
        M, column_generation=M > _DIRECT_LIMIT, pivot_cap=pivot_cap
    )
    check = verify_certificate(cert)
    if not check:
        raise RuntimeError(
            "solver produced a certificate that fails verification: "
            + "; ".join(check.diagnostics)
        )
    return cert


def verify_certificate(cert: TauCertificate) -> CertificateCheck:
    """Re-check both LP sides in exact arithmetic against a fresh matrix.

    Pruning soundness makes the pruned column set sufficient for the
    packing side: every dropped column is dominated entrywise, so a
    nonnegative y satisfying the kept constraints satisfies them all.
    """
    diags: list[str] = []
    try:
        pm = build_pair_matrix(cert.m)
    except ValueError as exc:
        return CertificateCheck(False, [str(exc)])
    pair_index = {pair: r for r, pair in enumerate(pm.pairs)}

    if cert.value <= 0:
        diags.append(f"objective {cert.value} not positive")
    elif cert.tau * cert.value != 1:
        diags.append(f"tau {cert.tau} is not the reciprocal of value {cert.value}")

    y = [_ZERO] * len(pm.pairs)
    for pair, v in cert.primal.items():
        r = pair_index.get(pair)
        if r is None:
            diags.append(f"primal key {pair} is not a pair of 1..{cert.m}")
            continue
        if v < 0:
            diags.append(f"primal weight y{pair} = {v} negative")
        y[r] = v

    for mask, v in cert.dual.items():
        if 0 <= mask < (1 << cert.m):
            key = str(BitWord(cert.m, mask))
        else:
            key = f"{mask:#x}"
            diags.append(f"dual key {key} is not an {cert.m}-bit pattern")
        if v < 0:
            diags.append(f"dual weight for {key} negative")

    sum_y = sum(y, _ZERO)
    if sum_y != cert.value:
        diags.append(f"packing total {sum_y} differs from objective {cert.value}")
    sum_z = sum(cert.dual.values(), _ZERO)
    if sum_z != cert.value:
        diags.append(f"covering total {sum_z} differs from objective {cert.value}")

    if not diags:
        for mask in pm.patterns:
            if _exact_row_sum(y, pm, mask) > 1:
                diags.append(
                    f"packing constraint violated at pattern {BitWord(cert.m, mask)}"
                )
                break
        covered = [_ZERO] * len(pm.pairs)
        for mask, v in cert.dual.items():
            if v == 0:
                continue
            for r in pm.column_rows(mask):
                covered[r] += v
        for r, total in enumerate(covered):
            if total < 1:
                diags.append(f"pair {pm.pairs[r]} covered with weight {total} < 1")
                break

    return CertificateCheck(not diags, diags)


def tau_of_L(L: int) -> Fraction:
    """Correctable fraction for list size L: solved value through 18, the
    guaranteed lower bound L/(4L-2) beyond."""
    if L < 2:
        raise ValueError("list size must be at least 2")
    if L in TAU_TABLE:
        return TAU_TABLE[L]
    return F(L, 4 * L - 2)
