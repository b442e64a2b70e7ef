"""Exact-rational LP for the largest correctable error fraction of size-M codes.

For a code of M words, the guaranteed-correctable fraction tau(M) is the
reciprocal of the optimum of a small packing LP: variables y over ordered
pairs (i, j), i < j, constrained by one column per binary pattern b of
length M, whose (i, j) entry is 1 exactly when b_i = 0 and b_j = 1.  We
solve the equivalent covering form (minimize the total dual weight over
patterns subject to every pair being covered) with a dense simplex over
`fractions.Fraction`, so results are exact and come with a primal/dual
certificate that can be re-verified independently.

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
from typing import Iterable, Mapping, Sequence

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
        return tuple(
            r for r, (i, j) in enumerate(self.pairs)
            if (pattern >> (i - 1) & 1) == 0 and (pattern >> (j - 1) & 1)
        )


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


class _ExactSimplex:
    """Dense two-phase simplex on Fractions, built for column generation.

    Column layout per tableau row: the first ``m`` columns are the
    artificial variables (their block stays equal to the basis inverse,
    which hands us duals and lets new columns be priced into the current
    basis), followed by structural columns; the right-hand side is kept
    separately.  Entering choice is steepest-coefficient with a switch to
    smallest-index after ``_BLAND_AFTER`` pivots, so runs terminate even on
    degenerate bases.  Leaving ties always break on smallest basis label.
    """

    def __init__(
        self,
        num_rows: int,
        columns: Sequence[dict[int, Fraction]],
        costs: Sequence[Fraction],
        rhs: Sequence[Fraction],
        pivot_cap: int,
    ):
        self.m = num_rows
        self.pivot_cap = pivot_cap
        self.pivots = 0
        self.rows: list[list[Fraction]] = []
        for i in range(num_rows):
            row = [_ZERO] * num_rows
            row[i] = _ONE
            self.rows.append(row)
        self.rhs = [F(v) for v in rhs]
        if any(v < 0 for v in self.rhs):
            raise ValueError("right-hand side must be nonnegative")
        self.costs: list[Fraction] = []  # structural only, parallel to appended cols
        self.basis = list(range(num_rows))  # artificial i basic in row i
        # basis is the identity here, so raw columns need no pricing
        for col, cost in zip(columns, costs):
            for i, row in enumerate(self.rows):
                row.append(col.get(i, _ZERO))
            self.costs.append(F(cost))

    # -- column bookkeeping ------------------------------------------------

    def _append_column(self, col: dict[int, Fraction], cost: Fraction) -> None:
        """Price a raw column (dict row->coeff) into the current basis."""
        for i, row in enumerate(self.rows):
            acc = _ZERO
            for k, a in col.items():
                t = row[k]
                if t:
                    acc += t * a
            row.append(acc)
        self.costs.append(F(cost))

    @property
    def width(self) -> int:
        return self.m + len(self.costs)

    def _column_cost(self, j: int, phase: int) -> Fraction:
        if j < self.m:
            return _ONE if phase == 1 else _ZERO
        return _ZERO if phase == 1 else self.costs[j - self.m]

    # -- core pivoting -----------------------------------------------------

    def _reduced_costs(self, phase: int) -> list[Fraction]:
        width = self.width
        red = [self._column_cost(j, phase) for j in range(width)]
        for i, b in enumerate(self.basis):
            cb = self._column_cost(b, phase)
            if cb:
                row = self.rows[i]
                for j in range(width):
                    t = row[j]
                    if t:
                        red[j] -= cb * t
        return red

    def _pivot(self, r: int, c: int, red: list[Fraction]) -> None:
        rows, rhs = self.rows, self.rhs
        prow = rows[r]
        inv = _ONE / prow[c]
        if inv != 1:
            rows[r] = prow = [v * inv for v in prow]
            rhs[r] *= inv
        nz = [j for j, v in enumerate(prow) if v]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                for j in nz:
                    row[j] -= f * prow[j]
                rhs[i] -= f * rhs[r]
        f = red[c]
        if f:
            for j in nz:
                red[j] -= f * prow[j]
        self.basis[r] = c
        self.pivots += 1

    def _run_phase(self, phase: int) -> None:
        red = self._reduced_costs(phase)
        in_basis = set(self.basis)
        phase_pivots = 0
        while True:
            entering = -1
            if phase_pivots < _BLAND_AFTER:
                best = _ZERO
                for j, v in enumerate(red):
                    if v < best and j not in in_basis and (phase == 1 or j >= self.m):
                        best = v
                        entering = j
            else:
                for j, v in enumerate(red):
                    if v < 0 and j not in in_basis and (phase == 1 or j >= self.m):
                        entering = j
                        break
            if entering < 0:
                return
            leaving = -1
            best_ratio: Fraction | None = None
            for i, row in enumerate(self.rows):
                a = row[entering]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = i
            if leaving < 0:
                raise RuntimeError("phase objective unbounded; malformed input")
            in_basis.discard(self.basis[leaving])
            in_basis.add(entering)
            self._pivot(leaving, entering, red)
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
            row = self.rows[i]
            pivot_col = next(
                (j for j in range(self.m, self.width) if row[j] != 0), None
            )
            if pivot_col is None:
                continue  # redundant row; artificial stays basic at zero
            red = [_ZERO] * self.width  # values irrelevant for a forced pivot
            self._pivot(i, pivot_col, red)

    # -- extraction --------------------------------------------------------

    def objective(self) -> Fraction:
        total = _ZERO
        for i, b in enumerate(self.basis):
            if b >= self.m:
                total += self.costs[b - self.m] * self.rhs[i]
        return total

    def structural_solution(self) -> dict[int, Fraction]:
        out = {}
        for i, b in enumerate(self.basis):
            if b >= self.m and self.rhs[i] != 0:
                out[b - self.m] = self.rhs[i]
        return out

    def duals(self) -> list[Fraction]:
        """Simplex multipliers for the original rows (phase-2 costs)."""
        pi = [_ZERO] * self.m
        for i, b in enumerate(self.basis):
            cb = self._column_cost(b, 2)
            if cb:
                row = self.rows[i]
                for k in range(self.m):
                    t = row[k]
                    if t:
                        pi[k] += cb * t
        return pi


def _covering_columns(pm: PairMatrix, masks: Iterable[int]) -> list[dict[int, Fraction]]:
    return [dict.fromkeys(pm.column_rows(mask), _ONE) for mask in masks]


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
    rhs = [_ONE] * K
    started = time.monotonic()

    # col_mask runs parallel to the structural columns: the pattern behind
    # each one, or None for a surplus variable.
    initial = _seed_masks(M) if column_generation else list(pm.patterns)
    cols = _covering_columns(pm, initial) + [{r: -_ONE} for r in range(K)]
    costs = [_ONE] * len(initial) + [_ZERO] * K
    col_mask: list[int | None] = list(initial) + [None] * K
    sx = _ExactSimplex(K, cols, costs, rhs, pivot_cap)
    sx.solve()
    rounds = 0

    if column_generation:
        import numpy as np

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
            for col in _covering_columns(pm, new_masks):
                sx._append_column(col, _ONE)
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
