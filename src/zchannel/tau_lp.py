"""Exact-rational LP for the largest correctable error fraction of size-M codes.

For a code of M words, the guaranteed-correctable fraction tau(M) is the
reciprocal of the optimum of a small packing LP: variables y over ordered
pairs (i, j), i < j, constrained by one column per binary pattern b of
length M, whose (i, j) entry is 1 exactly when b_i = 0 and b_j = 1.  We
solve the equivalent covering form (minimize the total dual weight over
patterns subject to every pair being covered) with a dense one-phase
simplex.  It needs no phase 1: the threshold patterns 0^k 1^(M-k) and the
surpluses of the other pairs form a feasible basis of determinant +-1, so
the starting tableau is written down in integers.  Every tableau entry is
an exact integer over one shared denominator, held in int64 while a bound
checked before each pivot rules out overflow and in Python ints from then
on.  One pivot routine, ``_fraction_free_pivot``, does that for the
simplex and for the support solve of the float route.  Results are exact
`fractions.Fraction`s and come with a primal/dual certificate that
`verify_certificate` re-checks independently, in exact integers.

Pattern pruning: a pattern starting with 1 or ending with 0 is either
empty or dominated by the pattern obtained by forcing b_1 = 0, b_M = 1
(that only adds covered pairs).  The 2^(M-2) patterns with b_1 = 0 and
b_M = 1 have pairwise incomparable pair-sets, so they are exactly the
columns that survive pruning.

Sizes 12 and up take their certificate from a float basis instead: one
HiGHS dual-simplex solve over every pruned column names the supports of
both LP sides, and the complementary-slackness equations on those supports
are then solved exactly.  Floats only choose the supports; the certificate
is verified against the full pruned column set either way, and a float
answer that fails the check is refused, never repaired.
"""

from __future__ import annotations

import math
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

_DIRECT_LIMIT = 11  # exact simplex up to here; float basis beyond
_BLAND_AFTER = 2000  # pivots before entering switches to smallest index
_SUPPORT_TOL = 1e-9  # float values within this of zero (or of a tight bound) are zero
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
    """Pairs and pruned patterns of the size-M LP; ``_covering_matrix``
    builds their incidence.

    ``pairs`` are the 1-based (i, j) with i < j, in lexicographic order;
    ``patterns`` are the surviving column masks (coordinate 1 in the least
    significant bit, matching BitWord).  ``prune_stats`` records how the
    original 2^M columns were disposed of.
    """

    m: int
    pairs: tuple[tuple[int, int], ...]
    patterns: tuple[int, ...]
    prune_stats: dict[str, int] = field(compare=False)


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


def _fraction_free_pivot(
    T: np.ndarray, den: int, r: int, c: int
) -> tuple[np.ndarray, int]:
    """One fraction-free pivot on (r, c); returns the array and its new
    denominator.

    ``T`` holds integers over the shared positive denominator ``den``:
    entry (i, j) of the true array is ``T[i, j] / den``.  With p = T[r, c],
    row r is kept and every other row becomes ``(T[i] * p - T[i, c] * T[r])
    // den``, and abs(p) is the new denominator (Edmonds; Bareiss).  That
    division is exact: every entry is a minor of the integer input, and
    ``den`` is the absolute determinant of the pivot block.  The simplex
    always pivots on a positive entry; the support solve can meet a
    negative one, and then everything is negated so that the denominator
    stays positive.  The update runs in place (the outer product is the
    one full-size temporary).  An int64 ``T`` whose update could reach
    2**63 is first converted, for good, to exact Python ints.
    """
    p = int(T[r, c])
    if T.dtype != object and (
        _absmax(T) * abs(p) + _absmax(T[:, c]) * _absmax(T[r]) >= _INT64_LIMIT
    ):
        T = T.astype(object)
    prow, pcol = T[r].copy(), T[:, c].copy()
    T *= p
    T -= np.outer(pcol, prow)
    T //= den
    T[r] = prow
    if p < 0:
        np.negative(T, out=T)
    return T, abs(p)


def _covering_matrix(pm: PairMatrix, masks: Sequence[int]) -> np.ndarray:
    """Bool pair-by-pattern incidence, the one incidence rule: entry (r, k)
    is set when pair r = (i, j) has coordinate i clear and j set in
    ``masks[k]``.  Bool, not int64: at M=18 that is 21 MiB, not 160."""
    i, j = np.triu_indices(pm.m, 1)  # the rows of pm.pairs, 0-based
    bits = np.asarray(masks, dtype=np.int64) >> np.arange(pm.m)[:, None] & 1 == 1
    covers = bits[j]
    covers &= ~bits[i]
    return covers


def _scaled_sums(weights: Sequence[Fraction], rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact ``sum_k weights[k] * rows[k]`` over 0/1 rows, as integer sums
    times d and d, the weights' least common denominator.  int64 when the
    scaled weights' total and d stay below 2**63, Python ints otherwise."""
    den = math.lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (den // w.denominator) for w in weights]
    wide = sum(map(abs, scaled)) + den >= _INT64_LIMIT
    sums = np.zeros(rows.shape[1], dtype=object if wide else np.int64)
    for w, row in zip(scaled, rows):
        if w:
            sums[row] += w  # per row, so the 0/1 matrix is never upcast
    return sums, den


def _threshold_start(pm: PairMatrix) -> tuple[np.ndarray, list[int]]:
    """The starting tableau and basis of ``_solve_exact_simplex``.

    The LP is min 1.z subject to D z - s = 1 with z, s >= 0, over columns
    [D | -I | 1].  The threshold pattern 0^k 1^(M-k) is basic in the row of
    pair (k, k+1), the one pair no other threshold covers, and every other
    pair (i, j) keeps its surplus, worth j - i - 1.  That basis matrix is
    unimodular, so B^-1 [D | -I | 1] is an integer tableau over ``den = 1``:
    row (k, k+1) is unchanged, and each other row (i, j) is the sum of the
    rows (i, i+1) .. (j-1, j) minus itself.  The cost row, last, is the
    costs minus the sum of the threshold rows.
    """
    K, P = len(pm.pairs), len(pm.patterns)
    T = np.zeros((K + 1, P + K + 1), dtype=np.int64)
    T[:K, :P] = _covering_matrix(pm, pm.patterns)
    T[:K, P:-1] = -np.eye(K, dtype=np.int64)
    T[:K, -1] = 1
    T[K, :P] = 1
    i, j = np.triu_indices(pm.m, 1)  # the rows of pm.pairs, 0-based
    adjacent = np.flatnonzero(j == i + 1)  # pairs (1, 2) .. (M-1, M)
    # sums[k]: the rows of pairs (1, 2) .. (k, k+1), summed
    sums = np.vstack([np.zeros_like(T[:1]), np.cumsum(T[adjacent], axis=0)])
    for r in np.flatnonzero(j > i + 1):
        T[r] = sums[j[r]] - sums[i[r]] - T[r]
    T[K] -= sums[-1]
    basis = list(range(P, P + K))  # surplus of pair r basic in row r
    full = (1 << pm.m) - 1
    for k, r in enumerate(adjacent.tolist(), 1):
        basis[r] = pm.patterns.index(full >> k << k)  # coordinates k+1..M set
    return T, basis


def _solve_exact_simplex(
    pm: PairMatrix, pivot_cap: int
) -> tuple[list[Fraction], dict[int, Fraction], int]:
    """Packing weights y, covering weights z and the pivot count from a
    one-phase simplex from ``_threshold_start``, with every update through
    ``_fraction_free_pivot``.

    Entering choice is the most negative reduced cost, first index on
    ties, with a switch to smallest index after ``_BLAND_AFTER`` pivots,
    so runs terminate even on degenerate bases.  The ratio test compares
    ``rhs[i] / T[i, c]`` by cross multiplication; ties break on smallest
    basis label.  z is read from the basis, and y from the cost row under
    the surplus columns: a surplus costs 0, so its reduced cost is ``den``
    times its row's multiplier.
    """
    K, P = len(pm.pairs), len(pm.patterns)
    T, basis = _threshold_start(pm)
    den, pivots = 1, 0
    while True:
        red = T[K, :-1]
        if pivots < _BLAND_AFTER:
            entering = int(np.argmin(red))
            if red[entering] >= 0:
                break
        else:
            negative = np.flatnonzero(red < 0)
            if not negative.size:
                break
            entering = int(negative[0])
        leaving, best_b, best_a = -1, 0, 1
        column = T[:K, entering].tolist()
        for r, (a, b) in enumerate(zip(column, T[:K, -1].tolist())):
            if a > 0 and (
                leaving < 0
                or b * best_a < best_b * a
                or (b * best_a == best_b * a and basis[r] < basis[leaving])
            ):
                leaving, best_b, best_a = r, b, a
        if leaving < 0:
            raise RuntimeError("objective unbounded; malformed input")
        T, den = _fraction_free_pivot(T, den, leaving, entering)
        basis[leaving] = entering
        pivots += 1
        if pivots > pivot_cap:
            raise UnresolvedError(f"pivot cap {pivot_cap} reached")
    y = [F(v, den) for v in T[K, P:-1].tolist()]
    z = {
        pm.patterns[b]: F(v, den)
        for b, v in zip(basis, T[:K, -1].tolist())
        if b < P and v
    }
    return y, z, pivots


def _solve_unit_rhs(rows: np.ndarray) -> list[Fraction]:
    """An exact solution x of ``rows @ x = 1``, by fraction-free
    Gauss-Jordan on ``[rows | 1]`` with ``_fraction_free_pivot``.

    Equations are taken in order until they fix every unknown; one with no
    nonzero left is dependent and skipped, any other pivots on its first
    nonzero column, and an unknown no equation fixes is 0.  The equations
    left unread, and consistency, are not checked here: the certificate
    check decides whether x is any good.
    """
    n = rows.shape[1]
    T = np.hstack([rows.astype(np.int64), np.ones((len(rows), 1), dtype=np.int64)])
    den, fixed = 1, {}  # pivot column -> its row, which reads den there
    for r in range(len(T)):
        if len(fixed) == n:
            break
        nonzero = np.flatnonzero(T[r, :n])
        if nonzero.size:
            c = int(nonzero[0])
            T, den = _fraction_free_pivot(T, den, r, c)
            fixed[c] = r
    x = [_ZERO] * n
    for c, r in fixed.items():
        x[c] = F(int(T[r, n]), den)
    return x


def _solve_float_basis(
    pm: PairMatrix,
) -> tuple[list[Fraction], dict[int, Fraction], int]:
    """Packing weights y, covering weights z and the float iteration count
    from one HiGHS dual-simplex solve, made exact on its supports.

    The float optimum of min 1.z subject to D z >= 1, z >= 0 names the
    supports only.  z lives on S, the columns with z_j > 0, and must cover
    the tight pair rows exactly; y lives on T, the rows with y_r > 0, and
    must meet every dual-tight column J (|D^T y - 1| within tolerance)
    with equality.  The columns S alone leave y underdetermined when the
    float basis is degenerate, hence J.  Both systems are solved exactly
    by ``_solve_unit_rhs``; ``verify_certificate`` decides whether the
    result is optimal.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    D = _covering_matrix(pm, pm.patterns)
    A = sparse.csc_array(D, dtype=np.float64)
    K, P = D.shape
    res = linprog(
        np.ones(P), A_ub=-A, b_ub=-np.ones(K), bounds=(0, None), method="highs-ds"
    )
    if res.status != 0:
        raise UnresolvedError(f"float solve failed: {res.message}")
    zf, yf = res.x, -res.ineqlin.marginals
    S = np.flatnonzero(zf > _SUPPORT_TOL)
    R = np.flatnonzero(np.abs(A @ zf - 1) < _SUPPORT_TOL)
    T = np.flatnonzero(yf > _SUPPORT_TOL)
    J = np.flatnonzero(np.abs(A.T @ yf - 1) < _SUPPORT_TOL)
    y = [_ZERO] * K
    for r, v in zip(T.tolist(), _solve_unit_rhs(D[np.ix_(T, J)].T)):
        y[r] = v
    z = {
        pm.patterns[j]: v
        for j, v in zip(S.tolist(), _solve_unit_rhs(D[np.ix_(R, S)]))
        if v
    }
    return y, z, int(res.nit)


def solve_tau(M: int, *, pivot_cap: int = 2_000_000) -> TauCertificate:
    """Exact optimum and certificate for the size-M pair LP.

    Through M=11 the one-phase exact simplex solves over every pruned
    column, starting from the threshold basis; ``pivot_cap`` bounds its
    pivots and raises UnresolvedError when it trips.  Beyond, a float
    basis is made exact (``_solve_float_basis``), and a failed float solve
    or a certificate that fails the check raises UnresolvedError: there is
    no fallback.  ``meta["method"]`` names the
    path that ran (``"exact-simplex"`` or ``"float-basis"``) and
    ``meta["pivots"]`` its simplex iterations.
    """
    if not 2 <= M <= 18:
        raise ValueError(f"size {M} outside supported range 2..18")
    pm = build_pair_matrix(M)
    started = time.monotonic()
    if M <= _DIRECT_LIMIT:
        # a failed check here is a solver bug, not an unresolved size
        method, failure = "exact-simplex", RuntimeError
        y, z, pivots = _solve_exact_simplex(pm, pivot_cap)
    else:
        method, failure = "float-basis", UnresolvedError
        y, z, pivots = _solve_float_basis(pm)
    value = sum(z.values(), _ZERO)
    cert = TauCertificate(
        M,
        _ONE / value if value > 0 else _ZERO,  # 0: verification reports it
        value,
        {pm.pairs[r]: v for r, v in enumerate(y) if v},
        z,
        meta={
            "method": method,
            "pivots": pivots,
            "active_columns": len(pm.patterns),
            "wall_seconds": round(time.monotonic() - started, 3),
        },
    )
    check = verify_certificate(cert)
    if not check:
        raise failure(
            f"{method} certificate fails verification: " + "; ".join(check.diagnostics)
        )
    return cert


def verify_certificate(cert: TauCertificate) -> CertificateCheck:
    """Re-check both LP sides exactly against a fresh incidence matrix;
    each side's constraints are integer sums over its common denominator.

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
        valid = 0 <= mask < (1 << cert.m)
        if not valid:
            diags.append(f"dual key {mask:#x} is not an {cert.m}-bit pattern")
        if v < 0:
            key = str(BitWord(cert.m, mask)) if valid else f"{mask:#x}"
            diags.append(f"dual weight for {key} negative")

    sum_y = sum(y, _ZERO)
    if sum_y != cert.value:
        diags.append(f"packing total {sum_y} differs from objective {cert.value}")
    sum_z = sum(cert.dual.values(), _ZERO)
    if sum_z != cert.value:
        diags.append(f"covering total {sum_z} differs from objective {cert.value}")

    if not diags:
        packed, den = _scaled_sums(y, _covering_matrix(pm, pm.patterns))
        over = np.flatnonzero(packed > den)
        if over.size:
            word = BitWord(cert.m, pm.patterns[over[0]])
            diags.append(f"packing constraint violated at pattern {word}")
        z = {mask: v for mask, v in cert.dual.items() if v}
        covered, den = _scaled_sums(list(z.values()), _covering_matrix(pm, list(z)).T)
        short = np.flatnonzero(covered < den)
        if short.size:
            r = short[0]
            total = F(int(covered[r]), den)
            diags.append(f"pair {pm.pairs[r]} covered with weight {total} < 1")

    return CertificateCheck(not diags, diags)


def tau_of_L(L: int) -> Fraction:
    """Correctable fraction for list size L: solved value through 18, the
    guaranteed lower bound L/(4L-2) beyond."""
    if L < 2:
        raise ValueError("list size must be at least 2")
    if L in TAU_TABLE:
        return TAU_TABLE[L]
    return F(L, 4 * L - 2)
