"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own formulas: the list radius is
found by enumerating every receivable word, and the exponent functions
are summed term by term from their definitions.  Agreement between these
and the package routes is what the oracle tests assert.

The sections after those are different in kind.  They keep the
exhaustive ``best_list_code`` scan, ``max_code`` with its eager adjacency
rows, the scalar ``tau_star`` bisection, the ``check_star`` scan and the
per-tau heap scan of ``two_stage_rate``, the Fraction certificate check
and the Fraction Gauss-Jordan support solve as they were before the
faster designs replaced them, so the package can be held to the same
results bit for bit.  The last section builds the exact simplex's
starting basis and the LP's symmetry sigma from their definitions.
"""

import math
from fractions import Fraction
from heapq import heapify, heappop, heapreplace
from itertools import combinations, product
from math import comb, exp, fsum, log, sqrt

import numpy as np

from zchannel import two_stage
from zchannel.rate_bounds import binary_entropy
from zchannel.search import MAX_NODES, CodeSearchResult, _check_caps
from zchannel.tau_lp import CertificateCheck, build_pair_matrix, tau_of_L
from zchannel.words import BitWord, Code, _dz_masks, _subset_radius


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


# ---------------------------------------------------------------------------
# The exhaustive list-code scan that the pruned ``search.best_list_code``
# replaced, kept verbatim (it ran whenever C(|shell|, size) fit the node
# budget): every candidate code in ``combinations`` order, the first
# maximum kept.


def best_list_code(n, w, size, list_size):
    shell = [m for m in range(1 << n) if m.bit_count() == w]
    if size > len(shell):
        raise ValueError(f"only {len(shell)} words of weight {w} exist")

    if size <= list_size:
        # any selection already attains radius n; keep the first
        code = Code(BitWord(n, m) for m in shell[:size])
        return CodeSearchResult(code, n, True, 0, "size within list bound")

    total = comb(len(shell), size)
    best_obj = -1
    best_masks = None
    for masks in combinations(shell, size):
        obj = _subset_radius(masks, list_size)
        if obj > best_obj:
            best_obj = obj
            best_masks = masks
    assert best_masks is not None
    code = Code(BitWord(n, m) for m in best_masks)
    return CodeSearchResult(code, best_obj, True, total, "")


# ---------------------------------------------------------------------------
# ``max_code`` as it stood before its adjacency rows were built lazily in
# numpy, kept verbatim but for stopping at once when the cap trips: every
# row scans all 2^n words through ``_dz_masks``.


def max_code(n: int, d: int, *, max_nodes: int = MAX_NODES) -> CodeSearchResult:
    """Largest code of length n with pairwise distance at least d.

    Depth-first search over words in canonical order, branching on
    include/exclude and pruning when the candidate pool cannot beat the
    incumbent.  The first maximum found (hence the canonically smallest)
    is returned.  If the node cap trips, ``optimal`` is False and the
    incumbent so far is returned.
    """
    _check_caps(n, max_nodes)
    if d < 2 or d % 2:
        raise ValueError("distance must be even and at least 2")
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
            if nodes > max_nodes:
                truncated = True
                return
            v = (pool & -pool).bit_length() - 1
            pool ^= 1 << v
            chosen.append(v)
            if len(chosen) > len(best):
                best[:] = chosen
            dfs(pool & adj(v))
            if truncated:
                return
            chosen.pop()

    dfs((1 << universe) - 1)
    code = Code(BitWord(n, m) for m in best)
    note = "node budget exhausted" if truncated else ""
    return CodeSearchResult(code, len(best), not truncated, nodes, note)


# ---------------------------------------------------------------------------
# Float-for-float references for the tau_star kernel and check_star: the
# bisection and the x-scan as they stood before their fast paths, kept
# verbatim so the fast paths can be held to bit-identical results.

LN2 = log(2.0)
_TAU_TOL = 1e-10


def _binom_terms(L, omega):
    const = omega ** (L + 1) + (1.0 - omega) ** (L + 1)
    g_terms = [
        comb(L + 1, i) * omega**i * (1.0 - omega) ** (L + 1 - i) for i in range(1, L + 1)
    ]
    d_terms = [
        comb(L, i - 1) * omega**i * (1.0 - omega) ** (L + 1 - i) for i in range(1, L + 1)
    ]
    return const, g_terms, d_terms


def _e_and_slope(h, L, const, g_terms, d_terms):
    weights = [exp(-h * i / (L + 1)) for i in range(1, L + 1)]
    e = const + fsum(g * w for g, w in zip(g_terms, weights))
    num = fsum(d * w for d, w in zip(d_terms, weights))
    return e, num / e


def _snap_omega(omega):
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"bit probability {omega} outside [0, 1]")
    if omega <= 1e-12:
        return 0.0
    if omega >= 1.0 - 1e-12:
        return 1.0
    return omega


def tau_star_info(R, L, omega):
    """(value, feasible, tilt) of the list-L random-coding threshold."""
    if R < 0.0:
        raise ValueError("rate must be nonnegative")
    if L < 1:
        raise ValueError("list size must be at least 1")
    omega = _snap_omega(omega)
    if R == 0.0:
        return omega - omega ** (L + 1), True, 0.0
    target = R * L * LN2
    ceiling = -log(omega ** (L + 1) + (1.0 - omega) ** (L + 1))
    if target >= ceiling:
        return 0.0, False, math.inf
    const, g_terms, d_terms = _binom_terms(L, omega)

    def phi(h):
        e, slope = _e_and_slope(h, L, const, g_terms, d_terms)
        return -log(e) - h * slope

    lo, hi = 0.0, 1.0
    while phi(hi) < target:
        lo, hi = hi, hi * 2.0
        if hi > 2.0**64:
            return 0.0, False, math.inf
    while hi - lo > _TAU_TOL:
        mid = (lo + hi) / 2.0
        if phi(mid) < target:
            lo = mid
        else:
            hi = mid
    h_star = (lo + hi) / 2.0
    _, slope = _e_and_slope(h_star, L, const, g_terms, d_terms)
    return slope, True, h_star


def tau_star(R, L, omega):
    return tau_star_info(R, L, omega)[0]


def r2(alpha, tau1, omega, R1):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"stage split {alpha} outside (0, 1)")
    if not 0.0 <= tau1 <= omega:
        raise ValueError(f"stage-1 fraction {tau1} outside [0, {omega}]")
    if R1 < 0.0:
        raise ValueError("stage-1 rate must be nonnegative")
    if tau1 == 0.0:
        return 0.0
    shrink = 1.0 - omega + tau1
    sqrt_arg = 1.0 - 4.0 * tau_star(R1, 1, omega) / (1.0 + omega - tau1)
    if sqrt_arg < 0.0:
        return 0.0
    bracket = binary_entropy(tau1 / shrink) - binary_entropy((1.0 - sqrt(sqrt_arg)) / 2.0)
    if bracket <= 0.0:
        return 0.0
    return alpha * shrink / (1.0 - alpha) * bracket


def _x_grid(xmax, thresholds, nx, tol):
    xs = [xmax * k / (nx + 1) for k in range(1, nx + 1)]
    just_inside = xmax * (1.0 - 1e-9)
    for thr in thresholds:
        if 0.0 < thr < xmax:
            xs.append(min(thr + 1e-12, just_inside))
    top = thresholds[-1]
    if top < xmax:
        span = xmax - top
        for frac in (1e-9, 0.25, 0.5, 0.75):
            xs.append(min(top + frac * span, just_inside))
    xs.append(xmax * (1.0 - 1e-6))
    return xs


def check_star(omega, alpha, R, tau, cfg, *, thresholds=None):
    """Scan every probed x in grid order, grading each one from scratch."""
    if not 0.0 < omega < 1.0 or not 0.0 < alpha < 1.0 or R < 0.0:
        raise ValueError("need omega, alpha in (0, 1) and R >= 0")
    if tau <= 0.0:
        return True
    if thresholds is None:
        thresholds = [tau_star(R, L, omega) for L in range(1, cfg.l_up + 1)]
    tol = two_stage.BOUNDARY_TOL
    xmax = min(omega, tau / alpha)
    one_minus = 1.0 - alpha
    for x in _x_grid(xmax, thresholds, cfg.x_points, tol):
        lhs = (tau - alpha * x) / one_minus
        grade = None
        for L, thr in enumerate(thresholds, start=1):
            if x <= thr - tol:
                grade = L
                break
        if grade == 1:
            continue
        if grade is not None:
            bound = float(tau_of_L(grade))
        else:
            bound = tau_star(r2(alpha, x, omega, R), 1, 0.5)
        if lhs > bound - tol:
            return False
    return True


def ranked_candidates(cfg):
    """Every (-alpha*R, omega, alpha, R) of the two-stage grid, in the order
    the heap scan ``two_stage_rate`` below checks them, built and sorted in
    full."""
    n_om, n_al = cfg.omega_points, cfg.alpha_points
    omegas = sorted(
        {k / (n_om + 1) for k in range(1, n_om + 1)}
        | {w for w in two_stage.OMEGA_EXTRAS if 0.0 < w < 1.0}
    )
    alphas = sorted(
        {k / (n_al + 1) for k in range(1, n_al + 1)}
        | {a for a in two_stage.ALPHA_EXTRAS if 0.0 < a < 1.0}
    )
    candidates = []
    for om in omegas:
        hcap = binary_entropy(om)
        for al in alphas:
            for R in cfg.rate_ladder:
                if R < hcap:
                    candidates.append((-al * R, om, al, R))
    candidates.sort()
    return candidates


def two_stage_rate(tau, cfg):
    """The per-tau heap scan: every candidate of the grid in value order,
    each checked with the package's ``check_star`` until one passes.

    It reaches ``check_star`` and ``_thresholds`` through the
    ``two_stage`` module, so a test can record the candidates it checks.
    """
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"error fraction {tau} outside [0, 1)")
    if tau == 0.0:
        # noiseless: feasibility is vacuous, take the best grid value
        tau = -1.0  # sentinel: every candidate passes
    n_om, n_al = cfg.omega_points, cfg.alpha_points
    omegas = sorted(
        {k / (n_om + 1) for k in range(1, n_om + 1)}
        | {w for w in two_stage.OMEGA_EXTRAS if 0.0 < w < 1.0}
    )
    alphas = sorted(
        {k / (n_al + 1) for k in range(1, n_al + 1)}
        | {a for a in two_stage.ALPHA_EXTRAS if 0.0 < a < 1.0}
    )
    # Candidates come off a heap holding one entry per (omega, alpha), which
    # walks that pair's rates from the top of the ladder down, so its
    # -alpha*R never falls; the full ranked list (some 48k tuples) is never
    # built.
    ladder = sorted(cfg.rate_ladder, reverse=True)
    heap = []
    for om in omegas:
        hcap = binary_entropy(om)
        rates = [R for R in ladder if R < hcap]
        if rates:
            heap.extend((-al * rates[0], om, al, 0, rates) for al in alphas)
    heapify(heap)
    cache = {}
    while heap:
        neg_value, om, al, i, rates = heap[0]
        if tau < 0.0:
            return -neg_value
        R = rates[i]
        key = (om, R)
        thresholds = cache.get(key)
        if thresholds is None:
            thresholds = two_stage._thresholds(R, om, cfg.l_up)
            cache[key] = thresholds
        if two_stage.check_star(om, al, R, tau, cfg, thresholds=thresholds):
            return -neg_value
        if i + 1 < len(rates):
            heapreplace(heap, (-al * rates[i + 1], om, al, i + 1, rates))
        else:
            heappop(heap)
    return 0.0


# ---------------------------------------------------------------------------
# ``tau_lp.verify_certificate`` as it stood before its integer form: one
# Fraction sum per pruned pattern and per dual pattern.  Kept verbatim but
# for the pair lists, which come from ``pattern_covers_pair`` here.


def _pattern_rows(pm, mask):
    bits = str(BitWord(pm.m, mask))
    return [r for r, (i, j) in enumerate(pm.pairs) if pattern_covers_pair(bits, i, j)]


def verify_certificate(cert):
    diags = []
    try:
        pm = build_pair_matrix(cert.m)
    except ValueError as exc:
        return CertificateCheck(False, [str(exc)])
    pair_index = {pair: r for r, pair in enumerate(pm.pairs)}

    if cert.value <= 0:
        diags.append(f"objective {cert.value} not positive")
    elif cert.tau * cert.value != 1:
        diags.append(f"tau {cert.tau} is not the reciprocal of value {cert.value}")

    y = [Fraction(0)] * len(pm.pairs)
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

    sum_y = sum(y, Fraction(0))
    if sum_y != cert.value:
        diags.append(f"packing total {sum_y} differs from objective {cert.value}")
    sum_z = sum(cert.dual.values(), Fraction(0))
    if sum_z != cert.value:
        diags.append(f"covering total {sum_z} differs from objective {cert.value}")

    if not diags:
        for mask in pm.patterns:
            if sum((y[r] for r in _pattern_rows(pm, mask) if y[r]), Fraction(0)) > 1:
                diags.append(
                    f"packing constraint violated at pattern {BitWord(cert.m, mask)}"
                )
                break
        covered = [Fraction(0)] * len(pm.pairs)
        for mask, v in cert.dual.items():
            if v == 0:
                continue
            for r in _pattern_rows(pm, mask):
                covered[r] += v
        for r, total in enumerate(covered):
            if total < 1:
                diags.append(f"pair {pm.pairs[r]} covered with weight {total} < 1")
                break

    return CertificateCheck(not diags, diags)


# ---------------------------------------------------------------------------
# ``tau_lp._solve_unit_rhs`` as it stood before its fraction-free form:
# Gauss-Jordan over Fractions.  Kept verbatim but for the names of the
# Fraction constants.


def _solve_unit_rhs(rows: np.ndarray) -> list[Fraction]:
    """An exact solution x of ``rows @ x = 1``, by Gauss-Jordan over Fractions.

    Equations are taken in order until they fix every unknown; a dependent
    one is skipped, and an unknown no equation fixes is 0.  The equations
    left unread, and consistency, are not checked here: the certificate
    check decides whether x is any good.
    """
    n = rows.shape[1]
    reduced: dict[int, list[Fraction]] = {}  # pivot column -> row with a 1 there
    for raw in rows.tolist():
        row = [Fraction(v) for v in raw] + [Fraction(1)]
        for c, prow in reduced.items():
            f = row[c]
            if f:
                row = [a - f * b if b else a for a, b in zip(row, prow)]
        c = next((k for k in range(n) if row[k]), None)
        if c is None:
            continue
        p = row[c]
        row = [a / p for a in row]
        for k, prow in reduced.items():
            f = prow[c]
            if f:
                reduced[k] = [a - f * b if b else a for a, b in zip(prow, row)]
        reduced[c] = row
        if len(reduced) == n:
            break
    x = [Fraction(0)] * n
    for c, row in reduced.items():
        x[c] = row[n]
    return x


# ---------------------------------------------------------------------------
# The starting basis of ``tau_lp._solve_exact_simplex`` built from its
# definition, with the basis inverse by Gauss-Jordan over Fractions, and
# the map sigma that sends the pair LP to itself.


def threshold_basis(m):
    """The basic column of each pair row, and the inverse basis matrix.

    Columns are numbered as in [D | -I]: the pruned patterns of
    ``build_pair_matrix(m)`` first, then one surplus per pair.  The
    threshold pattern 0^k 1^(m-k) is basic in the row of pair (k, k+1),
    and every other pair's surplus in that pair's row.  The inverse of the
    basis matrix B comes from Gauss-Jordan on [B | I] over Fractions.
    """
    pm = build_pair_matrix(m)
    K, P = len(pm.pairs), len(pm.patterns)
    labels, columns = [], []
    for r, (i, j) in enumerate(pm.pairs):
        if j == i + 1:
            bits = "0" * i + "1" * (m - i)
            labels.append(pm.patterns.index(BitWord.from_string(bits).mask))
            columns.append([int(pattern_covers_pair(bits, a, b)) for a, b in pm.pairs])
        else:
            labels.append(P + r)
            columns.append([-int(s == r) for s in range(K)])
    rows = [
        [Fraction(col[r]) for col in columns] + [Fraction(int(r == c)) for c in range(K)]
        for r in range(K)
    ]
    for c in range(K):
        p = next(r for r in range(c, K) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(K):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [a - f * b if b else a for a, b in zip(rows[r], rows[c])]
    return labels, [row[K:] for row in rows]


def sigma_pattern(mask, m):
    """sigma on an m-bit pattern: complement every bit, then reverse."""
    bits = str(BitWord(m, mask))
    return BitWord.from_string(bits.translate(str.maketrans("01", "10"))[::-1]).mask


def sigma_pair(pair, m):
    """sigma on a 1-based pair: (i, j) goes to (m + 1 - j, m + 1 - i)."""
    i, j = pair
    return (m + 1 - j, m + 1 - i)
