"""Rate and size bounds for codes on the one-way error channel.

Closed-form converse bounds (weight-window counting, a symmetric-channel
reduction, and an entropy-gap bound), the random-coding exponent machinery
for list decoding against i.i.d. degradation, and the classic
symmetric-channel comparison curves.

There is one tau_star kernel, numpy's (``_lane_terms``, ``_lane_kernel``),
and one bisection, ``_bisect``, which runs every root as a lane of an
array.  A pair (R, omega) has a root when R > 0 and R L ln2 lies below
the kernel's ceiling, -ln of the constant of ``_lane_terms``, in the grid
argmax and in ``_lane_points`` alike.  The scalar entry points, the curve
(``rcb_lower_curve``) and the two-stage thresholds (``tau_star_lists``)
certify each root's ends in the same lanes (``_lane_newton``,
``_lane_bounds``) and bisect between them.
The bisection jumps in closed form over every test those ends decide,
so a certified lane costs one loop round per test inside its ends, and
the kernel runs only there.

Throughout, ``omega`` is the per-position probability of a 1 in a random
word, ``tau`` an error fraction (errors per position), ``R`` a rate in
bits per position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from math import comb, log, sqrt
from typing import Callable

import numpy as np

LN2 = log(2.0)
_TAU_TOL = 1e-10  # width at which the tau_star bisection stops
_CELL = 34  # its final bracket is 2^-34 wide, the widest power of two within 1e-10
_NEWTON_TOL = 1e-7  # relative Newton step at which a root estimate is taken
_NEWTON_STEPS = 30
_UNIT = 2.0**-53  # unit roundoff of a float
_LANE_BUDGET = 1 << 11  # lanes per rate group of the grid argmax, unless one rate has more


def binary_entropy(p: float) -> float:
    """Base-2 entropy, with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * log(p) + (1.0 - p) * log(1.0 - p)) / LN2


# ---------------------------------------------------------------------------
# weight-window size bounds


def w0(n: int, t: int) -> float:
    """Critical weight for length n and t errors: the smaller root of
    w^2 - wn + tn = 0.  Codewords below this weight are too light to keep
    their distance."""
    if not (n >= 1 and t >= 0):
        raise ValueError("need n >= 1 and t >= 0")
    disc = n * n - 4 * t * n
    if disc < 0:
        raise ValueError(f"4t > n leaves no real critical weight (n={n}, t={t})")
    return (n - sqrt(disc)) / 2.0


def bassalygo_size_bound(n: int, w: int, t: int) -> int:
    """Size cap for constant-weight-w codes of length n correcting t
    one-way errors: floor(t*n / (w^2 - (w-t)*n)), in exact integer
    arithmetic.  Valid for t+1 <= w <= critical weight; at the critical
    weight itself the denominator vanishes and the bound is undefined.
    """
    if n < 1 or t < 0 or not 0 <= w <= n:
        raise ValueError("need n >= 1, t >= 0, 0 <= w <= n")
    if w < t + 1:
        raise ValueError(f"weight {w} below t+1={t + 1}")
    if w > w0(n, t):
        raise ValueError(f"weight {w} above the critical weight {w0(n, t):.6g}")
    den = w * w - (w - t) * n
    if den <= 0:
        raise ValueError(f"denominator {den} vanishes at the critical weight")
    return (t * n) // den


def plotkin_symmetric_size(eps: float) -> int:
    """Size cap for codes correcting a 1/4 + eps fraction of one-way
    errors: floor(1 + 1/(4 eps))."""
    if eps <= 0.0:
        raise ValueError("needs a positive gap above 1/4")
    return int(1.0 + 1.0 / (4.0 * eps))


def levenshtein_rate_bound(wfrac: float, tfrac: float) -> float:
    """Rate cap h(wfrac) - h(w*) for codes correcting a tfrac fraction of
    one-way errors at constant weight fraction wfrac.

    The critical fraction w* = (1 - sqrt(1 - 4 tfrac))/2 solves
    w^2 - w + tfrac = 0; only weight fractions between w* and 1/2 are
    admissible.  Clamped below at zero.
    """
    if not 0.0 <= tfrac <= 0.25:
        raise ValueError("error fraction must lie in [0, 1/4]")
    wstar = (1.0 - sqrt(1.0 - 4.0 * tfrac)) / 2.0
    if wfrac < wstar or wfrac > 0.5:
        raise ValueError(
            f"weight fraction {wfrac} outside [{wstar:.6g}, 0.5]"
        )
    return max(0.0, binary_entropy(wfrac) - binary_entropy(wstar))


def zplotkin_size_bound(eps: float) -> float:
    """Size cap for codes correcting an error fraction 1/4 + eps of one-way
    errors: 1/(eps sqrt(3 eps)) + 1/(2 eps) + 4/sqrt(3 eps) + 2."""
    if not 0.0 < eps <= 0.75:
        raise ValueError("gap must lie in (0, 3/4]")
    root = sqrt(3.0 * eps)
    return 1.0 / (eps * root) + 1.0 / (2.0 * eps) + 4.0 / root + 2.0


def list_plotkin_holds(M: int, L: int, omega: float, tau: float) -> bool:
    """Finite-size consistency test for list-L codes of M words at weight
    fraction omega claiming to correct a tau fraction of one-way errors.

    Below the random-coding ceiling omega - omega^(L+1) nothing is
    imposed.  Above it, M must be small enough that
    M^L / ((M-1)...(M-L)) >= tau / (omega - omega^(L+1)).
    """
    if L < 1:
        raise ValueError("list size must be at least 1")
    if M < L + 1:
        raise ValueError(f"need at least L+1={L + 1} words, got {M}")
    if not 0.0 < omega < 1.0:
        raise ValueError("weight fraction must be inside (0, 1)")
    if math.isnan(tau):
        raise ValueError("error fraction must not be NaN")
    ceiling = omega - omega ** (L + 1)
    if tau <= ceiling:
        return True
    lhs = 1.0
    for k in range(1, L + 1):
        lhs *= M / (M - k)
    return lhs >= tau / ceiling


# ---------------------------------------------------------------------------
# random-coding exponent for list decoding under i.i.d. degradation


def _snap_omegas(omegas: np.ndarray) -> np.ndarray:
    """Clamp near-degenerate bit probabilities to their analytic limits."""
    omegas = np.asarray(omegas, dtype=np.float64)
    outside = ~((0.0 <= omegas) & (omegas <= 1.0))
    if outside.any():
        raise ValueError(f"bit probability {float(omegas[outside][0])} outside [0, 1]")
    return np.where(omegas <= 1e-12, 0.0, np.where(omegas >= 1.0 - 1e-12, 1.0, omegas))


@cache
def _interior(L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per list size L, read-only: the interior weights i = 1..L and the
    binomial rows C(L + 1, i) and C(L, i - 1) of the moment sum and its
    slope, as floats."""
    i = np.arange(1, L + 1, dtype=np.float64)
    gcoef = np.array([comb(L + 1, k) for k in range(1, L + 1)], dtype=np.float64)
    dcoef = np.array([comb(L, k - 1) for k in range(1, L + 1)], dtype=np.float64)
    for row in (i, gcoef, dcoef):
        row.flags.writeable = False
    return i, gcoef, dcoef


def _lane_terms(L: int, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pieces of the tilted moment sum, one row per bit probability.

    The all-zero and all-one weights sit outside the tilt and form the
    constant; the interior weights i = 1..L carry e^(-h i/(L+1)).  The
    third array is the slope's numerator series over the same range."""
    i, gcoef, dcoef = _interior(L)
    om = omegas[:, None]
    const = omegas ** (L + 1) + (1.0 - omegas) ** (L + 1)
    terms_g = gcoef * om**i * (1.0 - om) ** (L + 1 - i)
    terms_d = dcoef * om**i * (1.0 - om) ** (L + 1 - i)
    return const, terms_g, terms_d


def _lane_kernel(
    h: np.ndarray, L: int, const: np.ndarray, terms_g: np.ndarray, terms_d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(e, e g') at tilt h[k] for lane k, e = const + sum_i g_i
    e^(-h i/(L+1)) and g = -ln e, from numpy's exp of -h i / (L + 1) and
    row sums.  The one kernel behind every tau_star root, rcb_g and
    rcb_delta."""
    w = np.exp(-h[:, None] * _interior(L)[0] / (L + 1))
    return const + (terms_g * w).sum(axis=1), (terms_d * w).sum(axis=1)


def _one_lane(h: float, L: int, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_lane_kernel`` on the one lane (h, omegas[0])."""
    return _lane_kernel(np.array([h]), L, *_lane_terms(L, omegas))


def rcb_g(h: float, L: int, omega: float) -> float:
    """Negative log of the tilted moment sum; increasing and concave in h."""
    e, _ = _one_lane(h, L, _check_rcb_args(h, L, omega))
    return float(-np.log(e)[0])


def rcb_delta(h: float, L: int, omega: float) -> float:
    """Derivative of rcb_g in h: the error fraction the tilt h sustains.

    At h=0 this is omega - omega^(L+1) exactly; it decreases toward 0 as
    h grows.
    """
    omegas = _check_rcb_args(h, L, omega)
    if h == 0.0:
        omega = float(omegas[0])
        return omega - omega ** (L + 1)
    e, num = _one_lane(h, L, omegas)
    return float((num / e)[0])


def _check_rcb_args(h: float, L: int, omega: float) -> np.ndarray:
    if not h >= 0.0:
        raise ValueError("tilt must be nonnegative")
    if L < 1:
        raise ValueError("list size must be at least 1")
    return _snap_omegas([omega])


@dataclass(frozen=True)
class TauStarResult:
    value: float
    feasible: bool
    tilt: float


def tau_star_info(R: float, L: int, omega: float) -> TauStarResult:
    """Largest error fraction a random size-2^(RLn) list-L code withstands.

    Solves g(h) - h g'(h) = R L ln2 for the smallest root and reports
    g'(h) there.  The left side climbs from 0 to the kernel's ceiling
    -ln(omega^(L+1) + (1-omega)^(L+1)), numpy's (``_lane_terms``); a rate
    whose target reaches it is infeasible and yields 0 with the flag down.
    R = 0 short-circuits to the h=0 slope omega - omega^(L+1).

    Contract: value and tilt are bit-identical to the reference bisection
    in tests/oracles.py, and so is every CSV built on them.  This is one
    lane of ``_lane_points``, which certifies the root's ends and runs
    that bisection (``_bisect``) between them.  A call costs about 0.3 ms
    (0.29 measured; 2 CPUs, numpy 2.4), almost all of it numpy's per-call
    overhead: half in the lane Newton, the rest in the certificate and a
    bisection whose certified ends leave it a few rounds at most (none at
    (0.3, 3, 0.4)), so many roots at one list size are far cheaper as the
    lanes of one ``tau_star_lists`` table.
    """
    if not R >= 0.0:
        raise ValueError("rate must be nonnegative")
    if L < 1:
        raise ValueError("list size must be at least 1")
    rate, point, start = np.array([[R], [omega], [math.nan]], dtype=np.float64)
    value, tilt, _, _ = _lane_points(L, rate, point, start)
    return TauStarResult(float(value[0]), bool(tilt[0] < math.inf), float(tilt[0]))


def tau_star(R: float, L: int, omega: float) -> float:
    """The value of ``tau_star_info``, at the same cost of about 0.3 ms."""
    return tau_star_info(R, L, omega).value


def _bisect(
    L: int,
    terms: tuple[np.ndarray, np.ndarray, np.ndarray],
    target: np.ndarray,
    lo_skip: np.ndarray,
    hi_skip: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The tau_star bisection, in every lane at once: (g' at the root's
    final midpoint, that midpoint) per lane, or (0, inf) where the root
    is not found below 2^64, and the number of loop rounds.  Lane k reads
    row k of ``terms`` (``_lane_terms``).

    A test reads whether phi(h) = g - h g' lies below the lane's target.
    The bracket [0, 1] doubles while its top reads below (past 2^64 the
    lane is infeasible), then halves until it is 2^-34 wide, the widest
    power of two within 1e-10.  A test at h <= lo_skip reads below and
    one at h >= hi_skip above without an evaluation; such ends come only
    from ``_lane_bounds``, whose certificate makes them read as the
    kernel would (see ``_tau_star_argmax``).  -inf and inf skip none.

    The loop evaluates the same tests, and returns the same bits, as the
    walk that spends a step per level (``bisect_with_skips`` in
    tests/oracles.py), but it spends a round per evaluated test.  The
    doubling starts at the largest power of two at or below lo_skip.  In
    the halving a lane keeps first = floor(x) and last = ceil(y) - 1, in
    units of 2^-34, for (x, y) the part of its bracket inside (lo_skip,
    hi_skip).  The walk's next evaluated test is the integer n in first +
    1 .. last with the most trailing zeros: with s the largest power of
    two at most last - first, the one multiple of 2 s there, or else of
    s.  A test reading below sets first = n, one reading above last =
    n - 1, and once last <= first the final cell is [first, first + 1].

    The bits hold since a float operation whose exact result is a float
    is exact (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., SIAM 2002, ch. 2).  Below 2^18 the walk's tests and bracket ends
    are multiples of 2^-34 (52 bits) and its final midpoint one of 2^-35
    (53 bits).  A skip end scaled by 2^34 is exact, and so is its floor
    or ceiling, which decides each skip as the walk's comparison does;
    the units are whole numbers below 2^53.  From 2^18 to 2^19 only the
    final midpoint rounds, as in the walk, from the same two floats.  At
    2^19 floats are 2^-33 apart and the walk never ends.  No root lies
    there (float phi meets its ceiling by tilt 80 or 710; see
    test_rate_bounds), so a lane whose skip ends take it there raises
    ArithmeticError.
    """
    const, terms_g, terms_d = terms

    def phi_slope(h: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        e, num = _lane_kernel(h, L, const[j], terms_g[j], terms_d[j])
        slope = num / e
        return -np.log(e) - h * slope, slope

    # every power of two at or below lo_skip reads below, and the largest
    # is top / 2m for top = m 2^e; from 2^64 on the lane is infeasible
    top = np.clip(lo_skip, 1.0, 2.0**64)
    lo = np.where(lo_skip >= 1.0, top / (2.0 * np.frexp(top)[0]), 0.0)
    hi = np.where(lo > 0.0, 2.0 * lo, 1.0)
    k = np.flatnonzero((hi < hi_skip) & (hi <= 2.0**64))  # tops that need a test
    rounds = 0
    while k.size:
        rounds += 1
        k = k[phi_slope(hi[k], k)[0] < target[k]]
        lo[k] = hi[k]
        hi[k] *= 2.0
        k = k[(hi[k] < hi_skip[k]) & (hi[k] <= 2.0**64)]
    feasible = hi <= 2.0**64
    if np.any(feasible & (hi > 2.0**19)):
        raise ArithmeticError("a tau_star bracket above 2^19 never gets 1e-10 wide")
    first = np.floor(np.clip(lo_skip, lo, hi) * 2.0**_CELL)
    last = np.ceil(np.clip(hi_skip, lo, hi) * 2.0**_CELL) - 1.0
    (k,) = (feasible & (last > first)).nonzero()
    while k.size:
        rounds += 1
        f, l = first[k], last[k]
        step = (l - f) / np.frexp(l - f)[0]  # 2 s; every quotient here is exact
        n = np.floor(l / step) * step
        n = np.where(n > f, n, np.floor(2.0 * l / step) * step / 2.0)
        down = phi_slope(n * 2.0**-_CELL, k)[0] < target[k]
        first[k], last[k] = np.where(down, n, f), np.where(down, l, n - 1.0)
        k = k[last[k] > first[k]]
    lo = first * 2.0**-_CELL
    tilt = np.where(feasible, (lo + (lo + 2.0**-_CELL)) / 2.0, np.inf)
    value = np.zeros_like(target)
    j = np.flatnonzero(feasible)
    value[j] = phi_slope(tilt[j], j)[1]
    return value, tilt, rounds


@np.errstate(all="ignore")
def _lane_newton(
    L: int,
    const: np.ndarray,
    terms_g: np.ndarray,
    terms_d: np.ndarray,
    target: np.ndarray,
    start: np.ndarray,
) -> np.ndarray:
    """Float Newton estimates of the roots of phi(h) = g - h g' = target
    from ``start``, a tilt per lane: rows h, phi'(h) and the last step,
    NaN in every lane that 30 evaluations do not converge.  Runs in u =
    e^(-h/(L+1)) in (0, 1), where e, e g' and e (g'^2 - g'') are sums over
    u^1..u^L and phi'(h) = -h g''(h).  phi falls as u grows, so each
    evaluation narrows a lane's bracket [ulo, uhi], and a step that leaves
    it (or overflows) is replaced by its midpoint.  A NaN start stands for
    the cold start, where phi(h) ~ -g''(0) h^2 / 2 meets the target, and a
    start that gives no u in (0, 1) for u = 1/2.  A lane is done once a
    step is at most 1e-7 (1 + h); each evaluation reads only the lanes
    still running.  Its digits reach no output: it only places the ends
    that ``_lane_bounds`` certifies."""
    lp1 = L + 1
    s_terms = terms_d * (_interior(L)[0] / lp1)
    curv0 = s_terms.sum(axis=1) - terms_d.sum(axis=1) ** 2
    cold = np.sqrt(np.where(curv0 > 0.0, 2.0 * target / curv0, 0.0))
    u = np.exp(-np.where(np.isnan(start), cold, start) / lp1)
    u = np.where((0.0 < u) & (u < 1.0), u, 0.5)
    ulo, uhi = np.zeros_like(u), np.ones_like(u)
    live = np.arange(len(u))
    out = np.full((3, len(u)), np.nan)
    for _ in range(_NEWTON_STEPS):
        powers = np.cumprod(np.broadcast_to(u[:, None], (len(u), L)), axis=1)
        e = const[live] + (terms_g[live] * powers).sum(axis=1)
        slope = (terms_d[live] * powers).sum(axis=1) / e
        h = -lp1 * np.log(u)
        dphi = h * ((s_terms[live] * powers).sum(axis=1) / e - slope * slope)
        f = -np.log(e) - h * slope - target[live]
        below = f < 0.0
        uhi = np.where(below, u, uhi)
        ulo = np.where(below, ulo, u)
        moving = dphi > 0.0
        step = np.where(moving, f / dphi, 0.0)
        done = moving & (np.abs(step) <= _NEWTON_TOL * (1.0 + h))
        out[:, live[done]] = (h - step)[done], dphi[done], step[done]
        u = u * np.exp(np.minimum(step / lp1, 700.0))
        # u is still an end of the bracket when there was no step
        u = np.where((ulo < u) & (u < uhi), u, (ulo + uhi) / 2.0)
        left = ~done
        if not left.any():
            break
        live, u, ulo, uhi = live[left], u[left], ulo[left], uhi[left]
    return out


@np.errstate(all="ignore")
def _lane_bounds(
    L: int,
    const: np.ndarray,
    terms_g: np.ndarray,
    terms_d: np.ndarray,
    target: np.ndarray,
    start: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per lane, the certified ends (A, B) of its root and (lower, upper)
    around the value that ``_bisect`` returns; -inf and inf where the
    bracket is not certified.  ``start`` goes to ``_lane_newton``.  See
    ``_tau_star_argmax``."""
    h, dphi, step = _lane_newton(L, const, terms_g, terms_d, target, start)
    ceiling = -np.log(const)

    def margin(x: np.ndarray) -> np.ndarray:  # 8 b(x)
        return 16.0 * (1.0 + 2.0 * ceiling) * (L + x + 19.0) * _UNIT

    # Newton's last step leaves the estimate within about 2 step^2 / (1 + h)
    # of the root; four margins of phi more on each side cover the rounding
    delta = 2.0 * step * step / (1.0 + h) + 4.0 * margin(2.0 * h + 2.0) / dphi
    a = np.maximum(h - delta, 0.0)
    b = h + delta
    m = margin(2.0 * b + 2.0)
    ea, num_a = _lane_kernel(a, L, const, terms_g, terms_d)
    eb, num_b = _lane_kernel(b, L, const, terms_g, terms_d)
    slope_a, slope_b = num_a / ea, num_b / eb
    certified = (
        (-np.log(ea) - a * slope_a < target - m)
        & (-np.log(eb) - b * slope_b > target + m)
        & (b < 2.0**64)
    )
    eps = 64.0 * (L + 3.0 * b + 16.0) * _UNIT + _TAU_TOL / 4.0
    return (
        np.where(certified, a, -np.inf),
        np.where(certified, b, np.inf),
        np.where(certified, slope_b - eps, -np.inf),
        np.where(certified, slope_a + eps, np.inf),
    )


def _tau_star_argmax(
    rates: list[float], L: int, omegas: np.ndarray
) -> tuple[list[tuple[int, float]], dict[str, int]]:
    """For each rate R > 0, the first argmax over ``omegas`` of the
    reference lanes' tau_star (tests/oracles.py) and its value, with lane
    counts.  A lane is one (R, omega) pair whose target R L ln2 lies
    below the ceiling -ln(omega^(L+1) + (1 - omega)^(L+1)); the others
    read 0, as in the reference, and a rate with none gives (0, 0.0).

    Contract: every (index, value) is bit for bit np.argmax of the
    reference lanes and the value there.  The rates run in groups, in
    order, each of at most ``_LANE_BUDGET`` lanes and at least one rate;
    no result depends on the group size.  Per group:

    1. Newton (``_lane_newton``) estimates each lane's root, starting
       from the certified upper end B of the same omega's lane in the
       previous group (a rate just below), or from its cold start where
       there is none; its digits reach no output.
    2. Around the estimate, (A, B) is certified: both ends are evaluated
       with the kernel (``_lane_kernel``), and kept only where float
       phi(A) < target - m, float phi(B) > target + m and B < 2^64.  A is
       held at 0 or more.  ``_lane_bounds`` does steps 1 to 3 for every
       certified bracket of the package.
    3. A certified lane's value lies in [g'(B) - eps, g'(A) + eps], both
       slopes read from step 2.  A lane whose upper end lies below the
       best lower end of its rate cannot be an argmax, so it is dropped;
       every uncertified lane is kept.  A rate's lanes all lie in its
       group, so that best is final when the group is certified.
    4. The bisection (``_bisect``) replays the group's kept lanes, each
       with its own target and its (A, B) as skipped ends, and the first
       argmax is taken per rate over the replayed values, 0 on every lane
       without a root and -inf on the dropped ones.

    Why the ends hold.  The exact phi of the same omega rises with h
    (phi' = -h g'' > 0).  With unit roundoff u, numpy's exp, log and
    power within 4 ulps (at most 1 ulp was measured for exp and log
    against mpmath, numpy 2.4.6) and a row sum of k positive terms within
    (k - 1) u, whatever its order: each coefficient carries (L + 18) u,
    each e^(-hk/(L+1)) (2h + 8) u through its rounded argument, e and e g'
    (2L + 2h + 27) u, the slope (4L + 4h + 55) u, and ln e and h g' are at
    most the ceiling c.  So float phi(h) is within b(h) = 2 (1 + 2c) (L +
    h + 19) u of exact phi(h); an exponential that underflows adds at most
    2^-1074 to an e of at least 2^-17.  Every test of the bisection lies in
    [0, 2B + 2]: the doubling stops by the first power of two past B, so
    below 2^65 and never at the infeasible exit.  A test at h <= A then
    reads float phi(h) <= exact phi(A) + b(h) <= float phi(A) + 2 b(2B +
    2) < target - m + 2 b(2B + 2), which is below the target with m = 8
    b(2B + 2), four times what this needs; symmetrically every test at h
    >= B reads above.  Float phi is not monotone at the ulp scale (the
    slope can rise by 3 ulps, test_slope_falls_as_the_tilt_grows), hence
    the margin.

    Why the value bound holds.  The bisection's lower end only takes
    points that read below, so it stays below B, and its upper end stays
    above A.  It stops at most 1e-10 wide, and the rounded midpoint h*
    lies between its ends, so h* lies in (A - 1e-10, B + 1e-10).  g'
    falls as h grows, with |g''| <= 1/4 (a variance of a variable in [0,
    1]), so exact g'(h*) lies in [g'(B) - 1e-10/4, g'(A) + 1e-10/4], and
    float g' is within (4L + 4h + 55) u of exact (g' < 1), at h*, A and B
    alike.  eps = 64 (L + 3B + 16) u + 1e-10/4 covers that total, 2 (4L +
    4B + 56) u + 1e-10/4.

    Measured against 40-digit mpmath on 3,200 random lanes (L in 1..17,
    h up to 100), float phi stayed within 0.06 b(h) and g' within 0.03 of
    its bound, so m is over 100 times the largest phi error seen and eps
    over 300 times the largest g' error.
    """
    omegas = np.asarray(omegas, dtype=np.float64)
    const, terms_g, terms_d = _lane_terms(L, omegas)
    ceiling = -np.log(const)
    targets = np.array([R * L * LN2 for R in rates])
    group = max(1, _LANE_BUDGET // len(omegas))  # rates per group
    found: list[tuple[int, float]] = []
    counts = dict.fromkeys(["lanes", "lanes_replayed", "lanes_uncertified", "bisect_rounds"], 0)
    # per omega, the upper end of its lane's root in the previous group, NaN
    # where not certified: its next Newton start
    roots = np.full(len(omegas), np.nan)
    for r0 in range(0, len(targets), group):
        t = targets[r0 : r0 + group]
        inside = t[:, None] < ceiling
        vals = np.where(inside, -np.inf, 0.0)
        r, j = np.nonzero(inside)
        a, b, lower, upper = _lane_bounds(L, const[j], terms_g[j], terms_d[j], t[r], roots[j])
        roots[j] = np.where(b < np.inf, b, np.nan)
        best = np.full(len(t), -np.inf)
        np.maximum.at(best, r, lower)
        keep = upper >= best[r]
        counts["lanes"] += len(r)
        counts["lanes_uncertified"] += int(np.count_nonzero(upper == np.inf))
        r, j = r[keep], j[keep]
        lane_terms = const[j], terms_g[j], terms_d[j]
        vals[r, j], _, rounds = _bisect(L, lane_terms, t[r], a[keep], b[keep])
        counts["lanes_replayed"] += len(r)
        counts["bisect_rounds"] += rounds
        idx = vals.argmax(axis=1)
        found += zip(idx.tolist(), vals[np.arange(len(t)), idx].tolist())
    return found, counts


def _lane_points(
    L: int, rates: np.ndarray, points: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """tau_star_info(R, L, omega) at each (rate, point) pair, bit for bit,
    as the arrays value, tilt and B (the upper end of its root's certified
    bracket), and the ``_bisect`` rounds it took.  A pair is a lane when
    R > 0 and its target R L ln2 lies below the kernel's ceiling -ln(const)
    (``_lane_terms``), the rule of the grid argmax.  The other pairs solve
    no root: B is NaN, and (value, tilt) is (omega - omega^(L+1), 0) at R
    = 0, from Python floats, and (0, inf) past the ceiling.
    ``_lane_bounds`` certifies (A, B) from ``starts``, and ``_bisect``
    runs between them, in full where the lane is not certified (B =
    inf)."""
    omegas = _snap_omegas(points)
    targets = rates * L * LN2
    const, terms_g, terms_d = _lane_terms(L, omegas)
    lanes = np.flatnonzero((rates > 0.0) & (targets < -np.log(const)))
    values, tilts = np.zeros_like(targets), np.full_like(targets, np.inf)
    ends = np.full_like(targets, np.nan)
    for k in np.flatnonzero(rates == 0.0).tolist():
        omega = float(omegas[k])
        values[k], tilts[k] = omega - omega ** (L + 1), 0.0
    terms = const[lanes], terms_g[lanes], terms_d[lanes]
    a, ends[lanes], _, _ = _lane_bounds(L, *terms, targets[lanes], starts[lanes])
    values[lanes], tilts[lanes], rounds = _bisect(L, terms, targets[lanes], a, ends[lanes])
    return values, tilts, ends, rounds


def tau_star_lists(
    pairs: list[tuple[float, float]], l_up: int
) -> Callable[[float, float], list[float]]:
    """(R, omega) -> [tau_star(R, L, omega) for L = 1..l_up], bit for bit,
    at any of the given pairs, each a rate in [0, 1) and an omega in
    (0, 1).  The first call builds the whole table, one ``_lane_points``
    call per L, each pair's Newton start taken from its root at the L
    before; every call is then a lookup, of the same list each time."""
    for R, omega in pairs:
        if not (0.0 <= R < 1.0 and 0.0 < omega < 1.0):
            raise ValueError(f"need a rate in [0, 1) and omega in (0, 1), got {(R, omega)}")
    rates, points = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
    index = {pair: k for k, pair in enumerate(pairs)}

    @cache
    def table() -> np.ndarray:
        """Row L - 1: tau_star at list size L, a column per pair."""
        starts, columns = np.full(len(pairs), np.nan), []
        for L in range(1, l_up + 1):
            values, _, ends, _ = _lane_points(L, rates, points, starts)
            # the root's tilt grows with L about as L + 1 does; from this
            # start the default grid's table builds about 10% faster than
            # from cold starts
            starts = np.where(ends < np.inf, ends * (L + 2) / (L + 1), np.nan)
            columns.append(values)
        return np.array(columns)

    @cache
    def thresholds(R: float, omega: float) -> list[float]:
        # a walk reads about half its pairs, so only those become lists
        return table()[:, index[R, omega]].tolist()

    return thresholds


# ---------------------------------------------------------------------------
# curves


@dataclass
class BoundCurve:
    """A named rate/error-fraction curve, as parallel float lists, and the
    counters of the work that built it."""

    kind: str
    taus: list[float]
    rates: list[float]
    counts: dict[str, int] = field(default_factory=dict)


def _golden_polish(
    L: int, rates: list[float], omegas: np.ndarray, grid_best: list[tuple[int, float]]
) -> tuple[list[float], dict[str, int]]:
    """Per rate, max(grid value, fc, fd) after 40 golden-section steps
    around the grid's winner, every value bit for bit tau_star_info's,
    with probe counts.  See rcb_lower_curve."""
    gold = (sqrt(5.0) - 1.0) / 2.0
    counts = {"polish_probes": 0, "polish_replays": 0, "polish_uncertified": 0, "bisect_rounds": 0}
    best, taus = (np.array(column) for column in zip(*grid_best))
    live = np.flatnonzero(taus > 0.0)
    live_rates = np.array(rates)[live]
    starts = np.full(len(live), np.nan)  # per rate, its last root's upper end

    def probe(points: np.ndarray) -> np.ndarray:
        """Per live rate, tau_star at its point."""
        nonlocal starts
        values, _, ends, rounds = _lane_points(L, live_rates, points, starts)
        starts = np.where(ends < np.inf, ends, starts)
        counts["polish_probes"] += len(points)
        counts["bisect_rounds"] += rounds
        counts["polish_replays"] += int(np.count_nonzero(~np.isnan(ends)))
        counts["polish_uncertified"] += int(np.count_nonzero(ends == np.inf))
        return values

    a, b = (omegas[np.clip(best[live] + k, 0, len(omegas) - 1)] for k in (-1, 1))
    c, d = b - gold * (b - a), a + gold * (b - a)
    fc, fd = probe(c), probe(d)
    for _ in range(40):
        # where fc < fd the bracket drops [a, c), else (d, b]; the probe it
        # keeps changes sides, and the new one fills the other
        right = fc < fd
        a, b = np.where(right, [c, b], [a, d])
        new = np.where(right, a + gold * (b - a), b - gold * (b - a))
        f_new = probe(new)
        c, d, fc, fd = np.where(right, [d, new, fd, f_new], [new, c, f_new, fc])
    taus[live] = np.max([taus[live], fc, fd], axis=0)
    return taus.tolist(), counts


def rcb_lower_curve(
    L: int,
    *,
    r_points: int = 2000,
    omega_points: int = 2000,
) -> BoundCurve:
    """Achievable (tau, R) pairs for list size L: for each rate, the best
    bit probability is found on a grid and then polished by golden-section
    around the winner.  Samples come back ordered by increasing tau.

    The grid's winner and its value come from ``_tau_star_argmax``, bit
    for bit those of the reference lanes.  The polish (``_golden_polish``)
    runs the 40 golden-section steps of every rate in lockstep, with a,
    b, c, d, fc and fd arrays over the rates and each step one
    ``np.where`` on fc < fd.  Numpy's elementwise +, - and * are the IEEE
    operations of the loop in tests/oracles.py, so every probe point is
    the same float and every tau is bit for bit the reference polish's,
    built on tau_star_info.  The new probes of all rates go through one
    ``_lane_points`` call, 42 calls in all: it certifies each
    probe's root from the certified upper end of the rate's last probe, as
    the grid argmax does, and bisects between the ends, so every probe
    arrives with tau_star_info's value and the comparisons are plain float
    comparisons.  A probe with no root (target at or past the kernel's
    ceiling) is 0, as in tau_star_info.  ``counts`` records the probes,
    the lanes among them (``polish_replays``: probes with a root, each
    bisected), the lanes left uncertified, and ``bisect_rounds``, the
    ``_bisect`` loop rounds of the argmax and the polish together."""
    if not 1 <= L <= 17:
        raise ValueError("list size must lie in 1..17")
    if r_points < 2 or omega_points < 2:
        raise ValueError("need at least 2 grid points per axis")
    rates = [k / (r_points + 1) for k in range(1, r_points + 1)]
    omegas = np.array([k / (omega_points + 1) for k in range(1, omega_points + 1)])
    grid_best, counts = _tau_star_argmax(rates, L, omegas)
    taus, polish_counts = _golden_polish(L, rates, omegas, grid_best)
    for key, n in polish_counts.items():
        counts[key] = counts.get(key, 0) + n
    # high rate means small tau; present the curve tau-ascending and drop
    # the rare exact duplicate so tau stays strictly increasing
    paired = sorted(zip(taus, rates))
    dedup_t: list[float] = []
    dedup_r: list[float] = []
    for t_val, r_val in paired:
        if dedup_t and t_val == dedup_t[-1]:
            continue
        dedup_t.append(t_val)
        dedup_r.append(r_val)
    return BoundCurve(f"list-{L} achievable", dedup_t, dedup_r, counts)


def gv_rate(tau: float) -> float:
    """Symmetric-channel achievable rate 1 - h(2 tau)."""
    if not 0.0 <= tau <= 0.25:
        raise ValueError("error fraction must lie in [0, 1/4]")
    return max(0.0, 1.0 - binary_entropy(2.0 * tau))


def mrrw_rate(tau: float) -> float:
    """Symmetric-channel converse h(1/2 - sqrt(2 tau (1 - 2 tau)))."""
    if not 0.0 <= tau <= 0.25:
        raise ValueError("error fraction must lie in [0, 1/4]")
    d = 2.0 * tau
    arg = 0.5 - sqrt(max(0.0, d * (1.0 - d)))
    return binary_entropy(arg)
