"""Rate and size bounds for codes on the one-way error channel.

Closed-form converse bounds (weight-window counting, a symmetric-channel
reduction, and an entropy-gap bound), the random-coding exponent machinery
for list decoding against i.i.d. degradation, and the classic
symmetric-channel comparison curves.  Scalar entry points mirror the
vectorized ones used for curve exports.

Throughout, ``omega`` is the per-position probability of a 1 in a random
word, ``tau`` an error fraction (errors per position), ``R`` a rate in
bits per position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, exp, fsum, log, sqrt
from operator import mul
from typing import Callable

import numpy as np

LN2 = log(2.0)
_TAU_TOL = 1e-10  # bisection width for the scalar tau_star root
_VEC_HALVINGS = 64  # bisection steps for the lane-parallel tau_star


def binary_entropy(p: float) -> float:
    """Base-2 entropy, with h(0) = h(1) = 0."""
    if p < 0.0 or p > 1.0:
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
    if n < 1 or t < 0:
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
    ceiling = omega - omega ** (L + 1)
    if tau <= ceiling:
        return True
    lhs = 1.0
    for k in range(1, L + 1):
        lhs *= M / (M - k)
    return lhs >= tau / ceiling


# ---------------------------------------------------------------------------
# random-coding exponent for list decoding under i.i.d. degradation


def _binom_terms(L: int, omega: float) -> tuple[float, list[float], list[float]]:
    """Pieces of the tilted moment sum.

    The all-zero and all-one weights sit outside the tilt and form the
    constant; the interior weights i = 1..L carry e^(-h i/(L+1)).  The
    second list is the derivative's numerator series over the same range.
    """
    const = omega ** (L + 1) + (1.0 - omega) ** (L + 1)
    g_terms = [
        comb(L + 1, i) * omega**i * (1.0 - omega) ** (L + 1 - i) for i in range(1, L + 1)
    ]
    d_terms = [
        comb(L, i - 1) * omega**i * (1.0 - omega) ** (L + 1 - i) for i in range(1, L + 1)
    ]
    return const, g_terms, d_terms


def _evaluator(L: int, omega: float) -> Callable[[float], tuple[float, float]]:
    """h -> (e(h), g'(h)): the tilted moment sum and the slope of
    g = -ln e, with e = const + sum_k g_k e^(-h k/(L+1)) over k = 1..L.

    The one kernel behind tau_star_info, rcb_g and rcb_delta.  ``ks`` and
    ``lp1`` are floats holding small integers, so ``-h * k / lp1`` rounds
    exactly as it does with int operands.  For L = 1 the single term is
    added without ``fsum``, which returns a lone finite term unchanged, and
    ``-h / lp1`` stands for ``-h * 1 / lp1``, since ``-h * 1`` is ``-h``.
    """
    const, g_terms, d_terms = _binom_terms(L, omega)
    lp1 = float(L + 1)
    if L == 1:
        (g1,), (d1,) = g_terms, d_terms

        def one_term(h: float) -> tuple[float, float]:
            w = exp(-h / lp1)
            e = const + g1 * w
            return e, d1 * w / e

        return one_term
    ks = [float(k) for k in range(1, L + 1)]

    def terms(h: float) -> tuple[float, float]:
        w = [exp(-h * k / lp1) for k in ks]
        e = const + fsum(map(mul, g_terms, w))
        return e, fsum(map(mul, d_terms, w)) / e

    return terms


def _snap_omega(omega: float) -> float:
    """Clamp near-degenerate bit probabilities to their analytic limit."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"bit probability {omega} outside [0, 1]")
    if omega <= 1e-12:
        return 0.0
    if omega >= 1.0 - 1e-12:
        return 1.0
    return omega


def rcb_g(h: float, L: int, omega: float) -> float:
    """Negative log of the tilted moment sum; increasing and concave in h."""
    omega = _check_rcb_args(h, L, omega)
    e, _ = _evaluator(L, omega)(h)
    return -log(e)


def rcb_delta(h: float, L: int, omega: float) -> float:
    """Derivative of rcb_g in h: the error fraction the tilt h sustains.

    At h=0 this is omega - omega^(L+1) exactly; it decreases toward 0 as
    h grows.
    """
    omega = _check_rcb_args(h, L, omega)
    if h == 0.0:
        return omega - omega ** (L + 1)
    _, slope = _evaluator(L, omega)(h)
    return slope


def _check_rcb_args(h: float, L: int, omega: float) -> float:
    if h < 0.0:
        raise ValueError("tilt must be nonnegative")
    if L < 1:
        raise ValueError("list size must be at least 1")
    return _snap_omega(omega)


@dataclass(frozen=True)
class TauStarResult:
    value: float
    feasible: bool
    tilt: float


def tau_star_info(R: float, L: int, omega: float) -> TauStarResult:
    """Largest error fraction a random size-2^(RLn) list-L code withstands.

    Solves g(h) - h g'(h) = R L ln2 for the smallest root and reports
    g'(h) there.  The left side climbs from 0 to -ln(omega^(L+1) +
    (1-omega)^(L+1)); rates demanding more than that are infeasible and
    yield 0 with the flag down.  R = 0 short-circuits to the h=0 slope
    omega - omega^(L+1).

    Contract: the root comes from bisection on [0, 1], the upper end
    doubled until it brackets, the bracket halved to width 1e-10 and read
    at its midpoint, with every evaluation made by ``_evaluator``.  These
    are float for float the operations of the reference bisection in
    tests/oracles.py, so value and tilt, and every CSV built on them, are
    bit-identical to it.  Bracketed Newton steps would stop at a different
    h, and numpy's exp differs from math.exp in the last bit on some
    inputs, so either would change printed digits; they wait for a change
    that accepts new outputs.
    """
    if R < 0.0:
        raise ValueError("rate must be nonnegative")
    if L < 1:
        raise ValueError("list size must be at least 1")
    omega = _snap_omega(omega)
    if R == 0.0:
        return TauStarResult(omega - omega ** (L + 1), True, 0.0)
    target = R * L * LN2
    ceiling = -log(omega ** (L + 1) + (1.0 - omega) ** (L + 1))
    if target >= ceiling:
        return TauStarResult(0.0, False, math.inf)
    at = _evaluator(L, omega)
    lo, hi = 0.0, 1.0
    e, slope = at(hi)
    while -log(e) - hi * slope < target:
        lo, hi = hi, hi * 2.0
        if hi > 2.0**64:
            # the plateau sits essentially at the target; treat as infeasible
            return TauStarResult(0.0, False, math.inf)
        e, slope = at(hi)
    while hi - lo > _TAU_TOL:
        mid = (lo + hi) / 2.0
        e, slope = at(mid)
        if -log(e) - mid * slope < target:
            lo = mid
        else:
            hi = mid
    h_star = (lo + hi) / 2.0
    _, slope = at(h_star)
    return TauStarResult(slope, True, h_star)


def tau_star(R: float, L: int, omega: float) -> float:
    return tau_star_info(R, L, omega).value


def _tau_star_vec(R: float, L: int, omegas: np.ndarray) -> np.ndarray:
    """tau_star over an array of bit probabilities at one (R, L).

    Same bisection as the scalar path, run lane-parallel; infeasible lanes
    come back 0.
    """
    omegas = np.asarray(omegas, dtype=np.float64)
    target = R * L * LN2
    i = np.arange(1, L + 1, dtype=np.float64)
    gcoef = np.array([comb(L + 1, k) for k in range(1, L + 1)])
    dcoef = np.array([comb(L, k - 1) for k in range(1, L + 1)])
    om = omegas[:, None]
    const = omegas ** (L + 1) + (1.0 - omegas) ** (L + 1)
    terms_g = gcoef * om**i * (1.0 - om) ** (L + 1 - i)
    terms_d = dcoef * om**i * (1.0 - om) ** (L + 1 - i)

    def e_and_num(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = np.exp(-h[:, None] * i / (L + 1))
        return const + (terms_g * w).sum(axis=1), (terms_d * w).sum(axis=1)

    if R == 0.0:
        return omegas - omegas ** (L + 1)

    ceiling = -np.log(omegas ** (L + 1) + (1.0 - omegas) ** (L + 1))
    feasible = target < ceiling

    lo = np.zeros_like(omegas)
    hi = np.ones_like(omegas)
    for _ in range(80):  # expand brackets where needed
        e, num = e_and_num(hi)
        phi = -np.log(e) - hi * (num / e)
        short = feasible & (phi < target)
        if not short.any():
            break
        lo = np.where(short, hi, lo)
        hi = np.where(short, hi * 2.0, hi)
    for _ in range(_VEC_HALVINGS):
        mid = (lo + hi) / 2.0
        e, num = e_and_num(mid)
        phi = -np.log(e) - mid * (num / e)
        below = phi < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    h_star = (lo + hi) / 2.0
    e, num = e_and_num(h_star)
    out = num / e
    return np.where(feasible, out, 0.0)


# ---------------------------------------------------------------------------
# curves


@dataclass
class BoundCurve:
    """A named rate/error-fraction curve, as parallel float lists."""

    kind: str
    taus: list[float]
    rates: list[float]


def rcb_lower_curve(
    L: int,
    *,
    r_points: int = 2000,
    omega_points: int = 2000,
) -> BoundCurve:
    """Achievable (tau, R) pairs for list size L: for each rate, the best
    bit probability is found on a grid and then polished by golden-section
    around the winner.  Samples come back ordered by increasing tau."""
    if not 1 <= L <= 17:
        raise ValueError("list size must lie in 1..17")
    if r_points < 2 or omega_points < 2:
        raise ValueError("need at least 2 grid points per axis")
    rates = [k / (r_points + 1) for k in range(1, r_points + 1)]
    omegas = np.array([k / (omega_points + 1) for k in range(1, omega_points + 1)])
    taus: list[float] = []
    gold = (sqrt(5.0) - 1.0) / 2.0
    for R in rates:
        vals = _tau_star_vec(R, L, omegas)
        best = int(np.argmax(vals))
        tau_best = float(vals[best])
        if tau_best > 0.0:
            lo = float(omegas[max(best - 1, 0)])
            hi = float(omegas[min(best + 1, len(omegas) - 1)])
            a, b = lo, hi
            c = b - gold * (b - a)
            d = a + gold * (b - a)
            fc = tau_star(R, L, c)
            fd = tau_star(R, L, d)
            for _ in range(40):
                if fc < fd:
                    a, c, fc = c, d, fd
                    d = a + gold * (b - a)
                    fd = tau_star(R, L, d)
                else:
                    b, d, fd = d, c, fc
                    c = b - gold * (b - a)
                    fc = tau_star(R, L, c)
            tau_best = max(tau_best, fc, fd)
        taus.append(tau_best)
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
    return BoundCurve(
        f"list-{L} achievable",
        dedup_t,
        dedup_r,
    )


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
