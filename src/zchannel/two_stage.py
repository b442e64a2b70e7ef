"""Rate optimizer for two-stage transmission with one feedback use.

The sender spends a fraction alpha of the block on a first stage; after
seeing what survived, both sides agree on a short candidate list and the
remaining 1 - alpha fraction disambiguates it.  A triple (omega, alpha, R)
supports error fraction tau when every split of the adversary's budget is
covered: stage-1 damage x either leaves a list of some size L (handled by
a size-L+1-grade second stage, whose guaranteed fraction is tau_of_L) or
overflows the list cap and must be handled by the shortened-code rate
bound.  ``two_stage_curve`` grid-searches the triple maximizing alpha * R
subject to that feasibility check, for a whole list of taus in one pass.
The check depends on R only through the list thresholds tau_star(R, L,
omega), L = 1..l_up, and takes them as input: the curve solves every
one of its grid in lanes, as one ``tau_star_lists`` table, and nothing
here solves a root of its own.

The degenerate point where the achievable rate hits zero is computed
exactly from the stationarity cubic 1 + 3 omega^2 - 8 omega^3 = 0, and
``verify_remains`` certifies the per-L inequalities behind it with
rational interval arithmetic, so no float rounding is trusted anywhere
near the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heapreplace
from math import inf, isnan, log1p, nextafter, sqrt

from .rate_bounds import LN2, binary_entropy, tau_star_lists
from .tau_lp import TAU_TABLE


# check_star fails anything within this distance of failing
BOUNDARY_TOL = 1e-9
# a tail pass must clear _ROUNDING / (1 - alpha) in the margin m; see check_star
_ROUNDING = 2.0**-38
# margin evaluations of the golden section, its first four included
_GOLDEN_EVALS = 62
_INV_PHI = (sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TwoStageConfig:
    """Grids for the feasibility search.

    Rates come from a fixed ladder because alpha * R is maximized at
    either tiny or moderate R, never at finely tuned interior values.
    """

    l_up: int = 17
    omega_points: int = 48
    alpha_points: int = 48
    rate_ladder: tuple[float, ...] = (
        1e-6, 1e-5, 1e-4, 1e-3, 0.003, 0.01, 0.03, 0.05,
        0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
    )

    def __post_init__(self) -> None:
        if not 1 <= self.l_up <= 17:
            raise ValueError("list cap must lie in 1..17")
        if self.omega_points < 2 or self.alpha_points < 2:
            raise ValueError("grids too coarse to mean anything")
        if not self.rate_ladder or not all(0.0 <= R < 1.0 for R in self.rate_ladder):
            raise ValueError("rate ladder needs at least one rate, each in [0, 1)")


DEFAULT_CONFIG = TwoStageConfig()


def r2(alpha: float, tau1: float, omega: float, list1_tau: float) -> float:
    """Rate still extractable from the second stage after stage-1 damage
    tau1, per the shortened-code argument.

    ``list1_tau`` is tau_star(R1, 1, omega) for the stage-1 rate R1, the
    first entry of the threshold list that check_star reads.  Zero
    whenever the bracket of ``_residual`` is not positive, which holds
    where its square-root argument is negative (read as 0, so h(p) = 1;
    binary_entropy may round up to 2^-52 above 1 within about 4e-9 of x/s
    = 1/2): those regimes leave at most polynomial list growth, which
    costs no rate.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"stage split {alpha} outside (0, 1)")
    if not 0.0 <= tau1 <= omega:
        raise ValueError(f"stage-1 fraction {tau1} outside [0, {omega}]")
    if not list1_tau >= 0.0:
        raise ValueError("list-1 threshold must be nonnegative")
    return max(_residual(alpha, tau1, omega, list1_tau), 0.0)


def _residual(alpha: float, x: float, omega: float, list1_tau: float) -> float:
    """r2 before its clamp at 0, with a negative square-root argument
    read as 0: alpha/(1 - alpha) s [h(x/s) - h(p)], s = 1 - omega + x and
    p = (1 - sqrt(1 - 4 list1_tau/(1 + omega - x)))/2."""
    shrink = 1.0 - omega + x
    root = sqrt(max(1.0 - 4.0 * list1_tau / (1.0 + omega - x), 0.0))
    bracket = binary_entropy(x / shrink) - binary_entropy((1.0 - root) / 2.0)
    return alpha * shrink / (1.0 - alpha) * bracket


# float(tau_of_L(L)) for every solved L, so for every grade of a cap in 1..17
_GRADE_BOUNDS = {L: float(tau) for L, tau in TAU_TABLE.items()}


def _gv(t: float) -> float:
    """1 - h(2t) for t <= 1/4, from y = 1 - 4t: accurate near t = 1/4,
    unlike 1 - binary_entropy(2t)."""
    y = 1.0 - 4.0 * t
    return ((1.0 + y) * log1p(y) + (1.0 - y) * log1p(-y)) / (2.0 * LN2)


def _convex_floor(xs: list[float], ms: list[float]) -> float:
    """A lower bound on a convex function over [xs[0], xs[-1]] from its
    values ms at the ascending points xs: on each span, the chords of the
    spans beside it, extended, lie below the function.  A span with no
    float inside is bounded by its ends' values alone."""
    floor = min(ms)
    slopes = [(m1 - m0) / (x1 - x0) for x0, x1, m0, m1 in zip(xs, xs[1:], ms, ms[1:])]
    for i in range(len(slopes)):
        if nextafter(xs[i], inf) < xs[i + 1]:  # a float lies inside
            width = xs[i + 1] - xs[i]
            left = ms[i] + min(slopes[i - 1], 0.0) * width if i > 0 else -inf
            right = ms[i + 1] - max(slopes[i + 1], 0.0) * width if i + 1 < len(slopes) else -inf
            floor = min(floor, max(left, right))
    return floor


def _witness(
    omega: float, alpha: float, tau: float, thresholds: list[float], cfg: TwoStageConfig
) -> float | None:
    """A stage-1 damage x in (0, xmax) at which ``check_star`` fails, or
    None when it passes; see there."""
    if not 0.0 < omega < 1.0 or not 0.0 < alpha < 1.0 or isnan(tau):
        raise ValueError("need omega, alpha in (0, 1) and tau not NaN")
    # min catches a negative entry and sum a NaN anywhere
    if len(thresholds) != cfg.l_up or not (min(thresholds) >= 0.0 and sum(thresholds) >= 0.0):
        raise ValueError(f"need {cfg.l_up} thresholds, each >= 0 and not NaN")
    if tau <= 0.0:
        return None
    tol, list1 = BOUNDARY_TOL, thresholds[0]

    def lhs(x: float) -> float:
        return (tau - alpha * x) / (1.0 - alpha)

    xmax = min(omega, tau / alpha)
    low = list1 - tol
    for L in range(2, len(thresholds) + 1):
        cut = thresholds[L - 1] - tol
        if cut > low:
            # the least float of the region, where the falling lhs peaks
            x = nextafter(max(low, 0.0), inf)
            if x <= cut and x < xmax and lhs(x) > _GRADE_BOUNDS[L] - tol:
                return x
            low = cut
    lo = nextafter(max(low, 0.0), inf)
    if lo < xmax and lhs(lo) + tol > 0.25:
        return lo
    # past b = 1 + omega - 4 list1 the square root is imaginary and r2 = 0
    hi = min(nextafter(xmax, 0.0), 1.0 + omega - 4.0 * list1)
    if not lo <= hi:
        return None
    margin = _ROUNDING / (1.0 - alpha)
    # one step: r2 from its monotone pieces against 1 - h(2t) at lo
    s_lo, s_hi = 1.0 - omega + lo, 1.0 - omega + hi
    q_lo = lo / s_lo
    h_top = binary_entropy(q_lo if q_lo > 0.5 else min(hi / s_hi, 0.5))
    root = sqrt(max(1.0 - 4.0 * list1 / (1.0 + omega - lo), 0.0))
    top = alpha / (1.0 - alpha) * (s_hi * h_top - s_lo * binary_entropy((1.0 - root) / 2.0))
    if _gv(lhs(lo) + tol) - top >= margin:
        return None

    def m(x: float) -> float:
        return _gv(lhs(x) + tol) - _residual(alpha, x, omega, list1)

    span = hi - lo
    xs = sorted({lo, hi - _INV_PHI * span, lo + _INV_PHI * span, hi})
    ms = [m(x) for x in xs]
    for _ in range(_GOLDEN_EVALS - len(xs)):
        if len(xs) < 4 or min(ms) < 2.0 * margin or _convex_floor(xs, ms) >= margin:
            break
        a, c, d, b = xs
        if ms[1] <= ms[2]:  # the minimum lies in [a, d]
            x, i, xs, ms = d - _INV_PHI * (d - a), 1, xs[:3], ms[:3]
        else:  # in [c, b]
            x, i, xs, ms = c + _INV_PHI * (b - c), 2, xs[1:], ms[1:]
        if not xs[i - 1] < x < xs[i]:
            break  # no float left to probe between the two
        xs.insert(i, x)
        ms.insert(i, m(x))
    k = min(range(len(xs)), key=ms.__getitem__)
    if ms[k] >= 2.0 * margin and _convex_floor(xs, ms) >= margin:
        return None
    return xs[k]


def check_star(
    omega: float,
    alpha: float,
    tau: float,
    thresholds: list[float],
    cfg: TwoStageConfig = DEFAULT_CONFIG,
) -> bool:
    """Whether a stage split survives every stage-1 damage x in (0, xmax),
    xmax = min(omega, tau/alpha).

    ``thresholds`` is tau_star(R, L, omega) for L = 1..cfg.l_up at the
    stage-1 rate R, cfg.l_up entries, each >= 0 and not NaN: the check
    reads R and every root through them, and solves none of its own.
    ``two_stage_curve`` reads them from one ``tau_star_lists`` table.  An
    x has the grade of the first list size L with x <= cut L =
    thresholds[L-1] - tol, or lies in the tail past every cut.  Grade 1
    needs no second stage; 2 <= L <= the cap needs lhs = (tau - alpha
    x)/(1 - alpha) <= tau_of_L(L) - tol, and the tail t = lhs + tol <=
    tau_star(r2, 1, 1/2) for the shortened-code rate r2, whose list-1
    threshold is thresholds[0].  The thresholds need not rise with L: at
    (R, omega) = (0.9, 0.4694) they peak near 0.00943 at L = 5 and fall
    to 0.00671 at L = 17.  ``_witness`` returns a failing x, the witness;
    this is whether it finds none.

    - Grade L holds the x in (largest earlier cut, cut L] within (0,
      xmax).  Float lhs never rises with x, because correctly rounded *,
      - and / by a positive constant are monotone.  So a region fails iff
      its least float x0, the float after max(earlier cut, 0), lies in it
      and fails: one test per region, exact, with x0 the witness.
    - tau_star(r2, 1, 1/2) is the GV curve h^-1(1 - r2)/2: at L = 1 and
      omega = 1/2, with u = e^(-h/2) and p = u/(1 + u), e(h) = (1 + u)/2,
      g'(h) = p/2 and g - h g' = ln2 (1 - h(p)) = r2 ln2 at the root.  So
      a tail x fails iff t > 1/4 or r2 > 1 - h(2t).  The tail is (a,
      xmax), a the largest cut or 0, and t falls with x, so the tail
      fails t > 1/4 iff the float lo after a does.  Past b = 1 + omega -
      4 thresholds[0] the square root in r2 is imaginary and r2 = 0, so
      what is left is m >= 0 on [lo, hi], hi the lesser of b and the
      float below xmax, for the margin m(x) = (1 - h(2t)) - r2 with r2
      unclamped (the clamped margin is not unimodal).

    m is convex on [lo, hi].  1 - h(2t) is convex in t, and t is affine
    in x.  With s = 1 - omega + x, y = 2 - s, l = thresholds[0] and H(a)
    = h((1 - sqrt(1 - 4a))/2), r2 = alpha/(1 - alpha) [s h(x/s) - F(y)]
    with F(y) = (2 - y) H(l/y).  s h(x/s) is the perspective of the
    concave h at an affine point, so it is concave (Boyd & Vandenberghe,
    Convex Optimization, 3.2.6).  F'' = (l/y^3) H'(a) [4 - (2 - y) e(a)]
    at a = l/y, with e = -a H''/H' in (0, 1/3] (the tests check both in
    50-digit arithmetic), so F'' > 0 as y < 2, and r2 is concave.

    So the tail is decided in three steps, on margin = _ROUNDING/(1 -
    alpha).  First, it passes when 1 - h(2t(lo)), the least 1 - h(2t),
    less r2's bound on [lo, hi] from its monotone pieces (s(hi) times
    the largest h of x/s, less s(lo) H(l/y(lo))), clears the margin.
    Otherwise golden section on m keeps the least m in its bracket.  It
    fails at the first x with m < 2 margin, the witness, and passes once
    ``_convex_floor`` of its four points clears the margin.  Twice the
    margin stands between the two, so the bracket, under 2^-40 of [lo,
    hi] after _GOLDEN_EVALS evaluations, does not run out first; if it
    does, it fails at the least m seen.

    The rounding margin.  At a float x, the float m lies within E = 600
    u/(1 - alpha) of m, u = 2^-53 (20,000 random draws against 40-digit
    arithmetic came within 32 u/(1 - alpha)).  The lhs is off by at most
    7 u/(1 - alpha), which moves 1 - h(2t) by at most 58 times that, since
    |d/dt h(2t)| <= 2 log2(1/(2t)) and t >= 1e-9.  r2 is alpha/(1 - alpha)
    s times two entropies within 70 u each; h(p) loses the most, where 1
    - sqrt rounds a tiny p.  Golden
    section keeps the least m up to comparisons within 2E, and the floor
    extends chords over spans at most phi times their own width, so a
    floor that clears 2^-38/(1 - alpha), above 5E, leaves the float m >=
    0, the pointwise test passing, at every float of [lo, hi].  The
    margin is about 1e-12 in t, far below tol.  So a pass implies the
    pass of every probe grid in (0, xmax) under the same pointwise test.
    """
    return _witness(omega, alpha, tau, thresholds, cfg) is None


@dataclass(frozen=True)
class CurvePoint:
    """One tau of ``two_stage_curve``: rate, winning (omega, alpha, R) or
    None, check_star calls made, and pairs dropped at their bottom rung."""

    tau: float
    rate: float
    omega: float | None
    alpha: float | None
    R: float | None
    checks: int
    killed: int


def two_stage_curve(
    taus: list[float], cfg: TwoStageConfig = DEFAULT_CONFIG
) -> list[CurvePoint]:
    """Best alpha * R over the grid subject to check_star at each tau of a
    non-decreasing list, 0 where nothing passes.  At each tau, candidates
    rank by value with ties toward smaller omega, then alpha, then larger
    R, and the first feasible one wins.  The heap of (omega, alpha) pairs,
    each walking its rates down the ladder, carries over from tau to tau
    on two facts of the predicate that check_star decides (up to its
    rounding margin):

    - A rung failing at tau fails at every larger tau: lhs, so t, rises
      with tau at every x, which lowers 1 - h(2t), and xmax = min(omega,
      tau/alpha) rises, which only adds x to check.
    - A pair failing at R fails at every larger R, as long as no
      threshold rises with R, which the tests check on the default grid.
      Lower thresholds move each x to a higher grade or into the tail.
      ``TAU_TABLE`` does not rise from 2 to 18 and every grade bound is at
      least 0.312 > 1/4, the most a tail x may have in t, so a moved x
      meets a lower bound.  A lower thresholds[0] also raises r2, since H
      rises, and so lowers the tail's bound.

    So a failed rung is never checked again, and a pair is dropped for
    good once its bottom rung fails, which is checked on its first pop at
    each tau.

    The thresholds of every (omega, R) of the grid are solved in lanes at
    the first check, as one ``tau_star_lists`` table with a row per pair,
    so not at all when no check runs, and become Python lists in one
    ``tolist``.  A pair's rungs are consecutive rows, so its heap entry
    carries the row of its first rung and rung i reads that row + i.
    """
    for prev, tau in zip([0.0, *taus], taus):
        if not prev <= tau < 1.0:
            raise ValueError(f"error fraction {tau} outside [0, 1) or below {prev}")
    n_om, n_al = cfg.omega_points, cfg.alpha_points
    omegas = sorted({k / (n_om + 1) for k in range(1, n_om + 1)}.union(OMEGA_EXTRAS))
    alphas = sorted({k / (n_al + 1) for k in range(1, n_al + 1)}.union(ALPHA_EXTRAS))
    ladder = sorted(cfg.rate_ladder, reverse=True)
    heap, pairs = [], []
    for om in omegas:
        hcap = binary_entropy(om)
        rates = [R for R in ladder if R < hcap]
        if rates:
            # rung i of the pair reads row len(pairs) + i of the table
            heap.extend((-al * rates[0], om, al, 0, rates, len(pairs)) for al in alphas)
        pairs += [(R, om) for R in rates]
    heapify(heap)
    rows, checks = None, 0

    def passes(om: float, al: float, row: int, tau: float) -> bool:
        nonlocal rows, checks
        if rows is None:
            rows = tau_star_lists(pairs, cfg.l_up).tolist()
        checks += 1
        return check_star(om, al, tau, rows[row], cfg)

    points = []
    for tau in taus:
        before, killed, popped = checks, 0, set()
        while heap:
            neg_value, om, al, i, rates, row = heap[0]
            bottom = len(rates) - 1
            # on a pair's first pop at this tau its bottom rung goes first;
            # at tau 0 feasibility is vacuous and nothing is checked
            first = i < bottom and (om, al) not in popped
            popped.add((om, al))
            alive = tau == 0.0 or not first or passes(om, al, row + bottom, tau)
            if alive and (tau == 0.0 or passes(om, al, row + i, tau)):
                point = CurvePoint(tau, -neg_value, om, al, rates[i], checks - before, killed)
                break
            if alive and i < bottom:
                heapreplace(heap, (-al * rates[i + 1], om, al, i + 1, rates, row))
            else:
                heappop(heap)
                killed += 1
        else:
            point = CurvePoint(tau, 0.0, None, None, None, checks - before, killed)
        points.append(point)
    return points


def two_stage_rate(tau: float, cfg: TwoStageConfig = DEFAULT_CONFIG) -> float:
    """Best alpha * R over the grid subject to check_star at one tau; 0 if
    nothing passes.  See ``two_stage_curve``."""
    return two_stage_curve([tau], cfg)[0].rate


@dataclass(frozen=True)
class PlotkinPoint:
    """The zero-rate threshold and the (omega, alpha) achieving it."""

    omega_max: float
    alpha_max: float
    tau_max: float

    def to_json_dict(self) -> dict[str, str]:
        return {
            "omega_max": f"{self.omega_max:.12f}",
            "alpha_max": f"{self.alpha_max:.12f}",
            "tau_max": f"{self.tau_max:.12f}",
        }


def plotkin_point() -> PlotkinPoint:
    """Root of the stationarity cubic 1 + 3 w^2 - 8 w^3 = 0, taken as the
    midpoint of its exact rational bracket, and the split and threshold
    derived from it."""
    lo, hi = _omega_enclosure()
    w = float((lo + hi) / 2)
    alpha = 1.0 / (1.0 + 4.0 * w**3)
    tau = (w + w**3) / (1.0 + 4.0 * w**3)
    return PlotkinPoint(w, alpha, tau)


@dataclass(frozen=True)
class RemainsRow:
    L: int
    lhs: Fraction
    rhs_low: Fraction
    rhs_high: Fraction
    ok: bool
    equality: bool


@dataclass
class RemainsReport:
    rows: list[RemainsRow]
    omega_low: Fraction
    omega_high: Fraction
    tail_ok: bool
    tail_range: tuple[int, int]

    @property
    def all_ok(self) -> bool:
        return self.tail_ok and all(r.ok for r in self.rows)

    def __bool__(self) -> bool:
        return self.all_ok


def _omega_enclosure() -> tuple[Fraction, Fraction]:
    """Shrinking rational bracket around the cubic's root; the sign of
    8 w^3 - 3 w^2 - 1 is evaluated exactly at every endpoint."""

    def q(w: Fraction) -> Fraction:
        return 8 * w**3 - 3 * w**2 - 1

    lo, hi = Fraction(33, 50), Fraction(67, 100)
    assert q(lo) < 0 < q(hi)
    for _ in range(60):
        mid = (lo + hi) / 2
        if q(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


# Extra grid points pinning down the neighborhood of the zero-rate point,
# which a uniform grid of the default size would straddle.
_ZERO_RATE = plotkin_point()
OMEGA_EXTRAS = (0.65, round(_ZERO_RATE.omega_max, 10), 0.67)
ALPHA_EXTRAS = (round(_ZERO_RATE.alpha_max, 10), 0.995, 0.999)


def verify_remains(l_up: int = 17) -> RemainsReport:
    """Certify tau(L+1) >= 1/4 + omega_root^(L-2)/4 for L = 1..l_up in
    exact arithmetic, bracketing the cubic root in rationals.

    The L=2 case is an exact equality (the exponent vanishes, killing the
    dependence on the root); every other case must clear the upper end of
    the interval.  Also certifies the tail inequality 1/(2L+1) >=
    (2/3)^(L-2) for L in 10..200, which is what retires list sizes beyond
    the table.
    """
    if not 1 <= l_up <= 17:
        raise ValueError("exact certification only covers caps 1..17")
    lo, hi = _omega_enclosure()
    quarter = Fraction(1, 4)
    rows: list[RemainsRow] = []
    for L in range(1, l_up + 1):
        lhs = TAU_TABLE[L + 1]
        e = L - 2
        if e == 0:
            power_lo = power_hi = Fraction(1)
        elif e > 0:
            power_lo, power_hi = lo**e, hi**e
        else:
            # 0 < lo < hi, so reciprocals swap the ends
            power_lo, power_hi = 1 / hi, 1 / lo
        rhs_low = quarter + power_lo / 4
        rhs_high = quarter + power_hi / 4
        equality = e == 0 and lhs == rhs_low
        ok = equality or lhs >= rhs_high
        rows.append(RemainsRow(L, lhs, rhs_low, rhs_high, ok, equality))
    two_thirds = Fraction(2, 3)
    tail_lo, tail_hi = 10, 200
    tail_ok = all(
        Fraction(1, 2 * L + 1) >= two_thirds ** (L - 2)
        for L in range(tail_lo, tail_hi + 1)
    )
    return RemainsReport(rows, lo, hi, tail_ok, (tail_lo, tail_hi))
