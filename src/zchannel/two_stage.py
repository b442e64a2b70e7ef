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

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heapreplace
from math import inf, isnan, log1p, sqrt

from .rate_bounds import LN2, binary_entropy, tau_star_lists
from .tau_lp import TAU_TABLE


# check_star fails anything within this distance of failing
BOUNDARY_TOL = 1e-9


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
    x_points: int = 140

    def __post_init__(self) -> None:
        if not 1 <= self.l_up <= 17:
            raise ValueError("list cap must lie in 1..17")
        if self.x_points < 8 or self.omega_points < 2 or self.alpha_points < 2:
            raise ValueError("grids too coarse to mean anything")
        if not self.rate_ladder or not all(0.0 <= R < 1.0 for R in self.rate_ladder):
            raise ValueError("rate ladder needs at least one rate, each in [0, 1)")


DEFAULT_CONFIG = TwoStageConfig()


def r2(alpha: float, tau1: float, omega: float, list1_tau: float) -> float:
    """Rate still extractable from the second stage after stage-1 damage
    tau1, per the shortened-code argument.

    ``list1_tau`` is tau_star(R1, 1, omega) for the stage-1 rate R1, the
    first entry of the threshold list that check_star reads.  Zero
    whenever the expression degenerates (negative square-root argument or
    negative bracket): those regimes leave at most polynomial list growth,
    which costs no rate.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"stage split {alpha} outside (0, 1)")
    if not 0.0 <= tau1 <= omega:
        raise ValueError(f"stage-1 fraction {tau1} outside [0, {omega}]")
    if not list1_tau >= 0.0:
        raise ValueError("list-1 threshold must be nonnegative")
    if tau1 == 0.0:
        return 0.0
    shrink = 1.0 - omega + tau1
    sqrt_arg = 1.0 - 4.0 * list1_tau / (1.0 + omega - tau1)
    if sqrt_arg < 0.0:
        return 0.0
    bracket = binary_entropy(tau1 / shrink) - binary_entropy((1.0 - sqrt(sqrt_arg)) / 2.0)
    if bracket <= 0.0:
        return 0.0
    return alpha * shrink / (1.0 - alpha) * bracket


# float(tau_of_L(L)) for every solved L, so for every grade of a cap in 1..17
_GRADE_BOUNDS = {L: float(tau) for L, tau in TAU_TABLE.items()}


def _x_extras(xmax: float, thresholds: list[float]) -> list[float]:
    """check_star's probes besides the uniform ones, ascending: one just
    past each threshold inside (0, xmax), four above the last threshold
    when it is below xmax, and one just below xmax, each held at most
    xmax (1 - 1e-9).  That cap commutes with the sort, so it is applied
    to the sorted suffix above it; xmax (1 - 1e-6) never reaches it."""
    just_inside = xmax * (1.0 - 1e-9)
    xs = [thr + 1e-12 for thr in thresholds if 0.0 < thr < xmax]
    top = thresholds[-1]
    if top < xmax:
        span = xmax - top
        xs += [top + 1e-9 * span, top + 0.25 * span, top + 0.5 * span, top + 0.75 * span]
    xs.append(xmax * (1.0 - 1e-6))
    xs.sort()
    capped = bisect_right(xs, just_inside)
    xs[capped:] = [just_inside] * (len(xs) - capped)
    return xs


def _first_uniform_above(low: float, xmax: float, nx: int) -> int:
    """The least k in 1..nx with xmax * k / (nx + 1) > low, or nx + 1 if
    there is none.  The probe never falls as k grows, since a correctly
    rounded product and quotient by positive constants are monotone, so
    a short walk corrects the arithmetic guess."""
    n1 = nx + 1
    if not low > 0.0:
        k = 1
    elif low >= xmax:
        k = n1
    else:
        k = int(low / xmax * n1) + 1
    while k > 1 and xmax * (k - 1) / n1 > low:
        k -= 1
    while k <= nx and not xmax * k / n1 > low:
        k += 1
    return k


def _probes_above(low: float, xmax: float, nx: int, extras: list[float]) -> Iterator[float]:
    """check_star's probes above low, ascending and lazily: the uniform
    ones from ``_first_uniform_above`` merged with the sorted extras."""
    k = _first_uniform_above(low, xmax, nx)
    j = bisect_right(extras, low)
    while k <= nx or j < len(extras):
        x = xmax * k / (nx + 1) if k <= nx else inf
        if j < len(extras) and extras[j] < x:
            x = extras[j]
            j += 1
        else:
            k += 1
        yield x


def _gv_fails(t: float, rate: float) -> bool:
    """t > tau_star(rate, 1, 1/2) for t >= BOUNDARY_TOL; see check_star."""
    if t > 0.25 or rate == 0.0:
        return t > 0.25  # tau_star's R = 0 short cut puts the root at 1/4
    # 1 - h(2t) from x = 1 - 4t: accurate near t = 1/4, unlike 1 - binary_entropy(2t)
    x = 1.0 - 4.0 * t
    return rate > ((1.0 + x) * log1p(x) + (1.0 - x) * log1p(-x)) / (2.0 * LN2)


def check_star(
    omega: float,
    alpha: float,
    tau: float,
    thresholds: list[float],
    cfg: TwoStageConfig = DEFAULT_CONFIG,
) -> bool:
    """Whether a stage split survives every probed stage-1 damage x.

    ``thresholds`` is tau_star(R, L, omega) for L = 1..cfg.l_up at the
    stage-1 rate R, cfg.l_up entries, each >= 0 and not NaN: the check
    reads R and every root through them, and solves none of its own.
    ``two_stage_curve`` reads them from one ``tau_star_lists`` table.
    The probes lie below xmax = min(omega, tau/alpha): cfg.x_points
    uniform ones xmax k/(x_points + 1) and the few of ``_x_extras``.  A
    probe x has the grade of the first list size L with x <= cut L =
    thresholds[L-1] - tol, or lies in the tail past every cut.  Grade 1
    needs no second stage; 2 <= L <= the cap needs lhs = (tau - alpha
    x)/(1 - alpha) <= tau_of_L(L), and the tail lhs <= tau_star(r2, 1, 1/2)
    for the shortened-code rate r2, whose list-1 threshold is
    thresholds[0].  Anything within ``BOUNDARY_TOL`` of failing fails.
    The thresholds need not rise with L: at (R, omega) = (0.9, 0.4694)
    they peak near 0.00943 at L = 5 and fall to 0.00671 at L = 17.
    Neither sorted thresholds nor a sorted probe list is needed:

    - Grade L holds the probes in (largest earlier cut, cut L], an empty
      region when cut L is not above that maximum.  Float lhs never rises
      with x, because correctly rounded *, - and / by a positive constant
      are monotone.  So a region fails iff its lowest probe fails, and it
      passes outright when lhs at the earlier cut passes.  Only otherwise
      is that probe found: the lower of the first uniform probe and the
      first extra above the earlier cut.  Regions are walked upward to
      the first failure.
    - No graded probe lies above a tail probe.  The tail probes are read
      lazily in ascending order, uniform and extras merged, up to the
      first failure, so r2 sees every probe past the largest cut in order,
      a repeated x as often as it repeats, and nothing after a failure.

    tau_star(r2, 1, 1/2) is the GV curve h^-1(1 - r2)/2: at L = 1 and
    omega = 1/2, with u = e^(-h/2) and p = u/(1 + u), e(h) = (1 + u)/2,
    g'(h) = p/2 and g - h g' = ln2 (1 - h(p)) = r2 ln2 at the root.  With
    t = lhs + tol the tail fails iff t > 1/4 or r2 > 1 - h(2t).
    """
    if not 0.0 < omega < 1.0 or not 0.0 < alpha < 1.0 or isnan(tau):
        raise ValueError("need omega, alpha in (0, 1) and tau not NaN")
    if len(thresholds) != cfg.l_up or not all(thr >= 0.0 for thr in thresholds):
        raise ValueError(f"need {cfg.l_up} thresholds, each >= 0 and not NaN")
    if tau <= 0.0:
        return True
    tol = BOUNDARY_TOL
    nx = cfg.x_points
    xmax = min(omega, tau / alpha)
    extras = _x_extras(xmax, thresholds)
    low = thresholds[0] - tol
    for L in range(2, len(thresholds) + 1):
        cut = thresholds[L - 1] - tol
        if not cut > low:
            continue
        bound = _GRADE_BOUNDS[L] - tol
        # every probe of the region lies above low, so its lhs is at most lhs(low)
        if (tau - alpha * low) / (1.0 - alpha) > bound:
            x = next(_probes_above(low, xmax, nx, extras), inf)
            if x <= cut and (tau - alpha * x) / (1.0 - alpha) > bound:
                return False
        low = cut
    for x in _probes_above(low, xmax, nx, extras):
        lhs = (tau - alpha * x) / (1.0 - alpha)
        if _gv_fails(lhs + tol, r2(alpha, x, omega, thresholds[0])):
            return False
    return True


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
    on two facts the tests check but no theorem gives: a pair failing at R
    fails at every larger R and at every larger tau.  So a failed rung is
    never checked again, and a pair is dropped for good once its bottom
    rung fails, which is checked on its first pop at each tau.

    The thresholds of every (omega, R) of the grid are solved in lanes at
    the first check (``tau_star_lists``), so not at all when no check
    runs, and each check reads its rung's list from that table.
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
            heap.extend((-al * rates[0], om, al, 0, rates) for al in alphas)
        pairs += [(R, om) for R in rates]
    heapify(heap)
    thresholds = tau_star_lists(pairs, cfg.l_up)
    checks = 0

    def passes(om: float, al: float, R: float, tau: float) -> bool:
        nonlocal checks
        checks += 1
        return check_star(om, al, tau, thresholds(R, om), cfg)

    points = []
    for tau in taus:
        before, killed, popped = checks, 0, set()
        while heap:
            neg_value, om, al, i, rates = heap[0]
            bottom = len(rates) - 1
            # on a pair's first pop at this tau its bottom rung goes first;
            # at tau 0 feasibility is vacuous and nothing is checked
            first = i < bottom and (om, al) not in popped
            popped.add((om, al))
            alive = tau == 0.0 or not first or passes(om, al, rates[bottom], tau)
            if alive and (tau == 0.0 or passes(om, al, rates[i], tau)):
                point = CurvePoint(tau, -neg_value, om, al, rates[i], checks - before, killed)
                break
            if alive and i < bottom:
                heapreplace(heap, (-al * rates[i + 1], om, al, i + 1, rates))
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
