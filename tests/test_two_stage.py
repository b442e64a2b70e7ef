import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

import oracles

from zchannel import rate_bounds, two_stage
from zchannel.two_stage import (
    DEFAULT_CONFIG,
    TwoStageConfig,
    check_star,
    plotkin_point,
    r2,
    two_stage_curve,
    two_stage_rate,
    verify_remains,
)
from zchannel.rate_bounds import binary_entropy, tau_star
from zchannel.tau_lp import tau_of_L


def _lists(R, omega, l_up):
    """tau_star(R, L, omega) for L = 1..l_up, the row of a one-pair table."""
    return rate_bounds.tau_star_lists([(R, omega)], l_up)[0].tolist()


def _lookup(table):
    """A reference table as the (R, omega) -> thresholds callable that
    the heap scan reads."""
    return lambda R, om: table[R, om]


# the list-1 threshold of the stage-1 rate 0.05 at omega = 0.6
_LIST1 = oracles.tau_star(0.05, 1, 0.6)


def test_residual_rate_worked_value():
    assert r2(0.5, 0.3, 0.6, _LIST1) == pytest.approx(0.2453979696204505, abs=1e-11)


def test_residual_rate_edges():
    assert r2(0.5, 0.0, 0.6, _LIST1) == 0.0
    # a first-stage rate past the exponent ceiling has list-1 threshold 0,
    # which removes the subtracted entropy term entirely, leaving the full
    # first term
    assert oracles.tau_star(0.99, 1, 0.6) == 0.0
    full = (0.5 / 0.5) * 0.7 * binary_entropy(0.3 / 0.7)
    assert r2(0.5, 0.3, 0.6, 0.0) == pytest.approx(full, abs=1e-12)
    with pytest.raises(ValueError):
        r2(0.0, 0.3, 0.6, _LIST1)
    with pytest.raises(ValueError):
        r2(1.0, 0.3, 0.6, _LIST1)
    with pytest.raises(ValueError):
        r2(0.5, -0.1, 0.6, _LIST1)


def test_residual_rate_grows_with_first_stage_fraction():
    lo = r2(0.3, 0.3, 0.6, _LIST1)
    hi = r2(0.7, 0.3, 0.6, _LIST1)
    assert hi > lo > 0


def test_threshold_check_trivial_cases():
    cfg = TwoStageConfig(l_up=4)
    thresholds = _lists(0.1, 0.6, 4)
    assert check_star(0.6, 0.5, 0.0, thresholds, cfg)
    assert check_star(0.6, 0.5, -1.0, thresholds, cfg)
    # an error fraction past every plateau bound must fail
    assert not check_star(0.6, 0.5, 0.45, thresholds, cfg)


def test_threshold_check_accepts_small_fractions():
    cfg = TwoStageConfig(l_up=4)
    assert check_star(0.6, 0.5, 0.05, _lists(0.05, 0.6, 4), cfg)


def _threshold_on(x, tol):
    """A threshold whose cut thr - tol is exactly the float x, or None for
    the rare x that no float threshold reaches."""
    thr = x + tol
    while thr - tol < x:
        thr = math.nextafter(thr, math.inf)
    while thr - tol > x:
        thr = math.nextafter(thr, -math.inf)
    return thr if thr - tol == x else None


def _tail_margin(omega, alpha, tau, list1, x):
    """check_star's tail margin (1 - h(2t)) - r2 at x, r2 unclamped."""
    t = (tau - alpha * x) / (1.0 - alpha) + two_stage.BOUNDARY_TOL
    return two_stage._gv(t) - two_stage._residual(alpha, x, omega, list1)


def _assert_sound(omega, alpha, R, tau, thresholds, x_points):
    """check_star's verdict against the reference: a pass implies that the
    probe grid passes for every count in ``x_points``; a failure comes with
    a witness x in (0, xmax) that fails the pointwise test.  A graded
    witness, or one whose t passes 1/4, fails the reference's own test; a
    tail witness otherwise has a margin below twice the rounding margin.
    Returns which of these it was."""
    cfg = TwoStageConfig(l_up=len(thresholds))
    x = two_stage._witness(omega, alpha, tau, thresholds, cfg)
    assert check_star(omega, alpha, tau, thresholds, cfg) == (x is None)
    if x is None:
        for n in x_points:
            assert oracles.check_star(omega, alpha, R, tau, cfg, n, thresholds=thresholds)
        return "pass"
    tol = two_stage.BOUNDARY_TOL
    assert 0.0 < x < min(omega, tau / alpha)
    grade = next((L for L, thr in enumerate(thresholds, 1) if x <= thr - tol), None)
    assert grade != 1
    t = (tau - alpha * x) / (1.0 - alpha) + tol
    if grade is None and t <= 0.25:
        margin = _tail_margin(omega, alpha, tau, thresholds[0], x)
        assert margin < 2.0 * two_stage._ROUNDING / (1.0 - alpha)
        return "tail witness" if margin < 0.0 else "tail witness within the margin"
    assert oracles.rejects(omega, alpha, R, tau, x, thresholds)
    return "graded witness" if grade else "witness past t = 1/4"


_CHECK_ARGS = dict(
    omega=st.floats(0.02, 0.98),
    alpha=st.floats(0.02, 0.98),
    R=st.sampled_from(DEFAULT_CONFIG.rate_ladder),
    tau=st.floats(0.001, 0.5),
    l_up=st.integers(1, 17),
)


@settings(max_examples=60, deadline=None)
@given(**_CHECK_ARGS)
def test_check_star_is_sound_against_reference_scans(omega, alpha, R, tau, l_up):
    event(_assert_sound(omega, alpha, R, tau, _lists(R, omega, l_up), (8, 40, 140)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), x_points=st.sampled_from((8, 40, 140)), **_CHECK_ARGS)
def test_check_star_is_sound_on_made_up_thresholds(
    data, omega, alpha, R, tau, l_up, x_points
):
    """Unsorted threshold lists, and a cut placed exactly on a probed x of
    the uniform grid.  The first entry stays tau_star(R, 1, omega), which
    r2 reads from it and the reference's r2 solves from R."""
    rest = data.draw(st.lists(st.floats(0.0, 0.8), min_size=l_up - 1, max_size=l_up - 1))
    thresholds = [oracles.tau_star(R, 1, omega), *rest]
    if l_up > 1 and data.draw(st.booleans()):
        xmax = min(omega, tau / alpha)
        x = xmax * data.draw(st.integers(1, x_points)) / (x_points + 1)
        thr = _threshold_on(x, two_stage.BOUNDARY_TOL)
        assume(thr is not None)
        thresholds[data.draw(st.integers(1, l_up - 1))] = thr
    event(_assert_sound(omega, alpha, R, tau, thresholds, (x_points,)))


# At omega = 0.6 and alpha = 1/2 the third probe of an 8-point grid is
# x0 = 0.6 * 3/9 and xmax = omega.  The lhs 2 tau - x0 clears the list-3
# bound 1/2 by half a tolerance; a probe 1e-9 further up passes it.
_ON_CUT_X_POINTS = 8
_ON_CUT_OMEGA, _ON_CUT_ALPHA, _ON_CUT_R = 0.6, 0.5, 0.9
_X0 = _ON_CUT_OMEGA * 3 / 9
_TAU_ON_CUT = (_X0 + 0.5 - two_stage.BOUNDARY_TOL + 0.5e-9) / 2


def _on_cut_verdicts(cut2, cut3):
    """(witness, reference verdict) for the thresholds
    [tau_star(R, 1, omega), cut2 + tol, cut3 + tol, 0.8]."""
    tol = two_stage.BOUNDARY_TOL
    thresholds = [
        oracles.tau_star(_ON_CUT_R, 1, _ON_CUT_OMEGA),
        _threshold_on(cut2, tol),
        _threshold_on(cut3, tol),
        0.8,
    ]
    assert None not in thresholds
    assert thresholds[0] < _X0 - tol
    lhs = (_TAU_ON_CUT - _ON_CUT_ALPHA * _X0) / (1 - _ON_CUT_ALPHA)
    assert lhs > float(tau_of_L(3)) - tol
    cfg = TwoStageConfig(l_up=4)
    x = two_stage._witness(_ON_CUT_OMEGA, _ON_CUT_ALPHA, _TAU_ON_CUT, thresholds, cfg)
    if x is not None:
        assert oracles.rejects(
            _ON_CUT_OMEGA, _ON_CUT_ALPHA, _ON_CUT_R, _TAU_ON_CUT, x, thresholds
        )
    return x, oracles.check_star(
        _ON_CUT_OMEGA, _ON_CUT_ALPHA, _ON_CUT_R, _TAU_ON_CUT, cfg, _ON_CUT_X_POINTS,
        thresholds=thresholds,
    )


def test_check_star_grades_x_on_a_cut_by_the_lower_list():
    """x0 on the list-2 cut has grade 2 (bound 1) and passes; the grid's
    first grade-3 probe, 1e-12 past that threshold, passes too, but the
    float just past x0 has grade 3 and the lhs of x0 with it, so it fails:
    a failure that the grid misses."""
    assert _on_cut_verdicts(_X0, 0.7) == (math.nextafter(_X0, 1.0), True)


def test_check_star_checks_x_on_a_cut_at_that_grade():
    """With the list-3 cut on x0, grade 3 is (x0 - 0.5e-9, x0]: the grid
    probes only x0 there, and every float of it fails."""
    x, grid = _on_cut_verdicts(_X0 - 0.5e-9, _X0)
    assert _X0 - 0.5e-9 < x <= _X0 and not grid


# (omega, alpha, R, tau): the default grid's probe scan passes it, yet the
# x in [0.151275, 0.151638] of its tail fail
_MISSED = (0.16326530612244897, 0.46938775510204084, 0.01, 0.1644805)


def test_check_star_fails_a_split_that_the_probe_grid_passes():
    omega, alpha, R, tau = _MISSED
    thresholds = _lists(R, omega, 17)
    assert oracles.check_star(omega, alpha, R, tau, DEFAULT_CONFIG, 140, thresholds=thresholds)
    assert not check_star(omega, alpha, tau, thresholds)
    x = two_stage._witness(omega, alpha, tau, thresholds, DEFAULT_CONFIG)
    assert 0.151275 <= x <= 0.151638
    assert x > thresholds[-1] - two_stage.BOUNDARY_TOL  # in the tail
    assert oracles.rejects(omega, alpha, R, tau, x, thresholds)


def _probe_grid(omega, alpha, tau, thresholds, x_points):
    xmax = min(omega, tau / alpha)
    return oracles._x_grid(xmax, thresholds, x_points, two_stage.BOUNDARY_TOL)


def _draw_thresholds(data, omega, alpha, R, tau, l_up, x_points):
    """tau_star(R, 1, omega), then l_up - 1 made-up thresholds: repeats,
    ones in [0, tol] whose cut is at or below 0, ones whose cut is at or
    above xmax, ones within 3e-9 of xmax, whose probe just past them meets
    the cap xmax (1 - 1e-9), and ones inside; sometimes one more is moved
    so that its cut lies exactly on an extra probe (one just past a
    threshold, one above the last threshold, or the one just below
    xmax)."""
    tol = two_stage.BOUNDARY_TOL
    xmax = min(omega, tau / alpha)
    thresholds = [oracles.tau_star(R, 1, omega)]
    for _ in range(l_up - 1):
        kind = data.draw(st.sampled_from(("repeat", "low", "high", "near xmax", "inside")))
        if kind == "repeat":
            thr = data.draw(st.sampled_from(thresholds))
        elif kind == "low":
            thr = data.draw(st.floats(0.0, tol))
        elif kind == "high":
            thr = xmax + tol + data.draw(st.floats(0.0, 0.5))
        elif kind == "near xmax":
            thr = xmax * (1.0 - data.draw(st.floats(0.0, 3e-9)))
        else:
            thr = data.draw(st.floats(0.0, xmax))
        thresholds.append(thr)
    if data.draw(st.booleans()):
        extras = _probe_grid(omega, alpha, tau, thresholds, x_points)[x_points:]
        x = data.draw(st.sampled_from(extras))
        thr = _threshold_on(x, tol)
        assume(thr is not None)
        thresholds[data.draw(st.integers(1, l_up - 1))] = thr
        assume(x in _probe_grid(omega, alpha, tau, thresholds, x_points))
        event("a cut on an extra probe")
    return thresholds


_WALK_ARGS = dict(
    omega=_CHECK_ARGS["omega"],
    alpha=_CHECK_ARGS["alpha"],
    R=_CHECK_ARGS["R"],
    tau=_CHECK_ARGS["tau"],
    l_up=st.integers(2, 17),
    x_points=st.integers(8, 300),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), **_WALK_ARGS)
def test_check_star_is_sound_on_adversarial_cuts(data, omega, alpha, R, tau, l_up, x_points):
    """Made-up thresholds from ``_draw_thresholds``."""
    thresholds = _draw_thresholds(data, omega, alpha, R, tau, l_up, x_points)
    event(_assert_sound(omega, alpha, R, tau, thresholds, (x_points,)))


_LHS_X = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    tau=st.floats(0.0, 1.0),
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    x1=_LHS_X,
    x2=st.one_of(_LHS_X, st.just(None)),
)
def test_float_lhs_never_rises_with_x(tau, alpha, x1, x2):
    """The fact behind the one-test regions of check_star; x2 = None
    draws the next float above x1."""
    if x2 is None:
        x2 = math.nextafter(x1, math.inf)
    x1, x2 = sorted((x1, x2))
    assume(x1 < x2)

    def lhs(x):
        return (tau - alpha * x) / (1.0 - alpha)

    assert lhs(x1) >= lhs(x2)


@settings(max_examples=200, deadline=None)
@given(
    omega=st.floats(0.02, 0.98),
    alpha=st.floats(0.02, 0.98),
    tau=st.floats(0.001, 0.6),
    list1=st.floats(0.0, 0.3),
    left=st.floats(0.0, 1.0),
    width=st.floats(1e-6, 1.0),
)
def test_tail_margin_is_convex(omega, alpha, tau, list1, left, width):
    """The second difference of check_star's tail margin m, in 50-digit
    arithmetic, at three evenly spaced x of (0, b) below xmax with t < 1/2;
    b = 1 + omega - 4 list1."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        omega, alpha, tau, list1 = map(mp.mpf, (omega, alpha, tau, list1))
        tol = mp.mpf(two_stage.BOUNDARY_TOL)
        # t < 1/2 iff x > (tau + (tol - 1/2)(1 - alpha))/alpha
        start = max(0, (tau + (tol - mp.mpf(0.5)) * (1 - alpha)) / alpha)
        end = min(omega, tau / alpha, 1 + omega - 4 * list1)
        assume(start < end)
        step = (end - start) * mp.mpf(width) / 2
        x1 = start + (end - start - 2 * step) * mp.mpf(left)
        xs = [x1 + k * step for k in range(3)]

        def h(p):
            # the ends of the domain may land a 50-digit rounding outside [0, 1]
            p = min(max(p, 0), 1)
            return 0 if p in (0, 1) else -(p * mp.log(p) + (1 - p) * mp.log(1 - p)) / mp.log(2)

        def m(x):
            t = (tau - alpha * x) / (1 - alpha) + tol
            s = 1 - omega + x
            p = (1 - mp.sqrt(max(1 - 4 * list1 / (2 - s), 0))) / 2
            return 1 - h(2 * t) - alpha / (1 - alpha) * s * (h(x / s) - h(p))

        a, b, c = (m(x) for x in xs)
        assert a + c - 2 * b >= -mp.mpf(10) ** -40 * (1 + abs(a) + abs(c))


@settings(max_examples=100, deadline=None)
@given(a=st.floats(1e-12, 0.2499))
def test_the_threshold_entropy_elasticity_lies_in_its_band(a):
    """e(a) = -a H''(a)/H'(a) lies in (0, 1/3] for H(a) = h((1 - sqrt(1 -
    4a))/2), the bound behind the convexity of r2's second term."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):

        def H(a):
            p = (1 - mp.sqrt(1 - 4 * a)) / 2
            return -(p * mp.log(p) + (1 - p) * mp.log(1 - p)) / mp.log(2)

        a = mp.mpf(a)
        e = -a * mp.diff(H, a, 2) / mp.diff(H, a)
        assert 0 < e <= mp.mpf(1) / 3


def test_check_star_evaluations_at_boundary_taus():
    """On triples of the default grid whose tail decides them, tau is
    bisected to the last float that check_star passes; at it and at the
    next float above, a call makes at most _GOLDEN_EVALS <= 64 margin
    evaluations, and both verdicts hold."""
    rng = np.random.default_rng(7)
    n = DEFAULT_CONFIG.omega_points
    grid = [k / (n + 1) for k in range(1, n + 1)]
    calls, real = [], two_stage._residual

    def spy(*args):
        calls.append(args)
        return real(*args)

    counts, done = [], 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(two_stage, "_residual", spy)
        while done < 12:
            omega, alpha = (float(v) for v in rng.choice(grid, 2))
            R = DEFAULT_CONFIG.rate_ladder[rng.integers(len(DEFAULT_CONFIG.rate_ladder))]
            if R >= binary_entropy(omega):
                continue
            thresholds = _lists(R, omega, 17)
            lo, hi = 0.0, 0.6
            while lo < math.nextafter(hi, 0.0):
                mid = (lo + hi) / 2
                if check_star(omega, alpha, mid, thresholds):
                    lo = mid
                else:
                    hi = mid
            verdicts = []
            for tau in (lo, math.nextafter(lo, 1.0)):
                calls.clear()
                verdicts.append(check_star(omega, alpha, tau, thresholds))
                counts.append(len(calls))
            assert verdicts == [True, False]
            done += max(counts[-2:]) > 0
    assert two_stage._GOLDEN_EVALS <= 64
    assert 0 < max(counts) <= two_stage._GOLDEN_EVALS


def test_a_nan_tau_is_refused():
    """A negative tau still passes vacuously."""
    cfg = TwoStageConfig(l_up=2)
    thresholds = _lists(0.1, 0.6, 2)
    with pytest.raises(ValueError):
        check_star(0.6, 0.3, math.nan, thresholds, cfg)
    assert check_star(0.6, 0.3, -0.5, thresholds, cfg)


@settings(max_examples=200, deadline=None)
@given(R=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_list1_threshold_at_half_is_the_gv_curve(R):
    """tau_star(R, 1, 1/2) = h^-1(1 - R)/2, the identity behind the
    closed-form overflow tail of check_star."""
    assert tau_star(0.0, 1, 0.5) == 0.25
    assert abs(1.0 - binary_entropy(2.0 * tau_star(R, 1, 0.5)) - R) <= 1e-11


def _gv_fails(t, rate):
    """check_star's pointwise tail rule: t > tau_star(rate, 1, 1/2) for t
    >= BOUNDARY_TOL, as t > 1/4 or rate > 1 - h(2t) (no rate fails when
    rate is 0: tau_star's R = 0 short cut puts the root at 1/4)."""
    return t > 0.25 or 0.0 < rate and rate > two_stage._gv(t)


_GV_BAND = 1e-10


def _gv_root(rate):
    """h^-1(1 - rate)/2 to within 1e-15: t = (1 - x)/4 for the x in
    [0, 1] where F(x) = 1 - h((1 - x)/2) meets the rate, 0 from rate 1 up
    and 1/4 at rate 0.  F rises from 0 to 1; below x = 1/2 it is summed
    as the positive series sum x^(2k) / (k (2k - 1)) / (2 ln 2), so that
    no rate, however small, is lost to cancellation."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):

        def F(x):
            if x >= 0.5:
                s = (1 + x) * mp.log1p(x) + (1 - x) * mp.log1p(-x) if x < 1 else 2 * mp.log(2)
            else:
                x2, s, k = x * x, mp.mpf(0), 1
                term = x2
                while term > s * mp.mpf("1e-22"):
                    s += term / (k * (2 * k - 1))
                    term *= x2
                    k += 1
            return s / (2 * mp.log(2))

        lo, hi = mp.mpf(0), mp.mpf(1)
        for _ in range(52):
            mid = (lo + hi) / 2
            if F(mid) < rate:
                lo = mid
            else:
                hi = mid
        return float((1 - lo) / 4)


@settings(max_examples=300, deadline=None)
@given(rate=st.floats(0.0, 1.5), near=st.booleans(), data=st.data())
def test_gv_tail_verdict_matches_the_root_solve(rate, near, data):
    """Outside a 1e-10 band around the GV root, the closed form fails
    exactly the t that exceed it; draws inside the band are counted as a
    hypothesis event and not judged.  t starts at BOUNDARY_TOL, the least
    lhs + tol that check_star passes.  The root is ``_gv_root``'s, not the
    float bisection of ``oracles.tau_star``, which is 2.4e-10 off it at
    rate 7.05e-16 (its -log(e) - h slope cancels for tiny rates)."""
    bound = _gv_root(rate)
    if near:
        t = bound + data.draw(st.floats(-1e-9, 1e-9))
    else:
        t = data.draw(st.floats(two_stage.BOUNDARY_TOL, 0.3))
    assume(t >= two_stage.BOUNDARY_TOL)
    if abs(t - bound) <= _GV_BAND:
        event("inside the 1e-10 band")
        return
    assert _gv_fails(t, rate) == (t > bound)


def test_gv_root_is_the_bisection_root_away_from_tiny_rates():
    """``_gv_root`` against the float bisection where that is accurate,
    and the tiny rate at which the bisection drifts past the band."""
    for rate in (0.0, 1e-6, 0.01, 0.3, 0.5, 0.9, 1.0, 1.2):
        assert abs(_gv_root(rate) - oracles.tau_star(rate, 1, 0.5)) <= 1e-11
    rate = 7.05253990191042e-16
    assert abs(_gv_root(rate) - oracles.tau_star(rate, 1, 0.5)) > _GV_BAND


# 2t just below 1/2 where binary_entropy rounds to 1 + 2^-52
_T_ENTROPY_ABOVE_ONE = 0.2499999978893581


@pytest.mark.parametrize(
    "rate, t",
    [
        (0.0, 0.25),
        (0.0, _T_ENTROPY_ABOVE_ONE),
        (0.0, math.nextafter(0.25, 1.0)),
        (1.0, 1e-9),
        (2.2250738585072014e-308, 0.24999999922501934),
        (1.2, 0.1),
        (0.5, 0.26),
    ],
)
def test_gv_tail_verdict_on_pinned_points(rate, t):
    """Rate 0 (the root is exactly 1/4), a rate so small that
    1 - binary_entropy(2t) rounds to 0 some 1e-9 below the root, rate >= 1
    (the root is 0) and t past 1/4, each against the bisection with no
    band."""
    assert binary_entropy(2.0 * _T_ENTROPY_ABOVE_ONE) > 1.0
    assert _gv_fails(t, rate) == (t > oracles.tau_star(rate, 1, 0.5))


@pytest.mark.parametrize(
    "thresholds",
    [
        [],
        [0.1] * 16,
        [0.1] * 19,
        [-1e-9] * 17,
        [0.1] * 16 + [math.nan],
        [math.nan] + [0.1] * 16,
    ],
    ids=["empty", "short", "long", "negative", "nan-last", "nan-first"],
)
def test_a_malformed_threshold_list_is_refused(thresholds):
    """Before any probe is read: one entry per list size, each >= 0 and not
    NaN.  The negative list once reached r2 at a negative x."""
    with pytest.raises(ValueError, match="thresholds"):
        check_star(0.6, 0.3, 0.1, thresholds, DEFAULT_CONFIG)


_EDGE_THRESHOLDS = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.3, -1e-9, math.inf, -math.inf, math.nan)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.sampled_from(_EDGE_THRESHOLDS), st.floats()), min_size=1, max_size=17)
)
def test_a_threshold_list_is_refused_iff_an_entry_is_not_at_least_zero(thresholds):
    """The entry test reads min and sum, not each entry: it refuses the
    same lists as all(thr >= 0.0), a NaN or a negative entry anywhere."""
    cfg = TwoStageConfig(l_up=len(thresholds))
    if all(thr >= 0.0 for thr in thresholds):
        check_star(0.6, 0.3, 0.1, thresholds, cfg)
    else:
        with pytest.raises(ValueError, match="thresholds"):
            check_star(0.6, 0.3, 0.1, thresholds, cfg)


def test_a_nan_or_negative_list1_threshold_is_refused():
    # r2 reads no rate; a list-1 threshold is a value of tau_star, >= 0
    for list1_tau in (math.nan, -1e-300, -math.inf):
        with pytest.raises(ValueError, match="list-1 threshold"):
            r2(0.5, 0.3, 0.6, list1_tau)


@pytest.mark.parametrize("R", [1.0, 1.5, math.inf])
def test_a_rate_of_one_or_more_reads_zero_thresholds(R):
    # no root lies there, so the reference reads 0 at every list size,
    # and check_star on those zeros is sound against the reference at R
    for omega in (0.5, 0.3):
        zeros = [oracles.tau_star(R, L, omega) for L in range(1, 4)]
        assert zeros == [0.0] * 3
        for tau in (0.05, 0.3):
            _assert_sound(omega, 0.3, R, tau, zeros, (8, 40, 140))


def _checked_candidates(cfg):
    """Every (omega, alpha, R) that the reference heap scan hands to
    check_star, in order, when none passes."""
    seen = []

    def record(om, al, tau, R, cfg):
        seen.append((om, al, R))
        return False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(two_stage, "check_star", record)
        # the rung's rate stands in for its thresholds, so record sees it
        assert oracles.two_stage_rate(0.3, cfg, lambda R, om: R) == 0.0
    return seen


def test_two_stage_rate_checks_candidates_in_ranked_order():
    want = oracles.ranked_candidates(DEFAULT_CONFIG)
    assert _checked_candidates(DEFAULT_CONFIG) == [c[1:] for c in want]


@settings(max_examples=100, deadline=None)
@given(
    ladder=st.lists(
        st.one_of(st.floats(0.0, 0.95), st.sampled_from((0.3, math.nextafter(0.3, 1.0)))),
        min_size=1,
        max_size=8,
    ),
    points=st.integers(2, 6),
)
def test_two_stage_rate_checks_made_up_ladders_in_value_order(ladder, points):
    """Only candidates of equal value for one (omega, alpha) pair may come
    in another order than the full sort, and they return the same rate."""
    cfg = TwoStageConfig(
        omega_points=points, alpha_points=points, rate_ladder=tuple(ladder)
    )
    got = _checked_candidates(cfg)
    want = oracles.ranked_candidates(cfg)
    assert [-al * R for _, al, R in got] == [c[0] for c in want]
    assert sorted(got) == sorted(c[1:] for c in want)


def test_curve_equals_heap_scan_on_default_grid():
    """Both sides of the threshold near 0.44, where every pair dies.  The
    heap scan reads its thresholds from the reference bisection."""
    taus = [0.15, 0.30, 0.43, 0.44]
    curve = two_stage_curve(taus, DEFAULT_CONFIG)
    assert [p.tau for p in curve] == taus
    reference = _default_reference()
    assert [p.rate for p in curve] == [
        oracles.two_stage_rate(t, DEFAULT_CONFIG, _lookup(reference)) for t in taus
    ]
    for p in curve:
        if p.rate:
            assert p.rate == p.alpha * p.R
            assert check_star(p.omega, p.alpha, p.tau, reference[p.R, p.omega], DEFAULT_CONFIG)
        else:
            assert p.omega is p.alpha is p.R is None
    assert curve[-1].rate == 0.0


@settings(max_examples=40, deadline=None)
@given(
    l_up=st.integers(1, 17),
    omega_points=st.integers(2, 6),
    alpha_points=st.integers(2, 6),
    ladder=st.lists(
        st.one_of(st.sampled_from(DEFAULT_CONFIG.rate_ladder), st.floats(0.0, 0.95)),
        min_size=1,
        max_size=6,
    ),
    taus=st.lists(st.floats(0.0, 0.6, exclude_max=True), min_size=1, max_size=6),
    repeat=st.integers(0, 5),
)
def test_curve_equals_heap_scan_on_small_configs(
    l_up, omega_points, alpha_points, ladder, taus, repeat
):
    cfg = TwoStageConfig(
        l_up=l_up,
        omega_points=omega_points,
        alpha_points=alpha_points,
        rate_ladder=tuple(ladder),
    )
    # tau 0 and one repeated tau in every walk
    taus = sorted([0.0, *taus, taus[repeat % len(taus)]])
    got = [p.rate for p in two_stage_curve(taus, cfg)]
    # each heap scan reads the thresholds of the reference lanes, solved
    # once for the whole grid, and the curve's own table holds their bits
    pairs = _grid_pairs(cfg)
    table = _reference_table(pairs, l_up)
    rows = rate_bounds.tau_star_lists(pairs, l_up).tolist()
    hexes = lambda values: [t.hex() for t in values]
    assert [hexes(row) for row in rows] == [hexes(table[p]) for p in pairs]
    assert got == [oracles.two_stage_rate(t, cfg, _lookup(table)) for t in taus]


def test_curve_never_rechecks_a_failed_rung_or_a_dead_pair(monkeypatch):
    cfg = TwoStageConfig(l_up=6, omega_points=8, alpha_points=8)
    real, real_lists = two_stage.check_star, two_stage.tau_star_lists
    made, calls = [], []

    class Table(np.ndarray):
        def tolist(self):
            # keep the pairs and the rows the curve reads, so that a check
            # names its rung by the row it is handed (rates past the
            # kernel's ceiling share all-zero rows, so values cannot)
            made.append((self.pairs, super().tolist()))
            return made[-1][1]

    def lists(pairs, l_up):
        table = real_lists(pairs, l_up).view(Table)
        table.pairs = pairs
        return table

    def spy(om, al, tau, thresholds, cfg):
        ok = real(om, al, tau, thresholds, cfg)
        pairs, rows = made[-1]
        (k,) = [k for k, row in enumerate(rows) if row is thresholds]
        assert pairs[k][1] == om
        calls.append((om, al, pairs[k][0], ok))
        return ok

    monkeypatch.setattr(two_stage, "tau_star_lists", lists)
    monkeypatch.setattr(two_stage, "check_star", spy)
    curve = two_stage_curve([0.1, 0.2, 0.3, 0.3, 0.4, 0.45], cfg)
    assert len(made) == 1  # one table, built once
    assert sum(p.checks for p in curve) == len(calls)
    failed, dead = set(), set()
    for om, al, R, ok in calls:
        assert (om, al, R) not in failed and (om, al) not in dead
        if not ok:
            failed.add((om, al, R))
            if R == min(r for r in cfg.rate_ladder if r < binary_entropy(om)):
                dead.add((om, al))
    assert sum(p.killed for p in curve) == len(dead)
    # past the threshold every live pair costs one check and dies
    assert curve[-1].rate == 0.0
    assert curve[-1].checks == curve[-1].killed > 0


def test_curve_checks_every_tau_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("check_star called")

    monkeypatch.setattr(two_stage, "check_star", refuse)
    for taus in ([0.1, 1.0], [0.1, -0.1], [0.2, 0.1], [0.1, math.nan]):
        with pytest.raises(ValueError):
            two_stage_curve(taus)
    assert two_stage_curve([]) == []


def test_no_threshold_is_certified_when_no_check_runs(monkeypatch):
    calls = []
    real = rate_bounds._lane_points

    def spy(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(rate_bounds, "_lane_points", spy)
    assert two_stage_curve([]) == []
    assert [p.checks for p in two_stage_curve([0.0])] == [0]
    assert two_stage_rate(0.0) > 0.0
    assert calls == []
    cfg = TwoStageConfig(l_up=3, omega_points=3, alpha_points=3)
    assert two_stage_curve([0.0, 0.1], cfg)[1].checks > 0
    assert calls == [1, 2, 3]  # one call per list size, at the first check


_LADDER = sorted(DEFAULT_CONFIG.rate_ladder)
_MONOTONE_ARGS = dict(
    omega=st.floats(0.02, 0.98),
    alpha=st.floats(0.02, 0.98),
    rung=st.integers(0, len(_LADDER) - 2),
    tau=st.floats(0.001, 0.5),
    l_up=st.integers(1, 17),
)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), **_MONOTONE_ARGS)
def test_check_star_failure_persists_up_the_ladder(data, omega, alpha, rung, tau, l_up):
    """The fact behind the bottom-rung kill: a pair that fails at one rate
    fails at every larger rate of the ladder."""
    cfg = TwoStageConfig(l_up=l_up)
    R, higher = _LADDER[rung], _LADDER[data.draw(st.integers(rung + 1, len(_LADDER) - 1))]

    def ok(R):
        return check_star(omega, alpha, tau, _lists(R, omega, l_up), cfg)

    assert ok(R) or not ok(higher)


@settings(max_examples=100, deadline=None)
@given(larger=st.floats(0.001, 0.6), **_MONOTONE_ARGS)
def test_check_star_failure_persists_at_larger_tau(larger, omega, alpha, rung, tau, l_up):
    """The fact behind the tau walk: a rung that fails at one tau fails at
    every larger tau."""
    cfg = TwoStageConfig(l_up=l_up)
    thresholds = _lists(_LADDER[rung], omega, l_up)
    lo, hi = sorted((tau, larger))
    assert check_star(omega, alpha, lo, thresholds, cfg) or not (
        check_star(omega, alpha, hi, thresholds, cfg)
    )


def test_no_default_threshold_rises_with_the_rate():
    """The premise of the walk's rate fact: on the default grid's 857 x 17
    threshold table, no threshold rises from one ladder rate to the next,
    and the grade bounds tau_of_L(2..18) never rise and stay above 1/4."""
    pairs = _grid_pairs(DEFAULT_CONFIG)
    rows = rate_bounds.tau_star_lists(pairs, 17).tolist()
    compared = 0
    for (R, om), (lower, om2), row, next_row in zip(pairs, pairs[1:], rows, rows[1:]):
        if om2 == om:  # the walk's order: rates descending per omega
            assert lower < R
            assert all(a <= b for a, b in zip(row, next_row))
            compared += 17
    assert compared == 13_702
    bounds = [tau_of_L(L) for L in range(2, 19)]
    assert all(b <= a for a, b in zip(bounds, bounds[1:]))
    assert min(bounds) > Fraction(312, 1000) > Fraction(1, 4)


def test_rate_bracketing_small_config():
    cfg = TwoStageConfig(l_up=6, omega_points=24, alpha_points=24)
    assert two_stage_rate(0.42, cfg) > 0
    assert two_stage_rate(0.46, cfg) == 0.0


def test_rate_at_zero_error():
    cfg = TwoStageConfig(l_up=3, omega_points=12, alpha_points=12)
    v = two_stage_rate(0.0, cfg)
    assert v > 0.8


def test_rate_beats_reference_at_moderate_error():
    from zchannel.rate_bounds import gv_rate

    cfg = TwoStageConfig(l_up=8, omega_points=32, alpha_points=32)
    v = two_stage_rate(0.2, cfg)
    assert v > gv_rate(0.2)


def test_zero_rate_point_matches_window():
    p = plotkin_point()
    assert p.omega_max == pytest.approx(0.6610498029007, abs=1e-11)
    assert p.alpha_max == pytest.approx(0.4639337307906, abs=1e-11)
    assert p.tau_max == pytest.approx(0.4406998686005, abs=1e-11)
    # stationarity residual of the critical-point cubic
    w = p.omega_max
    assert abs(1 + 3 * w * w - 8 * w**3) < 1e-10
    # consistency of the closed forms at the optimum
    assert p.alpha_max == pytest.approx(1 / (1 + 4 * w**3), abs=1e-12)
    assert p.tau_max == pytest.approx((w + w**3) / (1 + 4 * w**3), abs=1e-12)


def test_zero_rate_point_json_fields():
    doc = plotkin_point().to_json_dict()
    assert set(doc) == {"omega_max", "alpha_max", "tau_max"}
    assert doc["tau_max"].startswith("0.440699868600")


def test_remains_report_full_range():
    report = verify_remains(17)
    assert report
    assert report.all_ok
    assert report.tail_ok
    assert report.tail_range == (10, 200)
    assert len(report.rows) == 17
    eq_rows = [row for row in report.rows if row.equality]
    assert [row.L for row in eq_rows] == [2]
    for row in report.rows:
        assert row.ok
        assert row.lhs == tau_of_L(row.L + 1)
    # the enclosure of the critical point is tight
    assert report.omega_high - report.omega_low < Fraction(1, 10**18)


def test_remains_report_subrange():
    report = verify_remains(3)
    assert report.all_ok
    assert len(report.rows) == 3
    with pytest.raises(ValueError):
        verify_remains(0)
    with pytest.raises(ValueError):
        verify_remains(18)


def test_default_config_shape():
    assert DEFAULT_CONFIG.l_up == 17
    assert two_stage.BOUNDARY_TOL == 1e-9
    with pytest.raises(ValueError):
        TwoStageConfig(l_up=0)
    # every grade of a cap in 1..17 has a solved tau_of_L
    with pytest.raises(ValueError):
        TwoStageConfig(l_up=18)


@pytest.mark.parametrize(
    "ladder",
    [(), (math.nan,), (0.5, math.nan), (-0.1, 0.5), (0.5, 1.0), (2.0,), (math.inf,)],
    ids=["empty", "nan", "nan-last", "negative", "one", "above-one", "inf"],
)
def test_a_malformed_rate_ladder_is_refused(ladder):
    """At construction, before any walk: a NaN rung once reported rate 0,
    a negative one raised only once the walk reached it, and a rung at or
    above 1 was dropped without a word."""
    with pytest.raises(ValueError, match="rate ladder"):
        TwoStageConfig(rate_ladder=ladder)


def test_a_zero_rung_is_kept():
    cfg = TwoStageConfig(l_up=3, omega_points=4, alpha_points=4, rate_ladder=(0.0, 0.3))
    taus = [0.1, 0.2]
    table = _reference_table(_grid_pairs(cfg), cfg.l_up)
    assert [p.rate for p in two_stage_curve(taus, cfg)] == [
        oracles.two_stage_rate(t, cfg, _lookup(table)) for t in taus
    ]


# ---------------------------------------------------------------------------
# the thresholds two_stage_curve certifies in lanes


def _grid_pairs(cfg):
    """Every (R, omega) of two_stage_curve's grid, as its walk lists them."""
    n = cfg.omega_points
    omegas = sorted({k / (n + 1) for k in range(1, n + 1)}.union(two_stage.OMEGA_EXTRAS))
    ladder = sorted(set(cfg.rate_ladder), reverse=True)
    return [(R, om) for om in omegas for R in ladder if R < binary_entropy(om)]


def _reference_table(pairs, l_up):
    """(R, omega) -> oracles.tau_star(R, L, omega) for L = 1..l_up, at
    every pair, from one run of the reference lanes per L."""
    rates, omegas = [R for R, _ in pairs], [om for _, om in pairs]
    columns = [oracles.tau_star_lanes(rates, L, omegas) for L in range(1, l_up + 1)]
    return {pair: [col[k][0] for col in columns] for k, pair in enumerate(pairs)}


@cache
def _default_reference():
    """The reference table of the default grid; shared by the tests that
    read it."""
    return _reference_table(_grid_pairs(DEFAULT_CONFIG), 17)


def _lane_lists(pairs):
    rows = rate_bounds.tau_star_lists(pairs, 17).tolist()
    return [[t.hex() for t in row] for row in rows]


def _reference_lists(pairs):
    reference = _default_reference()
    return [[t.hex() for t in reference[pair]] for pair in pairs]


def test_grid_thresholds_equal_the_reference_bisection():
    pairs = _grid_pairs(DEFAULT_CONFIG)
    assert len(pairs) == 857
    assert _lane_lists(pairs) == _reference_lists(pairs)


_PAIR = st.tuples(
    st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(_PAIR, min_size=1, max_size=6), l_up=st.integers(1, 17))
@example(pairs=[(0.0, 0.3), (0.9, 0.05), (0.4, 1.0 / 9.0), (0.5, 1e-13)], l_up=17)
def test_every_table_row_is_a_list_that_check_star_reads(pairs, l_up):
    """Row k holds l_up thresholds of the k-th pair, none negative or NaN,
    at R = 0 (the closed form) and past the kernel's ceiling (zeros) too;
    so check_star refuses no row that the walk hands it."""
    table = rate_bounds.tau_star_lists(pairs, l_up)
    assert table.shape == (len(pairs), l_up)
    cfg = TwoStageConfig(l_up=l_up)
    for (R, omega), row in zip(pairs, table.tolist()):
        assert len(row) == l_up and all(thr >= 0.0 for thr in row)
        event("R = 0" if R == 0.0 else "no root" if row[0] == 0.0 else "root")
        check_star(omega, 0.3, 0.1, row, cfg)


def test_grid_thresholds_do_not_depend_on_the_lane_split_or_the_estimate(monkeypatch):
    # each pair is its own lane: per list size, the default grid's pairs in
    # one call equal, bit for bit, two calls on the halves split at a drawn
    # index, each pair starting from its ends at the list size before.
    # Then no Newton estimate, so every lane replays the plain bisection,
    # on the pairs at the omegas pinned near the zero-rate point
    rates, points = np.array(_grid_pairs(DEFAULT_CONFIG)).T
    starts = np.full(len(rates), np.nan)
    rng = np.random.default_rng(2024)
    for L in range(1, 18):
        k = int(rng.integers(1, len(rates)))
        whole = rate_bounds._lane_points(L, rates, points, starts)
        lo, hi = (
            rate_bounds._lane_points(L, rates[c], points[c], starts[c])
            for c in (slice(k), slice(k, None))
        )
        for got, a, b in zip(whole[:3], lo, hi):
            assert np.concatenate([a, b]).tobytes() == got.tobytes()
        starts = whole[2]
    pairs = [p for p in _grid_pairs(DEFAULT_CONFIG) if p[1] in two_stage.OMEGA_EXTRAS]
    want = _reference_lists(pairs)
    lanes, uncertified = [], []
    real = rate_bounds._lane_points

    def spy(*args):
        out = real(*args)
        ends = out[2]
        lanes.append(np.count_nonzero(~np.isnan(ends)))
        uncertified.append(np.count_nonzero(ends == np.inf))
        return out

    def no_estimate(*args):
        return np.full((3, len(args[-1])), np.nan)

    monkeypatch.setattr(rate_bounds, "_lane_newton", no_estimate)
    monkeypatch.setattr(rate_bounds, "_lane_points", spy)
    assert _lane_lists(pairs) == want
    assert uncertified == lanes and sum(lanes) > 0
