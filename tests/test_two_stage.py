import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

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
    """tau_star(R, L, omega) for L = 1..l_up, from a one-pair table."""
    return rate_bounds.tau_star_lists([(R, omega)], l_up)(R, omega)


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
    cfg = TwoStageConfig(l_up=4, x_points=40)
    thresholds = _lists(0.1, 0.6, 4)
    assert check_star(0.6, 0.5, 0.0, thresholds, cfg)
    assert check_star(0.6, 0.5, -1.0, thresholds, cfg)
    # an error fraction past every plateau bound must fail
    assert not check_star(0.6, 0.5, 0.45, thresholds, cfg)


def test_threshold_check_accepts_small_fractions():
    cfg = TwoStageConfig(l_up=4, x_points=40)
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


_CHECK_ARGS = dict(
    omega=st.floats(0.02, 0.98),
    alpha=st.floats(0.02, 0.98),
    R=st.sampled_from(DEFAULT_CONFIG.rate_ladder),
    tau=st.floats(0.001, 0.5),
    l_up=st.integers(1, 17),
    x_points=st.sampled_from((8, 40, 140)),
)


@settings(max_examples=60, deadline=None)
@given(**_CHECK_ARGS)
def test_check_star_matches_reference_scan(omega, alpha, R, tau, l_up, x_points):
    cfg = TwoStageConfig(l_up=l_up, x_points=x_points)
    assert check_star(omega, alpha, tau, _lists(R, omega, l_up), cfg) == oracles.check_star(
        omega, alpha, R, tau, cfg
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), **_CHECK_ARGS)
def test_check_star_matches_reference_scan_on_made_up_thresholds(
    data, omega, alpha, R, tau, l_up, x_points
):
    """Unsorted threshold lists exercise the forward-only grade pointer; a
    cut placed exactly on a probed x exercises the boundary.  The
    first entry stays tau_star(R, 1, omega), which r2 reads from it and
    the reference's r2 solves from R."""
    cfg = TwoStageConfig(l_up=l_up, x_points=x_points)
    rest = data.draw(st.lists(st.floats(0.0, 0.8), min_size=l_up - 1, max_size=l_up - 1))
    thresholds = [oracles.tau_star(R, 1, omega), *rest]
    if l_up > 1 and data.draw(st.booleans()):
        # a cut on a probed x of the uniform part of the grid
        xmax = min(omega, tau / alpha)
        x = xmax * data.draw(st.integers(1, x_points)) / (x_points + 1)
        thr = _threshold_on(x, two_stage.BOUNDARY_TOL)
        assume(thr is not None)
        thresholds[data.draw(st.integers(1, l_up - 1))] = thr
    assert check_star(omega, alpha, tau, thresholds, cfg) == (
        oracles.check_star(omega, alpha, R, tau, cfg, thresholds=thresholds)
    )


# At omega = 0.6 and alpha = 1/2 the third probe of an 8-point grid is
# x0 = 0.6 * 3/9 and xmax = omega.  The lhs 2 tau - x0 clears the list-3
# bound 1/2 by half a tolerance; a probe 1e-9 further up passes it.
_ON_CUT_CFG = TwoStageConfig(l_up=4, x_points=8)
_ON_CUT_OMEGA, _ON_CUT_ALPHA, _ON_CUT_R = 0.6, 0.5, 0.9
_X0 = _ON_CUT_OMEGA * 3 / 9
_TAU_ON_CUT = (_X0 + 0.5 - two_stage.BOUNDARY_TOL + 0.5e-9) / 2


def _on_cut_verdicts(cut2, cut3):
    """(check_star, reference) verdicts for the thresholds
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
    return (
        check_star(_ON_CUT_OMEGA, _ON_CUT_ALPHA, _TAU_ON_CUT, thresholds, _ON_CUT_CFG),
        oracles.check_star(
            _ON_CUT_OMEGA, _ON_CUT_ALPHA, _ON_CUT_R, _TAU_ON_CUT, _ON_CUT_CFG,
            thresholds=thresholds,
        ),
    )


def test_check_star_grades_x_on_a_cut_by_the_lower_list():
    """x0 on the list-2 cut has grade 2 (bound 1) and passes; the first
    grade-3 probe is the one just past that threshold, which passes too."""
    assert _on_cut_verdicts(_X0, 0.7) == (True, True)


def test_check_star_checks_x_on_a_cut_at_that_grade():
    """x0 on the list-3 cut is the only probe of grade 3, so it is checked
    against the list-3 bound and fails."""
    assert _on_cut_verdicts(_X0 - 0.5e-9, _X0) == (False, False)


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
def test_check_star_matches_reference_scan_on_adversarial_cuts(
    data, omega, alpha, R, tau, l_up, x_points
):
    """The region walk against the reference scan on made-up thresholds
    from ``_draw_thresholds``."""
    cfg = TwoStageConfig(l_up=l_up, x_points=x_points)
    thresholds = _draw_thresholds(data, omega, alpha, R, tau, l_up, x_points)
    assert check_star(omega, alpha, tau, thresholds, cfg) == (
        oracles.check_star(omega, alpha, R, tau, cfg, thresholds=thresholds)
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), **_WALK_ARGS)
def test_extras_are_the_sorted_reference_probes_past_the_uniform_ones(
    data, omega, alpha, R, tau, l_up, x_points
):
    thresholds = _draw_thresholds(data, omega, alpha, R, tau, l_up, x_points)
    grid = _probe_grid(omega, alpha, tau, thresholds, x_points)
    xmax = min(omega, tau / alpha)
    assert grid[:x_points] == [xmax * k / (x_points + 1) for k in range(1, x_points + 1)]
    assert two_stage._x_extras(xmax, thresholds) == sorted(grid[x_points:])


_LHS_X = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    tau=st.floats(0.0, 1.0),
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    x1=_LHS_X,
    x2=st.one_of(_LHS_X, st.just(None)),
)
def test_float_lhs_never_rises_with_x(tau, alpha, x1, x2):
    """The fact behind the one-comparison regions of check_star; x2 = None
    draws the next float above x1."""
    if x2 is None:
        x2 = math.nextafter(x1, math.inf)
    x1, x2 = sorted((x1, x2))
    assume(x1 < x2)

    def lhs(x):
        return (tau - alpha * x) / (1.0 - alpha)

    assert lhs(x1) >= lhs(x2)


@settings(max_examples=300, deadline=None)
@given(
    xmax=st.one_of(st.floats(1e-300, 1.0), st.sampled_from((5e-324, 1e-320, 0.5, 1.0))),
    nx=st.integers(8, 300),
    data=st.data(),
)
def test_first_uniform_probe_matches_a_linear_scan(xmax, nx, data):
    probes = [xmax * k / (nx + 1) for k in range(1, nx + 1)]
    on = data.draw(st.sampled_from(probes))
    low = data.draw(
        st.one_of(
            st.floats(-1.0, 2.0),
            st.sampled_from((on, math.nextafter(on, -1.0), math.nextafter(on, 2.0))),
            st.sampled_from((-math.inf, 0.0, xmax)),
        )
    )
    scan = next((k for k, x in enumerate(probes, start=1) if x > low), nx + 1)
    assert two_stage._first_uniform_above(low, xmax, nx) == scan


@settings(max_examples=150, deadline=None)
@given(data=st.data(), made_up=st.booleans(), **_WALK_ARGS)
def test_r2_reads_the_tail_in_order_and_stops_at_the_first_failure(
    data, made_up, omega, alpha, R, tau, l_up, x_points
):
    """r2 is called at exactly the probes that the sorted reference grid
    reaches past the largest cut: none when a graded probe fails, else
    each tail probe in ascending order, a repeated probe as often as the
    grid repeats it, up to and including the first failing one."""
    cfg = TwoStageConfig(l_up=l_up, x_points=x_points)
    tol = two_stage.BOUNDARY_TOL
    if made_up:
        thresholds = _draw_thresholds(data, omega, alpha, R, tau, l_up, x_points)
    else:
        thresholds = _lists(R, omega, l_up)
    real_r2, xs = two_stage.r2, []

    def spy(alpha, x, *args, **kwargs):
        xs.append(x)
        return real_r2(alpha, x, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(two_stage, "r2", spy)
        ok = check_star(omega, alpha, tau, thresholds, cfg)

    def lhs(x):
        return (tau - alpha * x) / (1.0 - alpha)

    cuts = [thr - tol for thr in thresholds]
    graded_fails = False
    want, tail_fails = [], False
    for x in sorted(_probe_grid(omega, alpha, tau, thresholds, x_points)):
        grade = next((L for L, cut in enumerate(cuts, start=1) if x <= cut), None)
        if grade is None:
            want.append(x)
            rate = real_r2(alpha, x, omega, thresholds[0])
            if two_stage._gv_fails(lhs(x) + tol, rate):
                tail_fails = True
                break
        elif grade > 1 and lhs(x) > float(tau_of_L(grade)) - tol:
            graded_fails = True
            break
    assert xs == want
    assert ok == (not graded_fails and not tail_fails)
    event("graded failure" if graded_fails else "tail failure" if tail_fails else "pass")


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
    assert two_stage._gv_fails(t, rate) == (t > bound)


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
    assert two_stage._gv_fails(t, rate) == (t > oracles.tau_star(rate, 1, 0.5))


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


def test_a_nan_or_negative_list1_threshold_is_refused():
    # r2 reads no rate; a list-1 threshold is a value of tau_star, >= 0
    for list1_tau in (math.nan, -1e-300, -math.inf):
        with pytest.raises(ValueError, match="list-1 threshold"):
            r2(0.5, 0.3, 0.6, list1_tau)


@pytest.mark.parametrize("R", [1.0, 1.5, math.inf])
def test_a_rate_of_one_or_more_reads_zero_thresholds(R):
    # no root lies there, so the reference reads 0 at every list size,
    # and check_star on those zeros gives the reference's verdict at R
    cfg = TwoStageConfig(l_up=3)
    for omega in (0.5, 0.3):
        zeros = [oracles.tau_star(R, L, omega) for L in range(1, 4)]
        assert zeros == [0.0] * 3
        for tau in (0.05, 0.3):
            assert check_star(omega, 0.3, tau, zeros, cfg) == oracles.check_star(
                omega, 0.3, R, tau, cfg
            )


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
    x_points=st.integers(8, 40),
    taus=st.lists(st.floats(0.0, 0.6, exclude_max=True), min_size=1, max_size=6),
    repeat=st.integers(0, 5),
)
def test_curve_equals_heap_scan_on_small_configs(
    l_up, omega_points, alpha_points, ladder, x_points, taus, repeat
):
    cfg = TwoStageConfig(
        l_up=l_up,
        omega_points=omega_points,
        alpha_points=alpha_points,
        rate_ladder=tuple(ladder),
        x_points=x_points,
    )
    # tau 0 and one repeated tau in every walk
    taus = sorted([0.0, *taus, taus[repeat % len(taus)]])
    got = [p.rate for p in two_stage_curve(taus, cfg)]
    # each heap scan reads the thresholds of the reference lanes, solved
    # once for the whole grid, and the curve's own table holds their bits
    pairs = _grid_pairs(cfg)
    table = _reference_table(pairs, l_up)
    lists = rate_bounds.tau_star_lists(pairs, l_up)
    hexes = lambda values: [t.hex() for t in values]
    assert [hexes(lists(*p)) for p in pairs] == [hexes(table[p]) for p in pairs]
    assert got == [oracles.two_stage_rate(t, cfg, _lookup(table)) for t in taus]


def test_curve_never_rechecks_a_failed_rung_or_a_dead_pair(monkeypatch):
    cfg = TwoStageConfig(l_up=6, omega_points=8, alpha_points=8, x_points=40)
    real, real_lists = two_stage.check_star, two_stage.tau_star_lists
    rungs, calls = [], []

    def lists(pairs, l_up):
        # the curve looks up a rung's thresholds just before it checks them
        table = real_lists(pairs, l_up)

        def lookup(R, om):
            rungs.append(R)
            return table(R, om)

        return lookup

    def spy(om, al, tau, thresholds, cfg):
        ok = real(om, al, tau, thresholds, cfg)
        calls.append((om, al, rungs[-1], ok))
        return ok

    monkeypatch.setattr(two_stage, "tau_star_lists", lists)
    monkeypatch.setattr(two_stage, "check_star", spy)
    curve = two_stage_curve([0.1, 0.2, 0.3, 0.3, 0.4, 0.45], cfg)
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
    x_points=st.sampled_from((8, 40, 140)),
)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), **_MONOTONE_ARGS)
def test_check_star_failure_persists_up_the_ladder(
    data, omega, alpha, rung, tau, l_up, x_points
):
    """The fact behind the bottom-rung kill: a pair that fails at one rate
    fails at every larger rate of the ladder."""
    cfg = TwoStageConfig(l_up=l_up, x_points=x_points)
    R, higher = _LADDER[rung], _LADDER[data.draw(st.integers(rung + 1, len(_LADDER) - 1))]

    def ok(R):
        return oracles.check_star(
            omega, alpha, R, tau, cfg, thresholds=_lists(R, omega, l_up)
        )

    assert ok(R) or not ok(higher)


@settings(max_examples=100, deadline=None)
@given(larger=st.floats(0.001, 0.6), **_MONOTONE_ARGS)
def test_check_star_failure_persists_at_larger_tau(
    larger, omega, alpha, rung, tau, l_up, x_points
):
    """The fact behind the tau walk: a rung that fails at one tau fails at
    every larger tau."""
    cfg = TwoStageConfig(l_up=l_up, x_points=x_points)
    R = _LADDER[rung]
    thresholds = _lists(R, omega, l_up)
    lo, hi = sorted((tau, larger))
    assert oracles.check_star(omega, alpha, R, lo, cfg, thresholds=thresholds) or not (
        oracles.check_star(omega, alpha, R, hi, cfg, thresholds=thresholds)
    )


def test_rate_bracketing_small_config():
    cfg = TwoStageConfig(
        l_up=6,
        omega_points=24,
        alpha_points=24,
        x_points=80,
    )
    assert two_stage_rate(0.42, cfg) > 0
    assert two_stage_rate(0.46, cfg) == 0.0


def test_rate_at_zero_error():
    cfg = TwoStageConfig(l_up=3, omega_points=12, alpha_points=12, x_points=30)
    v = two_stage_rate(0.0, cfg)
    assert v > 0.8


def test_rate_beats_reference_at_moderate_error():
    from zchannel.rate_bounds import gv_rate

    cfg = TwoStageConfig(l_up=8, omega_points=32, alpha_points=32, x_points=100)
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
    table = rate_bounds.tau_star_lists(pairs, 17)
    return [[t.hex() for t in table(*pair)] for pair in pairs]


def _reference_lists(pairs):
    reference = _default_reference()
    return [[t.hex() for t in reference[pair]] for pair in pairs]


def test_grid_thresholds_equal_the_reference_bisection():
    pairs = _grid_pairs(DEFAULT_CONFIG)
    assert len(pairs) == 857
    assert _lane_lists(pairs) == _reference_lists(pairs)


def test_grid_thresholds_do_not_depend_on_the_batch_or_the_estimate(monkeypatch):
    # one lane per batch; then no Newton estimate, so every lane replays
    # the plain bisection.  On the default grid's pairs at the omegas
    # pinned near the zero-rate point
    pairs = [p for p in _grid_pairs(DEFAULT_CONFIG) if p[1] in two_stage.OMEGA_EXTRAS]
    want = _reference_lists(pairs)
    with monkeypatch.context() as patch:
        patch.setattr(rate_bounds, "_LANE_BUDGET", 1)
        assert _lane_lists(pairs) == want
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
