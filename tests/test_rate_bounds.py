import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from zchannel import rate_bounds
from zchannel.rate_bounds import (
    bassalygo_size_bound,
    binary_entropy,
    gv_rate,
    levenshtein_rate_bound,
    list_plotkin_holds,
    mrrw_rate,
    plotkin_symmetric_size,
    rcb_delta,
    rcb_g,
    rcb_lower_curve,
    tau_star,
    tau_star_info,
    w0,
    zplotkin_size_bound,
)

import oracles
from oracles import direct_exponent


# ---------------------------------------------------------------------------
# closed forms


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(0.2) - 0.7219280948873623) < 1e-15


@pytest.mark.parametrize("p", [math.nan, -1e-300, math.nextafter(1.0, 2.0), math.inf])
def test_binary_entropy_refuses_a_probability_outside_the_unit_interval(p):
    with pytest.raises(ValueError):
        binary_entropy(p)


def test_critical_weight():
    assert w0(16, 4) == 8.0
    assert w0(100, 0) == 0.0
    assert w0(100, 16) == 20.0
    with pytest.raises(ValueError):
        w0(15, 4)


@pytest.mark.parametrize("n, t", [(math.nan, 1), (16, math.nan), (-math.inf, 0)])
def test_critical_weight_refuses_nan(n, t):
    with pytest.raises(ValueError):
        w0(n, t)


def test_size_bound_constant_weight():
    assert bassalygo_size_bound(16, 6, 4) == 16
    assert bassalygo_size_bound(100, 19, 16) == 26
    assert bassalygo_size_bound(100, 17, 16) == 8
    # at the critical weight the denominator vanishes
    with pytest.raises(ValueError):
        bassalygo_size_bound(16, 8, 4)
    with pytest.raises(ValueError):
        bassalygo_size_bound(16, 4, 4)


def test_size_bound_symmetric_corollary():
    assert plotkin_symmetric_size(0.25) == 2
    assert plotkin_symmetric_size(0.01) == 26
    with pytest.raises(ValueError):
        plotkin_symmetric_size(0.0)


def test_zero_one_channel_size_bound():
    assert zplotkin_size_bound(1 / 12) == pytest.approx(40.0, abs=1e-12)
    assert zplotkin_size_bound(1 / 3) == pytest.approx(10.5, abs=1e-12)
    assert zplotkin_size_bound(0.01) > zplotkin_size_bound(0.02)
    with pytest.raises(ValueError):
        zplotkin_size_bound(0.0)
    with pytest.raises(ValueError):
        zplotkin_size_bound(0.8)


def test_rate_gap_bound():
    assert levenshtein_rate_bound(0.5, 0.25) == 0.0
    w0frac = (1 - math.sqrt(1 - 4 * 0.15)) / 2
    assert levenshtein_rate_bound(w0frac, 0.15) == pytest.approx(0.0, abs=1e-12)
    assert levenshtein_rate_bound(0.4, 0.15) == pytest.approx(
        0.28269047612774534, abs=1e-13
    )
    with pytest.raises(ValueError):
        levenshtein_rate_bound(0.6, 0.15)
    with pytest.raises(ValueError):
        levenshtein_rate_bound(0.1, 0.15)  # below the critical fraction
    with pytest.raises(ValueError):
        levenshtein_rate_bound(0.4, 0.3)


def test_rate_gap_bound_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    h = lambda x: -x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2)
    wstar = (1 - mp.sqrt(1 - mp.mpf("0.6"))) / 2
    want = h(mp.mpf("0.4")) - h(wstar)
    got = levenshtein_rate_bound(0.4, 0.15)
    assert abs(got - float(want)) < 1e-14


def test_finite_size_list_bound():
    # threshold-free region
    assert list_plotkin_holds(3, 1, 0.5, 0.2)
    # binding region: holds up to six words, fails at seven
    assert list_plotkin_holds(6, 1, 0.5, 0.3)
    assert not list_plotkin_holds(7, 1, 0.5, 0.3)
    with pytest.raises(ValueError):
        list_plotkin_holds(1, 1, 0.5, 0.3)


def test_finite_size_list_bound_refuses_a_nan_fraction():
    # both comparisons are false for NaN, which once read as "fails"
    with pytest.raises(ValueError):
        list_plotkin_holds(4, 2, 0.5, math.nan)


# ---------------------------------------------------------------------------
# exponent machinery


def test_exponent_at_zero_tilt():
    for L in (1, 3, 10):
        for omega in (0.1, 0.5, 0.9):
            assert rcb_g(0.0, L, omega) == pytest.approx(0.0, abs=1e-14)
            assert rcb_delta(0.0, L, omega) == pytest.approx(
                omega - omega ** (L + 1), abs=1e-14
            )


def test_exponent_matches_direct_summation():
    for L in (1, 2, 7):
        for omega in (0.2, 0.5, 0.66):
            for h in (0.0, 0.3, 1.7, 8.0):
                g_ref, d_ref = direct_exponent(h, L, omega)
                assert rcb_g(h, L, omega) == pytest.approx(g_ref, abs=1e-12)
                assert rcb_delta(h, L, omega) == pytest.approx(d_ref, abs=1e-12)


def test_radius_statistic_closed_form_single_list():
    # with one comparison word and a fair coin the sums collapse
    for h in (0.0, 0.5, 2.0):
        e = 0.5 + math.exp(-h / 2) / 2
        assert rcb_g(h, 1, 0.5) == pytest.approx(-math.log(e), abs=1e-14)
        assert rcb_delta(h, 1, 0.5) == pytest.approx(
            math.exp(-h / 2) / (4 * e), abs=1e-14
        )


def test_tilted_rate_point_values():
    assert tau_star(0.0, 1, 0.5) == 0.25
    assert tau_star(0.5, 1, 0.5) == pytest.approx(0.0550139322188, abs=1e-9)
    assert tau_star(0.05, 1, 0.6) == pytest.approx(0.1748493650108, abs=1e-9)


def test_tilted_rate_infeasible_region():
    # rate demands beyond the exponent ceiling yield zero with the flag set
    ceiling = -math.log(0.5**2 + 0.5**2) / math.log(2)
    res = tau_star_info(ceiling + 0.01, 1, 0.5)
    assert res.value == 0.0
    assert not res.feasible
    ok = tau_star_info(0.3, 1, 0.5)
    assert ok.feasible
    assert ok.value > 0


_OMEGAS = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 2e-12),  # snaps to 0 below 1e-12
    st.floats(1.0 - 2e-12, 1.0),  # snaps to 1 above 1 - 1e-12
)


@settings(max_examples=300, deadline=None)
@given(
    R=st.one_of(st.just(0.0), st.floats(0.0, 0.01), st.floats(0.0, 1.5)),
    L=st.integers(1, 17),
    omega=_OMEGAS,
)
@example(R=0.0, L=3, omega=0.4)
@example(R=1.0, L=1, omega=0.5)  # target R ln2 equals the ceiling ln2
@example(R=1.2, L=4, omega=0.3)  # above the ceiling
@example(R=0.1, L=2, omega=1e-13)
@example(R=0.0, L=2, omega=1.0 - 1e-13)
@example(R=0.9, L=17, omega=0.5)  # bracket doubles up to h = 128
@example(R=0.3, L=1, omega=0.5)
# targets within 1e-12 of the ceiling, where phi is nearly flat
@example(R=0.9999999999987017, L=1, omega=0.5)
@example(R=0.9999999999999236, L=17, omega=0.5)
# the largest tilts there are: one ulp below the ceiling, h = 80 and 710.
# Float phi equals the ceiling once every e^(-hk/(L+1)) is below half an
# ulp of the constant, so no root lies near 2**20 or beyond
@example(R=0.9999999999999999, L=1, omega=0.5)
@example(R=0.9999999999999999, L=17, omega=0.5)
# just inside the snap limits 1e-12 and 1 - 1e-12
@example(R=1e-12, L=1, omega=1.0000000000000002e-12)
@example(R=2e-13, L=17, omega=1.5e-12)
@example(R=1e-13, L=17, omega=0.9999999999989)
@example(R=1e-13, L=1, omega=0.9999999999989)
# the target equals float phi at a bisection midpoint (h = 3 and 2.5)
@example(R=0.3146454648945901, L=1, omega=0.5)
@example(R=0.07588864687147948, L=3, omega=0.4)
# targets in the last-bit window between numpy's ceiling and libm's
@example(R=0.0027158559967405626, L=1, omega=0.9990587554798158)
@example(R=0.005411895943823569, L=3, omega=0.9971905236591844)
def test_tau_star_info_matches_reference_bisection_bit_for_bit(R, L, omega):
    assert _bits(tau_star_info(R, L, omega)) == _reference_bits(R, L, omega)


def _bits(res):
    return res.value.hex(), res.feasible, res.tilt.hex()


def _reference_bits(R, L, omega):
    value, feasible, tilt = oracles.tau_star_info(R, L, omega)
    return value.hex(), feasible, tilt.hex()


# Targets within an ulp of the ceiling -ln(omega^(L+1) + (1-omega)^(L+1)),
# where numpy's pow and log and libm's differ in the last bit (numpy
# 2.4.6, x86-64).  The kernel's own ceiling decides whether a root exists,
# as in the grid argmax: the first target lies at or past it, although
# libm's ceiling lies above the target; the second lies below it, although
# libm's ceiling does not
_CEILING_WINDOW = [
    ((0.0027158559967405626, 1, 0.9990587554798158), False),
    ((0.005411895943823569, 3, 0.9971905236591844), True),
]


@pytest.mark.parametrize("lane, has_root", _CEILING_WINDOW)
def test_the_kernel_ceiling_decides_whether_a_root_exists(lane, has_root):
    R, L, omega = lane
    assert _inside_ceiling(R, L, omega) == has_root
    info = tau_star_info(R, L, omega)
    assert info.feasible == has_root
    if has_root:
        assert info.value == pytest.approx(2.36e-20, rel=1e-2)
        assert info.tilt == pytest.approx(110.31, abs=0.01)
    else:
        assert (info.value, info.tilt) == (0.0, math.inf)
    lists = rate_bounds.tau_star_lists([(R, omega)], L)(R, omega)
    assert lists[L - 1].hex() == info.value.hex()


def _mp_root(R, L, omega, guess):
    """The root tilt and g' there of phi(h) = R L ln2, the float target,
    in 50-digit mpmath; ``guess`` is a float tilt near the root."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        om, target = mp.mpf(omega), mp.mpf(R * L * rate_bounds.LN2)
        const = om ** (L + 1) + (1 - om) ** (L + 1)
        p = [om**i * (1 - om) ** (L + 1 - i) for i in range(1, L + 1)]
        g = [mp.binomial(L + 1, i) * pi for i, pi in enumerate(p, 1)]
        d = [mp.binomial(L, i - 1) * pi for i, pi in enumerate(p, 1)]

        def slope_and_phi(h):
            w = [mp.exp(-h * i / (L + 1)) for i in range(1, L + 1)]
            e = const + mp.fsum(gi * wi for gi, wi in zip(g, w))
            slope = mp.fsum(di * wi for di, wi in zip(d, w)) / e
            return slope, -mp.log(e) - h * slope - target

        lo, hi = mp.mpf(guess) / 2, 2 * mp.mpf(guess) + 1
        assert slope_and_phi(hi)[1] > 0 > slope_and_phi(lo)[1]
        for _ in range(110):  # to about 1e-33 of the root, phi rising
            mid = (lo + hi) / 2
            if slope_and_phi(mid)[1] < 0:
                lo = mid
            else:
                hi = mid
        return float(lo), float(slope_and_phi(lo)[0])


@settings(max_examples=60, deadline=None)
@given(
    R=st.one_of(st.floats(1e-6, 1.0), st.floats(1e-16, 1e-6)),
    L=st.integers(1, 17),
    omega=st.floats(0.01, 0.99),
)
@example(R=7.05253990191042e-16, L=1, omega=0.5)  # -log(e) and h g' cancel
@example(R=0.9999999999999236, L=17, omega=0.5)  # within 1e-12 of the ceiling
@example(R=0.3, L=3, omega=0.4)
def test_the_two_reference_kernels_agree_within_their_rounding_bound(R, L, omega):
    # numpy's kernel and the libm kernel (math.exp and fsum) give the same
    # bisection different floats; both land within the same bound of the
    # 50-digit root, and so within it of each other.  Float phi is within
    # b = 2 (1 + 2c) (L + 2h + 19) u of exact for either kernel (see
    # _tau_star_argmax), so its crossing lies near the root, and moving
    # the tilt moves g' by at most b/h per unit of phi error, however flat
    # phi is there.  The bisection's final width adds 1e-10/4 and the float
    # slope 64 (L + h + 16) u
    ceiling = -math.log(omega ** (L + 1) + (1.0 - omega) ** (L + 1))
    # each reference has a root below its own kernel's ceiling, and the
    # two ceilings can differ in the last bit
    assume(R * L * rate_bounds.LN2 < min(ceiling, _ceiling(L, omega)))
    numpy_value, numpy_ok, numpy_tilt = oracles.tau_star_info(R, L, omega)
    libm_value, libm_ok, _ = oracles.tau_star_info_libm(R, L, omega)
    assert numpy_ok and libm_ok
    tilt, value = _mp_root(R, L, omega, numpy_tilt)
    u = 2.0**-53
    b = 2.0 * (1.0 + 2.0 * ceiling) * (L + 2.0 * tilt + 19.0) * u
    bound = 1e-10 / 4.0 + 4.0 * b / tilt + 64.0 * (L + tilt + 16.0) * u
    assert abs(numpy_value - value) <= bound
    assert abs(libm_value - value) <= bound
    assert abs(numpy_value - libm_value) <= bound


_RATES = st.one_of(st.floats(0.0, 0.01), st.floats(0.0, 1.5), st.floats(0.0, 1e-12))


def _ceiling(L, omega):
    """The kernel's ceiling: numpy's -log of the constant of ``_lane_terms``."""
    const = rate_bounds._lane_terms(L, np.array([omega]))[0]
    return float(-np.log(const)[0])


def _inside_ceiling(R, L, omega):
    return R > 0.0 and R * L * rate_bounds.LN2 < _ceiling(L, omega)


@st.composite
def _lanes_with_a_root(draw):
    """(R, L, omega) with R > 0 and R L ln2 below the lane's ceiling:
    omega from _OMEGAS less the values that snap to 0 or 1, whose ceiling
    is 0, and R from (0, 0.01], (0, 1.5] or (0, 1e-12], each cut at the
    largest float rate inside the ceiling, so every draw has a root, or
    from within 1e-12 of that rate, where phi is nearly flat."""
    L = draw(st.integers(1, 17))
    omega = draw(
        st.one_of(
            st.floats(1e-12, 1.0 - 1e-12, exclude_min=True, exclude_max=True),
            st.floats(1e-12, 2e-12, exclude_min=True),
            st.floats(1.0 - 2e-12, 1.0 - 1e-12, exclude_max=True),
        )
    )
    top = _ceiling(L, omega) / (L * rate_bounds.LN2)  # within a few ulps of the cut
    while not _inside_ceiling(top, L, omega):
        top = math.nextafter(top, 0.0)
    while _inside_ceiling(math.nextafter(top, 2.0), L, omega):
        top = math.nextafter(top, 2.0)
    R = draw(
        st.one_of(
            *(st.floats(0.0, min(cap, top), exclude_min=True) for cap in (0.01, 1.5, 1e-12)),
            st.floats(top * (1.0 - 1e-12), top),
        )
    )
    return R, L, omega


@settings(max_examples=150, deadline=None)
@given(lane=_lanes_with_a_root())
@example(lane=(0.5, 3, 0.5))
@example(lane=(0.9999999999999999, 17, 0.5))
@example(lane=(0.3146454648945901, 1, 0.5))
def test_any_newton_start_gives_the_reference_bits(lane):
    # a lane's start only places its certified ends; the scalar replay
    # between them never moves a bit
    R, L, omega = lane
    assert _inside_ceiling(R, L, omega)
    target = R * L * rate_bounds.LN2
    want = _reference_bits(R, L, omega)
    tilt = oracles.tau_star_info(R, L, omega)[2]
    starts = np.array([
        0.0, 5e-324, 2.0**21, 2.0**70, math.inf, math.nan,
        math.nextafter(tilt, 0.0), tilt, math.nextafter(tilt, math.inf),
    ])
    lanes = rate_bounds._lane_terms(L, np.full(len(starts), omega))
    targets = np.full(len(starts), target)
    a, b, _, _ = rate_bounds._lane_bounds(L, *lanes, targets, starts)
    values, tilts, _ = rate_bounds._bisect(L, lanes, targets, a, b)
    for value, tilt in zip(values.tolist(), tilts.tolist()):
        assert (value.hex(), True, tilt.hex()) == want


def _newton_rows(h, dphi):
    """A stand-in for the lane Newton: every lane's estimate at h, with
    slope dphi and a last step of 0; NaN gives no estimate at all."""

    def rows(*args):
        n = len(args[-1])
        return np.array([np.full(n, h), np.full(n, dphi), np.zeros(n)])

    return rows


# no estimate at all; far above the root with a steep slope (an upper end
# that certifies, a lower end that cannot); far below it (the reverse);
# just above zero with a flat slope (a bracket wider than the search)
_BAD_ESTIMATES = (
    _newton_rows(math.nan, math.nan),
    _newton_rows(1e3, 10.0),
    _newton_rows(1e-3, 10.0),
    _newton_rows(1e-9, 1e-30),
)


def _hex(values):
    return [v.hex() for v in values]


@settings(max_examples=100, deadline=None)
@given(
    R=_RATES, l_up=st.integers(1, 17), omega=_OMEGAS, bad=st.sampled_from(_BAD_ESTIMATES)
)
@example(R=0.3, l_up=1, omega=0.5, bad=_BAD_ESTIMATES[0])
@example(R=0.9, l_up=17, omega=0.5, bad=_BAD_ESTIMATES[1])
@example(R=0.3, l_up=3, omega=0.4, bad=_BAD_ESTIMATES[2])
def test_failed_certification_replays_the_reference_bisection(R, l_up, omega, bad):
    # the two-stage thresholds keep their bits when no lane certifies
    if not (R < 1.0 and 0.0 < omega < 1.0):
        with pytest.raises(ValueError):
            rate_bounds.tau_star_lists([(R, omega)], l_up)
        return
    with mock.patch.object(rate_bounds, "_lane_newton", bad):
        got = rate_bounds.tau_star_lists([(R, omega)], l_up)(R, omega)
    assert _hex(got) == _hex(oracles.tau_star(R, L, omega) for L in range(1, l_up + 1))


def test_bracket_ends_within_the_margin_are_not_certified():
    # the target is numpy float phi(3) itself; 1e-13 either side, phi is
    # off it by about 1e-14, less than the margin (about 1.2e-13), so the
    # bracket is not kept; 1e-6 either side, both ends are
    L = 1
    lanes = rate_bounds._lane_terms(L, np.array([0.5]))
    e, num = rate_bounds._lane_kernel(np.array([3.0]), L, *lanes)
    target = -np.log(e) - 3.0 * (num / e)

    def bracket(half_width):
        # a flat-out slope leaves the half-width 2 step^2 / (1 + h)
        step = math.sqrt(2.0 * half_width)
        rows = lambda *args: np.array([[3.0], [1e300], [step]])
        with mock.patch.object(rate_bounds, "_lane_newton", rows):
            a, b, _, _ = rate_bounds._lane_bounds(L, *lanes, target, np.array([math.nan]))
        return a[0], b[0]

    assert bracket(1e-13) == (-math.inf, math.inf)
    lo, hi = bracket(1e-6)
    assert lo == pytest.approx(3.0 - 1e-6, abs=1e-12)
    assert hi == pytest.approx(3.0 + 1e-6, abs=1e-12)


def test_certified_bracket_skips_the_kernel_away_from_the_root(monkeypatch):
    # the reference makes 42 kernel evaluations here; from the lane ends
    # only those inside them and the final read remain
    R, L, omega = 0.3, 3, 0.4
    lanes = rate_bounds._lane_terms(L, np.array([omega]))
    target = np.array([R * L * rate_bounds.LN2])
    a, b, _, _ = rate_bounds._lane_bounds(L, *lanes, target, np.array([math.nan]))
    assert math.isfinite(a[0]) and math.isfinite(b[0])
    real, calls = rate_bounds._lane_kernel, []

    def count(h, *args):
        calls.extend(h.tolist())
        return real(h, *args)

    monkeypatch.setattr(rate_bounds, "_lane_kernel", count)
    value, tilt, _ = rate_bounds._bisect(L, lanes, target, a, b)
    assert (value[0].hex(), True, tilt[0].hex()) == _reference_bits(R, L, omega)
    assert len(calls) <= 8
    assert all(abs(h - tilt[0]) < 1e-8 for h in calls)


def _free_tilt(L, omega, target):
    """The reference walk's tilt with no test skipped, inf if infeasible."""
    terms = oracles._lane_terms(L, np.array([omega]))
    free = np.array([math.inf])
    return float(oracles.bisect_with_skips(L, terms, np.array([target]), -free, free)[1][0])


@st.composite
def _skip_ends(draw, root):
    """A skip end: +-inf, a power of two, a point below 1, a point just
    below or above 2^18, or, around the free root where there is one, a
    test point of the walk (a multiple of 2^-k, k <= 34) or a point
    within 1e-6.  Every finite end lies below 2^19, past which the walk
    never ends."""
    kinds = [
        st.sampled_from([-math.inf, math.inf]),
        st.integers(-40, 18).map(lambda j: 2.0**j),
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(2.0**18 - 1.0, 2.0**18 + 1.0),
    ]
    if math.isfinite(root):
        kinds += [
            st.builds(
                lambda k, up: (math.ceil if up else math.floor)(root * 2.0**k) / 2.0**k,
                st.integers(0, 34),
                st.booleans(),
            ),
            st.floats(-1e-6, 1e-6).map(lambda d: max(root + d, 0.0)),
        ]
    return draw(st.one_of(*kinds))


@st.composite
def _skip_lanes(draw):
    """(L, [(omega, target, lo_skip, hi_skip)]): targets up to 1.5 times
    the lane's ceiling, so some are infeasible, and lo_skip <= hi_skip."""
    L = draw(st.integers(1, 17))
    lanes = []
    for _ in range(draw(st.integers(1, 3))):
        omega = draw(st.floats(0.01, 0.99))
        target = draw(st.floats(0.0, 1.5)) * _ceiling(L, omega)
        root = _free_tilt(L, omega, target)
        a, b = sorted([draw(_skip_ends(root)), draw(_skip_ends(root))])
        lanes.append((omega, target, a, b))
    return L, lanes


_BIG_TARGET = 0.9999999999999999 * 17 * rate_bounds.LN2  # tilt 709.749...


@settings(max_examples=200, deadline=None)
@given(case=_skip_lanes())
@example(case=(17, [(0.5, _BIG_TARGET, -math.inf, math.inf)]))
@example(case=(17, [(0.5, _BIG_TARGET, 709.7, 709.8), (0.5, _BIG_TARGET, 512.0, math.inf)]))
# an end exactly on a test point: the walk's final cell's ends, and h = 3
@example(case=(1, [(0.5, 0.21809561686765838, 3.0 - 2.0**-34, 3.0)]))
@example(case=(1, [(0.5, 0.21809561686765838, 2.5, 3.0 + 2.0**-33)]))
@example(case=(3, [(0.4, 0.6238324625039507, 0.25, 8.0), (0.4, 0.6238324625039507, 4.0, 6.0)]))
# a bracket past 2^18: every test up to the lower end reads below
@example(case=(3, [(0.4, 0.6238324625039507, 2.0**18 + 0.3, math.inf)]))
@example(case=(3, [(0.4, 0.6238324625039507, 2.0**18, 2.0**18 + 2.0**-30)]))
# infeasible: no end, then an upper end that stops the doubling
@example(case=(1, [(0.5, 1.2 * math.log(2.0), -math.inf, math.inf)]))
@example(case=(1, [(0.5, 1.2 * math.log(2.0), 0.5, 9.0)]))
@example(case=(2, [(0.3, 0.1, math.inf, math.inf)]))
def test_bisect_takes_the_reference_walks_tests_and_bits(case):
    # the closed-form jump evaluates the kernel at exactly the tests the
    # level walk evaluates, and returns its (value, tilt) bits
    L, lanes = case
    omegas, targets, a, b = (np.array(column) for column in zip(*lanes))
    terms = rate_bounds._lane_terms(L, omegas)

    def recorded(kernel, calls):
        def run(h, L, const, *rest):
            calls.extend(zip(const.tolist(), h.tolist()))
            return kernel(h, L, const, *rest)

        return run

    want_calls, got_calls = [], []
    with mock.patch.object(oracles, "e_and_num", recorded(oracles.e_and_num, want_calls)):
        want = oracles.bisect_with_skips(L, terms, targets, a, b)
    kernel = recorded(rate_bounds._lane_kernel, got_calls)
    with mock.patch.object(rate_bounds, "_lane_kernel", kernel):
        got = rate_bounds._bisect(L, terms, targets, a, b)
    assert _hex(got[0]) == _hex(want[0])
    assert _hex(got[1]) == _hex(want[1])
    assert sorted(got_calls) == sorted(want_calls)


def test_bisect_refuses_a_bracket_the_walk_never_closes():
    # above 2^19 floats are 2^-33 apart, wider than the 1e-10 stop, so the
    # level walk would halve forever; there is no root up there
    L = 3
    terms = rate_bounds._lane_terms(L, np.array([0.4]))
    with pytest.raises(ArithmeticError):
        rate_bounds._bisect(L, terms, np.array([0.6]), np.array([2.0**19]), np.array([math.inf]))


def test_bisect_takes_few_rounds_per_call_on_a_certified_grid(monkeypatch):
    # grid 100, L = 3: every bisection call has certified ends; measured
    # at most 6 rounds a call and 231 in all over 47 calls (5 rate groups
    # and 42 polish rounds), where the level walk takes about 45 a call.
    # Slack: 2 rounds a call, 8% in all
    real, rounds = rate_bounds._bisect, []

    def spy(L, terms, target, lo_skip, hi_skip):
        assert np.isfinite(lo_skip).all() and np.isfinite(hi_skip).all()
        out = real(L, terms, target, lo_skip, hi_skip)
        rounds.append(out[2])
        return out

    monkeypatch.setattr(rate_bounds, "_bisect", spy)
    counts = rcb_lower_curve(3, r_points=100, omega_points=100).counts
    assert counts["bisect_rounds"] == sum(rounds)
    assert max(rounds) <= 8
    assert sum(rounds) <= 250


@pytest.mark.parametrize(
    "pair",
    [
        (math.nan, 0.5),
        (-0.1, 0.5),
        (-5e-324, 0.5),
        (1.0, 0.5),
        (math.inf, 0.5),
        (0.3, math.nan),
        (0.3, 0.0),
        (0.3, 1.0),
        (0.3, -0.1),
    ],
)
def test_threshold_lists_refuse_a_pair_before_any_work(monkeypatch, pair):
    def refuse(*args):
        raise AssertionError("a root was certified")

    monkeypatch.setattr(rate_bounds, "_lane_points", refuse)
    with pytest.raises(ValueError):
        rate_bounds.tau_star_lists([(0.3, 0.5), pair], 3)


def test_tau_star_rejects_a_nan_rate_or_tilt():
    with pytest.raises(ValueError):
        tau_star_info(math.nan, 1, 0.5)
    with pytest.raises(ValueError):
        tau_star(math.nan, 3, 0.4)
    with pytest.raises(ValueError):
        rcb_g(math.nan, 1, 0.5)
    with pytest.raises(ValueError):
        rcb_delta(math.nan, 1, 0.5)


@settings(max_examples=200, deadline=None)
@given(h=st.floats(0.0, 200.0), L=st.integers(1, 17), omega=_OMEGAS)
def test_exponent_kernel_matches_reference_bit_for_bit(h, L, omega):
    omega_ref = oracles._snap_omega(omega)
    terms = oracles._lane_terms(L, np.array([omega_ref]))
    e, num = oracles.e_and_num(np.array([h]), L, *terms)
    assert rcb_g(h, L, omega).hex() == float(-np.log(e[0])).hex()
    if h > 0.0:
        assert rcb_delta(h, L, omega).hex() == float(num[0] / e[0]).hex()


@settings(max_examples=500, deadline=None)
@given(
    h1=st.one_of(st.just(0.0), st.floats(0.0, 200.0)),
    step=st.one_of(st.just(0.0), st.floats(0.0, 1e-9), st.floats(0.0, 200.0)),
    L=st.integers(1, 40),
    omega=_OMEGAS,
)
@example(h1=12.403261407880484, step=0.0, L=12, omega=0.4354042810726554)
@example(h1=0.0, step=0.0, L=12, omega=0.9999999991408913)
def test_slope_falls_as_the_tilt_grows(h1, step, L, omega):
    # the exact slope g'(h) falls as h grows, which lets a lane's bracket
    # bound its final value.  Each float evaluation is within a few units
    # in the last place, so between adjacent tilts it can rise by up to 3
    # ulps (the first example); at h = 0 the closed form
    # omega - omega^(L+1) cancels for omega near 1 and is exact only to
    # about 2**-52 absolute (the second)
    h2 = max(h1 + step, math.nextafter(h1, math.inf))
    lo, hi = rcb_delta(h1, L, omega), rcb_delta(h2, L, omega)
    slack = 2.0**-50 if h1 == 0.0 else 8 * math.ulp(lo)
    assert hi <= lo + slack


def test_tilted_rate_monotone_in_rate():
    prev = None
    for r in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9):
        v = tau_star(r, 1, 0.5)
        if prev is not None:
            assert v < prev
        prev = v


def test_tilted_rate_omega_snap():
    assert tau_star(0.1, 2, 0.0) == 0.0
    assert tau_star(0.1, 2, 1.0) == 0.0


# ---------------------------------------------------------------------------
# curves


def test_reference_curve_endpoints():
    assert gv_rate(0.25) == pytest.approx(0.0, abs=1e-12)
    assert gv_rate(0.1) == pytest.approx(0.2780719051126377, abs=1e-12)
    assert mrrw_rate(0.25) == pytest.approx(0.0, abs=1e-12)
    assert mrrw_rate(0.05) == pytest.approx(0.7219280948873623, abs=1e-12)
    taus = [0.25 * k / 50 for k in range(1, 51)]
    assert gv_rate(taus[0]) > gv_rate(taus[-1])
    for t in taus:
        assert mrrw_rate(t) >= gv_rate(t) - 1e-12


def test_lower_curve_small_grid_shape():
    curve = rcb_lower_curve(1, r_points=80, omega_points=120)
    assert curve.kind == "list-1 achievable"
    assert all(b > a for a, b in zip(curve.taus, curve.taus[1:]))
    assert all(b < a for a, b in zip(curve.rates, curve.rates[1:]))
    # small error fractions leave most of the rate available
    assert curve.rates[0] > 0.9
    assert curve.taus[-1] < 0.25
    assert curve.taus[-1] > 0.2


def test_lower_curve_list_ten_extends_past_quarter():
    curve = rcb_lower_curve(10, r_points=60, omega_points=80)
    assert curve.taus[-1] > 0.25
    # the zero-rate endpoint approaches the unconstrained radius maximum
    omega_star = (1 / 11) ** 0.1
    assert abs(omega_star - 0.7867934421967723) < 1e-12
    limit = rcb_delta(0.0, 10, omega_star)
    assert abs(limit - 0.7152667656334293) < 1e-12
    assert curve.taus[-1] < limit


def _curve_bits(curve):
    return [t.hex() for t in curve.taus], curve.rates


def _reference_curve_bits(L, r_points, omega_points):
    taus, rates = oracles.rcb_lower_curve(L, r_points, omega_points)
    return [t.hex() for t in taus], rates


def test_lower_curve_equals_the_curve_on_the_reference_kernel():
    # a grid no golden file pins, against the scalar polish on the
    # reference bisection, one probe at a time
    for L in (1, 3, 17):
        got = rcb_lower_curve(L, r_points=37, omega_points=37)
        assert _curve_bits(got) == _reference_curve_bits(L, 37, 37)


@settings(max_examples=12, deadline=None)
@given(L=st.integers(1, 17), r_points=st.integers(2, 120), omega_points=st.integers(2, 120))
@example(L=1, r_points=2, omega_points=2)
@example(L=17, r_points=50, omega_points=3)
def test_lower_curve_equals_the_reference_curve(L, r_points, omega_points):
    got = rcb_lower_curve(L, r_points=r_points, omega_points=omega_points)
    assert _curve_bits(got) == _reference_curve_bits(L, r_points, omega_points)


def test_lower_curve_equals_the_reference_curve_on_a_full_sweep():
    got = rcb_lower_curve(3, r_points=400, omega_points=400)
    assert _curve_bits(got) == _reference_curve_bits(3, 400, 400)
    counts = got.counts
    assert counts["polish_uncertified"] == 0
    # every probe of this sweep has a root, and every root is bisected
    assert counts["polish_replays"] == counts["polish_probes"] == 400 * 42


# a budget of one lane puts one rate in each group of the grid argmax; a
# budget past every lane puts all rates in one group, every lane from a
# cold start
_BUDGETS = [pytest.param(L, 1, id=str(L)) for L in (1, 3, 17)] + [
    pytest.param(L, 1 << 30, id=f"{L}-one-group") for L in (1, 3, 17)
]


@pytest.mark.parametrize("L, budget", _BUDGETS)
def test_lower_curve_does_not_depend_on_the_batch(monkeypatch, L, budget):
    monkeypatch.setattr(rate_bounds, "_LANE_BUDGET", budget)
    got = rcb_lower_curve(L, r_points=19, omega_points=23)
    assert _curve_bits(got) == _reference_curve_bits(L, 19, 23)


def _no_estimate(*args):
    return np.full((3, len(args[-1])), np.nan)


def _no_value_bounds(real):
    def unbounded(*args):
        a, b, lower, upper = real(*args)
        return a, b, np.full_like(lower, -np.inf), np.full_like(upper, np.inf)

    return unbounded


@pytest.mark.parametrize("L", [1, 3, 17])
def test_polish_replays_every_probe_without_certified_bounds(monkeypatch, L):
    # with no Newton estimate every lane is uncertified, and with the value
    # bounds at -inf and inf no comparison is decided by them; either way
    # every probe with a root is replayed, and every tau stays the same
    want = _reference_curve_bits(L, 23, 29)
    replays = []
    for name, stub in [
        ("_lane_newton", _no_estimate),
        ("_lane_bounds", _no_value_bounds(rate_bounds._lane_bounds)),
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(rate_bounds, name, stub)
            got = rcb_lower_curve(L, r_points=23, omega_points=29)
        assert _curve_bits(got) == want
        replays.append(got.counts["polish_replays"])
        if name == "_lane_newton":
            assert got.counts["polish_uncertified"] == replays[0]
        else:
            assert got.counts["polish_uncertified"] == 0
    assert 0 < replays[0] == replays[1] <= 23 * 42


@settings(max_examples=40, deadline=None)
@given(
    R=st.floats(1e-6, 1.0),
    L=st.integers(1, 17),
    omegas=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=8),
    start=st.one_of(st.just(math.nan), st.floats(0.0, 200.0)),
)
@example(R=0.5, L=1, omegas=[0.5], start=math.nan)
def test_certified_polish_bounds_hold_the_reference_value(R, L, omegas, start):
    # each lane's value bounds take in a quarter of the bisection's final
    # width; the reference value lies inside
    target = R * L * rate_bounds.LN2
    omegas = np.array(omegas)
    lanes = rate_bounds._lane_terms(L, omegas)
    n = len(omegas)
    _, _, lower, upper = rate_bounds._lane_bounds(
        L, *lanes, np.full(n, target), np.full(n, start)
    )
    for omega, lo, hi in zip(omegas.tolist(), lower.tolist(), upper.tolist()):
        value, feasible, _ = oracles.tau_star_info(R, L, omega)
        if math.isfinite(lo):
            assert feasible
            assert lo <= value <= hi


def test_lower_curve_range_check():
    with pytest.raises(ValueError):
        rcb_lower_curve(0)
    with pytest.raises(ValueError):
        rcb_lower_curve(18)


# ---------------------------------------------------------------------------
# the omega-grid root behind rcb_lower_curve


def _grid(n):
    return np.array([k / (n + 1) for k in range(1, n + 1)])


def _reference_argmax(rates, L, omegas):
    out = []
    for R in rates:
        vals = oracles._tau_star_vec(R, L, omegas)
        best = int(np.argmax(vals))
        out.append((best, float(vals[best]).hex()))
    return out


def _argmax(rates, L, omegas):
    found, _ = rate_bounds._tau_star_argmax(rates, L, omegas)
    return [(best, value.hex()) for best, value in found]


_LANE_RATES = st.lists(
    st.one_of(
        st.floats(1e-6, 1.0),
        st.floats(1e-300, 1e-6),
        # at or past the ceiling of every lane of a grid, so every lane reads 0
        st.floats(0.9, 2.0),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(rates=_LANE_RATES, L=st.integers(1, 17), n=st.integers(2, 300))
@example(rates=[0.5, 1.0, 0.999999], L=1, n=2)
@example(rates=[0.9999999999999999, 1e-300], L=17, n=299)
def test_grid_argmax_equals_the_reference_lanes(rates, L, n):
    omegas = _grid(n)
    assert _argmax(rates, L, omegas) == _reference_argmax(rates, L, omegas)


def test_grid_argmax_equals_the_reference_lanes_on_a_full_sweep():
    omegas = _grid(400)
    rates = [k / 401 for k in range(1, 401)]
    assert _argmax(rates, 3, omegas) == _reference_argmax(rates, 3, omegas)


# no estimate at all; or Newton's own estimate moved above the root with
# a last step of 0, so the bracket's lower end lies past the root
@pytest.mark.parametrize("scale", [None, 1.5], ids=["none", "above"])
@pytest.mark.parametrize("L", [1, 3, 17])
def test_uncertified_lanes_all_replay_the_reference_bisection(monkeypatch, scale, L):
    omegas = _grid(23)
    rates = [k / 24 for k in range(1, 24)]
    real = rate_bounds._lane_newton

    def bad(*args):
        if scale is None:
            return np.full((3, len(args[-1])), np.nan)
        h, dphi, step = real(*args)
        return np.array([h * scale, dphi, np.zeros_like(step)])

    monkeypatch.setattr(rate_bounds, "_lane_newton", bad)
    assert _argmax(rates, L, omegas) == _reference_argmax(rates, L, omegas)
    _, counts = rate_bounds._tau_star_argmax(rates, L, omegas)
    assert counts["lanes"] > 0
    assert counts["lanes_replayed"] == counts["lanes_uncertified"] == counts["lanes"]


@pytest.mark.parametrize("L, budget", _BUDGETS)
def test_grid_argmax_does_not_depend_on_the_batch(monkeypatch, L, budget):
    omegas = _grid(31)
    rates = [k / 32 for k in range(1, 32)]
    want = _argmax(rates, L, omegas)
    monkeypatch.setattr(rate_bounds, "_LANE_BUDGET", budget)
    assert _argmax(rates, L, omegas) == want == _reference_argmax(rates, L, omegas)


@pytest.mark.parametrize(
    "budget, n", [(None, 100), (None, 2500), (50, 31), (50, 77), (64, 64)]
)
def test_grid_argmax_calls_hold_at_most_a_group_of_lanes(monkeypatch, budget, n):
    # a group holds at most the budget's lanes, or one rate's when a rate
    # has more; the certify and settle stages each run once per group
    if budget is not None:
        monkeypatch.setattr(rate_bounds, "_LANE_BUDGET", budget)
    cap = max(rate_bounds._LANE_BUDGET, n)
    sizes = {"_lane_bounds": [], "_bisect": []}
    for name, key in [("_lane_bounds", -1), ("_bisect", 2)]:
        real = getattr(rate_bounds, name)

        def spy(*args, real=real, key=key, calls=sizes[name]):
            calls.append(len(args[key]))
            assert calls[-1] <= cap
            return real(*args)

        monkeypatch.setattr(rate_bounds, name, spy)
    omegas = _grid(n)
    rates = [k / 41 for k in range(1, 41)] if n < 1000 else [0.05, 0.3, 0.7]
    found, counts = rate_bounds._tau_star_argmax(rates, 3, omegas)
    groups = -(-len(rates) // max(1, rate_bounds._LANE_BUDGET // n))
    assert len(sizes["_lane_bounds"]) == len(sizes["_bisect"]) == groups
    assert sum(sizes["_lane_bounds"]) == counts["lanes"]
    assert sum(sizes["_bisect"]) == counts["lanes_replayed"]
    assert [(k, v.hex()) for k, v in found] == _reference_argmax(rates, 3, omegas)


@settings(max_examples=30, deadline=None)
@given(R=st.floats(1e-6, 1.0), L=st.integers(1, 17), n=st.integers(2, 200))
@example(R=0.5, L=1, n=2)
def test_certified_lane_bounds_hold_the_bisection_value(R, L, n):
    # every lane of one rate is both bounded and bisected
    omegas = _grid(n)
    const, terms_g, terms_d = rate_bounds._lane_terms(L, omegas)
    target = np.full(n, R * L * rate_bounds.LN2)
    j = np.flatnonzero(target < -np.log(const))
    args = (L, const[j], terms_g[j], terms_d[j], target[j])
    _, _, lower, upper = rate_bounds._lane_bounds(*args, np.full(len(j), np.nan))
    free = np.full(len(j), np.inf)  # no test skipped
    value, _, _ = rate_bounds._bisect(L, args[1:4], target[j], -free, free)
    assert np.all(lower <= value) and np.all(value <= upper)
    assert np.all(np.isfinite(lower) == np.isfinite(upper))
