"""The sign-off checklist, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per criterion.  Each test also prints a one-line verdict with the
measured quantity so the numbers are visible in the report.

Two knobs:

* ``ZCHANNEL_STRETCH=1`` extends the exact-table criterion from the
  default stretch sizes (13, 14) to the full 15..18 range, which takes
  about five minutes more.
* Criterion 8 is expected to fail as stated: the sampled statistic at
  length 32 sits near 0.16, far from the asymptotic 0.25 the window is
  centered on.  The test asserts the stated window faithfully and the
  failure message carries the measured mean.
"""

import itertools
import os
import random
import time
from bisect import bisect_left
from fractions import Fraction
from math import comb
from pathlib import Path

from oracles import list_radius_by_enumeration

from zchannel.protocol import (
    ProtocolParams,
    adversary_exhaustive,
    read_code_file,
    validate_parameters,
)
from zchannel.rate_bounds import (
    bassalygo_size_bound,
    gv_rate,
    list_plotkin_holds,
    rcb_delta,
    rcb_g,
    rcb_lower_curve,
)
from zchannel.search import sample_code_radius
from zchannel.tau_lp import TAU_TABLE, solve_tau, verify_certificate
from zchannel.two_stage import (
    DEFAULT_CONFIG,
    plotkin_point,
    two_stage_rate,
    verify_remains,
)
from zchannel.words import BitWord, Code, list_radius

DATA = Path(__file__).parent / "data"

F = Fraction


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_exact_table_with_certificates():
    expected = {
        2: F(1), 3: F(1, 2), 4: F(1, 2), 5: F(2, 5), 6: F(2, 5),
        7: F(3, 8), 8: F(4, 11), 9: F(13, 37), 10: F(9, 26),
        11: F(31, 92), 12: F(1, 3),
    }
    start = time.monotonic()
    problems = []
    for m, want in expected.items():
        cert = solve_tau(m)
        check = verify_certificate(cert)
        if cert.tau != want:
            problems.append(f"M={m}: got {cert.tau}, wanted {want}")
        if not check.ok:
            problems.append(f"M={m}: certificate rejected: {check.diagnostics}")
    elapsed = time.monotonic() - start
    if elapsed > 600:
        problems.append(f"took {elapsed:.0f}s, budget is 600s")
    ok = not problems
    _line(1, ok, f"M=2..12 exact with verified certificates in {elapsed:.0f}s"
          if ok else "; ".join(problems))
    assert ok, "; ".join(problems)

    # stretch sizes, reported but never blocking
    stretch = [13, 14]
    if os.environ.get("ZCHANNEL_STRETCH") == "1":
        stretch += [15, 16, 17, 18]
    for m in stretch:
        cert = solve_tau(m)
        verified = verify_certificate(cert).ok
        agrees = cert.tau == TAU_TABLE[m]
        print(f"  stretch M={m}: tau={cert.tau}, certificate "
              f"{'ok' if verified else 'REJECTED'}, table "
              f"{'agrees' if agrees else 'DISAGREES'}")
        if m == 18:
            print("  note: M=18 solves to 13255/42433; the sometimes-quoted "
                  "1083/3467 fails the exact primal/dual check")


def test_criterion_2_zero_rate_threshold_point():
    point = plotkin_point()
    w = point.omega_max
    residual = abs(1.0 + 3.0 * w * w - 8.0 * w**3)
    ok = (
        0.4402 <= point.tau_max <= 0.4412
        and 0.660 <= w <= 0.662
        and residual < 1e-10
    )
    _line(2, ok, f"tau_max={point.tau_max:.6f}, omega_max={w:.6f}, "
          f"cubic residual={residual:.2e}")
    assert ok


def test_criterion_3_rate_positive_then_zero():
    start = time.monotonic()
    below = two_stage_rate(0.43, DEFAULT_CONFIG)
    above = two_stage_rate(0.45, DEFAULT_CONFIG)
    elapsed = time.monotonic() - start
    ok = below > 0.0 and above == 0.0 and elapsed <= 1800
    _line(3, ok, f"rate(0.43)={below:.2e}, rate(0.45)={above}, {elapsed:.0f}s")
    assert below > 0.0
    assert above == 0.0
    assert elapsed <= 1800


def test_criterion_4_exact_threshold_inequalities():
    report = verify_remains(17)
    equality_at = [r.L for r in report.rows if r.equality]
    tail = all(
        F(1, 2 * L + 1) >= F(2, 3) ** (L - 2) for L in range(10, 201)
    )
    ok = (
        report.all_ok
        and len(report.rows) == 17
        and equality_at == [2]
        and report.tail_ok
        and tuple(report.tail_range) == (10, 200)
        and tail
    )
    _line(4, ok, f"17 rows certified, equality at L={equality_at}, "
          f"tail holds on 10..200")
    assert ok


def test_criterion_5_single_list_curve_meets_gv():
    start = time.monotonic()
    curve = rcb_lower_curve(1, r_points=2000, omega_points=2000)

    def at(tau: float) -> float:
        k = bisect_left(curve.taus, tau)
        if k == 0:
            return curve.rates[0]
        if k == len(curve.taus):
            return curve.rates[-1]
        t0, t1 = curve.taus[k - 1], curve.taus[k]
        r0, r1 = curve.rates[k - 1], curve.rates[k]
        return r0 + (r1 - r0) * (tau - t0) / (t1 - t0)

    grid = [0.01 + (0.24 - 0.01) * k / 1999 for k in range(2000)]
    gap = max(abs(at(t) - gv_rate(t)) for t in grid)
    elapsed = time.monotonic() - start
    ok = gap <= 1e-3
    _line(5, ok, f"max |curve - gv| = {gap:.2e} over [0.01, 0.24], {elapsed:.0f}s")
    assert ok, f"pointwise gap {gap:.3e} exceeds 1e-3"


def test_criterion_6_exponent_internals():
    # closed form of the radius statistic at zero tilt
    worst_identity = 0.0
    for L in range(1, 18):
        for k in range(1, 100):
            w = k / 100.0
            err = abs(rcb_delta(0.0, L, w) - (w - w ** (L + 1)))
            worst_identity = max(worst_identity, err)
    assert worst_identity <= 1e-12

    # the statistic is the growth rate's derivative in the tilt
    s = 1e-5
    worst_fd = 0.0
    worst_concavity = -1.0
    for L in (1, 3, 17):
        for w in (0.3, 0.5, 0.7):
            for i in range(1, 40):
                h = 0.5 * i
                fd = (rcb_g(h + s, L, w) - rcb_g(h - s, L, w)) / (2.0 * s)
                worst_fd = max(worst_fd, abs(rcb_delta(h, L, w) - fd))
                step = 0.01
                second = (
                    rcb_g(h - step, L, w)
                    + rcb_g(h + step, L, w)
                    - 2.0 * rcb_g(h, L, w)
                )
                worst_concavity = max(worst_concavity, second)
    ok = worst_fd <= 1e-6 and worst_concavity <= 1e-8
    _line(6, ok, f"identity err={worst_identity:.1e}, derivative err="
          f"{worst_fd:.1e}, max second difference={worst_concavity:.1e}")
    assert worst_fd <= 1e-6
    assert worst_concavity <= 1e-8


def test_criterion_7_formula_against_enumeration_and_bounds():
    rng = random.Random(821)
    exhaustive_cap = 6000
    samples_per_stratum = 400
    checked = 0
    sampled_strata = 0
    for n in range(2, 9):
        for w in range(1, min(4, n) + 1):
            words = [
                BitWord(n, m) for m in range(1 << n) if m.bit_count() == w
            ]
            if len(words) < 2:
                continue
            for size in range(2, 7):
                if size > len(words):
                    continue
                if comb(len(words), size) <= exhaustive_cap:
                    pool = itertools.combinations(words, size)
                else:
                    sampled_strata += 1
                    seen = set()
                    picks = []
                    while len(picks) < samples_per_stratum:
                        tup = tuple(sorted(rng.sample(range(len(words)), size)))
                        if tup in seen:
                            continue
                        seen.add(tup)
                        picks.append(tuple(words[i] for i in tup))
                    pool = picks
                for ws in pool:
                    code = Code(ws)
                    masks = [bw.mask for bw in code]
                    radii = {}
                    for L in (1, 2):
                        got = list_radius(code, L)
                        want = list_radius_by_enumeration(masks, n, L)
                        assert got == want, (
                            f"n={n} w={w} code={[str(x) for x in code]} "
                            f"L={L}: formula {got}, enumeration {want}"
                        )
                        radii[L] = got
                        if size >= L + 1:
                            assert list_plotkin_holds(size, L, w / n, got / n), (
                                f"size bound violated: n={n} w={w} size={size} "
                                f"L={L} t={got}"
                            )
                    t1 = radii[1]
                    if 4 * t1 <= n and t1 + 1 <= w:
                        try:
                            cap = bassalygo_size_bound(n, w, t1)
                        except ValueError:
                            pass  # at or past the critical weight
                        else:
                            assert size <= cap, (
                                f"n={n} w={w} t={t1}: {size} words above cap {cap}"
                            )
                    checked += 1
    _line(7, True, f"{checked} codes checked ({sampled_strata} strata sampled), "
          "no disagreement, no bound violation")


def test_criterion_8_sampled_radius_near_asymptote():
    vals = sample_code_radius(32, 8, 0.5, 1, 1000, seed=2024)
    mean = sum(vals, F(0)) / len(vals)
    err = abs(mean - F(1, 4))
    ok = err <= F(1, 20)
    _line(8, ok, f"mean over 1000 draws = {float(mean):.6f}, "
          f"|mean - 0.25| = {float(err):.4f}, window 0.05")
    assert ok, (
        f"empirical mean {float(mean):.6f} misses 0.25 by {float(err):.4f}; "
        "at length 32 the smallest pair statistic over 8 words concentrates "
        "near 0.16, so the stated window is not reachable at this blocklength "
        "(seeds 0 and 2024 give 0.1607 and 0.1623)"
    )


def test_criterion_9_protocol_fixture_end_to_end():
    start = time.monotonic()
    stage1 = read_code_file(DATA / "stage1_w3.txt")
    family = {
        1: read_code_file(DATA / "stage2_list1.txt"),
        2: read_code_file(DATA / "stage2_list2.txt"),
    }
    params = ProtocolParams(stage1, family, t=2)
    assert params.n1 <= 8
    assert params.message_count >= 4
    report = validate_parameters(params)
    assert report.all_ok

    first = [adversary_exhaustive(params, m) for m in range(params.message_count)]
    assert all(rep.passed for rep in first)
    second = [adversary_exhaustive(params, m) for m in range(params.message_count)]
    assert [r.digest for r in first] == [r.digest for r in second]
    elapsed = time.monotonic() - start
    ok = elapsed <= 300
    _line(9, ok, f"4 messages swept twice with matching digests in {elapsed:.1f}s")
    assert ok
