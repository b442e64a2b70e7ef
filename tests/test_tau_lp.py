"""Solver and certificate behavior for the pair-covering LP.

The expensive full-table reproduction lives in the acceptance tests;
here we keep to solves up to size 14 and to properties of the machinery itself:
matrix construction and its memory, certificate round-trips, falsification
of doctored certificates, the integer check and the integer support solve
against the Fraction versions they replaced, the simplex's starting basis
and the symmetry of the LP, every recorded certificate, and agreement
between the exact simplex and the float-basis route.
"""

import functools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zchannel
from zchannel import tau_lp
from zchannel.tau_lp import (
    TAU_TABLE,
    TauCertificate,
    UnresolvedError,
    build_pair_matrix,
    solve_tau,
    tau_of_L,
    verify_certificate,
)
from zchannel.tau_lp import (
    _covering_matrix,
    _fraction_free_pivot,
    _scaled_sums,
    _threshold_start,
)
from zchannel.words import BitWord

import oracles
from oracles import packing_violations, pattern_covers_pair

GOLDEN = Path(__file__).parent / "golden"

# pivots per direct solve of the one-phase simplex from the threshold basis
# (M = 2 and 3 start at the optimum)
DIRECT_PIVOTS = {2: 0, 3: 0, 4: 1, 5: 3, 6: 6, 7: 16, 8: 33, 9: 43, 10: 71, 11: 87}


@functools.lru_cache(maxsize=None)
def exact_solve(m: int) -> TauCertificate:
    """solve_tau(m) on the exact simplex, once per size for this module."""
    assert m <= tau_lp._DIRECT_LIMIT
    return solve_tau(m)


def test_pair_matrix_smallest_case():
    pm = build_pair_matrix(2)
    assert pm.pairs == ((1, 2),)
    assert len(pm.patterns) == 1
    assert str(BitWord(2, pm.patterns[0])) == "01"
    assert _covering_matrix(pm, pm.patterns).tolist() == [[True]]


def test_pair_matrix_three():
    pm = build_pair_matrix(3)
    assert pm.pairs == ((1, 2), (1, 3), (2, 3))
    # pattern 011: first bit low, others high, so it covers (1,2) and (1,3)
    mask = 0b110
    assert mask in pm.patterns
    covered = [pm.pairs[r] for r in np.flatnonzero(_covering_matrix(pm, [mask])[:, 0])]
    assert covered == [(1, 2), (1, 3)]


def test_pair_matrix_prune_accounting():
    for m in (2, 3, 4, 5, 6):
        pm = build_pair_matrix(m)
        stats = pm.prune_stats
        assert stats["total_columns"] == 1 << m
        assert stats["kept"] == 1 << (m - 2)
        assert stats["dropped_empty"] == m + 1
        assert stats["kept"] + stats["dropped_empty"] + stats["dropped_dominated"] == 1 << m
        assert len(pm.patterns) == stats["kept"]


def oracle_matrix(pm, masks):
    return np.array(
        [[pattern_covers_pair(str(BitWord(pm.m, mask)), i, j) for mask in masks]
         for i, j in pm.pairs],
        dtype=bool,
    )


def test_covering_matrix_matches_oracle_on_pruned_patterns():
    for m in range(2, 13):
        pm = build_pair_matrix(m)
        got = _covering_matrix(pm, pm.patterns)
        assert got.dtype == bool
        assert np.array_equal(got, oracle_matrix(pm, pm.patterns)), m


@given(m=st.integers(2, 20), data=st.data())
def test_covering_matrix_matches_oracle_on_any_masks(m, data):
    pm = build_pair_matrix(m)
    masks = data.draw(st.lists(st.integers(0, (1 << m) - 1), max_size=8))
    assert np.array_equal(_covering_matrix(pm, masks), oracle_matrix(pm, masks))


def test_pair_matrix_range():
    with pytest.raises(ValueError):
        build_pair_matrix(1)
    with pytest.raises(ValueError):
        build_pair_matrix(21)


def test_solve_small_sizes_match_table():
    for m in range(2, 9):
        cert = solve_tau(m)
        assert cert.tau == TAU_TABLE[m], m
        assert verify_certificate(cert)


def test_certificate_fields_are_consistent():
    cert = solve_tau(5)
    assert cert.tau == Fraction(2, 5)
    assert cert.value == Fraction(5, 2)
    assert sum(cert.primal.values()) == cert.value
    assert sum(cert.dual.values()) == cert.value
    assert all(v >= 0 for v in cert.primal.values())
    assert all(v >= 0 for v in cert.dual.values())


def test_certificate_json_round_trip():
    cert = solve_tau(4)
    doc = cert.to_json_dict()
    text = json.dumps(doc)
    back = TauCertificate.from_json_dict(json.loads(text))
    assert back.m == cert.m
    assert back.tau == cert.tau
    assert back.value == cert.value
    assert back.primal == cert.primal
    assert back.dual == cert.dual
    assert verify_certificate(back)

    doc["dual"] = {"0a11": "1"}
    with pytest.raises(ValueError):
        TauCertificate.from_json_dict(doc)


def test_perturbed_certificate_fails():
    cert = solve_tau(5)

    pair = next(iter(cert.primal))
    bad_primal = dict(cert.primal)
    bad_primal[pair] += 1
    doctored = TauCertificate(cert.m, cert.tau, cert.value, bad_primal, cert.dual)
    check = verify_certificate(doctored)
    assert not check
    assert check.diagnostics

    mask = next(iter(cert.dual))
    bad_dual = dict(cert.dual)
    bad_dual[mask] += Fraction(1, 7)
    doctored = TauCertificate(cert.m, cert.tau, cert.value, cert.primal, bad_dual)
    assert not verify_certificate(doctored)

    doctored = TauCertificate(cert.m, cert.tau + 1, cert.value, cert.primal, cert.dual)
    assert not verify_certificate(doctored)

    bad_primal = dict(cert.primal)
    bad_primal[pair] = -bad_primal[pair]
    doctored = TauCertificate(cert.m, cert.tau, cert.value, bad_primal, cert.dual)
    assert not verify_certificate(doctored)

    bad_primal = dict(cert.primal)
    bad_primal[(0, 99)] = bad_primal.pop(pair)
    doctored = TauCertificate(cert.m, cert.tau, cert.value, bad_primal, cert.dual)
    assert not verify_certificate(doctored)


def test_out_of_range_negative_dual_key_is_diagnosed():
    cert = solve_tau(4)
    bad_dual = dict(cert.dual)
    bad_dual[1 << 4] = Fraction(-1)
    check = verify_certificate(
        TauCertificate(cert.m, cert.tau, cert.value, cert.primal, bad_dual)
    )
    assert not check
    assert "dual key 0x10 is not an 4-bit pattern" in check.diagnostics
    assert "dual weight for 0x10 negative" in check.diagnostics


def test_pruning_is_lossless_on_small_sizes():
    # the pruned solve's packing weights meet all 2^M constraints, pruned
    # or not, and match the covering side's value, so by weak duality the
    # pruned optimum is the optimum over every column
    for m in range(3, 9):
        cert = solve_tau(m)
        assert verify_certificate(cert)
        assert sum(cert.primal.values()) == cert.value
        assert packing_violations(cert.primal, m) == []


def test_certificates_match_recorded_solves():
    # the tau-table golden files stop at M=8
    for m in (9, 10):
        cert = solve_tau(m)
        text = json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n"
        assert text == (GOLDEN / "solve_tau" / f"certificate_{m}.json").read_text(), m


@pytest.mark.parametrize(
    "path",
    sorted(GOLDEN.glob("*/certificate_*.json")),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_recorded_certificates_pass_both_checks(path):
    # a re-recorded golden must never pin a certificate that fails a check
    cert = TauCertificate.from_json_dict(json.loads(path.read_text()))
    assert verify_certificate(cert).ok
    assert oracles.verify_certificate(cert).ok
    assert cert.tau == TAU_TABLE[cert.m]


def test_pivot_counts_are_pinned():
    for m, pivots in DIRECT_PIVOTS.items():
        meta = exact_solve(m).meta
        assert (meta["method"], meta["pivots"]) == ("exact-simplex", pivots), m


def test_large_coefficients_switch_to_python_ints():
    # B*x1 + x2 - s1 = B and x1 + B*x2 - s2 = B, costs (1, 1, 0, 0) in the
    # last row: pivoting x1 and x2 in gives x1 = x2 = B/(B+1), objective
    # 2B/(B+1) and duals 1/(B+1) on both rows.  The first pivot multiplies
    # B by B, past int64, so the array must switch.
    B = 1 << 40
    T = np.array(
        [[B, 1, -1, 0, B], [1, B, 0, -1, B], [1, 1, 0, 0, 0]], dtype=np.int64
    )
    T, den = _fraction_free_pivot(T, 1, 0, 0)
    assert (T.dtype, den) == (object, B)
    T, den = _fraction_free_pivot(T, den, 1, 1)
    assert (T.dtype, den) == (object, B * B - 1)
    assert [Fraction(v, den) for v in T[:2, -1]] == [Fraction(B, B + 1)] * 2
    assert Fraction(-T[2, -1], den) == Fraction(2 * B, B + 1)
    assert [Fraction(v, den) for v in T[2, 2:4]] == [Fraction(1, B + 1)] * 2


def test_forced_negative_pivot_keeps_the_denominator_positive():
    # 2*x1 = 2 and 2*x1 - 3*x2 = 2 give x = (1, 0); pivoting on the -3
    # negates the array, so the denominator is 3, not -3
    T = np.array([[2, 0, 2], [2, -3, 2]], dtype=np.int64)
    T, den = _fraction_free_pivot(T, 1, 1, 1)
    assert (T.dtype, den, T.tolist()) == (np.int64, 3, [[6, 0, 6], [-2, 3, -2]])
    T, den = _fraction_free_pivot(T, den, 0, 0)
    assert (den, T.tolist()) == (6, [[6, 0, 6], [0, 6, 0]])
    assert [Fraction(v, den) for v in T[:, -1]] == [1, 0]


@pytest.fixture
def tableau_dtypes(monkeypatch):
    """Final tableau dtype of each exact-simplex solve, keyed by its number
    of pair rows: the start sets it and each pivot replaces it.  The switch
    to Python ints is permanent, so the final dtype tells whether it ever
    happened."""
    dtypes = {}
    start, pivot = tau_lp._threshold_start, tau_lp._fraction_free_pivot

    def start_spy(pm):
        T, basis = start(pm)
        dtypes[len(T) - 1] = T.dtype
        return T, basis

    def pivot_spy(T, den, r, c):
        T, den = pivot(T, den, r, c)
        dtypes[len(T) - 1] = T.dtype
        return T, den

    monkeypatch.setattr(tau_lp, "_threshold_start", start_spy)
    monkeypatch.setattr(tau_lp, "_fraction_free_pivot", pivot_spy)
    return dtypes


def test_exact_sizes_stay_in_int64(tableau_dtypes):
    # the exact simplex ends at 11 because every size through 11 keeps its
    # tableau in int64
    for m in range(2, tau_lp._DIRECT_LIMIT + 1):
        solve_tau(m)
    assert tau_lp._DIRECT_LIMIT == 11
    pair_rows = [m * (m - 1) // 2 for m in range(2, 12)]
    assert tableau_dtypes == dict.fromkeys(pair_rows, np.dtype(np.int64))


@st.composite
def unit_rhs_systems(draw):
    """Small integer systems for ``rows @ x = 1``: zero rows, rows that
    depend on earlier ones, negative entries, more equations than unknowns
    or fewer, and entries near 2**40 whose products leave int64."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(
        st.integers(-3, 3), st.integers(-(1 << 40), 1 << 40), st.just(1 << 40)
    )
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["free", "zero", "dependent"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "dependent" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows.append([s * u + t * v for u, v in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


@settings(max_examples=400, deadline=None)
@given(rows=unit_rhs_systems())
def test_support_solve_matches_the_fraction_oracle(rows):
    assert tau_lp._solve_unit_rhs(rows) == oracles._solve_unit_rhs(rows)


def test_support_solve_switches_to_python_ints(monkeypatch):
    # the second pivot multiplies 2**40 by 2**40, past int64
    B = 1 << 40
    rows = np.array([[1, 0], [B, B], [0, 0]], dtype=np.int64)
    dtypes = []
    pivot = tau_lp._fraction_free_pivot

    def spy(*args):
        T, den = pivot(*args)
        dtypes.append(T.dtype)
        return T, den

    monkeypatch.setattr(tau_lp, "_fraction_free_pivot", spy)
    x = tau_lp._solve_unit_rhs(rows)
    assert dtypes == [np.dtype(np.int64), np.dtype(object)]
    assert x == [1, Fraction(1 - B, B)] == oracles._solve_unit_rhs(rows)


@pytest.mark.parametrize("m", [13, 14])
def test_float_basis_support_solves_match_the_fraction_oracle(m, monkeypatch):
    pytest.importorskip("scipy.optimize")
    solve, systems = tau_lp._solve_unit_rhs, []

    def checked(rows):
        x = solve(rows)
        assert x == oracles._solve_unit_rhs(rows)
        systems.append(rows.shape)
        return x

    monkeypatch.setattr(tau_lp, "_solve_unit_rhs", checked)
    assert solve_tau(m).tau == TAU_TABLE[m]
    assert len(systems) == 2  # the y system, then the z system


def test_repeated_solves_do_not_raise_peak_memory():
    pytest.importorskip("resource")  # Unix only; the child process uses it
    script = (
        "import resource\n"
        "from zchannel.tau_lp import solve_tau\n"
        "def solve_all():\n"
        "    for m in range(2, 11):\n"
        "        solve_tau(m)\n"
        "solve_all()\n"
        "first = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "for _ in range(20):\n"
        "    solve_all()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - first)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(zchannel.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True, timeout=300,
    )
    # ru_maxrss is in KiB on Linux; when each column's pair tuple was built
    # from a generator, these 20 passes raised it by about 2.5 MiB
    assert int(done.stdout) < 1024


def test_float_basis_agrees_with_exact_simplex(monkeypatch):
    # M=12 on the exact simplex stalls on degenerate pivots until entering
    # switches to smallest index, so that switch runs at a real size
    monkeypatch.setattr(tau_lp, "_DIRECT_LIMIT", 12)
    exact = {m: exact_solve(m) for m in range(8, 13)}
    assert exact[12].meta["pivots"] > tau_lp._BLAND_AFTER
    monkeypatch.setattr(tau_lp, "_DIRECT_LIMIT", 7)
    for m, want in exact.items():
        got = solve_tau(m)
        assert want.meta["method"] == "exact-simplex"
        assert got.meta["method"] == "float-basis"
        assert got.tau == want.tau == TAU_TABLE[m], m
        assert verify_certificate(got) and verify_certificate(want), m


def test_float_basis_that_fails_the_check_is_unresolved(monkeypatch):
    opt = pytest.importorskip("scipy.optimize")
    real = opt.linprog

    def drop_heaviest_pattern(*args, **kwargs):
        res = real(*args, **kwargs)
        res.x[np.argmax(res.x)] = 0.0
        return res

    monkeypatch.setattr(opt, "linprog", drop_heaviest_pattern)
    with pytest.raises(UnresolvedError, match="float-basis certificate fails verification"):
        solve_tau(13)


def test_failed_float_solve_is_unresolved(monkeypatch):
    opt = pytest.importorskip("scipy.optimize")
    real = opt.linprog

    def stop_early(*args, **kwargs):
        res = real(*args, **kwargs)
        res.status, res.message = 1, "Iteration limit reached."
        return res

    monkeypatch.setattr(opt, "linprog", stop_early)
    monkeypatch.setattr(tau_lp, "_DIRECT_LIMIT", 4)
    with pytest.raises(UnresolvedError, match="float solve failed: Iteration limit"):
        solve_tau(5)


def test_exact_sizes_do_not_import_scipy():
    # importing scipy.optimize costs about 50 MiB and 0.75 s; sizes the
    # exact simplex solves (2..11) must not pay it
    script = (
        "import sys\n"
        "import zchannel, zchannel.cli\n"
        "from zchannel.tau_lp import _DIRECT_LIMIT, solve_tau\n"
        "for m in range(2, _DIRECT_LIMIT + 1):\n"
        "    solve_tau(m)\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(zchannel.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True, timeout=300,
    )
    assert done.stdout == "[]\n"


@settings(max_examples=300, deadline=None)
@given(m=st.integers(2, 10), data=st.data())
def test_any_single_change_breaks_a_certificate(m, data):
    # sizes from 13 up rest on verify_certificate alone, so it must reject
    # every one-entry edit of a valid certificate
    cert = exact_solve(m)
    primal, dual, tau = dict(cert.primal), dict(cert.dual), cert.tau
    delta = data.draw(st.fractions(-3, 3, max_denominator=50).filter(bool))
    change = data.draw(st.sampled_from(
        ["shift primal", "shift dual", "drop primal", "drop dual", "tau"]
    ))
    if change == "shift primal":
        pair = data.draw(st.sampled_from(build_pair_matrix(m).pairs))
        primal[pair] = primal.get(pair, Fraction(0)) + delta
    elif change == "shift dual":
        mask = data.draw(st.integers(0, (1 << m) - 1))
        dual[mask] = dual.get(mask, Fraction(0)) + delta
    elif change == "drop primal":
        del primal[data.draw(st.sampled_from(sorted(primal)))]
    elif change == "drop dual":
        del dual[data.draw(st.sampled_from(sorted(dual)))]
    else:
        tau += delta
    check = verify_certificate(TauCertificate(m, tau, cert.value, primal, dual))
    assert not check
    assert check.diagnostics


@settings(max_examples=300, deadline=None)
@given(m=st.integers(2, 10), data=st.data())
def test_certificate_check_matches_the_fraction_oracle(m, data):
    # the integer check must give the verdict and the diagnostics, in their
    # order, of the Fraction-by-Fraction check it replaced; weights moved
    # between entries keep the totals, so the constraint checks run too
    cert = exact_solve(m)
    primal, dual, tau = dict(cert.primal), dict(cert.dual), cert.tau
    pairs = st.sampled_from(build_pair_matrix(m).pairs)
    masks = st.integers(0, (1 << m) - 1)  # every m-bit mask, pruned or not
    huge = st.builds(lambda k, s: Fraction(s, (1 << 64) + k), st.integers(0, 99),
                     st.sampled_from([-1, 1]))  # past int64 once scaled
    deltas = st.one_of(st.fractions(-3, 3, max_denominator=50), huge)
    shares = st.one_of(st.fractions(0, 1, max_denominator=20), huge.map(abs))
    changes = st.sampled_from([
        "shift primal", "shift dual", "move primal", "move dual", "drop primal",
        "drop dual", "zero dual", "empty dual", "tau",
    ])
    for change in data.draw(st.lists(changes, max_size=3)):
        weights, keys = (primal, pairs) if "primal" in change else (dual, masks)
        if change.startswith("shift"):
            key = data.draw(keys)
            weights[key] = weights.get(key, Fraction(0)) + data.draw(deltas)
        elif change.startswith("move") and weights:
            source, target = data.draw(st.sampled_from(sorted(weights))), data.draw(keys)
            amount = weights[source] * data.draw(shares)
            weights[source] -= amount
            weights[target] = weights.get(target, Fraction(0)) + amount
        elif change.startswith("drop") and weights:
            del weights[data.draw(st.sampled_from(sorted(weights)))]
        elif change == "zero dual":
            dual[data.draw(masks)] = Fraction(0)
        elif change == "empty dual":
            dual.clear()
        elif change == "tau":
            tau += data.draw(deltas)
    doctored = TauCertificate(m, tau, cert.value, primal, dual)
    new, old = verify_certificate(doctored), oracles.verify_certificate(doctored)
    assert (new.ok, new.diagnostics) == (old.ok, old.diagnostics)


def test_scaled_sums_are_exact_past_int64():
    rows = np.array([[1, 1, 0], [0, 1, 1]], dtype=bool)
    sums, den = _scaled_sums([Fraction(1, 3), Fraction(1, 6)], rows)
    assert (sums.dtype, sums.tolist(), den) == (np.int64, [2, 3, 1], 6)
    big = 1 << 70
    sums, den = _scaled_sums([Fraction(1, big), Fraction(big - 1, big)], rows)
    assert (sums.dtype, sums.tolist(), den) == (object, [1, big, big - 1], big)
    sums, den = _scaled_sums([], rows[:0])
    assert (sums.tolist(), den) == ([0, 0, 0], 1)


@pytest.mark.parametrize("m", [13, 14])
def test_float_basis_sizes_certify_to_the_table(m):
    pytest.importorskip("scipy.optimize")
    cert = solve_tau(m)
    assert cert.meta["method"] == "float-basis"
    assert cert.tau == TAU_TABLE[m]
    assert verify_certificate(cert)
    # both sides scale to int64, so the check never needs Python ints here
    for weights in (cert.primal.values(), cert.dual.values()):
        sums, _ = _scaled_sums(list(weights), np.ones((len(weights), 1), dtype=bool))
        assert sums.dtype == np.int64


def test_covering_matrix_at_18_stays_small():
    pytest.importorskip("resource")  # Unix only; the child process uses it
    script = (
        "import resource\n"
        "from zchannel.tau_lp import _covering_matrix, build_pair_matrix\n"
        "pm = build_pair_matrix(18)\n"
        "first = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "D = _covering_matrix(pm, pm.patterns)\n"
        "grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - first\n"
        "print(*D.shape, D.dtype, grew)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(zchannel.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True, timeout=300,
    )
    rows, cols, dtype, grew = done.stdout.split()
    assert (int(rows), int(cols), dtype) == (153, 65536, "bool")
    # ru_maxrss is in KiB on Linux: the bool build adds about 21 MiB, an
    # int8 one about 9 and an int64 broadcast about 163
    assert int(grew) < 48 * 1024


def test_threshold_start_is_the_inverse_basis_tableau():
    # the start needs no pivots: its basis inverse is an integer matrix, so
    # den == 1, and B^-1 [D | -I | 1] has a nonnegative right-hand side
    for m in range(2, 19):
        pm = build_pair_matrix(m)
        K, P = len(pm.pairs), len(pm.patterns)
        T, basis = _threshold_start(pm)
        labels, inverse = oracles.threshold_basis(m)
        assert basis == labels, m
        assert all(v.denominator == 1 for row in inverse for v in row), m
        assert T.dtype == np.int64 and T.shape == (K + 1, P + K + 1), m
        assert (T[:K, -1] >= 0).all(), m
        D = _covering_matrix(pm, pm.patterns)
        cost = np.zeros(P + K + 1, dtype=np.int64)
        cost[:P] = 1
        for r, row in enumerate(inverse):
            want = np.zeros(P + K + 1, dtype=np.int64)
            for k, v in enumerate(row):
                if v:
                    want[:P] += int(v) * D[k]
                    want[P + k] -= int(v)
                    want[-1] += int(v)
            assert np.array_equal(T[r], want), (m, pm.pairs[r])
            if basis[r] < P:  # a basic pattern costs 1, a surplus 0
                cost -= want
        assert np.array_equal(T[K], cost), m


def test_sigma_maps_the_incidence_to_itself():
    # sigma (complement, then reverse) maps the pruned patterns onto
    # themselves and permutes the pairs so that the incidence is unchanged
    for m in range(2, 19):
        pm = build_pair_matrix(m)
        image = [oracles.sigma_pattern(mask, m) for mask in pm.patterns]
        assert sorted(image) == list(pm.patterns), m
        columns = np.searchsorted(pm.patterns, image)
        rows = [pm.pairs.index(oracles.sigma_pair(pair, m)) for pair in pm.pairs]
        D = _covering_matrix(pm, pm.patterns)
        assert np.array_equal(D[np.ix_(rows, columns)], D), m


def test_unresolved_on_tiny_pivot_cap():
    with pytest.raises(UnresolvedError):
        solve_tau(9, pivot_cap=3)


def test_solve_range_check():
    with pytest.raises(ValueError):
        solve_tau(1)
    with pytest.raises(ValueError):
        solve_tau(19)


def test_table_is_monotone_and_above_asymptote():
    values = [TAU_TABLE[m] for m in range(2, 19)]
    for a, b in zip(values, values[1:]):
        assert b <= a
    for m in range(2, 19):
        assert TAU_TABLE[m] >= Fraction(m, 4 * m - 2)


def test_tau_of_l_branches():
    assert tau_of_L(18) == TAU_TABLE[18]
    assert tau_of_L(19) == Fraction(19, 74)
    assert tau_of_L(2) == Fraction(1)
    with pytest.raises(ValueError):
        tau_of_L(1)


def test_tau_of_l_fallback_stays_below_solved_values():
    # the asymptotic lower bound at the handover should not exceed the last
    # solved entry, otherwise the piecewise table would jump upward
    assert Fraction(19, 74) <= TAU_TABLE[18]


def test_independent_float_solver_agrees():
    # a completely separate LP code path (simplex vs interior/dual from
    # scipy's HiGHS backend) should land on the same optimum in floats
    opt = pytest.importorskip("scipy.optimize")
    np = pytest.importorskip("numpy")

    pm = build_pair_matrix(10)
    dense = oracle_matrix(pm, pm.patterns).astype(float)
    res = opt.linprog(
        c=np.ones(len(pm.patterns)),
        A_ub=-dense,
        b_ub=-np.ones(len(pm.pairs)),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    assert abs(res.fun - 1.0 / float(TAU_TABLE[10])) < 1e-8
