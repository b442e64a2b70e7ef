from fractions import Fraction
from math import comb
from statistics import mean

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from zchannel import search
from zchannel.search import (
    MAX_NODES,
    best_list_code,
    max_code,
    sample_code_radius,
)
from zchannel.words import _dz_masks, _dz_row, _weight_table, list_radius

from oracles import list_radius_by_enumeration


def test_max_code_tiny_cases():
    r = max_code(3, 4)
    assert r.objective == 2
    assert r.optimal
    assert r.code.min_dz() >= 4

    r = max_code(2, 2)
    assert r.objective == 4
    assert {str(x) for x in r.code} == {"00", "01", "10", "11"}


def test_max_code_distance_four_length_four():
    r = max_code(4, 4)
    assert r.optimal
    assert r.objective == 4
    assert [str(x) for x in r.code] == ["0000", "1100", "0011", "1111"]
    assert r.code.min_dz() == 4


def test_max_code_input_validation():
    with pytest.raises(ValueError):
        max_code(4, 3)  # odd distance can never be attained exactly
    with pytest.raises(ValueError):
        max_code(0, 2)
    with pytest.raises(ValueError):
        max_code(25, 2)
    with pytest.raises(ValueError, match="node budget"):
        max_code(4, 2, max_nodes=0)


def test_max_code_respects_node_cap():
    r = max_code(8, 4, max_nodes=10)
    assert not r.optimal
    assert r.note
    assert r.code.min_dz() is None or r.code.min_dz() >= 4
    # the search ends on the node that passes the cap, so ``nodes`` is the
    # work done plus that one node, not a count grown on the way back
    assert r.nodes == 11
    assert max_code(16, 4, max_nodes=2000).nodes == 2001


def test_max_code_whole_space_needs_no_recursion():
    # at d = 2 every pair is compatible, so the search goes 2^n deep
    r = max_code(10, 2)
    assert r.optimal
    assert r.objective == 1024
    assert [x.mask for x in r.code] == list(range(1024))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 7),
    half_d=st.integers(1, 8),
    max_nodes=st.one_of(st.integers(1, 5000), st.none()),
)
def test_max_code_matches_eager_adjacency(n, half_d, max_nodes):
    # (7, 4) runs into the default cap of 10M nodes, some 15 s on both sides
    assume(max_nodes is not None or (n, half_d) != (7, 2))
    cap = MAX_NODES if max_nodes is None else max_nodes
    want = oracles.max_code(n, 2 * half_d, max_nodes=cap)
    assert _fields(max_code(n, 2 * half_d, max_nodes=cap)) == _fields(want)


def test_dz_row_matches_dz_masks():
    for n in range(1, 9):
        weights = _weight_table(n)
        assert weights.tolist() == [u.bit_count() for u in range(1 << n)]
        for d in range(2, 2 * n + 4, 2):
            for v in range(1 << n):
                row = _dz_row(v, d, weights)
                want = sum(
                    1 << u for u in range(1 << n) if u != v and _dz_masks(u, v) >= d
                )
                assert row == want, (n, d, v)


@pytest.mark.parametrize("n, d, cap", [(22, 2, 1), (16, 4, 200), (6, 4, MAX_NODES)])
def test_max_code_node_cap_bounds_the_rows_built(monkeypatch, n, d, cap):
    built = []

    def counting_row(v, d, weights):
        built.append(v)
        return _dz_row(v, d, weights)

    monkeypatch.setattr(search, "_dz_row", counting_row)
    r = max_code(n, d, max_nodes=cap)
    assert r.optimal == (cap == MAX_NODES)
    assert r.note == ("" if r.optimal else "node budget exhausted")
    assert 1 <= len(built) <= r.nodes + 1
    # no row is built twice, although a finished (6, 4) search branches on
    # each word many times over its 269,547 nodes
    assert len(set(built)) == len(built) <= 1 << n
    assert r.code.min_dz() is None or r.code.min_dz() >= d


def test_best_list_single_list_size():
    r = best_list_code(4, 2, 3, 1)
    assert r.optimal
    assert r.objective == 0
    assert [str(x) for x in r.code] == ["1100", "1010", "0110"]
    assert list_radius(r.code, 1) == 0


def test_best_list_fixture_code():
    r = best_list_code(6, 3, 4, 2)
    assert r.optimal
    assert r.objective == 2
    assert [str(x) for x in r.code] == ["111000", "110100", "001011", "000111"]
    assert list_radius(r.code, 2) == 2


def test_best_list_agrees_with_enumeration_oracle():
    r = best_list_code(5, 2, 3, 1)
    masks = [x.mask for x in r.code]
    assert r.objective == list_radius_by_enumeration(masks, 5, 1)


def test_best_list_size_within_list_bound():
    r = best_list_code(5, 2, 2, 3)
    assert r.objective == 5
    assert r.note


def _fields(r):
    return [str(x) for x in r.code], r.objective, r.optimal, r.nodes, r.note


@given(
    n=st.integers(2, 7),
    data=st.data(),
    list_size=st.integers(1, 3),
    max_nodes=st.integers(1, 200),
)
def test_best_list_matches_exhaustive_scan(n, data, list_size, max_nodes):
    w = data.draw(st.integers(1, n - 1))
    size = data.draw(st.integers(1, min(comb(n, w), 6)))
    assume(comb(comb(n, w), size) <= 20_000)
    want = oracles.best_list_code(n, w, size, list_size)
    assert _fields(best_list_code(n, w, size, list_size)) == _fields(want)
    # under a cap: the scan's answer, or an incumbent that is stopped early
    capped = best_list_code(n, w, size, list_size, max_nodes=max_nodes)
    if capped.optimal:
        assert _fields(capped) == _fields(want)
    else:
        assert max_nodes < capped.nodes < want.nodes
        assert capped.objective <= want.objective
        assert list_radius(capped.code, list_size) == capped.objective


def test_best_list_node_cap_keeps_the_incumbent():
    a = best_list_code(7, 3, 4, 1, max_nodes=50)
    assert _fields(a) == _fields(best_list_code(7, 3, 4, 1, max_nodes=50))
    assert not a.optimal
    assert a.note == "node budget exhausted"
    assert a.nodes > 50
    assert list_radius(a.code, 1) == a.objective
    exhaustive = best_list_code(7, 3, 4, 1)
    assert exhaustive.optimal
    assert exhaustive.nodes == comb(35, 4)
    assert a.objective <= exhaustive.objective


def test_best_list_input_validation():
    with pytest.raises(ValueError):
        best_list_code(25, 3, 4, 1)  # refused before the 2^n shell scan
    with pytest.raises(ValueError):
        best_list_code(6, 7, 1, 1)
    with pytest.raises(ValueError):
        best_list_code(6, 3, 21, 1)
    with pytest.raises(ValueError):
        best_list_code(6, 3, 4, 0)
    with pytest.raises(ValueError, match="node budget"):
        best_list_code(6, 3, 4, 1, max_nodes=0)


def test_sample_code_radius_exact_means():
    vals = sample_code_radius(32, 8, 0.5, 1, 1000, seed=0)
    assert len(vals) == 1000
    assert all(isinstance(v, Fraction) for v in vals)
    assert mean(vals) == Fraction(10287, 64000)

    again = sample_code_radius(32, 8, 0.5, 1, 1000, seed=0)
    assert vals == again

    other = sample_code_radius(32, 8, 0.5, 1, 1000, seed=2024)
    assert mean(other) == Fraction(10387, 64000)


def test_sample_code_radius_validation():
    with pytest.raises(ValueError):
        sample_code_radius(8, 2, 0.5, 2, 10, seed=1)
    with pytest.raises(ValueError):
        sample_code_radius(8, 4, 1.5, 1, 10, seed=1)


def test_sample_code_radius_degenerate_omega():
    # all-zero words: every subset meets at zero with zero gap
    vals = sample_code_radius(6, 3, 0.0, 1, 5, seed=3)
    assert vals == [Fraction(0)] * 5
    vals = sample_code_radius(6, 3, 1.0, 1, 5, seed=3)
    assert vals == [Fraction(0)] * 5
