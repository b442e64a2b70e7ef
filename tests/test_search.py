import tracemalloc
from fractions import Fraction
from functools import cache
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


@cache
def _largest(n, d):
    """Words, objective and ``optimal`` of the largest code, from the oracle
    uncapped."""
    if (n, d) == (7, 4):
        # dz >= 4 codes are the single asymmetric-error-correcting ones,
        # and at n = 7 the largest holds 18 words (the table in Kløve's
        # survey of asymmetric-error-correcting codes).  No search here
        # certifies it: the oracle stops at its default cap after some
        # 15 s, and this search after some 4 s.
        return None, 18, True
    r = oracles.max_code(n, d)
    return [str(x) for x in r.code], r.objective, r.optimal


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 7),
    half_d=st.integers(1, 8),
    max_nodes=st.one_of(st.integers(1, 5000), st.none()),
)
def test_max_code_matches_eager_adjacency(n, half_d, max_nodes):
    assume(max_nodes is not None or (n, half_d) != (7, 2))
    d = 2 * half_d
    want = _largest(n, d)
    # the colouring bound prunes more than the oracle's, so only the node
    # counts differ
    r = max_code(n, d, max_nodes=MAX_NODES if max_nodes is None else max_nodes)
    assert r.code.min_dz() is None or r.code.min_dz() >= d
    assert len(r.code) == r.objective
    if r.optimal:
        assert ([str(x) for x in r.code], r.objective, r.optimal) == want
        assert r.note == ""
    else:
        assert max_nodes is not None
        assert r.nodes == max_nodes + 1
        assert r.note == "node budget exhausted"
        assert r.objective <= want[1]


@cache
def _largest_code(words, d):
    """Size of the largest code among ``words`` (a tuple of masks) with
    pairwise dz >= d, by including or excluding each word in turn."""
    if not words:
        return 0
    first, rest = words[0], words[1:]
    keep = tuple(u for u in rest if _dz_masks(first, u) >= d)
    return max(1 + _largest_code(keep, d), _largest_code(rest, d))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 5), half_d=st.integers(1, 6), data=st.data())
def test_colour_classes_bound_the_codes_above_each_word(n, half_d, data):
    d = 2 * half_d
    words = sorted(data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1)))
    pool = sum(1 << w for w in words)
    rows, weights = {}, _weight_table(n)
    budget = 1 << n

    # the whole pool at once: at every v, the classes whose top is >= v
    tops = []
    left, spent = search._colour(pool, tops, len(words), rows, d, weights, budget)
    assert left == 0 and spent == len(words)
    assert tops == sorted(set(tops), reverse=True) and set(tops) <= set(words)
    for v in words:
        above = tuple(w for w in words if w >= v)
        assert sum(t >= v for t in tops) >= _largest_code(above, d)

    # lazily, as the siblings of one depth: ascending v, only the words
    # >= v, classes past want only when the count is needed
    tops, uncoloured = [], pool
    siblings = sorted(data.draw(st.sets(st.sampled_from(words), min_size=1)))
    for v in siblings:
        above = pool >> v << v
        while tops and tops[-1] < v:
            tops.pop()
        want = data.draw(st.integers(0, len(words)))
        uncoloured, spent = search._colour(
            uncoloured & above, tops, want, rows, d, weights, budget
        )
        assert spent <= budget
        if uncoloured:
            assert len(tops) > want
        else:
            assert len(tops) >= _largest_code(tuple(w for w in words if w >= v), d)


def test_max_code_certifies_length_eight_distance_six():
    # the |pool| bound alone stops at the default cap of 10M nodes here
    r = max_code(8, 6)
    assert r.optimal
    assert r.objective == 7
    assert r.code.min_dz() >= 6
    assert r.nodes <= 4_000_000


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


@pytest.mark.parametrize(
    "n, d, cap",
    [(22, 2, 1), (16, 4, 200), (6, 4, MAX_NODES), (9, 8, 3000), (14, 10, 2000)],
)
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
    # or colours each word many times over its 12,506 units
    assert len(set(built)) == len(built) <= 1 << n
    assert r.code.min_dz() is None or r.code.min_dz() >= d


@pytest.mark.parametrize("n, d, cap", [(9, 8, 3000), (14, 10, 2000)])
def test_node_cap_trips_inside_a_colouring(monkeypatch, n, d, cap):
    # the rows test's colouring cases stop on a coloured word: coloured
    # words draw on the same budget as the branch nodes
    colour, calls = search._colour, []

    def spy(q, tops, want, rows, d, weights, units):
        left, spent = colour(q, tops, want, rows, d, weights, units)
        calls.append((units, spent))
        return left, spent

    monkeypatch.setattr(search, "_colour", spy)
    r = max_code(n, d, max_nodes=cap)
    assert r.nodes == cap + 1
    units, spent = calls[-1]
    assert spent == units + 1
    assert sum(spent for _, spent in calls) < r.nodes


@pytest.mark.parametrize("n, d, cap", [(20, 4, 200), (14, 10, 2000), (22, 4, 1)])
def test_max_code_memory_is_bounded_by_the_cap(n, d, cap):
    rows = (cap + 1) * (1 << n) // 8  # the docstring's bound on the rows
    # Slack: the stack holds, per depth (at most ``cap`` deep), a pool and
    # at most one set of uncoloured words, so no more than twice the rows;
    # the weight table takes 1 byte per word and a row build's numpy
    # temporaries about 3; and 1 MiB for everything else.  At n = 22 and
    # cap 1 that is 20 MiB, where a table of 8 bytes per word alone would
    # take 32 MiB.
    slack = 2 * rows + 4 * (1 << n) + (1 << 20)
    tracemalloc.start()
    try:
        r = max_code(n, d, max_nodes=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.nodes == cap + 1
    assert peak <= rows + slack


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


@pytest.mark.parametrize("cap", [1, 10, 100])
@pytest.mark.parametrize("args", [(22, 11, 3, 1), (22, 11, 5, 2), (12, 6, 4, 1)])
def test_best_list_cap_bounds_the_shell_words_read(monkeypatch, args, cap):
    """A capped search reads at most max_nodes + size + 1 words of its
    shell (C(22, 11) = 705,432 of them), in ascending order."""
    read, shell = [], search._shell

    def spy(n, w):
        for v in shell(n, w):
            read.append(v)
            yield v

    monkeypatch.setattr(search, "_shell", spy)
    r = best_list_code(*args, max_nodes=cap)
    assert not r.optimal and r.nodes > cap
    assert len(read) <= cap + args[2] + 1
    assert read == sorted(set(read)) and {v.bit_count() for v in read} == {args[1]}


@given(n=st.integers(1, 12), data=st.data())
def test_shell_lists_the_weight_class_in_ascending_order(n, data):
    w = data.draw(st.integers(0, n))
    assert list(search._shell(n, w)) == [m for m in range(1 << n) if m.bit_count() == w]


def test_best_list_input_validation():
    with pytest.raises(ValueError):
        best_list_code(25, 3, 4, 1)  # refused before any word is read
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


def test_sample_code_radius_validation(monkeypatch):
    # every refusal comes before the first draw
    def refuse(*args):
        raise AssertionError("a word was drawn")

    monkeypatch.setattr(search.random, "Random", refuse)
    bad = [
        (8, 2, 0.5, 2, 10),  # no more words than the list size
        (8, 4, 1.5, 1, 10),
        (0, 3, 0.5, 1, 5),  # n, list_size and trials out of range
        (-3, 3, 0.5, 1, 5),
        (6, 3, 0.5, 0, 5),
        (6, 3, 0.5, 1, -2),
    ]
    for args in bad:
        with pytest.raises(ValueError):
            sample_code_radius(*args, seed=1)


def test_sample_code_radius_degenerate_omega():
    # all-zero words: every subset meets at zero with zero gap
    vals = sample_code_radius(6, 3, 0.0, 1, 5, seed=3)
    assert vals == [Fraction(0)] * 5
    vals = sample_code_radius(6, 3, 1.0, 1, 5, seed=3)
    assert vals == [Fraction(0)] * 5
