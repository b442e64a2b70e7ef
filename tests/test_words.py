from fractions import Fraction
from itertools import combinations
import random

import pytest
from hypothesis import given, strategies as st

from zchannel.words import (
    BitWord,
    Code,
    avg_radius,
    delta,
    dh,
    dz,
    list_radius,
    zball_contains,
)

from oracles import list_radius_by_enumeration


def w(s):
    return BitWord.from_string(s)


def test_string_round_trip_and_position_convention():
    x = w("1010")
    assert str(x) == "1010"
    assert x.bit(1) == 1
    assert x.bit(2) == 0
    assert x.support() == (1, 3)
    assert x.weight() == 2
    assert BitWord.from_support(4, [1, 3]) == x


def test_zeros_ones():
    assert str(BitWord.zeros(3)) == "000"
    assert str(BitWord.ones(3)) == "111"


def test_from_string_rejects_junk():
    with pytest.raises(ValueError):
        BitWord.from_string("10a1")
    with pytest.raises(ValueError):
        BitWord.from_string("")


def test_one_sided_distance():
    assert delta(w("110"), w("011")) == 1
    assert delta(w("011"), w("110")) == 1
    assert delta(w("111"), w("000")) == 3
    assert delta(w("000"), w("111")) == 0


def test_distances_match_worked_cases():
    assert dz(w("110"), w("011")) == 2
    assert dh(w("110"), w("011")) == 2
    assert dz(w("1100"), w("0011")) == 4
    assert dz(w("110"), w("010")) == 2
    assert dh(w("110"), w("010")) == 1


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        dz(w("110"), w("0110"))


@given(st.integers(1, 64), st.data())
def test_dz_equals_dh_plus_weight_gap(n, data):
    a, b = (BitWord(n, data.draw(st.integers(0, (1 << n) - 1))) for _ in range(2))
    assert dz(a, b) == dh(a, b) + abs(a.weight() - b.weight())


def test_zball_membership():
    # the channel only clears ones: candidates must cover the received word
    assert zball_contains(w("110"), 1, w("110"))
    assert zball_contains(w("100"), 1, w("110"))
    assert not zball_contains(w("010"), 1, w("100"))
    assert not zball_contains(w("000"), 1, w("110"))
    assert zball_contains(w("000"), 2, w("110"))


def test_avg_radius_single_pair():
    assert avg_radius([w("110"), w("011")]) == 1


def test_avg_radius_triple():
    # weights 3,2,2 with meet 100: (3+2+2-3)/3
    assert avg_radius([w("111"), w("110"), w("101")]) == Fraction(4, 3)


def test_avg_radius_degenerate_inputs():
    assert avg_radius([w("110")]) == 0
    with pytest.raises(ValueError):
        avg_radius([])
    with pytest.raises(ValueError):
        avg_radius([w("110"), w("0110")])


def test_code_canonical_order_and_weight():
    c = Code.from_strings(["0011", "1100", "1010"])
    assert [str(x) for x in c.words] == ["1100", "1010", "0011"]
    assert c.weight == 2
    assert c.n == 4


def test_code_rejects_duplicates_and_mixed_lengths():
    with pytest.raises(ValueError):
        Code.from_strings(["110", "110"])
    with pytest.raises(ValueError):
        Code.from_strings(["110", "1100"])


def test_code_min_distances():
    c = Code.from_strings(["1100", "0011", "1111"])
    assert c.min_dz() == 4
    assert c.min_dh() == 2
    assert Code.from_strings(["1100"]).min_dz() is None


def test_list_radius_two_words():
    c = Code.from_strings(["110", "101"])
    assert list_radius(c, 1) == 0


def test_list_radius_small_code_is_whole_space():
    c = Code.from_strings(["110", "101"])
    assert list_radius(c, 2) == 3
    assert list_radius(c, 5) == 3


def test_list_radius_matches_enumeration_on_random_codes():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(2, 7)
        size = rng.randint(1, min(5, 1 << n))
        masks = rng.sample(range(1 << n), size)
        code = Code(BitWord(n, m) for m in masks)
        for L in (1, 2):
            assert list_radius(code, L) == list_radius_by_enumeration(
                masks, n, L
            ), (n, sorted(masks), L)


@given(
    n=st.integers(1, 7),
    data=st.data(),
    list_size=st.integers(1, 4),
)
def test_list_radius_matches_enumeration_property(n, data, list_size):
    masks = data.draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6, unique=True)
    )
    code = Code(BitWord(n, m) for m in masks)
    assert list_radius(code, list_size) == list_radius_by_enumeration(
        masks, n, list_size
    )


def test_list_radius_matches_enumeration_constant_weight():
    n = 6
    shell = [m for m in range(1 << n) if m.bit_count() == 3]
    for masks in combinations(shell[:8], 3):
        code = Code(BitWord(n, m) for m in masks)
        assert list_radius(code, 1) == list_radius_by_enumeration(masks, n, 1)
