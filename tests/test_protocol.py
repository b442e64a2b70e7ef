"""Round-trip and adversarial behavior of the executable two-stage scheme.

The committed fixture under data/ is the same one the acceptance run
uses: a length-6 weight-3 stage-1 code with four messages, a distance-4
stage-2 code for doubtful outcomes, and the trivial single-word code for
settled ones.
"""

from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from zchannel import protocol
from zchannel.protocol import (
    BudgetExceededError,
    ProtocolError,
    ProtocolParams,
    adversary_exhaustive,
    decode,
    decode_candidates,
    encode_stage1,
    encode_stage2,
    read_code_file,
    validate_parameters,
    write_code_file,
)
from zchannel.search import best_list_code, max_code
from zchannel.words import BitWord, Code, list_radius

from oracles import list_radius_by_enumeration

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def fixture_params():
    stage1 = read_code_file(DATA / "stage1_w3.txt")
    family = {
        1: read_code_file(DATA / "stage2_list1.txt"),
        2: read_code_file(DATA / "stage2_list2.txt"),
    }
    return ProtocolParams(stage1, family, t=2)


def test_fixture_files_match_search_output():
    # the committed codes are exactly what the searches produce, so the
    # fixture cannot drift away from the oracle
    s1 = best_list_code(6, 3, 4, 2)
    assert [str(w) for w in read_code_file(DATA / "stage1_w3.txt")] == [
        str(w) for w in s1.code
    ]
    s2 = max_code(4, 4)
    assert [str(w) for w in read_code_file(DATA / "stage2_list2.txt")] == [
        str(w) for w in s2.code
    ]


def test_code_file_round_trip(tmp_path):
    code = Code.from_strings(["1100", "0011"])
    path = tmp_path / "c.txt"
    write_code_file(path, code)
    text = path.read_text()
    assert text.splitlines()[0] == "n=4 w=2"
    back = read_code_file(path)
    assert [str(w) for w in back] == ["1100", "0011"]


def test_code_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n=4 w=9\n1100\n")
    with pytest.raises(ProtocolError):
        read_code_file(path)


def test_params_validation_gates():
    stage1 = Code.from_strings(["110", "011"])
    with pytest.raises(ProtocolError):
        ProtocolParams(Code.from_strings(["110", "100"]), {}, 1)  # mixed weight
    with pytest.raises(ProtocolError):
        ProtocolParams(stage1, {}, -1)
    with pytest.raises(ProtocolError):
        # stage-2 lengths must agree with each other
        ProtocolParams(
            stage1,
            {1: Code.from_strings(["00"]), 2: Code.from_strings(["000", "111"])},
            1,
        )
    with pytest.raises(ProtocolError):
        # a grade must offer at least as many words as its list size
        ProtocolParams(stage1, {2: Code.from_strings(["01"])}, 1)


def test_candidate_ordering_pinned():
    stage1 = Code.from_strings(["1100", "1010", "1001", "0110", "0101", "0011"])
    p = ProtocolParams(stage1, {1: Code.from_strings(["00"])}, t=1)
    cands = decode_candidates(p, BitWord.from_string("1000"))
    assert [str(p.stage1.words[i]) for i in cands] == ["1100", "1010", "1001"]


def test_candidate_errors():
    stage1 = Code.from_strings(["1100", "1010"])
    p = ProtocolParams(stage1, {1: Code.from_strings(["00"])}, t=1)
    with pytest.raises(ProtocolError):
        decode_candidates(p, BitWord.from_string("100"))
    with pytest.raises(ProtocolError):
        decode_candidates(p, BitWord.from_string("1110"))  # weight grew
    with pytest.raises(ProtocolError):
        decode_candidates(p, BitWord.from_string("0001"))  # not coverable


def test_stage1_encoding_is_zero_based(fixture_params):
    assert str(encode_stage1(fixture_params, 0)) == "111000"
    assert str(encode_stage1(fixture_params, 3)) == "000111"
    with pytest.raises(ProtocolError):
        encode_stage1(fixture_params, 4)
    with pytest.raises(ProtocolError):
        encode_stage1(fixture_params, -1)


def test_list_bound_by_erasure_count(fixture_params):
    assert fixture_params.list_bound(0) == 1
    assert fixture_params.list_bound(1) == 2
    assert fixture_params.list_bound(2) == 2
    assert fixture_params.list_bound(3) == 4


def test_validation_report_rows(fixture_params):
    report = validate_parameters(fixture_params)
    assert report.all_ok
    rows = {r.e: r for r in report.rows}
    assert set(rows) == {0, 1, 2}
    assert rows[0].list_bound == 1 and rows[0].ok
    assert "stage 2 unused" in rows[0].note
    assert rows[1].required_dz == 3 and rows[1].available_dz == 4
    assert rows[2].required_dz == 1


def test_validation_flags_undersized_family():
    stage1 = read_code_file(DATA / "stage1_w3.txt")
    family = {
        1: read_code_file(DATA / "stage2_list1.txt"),
        2: read_code_file(DATA / "stage2_list2.txt"),
    }
    params = ProtocolParams(stage1, family, t=3)
    report = validate_parameters(params)
    assert not report.all_ok
    failing = {r.e: r for r in report.failing()}
    # with a budget of three, one erasure forces distance five but the
    # committed code only has four; three erasures need an absent grade
    assert failing[1].required_dz == 5
    assert failing[1].available_dz == 4
    assert failing[3].list_bound == 4
    assert "no stage-2 code" in failing[3].note


def test_clean_round_trip_all_messages(fixture_params):
    p = fixture_params
    for m in range(p.message_count):
        x1 = encode_stage1(p, m)
        x2 = encode_stage2(p, m, x1)
        assert decode(p, x1, x2) == m


def test_single_candidate_branch_ignores_stage2(fixture_params):
    p = fixture_params
    x1 = encode_stage1(p, 2)
    # no erasures: the receiver already knows the message
    x2 = encode_stage2(p, 2, x1)
    assert x2.weight() == 0
    garbled = BitWord.zeros(p.n2)
    assert decode(p, x1, garbled) == 2


def test_adversary_all_messages_and_determinism(fixture_params):
    digests = []
    for m in range(fixture_params.message_count):
        rep = adversary_exhaustive(fixture_params, m)
        assert rep.passed, rep.failures
        assert rep.patterns > 0
        digests.append(rep.digest)
    again = [
        adversary_exhaustive(fixture_params, m).digest
        for m in range(fixture_params.message_count)
    ]
    assert digests == again
    assert len(set(digests)) == len(digests)


def test_list_radii_are_computed_once_per_instance(fixture_params, monkeypatch):
    calls = Counter()

    def counting_radius(code, list_size):
        calls[code, list_size] += 1
        return list_radius(code, list_size)

    monkeypatch.setattr(protocol, "list_radius", counting_radius)
    messages = range(fixture_params.message_count)
    digests = [adversary_exhaustive(fixture_params, m).digest for m in messages]
    assert max(calls.values(), default=0) <= 1
    # a fresh instance starts its own ladder and reaches the same digests
    calls.clear()
    fresh = replace(fixture_params)
    assert [adversary_exhaustive(fresh, m).digest for m in messages] == digests
    assert calls and set(calls.values()) == {1}
    assert all(code is fresh.stage1 for code, _ in calls)


def test_adversary_rejects_invalid_parameters(fixture_params):
    stage1 = read_code_file(DATA / "stage1_w3.txt")
    family = {
        1: read_code_file(DATA / "stage2_list1.txt"),
        2: read_code_file(DATA / "stage2_list2.txt"),
    }
    bad = ProtocolParams(stage1, family, t=3)
    with pytest.raises(ProtocolError):
        adversary_exhaustive(bad, 0)


def test_adversary_budget_refusal():
    words = ["1" * 25 + "0", "0" + "1" * 25]
    stage1 = Code.from_strings(words)
    params = ProtocolParams(stage1, {1: Code.from_strings(["0000"])}, t=12)
    with pytest.raises(BudgetExceededError):
        adversary_exhaustive(params, 0)


@st.composite
def small_params(draw):
    """Small two-stage instances: a constant-weight stage-1 code of 2 to 5
    words and length up to 5, a budget t up to 2, and stage-2 grades of
    random words for list sizes 1 up to some bound, which may fall short."""
    n1 = draw(st.integers(2, 5))
    w = draw(st.integers(1, n1 - 1))
    shell = [mask for mask in range(1 << n1) if mask.bit_count() == w]
    stage1 = draw(st.lists(st.sampled_from(shell), min_size=2, max_size=5, unique=True))
    grades = draw(st.integers(1, len(stage1)))
    n2 = draw(st.integers(max(1, (grades - 1).bit_length()), 5))
    family = {}
    for size in range(1, grades + 1):
        extra = draw(st.integers(0, 2))
        words = draw(st.lists(st.integers(0, (1 << n2) - 1), min_size=size,
                              max_size=size + extra, unique=True))
        family[size] = Code(BitWord(n2, mask) for mask in words)
    t = draw(st.integers(0, 2))
    return ProtocolParams(Code(BitWord(n1, mask) for mask in stage1), family, t)


@settings(max_examples=150, deadline=None)
@given(p=small_params())
# one error leaves a list of at most 3, but x1 = 0110 -> y1 = 0010 leaves
# 2, and grade 2 has distance 2 < 3: the adversary defeats messages 2 and 4
@example(
    p=ProtocolParams(
        Code.from_strings(["1100", "1010", "0110", "1001", "0101"]),
        {
            size: Code.from_strings(words)
            for size, words in enumerate(
                [
                    ["0000"],
                    ["0000", "1000"],
                    ["0000", "1100", "0011"],
                    ["0000", "1000", "0100", "1100"],
                    ["0000", "1000", "0100", "1100", "0010"],
                ],
                start=1,
            )
        },
        t=2,
    )
)
def test_valid_parameters_round_trip_and_survive_the_adversary(p):
    masks = [word.mask for word in p.stage1]
    for e in range(min(p.w, p.t) + 1):
        bound = p.list_bound(e)
        assert list_radius_by_enumeration(masks, p.n1, bound) >= e
        assert bound == 1 or list_radius_by_enumeration(masks, p.n1, bound - 1) < e
    if not validate_parameters(p):
        with pytest.raises(ProtocolError, match="fail validation"):
            adversary_exhaustive(p, 0)
        return
    for m in range(p.message_count):
        x1 = encode_stage1(p, m)
        assert decode(p, x1, encode_stage2(p, m, x1)) == m
        report = adversary_exhaustive(p, m)
        assert report.passed, report.failures
