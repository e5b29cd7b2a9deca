"""Concept and class plumbing: masks, labels, (de)serialization."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teachlab import (
    Concept,
    ConceptClass,
    FormatError,
    agrees_on,
    complement,
    difference_set,
    instances_to_mask,
    mask_to_instances,
    parse_class,
    parse_family,
    parse_teacher,
    parse_tournament,
    concepts,
    serialize_class,
)


def test_mask_round_trip_examples():
    assert instances_to_mask([1, 3], 3) == 0b101
    assert instances_to_mask([], 5) == 0
    assert mask_to_instances(0b101) == frozenset({1, 3})
    assert mask_to_instances(0) == frozenset()


@given(st.integers(1, 16).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n)))))
def test_mask_round_trip(args):
    n, instances = args
    assert mask_to_instances(instances_to_mask(instances, n)) == frozenset(instances)


def test_instances_out_of_range():
    with pytest.raises(ValueError):
        instances_to_mask([0], 3)
    with pytest.raises(ValueError):
        instances_to_mask([4], 3)


def test_concept_string_examples():
    c = Concept.from_string("101")
    assert c.n == 3 and c.bits == 0b101
    assert c.members() == frozenset({1, 3})
    assert c.label(1) == 1 and c.label(2) == 0
    assert c.to_string() == "101"
    assert 3 in c and 2 not in c


@pytest.mark.parametrize("n", [1, 8, 63, 64, 65, 1000])
def test_concept_to_string_matches_the_per_bit_spelling(n):
    rng = random.Random(n)
    full = (1 << n) - 1
    for bits in [0, full, 1 << (n - 1)] + [rng.getrandbits(n) for _ in range(5)]:
        c = Concept(n, bits)
        want = "".join("1" if (bits >> j) & 1 else "0" for j in range(n))
        assert c.to_string() == want
        assert Concept.from_string(want) == c


def test_concept_string_errors():
    with pytest.raises(FormatError):
        Concept.from_string("10x")
    with pytest.raises(FormatError):
        Concept.from_string("")


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))))
def test_concept_string_round_trip(args):
    n, bits = args
    c = Concept(n, bits)
    assert Concept.from_string(c.to_string()) == c


def test_agreement_and_difference():
    c = Concept.from_string("101")
    c2 = Concept.from_string("011")
    # differ on instances 1 and 2, agree on 3
    assert difference_set(c, c2) == frozenset({1, 2})
    assert agrees_on(c, c2, [3])
    assert agrees_on(c, c2, [])
    assert not agrees_on(c, c2, [1, 3])


def test_complement():
    c = Concept.from_string("101")
    assert complement(c).to_string() == "010"
    assert complement(complement(c)) == c


def test_class_construction_rejects_duplicates_and_mixed_domains():
    with pytest.raises(ValueError):
        ConceptClass.from_masks([1, 1], 2)
    with pytest.raises(ValueError):
        ConceptClass.from_masks([1, 4], 2)


def test_class_order_is_preserved():
    k = ConceptClass.from_masks([2, 0, 3], 2)
    assert k.masks == (2, 0, 3)
    assert [c.to_string() for c in k] == ["01", "00", "11"]
    assert k.index_of(Concept(2, 0)) == 1


def test_parse_class_example():
    k = parse_class("n=3\n000\n100\n110\n111\n011\n001\n")
    assert k.n == 3 and len(k) == 6
    assert k.masks == (0, 1, 3, 7, 6, 4)


def test_parse_class_skips_comments_and_blank_lines():
    k = parse_class("# half-intervals\nn=2\n\n00\n# middle\n10\n")
    assert k.masks == (0, 1)


def test_content_lines_in_blocks_are_those_of_splitlines(monkeypatch):
    # a block ends just after a "\n", so no line boundary ("\r\n" included)
    # straddles two blocks, however short they are
    rng = random.Random(17)
    alphabet = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                " ", "#", "0", "1"]
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        want = [(i, raw.strip()) for i, raw in enumerate(text.splitlines(), 1)
                if raw.strip() and not raw.strip().startswith("#")]
        monkeypatch.setattr(concepts, "_BLOCK", rng.randint(1, 6))
        assert list(concepts._content_lines(text)) == want, text


@pytest.mark.parametrize("text", [
    "00\n10\n",                 # missing header
    "n=2\n00\n001\n",           # ragged row
    "n=2\n00\n0x\n",            # bad character
    "n=2\n01\n01\n",            # duplicate concept
    "n=0\n",                    # empty domain
    "n=2\n",                    # no concepts
])
def test_parse_class_rejects(text):
    with pytest.raises(FormatError):
        parse_class(text)


def _family_over_4(text):
    return parse_family(text, 4)


# every malformed input of the per-codec rejection tests, with the line its
# error names; "" marks an error about the whole file
@pytest.mark.parametrize("parse, text, where", [
    (parse_class, "00\n10\n", "line 1:"),
    (parse_class, "n=2\n00\n001\n", "line 3:"),
    (parse_class, "n=2\n00\n0x\n", "line 3:"),
    (parse_class, "n=2\n01\n01\n", "line 3:"),
    (parse_class, "n=0\n", "line 1:"),
    (parse_class, "n=2\n", ""),
    (parse_class, "n=x\n0\n", "line 1:"),
    (parse_teacher, "", ""),
    (parse_teacher, "n=3\n000 :\n", "line 1:"),
    (parse_teacher, "n=3 d=1\n000 : 4\n", "line 2:"),
    (parse_teacher, "n=3 d=1\n00 : 1\n", "line 2:"),
    (parse_teacher, "n=3 d=1\n000 : 1\n000 : 2\n", "line 3:"),
    (parse_teacher, "n=3 d=1\n000 1\n", "line 2:"),
    (parse_teacher, "n=3 d=1\n000 : 1 2\n", "line 2:"),
    (parse_teacher, "n=3 d=1\n", ""),
    (parse_tournament, "1 2\n", "line 1:"),
    (parse_tournament, "n=3\n1 2\n1 3\n", ""),
    (parse_tournament, "n=3\n1 2\n2 1\n1 3\n2 3\n", "line 3:"),
    (parse_tournament, "n=3\n1 2\n1 3\n2 3\n2 3\n", "line 5:"),
    (parse_tournament, "n=3\n1 2\n1 3\n3 4\n", "line 4:"),
    (parse_tournament, "n=3\n1 1\n1 3\n2 3\n", "line 2:"),
    (parse_tournament, "n=0\n", "line 1:"),
    (parse_tournament, "n=3\n1 2 3\n", "line 2:"),
    (parse_tournament, "n=3\n1 a\n", "line 2:"),
    (parse_tournament, "n=9\n1 2\n2 1\n", "line 3:"),  # too short to list all 36 pairs
    (parse_tournament, "n=100000000\n1 2\n", ""),
    (_family_over_4, "1 2\n1\n", "line 2:"),
    (_family_over_4, "1 1\n", "line 1:"),
    (_family_over_4, "1 9\n", "line 1:"),
    (_family_over_4, "1 2\n1 2\n", "line 2:"),
    (_family_over_4, "a b\n", "line 1:"),
    (_family_over_4, "", ""),
    (Concept.from_string, "10x", ""),
    (Concept.from_string, "", ""),
])
def test_codec_errors_name_the_offending_line(parse, text, where):
    with pytest.raises(FormatError) as exc:
        parse(text)
    message = str(exc.value)
    if where:
        assert message.startswith(where + " "), message
    else:
        assert not message.startswith("line "), message


_LONG = "1" * 45  # a line past the 40 characters that an error repeats
_CUT = f"{'1' * 40!r} (first 40 of 45 characters)"


@pytest.mark.parametrize("parse, text, message", [
    (parse_class, "n=x\n0\n", "line 1: malformed header 'n=x'"),
    (parse_class, f"n=x{_LONG}\n", f"line 1: malformed header 'n=x{'1' * 37}'"
                                    " (first 40 of 48 characters)"),
    (parse_teacher, "n=2 d=3\n", "line 1: header 'n=2 d=3' out of range"),
    (parse_teacher, f"n=2 d=3{_LONG}\n", f"line 1: header 'n=2 d=3{'1' * 33}'"
                                          " (first 40 of 52 characters) out of range"),
    (parse_class, "n=2\n01\n01\n", "line 3: duplicate concept '01'"),
    (parse_class, f"n=45\n{_LONG}\n{_LONG}\n", f"line 3: duplicate concept {_CUT}"),
    (parse_teacher, "n=2 d=1\n01 : 1\n01 : 2\n", "line 3: duplicate concept '01'"),
    (parse_teacher, f"n=45 d=1\n{_LONG} : 1\n{_LONG} : 2\n",
     f"line 3: duplicate concept {_CUT}"),
])
def test_codec_errors_repeat_at_most_40_characters_of_a_line(parse, text, message):
    # a line that fits is quoted whole; a longer one by its start and length
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert str(exc.value) == message


@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 2**n - 1), min_size=1,
                                             max_size=12, unique=True))))
def test_class_serialization_round_trip(args):
    n, masks = args
    k = ConceptClass.from_masks(masks, n)
    text = serialize_class(k)
    assert parse_class(text) == k
    assert serialize_class(parse_class(text)) == text
