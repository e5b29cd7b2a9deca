"""Tournaments and their induced concept classes.

class1(g) assigns each player j its complement concept over the winners
against j; class2(g) lists the winner concepts C_1..C_n followed by the
complements.  The canonical teacher shows each player its own index, and
recover_tournament inverts the construction.
"""

import itertools
import random
import time
import tracemalloc
from math import comb

import pytest

from teachlab import (
    BudgetError,
    ConceptClass,
    FormatError,
    NCTeacher,
    PropertyViolation,
    all_tournaments,
    canonical_teacher,
    class1,
    class2,
    is_nc_teacher,
    linear_tournament,
    nctd,
    pair_rank,
    parse_tournament,
    random_tournament,
    recover_tournament,
    serialize_class,
    serialize_tournament,
    stream_bit,
    budget,
)


def test_linear_tournament_edges():
    g = linear_tournament(4)
    assert sorted(g.edges()) == [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    assert g.has_edge(1, 3) and not g.has_edge(3, 1)


def test_has_edge_rejects_loops():
    g = linear_tournament(3)
    with pytest.raises(ValueError):
        g.has_edge(2, 2)


def test_class2_of_linear_3_exact_bytes():
    text = serialize_class(class2(linear_tournament(3)))
    assert text == "n=3\n000\n100\n110\n111\n011\n001\n"


def test_class1_is_complement_half():
    g = linear_tournament(3)
    k1 = class1(g)
    k2 = class2(g)
    assert k1.masks == k2.masks[3:]
    assert len(k1) == 3 and len(k2) == 6


def test_pair_rank_row_major():
    n = 4
    expect = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            assert pair_rank(n, i, j) == expect
            expect += 1
    with pytest.raises(ValueError):
        pair_rank(4, 3, 3)
    with pytest.raises(ValueError):
        pair_rank(4, 0, 2)


def test_random_tournament_matches_per_pair_stream_bits():
    for n in (1, 2, 5, 19, 64, 128):
        for seed in (0, -1, -5, (1 << 64) + 3, 1 << 70):
            bits = 0
            for r in range(comb(n, 2)):
                bits |= stream_bit(seed, r) << r
            assert random_tournament(n, seed).bits == bits


def edge_definition(g):
    """class1 masks, class2 masks and the edge list, from has_edge on every ordered pair."""
    n = g.n
    full = (1 << n) - 1
    winners = [sum(1 << (i - 1) for i in range(1, n + 1) if i != j and g.has_edge(i, j))
               for j in range(1, n + 1)]
    edges = [(i, j) if g.has_edge(i, j) else (j, i)
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return [full ^ m for m in winners], winners + [full ^ m for m in winners], edges


def test_classes_and_edges_match_has_edge_on_every_small_tournament():
    for n in range(1, 6):
        for g in all_tournaments(n):
            k1, k2, edges = edge_definition(g)
            assert list(class1(g).masks) == k1
            assert list(class2(g).masks) == k2
            assert list(g.edges()) == edges


def test_classes_and_edges_match_has_edge_on_seeded_tournaments():
    for n in (6, 7, 8, 13, 31, 64, 65, 100, 130):
        for seed in (0, -5, n):
            g = random_tournament(n, seed)
            k1, k2, edges = edge_definition(g)
            assert list(class1(g).masks) == k1
            assert list(class2(g).masks) == k2
            assert list(g.edges()) == edges


def test_random_tournament_deterministic():
    a = random_tournament(8, 123)
    b = random_tournament(8, 123)
    assert a.bits == b.bits
    assert random_tournament(8, 124).bits != a.bits


def test_random_tournament_pair_frequencies():
    # orientation of a fixed pair across seeds should be near 1/2
    trials = 2000
    wins = sum(random_tournament(5, s).has_edge(1, 2) for s in range(trials))
    p = wins / trials
    # 3 sigma around 0.5 at 2000 trials is about 0.034
    assert abs(p - 0.5) < 0.05


def test_canonical_teacher_is_admissible_and_order_1():
    for n in (2, 3, 4, 5):
        for seed in (0, 1, 2):
            g = random_tournament(n, seed)
            t = canonical_teacher(g)
            assert t.order == 1
            assert is_nc_teacher(t)
            # player j is shown {j} in both roles
            assert t.sets[:n] == t.sets[n:]
            assert t.sets[:n] == tuple(frozenset({j}) for j in range(1, n + 1))


def test_class2_has_nctd_one():
    for n in (2, 3, 4):
        g = random_tournament(n, 7)
        assert nctd(class2(g)).d == 1
        assert nctd(class1(g)).d == 1


def test_recover_round_trip_exhaustive_small():
    for n in (2, 3):
        for g in all_tournaments(n):
            back = recover_tournament(class2(g), canonical_teacher(g))
            assert back.n == g.n and back.bits == g.bits


def test_recover_round_trip_random():
    rng = random.Random(20260815)
    for _ in range(50):
        n = rng.randint(2, 8)
        g = random_tournament(n, rng.getrandbits(32))
        back = recover_tournament(class2(g), canonical_teacher(g))
        assert back.bits == g.bits


def test_recover_rejects_teacher_for_other_class():
    g1, g2 = linear_tournament(3), random_tournament(3, 0)
    assert g1.bits != g2.bits
    with pytest.raises(ValueError):
        recover_tournament(class2(g2), canonical_teacher(g1))


def test_recover_rejects_wrong_size_class():
    k = ConceptClass.from_masks([0, 1, 3], 3)
    t = NCTeacher(k, (frozenset({1}), frozenset({1}), frozenset({2})))
    with pytest.raises(PropertyViolation, match="concepts"):
        recover_tournament(k, t)


def test_recover_rejects_non_singleton_sets():
    g = linear_tournament(3)
    k = class2(g)
    t = canonical_teacher(g)
    bad = NCTeacher(k, (frozenset({1, 2}),) + t.sets[1:])
    with pytest.raises(PropertyViolation, match="single instance"):
        recover_tournament(k, bad)


def test_recover_rejects_unbalanced_instance_use():
    g = linear_tournament(3)
    k = class2(g)
    # all six concepts taught with {1}: clashes appear first
    bad = NCTeacher(k, (frozenset({1}),) * 6)
    with pytest.raises(PropertyViolation, match="clash"):
        recover_tournament(k, bad)


def test_recover_accepts_exactly_the_admissible_singleton_teachers():
    # every 2n-concept class over [n] for n <= 3, with every assignment of a
    # single instance to each concept: recovery's one check accepts exactly
    # the teachers that is_nc_teacher, a pairwise clash check sharing no code
    # with recovery, admits
    teachers = 0
    for n in (1, 2, 3):
        for masks in itertools.combinations(range(1 << n), 2 * n):
            k = ConceptClass.from_masks(masks, n)
            for assign in itertools.product(range(1, n + 1), repeat=2 * n):
                t = NCTeacher(k, tuple(frozenset({x}) for x in assign))
                teachers += 1
                if is_nc_teacher(t):
                    g = recover_tournament(k, t)
                    assert frozenset(class2(g).masks) == frozenset(masks)
                else:
                    with pytest.raises(PropertyViolation, match="^teacher admits a clash$"):
                        recover_tournament(k, t)
    assert teachers == 1 + 16 + 28 * 729


def test_parse_and_recover_take_a_few_serializations():
    # each is timed against serialize_tournament of the same tournament, so
    # that the host's speed cancels.  Setting one pair bit at a time in a
    # growing int took 16-17x a serialization to parse and 14-16x to recover
    # at n = 2,000 (2 vCPUs); converting the pair bits once takes 2.8-3.1x
    # to parse.  Recovery took 2.8x with a pairwise clash pass before its
    # induced-class check, and takes 0.07x with that check alone
    g = random_tournament(2000, 0)
    t = canonical_teacher(g)
    start = time.perf_counter()
    text = serialize_tournament(g)
    serialized = time.perf_counter()
    assert parse_tournament(text).bits == g.bits
    parsed = time.perf_counter()
    assert recover_tournament(t.k, t).bits == g.bits
    recovered = time.perf_counter()
    unit = serialized - start
    assert parsed - serialized < 7 * unit
    assert recovered - parsed < unit


def test_codecs_hold_about_one_text_in_memory():
    # the writer joins each row of pairs into one string at once, and the
    # reader splits the text into lines a block at a time and keeps one byte
    # per pair.  Building every line string first peaked at 10x the text to
    # write 499,500 pairs and at 8x the text before the reader's first budget
    # read; a set of every pair rank peaked at 9.5x the text over a full read
    g = random_tournament(1000, 5)
    tracemalloc.start()
    try:
        text = serialize_tournament(g)
        written = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]  # the text itself
        with pytest.raises(BudgetError, match="tournament reader"), budget(0):
            parse_tournament(text)
        read = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        assert parse_tournament(text).bits == g.bits
        parsed = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 1 + comb(1000, 2)
    assert written < 3 * len(text)
    assert read < len(text)
    assert parsed < len(text)


def test_every_admissible_singleton_teacher_recovers_some_tournament():
    # exhaustive over n <= 3: any admissible balanced order-1 teacher on a
    # tournament class recovers a tournament inducing the same concept set,
    # and each distinct set admits exactly two such teachers (g and its
    # reversal both induce it)
    for n in (2, 3):
        seen: set[frozenset[int]] = set()
        for g in all_tournaments(n):
            key = frozenset(class2(g).masks)
            if key in seen:
                continue
            seen.add(key)
            k = class2(g)
            insts = sorted(list(range(1, n + 1)) * 2)
            hits = 0
            for assign in set(itertools.permutations(insts)):
                t = NCTeacher(k, tuple(frozenset({x}) for x in assign))
                if not is_nc_teacher(t):
                    continue
                back = recover_tournament(k, t)
                assert frozenset(class2(back).masks) == key
                hits += 1
            assert hits == 2


def test_tournament_serialization_round_trip():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(2, 7)
        g = random_tournament(n, rng.getrandbits(16))
        back = parse_tournament(serialize_tournament(g))
        assert back.n == g.n and back.bits == g.bits
        assert serialize_tournament(back) == serialize_tournament(g)


@pytest.mark.parametrize(
    "text",
    [
        "1 2\n",  # missing header
        "n=3\n1 2\n1 3\n",  # pair (2, 3) unoriented
        "n=3\n1 2\n2 1\n1 3\n2 3\n",  # both orientations given
        "n=3\n1 2\n1 3\n2 3\n2 3\n",  # duplicate edge
        "n=3\n1 2\n1 3\n3 4\n",  # player out of range
        "n=3\n1 1\n1 3\n2 3\n",  # loop
        "n=0\n",  # empty domain
    ],
)
def test_parse_tournament_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_tournament(text)


@pytest.mark.parametrize("n", [0, -1])
def test_builders_refuse_fewer_than_one_player(n):
    for build in (linear_tournament, lambda n: random_tournament(n, 0),
                  lambda n: next(all_tournaments(n))):
        with pytest.raises(ValueError, match="^need at least one player$"):
            build(n)


def test_all_tournaments_counts():
    assert sum(1 for _ in all_tournaments(2)) == 2
    assert sum(1 for _ in all_tournaments(3)) == 8
    assert sum(1 for _ in all_tournaments(4)) == 64


def test_class2_distinct_set_counts():
    # the map g -> class2(g) is not injective: reversing a 3-player
    # tournament yields the same six concepts in a different order
    for n, expect in ((2, 1), (3, 4)):
        seen = {frozenset(class2(g).masks) for g in all_tournaments(n)}
        assert len(seen) == expect
