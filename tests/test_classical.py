"""Classical teaching dimensions: TD, TD_min, TD_max, RTD.

The half-interval class (class2 of the linear tournament) is the worked
anchor: over [3] it is {000, 100, 110, 111, 011, 001} and every concept
has teaching dimension 2.
"""

import hashlib
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachlab import classical
from teachlab import (
    BudgetError,
    Concept,
    ConceptClass,
    budget,
    class1,
    class2,
    is_teaching_set,
    linear_tournament,
    nctd,
    pattern_report,
    random_tournament,
    rtd,
    rtd_bruteforce,
    td_max,
    td_min,
    td_of,
    teaching_report,
)

from oracles import brute_rtd, brute_td, brute_td_max, brute_td_min, isolating

HALF_INTERVALS_3 = ConceptClass.from_masks([0, 1, 3, 7, 6, 4], 3)


def test_half_interval_anchor_values():
    rep = teaching_report(HALF_INTERVALS_3)
    assert rep.sizes == (2, 2, 2, 2, 2, 2)
    assert rep.td_min == 2 and rep.td == 2
    assert td_min(HALF_INTERVALS_3) == 2
    assert td_max(HALF_INTERVALS_3) == 2
    assert rtd(HALF_INTERVALS_3) == 2


def test_td_of_full_concept_witness():
    size, witness = td_of(HALF_INTERVALS_3, Concept.from_string("111"))
    assert size == 2
    assert witness == frozenset({1, 3})


def test_half_interval_class_is_class2_of_linear():
    assert class2(linear_tournament(3)).masks == HALF_INTERVALS_3.masks


def test_witnesses_are_teaching_sets_and_lex_least():
    rep = teaching_report(HALF_INTERVALS_3)
    masks = list(HALF_INTERVALS_3.masks)
    for i, c in enumerate(HALF_INTERVALS_3):
        assert is_teaching_set(HALF_INTERVALS_3, c, rep.witnesses[i])
        assert (rep.sizes[i], rep.witnesses[i]) == brute_td(masks, i, 3)


def test_singleton_class_td_zero():
    k = ConceptClass.from_masks([5], 3)
    assert td_of(k, Concept(3, 5)) == (0, frozenset())
    assert td_min(k) == 0 and td_max(k) == 0
    assert rtd(k) == 0


def test_two_concepts():
    k = ConceptClass.from_masks([0b00, 0b01], 2)
    # they differ exactly on instance 1
    assert td_of(k, Concept(2, 0)) == (1, frozenset({1}))
    assert rtd(k) == 1


def test_powerset_has_td_n():
    n = 3
    k = ConceptClass.from_masks(range(1 << n), n)
    # any proper subset of the domain leaves two concepts agreeing on it
    assert td_min(k) == n and td_max(k) == n
    assert rtd(k) == n


def _empty_and_singletons(n: int) -> ConceptClass:
    return ConceptClass.from_masks([0] + [1 << i for i in range(n)], n)


def test_td_max_needs_no_call_depth(shallow_stack):
    # the empty concept is taught only by the whole domain
    assert td_max(_empty_and_singletons(300)) == 300


def test_td_of_needs_no_call_depth(shallow_stack):
    size, witness = td_of(_empty_and_singletons(150), Concept(150, 0))
    assert size == 150 and witness == frozenset(range(1, 151))


def test_lex_least_witnesses_come_from_one_search():
    # one search per witness: a pick that leaves more disjoint masks than
    # picks is dropped at its first such mask, so each singleton's witness
    # costs about one pass over its masks
    start = time.monotonic()
    rep = teaching_report(_empty_and_singletons(400))
    assert time.monotonic() - start < 3.0
    assert rep.sizes == (400,) + (1,) * 400
    singletons = tuple(frozenset({x}) for x in range(1, 401))
    assert rep.witnesses == (frozenset(range(1, 401)),) + singletons


def _report_inputs():
    rng = random.Random(20261018)
    for _ in range(1500):
        n = rng.randint(1, 7)
        size = rng.randint(1, min(20, 1 << n))
        yield ConceptClass.from_masks(rng.sample(range(1 << n), size), n)
    for n in range(8, 17):
        for seed in range(5):
            yield class2(random_tournament(n, seed))
    yield _empty_and_singletons(150)


def test_teaching_report_outputs_match_recorded_digest():
    # recorded when the hitting-set kernel still took a mask of allowed
    # instances: sizes and lex-least witnesses must not change
    h = hashlib.sha256()
    count = 0
    for k in _report_inputs():
        rep = teaching_report(k)
        h.update(repr((rep.sizes, [sorted(w) for w in rep.witnesses])).encode() + b"\n")
        count += 1
    assert count == 1546
    assert h.hexdigest() == "745541e668ebdabc345a3f88ae712d673d83b8ef582a985b8ab39d9c4942fe54"


@pytest.mark.parametrize("fn", [td_min, td_max, teaching_report, rtd, rtd_bruteforce])
def test_empty_class_is_refused(fn):
    with pytest.raises(ValueError):
        fn(ConceptClass(3, ()))


def test_rtd_of_empty_class_names_rtd():
    with pytest.raises(ValueError, match="rtd of an empty class"):
        rtd(ConceptClass(3, ()))


def _cross_check_inputs():
    for n, seeds in ((24, (0, 1)), (32, (0, 1)), (48, (0,))):
        for s in seeds:
            g = random_tournament(n, s)
            yield class1(g)
            yield class2(g)
    rng = random.Random(20261018)
    for _ in range(40):
        yield _random_class(rng, n_max=10, size_max=40)[0]


def test_report_agrees_with_per_concept_hitting_sets():
    # the report (cell splitting) and td_of (hitting sets) share no search code
    for k in _cross_check_inputs():
        rep = teaching_report(k)
        per_concept = [td_of(k, c) for c in k]
        assert list(zip(rep.sizes, rep.witnesses)) == per_concept
        assert td_max(k) == max(size for size, _ in per_concept)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rtd_separates_from_nctd_on_tournament_classes(seed):
    # the paper's separation: RTD grows with n on tournament classes while NCTD stays 1
    k = class1(random_tournament(64, seed))
    assert rtd(k) == 3
    assert nctd(k).d == 1


def test_is_teaching_set_requires_membership():
    with pytest.raises(ValueError):
        td_of(HALF_INTERVALS_3, Concept.from_string("010"))


def _random_class(rng: random.Random, n_max: int = 5, size_max: int = 10):
    n = rng.randint(1, n_max)
    size = rng.randint(1, min(size_max, 1 << n))
    return ConceptClass.from_masks(rng.sample(range(1 << n), size), n), n


def test_td_matches_bruteforce_randomized():
    rng = random.Random(20260815)
    for _ in range(150):
        k, n = _random_class(rng, n_max=7, size_max=24)
        masks = list(k.masks)
        rep = teaching_report(k)
        for i in range(len(k)):
            assert (rep.sizes[i], rep.witnesses[i]) == brute_td(masks, i, n)
        assert td_min(k) == brute_td_min(masks, n)
        assert td_max(k) == brute_td_max(masks, n)


def test_td_min_matches_bruteforce_across_lane_widths():
    # td_min's last-level test packs each splitter column in a lane of m+1
    # bits; these counts put lanes and their guard bits on either side of
    # 30-bit digit and 64-bit word edges.  Random live sets hand the same
    # lanes cells of fewer concepts than m.
    rng = random.Random(20261019)
    for m in (2, 3, 29, 30, 31, 59, 60, 61, 63, 64, 65, 127, 128, 129):
        for _ in range(3):
            n = rng.randint((m - 1).bit_length(), 8)
            masks = rng.sample(range(1 << n), m)
            k = ConceptClass.from_masks(masks, n)
            assert td_min(k) == brute_td_min(masks, n)
            live = rng.getrandbits(m) | 1 << rng.randrange(m)
            sub = [c for i, c in enumerate(masks) if live >> i & 1]
            assert classical._easiest(k, live) == brute_td_min(sub, n)
            assert td_min(ConceptClass.from_masks(sub, n)) == brute_td_min(sub, n)


def _peeled_rtd(masks, n):
    # RTD as the teaching plan peels it: remove every concept of least TD
    # within the live class, by the per-concept hitting sets
    live, level = list(masks), 0
    while len(live) > 1:
        k = ConceptClass.from_masks(live, n)
        tds = [td_of(k, c)[0] for c in k]
        least = min(tds)
        level = max(level, least)
        live = [c for c, t in zip(k.masks, tds) if t > least]
    return level


def test_report_and_rtd_match_hitting_sets_across_lane_widths():
    # the leaves of teaching_report and rtd lane-test every later splitter at
    # once, in lanes of (concept count + 1) bits; the per-concept hitting
    # sets and a peel by them share no code with that test
    rng = random.Random(20261020)
    for m in (2, 3, 29, 30, 31, 59, 60, 61, 64, 65, 128, 129):
        n = rng.randint((m - 1).bit_length(), 8)
        masks = rng.sample(range(1 << n), m)
        k = ConceptClass.from_masks(masks, n)
        rep = teaching_report(k)
        for i, c in enumerate(k.concepts):
            assert (rep.sizes[i], rep.witnesses[i]) == td_of(k, c)
        assert rtd(k) == _peeled_rtd(masks, n)


def _plain_splitters(masks, n, live):
    cols, xs, seen = [], [], set()
    for x in range(n):
        h = sum(1 << i for i, c in enumerate(masks) if c >> x & 1) & live
        key = min(h, live ^ h)
        if key and key not in seen:
            seen.add(key)
            cols.append(h)
            xs.append(x + 1)
    return cols, xs


@pytest.mark.parametrize("m, n", [(0, 5), (1, 1), (2, 1), (3, 2), (5, 40), (9, 17), (12, 100),
                                  (8, 24), (16, 8), (37, 23), (100, 7), (129, 65), (300, 9),
                                  (1000, 12)])
def test_splitters_match_a_plain_column_build(m, n):
    # no rows: teaching_report transposes no splitter columns at m = 1
    rng = random.Random(m * 1000 + n)
    masks = []
    while len(masks) < m:
        c = rng.getrandbits(n)
        if c not in masks:
            masks.append(c)
    assert classical._columns(tuple(masks), n) == [
        sum(1 << i for i, c in enumerate(masks) if c >> x & 1) for x in range(n)]
    k = ConceptClass.from_masks(masks, n)
    for live in ((1 << m) - 1, rng.getrandbits(m), rng.getrandbits(m) & rng.getrandbits(m)):
        assert classical._splitters(k, live) == _plain_splitters(masks, n, live)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_td_min_matches_hitting_sets_at_benchmark_scale(seed):
    # the per-concept hitting-set kernel shares no code with the splitting search
    k = class1(random_tournament(64, seed))
    assert td_min(k) == min(td_of(k, c)[0] for c in k)


@pytest.mark.parametrize("seed", [0, 1])
def test_td_min_has_no_smaller_unique_pattern(seed):
    # pattern_report counts traces on every k-set, with no splitting search
    g = random_tournament(96, seed)
    assert not pattern_report(g, td_min(class1(g)) - 1).unique_exists


def test_td_min_stops_at_its_budget_at_large_n():
    k = class1(random_tournament(512, 0))
    start = time.monotonic()
    with pytest.raises(BudgetError):
        with budget(0.5):
            td_min(k)
    assert time.monotonic() - start < 0.5 + 1.0


def test_td_min_stops_at_its_budget_at_n_1024():
    # one lane test here multiplies a 1,024-bit cell into a 1M-bit int, so
    # the budget is read by the bits of lanes handled, not only by frames
    k = class1(random_tournament(1024, 0))
    start = time.monotonic()
    with pytest.raises(BudgetError):
        with budget(0.5):
            td_min(k)
    assert time.monotonic() - start < 0.5 + 1.0


def test_rtd_between_td_min_and_td_max_and_log_bound():
    rng = random.Random(7)
    for _ in range(200):
        k, n = _random_class(rng, n_max=6, size_max=12)
        r = rtd(k)
        assert td_min(k) <= r <= max(td_max(k), td_min(k))
        if len(k) > 1:
            assert r <= math.ceil(math.log2(len(k)))


def test_rtd_equals_subclass_maximum_randomized():
    rng = random.Random(99)
    for _ in range(60):
        k, n = _random_class(rng, n_max=5, size_max=8)
        assert rtd(k) == rtd_bruteforce(k) == brute_rtd(list(k.masks), n)


def test_rtd_bruteforce_takes_fifteen_concepts():
    # 2^15 subclasses: only the search budget bounds the oracle's size
    masks = random.Random(15).sample(range(1 << 5), 15)
    k = ConceptClass.from_masks(masks, 5)
    assert rtd_bruteforce(k) == rtd(k) == brute_rtd(masks, 5)


def _least_hitting_set(masks, n):
    for s in range(n + 1):
        for subset in itertools.combinations(range(n), s):
            chosen = sum(1 << x for x in subset)
            if all(m & chosen for m in masks):
                return s, chosen
    return None


def test_lex_first_hit_decides_and_witnesses_at_every_size():
    # the one hitting-set search: None below the least size, the lex-least
    # set at it, and some hitting set of at most s instances above it
    rng = random.Random(20261019)
    for _ in range(600):
        n = rng.randint(1, 8)
        masks = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(rng.randint(0, 12))]
        if rng.random() < 0.7:
            masks = [m for m in masks if m]
        least = _least_hitting_set(masks, n)
        for s in range(n + 1):
            found = classical._lex_first_hit(masks, s)
            if least is None or s < least[0]:
                assert found is None, (masks, n, s)
            elif s == least[0]:
                assert found == least[1], (masks, n, s)
            else:
                assert found is not None and found.bit_count() <= s, (masks, n, s)
                assert all(m & found for m in masks), (masks, n, s)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 2**n - 1), min_size=1,
                                             max_size=8, unique=True))))
def test_minimal_witness_no_smaller_isolating_subset(args):
    n, masks = args
    k = ConceptClass.from_masks(masks, n)
    rep = teaching_report(k)
    for i in range(len(masks)):
        s = rep.sizes[i]
        assert isolating(masks, i, tuple(x - 1 for x in rep.witnesses[i]))
        if s:
            assert not any(
                isolating(masks, i, sub)
                for sub in itertools.combinations(range(n), s - 1)
            )
