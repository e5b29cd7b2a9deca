"""No-clash teachers and the no-clash teaching dimension.

Two concepts clash under an assignment when they agree on the union of
their assigned sets; a teacher is admissible when no pair clashes.  The
dimension NCTD(k) is the least order any admissible teacher can have.
"""

import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachlab import (
    BudgetError,
    Concept,
    ConceptClass,
    FormatError,
    NCTeacher,
    all_tournaments,
    budget,
    clash,
    class1,
    class2,
    decide_order,
    instances_to_mask,
    is_nc_teacher,
    ksz_bound,
    linear_tournament,
    mask_to_instances,
    nctd,
    nctd_lower_bound,
    normalize_teacher,
    parse_teacher,
    random_tournament,
    serialize_class,
    serialize_teacher,
)
from teachlab import errors, ncteach
from teachlab.cli import EXIT_BUDGET, main
from teachlab.ncteach import _carrier_groups, _greedy_order1, _lone_carriers_refute, _trace_cells

from oracles import brute_nctd


def _c(bits: str) -> Concept:
    return Concept.from_string(bits)


def test_clash_agreement_outside_union_still_clashes():
    # sets both {3}; the concepts agree there even though they differ on 1, 2
    assert clash(_c("100"), _c("010"), {3}, {3}) is True


def test_clash_separated_by_own_sets():
    assert clash(_c("100"), _c("010"), {1}, {2}) is False


def test_complementary_concepts_never_clash():
    assert clash(_c("101"), _c("010"), {2}, {2}) is False
    # any nonempty union separates complements
    for s in ({1}, {3}, {1, 2, 3}):
        assert clash(_c("101"), _c("010"), s, set()) is False


def test_clash_identical_concepts_rejected():
    with pytest.raises(ValueError):
        clash(_c("110"), _c("110"), {1}, {2})


def test_clash_empty_sets_always_clash():
    assert clash(_c("100"), _c("010"), set(), set()) is True


def test_is_nc_teacher_canonical_example():
    k = ConceptClass.from_masks([0b00, 0b01, 0b11], 2)
    t = NCTeacher(k, (frozenset({1}), frozenset({1, 2}), frozenset({2})))
    assert is_nc_teacher(t)


def test_is_nc_teacher_all_empty_fails_on_two_concepts():
    k = ConceptClass.from_masks([0b00, 0b01], 2)
    t = NCTeacher(k, (frozenset(), frozenset()))
    assert not is_nc_teacher(t)


def test_is_nc_teacher_full_domain_sets_always_admissible():
    # with every set = [n], clash would need two equal concepts
    k = ConceptClass.from_masks([0, 1, 2, 3], 2)
    full = frozenset({1, 2})
    t = NCTeacher(k, (full,) * 4)
    assert is_nc_teacher(t)


def test_teacher_shape_validation():
    k = ConceptClass.from_masks([0, 1], 2)
    with pytest.raises(ValueError):
        NCTeacher(k, (frozenset({1}),))
    with pytest.raises(ValueError):
        NCTeacher(k, (frozenset({3}), frozenset()))


def test_normalize_pads_to_exact_size_and_keeps_admissibility():
    k = class2(linear_tournament(3))
    res = nctd(k)
    assert res.d == 1
    for d in (1, 2, 3):
        t = normalize_teacher(res.teacher, d)
        assert all(len(s) == d for s in t.sets)
        assert is_nc_teacher(t)


def test_normalize_rejects_bad_orders():
    k = class2(linear_tournament(3))
    t = nctd(k).teacher
    with pytest.raises(ValueError):
        normalize_teacher(t, 0)
    with pytest.raises(ValueError):
        normalize_teacher(t, 4)


def test_nctd_singleton_class_is_zero():
    k = ConceptClass.from_masks([0b101], 3)
    res = nctd(k)
    assert res.status == "exact" and res.d == 0
    assert res.teacher.sets == (frozenset(),)
    # an empty class has the empty teacher, but no dimension
    assert decide_order([], 3, 1) == []
    with pytest.raises(ValueError, match="empty class"):
        nctd(ConceptClass.from_masks([], 3))


def test_nctd_counting_lower_bound():
    # over [5]: 2^1 * C(5,1) = 10 < 24 <= 2^2 * C(5,2) = 40
    k = ConceptClass.from_masks(range(24), 5)
    assert nctd_lower_bound(k) == 2
    # the bound is bounds.ksz_bound's, at every size of class over [n], n <= 10
    for n in range(1, 11):
        for m in range(1, (1 << n) + 1):
            least = min(d for d in range(n + 1) if ksz_bound(n, d) >= m)
            assert nctd_lower_bound(ConceptClass.from_masks(range(m), n)) == least, (n, m)


def test_nctd_matches_bruteforce_on_small_classes():
    rng = random.Random(20260815)
    for _ in range(40):
        n = rng.randint(1, 3)
        size = rng.randint(1, min(6, 1 << n))
        k = ConceptClass.from_masks(rng.sample(range(1 << n), size), n)
        res = nctd(k)
        assert res.status == "exact"
        assert res.d == brute_nctd(list(k.masks), n)
        assert is_nc_teacher(res.teacher)
        assert res.teacher.order <= res.d


def test_nctd_at_most_two_power_d_concepts_share_a_set():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 4)
        size = rng.randint(2, min(10, 1 << n))
        k = ConceptClass.from_masks(rng.sample(range(1 << n), size), n)
        res = nctd(k)
        t = normalize_teacher(res.teacher, res.d)
        by_set: dict[frozenset[int], int] = {}
        for s in t.sets:
            by_set[s] = by_set.get(s, 0) + 1
        # concepts sharing a set must pairwise differ on it
        assert all(v <= 2 ** res.d for v in by_set.values())


def test_concepts_whose_sets_fit_in_a_d_plus_1_set_differ_on_it():
    # the lemma behind decide_order's trace count, checked on solved teachers
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 6)
        size = rng.randint(1, min(24, 1 << n))
        k = ConceptClass.from_masks(rng.sample(range(1 << n), size), n)
        res = nctd(k)
        smasks = normalize_teacher(res.teacher, res.d).set_masks()
        for dset in itertools.combinations(range(1, n + 1), res.d + 1):
            dmask = instances_to_mask(dset, n)
            traces = [c & dmask for c, s in zip(k.masks, smasks) if s & ~dmask == 0]
            assert len(set(traces)) == len(traces)


def _trace_room(masks, n: int, d: int) -> int:
    return sum(len({c & instances_to_mask(dset, n) for c in masks})
               for dset in itertools.combinations(range(1, n + 1), d + 1))


def _unmetered():
    pass


def _tied_refute(masks, n: int, d: int) -> bool:
    return _lone_carriers_refute(list(_trace_cells(masks, n, d, _unmetered)), len(masks), n, d,
                                 _unmetered)


def test_cell_count_matches_counting_traces_by_sets():
    rng = random.Random(909)
    cases = []
    for _ in range(120):
        n = rng.randint(2, 6)
        masks = rng.sample(range(1 << n), rng.randint(1, min(24, 1 << n)))
        cases += [(masks, n, d) for d in range(1, n)]
    cases += [(combo, 4, d) for combo in itertools.combinations(range(16), 8) for d in (1, 2, 3)]
    for masks, n, d in cases:
        cells = sum(len(group[2]) for group in _trace_cells(masks, n, d, _unmetered))
        assert cells == _trace_room(masks, n, d)


def test_cells_are_not_split_when_the_sets_outnumber_the_need():
    # C(16, 7) = 11,440 seven-sets against a need of 2 * 10: the count can
    # neither fall short nor tie, so the 11,440 sets are not walked
    before = _carrier_groups.cache_info()
    assert decide_order([0, 1], 16, 6) is not None
    after = _carrier_groups.cache_info()
    assert after.hits + after.misses == before.hits + before.misses


def test_decide_order_agrees_after_its_carrier_tables_are_evicted():
    # the carrier tables are cached for a few (n, d) pairs only, at least the
    # four that one nc-search pass reads: decide at more pairs than that,
    # then come back to the first; 2n concepts over [n] outnumber the
    # 3-sets, so every decision reads its table
    held = _carrier_groups.cache_info().maxsize
    assert held >= 4
    rng = random.Random(18)
    classes = [(rng.sample(range(1 << n), 2 * n), n) for n in range(4, 6 + held)]
    first = decide_order(*classes[0], 2)
    assert (first is not None) == (brute_nctd(*classes[0]) <= 2)
    for masks, n in classes[1:]:
        decide_order(masks, n, 2)
    assert _carrier_groups.cache_info().currsize <= held
    misses = _carrier_groups.cache_info().misses
    assert decide_order(*classes[0], 2) == first
    assert _carrier_groups.cache_info().misses == misses + 1


def test_decide_order_refutes_exactly_above_brute_force_nctd():
    rng = random.Random(20261018)
    fired = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        size = rng.randint(1, min(10, 1 << n))
        masks = rng.sample(range(1 << n), size)
        least = brute_nctd(masks, n)
        for d in range(n + 1):
            assert (decide_order(masks, n, d) is None) == (least > d)
            if 0 < d < n and size > 1:
                fired += _trace_room(masks, n, d) < size * (n - d)
    # the trace count alone refutes some of these orders
    assert fired > 0


def test_power_set_over_5_is_refuted_at_order_2_by_counting_traces():
    # the size bound 2^2 * C(5, 2) = 40 >= 32 lets order 2 through
    assert decide_order(range(32), 5, 2) is None
    res = nctd(ConceptClass.from_masks(range(32), 5))
    assert (res.status, res.d, res.lower_bound) == ("exact", 3, 3)
    assert is_nc_teacher(res.teacher)
    # the search's first witness: fewest survivors first, ties by concept
    # order, candidates in lexicographic order
    assert res.teacher.set_masks() == (
        7, 7, 13, 25, 11, 11, 19, 21, 11, 13, 21, 7, 7, 19, 25, 25,
        19, 21, 25, 11, 21, 25, 7, 7, 25, 25, 7, 19, 28, 7, 11, 13)


def _decide_order_inputs():
    rng = random.Random(12111)
    for _ in range(3000):
        n = rng.randint(1, 5)
        masks = rng.sample(range(1 << n), rng.randint(1, min(16, 1 << n)))
        for d in range(n + 1):
            yield masks, n, d
    for n in range(3, 17):
        for seed in range(3):
            g = random_tournament(n, seed)
            for k in (class1(g), class2(g)):
                for d in (1, 2):
                    yield list(k.masks), n, d
    for combo in itertools.combinations(range(16), 8):
        yield list(combo), 4, 1


def test_decide_order_outputs_match_recorded_digest():
    # recorded before tied trace counts were refuted by propagation: pruning
    # may change which classes are searched, never a returned teacher
    h = hashlib.sha256()
    count = 0
    for masks, n, d in _decide_order_inputs():
        h.update(repr(decide_order(masks, n, d)).encode() + b"\n")
        count += 1
    assert count == 25058
    assert h.hexdigest() == "90b1ef9baec97ef9de34cef0b985c4b0d9711e8c98dab42dcaea21b0573ebae0"


def test_tied_class_beyond_the_greedy_gets_the_searched_teacher():
    masks = [0, 1, 2, 5, 10, 13, 14, 15]
    assert _greedy_order1(masks, 4) is None
    assert _trace_room(masks, 4, 1) == len(masks) * 3
    assert decide_order(masks, 4, 1) == [1, 4, 2, 8, 8, 2, 4, 1]


def test_lone_carriers_refute_most_tied_classes_over_4():
    tournament_classes = {frozenset(class2(g).masks) for g in all_tournaments(4)}
    tied = refuted = 0
    for combo in itertools.combinations(range(16), 8):
        if _greedy_order1(combo, 4) is not None or _trace_room(combo, 4, 1) != 24:
            continue
        tied += 1
        if _tied_refute(combo, 4, 1):
            refuted += 1
            assert frozenset(combo) not in tournament_classes
    assert (tied, refuted) == (4961, 4704)


def test_carrier_propagation_reads_its_deadline():
    # the greedy fails and the count ties on this shuffled tournament class,
    # so the propagation runs, over 1,035 (d+1)-sets: it reads the budget
    # at its first set and every 1,024, before the search can start
    masks = list(class2(random_tournament(46, 0)).masks)
    random.Random(0).shuffle(masks)
    assert _greedy_order1(masks, 46) is None
    assert _trace_room(masks, 46, 1) == len(masks) * 45
    with pytest.raises(BudgetError, match="order-1 carrier propagation hit its deadline"):
        with budget(0):
            decide_order(masks, 46, 1)


def test_steps_before_the_order1_search_read_the_budget():
    # the greedy fails on this shuffled order; before the search, the trace
    # count's tables and vectors over 44,850 pairs and the carrier
    # propagation's set-up took seconds without reading the budget
    masks = list(class2(random_tournament(300, 0)).masks)
    random.Random(0).shuffle(masks)
    start = time.monotonic()
    with pytest.raises(BudgetError):
        with budget(0.5):
            decide_order(masks, 300, 1)
    assert time.monotonic() - start < 0.5 + 1.0


def test_order1_count_and_propagation_finish_on_600_concepts():
    # the cell walk ties over 44,850 pairs and the propagation refutes
    # nothing, together in about 0.5 s on 2 vCPUs, so only the search can
    # reach the deadline
    masks = list(class2(random_tournament(300, 0)).masks)
    random.Random(0).shuffle(masks)
    with pytest.raises(BudgetError, match="order-1 teacher search hit its deadline"):
        with budget(2):
            decide_order(masks, 300, 1)


def test_order1_search_over_600_concepts_reads_its_budget_every_few_nodes(monkeypatch):
    # a node scans all 600 masks over [300], 180,000 bits, so the search
    # reads the budget every 6 nodes, not every 1,024
    masks = list(class2(random_tournament(300, 0)).masks)
    random.Random(0).shuffle(masks)
    nodes, read_at = 0, []
    steps = ncteach._steps

    def counted_steps(what, bits=0, first=True):
        step = steps(what, bits, first)
        if what != "order-1 teacher search":
            return step

        def counted():
            nonlocal nodes
            nodes += 1
            step()
        return counted

    def read(what):
        if what == "order-1 teacher search":
            read_at.append(nodes)
            if len(read_at) == 20:
                raise BudgetError(f"{what} hit its deadline")

    monkeypatch.setattr(ncteach, "_steps", counted_steps)
    monkeypatch.setattr(errors, "check_budget", read)
    with pytest.raises(BudgetError, match="order-1 teacher search"):
        decide_order(masks, 300, 1)
    assert read_at[0] == 1
    assert max(b - a for a, b in zip(read_at, read_at[1:])) <= 8


def _plain_first_fit(masks, n):
    # concept i takes the first bit from (i mod n) on, cyclically, that no
    # earlier concept agrees with it on together with its own bit
    assign = []
    for i, mi in enumerate(masks):
        for off in range(n):
            bit = 1 << (i + off) % n
            if all((mi ^ mj) & (bit | aj) for mj, aj in zip(masks, assign)):
                assign.append(bit)
                break
        else:
            return None
    return assign


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 2**n - 1), min_size=1,
                                             max_size=min(2**n, 3 * n), unique=True))))
def test_greedy_order1_matches_a_plain_first_fit(args):
    n, masks = args
    assert _greedy_order1(masks, n) == _plain_first_fit(masks, n)


@pytest.mark.parametrize("n", [2, 5, 17, 30, 31, 64, 65])
def test_greedy_order1_matches_a_plain_first_fit_on_tournament_classes(n):
    # lanes of n+1 bits: these put lane edges on either side of 30-bit digits
    rng = random.Random(n)
    for seed in range(3):
        g = random_tournament(n, seed)
        for masks in (list(class1(g).masks), list(class2(g).masks)):
            assert _greedy_order1(masks, n) == _plain_first_fit(masks, n)
            rng.shuffle(masks)
            assert _greedy_order1(masks, n) == _plain_first_fit(masks, n)


def test_tied_classes_agree_with_milp():
    from milp import order_feasible

    for n, expect_refuted in ((5, 145), (6, 144)):
        rng = random.Random(n)
        # shuffled tournament classes tie and are feasible; random tied classes are not
        classes = [rng.sample(list(class2(random_tournament(n, seed)).masks), 2 * n)
                   for seed in range(5)]
        while len(classes) < 155:
            masks = rng.sample(range(1 << n), 2 * n)
            if _trace_room(masks, n, 1) == 2 * n * (n - 1):
                classes.append(masks)
        feasible = refuted = 0
        for masks in classes:
            ok = order_feasible(masks, n, 1)
            assert (decide_order(masks, n, 1) is not None) == ok
            feasible += ok
            refuted += _greedy_order1(masks, n) is None and _tied_refute(masks, n, 1)
        assert (feasible, refuted) == (5, expect_refuted)


def test_milp_oracle_matches_brute_force_nctd():
    from milp import order_feasible

    rng = random.Random(404)
    for _ in range(30):
        n = rng.randint(1, 4)
        masks = rng.sample(range(1 << n), rng.randint(1, min(8, 1 << n)))
        least = brute_nctd(masks, n)
        for d in range(n + 1):
            assert order_feasible(masks, n, d) == (least <= d)


def test_deadline_stops_a_long_order2_search(tmp_path):
    # deciding order 2 on this class takes seconds; a node costs 1,024 units
    # plus the bits of the 26 concepts over [5], so the deadline is read every
    # 909 nodes, and a run may overshoot it, by at most slack here
    slack = 1.0
    rng = random.Random(7)
    for _ in range(3):
        masks = rng.sample(range(32), rng.randint(22, 28))
    k = ConceptClass.from_masks(masks, 5)
    assert len(k) == 26
    # two traces to spare: the count does not tie, so only the search runs
    assert _trace_room(k.masks, 5, 2) == 26 * 3 + 2
    start = time.monotonic()
    with budget(0.5):
        res = nctd(k)
    assert 0.5 <= time.monotonic() - start < 0.5 + slack
    assert (res.status, res.d, res.teacher, res.lower_bound) == ("timeout", None, None, 2)
    path = tmp_path / "slow.cls"
    path.write_text(serialize_class(k), encoding="ascii")
    start = time.monotonic()
    assert main(["nctd", "--class", str(path), "--timeout", "0.5"]) == EXIT_BUDGET
    assert 0.5 <= time.monotonic() - start < 0.5 + slack


def test_decide_order_stack_depth_does_not_grow_with_class_size(shallow_stack):
    masks = random.Random(1500).sample(range(1 << 11), 1500)
    sol = decide_order(masks, 11, 11)
    k = ConceptClass.from_masks(masks, 11)
    assert is_nc_teacher(NCTeacher(k, tuple(mask_to_instances(s) for s in sol)))
    # memory does not grow with the square of the class size either; ru_maxrss is in KB on Linux
    probe = (
        "import random, resource\n"
        "from teachlab import decide_order\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "masks = random.Random(1500).sample(range(1 << 11), 1500)\n"
        "assert decide_order(masks, 11, 11) is not None\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    # a process inherits its parent's peak across exec, so the probe runs
    # under a small launcher rather than directly under this large process
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-c", probe], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) < 16 * 1024


def _permute_mask(mask: int, perm: list[int], n: int) -> int:
    out = 0
    for i in range(n):
        if mask >> i & 1:
            out |= 1 << perm[i]
    return out


def test_nctd_invariant_under_permutation_and_complement():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 4)
        size = rng.randint(2, min(8, 1 << n))
        masks = rng.sample(range(1 << n), size)
        base = nctd(ConceptClass.from_masks(masks, n)).d
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [_permute_mask(m, perm, n) for m in masks]
        assert nctd(ConceptClass.from_masks(permuted, n)).d == base
        flipped = [m ^ ((1 << n) - 1) for m in masks]
        assert nctd(ConceptClass.from_masks(flipped, n)).d == base


def test_nctd_respects_d_max():
    k = ConceptClass.from_masks(range(16), 4)
    res = nctd(k, d_max=1)
    assert res.status == "exceeds_d_max"
    assert res.teacher is None
    assert res.d is None
    for d_max in (-1, 5):
        with pytest.raises(ValueError, match="d_max must lie in 0..4"):
            nctd(k, d_max=d_max)


def test_teacher_serialization_round_trip():
    k = class2(linear_tournament(4))
    res = nctd(k)
    text = serialize_teacher(res.teacher)
    back = parse_teacher(text)
    assert back.k.masks == k.masks
    assert back.sets == res.teacher.sets
    assert serialize_teacher(back) == text


def test_teacher_header_carries_order():
    k = class2(linear_tournament(3))
    t = normalize_teacher(nctd(k).teacher, 2)
    text = serialize_teacher(t)
    assert text.splitlines()[0] == "n=3 d=2"


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "n=3\n000 :\n",  # missing d
        "n=3 d=1\n000 : 4\n",  # instance out of range
        "n=3 d=1\n00 : 1\n",  # width mismatch
        "n=3 d=1\n000 : 1\n000 : 2\n",  # duplicate concept
        "n=3 d=1\n000 1\n",  # missing separator
    ],
)
def test_parse_teacher_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_teacher(text)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 2**n - 1), min_size=2,
                                             max_size=6, unique=True))))
def test_nctd_teacher_is_always_admissible(args):
    n, masks = args
    res = nctd(ConceptClass.from_masks(masks, n))
    assert res.status == "exact"
    assert is_nc_teacher(res.teacher)
    # minimality: no admissible teacher of smaller order exists
    if res.d > 0:
        assert brute_nctd(masks, n) == res.d
