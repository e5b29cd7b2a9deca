"""Extremal families in Johnson graphs.

Vertices of J(n, k) are the k-subsets of [n]; two are adjacent when they
meet in k-1 points.  H_t(n, k) is the largest family with at most t
members inside any (k+1)-subset, i.e. with no narrow (t+1)-clique.
"""

import functools
import hashlib
import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest

from teachlab import (
    BudgetError,
    CliqueClass,
    FormatError,
    KSetFamily,
    budget,
    classify_clique,
    complement_family,
    h_max,
    h_ratio,
    johnson_adjacent,
    narrow_clique_free,
    narrow_cliques,
    parse_family,
    restrict_family,
    serialize_family,
)
from teachlab import johnson

from oracles import brute_h_max, brute_h_witness

# the hard instances near n=7 take seconds each; share them across tests
_h_max = functools.lru_cache(maxsize=None)(h_max)


def test_adjacency():
    assert johnson_adjacent({1, 2}, {1, 3})
    assert not johnson_adjacent({1, 2}, {3, 4})
    assert not johnson_adjacent({1, 2}, {1, 2})
    assert johnson_adjacent({1, 2, 3}, {1, 2, 4})


def test_classify_clique_examples():
    # common intersection of size k-1: wide; union of size k+1: narrow
    assert classify_clique([{1, 2, 3}, {1, 2, 4}, {1, 2, 5}]) is CliqueClass.WIDE
    assert classify_clique([{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}]) is CliqueClass.NARROW
    assert classify_clique([{1, 2, 3}, {1, 2, 4}]) is CliqueClass.BOTH
    assert classify_clique([{1, 2, 3}]) is CliqueClass.NEITHER


def test_classify_clique_every_triangle_is_wide_or_narrow():
    # in any Johnson graph a triangle has a 2-point core or a 4-point span
    n, k = 6, 3
    verts = [frozenset(s) for s in itertools.combinations(range(1, n + 1), k)]
    for a, b, c in itertools.combinations(verts, 3):
        if johnson_adjacent(a, b) and johnson_adjacent(a, c) and johnson_adjacent(b, c):
            assert classify_clique([a, b, c]) in (CliqueClass.WIDE, CliqueClass.NARROW)


def test_classify_clique_rejects_non_cliques():
    with pytest.raises(ValueError):
        classify_clique([])
    with pytest.raises(ValueError):
        classify_clique([{1, 2}, {1, 2}])
    with pytest.raises(ValueError):
        classify_clique([{1, 2}, {3, 4}])


def test_narrow_cliques_enumerates_k_plus_1_subsets():
    for n, k in ((4, 2), (5, 2), (5, 3), (6, 3)):
        cliques = list(narrow_cliques(n, k))
        assert len(cliques) == comb(n, k + 1)
        for q in cliques:
            assert len(q) == k + 1
            assert classify_clique(q) in (CliqueClass.NARROW, CliqueClass.BOTH)


def test_narrow_clique_free_definition():
    f = KSetFamily(4, 2, frozenset({frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}))
    # the triangle {1,2},{1,3},{2,3} sits inside {1,2,3}
    assert not narrow_clique_free(f, 2)
    assert narrow_clique_free(f, 3)


def _scan_clique_free(members, n, k, t):
    return all(sum(1 for a in members if a <= set(d)) <= t
               for d in itertools.combinations(range(1, n + 1), k + 1))


def test_narrow_clique_free_matches_a_plain_scan():
    rng = random.Random(20261019)
    for _ in range(400):
        n = rng.randint(1, 7)
        k = rng.randint(1, n)
        ksets = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
        members = frozenset(rng.sample(ksets, rng.randint(0, len(ksets))))
        for t in range(1, 5):
            assert narrow_clique_free(KSetFamily(n, k, members), t) == \
                _scan_clique_free(members, n, k, t), (n, k, sorted(map(sorted, members)), t)


def test_narrow_clique_free_is_linear_in_the_family():
    # 16,796 of the 184,756 10-sets of [20]: two members inside one 11-set
    # differ by x - y = 11 in their sums, so at most two of them, those
    # missing x and x + 11, fit inside it
    members = frozenset(frozenset(c) for c in itertools.combinations(range(1, 21), 10)
                        if sum(c) % 11 == 0)
    f = KSetFamily(20, 10, members)
    assert len(f) == 16796
    start = time.monotonic()
    assert narrow_clique_free(f, 2)
    assert not narrow_clique_free(f, 1)
    assert time.monotonic() - start < 1.0


FROZEN_H = {
    # (n, k, t): value
    (3, 2, 2): 2,
    (4, 2, 2): 4,
    (5, 2, 2): 6,
    (6, 2, 2): 9,
    (7, 2, 2): 12,
    (6, 3, 2): 10,
    (7, 3, 2): 15,
    (7, 3, 3): 23,
    (7, 4, 2): 14,
    (7, 4, 3): 21,
}


def test_h_max_frozen_values():
    for (n, k, t), want in FROZEN_H.items():
        res = _h_max(n, k, t)
        assert res.status == "exact", (n, k, t)
        assert res.size == want, (n, k, t)
        assert narrow_clique_free(res.witness, t)
        assert len(res.witness.members) == want


# SHA-256 of status, size, lower, upper and witness masks of h_max(n, k, t)
# for every n <= 7 and for (8, 2, 2), recorded from the search that still
# took vertex 0's exclude branch: neither that cut nor the later symmetry
# cuts (at vertex 1, and on leaving vertex j >= 2 with path [0..j-1])
# change any of them
H_MAX_DIGEST = "cba610b1de72a4c9a8a058d64d834ef3d2401555b893c3a60ad2c5ca3b2d27b5"


def test_h_max_results_match_the_search_without_the_vertex_0_cut():
    cases = [(n, k, t) for n in range(1, 8) for k in range(1, n + 1) for t in range(1, k + 1)]
    lines = []
    for n, k, t in cases + [(8, 2, 2)]:
        r = _h_max(n, k, t)
        masks = ",".join(map(str, r.witness.member_masks()))
        lines.append(f"{n} {k} {t} {r.status} {r.size} {r.lower} {r.upper} {masks}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == H_MAX_DIGEST


# the same digest for every (8, k, t); the eight cases that the search does
# not finish in seconds run under budget(0), which pins their greedy family
H_MAX_8_DIGEST = "5a63105fb11f03e8bcc41ec10c4509684ad25f0a5f2a26f37d6fc23505bc128e"
H_MAX_8_GREEDY = {(8, 3, 2), (8, 3, 3), (8, 4, 2), (8, 4, 3), (8, 4, 4),
                  (8, 5, 3), (8, 5, 4), (8, 5, 5)}


def test_h_max_results_at_n_8():
    lines = []
    for k in range(1, 9):
        for t in range(1, k + 1):
            if (8, k, t) in H_MAX_8_GREEDY:
                with budget(0):
                    r = h_max(8, k, t)
            else:
                r = h_max(8, k, t)
            masks = ",".join(map(str, r.witness.member_masks()))
            lines.append(f"8 {k} {t} {r.status} {r.size} {r.lower} {r.upper} {masks}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == H_MAX_8_DIGEST


def test_h_max_degenerate_rows():
    # a single k-set is the whole graph when n = k
    for k in range(1, 7):
        for t in range(1, k + 1):
            assert h_max(k, k, t).size == 1
    # at n = k+1 every pair is adjacent and the one narrow clique is everything
    for k in range(1, 7):
        for t in range(1, k + 1):
            assert h_max(k + 1, k, t).size == t


# closed forms that share no code with the search

def test_h_max_matches_triangle_free_bipartite_count():
    # k = 2, t = 2 forbids triangles; the extremal edge count is floor(n^2/4) (Mantel)
    for n in range(3, 9):
        assert _h_max(n, 2, 2).size == n * n // 4, n


def test_h_max_matches_the_matching_number():
    # k = 2, t = 1: no two edges in one triple, so no two edges meet
    for n in range(2, 13):
        assert h_max(n, 2, 1).size == n // 2, n


def test_h_max_matches_the_pair_packing_number():
    # k = 3, t = 1: no two triples share a pair; the packing number D(n, 3, 2)
    # (Schonheim 1966, Spencer 1968); D(9, 3, 2) = 12
    for n in range(4, 10):
        want = n * ((n - 1) // 2) // 3 - (n % 6 == 5)
        assert h_max(n, 3, 1).size == want, n


def test_h_max_matches_the_turan_number():
    # k = t = 3: the complement of a family hits every 4-set, so
    # H_3(n, 3) = C(n, 3) - T(n, 4, 3), the Turan number
    for n, turan in ((4, 1), (5, 3), (6, 6), (7, 12)):
        assert _h_max(n, 3, 3).size == comb(n, 3) - turan, n


def test_h_max_matches_bruteforce():
    for n in range(2, 6):
        for k in range(1, n + 1):
            for t in range(1, k + 1):
                res = h_max(n, k, t)
                assert res.status == "exact"
                assert res.size == brute_h_max(n, k, t), (n, k, t)


def test_h_max_matches_the_milp():
    # an independent formulation (HiGHS through scipy) past the brute force's reach
    from milp import h_max_size
    cases = [(n, k, t) for n in range(2, 8) for k in range(1, n) for t in range(1, k + 1)]
    for n, k, t in cases + [(8, 2, 2)]:
        assert _h_max(n, k, t).size == h_max_size(n, k, t), (n, k, t)


def test_h_max_backtracks_with_the_symmetry_cuts(monkeypatch):
    # each backtrack is a step of the search's meter, the one made with
    # first=True.  Before the cut at vertex 1 (7,3,2), (7,3,3) and (8,2,2)
    # took 660,050, 3,182,455 and 16,947; before the cut on leaving vertex
    # j >= 2 with path [0..j-1], (7,3,3) took 1,504,443 and (6,3,3) 1,164.
    # Before the orbit cut at every child of vertex 0 replaced the one at
    # vertex 1, (7,3,2), (7,3,3), (8,2,2) and (9,3,1) took 149,117, 956,553,
    # 5,648 and 964,116: at t = 1 the counts block vertex 1, so that cut
    # never fired
    backtracks = 0
    steps = johnson._steps

    def counted_steps(what, bits=0, first=True):
        step = steps(what, bits, first)
        if not first:
            return step

        def counted():
            nonlocal backtracks
            backtracks += 1
            step()
        return counted

    monkeypatch.setattr(johnson, "_steps", counted_steps)
    for case, want in (((7, 3, 2), 145_918), ((7, 3, 3), 956_517), ((6, 3, 3), 734),
                       ((8, 2, 2), 5_630), ((9, 3, 1), 106_651)):
        backtracks = 0
        assert h_max(*case).status == "exact"
        assert backtracks == want, case


def test_vertex_0_stabiliser_orbits_are_the_intersection_sizes():
    # the lemma behind h_max's orbit cut, by brute force: under
    # Sym([k]) x Sym([n] minus [k]) the k-sets meeting [k] in r points form
    # one orbit, and the orbits' colex-first members come in order of
    # falling r
    for n in range(2, 8):
        for k in range(1, n):
            ksets = sorted(itertools.combinations(range(1, n + 1), k), key=lambda a: a[::-1])
            inside, outside = range(1, k + 1), range(k + 1, n + 1)
            orbits = {}
            for a in ksets:
                if any(a in orbit for orbit in orbits.values()):
                    continue
                images = set()
                for p in itertools.permutations(inside):
                    for q in itertools.permutations(outside):
                        image = dict(zip(inside, p)) | dict(zip(outside, q))
                        images.add(tuple(sorted(image[x] for x in a)))
                orbits[a] = images
            for first, orbit in orbits.items():
                r = len(set(first) & set(inside))
                assert orbit == {a for a in ksets if len(set(a) & set(inside)) == r}
            sizes = [len(set(first) & set(inside)) for first in orbits]
            assert sizes == sorted(sizes, reverse=True) == list(range(k, max(0, 2 * k - n) - 1, -1))


def test_h_max_rejects_bad_parameters():
    with pytest.raises(ValueError):
        h_max(2, 1, 2)
    with pytest.raises(ValueError):
        h_max(3, 4, 2)
    with pytest.raises(ValueError):
        h_max(3, 2, 0)


def test_h_max_counting_upper_bound():
    # t members per (k+1)-subset, each k-set inside n-k of them
    for (n, k, t), want in FROZEN_H.items():
        assert want * (n - k) <= t * comb(n, k + 1)


def test_h_max_witness_is_colex_least_for_smallest_case():
    res = h_max(3, 2, 2)
    assert res.witness.members == frozenset({frozenset({1, 2}), frozenset({1, 3})})


def test_h_max_witness_is_the_first_largest_combination():
    # every (n, k, t) with C(n, k) <= 20 up to n = 12; past that only the
    # rows k = 1 and k = n-1 qualify, whose witness is the first t k-sets,
    # and the oracle's scan of the row k = n-1 grows like 2^n
    for n in range(1, 13):
        for k in range(1, n + 1):
            if comb(n, k) > 20:
                continue
            for t in range(1, k + 1):
                res = h_max(n, k, t)
                assert tuple(res.witness.member_masks()) == brute_h_witness(n, k, t), (n, k, t)


def test_h_ratio_values_and_monotonicity():
    assert h_ratio(3, 2, 2) == Fraction(2, 3)
    # the normalized density h = H / C(n, k) is nonincreasing in n
    for k, t, n_hi in ((2, 2, 8), (3, 2, 7), (3, 3, 7), (4, 2, 7), (4, 3, 7)):
        chain = [Fraction(_h_max(n, k, t).size, comb(n, k)) for n in range(k + 1, n_hi + 1)]
        assert chain[0] == h_ratio(k + 1, k, t) == Fraction(t, k + 1)
        assert all(a >= b for a, b in zip(chain, chain[1:])), (k, t, chain)


def test_h_ratio_budget_error_when_inexact():
    with pytest.raises(BudgetError, match=r"^H_2\(14,4\) search hit its deadline with "):
        with budget(0):
            h_ratio(14, 4, 2)


def test_h_max_needs_no_call_depth(shallow_stack):
    # any two singletons fill a 2-set: the greedy takes {1} alone, and its one
    # backtrack would exclude vertex 0, where the search stops with size 1
    res = h_max(150, 1, 1)
    assert res.status == "exact" and res.size == 1
    assert res.witness.members == frozenset({frozenset({1})})


def test_h_max_walks_a_deep_path_with_no_call_depth(shallow_stack):
    # the greedy path of (12, 3, 2) holds 30 vertices, and the search runs
    # on past it until the budget stops it
    with budget(0.2):
        res = h_max(12, 3, 2)
    assert res.status == "inconclusive" and res.size is None
    assert res.lower >= 30 and res.upper == 110


def test_h_max_inconclusive_when_over_limit():
    # the set-up reads no budget before 2^20 units (its 1,001 steps at n = 13
    # take 1,025,024), and no descent reads it, so the first one, the greedy,
    # finishes and the search stops at its first backtrack
    for n, lower, upper in ((12, 30, 110), (13, 36, 143)):
        with budget(0):
            res = h_max(n, 3, 2)
        assert res.status == "inconclusive" and res.size is None
        assert (res.lower, res.upper) == (lower, upper), n
        assert narrow_clique_free(res.witness, 2)
        assert len(res.witness.members) == res.lower


def test_h_max_set_up_stops_at_its_budget():
    # the 184,756 vertices and 167,960 (k+1)-sets of (20, 10) take about a
    # second to build, so the budget stops the set-up; the family found by
    # then, if any, is the lower bound
    start = time.monotonic()
    with budget(0.05):
        res = h_max(20, 10, 2)
    assert time.monotonic() - start < 0.35
    assert res.status == "inconclusive" and res.size is None
    assert len(res.witness.members) == res.lower <= res.upper == 33592


def test_restrict_family_deletes_a_point():
    f = h_max(5, 3, 2).witness
    for i in range(1, 6):
        g = restrict_family(f, i)
        assert g.n == f.n - 1 and g.k == f.k
        assert len(g.members) == sum(1 for s in f.members if i not in s)
        # labels above i shift down; restricting at n is the identity on labels
        want = frozenset(
            frozenset(x if x < i else x - 1 for x in s) for s in f.members if i not in s
        )
        assert g.members == want
    with pytest.raises(ValueError):
        restrict_family(f, 6)
    with pytest.raises(ValueError):
        restrict_family(h_max(3, 3, 1).witness, 1)


def test_restrict_preserves_narrow_clique_freeness():
    rng = random.Random(2)
    for _ in range(30):
        n, k, t = 6, 3, rng.choice([2, 3])
        verts = [frozenset(s) for s in itertools.combinations(range(1, n + 1), k)]
        fam = KSetFamily(n, k, frozenset(rng.sample(verts, rng.randint(1, 12))))
        if not narrow_clique_free(fam, t):
            continue
        i = rng.randint(1, n)
        assert narrow_clique_free(restrict_family(fam, i), t)


def test_complement_family_involution():
    f = h_max(5, 2, 2).witness
    g = complement_family(f)
    assert g.n == 5 and g.k == 3
    assert complement_family(g).members == f.members


def test_family_serialization_round_trip():
    f = h_max(6, 3, 2).witness
    text = serialize_family(f)
    back = parse_family(text, 6)
    assert back.members == f.members and back.k == f.k
    assert serialize_family(back) == text


def test_serialize_family_is_sorted_ascending():
    f = h_max(4, 2, 2).witness
    lines = serialize_family(f).splitlines()
    assert lines == sorted(lines, key=lambda s: tuple(reversed([int(x) for x in s.split()])))
    for line in lines:
        xs = [int(x) for x in line.split()]
        assert xs == sorted(xs)


@pytest.mark.parametrize(
    "text",
    [
        "1 2\n1\n",  # mixed sizes
        "1 1\n",  # repeated element
        "1 9\n",  # out of range for n=4
        "1 2\n1 2\n",  # duplicate member
        "a b\n",  # not integers
    ],
)
def test_parse_family_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_family(text, 4)


def test_parse_family_empty_text_rejected():
    with pytest.raises(FormatError):
        parse_family("", 4)
