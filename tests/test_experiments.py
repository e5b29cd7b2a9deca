"""Experiment drivers: threshold scans, dimension-1 verification, searches.

The scans work in exact rational or log-space arithmetic so that the
reported onsets are decisions, not float artifacts.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from teachlab import experiments
from teachlab import (
    BudgetError,
    ExperimentConfig,
    all_tournaments,
    budget,
    claim_check,
    claim_scan,
    class1,
    class2,
    linear_tournament,
    max_class_search,
    nctd,
    pattern_count,
    pattern_report,
    random_tournament,
    run_tdmin_experiment,
    tau_estimate,
    td_min,
    threshold_k,
    verify_dim1,
)

from oracles import brute_nctd, least_image, pattern_unique_exists, permuted


def test_threshold_k_frozen_value():
    t = threshold_k(1 << 20)
    assert t.k_prime == pytest.approx(7.215365154442479, abs=1e-12)
    assert t.k == 7


def test_threshold_k_negative_for_small_n():
    t = threshold_k(16)
    assert t.k_prime < 0 and t.k == -5
    with pytest.raises(ValueError):
        threshold_k(1)


def test_threshold_k_shift_moves_threshold_down():
    base = threshold_k(1 << 20, shift=4).k_prime
    assert threshold_k(1 << 20, shift=5).k_prime == pytest.approx(base - 1)


def test_claim_check_at_8192():
    cc = claim_check(1 << 13)
    assert cc.k == 1 and cc.defined
    assert cc.ineq1 and cc.ineq2 and cc.sufficient and cc.holds
    assert cc.cor_k == 0 and cc.cor_defined


def test_claim_check_undefined_when_k_below_one():
    cc = claim_check(2048)
    assert cc.k == -1
    assert not cc.defined and not cc.holds and not cc.cor_holds


def test_claim_check_ineq1_is_exact_rational():
    # (n - k) / 2^(k+1) >= 2 decided without floats
    cc = claim_check(1 << 13)
    assert Fraction(cc.n - cc.k, 1 << (cc.k + 1)) >= 2


def test_claim_scan_onsets():
    sc = claim_scan()
    assert sc.limit == 1 << 40
    assert sc.n0 == 3072
    assert sc.cor_n0 == 6144
    # grid contains powers of two and their 1.5 multiples
    ns = [r.n for r in sc.records]
    assert ns == sorted(ns)
    assert 3072 in ns and 6144 in ns and (1 << 40) in ns


def test_claim_scan_onset_requires_stable_suffix():
    # 3072 is the onset only once the scan reaches far enough to see it hold
    sc = claim_scan(4096)
    assert sc.n0 == 3072
    assert sc.cor_n0 is None
    assert claim_scan(2048).n0 is None


def test_sufficient_implies_inequalities_across_grid():
    for rec in claim_scan(1 << 24).records:
        if rec.sufficient:
            assert rec.defined and rec.ineq1 and rec.ineq2
        if rec.cor_sufficient:
            assert rec.cor_defined and rec.cor_ineq1 and rec.cor_ineq2


def test_pattern_count_empty_sample_counts_everything():
    g = linear_tournament(5)
    assert pattern_count(g, set(), []) == 5


def test_pattern_counts_partition_the_class():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 7)
        g = random_tournament(n, rng.getrandbits(16))
        k = rng.randint(0, n)
        s = set(rng.sample(range(1, n + 1), k))
        total = 0
        for b in range(1 << k):
            bits = [(b >> i) & 1 for i in range(k)]
            total += pattern_count(g, s, bits)
        assert total == n


def test_pattern_count_validates_input():
    g = linear_tournament(3)
    with pytest.raises(ValueError):
        pattern_count(g, {1}, [0, 1])
    with pytest.raises(ValueError):
        pattern_count(g, {1}, [2])


def test_pattern_report_matches_oracle_and_td_min():
    rng = random.Random(20260815)
    for _ in range(25):
        n = rng.randint(2, 9)
        g = random_tournament(n, rng.getrandbits(16))
        k1 = class1(g)
        masks = list(k1.masks)
        for k in range(0, min(n, 4) + 1):
            rep = pattern_report(g, k)
            assert rep.unique_exists == pattern_unique_exists(masks, n, k)
            assert rep.unique_exists == (td_min(k1) <= k)


def test_pattern_report_min_count_zero_means_unrealized_pattern():
    g = linear_tournament(4)
    rep = pattern_report(g, 2)
    assert rep.min_count == 0
    assert rep.min_realized >= 1
    assert rep.unique_exists


def test_verify_dim1_n2():
    rep = verify_dim1(2)
    assert rep.candidates == 1
    assert rep.passing == rep.expected
    assert len(rep.passing) == 1
    assert rep.complement_closed and rep.ok


def test_verify_dim1_n3_distinct_sets():
    rep = verify_dim1(3)
    assert rep.candidates == 28
    assert len(rep.passing) == 4
    assert rep.passing == rep.expected
    assert rep.ok
    # every tournament's class lands in the verified collection
    for g in all_tournaments(3):
        assert frozenset(class2(g).masks) in rep.passing


def test_verify_dim1_budget():
    with pytest.raises(BudgetError):
        verify_dim1(5)


@pytest.mark.parametrize("n", [0, -3])
def test_verify_dim1_rejects_n_below_1(n):
    with pytest.raises(ValueError, match="need n >= 1"):
        verify_dim1(n)


# every (n, d, size) that verify_dim1 and max_class_search enumerate at n <= 4,
# plus every size at order 1 over [4], the order-2 sizes 13-16 and the power
# set at order 3 over [4], and every size at every order over [3], so that the
# scan's size filter and both byte-table paths meet every popcount
@pytest.mark.parametrize("n, d, size", [(1, 1, 2), (2, 1, 4)]
                         + [(4, 1, size) for size in range(1, 17)]
                         + [(4, 2, 13), (4, 2, 14), (4, 2, 15), (4, 2, 16), (4, 3, 16)]
                         + [(3, d, size) for d in (1, 2, 3) for size in range(1, 9)])
def test_decided_classes_match_a_decision_per_class(n, d, size):
    plain = [(combo, experiments.decide_order(list(combo), n, d) is not None)
             for combo in itertools.combinations(range(1 << n), size)]
    decided = experiments._decided_classes(n, d, size)
    assert decided == (len(plain), [c for c, ok in plain if ok])


def test_byte_table_gives_every_translation_of_a_class_mask():
    # the table's images of class mask key: one row below n = 4, and at n = 4
    # the pairs of entries of the rows of its two bytes, in both byte orders
    def table_images(n, key):
        rows = experiments._cube_walk(n)[1]
        if n < 4:
            return set(rows[key])
        pairs = list(zip(rows[key & 255], rows[key >> 8]))
        return {hi << 8 | lo for lo, hi in pairs} | {lo << 8 | hi for lo, hi in pairs}

    # and each image built concept by concept: the sum of 1 << (c ^ v) over
    # the concepts c of the class, for every v < 2^n
    def translations(n, key):
        concepts = [c for c in range(1 << n) if key >> c & 1]
        return {sum(1 << (c ^ v) for c in concepts) for v in range(1 << n)}

    for n in (1, 2, 3):
        for key in range(1 << (1 << n)):
            assert table_images(n, key) == translations(n, key)
    rng = random.Random(17)
    for key in [0, 1, 0xFF, 0xFF00, 0xFFFF] + rng.sample(range(1 << 16), 3000):
        assert table_images(4, key) == translations(4, key)


def test_translating_a_class_keeps_its_nctd():
    # XORing every concept with one mask keeps every c ^ c', and a clash reads
    # only c ^ c' and the union of the two sets
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        masks = rng.sample(range(1 << n), rng.randint(1, min(7, 1 << n)))
        least = brute_nctd(masks, n)
        for v in rng.sample(range(1 << n), min(3, 1 << n)):
            moved = [c ^ v for c in masks]
            assert brute_nctd(moved, n) == least
            for d in range(n + 1):
                assert (experiments.decide_order(moved, n, d) is None) == (least > d)


def test_permuting_and_translating_a_class_keeps_its_nctd():
    # permuting the instances maps each set S to its image and XORing every
    # concept with one mask keeps every c ^ c', so every clash is kept
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 4)
        masks = rng.sample(range(1 << n), rng.randint(1, min(7, 1 << n)))
        least = brute_nctd(masks, n)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            v = rng.randrange(1 << n)
            moved = [permuted(c, perm) ^ v for c in masks]
            assert brute_nctd(moved, n) == least
            for d in range(n + 1):
                assert (experiments.decide_order(moved, n, d) is None) == (least > d)


def test_verify_dim1_decides_once_per_symmetry_orbit(monkeypatch):
    # 12,870 classes of 8 concepts over [4] fall into 74 orbits of the cube
    # group, each decided by one call
    calls = []
    decide = experiments.decide_order

    def counting(masks, n, d):
        calls.append(len(masks))
        return decide(masks, n, d)

    monkeypatch.setattr(experiments, "decide_order", counting)
    rep = verify_dim1(4)
    assert rep.candidates == 12870 and rep.ok
    assert len(calls) == 74
    calls.clear()
    assert max_class_search(4, 1).size == 8
    assert len(calls) == 74  # size 8 only: no greedy at n <= 4
    calls.clear()
    assert verify_dim1(3).candidates == 28
    assert len(calls) == 3


def test_enumeration_outputs_match_recorded_digest():
    # every verify_dim1 and max_class_search result at n <= 4, recorded
    # before the enumerations decided once per orbit of the cube group
    out = []
    for n in range(1, 5):
        rep = verify_dim1(n)
        out.append([n, rep.candidates, sorted(sorted(c) for c in rep.passing),
                    sorted(sorted(c) for c in rep.expected), rep.complement_closed])
        for d in range(1, n + 1):
            res = max_class_search(n, d)
            out.append([n, d, res.status, res.size, res.lower, res.upper,
                        [list(w.masks) for w in res.witnesses]])
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "525714fc476e9a5e8536b25dbbb72cb5ea9906739346a76ba88c04f554e5c759"


def test_max_class_witnesses_are_the_least_images_of_the_maximum_classes():
    # a witness is the lexicographically least sorted image of a maximum class
    # under the domain permutations, each permutation applied here concept by
    # concept, and every maximum class has its least image among them
    for n in range(1, 5):
        for d in range(1, n + 1):
            result = max_class_search(n, d)
            witnesses = [w.masks for w in result.witnesses]
            assert all(least_image(w, n) == w for w in witnesses)
            _, maximum = experiments._decided_classes(n, d, result.size)
            assert sorted({least_image(c, n) for c in maximum}) == witnesses


def test_max_class_search_dim1_matches_2n():
    res = max_class_search(3, 1)
    assert res.status == "exact"
    assert res.size == 6 == res.lower == res.upper
    assert len(res.witnesses) >= 1
    for kc in res.witnesses:
        assert nctd(kc).d <= 1
        assert len(kc) == 6


def test_max_class_search_dim2_at_n3_is_full_power_set():
    res = max_class_search(3, 2)
    assert res.status == "exact" and res.size == 8


@pytest.mark.parametrize("n, d", [(3, 3), (4, 4), (5, 3)])
def test_max_class_search_power_set_is_exact(n, d):
    # the greedy takes every concept, so the lower bound meets upper = 2^n
    # and the power set, its own canonical form, is the only witness
    res = max_class_search(n, d)
    assert (res.status, res.size, res.lower, res.upper) == ("exact", 1 << n, 1 << n, 1 << n)
    (kc,) = res.witnesses
    assert kc.masks == tuple(range(1 << n))


def test_max_class_search_inconclusive_over_budget():
    res = max_class_search(5, 1)
    assert res.status == "inconclusive"
    assert res.size is None
    assert res.lower <= res.upper
    # the greedy witness really attains the lower bound at order 1
    (kc,) = res.witnesses
    assert len(kc) == res.lower
    assert nctd(kc).d <= 1


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=1, trials=10, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n=4, trials=0, seed=0)


def test_run_tdmin_experiment_deterministic():
    cfg = ExperimentConfig(n=6, trials=8, seed=42)
    rec_a, sum_a = run_tdmin_experiment(cfg)
    rec_b, sum_b = run_tdmin_experiment(cfg)
    assert rec_a == rec_b and sum_a == sum_b
    assert rec_a[0].seed == 13679457532755275413
    assert [r.trial for r in rec_a] == list(range(8))


def test_run_tdmin_experiment_parallel_equals_serial():
    cfg = ExperimentConfig(n=5, trials=6, seed=7)
    rec_s, sum_s = run_tdmin_experiment(cfg, jobs=1)
    rec_p, sum_p = run_tdmin_experiment(cfg, jobs=2)
    assert rec_s == rec_p and sum_s == sum_p


def test_run_tdmin_experiment_rejects_jobs_below_one():
    cfg = ExperimentConfig(n=6, trials=2, seed=1)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            run_tdmin_experiment(cfg, jobs=jobs)


def test_run_tdmin_experiment_values_are_genuine():
    cfg = ExperimentConfig(n=5, trials=5, seed=11)
    records, summary = run_tdmin_experiment(cfg)

    for r in records:
        g = random_tournament(5, r.seed)
        k1 = class1(g)
        assert r.td_min == td_min(k1)
        assert r.nctd == nctd(k1).d
    assert summary.minimum == min(r.td_min for r in records)
    assert summary.maximum == max(r.td_min for r in records)
    assert summary.mean == pytest.approx(sum(r.td_min for r in records) / 5)


def test_run_tdmin_experiment_budget():
    # no n is refused: the search budget alone stops a run
    with budget(0):
        with pytest.raises(BudgetError):
            run_tdmin_experiment(ExperimentConfig(n=129, trials=1, seed=0))
        with pytest.raises(BudgetError):
            tau_estimate(129, 1, 0, k_override=1)
    (record,), _ = run_tdmin_experiment(ExperimentConfig(n=129, trials=1, seed=0))
    assert record.td_min == td_min(class1(random_tournament(129, record.seed)))
    assert tau_estimate(129, 1, 0, k_override=1).hits == 0
    (record,), _ = run_tdmin_experiment(ExperimentConfig(n=128, trials=1, seed=1))
    assert record.td_min == 3
    assert not pattern_report(random_tournament(128, record.seed), 2).unique_exists


def test_tau_estimate_vacuous_below_one():
    rep = tau_estimate(6, 50, 1)
    assert rep.k < 1 and rep.vacuous
    assert rep.hits == 0 and rep.fraction == 0.0
    assert rep.ci_low == 0.0 and rep.ci_high == 0.0


def test_tau_estimate_override_and_interval():
    rep = tau_estimate(6, 60, 5, k_override=2)
    assert rep.k == 2 and rep.k_source == "override"
    assert not rep.vacuous
    assert 0.0 <= rep.ci_low <= rep.fraction <= rep.ci_high <= 1.0
    # the estimate is reproducible
    assert tau_estimate(6, 60, 5, k_override=2) == rep


def test_tau_estimate_fraction_matches_direct_count():
    from teachlab import stream

    rep = tau_estimate(5, 40, 9, k_override=1)
    hits = 0
    for i in range(40):
        g = random_tournament(5, stream(9, i))
        if td_min(class1(g)) <= 1:
            hits += 1
    assert rep.hits == hits
    assert rep.fraction == pytest.approx(hits / 40)
    assert 0 < rep.hits < 40
