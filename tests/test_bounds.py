"""Size bounds for classes of no-clash teaching dimension d.

The starting point is 2^d * C(n, d); packing the heavily used d-sets into
a narrow-clique-free family improves the constant, and Chernoff tails
control how often a random concept lands far from its expected size.
"""

import math
import random
from fractions import Fraction

import pytest

from teachlab import (
    ConceptClass,
    NCTeacher,
    bound_report,
    chernoff_bound,
    corollary_d2_bound,
    default_t,
    gub_bound,
    heavy_sets,
    improved_factor,
    ksz_bound,
    narrow_clique_free,
    nctd,
    normalize_teacher,
    resolve_h,
    sauer_phi,
)

from oracles import binomial_tail


def test_sauer_phi_small_values():
    assert sauer_phi(0, 5) == 1
    assert sauer_phi(1, 3) == 4
    assert sauer_phi(2, 4) == 11
    assert sauer_phi(3, 3) == 8
    with pytest.raises(ValueError):
        sauer_phi(4, 3)


def test_ksz_bound_values():
    assert ksz_bound(4, 1) == 8
    assert ksz_bound(4, 2) == 24
    assert ksz_bound(10, 3) == 960
    with pytest.raises(ValueError):
        ksz_bound(3, 4)


def test_improved_factor_values():
    assert improved_factor(1) == pytest.approx(1.0)
    assert improved_factor(7) == pytest.approx(0.75)
    # 2 sqrt(2/(d+1)) - 2/(d+1) drops below 1 from d = 2 on
    assert improved_factor(2) < 1
    assert all(improved_factor(d) > improved_factor(d + 1) for d in range(2, 30))


def test_default_t_values():
    assert default_t(2) == 2
    assert default_t(7) == 4
    assert all(2 <= default_t(d) <= d for d in range(2, 60))
    with pytest.raises(ValueError):
        default_t(1)


def test_resolve_h_exact_vs_fallback():
    h, kind = resolve_h(4, 2, 2)
    assert kind == "exact" and h == Fraction(4, 6)
    h, kind = resolve_h(30, 2, 2)
    assert kind == "upper-bound" and h == Fraction(2, 3)


def test_gub_bound_exact_rational():
    assert gub_bound(4, 2, 2, h=Fraction(2, 3)) == Fraction(64, 3)
    # h="auto" resolves the density itself
    assert gub_bound(4, 2, 2) == Fraction(64, 3)


def test_gub_bound_rejects_bad_h():
    with pytest.raises(ValueError):
        gub_bound(4, 2, 2, h=Fraction(3, 2))
    with pytest.raises(ValueError):
        gub_bound(4, 2, 2, h=Fraction(-1, 2))
    with pytest.raises(ValueError):
        gub_bound(4, 1, 1)
    # h = 0 is legal and leaves only the narrow-clique term 2/(t+1)
    assert gub_bound(4, 2, 2, h=Fraction(0)) == Fraction(2, 3) * ksz_bound(4, 2)


def test_corollary_d2_values():
    assert corollary_d2_bound(4) == Fraction(64, 3)
    assert corollary_d2_bound(10) == Fraction(460, 3)
    # matches gub with the exact triangle-free density h = n/(2(n-1))
    for n in range(2, 40):
        h = Fraction(n, 2 * (n - 1))
        assert gub_bound(n, 2, 2, h=h) == corollary_d2_bound(n)


def test_gub_below_improved_factor_times_ksz():
    # with the chain density t/(d+1) and the optimizing t
    for d in range(2, 11):
        t = default_t(d)
        for n in range(d, 21):
            g = float(gub_bound(n, d, t, h=Fraction(t, d + 1)))
            assert g <= improved_factor(d) * ksz_bound(n, d) + 1e-12


def test_heavy_sets_threshold_is_strict():
    # order-2 teacher over [4]; multiplicity must exceed 8/3, i.e. be >= 3
    k = ConceptClass.from_masks(range(10), 4)
    res = nctd(k)
    t2 = normalize_teacher(res.teacher, 2)
    fam = heavy_sets(t2, 2)
    from collections import Counter

    mult = Counter(t2.sets)
    want = {s for s, m in mult.items() if m > Fraction(8, 3)}
    assert set(fam.members) == want


def test_heavy_sets_requires_normalized_teacher():
    k = ConceptClass.from_masks([0, 1, 3], 2)
    ragged = NCTeacher(k, (frozenset({1}), frozenset({1, 2}), frozenset({2})))
    with pytest.raises(ValueError):
        heavy_sets(ragged, 2)


def test_heavy_sets_t_range_checked():
    k = ConceptClass.from_masks(range(8), 3)
    t2 = normalize_teacher(nctd(k).teacher, 3)
    with pytest.raises(ValueError):
        heavy_sets(t2, 1)
    with pytest.raises(ValueError):
        heavy_sets(t2, 4)


def test_heavy_sets_narrow_clique_free_randomized():
    rng = random.Random(20260815)
    checked = 0
    for _ in range(60):
        n = rng.randint(3, 5)
        size = rng.randint(2 * n + 1, min(2 * n + 6, 1 << n))
        k = ConceptClass.from_masks(rng.sample(range(1 << n), size), n)
        res = nctd(k)
        if res.d < 2:
            continue
        tt = normalize_teacher(res.teacher, res.d)
        for t in range(2, res.d + 1):
            fam = heavy_sets(tt, t)
            assert narrow_clique_free(fam, t)
            checked += 1
    assert checked >= 10


def test_chernoff_bound_values():
    assert chernoff_bound(0.5, 100, 0.5) == pytest.approx(math.exp(-6.25))
    assert chernoff_bound(0.5, 100, 0.0) == 1.0
    with pytest.raises(ValueError):
        chernoff_bound(0.0, 10, 0.5)
    with pytest.raises(ValueError):
        chernoff_bound(0.5, 10, -0.1)


def test_chernoff_dominates_exact_binomial_tail():
    for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        for m in (5, 10, 20):
            for gamma in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                threshold = (1 + gamma) * p * m
                exact = binomial_tail(p, m, threshold)
                assert float(exact) <= chernoff_bound(float(p), m, float(gamma)) + 1e-15


def test_bound_report_rows_and_degenerate_d1():
    rep = bound_report(10, 3, 2)
    assert rep.ksz == 960 and rep.gub == Fraction(800)
    keys = [k for k, _ in rep.rows()]
    assert keys == ["n", "d", "t", "ksz", "gub", "factor", "h"]
    # d = 1 has no packing step: the report collapses to the base bound
    rep1 = bound_report(6, 1)
    assert rep1.t is None
    assert rep1.gub == rep1.ksz == ksz_bound(6, 1)
    assert rep1.h_kind == "upper-bound" and rep1.h_used == Fraction(1)


def test_bound_report_uses_default_t():
    rep = bound_report(12, 7)
    assert rep.t == default_t(7) == 4
