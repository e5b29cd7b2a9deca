"""The search budget: one deadline that every exact search reads."""

import random
import re

import pytest

from teachlab import (
    BudgetError,
    ConceptClass,
    budget,
    canonical_teacher,
    check_budget,
    claim_scan,
    class1,
    class2,
    decide_order,
    errors,
    h_max,
    is_nc_teacher,
    linear_tournament,
    narrow_clique_free,
    parse_tournament,
    random_tournament,
    rtd,
    serialize_tournament,
    td_min,
    td_of,
    teaching_report,
)


def test_nested_budgets_keep_the_earlier_deadline():
    with budget(0):
        with budget(3600):
            with pytest.raises(BudgetError, match="^probe hit its deadline$"):
                check_budget("probe")
    with budget(3600):
        with budget(0):
            with pytest.raises(BudgetError):
                check_budget("probe")
        # leaving the inner block restores the outer deadline
        check_budget("probe")
    check_budget("probe")


@pytest.mark.parametrize("secs", [float("nan"), -1.0])
def test_budget_refuses_nan_and_negative_seconds(secs):
    with pytest.raises(ValueError, match="seconds >= 0"):
        with budget(secs):
            pass


def _shuffled_class2(n):
    masks = list(class2(random_tournament(n, 0)).masks)
    random.Random(0).shuffle(masks)
    return masks


_K = ConceptClass.from_masks(random.Random(40).sample(range(1 << 10), 20), 10)
_T64 = canonical_teacher(linear_tournament(64))

# each search's first read under an expired budget, and the name it stops under
STOPS = {
    "td_of": (lambda: td_of(_K, _K.concepts[0]), "hitting-set search"),
    "td_min": (lambda: td_min(_K), "teaching-set search"),
    "teaching_report": (lambda: teaching_report(_K), "teaching-set search"),
    "rtd": (lambda: rtd(_K), "teaching-set search"),
    # the greedy fails on this order and defers its first read
    "decide_order-d1": (lambda: decide_order(_shuffled_class2(16), 16, 1),
                        "order-1 carrier propagation"),
    # 560 three-sets outnumber the need, so no cells are split
    "decide_order-d2": (lambda: decide_order([0, 1], 16, 2), "order-2 teacher search"),
    "claim_scan": (lambda: claim_scan(), "claim scan"),
    # the codecs charge each row written and each edge line read
    "serialize_tournament": (lambda: serialize_tournament(linear_tournament(3)),
                             "tournament writer"),
    "parse_tournament": (lambda: parse_tournament("n=2\n1 2\n"), "tournament reader"),
    # 19,900 pair bits take 5 chunks, past the 2 that the deferred first read frees
    "random_tournament": (lambda: random_tournament(200, 0), "random bit stream"),
    # 700 columns of 700 pairs, past the 609 that the deferred first read frees
    "class1": (lambda: class1(linear_tournament(700)), "winner-set builder"),
    # 128 rows of 128 concepts over [64], past the 114 that the deferred first read frees
    "is_nc_teacher": (lambda: is_nc_teacher(_T64), "clash check"),
}


@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("bits", [0, 1000, 1 << 20])
def test_a_meter_reads_its_budget_once_per_block_of_steps(monkeypatch, bits, first):
    # a step costs 1,024 units plus the meter's width, a block of steps spends
    # 2^20 units, and first=False lets one block pass before the first read
    block = -(-(1 << 20) // (1024 + bits))
    step_index, read_at = 0, []
    monkeypatch.setattr(errors, "check_budget", lambda what: read_at.append(step_index))
    step = errors._steps("probe", bits, first)
    for step_index in range(1, 2 * block + 2):
        step()
    assert read_at == [1, block + 1, 2 * block + 1][0 if first else 1:]


@pytest.mark.parametrize("name", sorted(STOPS))
def test_every_search_stops_under_its_own_name(name):
    run, what = STOPS[name]
    with pytest.raises(BudgetError, match=f"^{re.escape(what)} hit its deadline$"):
        with budget(0):
            run()


def test_h_max_reports_its_bounds_when_the_budget_stops_it():
    # h_max raises no BudgetError: it returns the greedy family of 4 edges
    # and the counting bound, and H_2(5, 2) = 6 lies between them
    with budget(0):
        res = h_max(5, 2, 2)
    assert res.status == "inconclusive" and res.size is None
    assert (res.lower, res.upper) == (4, 6)
    assert len(res.witness.members) == 4
    assert narrow_clique_free(res.witness, 2)
