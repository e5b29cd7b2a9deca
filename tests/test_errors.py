"""The search budget: one deadline that every exact search reads."""

import pytest

from teachlab import BudgetError, budget, check_budget


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
