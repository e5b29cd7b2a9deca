"""Shared exception types and the search budget.

The command-line layer maps these onto distinct exit codes: FormatError is
bad input (exit 2), BudgetError is an exceeded search budget (exit 3), and
PropertyViolation is a mathematically meaningful failure such as a broken
precondition or a refuted invariant (exit 1).  Every exact search calls
check_budget once per call and then at least every 1,024 nodes, sooner
where nodes handle wide ints (_WORK_PER_READ); ``with budget(secs):``
sets the deadline it reads, and nested budgets keep the earlier deadline.
"""

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

__all__ = ["BudgetError", "FormatError", "PropertyViolation", "budget", "check_budget"]


class FormatError(ValueError):
    """Malformed text in a class, teacher, tournament, or witness file."""


class BudgetError(RuntimeError):
    """An exact search refused to start or gave up under its size/time budget."""


class PropertyViolation(RuntimeError):
    """A mathematical precondition or claimed property does not hold."""


# a loop whose steps handle ints of very different widths charges each step
# 1,024 plus the bits it handles, and reads the budget once its charges pass this
_WORK_PER_READ = 1 << 20

_deadline = ContextVar("teachlab_deadline", default=float("inf"))  # time.monotonic(), per thread


@contextmanager
def budget(secs: float) -> Iterator[None]:
    """Bound the exact searches in the block to secs seconds, or less under an earlier deadline."""
    if not secs >= 0:  # NaN would never expire
        raise ValueError(f"a search budget takes seconds >= 0, got {secs!r}")
    token = _deadline.set(min(_deadline.get(), time.monotonic() + secs))
    try:
        yield
    finally:
        _deadline.reset(token)


def check_budget(what: str) -> None:
    """Raise BudgetError("<what> hit its deadline") once the deadline has passed."""
    if time.monotonic() > _deadline.get():
        raise BudgetError(f"{what} hit its deadline")


def _resume_budget(until: float) -> None:
    """Pool initializer: a worker keeps its parent's deadline, as monotonic time is system-wide."""
    _deadline.set(until)
