"""Shared exception types and the search budget.

The command-line layer maps these onto distinct exit codes: FormatError is
bad input (exit 2), BudgetError is an exceeded search budget (exit 3), and
PropertyViolation is a mathematically meaningful failure such as a broken
precondition or a refuted invariant (exit 1).  ``with budget(secs):`` sets
the deadline, and nested budgets keep the earlier one.  Each call of an
exact search charges its steps to a meter of its own (_steps) made for a
fixed step width: the most bits one of its steps handles.  A step costs
1,024 units plus that width, and the meter reads the budget at the first
step and again each time 2^20 more units have passed.  Five meters defer
their first read by 2^20 units (first=False), so that small runs of them
finish even under budget(0): the order-1 greedy, the h_max set-up, the
random bit stream, the tournament winner sets and the no-clash check.
"""

import time
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain, repeat, starmap
from typing import Callable, Iterator

__all__ = ["BudgetError", "FormatError", "PropertyViolation", "budget", "check_budget"]


class FormatError(ValueError):
    """Malformed text in a class, teacher, tournament, or witness file."""


class BudgetError(RuntimeError):
    """An exact search refused to start or gave up under its size/time budget."""


class PropertyViolation(RuntimeError):
    """A mathematical precondition or claimed property does not hold."""


_WORK_PER_READ = 1 << 20  # the units a search spends between reads of its budget

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


def _steps(what: str, bits: int = 0, first: bool = True) -> Callable[[], object]:
    """A meter for steps of at most `bits` bits: a C-level __next__; first=False frees 2^20 units."""
    block = -(-_WORK_PER_READ // (1024 + bits))
    reads = starmap(_read, repeat((what, block)))
    return chain.from_iterable(reads if first else chain((repeat(None, block),), reads)).__next__


def _read(what: str, steps: int) -> repeat:
    check_budget(what)
    return repeat(None, steps)


def _resume_budget(until: float) -> None:
    """Pool initializer: a worker keeps its parent's deadline, as monotonic time is system-wide."""
    _deadline.set(until)


def _process_pool(workers: int):
    """A process pool whose workers keep this thread's deadline."""
    from concurrent.futures import ProcessPoolExecutor  # here: importing teachlab loads no multiprocessing
    return ProcessPoolExecutor(workers, initializer=_resume_budget, initargs=(_deadline.get(),))
