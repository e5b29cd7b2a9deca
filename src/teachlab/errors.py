"""Shared exception types.

The command-line layer maps these onto distinct exit codes: FormatError is
bad input (exit 2), BudgetError is an exceeded search budget (exit 3), and
PropertyViolation is a mathematically meaningful failure such as a broken
precondition or a refuted invariant (exit 1).
"""

__all__ = ["BudgetError", "FormatError", "PropertyViolation"]


class FormatError(ValueError):
    """Malformed text in a class, teacher, tournament, or witness file."""


class BudgetError(RuntimeError):
    """An exact search refused to start or gave up under its size/time budget."""


class PropertyViolation(RuntimeError):
    """A mathematical precondition or claimed property does not hold."""
