"""Subcommand front end, output rendering, and the exit-code contract.

Exit codes: 0 success; 1 a mathematically meaningful property failed to
hold (never used for I/O trouble); 2 bad input, malformed file, or bad
usage; 3 budget exceeded or result inconclusive.  --timeout is the only time
limit; the size caps left stand for memory (only the exhaustive enumeration
of verify dim1 and search maxclass, at n <= 4; past it search maxclass gives
a greedy lower bound) and for choices that must not depend on time (which h
bounds uses: it solves H_t(n, d) exactly only when C(n, d) <= 24, a search
that reads the budget like any other).

The file codecs live beside the objects they read: classes in concepts,
teachers in ncteach, tournaments in tournaments and families in johnson.
Teacher files are matched to the class file by mask, so they may list its
concepts in any order, and verify-teacher names a clash in class order.

All numeric output is explicit: integers exact however long, rationals as
p/q, reals with 12 significant digits.  CPython (3.10.7 on) refuses to
convert an int of over 4,300 digits to or from a string; the bounds of
bounds and johnson hmax can be longer, so their handlers and dispatch
render under exact_ints(), which lifts that limit.  It stays in force while
arguments and files are parsed.  Every subcommand is deterministic given its
arguments; randomness only enters through an explicit --seed.

Each handler returns its exit code, a JSON object and text lines, and
dispatch renders them once: --json prints the object (rationals as
strings), otherwise the lines are printed.  Both forms name every file a
command writes; the JSON keys are "csv" (td --csv, experiment tdmin
--out), "teacher_file" (nctd --emit-teacher), "tournament_file"
(tournament gen --out), "class_file" (tournament class --out) and
"witness_file" (johnson hmax --witness).  An error raised by a handler
prints one "error: ..." line, or {"error": "..."} under --json, and exits
with the code its exception type maps to.  Two combinations that would
drop an option exit 2: td --concept with --csv, and experiment tdmin
--out - with --json.

The parser and the handlers are in teachlab.commands, which dispatch
imports on its first call, so that a program that imports this module
without running a command does not compile them: from source, theirs is
the package's most memory-hungry compile, and the memory it takes stays
resident.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from .concepts import _shown
from .errors import BudgetError, PropertyViolation, budget

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

BUDGET_ENV = "TEACHLAB_BUDGET_SECS"


@dataclass(frozen=True)
class CommandOutcome:
    code: int
    text: str


def _budget_secs(raw: str) -> float:
    """A search budget in seconds >= 0; NaN is refused, as no deadline would ever pass it.

    The error is an ArgumentTypeError, whose message argparse shows as is.
    """
    try:
        secs = float(raw)
    except ValueError:
        secs = math.nan
    if not secs >= 0:
        raise argparse.ArgumentTypeError(
            f"--timeout and {BUDGET_ENV} take a number of seconds >= 0, got {_shown(raw)}")
    return secs


@contextmanager
def exact_ints() -> Iterator[None]:
    """Lift CPython's limit on the digits of an int-string conversion, if it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7: no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# the exit code of each exception type that a handler may raise (disjoint types)
_ERROR_EXITS = {
    PropertyViolation: EXIT_PROPERTY,
    BudgetError: EXIT_BUDGET,
    ValueError: EXIT_INPUT,
    OSError: EXIT_INPUT,
    argparse.ArgumentTypeError: EXIT_INPUT,
}


def dispatch(argv: list[str]) -> CommandOutcome:
    """Run one command; --json prints the handler's object, otherwise its text lines.

    An iterator in the object, such as a tournament's edges, is listed only here.
    """
    from .commands import _build_parser  # here: importing cli loads no handler

    args = _build_parser().parse_args(argv)
    try:
        secs = args.timeout
        if secs is None:
            secs = _budget_secs(os.environ.get(BUDGET_ENV, "inf"))
        with budget(secs):
            code, doc, lines = args.handler(args)
    except tuple(_ERROR_EXITS) as exc:
        code = next(c for kind, c in _ERROR_EXITS.items() if isinstance(exc, kind))
        doc, lines = {"error": str(exc)}, [f"error: {exc}"]
    with exact_ints():
        text = json.dumps(doc, default=list) if args.json else "\n".join(lines)
    return CommandOutcome(code, text)


def main(argv: list[str] | None = None) -> int:
    outcome = dispatch(sys.argv[1:] if argv is None else argv)
    if outcome.text:
        sys.stdout.write(outcome.text)  # and the newline apart: no second copy of the text
        sys.stdout.write("\n")
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
