"""Tournaments and the concept classes they induce.

A tournament on players 1..n orients every pair; concept C_j collects the
players that beat j, so j is never in C_j and always in its complement.
The 2n concepts {C_j} and {complement of C_j} admit the order-1 no-clash
teacher assigning {j} to both concepts derived from player j, and
conversely an admissible order-1 teacher on a 2n-concept class pins the
orientation of every pair.  recover_tournament reads that orientation off
the teacher, and its one check, that the rebuilt tournament induces every
concept as its teacher says, is the admissibility test.

Orientations are packed one bit per pair in row-major upper-triangle order.
Random tournaments draw each pair's bit from its own SplitMix64 stream
indexed by the pair rank, so generation is reproducible and independent of
draw order.  rng.stream_bits draws the C(n,2) bits lane-parallel, 4,096
lanes at a time, bit-identical to stream_bit(seed, rank) pair by pair.

The edge list and the winner concepts read the pair bits once, in rank
order, as one ASCII string rather than testing has_edge on every ordered
pair.  Row i of that string is the run of pairs (i, j > i); C_j takes the
players i < j from column j of the upper triangle, transposed with one
byte slice, and the players i > j from row j, complemented.

parse_tournament and recover_tournament write the pair bits as rank-ordered
rows, in the layout that _rows reads, and convert them to an int once:
setting one bit at a time in a growing int copies it once per pair.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .concepts import ConceptClass, _content_lines, _read_header
from .errors import FormatError, PropertyViolation, _steps
from .ncteach import NCTeacher
from .rng import stream_bits

__all__ = [
    "Tournament",
    "all_tournaments",
    "canonical_teacher",
    "class1",
    "class2",
    "linear_tournament",
    "pair_rank",
    "parse_tournament",
    "random_tournament",
    "recover_tournament",
    "serialize_tournament",
]


def pair_rank(n: int, i: int, j: int) -> int:
    """Rank of the pair (i, j), 1 <= i < j <= n, in row-major upper-triangle order."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    return (i - 1) * (2 * n - i) // 2 + (j - i - 1)


@dataclass(frozen=True)
class Tournament:
    """An orientation of every pair of [n]; bit pair_rank(i,j) set means edge (i, j)."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one player")
        if not 0 <= self.bits < (1 << comb(self.n, 2)):
            raise ValueError("orientation bits do not fit the pair count")

    def has_edge(self, i: int, j: int) -> bool:
        """True iff the directed edge (i, j) is present (i is a winner against j)."""
        if i == j or not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"need two distinct players in 1..{self.n}")
        if i < j:
            return (self.bits >> pair_rank(self.n, i, j)) & 1 == 1
        return (self.bits >> pair_rank(self.n, j, i)) & 1 == 0

    def edges(self) -> Iterator[tuple[int, int]]:
        """All directed edges, one per pair, in pair-rank order."""
        for i, row in enumerate(_rows(self), 1):
            for j, ch in enumerate(row, i + 1):
                yield (i, j) if ch == _ONE else (j, i)


_ZERO, _ONE = ord("0"), ord("1")
_FLIP = bytes.maketrans(b"01", b"10")


def _rows(g: Tournament) -> list[bytes]:
    """Row i-1 is the ASCII bits of the pairs (i, i+1), ..., (i, n), read once in rank order."""
    n = g.n
    ranked = format(g.bits, "b").zfill(comb(n, 2)).encode("ascii")[::-1]
    rows, r = [], 0
    for i in range(1, n + 1):
        rows.append(ranked[r:r + n - i])
        r += n - i
    return rows


def linear_tournament(n: int) -> Tournament:
    """Edge (i, j) for every i < j: players in index order."""
    return Tournament(n, (1 << comb(max(n, 0), 2)) - 1)  # Tournament refuses n < 1


def random_tournament(n: int, seed: int) -> Tournament:
    """Each pair's orientation from its own stream: bit = stream_bit(seed, rank)."""
    return Tournament(n, stream_bits(seed, comb(max(n, 0), 2)))  # Tournament refuses n < 1


def all_tournaments(n: int) -> Iterator[Tournament]:
    """All 2^C(n,2) tournaments on [n]."""
    for bits in range(1 << comb(max(n, 0), 2)):  # Tournament refuses n < 1
        yield Tournament(n, bits)


def _winner_masks(g: Tournament) -> list[int]:
    """Mask of C_j = {i : edge (i, j)} for each j.

    Each column j is a step of the search budget (errors), as wide as n
    pairs; the first read waits 2^20 units, so that up to 633 players are
    read without one.
    """
    n = g.n
    step = _steps("winner-set builder", n, first=False)
    rows = _rows(g)
    # upper[(i-1)*n + (j-1)] is the bit of pair (i, j) for i < j, "0" on and below the diagonal
    upper = b"".join(b"0" * i + row for i, row in enumerate(rows, 1))
    # C_j holds i < j when pair (i, j) is set (column j up to the diagonal)
    # and i > j when pair (j, i) is clear (row j complemented)
    winners = []
    for j in range(1, n + 1):
        step()
        winners.append(int((upper[j - 1::n][:j] + rows[j - 1].translate(_FLIP))[::-1], 2))
    return winners


def class1(g: Tournament) -> ConceptClass:
    """The n complement concepts, ordered by player: [n] minus C_1, ..., [n] minus C_n."""
    full = (1 << g.n) - 1
    return ConceptClass.from_masks([full ^ m for m in _winner_masks(g)], g.n)


def class2(g: Tournament) -> ConceptClass:
    """All 2n induced concepts: C_1, ..., C_n, then their complements."""
    winners = _winner_masks(g)
    full = (1 << g.n) - 1
    return ConceptClass.from_masks(winners + [full ^ m for m in winners], g.n)


def canonical_teacher(g: Tournament) -> NCTeacher:
    """The order-1 teacher on class2(g) assigning {j} to both concepts of player j."""
    singletons = tuple(frozenset({j}) for j in range(1, g.n + 1))
    return NCTeacher(class2(g), singletons + singletons)


def recover_tournament(k: ConceptClass, t: NCTeacher) -> Tournament:
    """Rebuild the tournament from a 2n-concept class and an admissible order-1 teacher.

    C_x is the concept that {x} teaches without x, and edge (i, j) is
    present exactly when j is not in C_i.  One check then accepts the
    teacher: every concept must be C_x or its complement in the rebuilt
    tournament, for the x that teaches it.  As the class has 2n distinct
    concepts and every teaching set is a single instance, that check passes
    exactly when the teacher is admissible (no two concepts clash):

    - If it passes, each x teaches at most the 2 distinct concepts C_x and
      its complement; 2n concepts over n players make it exactly those 2.
      The teacher is then the rebuilt tournament's canonical teacher, which
      is admissible.
    - If the teacher is admissible, a single instance teaches at most 2
      concepts, which differ on it; 2n concepts over n players make each x
      teach one concept without x (C_x) and one with x (D_x).  For x != y
      the four no-clash conditions on C_x, D_x, C_y and D_y leave two
      cases: y in C_x, x not in C_y, y not in D_x and x in D_y, or the
      reverse.  So D_x is the complement of C_x, and exactly one of y in
      C_x, x in C_y holds, orienting {x, y} as the rebuilt tournament does.
    """
    n = k.n
    if t.k.n != n or t.k.masks != k.masks:
        raise ValueError("teacher is not defined on the given class")
    if len(k) != 2 * n:
        raise PropertyViolation(
            f"class has {len(k)} concepts; an NC-maximum dimension-1 class over [{n}] has {2 * n}")
    if any(len(s) != 1 for s in t.sets):
        raise PropertyViolation("every teaching set must be a single instance")
    taught = [(m, x) for m, (x,) in zip(k.masks, t.sets)]
    c_of = {x: m for m, x in taught if not m >> (x - 1) & 1}
    full = (1 << n) - 1
    # row i of the pair bits is the complement of C_i past i; the last row is most significant.
    # An x that teaches no concept without x gets a C_x of 0, which the check below rejects.
    rows = (f"{(full ^ c_of.get(i, 0)) >> i:0{n - i}b}" for i in range(n - 1, 0, -1))
    g = Tournament(n, int("".join(rows) or "0", 2))
    winners = _winner_masks(g)
    for m, x in taught:
        if m != winners[x - 1] and m != full ^ winners[x - 1]:
            raise PropertyViolation("teacher admits a clash")
    return g


def serialize_tournament(g: Tournament) -> str:
    """Render a tournament: header ``n=<int>``, then one ``i j`` line per pair.

    Each row of pairs is a step of the search budget (errors), as wide as n
    pairs, and is joined into one string at once, so that at most one row's
    line strings exist at a time.
    """
    step = _steps("tournament writer", g.n)
    rows = [f"n={g.n}"]
    for i, row in enumerate(_rows(g), 1):
        step()
        if row:  # the last player's row is empty
            rows.append("\n".join([f"{i} {j}" if ch == _ONE else f"{j} {i}"
                                   for j, ch in enumerate(row, i + 1)]))
    rows.append("")  # the final "\n", with no copy of the text to add it
    return "\n".join(rows)


def parse_tournament(text: str) -> Tournament:
    """Parse the tournament file format: exactly C(n,2) directed edges, one per pair.

    Each edge line is a step of the search budget (errors).  The reader
    holds one byte per pair, '0' or '1' once a line orients it, and sizes
    that array only when the text is long enough to list every pair.
    """
    step = _steps("tournament reader")
    lines = _content_lines(text)
    (n,) = _read_header(lines, "n")
    total = comb(n, 2)
    # an edge line takes at least 4 characters with its line break, so a text
    # shorter than C(n,2) cannot list every pair: the header's n alone never
    # sizes the array, and such a text keeps the ranks it lists in a dict
    # until the edge count fails
    ranked = bytearray(total) if total <= len(text) else defaultdict(int)
    got = 0
    for lineno, line in lines:
        step()
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'i j'")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: players must be integers") from None
        if a == b or not (1 <= a <= n and 1 <= b <= n):
            raise FormatError(f"line {lineno}: need two distinct players in 1..{n}")
        i, j = (a, b) if a < b else (b, a)
        r = pair_rank(n, i, j)
        if ranked[r]:
            raise FormatError(f"line {lineno}: pair {{{i}, {j}}} oriented twice")
        ranked[r] = _ONE if a < b else _ZERO
        got += 1
    if got != total:
        raise FormatError(f"expected {total} edges, got {got}")
    return Tournament(n, int(ranked[::-1] or b"0", 2))
