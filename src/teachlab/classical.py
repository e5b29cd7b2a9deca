"""Teaching dimension, its extremes over a class, and the recursive variant.

A teaching set for C within class CC must intersect every difference set
{x : C(x) != C'(x)} over competitors C' in CC.  td_min and rtd search all
concepts at once by splitting cells of agreeing concepts (see _easiest).
td_of, td_max and teaching_report need each concept's own minimum and its
lexicographically least witness.  The minimum is a minimum hitting set of
the difference masks, by branching on the smallest uncovered mask with a
greedy disjoint-packing lower bound, on an explicit stack (see
_hit_decision); rtd_bruteforce uses that kernel too, so it stays a
reference independent of rtd.  The witness then comes from one search at
the known size that takes instances in increasing order (see
_lex_min_witness).  Every search loop reads the search budget
(errors.budget).
"""

from __future__ import annotations

from dataclasses import dataclass

from .concepts import Concept, ConceptClass, instances_to_mask, mask_to_instances
from .errors import BudgetError, check_budget

__all__ = [
    "TeachingReport",
    "is_teaching_set",
    "rtd",
    "rtd_bruteforce",
    "td_max",
    "td_min",
    "td_of",
    "teaching_report",
]


def _diff_masks(masks: tuple[int, ...] | list[int], i: int) -> list[int]:
    mi = masks[i]
    return [mi ^ mj for j, mj in enumerate(masks) if j != i]


def _hit_decision(masks: list[int], budget: int) -> bool:
    """Can at most `budget` instances hit every mask?

    Branches on the instances of the most constrained mask, pruned by a
    greedy disjoint-packing lower bound.  A node descends straight into its
    first instance and stacks a [masks, budget, untried instances] frame; a
    failed node resumes the top frame, which is popped when its last
    instance is taken.  An empty mask cannot be hit.
    """
    stack: list[list] = []
    nodes = 0
    while True:
        if not nodes & 1023:
            check_budget("hitting-set search")
        nodes += 1
        if not masks:
            return True
        bits = 0
        if budget > 0:
            best_count = packed = packing = 0
            for m in masks:
                if m == 0:
                    bits = 0
                    break
                c = m.bit_count()
                if not bits or c < best_count:
                    best_count = c
                    bits = m
                if m & packed == 0:
                    packed |= m
                    packing += 1
                    if packing > budget:
                        bits = 0
                        break
        if bits:
            low = bits & -bits
            bits ^= low
            if bits:
                stack.append([masks, budget, bits])
        elif stack:
            frame = stack[-1]
            masks, budget, bits = frame
            low = bits & -bits
            bits ^= low
            if bits:
                frame[2] = bits
            else:
                stack.pop()
        else:
            return False
        masks = [m for m in masks if m & low == 0]
        budget -= 1


def _min_hit_size(masks: list[int], n: int) -> int:
    for s in range(n + 1):
        if _hit_decision(masks, s):
            return s
    raise AssertionError("difference family not hittable by the full domain")


def _lex_min_witness(masks: list[int], size: int) -> int:
    """Lexicographically least hitting set of the given minimal size, as a mask.

    One include-first search over increasing instances, on an explicit stack
    of [masks left to hit, picks so far, untried candidates] frames, so its
    first leaf is the least witness.  A pick can be no later than the lowest
    top instance of the masks left, since later picks only grow.  Picking x
    keeps the masks x misses, cut to their instances above x; the pick is
    pruned when a cut mask is empty or a greedy disjoint packing of the cut
    masks needs more picks than are left.
    """
    stack: list[list] = []
    rest, chosen = masks, 0
    backtracks = 0
    while rest:
        top = min(m.bit_length() for m in rest)
        cands = 0
        for m in rest:
            cands |= m
        stack.append([rest, chosen, cands & ((1 << top) - 1)])
        while True:
            if not stack:
                raise AssertionError("witness construction lost feasibility")
            frame = stack[-1]
            rest, chosen, cands = frame
            if not cands:
                stack.pop()
                if not backtracks & 1023:
                    check_budget("lex-least witness search")
                backtracks += 1
                continue
            low = cands & -cands
            frame[2] = cands ^ low
            above = -(low << 1)
            left = size - chosen.bit_count() - 1
            kept = []
            packed = packing = 0
            for m in rest:
                if m & low:
                    continue
                m &= above
                if m & packed == 0:
                    if m == 0 or packing == left:
                        break
                    packed |= m
                    packing += 1
                kept.append(m)
            else:
                rest, chosen = kept, chosen | low
                break
    return chosen


def _sorted_diffs(masks: tuple[int, ...] | list[int], i: int) -> list[int]:
    return sorted(_diff_masks(masks, i), key=int.bit_count)


def _easiest(k: ConceptClass, live: int, first: bool) -> tuple[int, int]:
    """td_min within `live` (a bitset over concept indices) and the concepts attaining it.

    Iterative deepening over increasing instance sequences in which each
    instance splits the cell of concepts agreeing on the ones before it; a
    one-concept part at depth s is a teaching set of size s.  Every minimum
    teaching set is such a sequence, since an instance that does not split
    its cell could be dropped.  With first, only the first concept found.
    """
    if live & (live - 1) == 0:
        return 0, live
    # column x: the bitset of concepts containing instance x+1, by transposing bitstrings
    rows = [f"{m:0{k.n}b}"[::-1] for m in k.masks]
    cols = (int("".join(col)[::-1], 2) & live for col in zip(*rows))
    splitters = [h for h in cols if h and h != live]
    s = found = nodes = 0
    while not found:
        s += 1
        stack = [(live, 0, s)]
        while stack:
            if not nodes & 1023:
                check_budget("teaching-set search")
            nodes += 1
            cell, start, budget = stack.pop()
            for j in range(start, len(splitters)):
                a = cell & splitters[j]
                if a == 0 or a == cell:
                    continue
                for part in (a, cell ^ a):
                    if part & (part - 1) == 0:
                        if first:
                            return s, part
                        found |= part
                    elif budget > 1:
                        stack.append((part, j + 1, budget - 1))
    return s, found


def is_teaching_set(k: ConceptClass, c: Concept, s) -> bool:
    """True iff no other concept of k agrees with c on all of s."""
    i = k.index_of(c)
    smask = instances_to_mask(s, k.n)
    return all(d & smask for d in _diff_masks(k.masks, i))


def td_of(k: ConceptClass, c: Concept) -> tuple[int, frozenset[int]]:
    """Minimal teaching-set size for c within k, with the lex-least witness."""
    i = k.index_of(c)
    diffs = _sorted_diffs(k.masks, i)
    size = _min_hit_size(diffs, k.n)
    return size, mask_to_instances(_lex_min_witness(diffs, size))


def td_min(k: ConceptClass) -> int:
    """min over concepts C of TD(C, k), by iterative deepening over set sizes."""
    if len(k) == 0:
        raise ValueError("td_min of an empty class")
    return _easiest(k, (1 << len(k)) - 1, first=True)[0]


def td_max(k: ConceptClass) -> int:
    """max over concepts C of TD(C, k)."""
    if len(k) == 0:
        raise ValueError("td_max of an empty class")
    return max(_min_hit_size(_sorted_diffs(k.masks, i), k.n) for i in range(len(k)))


@dataclass(frozen=True)
class TeachingReport:
    """Per-concept minimal teaching-set sizes with one lex-least witness each."""

    k: ConceptClass
    sizes: tuple[int, ...]
    witnesses: tuple[frozenset[int], ...]

    def size_of(self, c: Concept) -> int:
        return self.sizes[self.k.index_of(c)]

    def witness_of(self, c: Concept) -> frozenset[int]:
        return self.witnesses[self.k.index_of(c)]

    @property
    def td(self) -> int:
        return max(self.sizes)

    @property
    def td_min(self) -> int:
        return min(self.sizes)


def teaching_report(k: ConceptClass) -> TeachingReport:
    if len(k) == 0:
        raise ValueError("teaching report of an empty class")
    sizes = []
    witnesses = []
    for c in k:
        size, w = td_of(k, c)
        sizes.append(size)
        witnesses.append(w)
    return TeachingReport(k, tuple(sizes), tuple(witnesses))


def rtd(k: ConceptClass) -> int:
    """Recursive teaching dimension: peel easiest-to-teach concepts, track the max.

    Each round removes every concept whose teaching dimension within the
    remaining class equals that class's td_min; the empty remainder
    contributes 0.
    """
    live = (1 << len(k)) - 1
    best = 0
    while live:
        s, easiest = _easiest(k, live, first=False)
        best = max(best, s)
        live &= ~easiest
    return best


def rtd_bruteforce(k: ConceptClass) -> int:
    """max over all nonempty subclasses of td_min, by direct enumeration.

    Exponential in |k|; refuses classes of more than 14 concepts.  Subclasses
    whose td_min provably cannot exceed the running maximum are skipped with
    a single decision call, which leaves the returned maximum exact.
    """
    m = len(k)
    if m == 0:
        raise ValueError("rtd of an empty class")
    if m > 14:
        raise BudgetError(f"brute force enumerates 2^{m} subclasses; cap is 14")
    masks = k.masks
    diff = [[masks[i] ^ masks[j] for j in range(m)] for i in range(m)]
    best = 0
    for sub in range(1, 1 << m):
        idxs = [i for i in range(m) if (sub >> i) & 1]
        lists = [[diff[i][j] for j in idxs if j != i] for i in idxs]
        if any(_hit_decision(d, best) for d in lists):
            continue
        s = best + 1
        while not any(_hit_decision(d, s) for d in lists):
            s += 1
        best = s
    return best
