"""Teaching dimension, its extremes over a class, and the recursive variant.

A teaching set for C within class CC must intersect every difference set
{x : C(x) != C'(x)} over competitors C' in CC.  Two kernels serve the
functions here, and they share no search code:

- Cell splitting.  An increasing instance sequence in which each instance
  splits the cell of concepts agreeing on the ones before it; a concept
  alone in its part is taught by the sequence, and every minimum teaching
  set is such a sequence.  td_min deepens until any concept is alone
  (_easiest), the smallest cells first.  teaching_report and td_max deepen
  once over all concepts, walking sequences in lexicographic order so each
  concept's first is its least witness (_isolate).  rtd peels at a rising
  threshold with the same walk.  The columns that split a set of concepts
  are built in one place (_splitters), by one bit-matrix transpose of the
  class (_columns).  Both searches pack them in lanes of one int (_lanes)
  and try every last instance of a sequence at once (_lone_lanes); td_min
  also tests the parts of a sequence one short of its end directly.
- Hitting sets, per concept.  One include-first search (_lex_first_hit)
  returns the lexicographically least set of at most s instances that hits
  every difference mask, or None, pruned by a greedy disjoint-packing lower
  bound.  td_of deepens on it, so the first s it answers is the TD and its
  answer the least witness; rtd_bruteforce decides each subclass with it.
  Both stay references independent of the cell-splitting searches.

Every search is a loop on an explicit stack that charges its steps to a
step meter (errors) as wide as the most bits one of its steps reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from .concepts import Concept, ConceptClass, instances_to_mask, mask_to_instances
from .errors import _steps

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


def _lex_first_hit(masks: list[int], size: int) -> int | None:
    """The lexicographically least set of at most `size` instances hitting every mask, or None.

    One include-first search over increasing instances, on an explicit stack
    of [masks left to hit, picks so far, untried candidates, picks left]
    frames, so its first leaf is the least set.  A pick can be no later than
    the lowest top instance of the masks left, since later picks only grow;
    every hitting set's least instance is such a pick, so the search is
    complete.  Picking x keeps the masks x misses, cut to their instances
    above x; the pick is pruned when a cut mask is empty or a greedy
    disjoint packing of the cut masks needs more picks than are left.  One
    pass per node builds the kept masks, the packing and their union; the
    root is the node that picks nothing.  A node is a step, taken first.
    """
    step = _steps("hitting-set search")
    stack: list[list] = []
    rest, chosen, low, above, left = masks, 0, 0, -1, size
    while True:
        step()
        kept = []
        packed = packing = union = 0
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
            union |= m
        else:
            chosen |= low
            if not kept:
                return chosen
            stack.append([kept, chosen, union & ((1 << min(kept).bit_length()) - 1), left - 1])
        while stack:
            frame = stack[-1]
            rest, chosen, cands, left = frame
            if cands:
                break
            stack.pop()
        else:
            return None
        low = cands & -cands
        frame[2] = cands ^ low
        above = -(low << 1)


def _sorted_diffs(masks: tuple[int, ...] | list[int], i: int) -> list[int]:
    return sorted(_diff_masks(masks, i), key=int.bit_count)


def _packing(masks: list[int]) -> list[int]:
    """A greedy set of pairwise disjoint masks: a teaching set takes one instance from each."""
    packed = 0
    out = []
    for m in masks:
        if m & packed == 0:
            packed |= m
            out.append(m)
    return out


def _columns(masks: tuple[int, ...] | list[int], n: int) -> list[int]:
    """Each instance's column, the bitset of the concepts containing it, in instance order.

    The class is written as one string of binary digits, n per concept and
    the last concept first (one format field per concept, which is faster
    than joining a string per concept), so instance x's column is the slice
    from character n - x in steps of n, with concept 0 as its last digit.
    """
    bits = (f"{{:0{n}b}}" * len(masks)).format(*reversed(masks))
    return [int(bits[n - x::n] or "0", 2) for x in range(1, n + 1)]


def _splitters(k: ConceptClass, live: int) -> tuple[list[int], list[int]]:
    """The instances that split `live` (a bitset over concept indices), as two lists.

    The first holds each instance's column, the concepts of live containing
    it (_columns); the second the instance.  Of instances that split live
    the same way (equal or complementary columns) only the first is kept:
    any splitting sequence through a later one has a lexicographically
    smaller twin through the first.
    """
    cols, xs = [], []
    seen = {live}  # a column's key: it or its complement, whichever holds live's first concept
    low = live & -live
    for x, h in enumerate(_columns(k.masks, k.n), 1):
        h &= live
        key = h if h & low else live ^ h
        if key not in seen:
            seen.add(key)
            cols.append(h)
            xs.append(x)
    return cols, xs


def _lanes(cols: list[int], width: int) -> tuple[int, int, int]:
    """cols packed into one int, column j in the lane of `width` bits at j*width.

    Returns it with the repunits that hold bit 0 and the top bit, the guard,
    of every lane.  The columns are merged pairwise, in O(total * log len(cols))
    bits.  A column holds no concept of index width-1 or above, so its guard is 0.
    """
    packed, span = cols, width
    while len(packed) > 1:
        pairs = iter(packed + [0] if len(packed) & 1 else packed)
        packed = [lo | hi << span for lo, hi in zip(pairs, pairs)]
        span <<= 1
    ones = ((1 << len(cols) * width) - 1) // ((1 << width) - 1)
    return packed[0] if packed else 0, ones, ones << (width - 1)


def _lone_lanes(cell: int, shift: int, lanes: tuple[int, int, int]) -> int:
    """The guard bits, shifted down by `shift`, of the lanes from bit `shift` on
    whose column leaves one concept of `cell` alone on either side.

    The cell is copied into every lane by one multiplication, and a lane x of
    the parts inside and outside the column holds one concept when x != 0 and
    x & (x-1) == 0, which the guards' borrows decide for all lanes together.
    """
    packed, ones, guards = lanes
    ones, top = ones >> shift, guards >> shift
    rep = cell * ones
    a = rep & packed >> shift
    lone = 0
    for x in (a, rep ^ a):
        d = (x | top) - ones  # guard set: x != 0; below it, x - 1
        lone |= (d ^ ((x & d | top) - ones)) & top  # ... and x & (x-1) == 0
    return lone


def _easiest(k: ConceptClass, live: int) -> int:
    """td_min within `live` (a bitset over concept indices).

    Iterative deepening over increasing instance sequences in which each
    instance splits the cell of concepts agreeing on the ones before it; a
    one-concept part at depth s is a teaching set of size s.  Every minimum
    teaching set is such a sequence, since an instance that does not split
    its cell could be dropped.  Level s runs after level s-1 found no
    one-concept part, so only the last splitter can leave one alone.

    The splitter columns are packed in lanes once (_lanes), so the last
    splitter is every later one at once (_lone_lanes).  A frame with two
    splitters left takes each later splitter in turn and lane-tests the two
    parts it makes; other frames push their parts so that the smallest is
    popped first: a level that fails visits them all, and the level that
    succeeds meets a one-concept part sooner.  Each frame and each lane test
    is a step as wide as all the lanes (errors).
    """
    if live & (live - 1) == 0:
        return 0
    splitters = _splitters(k, live)[0]
    count, width = len(splitters), live.bit_length() + 1
    lanes = _lanes(splitters, width)
    step = _steps("teaching-set search", count * width)
    step()
    if _lone_lanes(live, 0, lanes):
        return 1
    for s in range(2, k.n + 1):
        stack = [(0, live, 0, s)]
        while stack:
            _, cell, start, budget = stack.pop()
            if budget == 2:
                for j in range(start, count):
                    a = cell & splitters[j]
                    if a and a != cell:
                        step()
                        shift = (j + 1) * width
                        if _lone_lanes(a, shift, lanes) or _lone_lanes(cell ^ a, shift, lanes):
                            return s
                continue
            step()
            parts = []
            for j in range(start, count):
                a = cell & splitters[j]
                if a and a != cell:
                    b = cell ^ a
                    parts.append((a.bit_count(), a, j + 1, budget - 1))
                    parts.append((b.bit_count(), b, j + 1, budget - 1))
            parts.sort(reverse=True)
            stack += parts
    raise AssertionError("no concept alone after splitting on the whole domain")


def _isolate(cols: list[int], packs: list[list[int]] | None, root: int, s: int, want: int,
             peel: bool) -> dict[int, int]:
    """Find the concepts of `want` that splitting sequences of length <= s leave alone.

    Depth-first over the increasing sequences of splitters (indices into
    cols) that split the cells under `root`, on an explicit stack of [cell,
    next splitter, depth left, splitters so far, candidates] frames that
    takes splitters in increasing order, so sequences are met in
    lexicographic order.  A concept of want met alone in its part leaves
    want, and its sequence is recorded as a mask of splitter indices: the
    first such sequence is the lexicographically least.  A frame with one
    splitter left lane-tests every later splitter at once (_lone_lanes) and
    visits the lanes that leave a concept alone from the lowest up.

    A frame's candidates are its concepts of want not yet ruled out, and a
    frame without any is dropped.  packs[c], if given, holds pairwise
    disjoint masks of the splitters that tell c from some other concept.
    Each mask the sequence has not hit needs a later splitter of its own, so
    c leaves a frame (of depth left >= 2) once such masks outnumber the
    depth left or one has no later splitter.  With peel, want is the live
    class itself, and every cell is cut to it as it is resumed.  A frame is a
    step, as in _easiest.  Returns the recorded sequences, keyed by concept bit.
    """
    found: dict[int, int] = {}
    count, width = len(cols), root.bit_length() + 1
    lanes = _lanes(cols, width)
    stack = [[root, 0, s, 0, root & want]]
    step = _steps("teaching-set search", count * width)
    while stack and want:
        frame = stack[-1]
        cell, j, budget, path, cands = frame
        step()
        cands &= want
        if peel:
            cell &= want
            if cell & (cell - 1) == 0:
                if cell:
                    want ^= cell
                    found[cell] = path
                stack.pop()
                continue
        if not cands:
            stack.pop()
            continue
        if budget == 1:
            stack.pop()
            lone = _lone_lanes(cell, j * width, lanes)
            while lone:  # lowest lane first: a concept's first sequence is its least
                low = lone & -lone
                lone ^= low
                i = j + low.bit_length() // width - 1
                a = cell & cols[i]
                for part in (a, cell ^ a):
                    if part & (part - 1) == 0 and part & want:
                        want ^= part
                        found[part] = path | 1 << i
            continue
        for j in range(j, count):
            a = cell & cols[j]
            if a and a != cell:
                break
        else:
            stack.pop()
            continue
        frame[1] = j + 1
        path |= 1 << j
        for part in (a, cell ^ a):
            if part & (part - 1) == 0:
                if part & want:
                    want ^= part
                    found[part] = path
                continue
            part_cands = part & cands
            c = part_cands if packs and budget > 2 else 0
            while c:
                low = c & -c
                c ^= low
                unhit = 0
                for d in packs[low.bit_length() - 1]:
                    if not d & path:
                        unhit += 1
                        if unhit == budget or not d >> j:
                            part_cands ^= low
                            break
            if part_cands:
                stack.append([part, j + 1, budget - 1, path, part_cands])
    return found


def is_teaching_set(k: ConceptClass, c: Concept, s) -> bool:
    """True iff no other concept of k agrees with c on all of s."""
    i = k.index_of(c)
    smask = instances_to_mask(s, k.n)
    return all(d & smask for d in _diff_masks(k.masks, i))


def td_of(k: ConceptClass, c: Concept) -> tuple[int, frozenset[int]]:
    """Minimal teaching-set size for c within k, with the lex-least witness.

    The least hitting set of the difference masks, by deepening on the
    hitting-set search over sizes 0, 1, 2, ...
    """
    diffs = _sorted_diffs(k.masks, k.index_of(c))
    for size in range(k.n + 1):
        witness = _lex_first_hit(diffs, size)
        if witness is not None:
            return size, mask_to_instances(witness)
    raise AssertionError("difference family not hittable by the full domain")


def td_min(k: ConceptClass) -> int:
    """min over concepts C of TD(C, k), by iterative deepening over set sizes."""
    if len(k) == 0:
        raise ValueError("td_min of an empty class")
    return _easiest(k, (1 << len(k)) - 1)


def td_max(k: ConceptClass) -> int:
    """max over concepts C of TD(C, k)."""
    if len(k) == 0:
        raise ValueError("td_max of an empty class")
    return teaching_report(k).td


@dataclass(frozen=True)
class TeachingReport:
    """Per-concept minimal teaching-set sizes with one lex-least witness each."""

    k: ConceptClass
    sizes: tuple[int, ...]
    witnesses: tuple[frozenset[int], ...]

    @property
    def td(self) -> int:
        return max(self.sizes)

    @property
    def td_min(self) -> int:
        return min(self.sizes)


def teaching_report(k: ConceptClass) -> TeachingReport:
    """Every concept's TD and lex-least witness, from one deepening over all concepts.

    Level s walks the increasing splitting sequences of length s in
    lexicographic order (_isolate); the first to leave an open concept alone
    is its least witness, and its TD is s.  Each concept's greedy
    disjoint-packing bound keeps it out of the levels below it, and the
    levels skip to the least bound of the open concepts.
    """
    m = len(k)
    if m == 0:
        raise ValueError("teaching report of an empty class")
    full = (1 << m) - 1
    cols, xs = _splitters(k, full)
    rows = _columns(cols, m)  # concept -> the splitters that contain it
    step = _steps("teaching-set search", m * len(cols))
    packs = []
    for i in range(m):
        step()
        packs.append(_packing(_sorted_diffs(rows, i)))
    bounds = [len(p) for p in packs]
    sizes = [0] * m
    witnesses = [frozenset()] * m
    todo = list(range(m)) if m > 1 else []
    while todo:
        s = min(bounds[i] for i in todo)
        want = sum(1 << i for i in todo if bounds[i] == s)
        for bit, path in _isolate(cols, packs, full, s, want, peel=False).items():
            i = bit.bit_length() - 1
            sizes[i] = s
            witnesses[i] = frozenset(xs[j - 1] for j in mask_to_instances(path))
        todo = [i for i in todo if sizes[i] == 0]
        for i in todo:
            bounds[i] = max(bounds[i], s + 1)
    return TeachingReport(k, tuple(sizes), tuple(witnesses))


def rtd(k: ConceptClass) -> int:
    """Recursive teaching dimension, by peeling at a rising threshold L.

    A pass over the live class removes each concept as soon as a splitting
    sequence of length <= L leaves it alone; L rises only after a pass
    removes nothing, which shows td_min of the live class exceeds L.  The
    last L is exact: RTD(C) is the maximum of td_min over the nonempty
    subclasses of C, and the first concept of any subclass to be removed
    had a teaching set of size <= L within a superset of it.
    """
    if len(k) == 0:
        raise ValueError("rtd of an empty class")
    if len(k) == 1:
        return 0
    live, level = (1 << len(k)) - 1, 1
    while live:
        removed = sum(_isolate(_splitters(k, live)[0], None, live, level, live, peel=True))
        if not removed:
            level += 1
        live ^= removed
    return level


def rtd_bruteforce(k: ConceptClass) -> int:
    """max over all nonempty subclasses of td_min, by direct enumeration.

    Exponential in |k|: a reference oracle, bounded only by the search
    budget, which each subclass's hitting-set searches read.  Each subclass
    raises the running maximum until one of its concepts has a teaching set
    of that size, so most are settled by one concept's search at the
    maximum, and the maximum stays exact.
    """
    m = len(k)
    if m == 0:
        raise ValueError("rtd of an empty class")
    masks = k.masks
    diff = [[masks[i] ^ masks[j] for j in range(m)] for i in range(m)]
    best = 0
    for sub in range(1, 1 << m):
        idxs = [i for i in range(m) if (sub >> i) & 1]
        # the least s >= best at which a concept is taught; diff[i][i] is row i's only 0
        while not any(_lex_first_hit([d for j in idxs if (d := diff[i][j])], best) is not None
                      for i in idxs):
            best += 1
    return best
