"""No-clash teachers: admissibility, normalization, and exact NCTD search.

A teacher assigns each concept an instance set; two concepts clash when
they agree everywhere on the union of their assigned sets, and a teacher
is admissible when no pair clashes.  NCTD(k) is computed by deciding, for
d = bounds.ksz_bound's lower bound, d+1, ..., whether an admissible assignment of
d-subsets exists.  The decision procedure first tries a greedy order-1
assignment, which checks each candidate against all earlier concepts at
once in lanes of one int, then a trace count that can refute order d
outright: the concepts whose sets lie inside one (d+1)-set D take distinct
traces on D, so the distinct traces summed over all D must cover every
concept n-d times.  The count walks the (d+1)-sets, splits the class on
the columns of each set's instances and counts the nonempty cells, one per
distinct trace, until the sum passes what order d needs.  The exhaustive
enumerations in experiments call decide_order once per orbit of classes
under domain permutations and XOR by a concept mask, which keep every
clash.  When the sum ties exactly, every D holds one concept per trace,
and a concept that is the only possible carrier of some trace on D must
take a d-set inside D; propagating this over the same cells, with each D's
candidates from tables cached per (n, d), until some trace has no carrier
left refutes most tied classes: 4,704 of the 4,936 tied
2n-concept classes over [4] that the greedy leaves open and that are not
tournament classes.  Otherwise it backtracks over concepts with forward
checking, on an explicit stack: each concept's surviving candidates are a
bitmask over the lexicographic list of d-subsets, the concept with the
fewest survivors is assigned next (ties by concept order), and candidates
are tried in lexicographic order, so the first witness found is
deterministic.  Every stage charges its steps to a step meter (errors).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator

from .bounds import ksz_bound
from .concepts import (
    Concept,
    ConceptClass,
    _content_lines,
    _decode_bits,
    _encode_bits,
    _parse_instances,
    _read_header,
    _shown,
    agrees_on,
    instances_to_mask,
    mask_to_instances,
)
from .errors import BudgetError, FormatError, _steps

__all__ = [
    "NCTeacher",
    "NctdResult",
    "clash",
    "decide_order",
    "is_nc_teacher",
    "nctd",
    "nctd_lower_bound",
    "normalize_teacher",
    "parse_teacher",
    "serialize_teacher",
]


@dataclass(frozen=True)
class NCTeacher:
    """An assignment of one instance set to each concept of a class."""

    k: ConceptClass
    sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if len(self.sets) != len(self.k):
            raise ValueError("teacher must assign exactly one set per concept")
        for s in self.sets:
            for x in s:
                if not 1 <= x <= self.k.n:
                    raise ValueError(f"instance {x} outside domain 1..{self.k.n}")

    @property
    def order(self) -> int:
        """Largest assigned set size."""
        return max((len(s) for s in self.sets), default=0)

    def set_masks(self) -> tuple[int, ...]:
        n = self.k.n
        return tuple(instances_to_mask(s, n) for s in self.sets)


def clash(c: Concept, c2: Concept, s: Iterable[int], s2: Iterable[int]) -> bool:
    """True iff the two (distinct) concepts agree on all of s union s2."""
    if c == c2:
        raise ValueError("clash is defined for distinct concepts")
    return agrees_on(c, c2, set(s) | set(s2))


def _first_clash(t: NCTeacher) -> tuple[int, int] | None:
    """The first clashing concept-index pair (i, j), i < j, in lexicographic order, or None.

    Each row i, compared with every later concept, is a step of the search
    budget (errors), as wide as all the concepts' bits; the first read waits
    2^20 units, so that small checks finish even under budget(0).
    """
    masks = t.k.masks
    smasks = t.set_masks()
    m = len(masks)
    step = _steps("clash check", m * t.k.n, first=False)
    for i in range(m):
        step()
        for j in range(i + 1, m):
            if (masks[i] ^ masks[j]) & (smasks[i] | smasks[j]) == 0:
                return i, j
    return None


def is_nc_teacher(t: NCTeacher) -> bool:
    """True iff no pair of concepts clashes under t."""
    return _first_clash(t) is None


def normalize_teacher(t: NCTeacher, d: int) -> NCTeacher:
    """Pad every assigned set to size exactly d with the smallest unused instances.

    Enlarging a set can only expose more disagreement, so an admissible
    teacher stays admissible.
    """
    if d < t.order:
        raise ValueError(f"cannot normalize to order {d}: teacher has order {t.order}")
    if d > t.k.n:
        raise ValueError(f"order {d} exceeds domain size {t.k.n}")
    padded = []
    for s in t.sets:
        grown = set(s)
        x = 1
        while len(grown) < d:
            if x not in grown:
                grown.add(x)
            x += 1
        padded.append(frozenset(grown))
    return NCTeacher(t.k, tuple(padded))


def nctd_lower_bound(k: ConceptClass) -> int:
    """Smallest d with ksz_bound(n, d) >= |k|; bounds.ksz_bound is the bound's one home."""
    return next(d for d in range(k.n + 1) if ksz_bound(k.n, d) >= len(k))


def _subset_masks(n: int, size: int) -> Iterator[int]:
    """Masks of the size-subsets of [n], in lexicographic order."""
    return map(sum, itertools.combinations([1 << x for x in range(n)], size))


def _greedy_order1(masks: list[int] | tuple[int, ...], n: int) -> list[int] | None:
    """First-fit singleton assignment, trying instance (i mod n)+1 first at concept i.

    Concept i may take bit when it differs from every earlier concept j on
    bit | assign[j].  The earlier masks and assigned bits are packed in lanes
    of n+1 bits, concept j's at j*(n+1), the top bit of each a guard, so one
    candidate is checked against all of them by a few big-int operations: it
    is taken when no lane of (mi*ones ^ packed) & (bit*ones | sets) is zero.
    A completed assignment is admissible by construction; failure says
    nothing, the caller falls back to the complete search.  A step is a
    candidate tested, as wide as all the lanes; the first read waits 2^20 units.
    """
    width = n + 1
    assign: list[int] = []
    packed = sets = ones = 0  # ones: bit 0 of each earlier concept's lane
    step = _steps("order-1 greedy", len(masks) * width, first=False)
    for i, mi in enumerate(masks):
        diff = mi * ones ^ packed
        guards = ones << n
        for off in range(n):
            step()
            b = (i + off) % n
            x = diff & (ones << b | sets)
            if (x | guards) - ones & guards == guards:  # no guard borrowed from: no lane zero
                break
        else:
            return None
        shift = i * width
        packed |= mi << shift
        sets |= 1 << b + shift
        ones |= 1 << shift
        assign.append(1 << b)
    return assign


@functools.lru_cache(maxsize=4)  # one table at n = 400 holds 19 MB
def _carrier_groups(n: int, d: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """Per (d+1)-subset D of [n], lexicographically: its instances (0-based), the
    indices of the d-subsets inside D in the lexicographic list of d-subsets, and
    the candidate bits outside D, as the complement of those inside."""
    index = {cm: s for s, cm in enumerate(_subset_masks(n, d))}
    groups = []
    step = _steps(f"order-{d} carrier propagation")
    for dset in itertools.combinations(range(n), d + 1):
        step()
        dmask = sum(1 << x for x in dset)
        inside = tuple(index[dmask ^ (1 << x)] for x in dset)
        groups.append((dset, inside, ~sum(1 << s for s in inside)))
    return tuple(groups)


def _trace_cells(masks: list[int] | tuple[int, ...], n: int, d: int,
                 step: Callable[[], object]) -> Iterator[tuple[tuple[int, ...], int, list[int]]]:
    """Per (d+1)-subset D of [n], lexicographically: the candidates inside D, the
    candidate bits outside D (_carrier_groups), and D's cells.

    A cell is a nonempty set of concepts, as bits in concept order, that
    share one trace on D, so D has one cell per distinct trace.  The cells
    come from splitting the class on the column (the concepts containing x)
    of each instance x of D; each set is a step of the propagation they feed.
    """
    columns = [0] * n
    bit = 1
    for c in masks:
        while c:
            low = c & -c
            columns[low.bit_length() - 1] |= bit
            c ^= low
        bit <<= 1
    full = (1 << len(masks)) - 1
    for dset, inside, outside in _carrier_groups(n, d):
        step()
        cells = [full]
        for x in dset:
            column = columns[x]
            split = []
            for cell in cells:
                on = cell & column
                if on:
                    split.append(on)
                if on != cell:
                    split.append(cell ^ on)
            cells = split
        yield inside, outside, cells


def _lone_carriers_refute(groups: list[tuple[tuple[int, ...], int, list[int]]], m: int,
                          n: int, d: int, step: Callable[[], object]) -> bool:
    """True when a tied trace count leaves a trace on some (d+1)-set without a carrier.

    groups holds _trace_cells' triples for every (d+1)-set D, of a class of
    m concepts with m * (n-d) cells in all; at this tie exactly one concept
    of each cell takes a d-set inside D.  alive[s] holds the concepts that
    may still take candidate s and dom[i] the candidates concept i may still
    take, so a cell's possible carriers are its concepts alive at some s
    inside D.  A lone carrier is confined to the candidates inside D, which
    can strip other cells of their carriers.  This repeats until nothing
    changes or a cell has no carrier left, which is when fewer traces than
    the count needs still have a carrier.  Each set visited is a step.
    """
    ncand = comb(n, d)
    alive = [(1 << m) - 1] * ncand
    dom = [(1 << ncand) - 1] * m
    changed = True
    while changed:
        changed = False
        for inside, outside, cells in groups:
            step()
            reach = 0
            for s in inside:
                reach |= alive[s]
            for cell in cells:
                carriers = reach & cell
                if carriers & (carriers - 1) == 0:
                    if not carriers:
                        return True
                    i = carriers.bit_length() - 1
                    strip = dom[i] & outside
                    if strip:
                        dom[i] ^= strip
                        changed = True
                        while strip:
                            low = strip & -strip
                            alive[low.bit_length() - 1] ^= carriers
                            strip ^= low
    return False


def decide_order(masks: list[int] | tuple[int, ...], n: int, d: int) -> list[int] | None:
    """Instance-set masks of an admissible order-d teacher, in concept order.

    Returns None when no admissible assignment of d-subsets exists.  Raises
    BudgetError when the search budget runs out (see errors.budget).

    Before searching, a trace count may refute order d.  Two concepts whose
    d-sets S, S' lie inside one (d+1)-set D differ on S | S', which is S or
    D, so D holds at most |{c & D}| of them.  Each d-set lies in n-d of the
    D, so an admissible teacher needs the sum of |{c & D}| over all D to
    reach |masks| * (n-d).  The sum is taken over D's cells (_trace_cells),
    and it stops once it passes that need, as then it can neither refute
    nor tie.

    When the sum equals |masks| * (n-d), every D must be filled to that
    capacity: each trace on D is carried by exactly one concept whose d-set
    lies inside D.  A concept that is the only remaining possible carrier of
    a trace on D must therefore take a d-set inside D, which can leave
    another trace, on another D, with no carrier at all; order d is then
    refuted without a search.  The propagation runs over the cells that the
    count split, with each (d+1)-set's candidates from tables cached per
    (n, d).  This rule only refutes: the search still starts from full
    domains.
    """
    m = len(masks)
    if m == 0:
        return []

    if d == 1:
        sol = _greedy_order1(masks, n)
        if sol is not None:
            return sol

    need = m * (n - d)
    # each (d+1)-set holds a trace, and one holding an instance on which two
    # concepts differ holds two: with need or more (d+1)-sets the count
    # neither falls short nor ties, and no cells are split
    if 0 < d < n and m > 1 and comb(n, d + 1) < need:
        step = _steps(f"order-{d} carrier propagation")  # the cell walk's and the propagation's
        groups = []
        room = 0
        for group in _trace_cells(masks, n, d, step):
            room += len(group[2])
            if room > need:
                break
            groups.append(group)
        else:
            if room < need or _lone_carriers_refute(groups, m, n, d, step):
                return None

    cands = list(_subset_masks(n, d))
    ncand = len(cands)
    fullc = (1 << ncand) - 1

    if d == 1:
        # candidate index x-1 is the singleton {x}, so candidate masks align with instance masks
        def allowed(dm: int) -> int:
            return dm
    else:
        hit = [0] * (n + 1)
        for ci, cm in enumerate(cands):
            b = cm
            while b:
                low = b & -b
                hit[low.bit_length()] |= 1 << ci
                b ^= low
        memo: dict[int, int] = {}

        def allowed(dm: int) -> int:
            a = memo.get(dm)
            if a is None:
                a = 0
                b = dm
                while b:
                    low = b & -b
                    a |= hit[low.bit_length()]
                    b ^= low
                memo[dm] = a
            return a

    domains = [fullc] * m
    assigned = [-1] * m

    def most_constrained() -> int:
        """The unassigned concept with the fewest surviving candidates (first on ties), or -1."""
        pick = -1
        pick_count = ncand + 1
        for i in range(m):
            if assigned[i] < 0:
                c = domains[i].bit_count()
                if c < pick_count:
                    pick_count = c
                    pick = i
        return pick

    # one frame per assigned concept: [concept, untried candidates, undo trail of the tried one]
    first = most_constrained()
    stack = [[first, domains[first], []]]
    step = _steps(f"order-{d} teacher search", m * n)  # a node scans all m masks
    while stack:
        frame = stack[-1]
        pick, avail, trail = frame
        for j, old in trail:
            domains[j] = old
        assigned[pick] = -1
        if not avail:
            stack.pop()
            continue
        low = avail & -avail
        frame[1] = avail ^ low
        step()
        ci = low.bit_length() - 1
        smask = cands[ci]
        assigned[pick] = ci
        trail = frame[2] = []
        mp = masks[pick]
        ok = True
        for j in range(m):
            if assigned[j] >= 0:
                continue
            dm = mp ^ masks[j]
            if smask & dm:
                continue
            old = domains[j]
            new = old & allowed(dm)
            if new != old:
                trail.append((j, old))
                domains[j] = new
                if new == 0:
                    ok = False
                    break
        if ok:
            nxt = most_constrained()
            if nxt < 0:
                return [cands[a] for a in assigned]
            stack.append([nxt, domains[nxt], []])
    return None


@dataclass(frozen=True)
class NctdResult:
    """Outcome of an NCTD search.

    status is "exact" (d and teacher set), "exceeds_d_max", or "timeout"
    (the search budget ran out); lower_bound is the best verified bound.
    """

    status: str
    d: int | None
    teacher: NCTeacher | None
    lower_bound: int


def nctd(k: ConceptClass, d_max: int | None = None) -> NctdResult:
    """Exact no-clash teaching dimension of k, searched upward from the counting bound.

    When the search budget runs out, the status is "timeout" (see NctdResult).
    """
    if len(k) == 0:
        raise ValueError("nctd of an empty class")
    n = k.n
    if d_max is None:
        d_max = n
    if not 0 <= d_max <= n:
        raise ValueError(f"d_max must lie in 0..{n}")
    verified = nctd_lower_bound(k)
    for d in range(verified, d_max + 1):
        try:
            sol = decide_order(k.masks, n, d)
        except BudgetError:
            return NctdResult("timeout", None, None, verified)
        if sol is not None:
            teacher = NCTeacher(k, tuple(mask_to_instances(s) for s in sol))
            return NctdResult("exact", d, teacher, verified)
        verified = d + 1
    return NctdResult("exceeds_d_max", None, None, verified)


def serialize_teacher(t: NCTeacher) -> str:
    """Render a teacher: header ``n=<n> d=<order>``, then one line per concept."""
    n = t.k.n
    lines = [f"n={n} d={t.order}"]
    for b, s in zip(t.k.masks, t.sets):
        inst = " ".join(str(x) for x in sorted(s))
        lines.append(f"{_encode_bits(b, n)} : {inst}".rstrip())
    return "\n".join(lines) + "\n"


def parse_teacher(text: str) -> NCTeacher:
    """Parse the teacher file format written by serialize_teacher."""
    lines = _content_lines(text)
    n, d = _read_header(lines, "n", "d")
    masks: list[int] = []
    seen: set[int] = set()
    sets: list[frozenset[int]] = []
    for lineno, line in lines:
        where = f"line {lineno}: "
        if ":" not in line:
            raise FormatError(f"{where}expected '<bits> : <instances>'")
        left, _, right = line.partition(":")
        text_bits = left.strip()
        bits = _decode_bits(text_bits, n, where)
        if bits in seen:
            raise FormatError(f"{where}duplicate concept {_shown(text_bits)}")
        seen.add(bits)
        masks.append(bits)
        inst = _parse_instances(right, n, where)
        if len(inst) > d:
            raise FormatError(f"{where}teaching set larger than declared order {d}")
        sets.append(inst)
    if not masks:
        raise FormatError("teacher file assigns no sets")
    return NCTeacher(ConceptClass.from_masks(masks, n), tuple(sets))
