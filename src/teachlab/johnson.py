"""Johnson graphs, wide and narrow cliques, and exact narrow-clique-free maxima.

J(n, k) has the k-subsets of [n] as vertices, adjacent when they share k-1
elements.  A clique is wide when all members share a common (k-1)-set and
narrow when their union has only k+1 elements; maximal narrow cliques are
exactly the k-subsets of a (k+1)-set.  A family therefore avoids narrow
(t+1)-cliques iff every (k+1)-subset of [n] contains at most t members, and
that counter form drives the branch-and-bound search for H_t(n, k): include
or exclude vertices in colex order, prune on remaining-vertex count, and
stop once a family meets the counting bound t*C(n,k+1)/(n-k), which equals
t*C(n,k)/(k+1) exactly since each k-set lies in exactly n-k of the
(k+1)-sets.  The search is one loop that backtracks by excluding the last
vertex it included, and stops early only on the search budget (errors).
Its first leaf is the greedy family.  Each vertex and each (k+1)-set of
the set-up is a step, and so is each backtrack: a descent between two
backtracks reads no budget, and the first descent, the greedy, is no
exception.

The loop's cost per vertex is one C-level call: an operator.itemgetter per
vertex reads the counters of its n-k (k+1)-sets as a tuple, and the vertex
is skipped when t is among them.  The remaining-vertex prune is an index
limit that moves only when the search includes a vertex or backtracks, so
a run of skipped vertices costs no arithmetic.  The set-up keeps, per
vertex, one tuple of counter indices, which its getter shares: memory is
O(C(n,k) * (n-k)).

The search never excludes vertex 0 ({1..k}): it stops where it would take
that branch.  This keeps the value, as S_n acts transitively on the k-sets
and keeps every (k+1)-set count, so some maximum family contains vertex 0.
It keeps the witness, as the include-vertex-0 subtree comes first in DFS
order, so the first leaf of the best size lies in it.

A second cut is orbital branching (Ostrowski, Linderoth, Rossi and
Smriglio, Math. Prog. 2011) at vertex 0's children.  Once the search
backtracks out of a vertex u with path [0], it excludes every later vertex
that meets {1..k} in as many points as u: u's orbit under the stabiliser
of vertex 0, Sym([k]) x Sym([n] minus [k]), which keeps every (k+1)-set
count.  The orbits' colex-first members, [r] plus {k+1..2k-r} for r points
in [k], come in order of falling r, so u is its orbit's first member and
all that is excluded by then, by this cut or by the counts, is a union of
whole orbits.  So a family holding vertex 0 and a later w in u's orbit has
an image of the same size holding vertex 0 and u and avoiding the same
vertices, which the include-u subtree has seen: no family strictly larger
than the best found then holds w.  As only a strictly larger family
becomes a new best, the first leaf of the best size, the colex-least
witness, stays.  The cut points the orbit's getters at one shared getter
of a counter pinned at t, so the skip loop passes them with no test.

A third cut runs the same argument down the first path.  In colex order
vertices 0..k are the k-subsets of [k+1], vertex i being [k+1] minus
{k+1-i}.  When the search backtracks out of a vertex j >= 2 with path
[0, 1, ..., j-1], it excludes vertices j+1..k for the rest of the run.  Let
R = {k+2-j, ..., k+1}, the points that the path's members miss.  The
path's stabiliser Sym([k+1] minus R) x Sym(R) x Sym([n] minus [k+1])
keeps every (k+1)-set count and the path, and maps vertex j onto each of
vertices j+1..k, so a family that holds the path and one of them has an
image of the same size that holds the path and vertex j, whose subtree is
done: as before, no family strictly larger than the best found holds one,
and the value and the witness stay.  The families searched later that
miss part of the path lie under the next backtrack on the first path, out
of vertex j-1, whose cut excludes a superset; the last is the orbit cut at
vertex 1.  So nothing is ever unblocked.  A path [0..j] lies in [k+1], so
the cut bites only when 2 <= j < t: at t = 2 the count of [k+1] already
blocks vertices 2..k.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .concepts import _content_lines, _parse_instances, instances_to_mask, mask_to_instances
from .errors import BudgetError, FormatError, _steps

__all__ = [
    "CliqueClass",
    "HMaxResult",
    "KSetFamily",
    "classify_clique",
    "complement_family",
    "h_max",
    "h_ratio",
    "johnson_adjacent",
    "narrow_clique_free",
    "narrow_cliques",
    "parse_family",
    "restrict_family",
    "serialize_family",
]


@dataclass(frozen=True)
class KSetFamily:
    """A family of k-subsets of [n]."""

    n: int
    k: int
    members: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        for a in self.members:
            if len(a) != self.k:
                raise ValueError(f"member {sorted(a)} does not have size {self.k}")
            for x in a:
                if not 1 <= x <= self.n:
                    raise ValueError(f"instance {x} outside domain 1..{self.n}")

    def member_masks(self) -> list[int]:
        return sorted(instances_to_mask(a, self.n) for a in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self.members)


class CliqueClass(enum.Enum):
    WIDE = "wide"
    NARROW = "narrow"
    BOTH = "both"
    NEITHER = "neither"


def johnson_adjacent(a: Iterable[int], b: Iterable[int]) -> bool:
    """True iff the two equal-size sets share all but one element."""
    sa, sb = frozenset(a), frozenset(b)
    if len(sa) != len(sb):
        raise ValueError("Johnson adjacency needs equal-size sets")
    return len(sa & sb) == len(sa) - 1


def classify_clique(sets: Iterable[Iterable[int]]) -> CliqueClass:
    """Classify a clique of J(n, k) by common intersection and union size.

    Raises ValueError when the input is not a clique (including repeated
    vertices).  Singletons satisfy neither bound; pairs satisfy both.
    """
    members = [frozenset(s) for s in sets]
    if not members:
        raise ValueError("empty clique")
    if len(set(members)) != len(members):
        raise ValueError("repeated vertex: not a clique")
    k = len(members[0])
    for a, b in itertools.combinations(members, 2):
        if not johnson_adjacent(a, b):
            raise ValueError(f"{sorted(a)} and {sorted(b)} are not adjacent: not a clique")
    common = frozenset.intersection(*members)
    union = frozenset.union(*members)
    wide = len(common) == k - 1
    narrow = len(union) == k + 1
    if wide and narrow:
        return CliqueClass.BOTH
    if wide:
        return CliqueClass.WIDE
    if narrow:
        return CliqueClass.NARROW
    return CliqueClass.NEITHER


def narrow_cliques(n: int, k: int) -> Iterator[frozenset[frozenset[int]]]:
    """The maximal narrow cliques of J(n, k): all k-subsets of each (k+1)-subset."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    for d in itertools.combinations(range(1, n + 1), k + 1):
        dset = frozenset(d)
        yield frozenset(dset - {x} for x in d)


def narrow_clique_free(f: KSetFamily, t: int) -> bool:
    """True iff no t+1 members of f fit inside one (k+1)-subset of [n].

    Equivalent to f spanning no narrow (t+1)-clique: t+1 distinct k-sets
    inside a (k+1)-set always form one.  Each member is counted in its n-k
    supersets of size k+1, O(|f| * (n-k)) dict updates, and the scan stops
    at the first count above t.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    full = (1 << f.n) - 1
    inside: dict[int, int] = {}
    for m in f.member_masks():
        rest = full ^ m
        while rest:
            low = rest & -rest
            rest ^= low
            d = m | low
            count = inside.get(d, 0) + 1
            if count > t:
                return False
            inside[d] = count
    return True


@dataclass(frozen=True)
class HMaxResult:
    """Outcome of an H_t(n, k) search; exact iff lower == upper == size."""

    n: int
    k: int
    t: int
    status: str  # "exact" or "inconclusive"
    size: int | None
    witness: KSetFamily
    lower: int
    upper: int


def _ascending(n: int, k: int, step: Callable[[], object]) -> Iterator[int]:
    """The k-subsets of [n] as masks in ascending (colex) order, by Gosper's hack; a step each."""
    v, top = (1 << k) - 1, 1 << n
    while v < top:
        step()
        yield v
        low = v & -v
        up = v + low
        v = ((up ^ v) >> 2) // low | up


def h_max(n: int, k: int, t: int) -> HMaxResult:
    """Largest family of k-subsets of [n] with at most t members in any (k+1)-subset.

    Exact, with the colex-least maximum witness, unless the search budget
    (errors) runs out: then it is inconclusive, with the best family found as
    witness and lower bound and the counting bound as upper; it never raises
    BudgetError.  The search is one include-first DFS loop whose first leaf
    is the greedy family.  It tests a vertex with one getter call on the
    (k+1)-set counters and skips past blocked vertices up to an index limit
    that moves only on an include or a backtrack.  Each vertex and
    (k+1)-set of the set-up is a step whose first read waits 2^20 units, and
    each backtrack is a step, so no descent between two backtracks reads the
    budget, the first one included.

    The search stops where it would exclude vertex 0 ({1..k}).  By symmetry
    some maximum family contains vertex 0, and the DFS visits the subtree
    that includes it first, so the colex-least maximum lies there too.
    Once it leaves a vertex u with path [0], it excludes the later vertices
    that meet {1..k} in as many points as u, the rest of u's orbit under
    the stabiliser of {1..k}; once it leaves a vertex j >= 2 of [k+1] with
    path [0..j-1], it excludes vertices j+1..k, the images of j under the
    path's stabiliser (a cut that bites only when t >= 3).  Either cut
    drops only families whose image of the same size u's or j's subtree
    has seen, so the value and the witness stay (see the module docstring).
    """
    if not 1 <= t <= k <= n:
        raise ValueError(f"need 1 <= t <= k <= n, got t={t}, k={k}, n={n}")
    if n == k:
        fam = KSetFamily(n, k, frozenset({frozenset(range(1, n + 1))}))
        return HMaxResult(n, k, t, "exact", 1, fam, 1, 1)
    nv, nds = comb(n, k), comb(n, k + 1)
    upper0 = min(nv, t * nds // (n - k))  # the counting bound
    what = f"H_{t}({n},{k}) search"
    setup = _steps(what, first=False)
    witness: list[int] = []  # the best family found so far, as masks
    try:
        dindex = {d: i for i, d in enumerate(_ascending(n, k + 1, setup))}
        points = [1 << x for x in range(n)]
        # per vertex, the indices of the n-k (k+1)-sets that contain it, and a
        # getter of their counts that shares that tuple; it lists a lone index
        # (k = n-1) twice, as a getter of one index returns a bare count
        verts: list[int] = []
        vds: list[tuple[int, ...]] = []
        reads: list[itemgetter] = []
        for v in _ascending(n, k, setup):
            ds = tuple([dindex[v | p] for p in points if not v & p])
            verts.append(v)
            vds.append(ds)
            reads.append(itemgetter(*ds) if len(ds) > 1 else itemgetter(*ds, *ds))
        del dindex

        # include-first DFS: the first leaf is the greedy family, and the first
        # leaf of the best size the colex-least optimum.  Backtracking pops the
        # last included vertex and resumes past it, excluded.  A node can beat
        # best only if depth + (vertices left) > best, so every vertex from
        # lim = nv - (best - depth) on is pruned, or none while depth > best:
        # lim moves only when the search includes a vertex or backtracks.  The
        # counting bound prunes nothing: an included k-set takes n-k of the
        # t * C(n, k+1) counter units, so depth plus the units left over n-k
        # stays upper0 or more, and it serves only to stop at upper0
        counts = [0] * nds
        counts.append(t)  # pinned at t: a vertex whose getter reads it is blocked for good
        blocked = itemgetter(nds, nds)
        path: list[int] = []
        best = idx = 0
        lim = nv
        step = _steps(what)
        while True:
            while idx < lim and t in reads[idx](counts):
                idx += 1  # skip a vertex that would fill a (k+1)-set past t
            if idx < lim:
                for di in vds[idx]:
                    counts[di] += 1
                path.append(idx)
                idx += 1
                if lim < nv:
                    lim += 1
                continue
            depth = len(path)
            if depth > best:  # idx = nv: a leaf
                best = depth
                witness = [verts[i] for i in path]
                if best >= upper0:
                    break
            # pruned node or leaf: exclude the last vertex included, unless it is
            # vertex 0.  On leaving u with path [0], exclude the rest of u's
            # orbit; on leaving a vertex j <= k with path [0..j-1], j >= 2,
            # exclude vertices j+1..k
            if depth <= 1:
                break
            step()
            idx = path.pop()
            for di in vds[idx]:
                counts[di] -= 1
            if depth == 2:
                r = (verts[idx] & verts[0]).bit_count()
                for i in range(idx + 1, nv):
                    if (verts[i] & verts[0]).bit_count() == r:
                        reads[i] = blocked
            elif idx <= k and idx == depth - 1:
                reads[idx + 1:k + 1] = [blocked] * (k - idx)
            idx += 1
            lim -= 1  # a leaf has just set best = depth, or a prune found depth <= best
    except BudgetError:
        best = None  # stopped: the witness is the best family found
    fam = KSetFamily(n, k, frozenset(mask_to_instances(v) for v in witness))
    if best is None:
        return HMaxResult(n, k, t, "inconclusive", None, fam, len(witness), upper0)
    return HMaxResult(n, k, t, "exact", best, fam, best, best)


def h_ratio(n: int, k: int, t: int) -> Fraction:
    """H_t(n, k) / C(n, k) as an exact rational; raises BudgetError if h_max's budget runs out."""
    res = h_max(n, k, t)
    if res.status != "exact":
        raise BudgetError(f"H_{t}({n},{k}) search hit its deadline with "
                          f"{res.lower} <= H_{t}({n},{k}) <= {res.upper}")
    return Fraction(res.size, comb(n, k))


def restrict_family(f: KSetFamily, i: int) -> KSetFamily:
    """Members avoiding instance i, re-indexed over a domain of size n-1.

    Labels below i are unchanged; labels above i shift down by one (the
    order-preserving embedding of [n] minus {i} onto [n-1], and the identity
    when i = n).
    """
    if not 1 <= i <= f.n:
        raise ValueError(f"instance {i} outside domain 1..{f.n}")
    if f.k > f.n - 1:
        raise ValueError("members span the whole domain; nothing survives restriction")
    kept = []
    for a in f.members:
        if i in a:
            continue
        kept.append(frozenset(x if x < i else x - 1 for x in a))
    return KSetFamily(f.n - 1, f.k, frozenset(kept))


def complement_family(f: KSetFamily) -> KSetFamily:
    """Replace every member A by [n] minus A; an isomorphism J(n,k) -> J(n,n-k)."""
    if f.k == f.n:
        raise ValueError("complement members would be empty")
    full = frozenset(range(1, f.n + 1))
    return KSetFamily(f.n, f.n - f.k, frozenset(full - a for a in f.members))


def serialize_family(f: KSetFamily) -> str:
    """One member per line, instances ascending, members in colex order."""
    lines = []
    for m in f.member_masks():
        lines.append(" ".join(str(x) for x in sorted(mask_to_instances(m))))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_family(text: str, n: int) -> KSetFamily:
    """Parse a witness family over [n]; k is taken from the first member line."""
    members: set[frozenset[int]] = set()
    k: int | None = None
    for lineno, line in _content_lines(text):
        where = f"line {lineno}: "
        member = _parse_instances(line, n, where)
        if k is None:
            k = len(member)
        elif len(member) != k:
            raise FormatError(f"{where}member size {len(member)} differs from {k}")
        if member in members:
            raise FormatError(f"{where}duplicate member")
        members.add(member)
    if k is None:
        raise FormatError("witness file lists no members")
    return KSetFamily(n, k, frozenset(members))
