"""Answer checkers written from the definitions, sharing no code with teachlab.

Masks follow the package's file formats: bit x-1 of a concept mask labels
instance x.  Every function here is a direct, unoptimised reading of a
definition, so a bug in a solver cannot hide behind the same bug here.
"""

from __future__ import annotations

import itertools

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64(seed: int, index: int) -> int:
    """The index-th SplitMix64 output from seed (Steele, Lea, Flood 2014)."""
    z = (seed + (index + 1) * GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def tournament_edges(n: int, seed: int) -> set[tuple[int, int]]:
    """Directed edges (winner, loser) of the seeded tournament: one fair coin per pair.

    Pairs i < j are ranked row by row; the coin for rank r is bit 0 of
    splitmix64(seed, r), and a set bit orients the pair as i -> j.
    """
    edges = set()
    r = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            edges.add((i, j) if splitmix64(seed, r) & 1 else (j, i))
            r += 1
    return edges


def beaten_by(n: int, edges: set[tuple[int, int]]) -> list[int]:
    """Mask of the players that beat j, for j = 1..n."""
    out = [0] * n
    for a, b in edges:
        out[b - 1] |= 1 << (a - 1)
    return out


def class1_masks(n: int, edges: set[tuple[int, int]]) -> list[int]:
    full = (1 << n) - 1
    return [full ^ m for m in beaten_by(n, edges)]


def class2_masks(n: int, edges: set[tuple[int, int]]) -> list[int]:
    full = (1 << n) - 1
    win = beaten_by(n, edges)
    return win + [full ^ m for m in win]


def has_unique_pattern(masks: list[int], n: int, size: int) -> bool:
    """Does some instance set S of this size single out exactly one concept by its labels on S?

    That is the definition of a teaching set of size `size`, so
    td_min <= size iff this holds.
    """
    for combo in itertools.combinations(range(n), size):
        smask = 0
        for x in combo:
            smask |= 1 << x
        seen: dict[int, int] = {}
        for m in masks:
            key = m & smask
            seen[key] = seen.get(key, 0) + 1
        if 1 in seen.values():
            return True
    return False


def td_min_is(masks: list[int], n: int, value: int) -> bool:
    """True iff the smallest teaching set of any concept in the class has `value` instances."""
    if value < 0 or value > n:
        return False
    if value > 0 and has_unique_pattern(masks, n, value - 1):
        return False
    return has_unique_pattern(masks, n, value)


def teaches(masks: list[int], i: int, smask: int) -> bool:
    """True iff concept i is the only concept that agrees with it on the instances in smask."""
    return all((masks[i] ^ m) & smask for j, m in enumerate(masks) if j != i)


def no_clash(masks: list[int], sets: list[int]) -> bool:
    """True iff every pair of concepts disagrees somewhere on the union of their two sets."""
    for i, j in itertools.combinations(range(len(masks)), 2):
        if (masks[i] ^ masks[j]) & (sets[i] | sets[j]) == 0:
            return False
    return True


def narrow_clique_free(members: list[frozenset[int]], n: int, k: int, t: int) -> bool:
    """True iff every (k+1)-subset of [n] contains at most t of the k-sets in members."""
    if any(len(a) != k or not a <= set(range(1, n + 1)) for a in members):
        return False
    if len(set(members)) != len(members):
        return False
    for d in itertools.combinations(range(1, n + 1), k + 1):
        ds = set(d)
        if sum(1 for a in members if a <= ds) > t:
            return False
    return True


def tournament_classes(n: int) -> set[frozenset[int]]:
    """The distinct 2n-concept classes induced by all tournaments on [n]."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    out = set()
    for bits in range(1 << len(pairs)):
        edges = {(i, j) if bits >> r & 1 else (j, i) for r, (i, j) in enumerate(pairs)}
        out.add(frozenset(class2_masks(n, edges)))
    return out


def canonical(masks, n: int) -> tuple[int, ...]:
    """Least sorted image of a class under all relabelings of [n]."""
    best = None
    for perm in itertools.permutations(range(n)):
        img = tuple(sorted(sum(1 << perm[x] for x in range(n) if m >> x & 1) for m in masks))
        if best is None or img < best:
            best = img
    return best
