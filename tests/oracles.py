"""Brute-force oracles, written independently of the library internals.

Everything here works on plain ints and frozensets and scans subsets in
the most literal way the definitions allow.  Deliberately slow; only used
at sizes where exhaustive enumeration is instant.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from math import comb


def isolating(masks: list[int], i: int, subset: tuple[int, ...]) -> bool:
    """subset (0-based positions) separates masks[i] from every other mask."""
    smask = 0
    for x in subset:
        smask |= 1 << x
    return all((masks[i] ^ m) & smask for j, m in enumerate(masks) if j != i)


def brute_td(masks: list[int], i: int, n: int) -> tuple[int, frozenset[int]]:
    """Smallest isolating set for masks[i], lexicographically least witness."""
    for s in range(n + 1):
        for subset in itertools.combinations(range(n), s):
            if isolating(masks, i, subset):
                return s, frozenset(x + 1 for x in subset)
    raise AssertionError("the full domain always isolates in a duplicate-free class")


def brute_td_min(masks: list[int], n: int) -> int:
    return min(brute_td(masks, i, n)[0] for i in range(len(masks)))


def brute_td_max(masks: list[int], n: int) -> int:
    return max(brute_td(masks, i, n)[0] for i in range(len(masks)))


def brute_rtd(masks: list[int], n: int) -> int:
    """Recursive peeling straight from the definition, on frozensets of masks."""
    remaining = list(masks)
    worst = 0
    while remaining:
        tds = [brute_td(remaining, i, n)[0] for i in range(len(remaining))]
        m = min(tds)
        worst = max(worst, m)
        remaining = [c for c, td in zip(remaining, tds) if td > m]
    return worst


def brute_nctd(masks: list[int], n: int, d_cap: int | None = None) -> int:
    """Least d admitting a clash-free assignment of (<= d)-sets, by product scan."""
    m = len(masks)
    if m == 1:
        return 0
    cap = n if d_cap is None else d_cap
    for d in range(cap + 1):
        cands = [
            sum(1 << x for x in c)
            for c in itertools.combinations(range(n), d)
        ]
        for assign in itertools.product(cands, repeat=m):
            ok = True
            for i in range(m):
                for j in range(i + 1, m):
                    if (masks[i] ^ masks[j]) & (assign[i] | assign[j]) == 0:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return d
    raise AssertionError(f"no admissible teacher up to order {cap}")


def brute_h_max(n: int, k: int, t: int) -> int:
    """Largest k-set family with <= t members inside any (k+1)-subset, by full scan."""
    ksets = list(itertools.combinations(range(1, n + 1), k))
    dsets = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k + 1)]
    best = 0
    for r in range(len(ksets), 0, -1):
        if r <= best:
            break
        for fam in itertools.combinations(ksets, r):
            members = [frozenset(a) for a in fam]
            if all(sum(1 for a in members if a <= d) <= t for d in dsets):
                best = r
                break
    return best


def brute_h_witness(n: int, k: int, t: int) -> tuple[int, ...]:
    """First largest family, in itertools.combinations order over the ascending k-set masks.

    That is the first size-brute_h_max combination with at most t members
    inside every (k+1)-set.  The scan walks combinations in that order and
    skips every combination extending an invalid prefix: a (k+1)-set over
    its limit stays over it as members are added.
    """
    verts = sorted(sum(1 << (x - 1) for x in c) for c in itertools.combinations(range(1, n + 1), k))
    dsets = [sum(1 << (x - 1) for x in c) for c in itertools.combinations(range(1, n + 1), k + 1)]

    def valid(fam: list[int]) -> bool:
        return all(sum(1 for a in fam if a & d == a) <= t for d in dsets)

    def first(prefix: list[int], start: int, r: int) -> tuple[int, ...] | None:
        if len(prefix) == r:
            return tuple(prefix)
        for i in range(start, len(verts) - (r - len(prefix)) + 1):
            prefix.append(verts[i])
            if valid(prefix):
                found = first(prefix, i + 1, r)
                if found is not None:
                    return found
            prefix.pop()
        return None

    for r in range(len(verts), 0, -1):
        found = first([], 0, r)
        if found is not None:
            return found
    raise AssertionError("a single k-set is always a valid family")


def permuted(mask: int, perm: Sequence[int]) -> int:
    """The concept holding instance perm[x] + 1 exactly where mask holds x + 1."""
    return sum(1 << p for x, p in enumerate(perm) if mask >> x & 1)


def least_image(masks: Sequence[int], n: int) -> tuple[int, ...]:
    """Lexicographically least sorted image of a class under every permutation of [n]."""
    return min(tuple(sorted(permuted(c, perm) for c in masks))
               for perm in itertools.permutations(range(n)))


def binomial_tail(p: Fraction, m: int, threshold: Fraction) -> Fraction:
    """P(Bin(m, p) >= threshold), exactly."""
    total = Fraction(0)
    for z in range(m + 1):
        if z >= threshold:
            total += comb(m, z) * p**z * (1 - p) ** (m - z)
    return total


def pattern_unique_exists(masks: list[int], n: int, k: int) -> bool:
    """Some size-k instance set and labeling matched by exactly one concept."""
    for combo in itertools.combinations(range(n), k):
        smask = sum(1 << x for x in combo)
        seen: dict[int, int] = {}
        for mask in masks:
            key = mask & smask
            seen[key] = seen.get(key, 0) + 1
        if any(v == 1 for v in seen.values()):
            return True
    return False
