#!/usr/bin/env python3
"""No-clash teaching: one set per concept, no two concepts colluding.

Classical teaching sets isolate a concept against the whole class.  A
no-clash teacher relaxes that: each concept gets its own set, and the only
requirement is pairwise, that no two concepts agree on the union of their
assigned sets.  The achievable order (largest set size) can undercut
TD_min dramatically; NCTD is the smallest order of any admissible teacher.
"""

from itertools import combinations

from teachlab import (
    Concept,
    ConceptClass,
    clash,
    class2,
    decide_order,
    is_nc_teacher,
    linear_tournament,
    nctd,
    nctd_lower_bound,
    normalize_teacher,
    serialize_teacher,
    td_min,
)

print("=" * 64)
print("A. what a clash is")
print("=" * 64)

a, b = Concept.from_string("100"), Concept.from_string("010")
print(f"  concepts {a.to_string()} and {b.to_string()}:")
print(f"    sets {{1}}, {{2}}  -> clash? {clash(a, b, {1}, {2})}"
      "   (they disagree on 1)")
print(f"    sets {{3}}, {{3}}  -> clash? {clash(a, b, {3}, {3})}"
      "   (both are 0 on 3: the learner cannot tell them apart)")

print()
print("=" * 64)
print("B. the full power set over [2] has NCTD 1")
print("=" * 64)

k = ConceptClass.from_masks([0b00, 0b01, 0b10, 0b11], 2)
res = nctd(k)
print(f"  td_min = {td_min(k)} but nctd = {res.d}")
print(serialize_teacher(res.teacher).rstrip())
print("  four concepts, two singleton sets, each set shared by a pair that")
print("  disagrees on it; no classical teaching set of size 1 exists.")

print()
print("=" * 64)
print("C. the counting lower bound and where it is tight")
print("=" * 64)

# an admissible order-d teacher injects concepts into (set, labeling)
# pairs, so |class| <= 2^d * C(n, d); the solver starts its upward scan
# at the smallest d clearing that bar
print(f"  {'class':<28} {'|k|':>4} {'bound':>6} {'nctd':>5}")
for masks, n, label in [
    (range(16), 4, "power set over [4]"),
    (range(24), 5, "24 smallest masks over [5]"),
    (range(32), 5, "power set over [5]"),
    (list(class2(linear_tournament(4)).masks), 4, "half-intervals over [4]"),
]:
    kk = ConceptClass.from_masks(masks, n)
    lb = nctd_lower_bound(kk)
    r = nctd(kk)
    print(f"  {label:<28} {len(kk):>4} {lb:>6} {r.d:>5}")
print("  the power set over [5] clears the bar at d = 2 (40 >= 32), but the")
print("  concepts whose 2-sets fit in one 3-set must differ on it, so a 3-set")
print("  holds at most 8 of them.  Each 2-set lies in three 3-sets: 32 * 3 = 96")
print("  places are needed and the ten 3-sets offer 10 * 8 = 80, so the solver")
print(f"  refutes order 2 without searching: decide_order -> {decide_order(range(32), 5, 2)}")
tied = [0, 1, 2, 3, 4, 5, 8, 15]
room = sum(len({c & (1 << x | 1 << y) for c in tied}) for x, y in combinations(range(4), 2))
print(f"  {' '.join(c.to_string() for c in ConceptClass.from_masks(tied, 4).concepts)}"
      " is no tournament class, yet its traces")
print(f"  on the six 2-sets number {room} = 8 * 3: the count ties, so every trace on a 2-set D")
print("  is carried by exactly one concept whose singleton lies in D.  Confining each")
print("  lone carrier to its D leaves some trace with no carrier, so again no search:")
print(f"  decide_order -> {decide_order(tied, 4, 1)}")

print()
print("=" * 64)
print("D. normalization pads sets without breaking admissibility")
print("=" * 64)

k3 = class2(linear_tournament(3))
t1 = nctd(k3).teacher
print("  order-1 teacher on the half-intervals over [3]:")
print("    sets:", [sorted(s) for s in t1.sets])
t2 = normalize_teacher(t1, 2)
print("  padded to order 2 (smallest unused instances fill up):")
print("    sets:", [sorted(s) for s in t2.sets])
print(f"  still admissible: {is_nc_teacher(t2)}")
print("  growing a set only exposes more disagreement, so padding is safe;")
print("  that is what lets the counting argument fix every set at size d.")
