#!/usr/bin/env python3
"""Teaching dimensions of a concept class, four ways.

A teaching set for a concept C within a class is a set of instances whose
labels under C rule out every other concept.  Minimizing over sets gives
TD(C); sweeping over concepts gives the class-level summaries

  TD_min <= RTD <= ... <= TD_max

where RTD (the recursive teaching dimension) repeatedly peels off the
concepts that are cheapest to teach and takes the worst TD_min it ever saw.

The running example is the half-interval class over [3]: six concepts,
every one teachable with two instances.
"""

import random

from teachlab import (
    Concept,
    ConceptClass,
    class2,
    linear_tournament,
    rtd,
    rtd_bruteforce,
    td_max,
    td_min,
    td_of,
    teaching_report,
)

print("=" * 64)
print("A. the half-interval class over [3]")
print("=" * 64)

k = class2(linear_tournament(3))
rep = teaching_report(k)
for i, c in enumerate(k):
    w = " ".join(str(x) for x in sorted(rep.witnesses[i]))
    print(f"  concept {c.to_string()}  td={rep.sizes[i]}  witness={{{w}}}")
print(f"  td_min={rep.td_min}  td_max={rep.td}  rtd={rtd(k)}")

print()
print("Why witness {1,3} pins down 111: no other concept is 1 on both ends.")
size, witness = td_of(k, Concept.from_string("111"))
print(f"  td_of(111) = {size}, witness = {sorted(witness)}")

print()
print("=" * 64)
print("B. peeling: RTD as a sequence of easy-first rounds")
print("=" * 64)

# replay the peeling by hand: each round removes every concept whose
# teaching dimension within the remaining class is minimal
remaining = k
round_no = 0
while len(remaining):
    r = teaching_report(remaining)
    low = r.td_min
    keep = [b for b, size in zip(remaining.masks, r.sizes) if size > low]
    peeled = len(remaining) - len(keep)
    round_no += 1
    print(f"  round {round_no}: td_min={low}, peeled {peeled} concepts,"
          f" {len(keep)} left")
    if not keep:
        break
    remaining = ConceptClass.from_masks(keep, remaining.n)

print(f"  rtd = {rtd(k)} (maximum of the round minima)")

print()
print("=" * 64)
print("C. the three dimensions disagree on random classes")
print("=" * 64)

rng = random.Random(7)
print(f"  {'n':>3} {'size':>5} {'td_min':>7} {'rtd':>5} {'td_max':>7}")
shown = 0
while shown < 8:
    n = rng.randint(3, 6)
    size = rng.randint(3, min(12, 1 << n))
    kk = ConceptClass.from_masks(rng.sample(range(1 << n), size), n)
    a, b, c = td_min(kk), rtd(kk), td_max(kk)
    if a == c:
        continue  # boring row, resample
    assert a <= b <= c
    assert b == rtd_bruteforce(kk)
    print(f"  {n:>3} {size:>5} {a:>7} {b:>5} {c:>7}")
    shown += 1

print()
print("td_min <= rtd <= td_max held on every sample, and rtd matched the")
print("bruteforce subclass maximum each time.")
