#!/usr/bin/env python3
"""Random tournaments at desk scale: thresholds, onsets, and estimates.

The asymptotic claim says td_min of a random tournament class eventually
exceeds k(n) ~ log2 n - 2 log2 log2(2n) - O(1).  Everything a laptop can
enumerate sits far below the regime where that threshold is even positive,
and the demos below make the gap concrete: the inequalities kick in around
n in the thousands, while exact td_min computation tops out near n = 128.
The last section shows the separation itself: RTD of a tournament class
grows with n while its NCTD stays 1.
"""

from teachlab import (
    ExperimentConfig,
    claim_check,
    claim_scan,
    class1,
    nctd,
    random_tournament,
    rtd,
    run_tdmin_experiment,
    tau_estimate,
    threshold_k,
)

print("=" * 64)
print("A. the threshold k(n) is negative until n is large")
print("=" * 64)

print(f"  {'n':>9} {'k_prime':>10} {'k':>4}")
for e in (4, 6, 8, 10, 13, 16, 20):
    n = 1 << e
    thr = threshold_k(n)
    print(f"  {n:>9} {thr.k_prime:>10.3f} {thr.k:>4}")
print("  (shift 4 shown; the corollary variant uses shift 5, one lower.)")

print()
print("=" * 64)
print("B. where the growth inequalities switch on")
print("=" * 64)

scan = claim_scan()
print(f"  grid: {len(scan.records)} points up to 2^40")
print(f"  main inequalities hold from   n0 = {scan.n0}")
print(f"  corollary variant holds from  n0 = {scan.cor_n0}")

chk = claim_check(1 << 13)
print(f"  spot check at n = 8192: k = {chk.k}, ineq1 = {chk.ineq1}, "
      f"ineq2 = {chk.ineq2}, sufficient = {chk.sufficient}")
chk = claim_check(2048)
print(f"  spot check at n = 2048: corollary k = {chk.cor_k}, "
      f"cor_defined = {chk.cor_defined} (k would be negative)")

print()
print("=" * 64)
print("C. exact td_min statistics over random tournaments")
print("=" * 64)

cfg = ExperimentConfig(n=16, trials=200, seed=20260815)
records, summary = run_tdmin_experiment(cfg)
print(f"  n = {cfg.n}, trials = {cfg.trials}, master seed = {cfg.seed}")
print(f"  td_min counts: {dict(summary.counts)}")
print(f"  min/mean/max = {summary.minimum}/{summary.mean:.3f}/{summary.maximum}")
print(f"  first trial: seed = {records[0].seed}, td_min = {records[0].td_min}, "
      f"nctd = {records[0].nctd}")
print("  every class1 here has nctd =", {r.nctd for r in records}, "as the")
print("  characterization predicts: tournament classes teach with one example.")

print()
print("=" * 64)
print("D. estimating tau(n) = P[td_min <= k]")
print("=" * 64)

rep = tau_estimate(16, trials=50, seed=7)
print(f"  default threshold at n = 16: k = {rep.k} -> vacuous = {rep.vacuous}")
print("  (the event td_min <= k is empty for negative k; no sampling done)")

rep = tau_estimate(16, trials=200, seed=7, k_override=2)
print(f"  with k = 2 overridden: hits = {rep.hits}/{rep.trials}, "
      f"tau-hat = {rep.fraction:.3f}, 95% CI [{rep.ci_low:.3f}, {rep.ci_high:.3f}]")
print("  small classes are easy to teach; the claim is about the eventual")
print("  regime, and these estimates show how far away that regime is.")

print()
print("=" * 64)
print("E. RTD against NCTD on tournament classes")
print("=" * 64)

print(f"  {'n':>4} {'seed':>5} {'rtd':>4} {'nctd':>5}")
for n, seeds in ((64, (0, 1, 2)), (128, (0,))):
    for seed in seeds:
        k = class1(random_tournament(n, seed))
        print(f"  {n:>4} {seed:>5} {rtd(k):>4} {nctd(k).d:>5}")
print("  RTD is already 3 here and grows like log n on such classes, while")
print("  a no-clash teacher gets by with one example per concept.")
