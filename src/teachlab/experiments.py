"""Desk-scale probabilistic and exhaustive experiments.

Random tournaments drive the td_min statistics: trial i of master seed s
derives its own tournament seed from SplitMix64 stream i, so runs are
reproducible and trials are order-independent (safe to parallelize).  The
exhaustive searches (dimension-1 characterization, maximum-class search)
enumerate concept classes directly as subsets of the 2^n concept masks and
lean on the order-d teacher decision procedure, once per orbit of classes
under the symmetries of the n-cube (domain permutations and XOR by a
concept mask), which keep every clash.  Each orbit is written on the
2^n-bit class masks alone: delta swaps walk the domain permutations, a
table indexed by one byte of a class mask gives every translation of each
permuted mask, and the permutation swaps also give the maximum witnesses:
canonical forms under domain permutation.

The threshold and claim arithmetic uses base-2 logarithms throughout.
Binomials are exact integers however large; the only approximate step is
taking log of an exact integer, and every inequality checked that way has
margins that dwarf float error by many orders of magnitude.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .bounds import ksz_bound
from .classical import td_min
from .concepts import ConceptClass, instances_to_mask
from .errors import BudgetError, _process_pool, _steps
from .ncteach import decide_order, nctd
from .rng import stream
from .tournaments import Tournament, all_tournaments, class1, class2, random_tournament

__all__ = [
    "ClaimCheck",
    "ClaimScan",
    "Dim1Report",
    "ExperimentConfig",
    "MaxClassResult",
    "PatternReport",
    "TauReport",
    "Threshold",
    "TdminSummary",
    "TrialRecord",
    "claim_check",
    "claim_scan",
    "max_class_search",
    "pattern_count",
    "pattern_report",
    "run_tdmin_experiment",
    "tau_estimate",
    "threshold_k",
    "verify_dim1",
]


@dataclass(frozen=True)
class Threshold:
    """k' = log2(n) - 2*log2(log2(2n)) - shift, and k = floor(k')."""

    k_prime: float
    k: int


def threshold_k(n: int, shift: int = 4) -> Threshold:
    """The td_min threshold for class1 of a random tournament; may be negative."""
    if n < 2:
        raise ValueError("need n >= 2")
    kp = math.log2(n) - 2.0 * math.log2(math.log2(2 * n)) - shift
    return Threshold(kp, math.floor(kp))


@dataclass(frozen=True)
class ClaimCheck:
    """Both growth inequalities at one n, plus the corollary variant.

    defined means k >= 0 so the binomial term is meaningful; holds means
    both inequalities are satisfied.  The sufficient conditions are the
    log-form reductions and imply their inequality wherever both are
    defined.
    """

    n: int
    k_prime: float
    k: int
    defined: bool
    ineq1: bool | None        # 2^-(k+1) (n-k) >= 2, exactly
    ineq2: bool | None        # C(n,k) 2^k exp(-2^-(k+3)(n-k)) < 1
    sufficient: bool | None   # k log(2n) - 2^-(k+4) n < 0
    cor_k_prime: float
    cor_k: int
    cor_defined: bool
    cor_ineq1: bool | None    # 2^-(k+2) n >= 2, exactly
    cor_ineq2: bool | None    # C(n,k) 2^k exp(-2^-(k+4) n) < (2n)^-log(2n)
    cor_sufficient: bool | None  # k log(2n) - 2^-(k+4) n < -log^2(2n)

    @property
    def holds(self) -> bool:
        return bool(self.defined and self.ineq1 and self.ineq2)

    @property
    def cor_holds(self) -> bool:
        return bool(self.cor_defined and self.cor_ineq1 and self.cor_ineq2)


def claim_check(n: int) -> ClaimCheck:
    """Evaluate the random-tournament growth claim and its corollary form at n."""
    thr = threshold_k(n, shift=4)
    cor = threshold_k(n, shift=5)
    k, k2 = thr.k, cor.k
    log2n = math.log2(2 * n)

    defined = 0 <= k <= n
    ineq1 = ineq2 = sufficient = None
    if defined:
        ineq1 = Fraction(n - k, 1 << (k + 1)) >= 2
        lhs_log = math.log(comb(n, k) * (1 << k))
        ineq2 = lhs_log < float(Fraction(n - k, 1 << (k + 3)))
        sufficient = k * log2n < float(Fraction(n, 1 << (k + 4)))

    cor_defined = 0 <= k2 <= n
    cor_ineq1 = cor_ineq2 = cor_sufficient = None
    if cor_defined:
        cor_ineq1 = Fraction(n, 1 << (k2 + 2)) >= 2
        lhs_log = math.log(comb(n, k2) * (1 << k2))
        x2 = float(Fraction(n, 1 << (k2 + 4)))
        cor_ineq2 = lhs_log - x2 < -log2n * math.log(2 * n)
        cor_sufficient = k2 * log2n - x2 < -(log2n * log2n)

    return ClaimCheck(n, thr.k_prime, k, defined, ineq1, ineq2, sufficient,
                      cor.k_prime, k2, cor_defined, cor_ineq1, cor_ineq2, cor_sufficient)


@dataclass(frozen=True)
class ClaimScan:
    """claim_check over a geometric grid, with empirical onset points.

    n0 (and cor_n0) is the least grid value from which every tested larger
    grid value satisfies the inequalities; None when the tail still fails.
    """

    limit: int
    records: tuple[ClaimCheck, ...]
    n0: int | None
    cor_n0: int | None


def claim_scan(limit: int = 1 << 40) -> ClaimScan:
    """Scan powers of two and 3*2^(e-1) up to limit.

    Raises BudgetError("claim scan hit its deadline") when the search budget
    runs out (see errors.budget).
    """
    if limit < 2:
        raise ValueError("need limit >= 2")
    grid: set[int] = set()
    e = 1
    while (1 << e) <= limit:
        grid.add(1 << e)
        if e >= 2 and 3 << (e - 1) <= limit:
            grid.add(3 << (e - 1))
        e += 1
    # a value is a step over the bits of its binomials, limit.bit_length() ** 2 at most
    step = _steps("claim scan", limit.bit_length() ** 2)
    records = []
    for n in sorted(grid):
        step()
        records.append(claim_check(n))

    def onset(flags: list[bool]) -> int | None:
        start = None
        for rec, ok in zip(reversed(records), reversed(flags)):
            if not ok:
                break
            start = rec.n
        return start

    n0 = onset([r.holds for r in records])
    cor_n0 = onset([r.cor_holds for r in records])
    return ClaimScan(limit, tuple(records), n0, cor_n0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Tournament size n >= 2 (any: the budget bounds the run), trial count and master seed."""

    n: int
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.trials < 1:
            raise ValueError("need at least one trial")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    td_min: int
    nctd: int


@dataclass(frozen=True)
class TdminSummary:
    n: int
    trials: int
    seed: int
    counts: tuple[tuple[int, int], ...]  # (td_min value, multiplicity), ascending
    minimum: int
    mean: float
    maximum: int
    threshold: int
    fraction_below: float


def _trial_record(args: tuple[int, int, int]) -> TrialRecord:
    n, master_seed, trial = args
    trial_seed = stream(master_seed, trial)
    g = random_tournament(n, trial_seed)
    k1 = class1(g)
    td = td_min(k1)
    nc = nctd(k1).d
    if nc is None:
        raise BudgetError(f"nctd of trial {trial} hit its deadline")
    return TrialRecord(trial, trial_seed, td, nc)


def run_tdmin_experiment(cfg: ExperimentConfig, jobs: int = 1) -> tuple[tuple[TrialRecord, ...], TdminSummary]:
    """td_min and nctd of class1 over cfg.trials random tournaments.

    Deterministic for a given config; records come back ordered by trial
    index whatever the job count.  jobs > 1 spreads trials over that many
    worker processes, each under this process's search budget, its only limit.
    """
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    args = [(cfg.n, cfg.seed, i) for i in range(cfg.trials)]
    if jobs > 1:
        with _process_pool(jobs) as pool:
            records = tuple(pool.map(_trial_record, args))
    else:
        records = tuple(_trial_record(a) for a in args)
    values = [r.td_min for r in records]
    counter = Counter(values)
    k = threshold_k(cfg.n).k
    below = sum(1 for v in values if v < k)
    summary = TdminSummary(
        cfg.n, cfg.trials, cfg.seed,
        tuple(sorted(counter.items())),
        min(values), sum(values) / len(values), max(values),
        k, below / len(values),
    )
    return records, summary


def pattern_count(g: Tournament, s, b) -> int:
    """Concepts of class1(g) matching bit pattern b on the sorted instances of s."""
    inst = sorted(set(s))
    bits = list(b)
    if len(bits) != len(inst):
        raise ValueError(f"pattern has {len(bits)} bits for {len(inst)} instances")
    smask = instances_to_mask(inst, g.n)
    pat = 0
    for x, bit in zip(inst, bits):
        if bit not in (0, 1):
            raise ValueError("pattern bits must be 0 or 1")
        if bit:
            pat |= 1 << (x - 1)
    return sum(1 for m in class1(g).masks if m & smask == pat)


@dataclass(frozen=True)
class PatternReport:
    """Pattern statistics of class1(g) at one sample size k.

    unique_exists (some (S, b) matched by exactly one concept) is equivalent
    to td_min(class1(g)) <= k.  min_count minimizes over all 2^k patterns
    per S including unmatched ones; min_realized only over matched ones, so
    min_count >= 2 is strictly stronger than the absence of unique patterns.
    """

    n: int
    k: int
    min_count: int
    min_realized: int
    unique_exists: bool


def pattern_report(g: Tournament, k: int) -> PatternReport:
    if not 0 <= k <= g.n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    masks = class1(g).masks
    min_count: int | None = None
    min_realized: int | None = None
    unique = False
    for combo in itertools.combinations(range(g.n), k):
        smask = 0
        for x in combo:
            smask |= 1 << x
        buckets = Counter(m & smask for m in masks)
        realized = min(buckets.values())
        overall = realized if len(buckets) == (1 << k) else 0
        if min_realized is None or realized < min_realized:
            min_realized = realized
        if min_count is None or overall < min_count:
            min_count = overall
        if realized == 1:
            unique = True
    if min_count is None or min_realized is None:
        raise AssertionError("0 <= k <= n leaves at least one k-subset to scan")
    return PatternReport(g.n, k, min_count, min_realized, unique)


@dataclass(frozen=True)
class Dim1Report:
    """Outcome of the exhaustive dimension-1 characterization at one n."""

    n: int
    candidates: int
    passing: frozenset[frozenset[int]]
    expected: frozenset[frozenset[int]]
    complement_closed: bool

    @property
    def ok(self) -> bool:
        return self.passing == self.expected


def _plain_changes(n: int) -> list[int]:
    """The Steinhaus-Johnson-Trotter order of S_n as n! - 1 adjacent transpositions.

    Entry i swaps positions i and i + 1.  Between two transpositions of the
    first n - 1 elements, element n sweeps down from the last position to
    the first, or back up.
    """
    out: list[int] = []
    for m in range(2, n + 1):  # out is the order of S_(m-1), extended to S_m
        prev, out = out + [-1], []
        for j, i in enumerate(prev):
            out.extend(range(m - 2, -1, -1) if j % 2 == 0 else range(m - 1))
            if i >= 0:
                out.append(i + 1 - j % 2)  # the others sit one position up after a sweep down
    return out


_PLUS_ONE = bytes(range(1, 256)) + b"\0"


@lru_cache(maxsize=4)
def _cube_walk(n: int) -> tuple[bytes, list[tuple[int, ...]], list[tuple[int, int]]]:
    """The popcount of each class mask over [n], the translations of each byte
    of a class mask, and the swaps that walk the domain permutations.

    The popcounts, byte x for mask x, are built by doubling: the counts of
    the masks with concept c are those without it, plus one.  Row b of the
    byte table lists the images of byte b, a set of concepts 0..7, under
    XOR by each v < min(8, 2^n); each column v is built by doubling too.
    XOR by v < 8 permutes the 8 concepts of every byte of a class mask in
    the same way, so below n = 4 row x is the translation orbit of mask x.
    At n = 4, XOR by v >= 8 also swaps the mask's two bytes, so the orbit
    of hi << 8 | lo is hi' << 8 | lo' and lo' << 8 | hi' for each v < 8,
    where hi' and lo' are entry v of rows hi and lo.  A turn (shift, mask)
    swaps instances i+1 and i+2 by one delta swap: each concept c with
    c >> i & 3 == 1 (mask) trades places with c + 2^i = c + shift.  The
    turns start with (0, 0), which changes nothing, and go on through the
    n! - 1 transpositions of _plain_changes(n), so they visit every
    permutation.
    """
    total = 1 << n
    counts = b"\0"
    for _ in range(total):
        counts += counts.translate(_PLUS_ONE)
    columns = []
    for v in range(min(8, total)):
        column = [0]
        for c in range(8):
            column += [x | 1 << (c ^ v) for x in column]
        columns.append(column)
    turns = [(0, 0)] + [(1 << i, sum(1 << c for c in range(total) if c >> i & 3 == 1))
                        for i in _plain_changes(n)]
    return counts, list(zip(*columns)), turns


def _decided_classes(n: int, d: int, size: int) -> list[tuple[int, ...]]:
    """The size-concept classes over [n] with an order-d teacher, as
    combination tuples in itertools.combinations order.

    A clash reads only c ^ c' and S | S'.  XORing every concept with one mask
    v keeps every c ^ c', and permuting the instances maps each set S to its
    image and keeps every clash too.  So the images of a class under the
    cube group (the n! permutations composed with the 2^n translations) have
    the same teachers.  A class is its 2^n-bit class mask, and each mask has
    a verdict byte: 0 undecided, 1 refuted, 2 admissible, and 3 for every
    mask of another size, read from the popcounts of _cube_walk(n).  The
    scan finds the next undecided mask with bytearray.find, runs
    decide_order once on that class, and writes the verdict under every
    image in its orbit: the turns of _cube_walk reach each permuted class,
    and each one with no verdict yet gets its whole translation orbit from
    one row of the byte table, or two at n = 4.  Translation orbits are
    written whole, so a permuted class with a verdict has its orbit written.
    The scan stops once every class has a verdict, which at (4, 1, 8) is
    after 74 decisions.  The verdicts live for this call only.
    """
    total = 1 << n
    counts, rows, turns = _cube_walk(n)
    # one byte per class mask; 64 KB at n = 4, the largest n that
    # verify_dim1 and max_class_search enumerate
    verdicts = bytearray(counts.translate(b"\3" * size + b"\0" + b"\3" * (255 - size)))
    key = verdicts.find(0)
    while key >= 0:
        verdict = 1 if decide_order([c for c in range(total) if key >> c & 1], n, d) is None else 2
        image = key
        for shift, mask in turns:
            t = (image ^ image >> shift) & mask
            image ^= t ^ t << shift
            if verdicts[image]:
                continue
            if n < 4:
                for moved in rows[image]:
                    verdicts[moved] = verdict
            else:
                for lo, hi in zip(rows[image & 255], rows[image >> 8]):
                    verdicts[hi << 8 | lo] = verdicts[lo << 8 | hi] = verdict
        key = verdicts.find(0, key + 1)
    passing = []
    key = verdicts.find(2)
    while key >= 0:
        passing.append(tuple(c for c in range(total) if key >> c & 1))
        key = verdicts.find(2, key + 1)
    return sorted(passing)


def verify_dim1(n: int) -> Dim1Report:
    """Enumerate all 2n-concept classes over [n]; compare the order-1 admissible
    ones against the tournament-induced classes.

    Every class is a candidate, decided by one call to decide_order per
    orbit of the cube group (_decided_classes): the scan visits only the
    class masks of 2n concepts that no earlier orbit reached, and delta
    swaps and the byte table of translations on the mask reach every image
    of each.  At n = 4 the 12,870 classes fall into 74 orbits, so
    decide_order is called 74 times; its trace count refutes 41 of them
    (7,908 classes).  n = 4 takes about 4 ms (Python 3.11, 2 vCPUs).  n > 4
    is refused for memory: a 4 GiB verdict table at n = 5.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > 4:
        raise BudgetError(f"enumeration over C(2^n, 2n) classes is budgeted for n <= 4, got {n}")
    size = 2 * n
    full = (1 << n) - 1
    passing = frozenset(map(frozenset, _decided_classes(n, 1, size)))
    expected = frozenset(frozenset(class2(g).masks) for g in all_tournaments(n))
    closed = all(all((full ^ m) in cls for m in cls) for cls in passing)
    return Dim1Report(n, comb(1 << n, size), passing, expected, closed)


@dataclass(frozen=True)
class MaxClassResult:
    """Largest class size admitting an order-d teacher, with canonical witnesses."""

    n: int
    d: int
    status: str  # "exact" or "inconclusive"
    size: int | None
    witnesses: tuple[ConceptClass, ...]
    lower: int
    upper: int


def max_class_search(n: int, d: int) -> MaxClassResult:
    """Exact M_NC(n, d) by top-down enumeration from the counting bound.

    Removing concepts never raises NCTD, so the first size with any passing
    class is the maximum; one concept always passes.  Each size is decided
    one orbit of the cube group at a time (_decided_classes), whose scan
    visits only the class masks of that size no earlier orbit reached and
    whose delta swaps and byte table on the mask reach every image: at
    (4, 1) the 12,870 classes of size 8 need 74 calls to decide_order
    (about 3.5 ms in all on Python 3.11, 2 vCPUs), and the power set, when
    the bound allows it, needs one.  Past n = 4, where the verdict table
    would take 4 GiB, a greedy witness (each concept in turn, kept when the
    class stays admissible) and the counting upper bound are reported; a
    greedy that takes every concept is exact.

    A canonical witness is the lexicographically least sorted image of a
    maximum class under the n! domain permutations, which the turns of
    _cube_walk(n) visit.  Complementing every concept, c -> full ^ c,
    reverses the class mask and commutes with each permutation, which fixes
    full.  Of two classes of one size, the lexicographically smaller holds
    the least concept of their symmetric difference, so its complement holds
    the greatest and has the larger mask.  So the least image is the
    complement of the largest turn image of the complemented class, and each
    image is ranked as one integer.
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    upper = min(1 << n, ksz_bound(n, d))
    if n > 4:
        greedy: list[int] = []
        for m in range(1 << n):
            if decide_order(greedy + [m], n, d) is not None:
                greedy.append(m)
        lower, witness = len(greedy), (ConceptClass.from_masks(greedy, n),)
        if lower == 1 << n:  # the power set, its own canonical form
            return MaxClassResult(n, d, "exact", lower, witness, lower, lower)
        return MaxClassResult(n, d, "inconclusive", None, witness, lower, upper)
    for size in range(upper, 0, -1):
        passing = _decided_classes(n, d, size)
        if passing:
            full, turns = (1 << n) - 1, _cube_walk(n)[2]
            keys = set()
            for cls in passing:
                image = key = sum(1 << (full ^ c) for c in cls)
                for shift, mask in turns:
                    t = (image ^ image >> shift) & mask
                    image ^= t ^ t << shift
                    key = max(key, image)
                keys.add(key)
            # complemented back, concepts ascending: the largest key is the least class
            witnesses = tuple(
                ConceptClass.from_masks([full ^ c for c in range(full, -1, -1) if key >> c & 1], n)
                for key in sorted(keys, reverse=True))
            return MaxClassResult(n, d, "exact", size, witnesses, size, size)
    raise AssertionError("a single concept always passes")


_Z95 = 1.959963984540054  # the standard normal's 97.5% quantile: a 95% interval


def _wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    p, z = hits / trials, _Z95
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    # the interval provably contains p; the min/max only absorbs float noise
    # at the endpoints (hits = 0 or hits = trials)
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


@dataclass(frozen=True)
class TauReport:
    """Estimated probability that td_min stays at or below the shifted threshold."""

    n: int
    trials: int
    seed: int
    k: int
    k_source: str  # "threshold" or "override"
    vacuous: bool
    hits: int
    fraction: float
    ci_low: float
    ci_high: float


def tau_estimate(n: int, trials: int, seed: int, k_override: int | None = None) -> TauReport:
    """Fraction of random tournaments with td_min(class1) <= k, with a Wilson 95% CI.

    k defaults to floor(log2 n - 2 log2 log2(2n)) - 5; at desk scale that is
    negative, the event is empty, and the report is flagged vacuous without
    sampling.  No n is refused; the search budget (errors) bounds the run.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if k_override is not None:
        k, source = k_override, "override"
    else:
        k, source = threshold_k(n, shift=5).k, "threshold"
    if k < 1:
        return TauReport(n, trials, seed, k, source, True, 0, 0.0, 0.0, 0.0)
    hits = 0
    for i in range(trials):
        g = random_tournament(n, stream(seed, i))
        if td_min(class1(g)) <= k:
            hits += 1
    lo, hi = _wilson_interval(hits, trials)
    return TauReport(n, trials, seed, k, source, False, hits, hits / trials, lo, hi)
