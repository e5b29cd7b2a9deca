"""Size bounds for no-clash teaching and the heavy-set counting machinery.

Since at most 2^d concepts can share one teaching set, any class with an
admissible order-d teacher has at most 2^d * C(n, d) concepts.  Splitting
the d-subsets by multiplicity sharpens this: sets used by more than
2^(d+1)/(t+1) concepts span no narrow (t+1)-clique in J(n, d), so their
number is capped by H_t(n, d) and the rest contribute at most
2^(d+1)/(t+1) each.  Everything rational is exact; the only float is the
d-dependent factor 2*sqrt(2/(d+1)) - 2/(d+1), compared elsewhere with an
explicit 1e-12 tolerance.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import TYPE_CHECKING

from .johnson import KSetFamily, h_ratio
if TYPE_CHECKING:  # heavy_sets' annotation: ncteach imports this module
    from .ncteach import NCTeacher

__all__ = [
    "BoundReport",
    "bound_report",
    "chernoff_bound",
    "corollary_d2_bound",
    "default_t",
    "gub_bound",
    "heavy_sets",
    "improved_factor",
    "ksz_bound",
    "resolve_h",
    "sauer_phi",
]


def sauer_phi(d: int, m: int) -> int:
    """Phi_d(m) = sum of C(m, i) for i = 0..d: the Sauer-Shelah count."""
    if not 0 <= d <= m:
        raise ValueError(f"need 0 <= d <= m, got d={d}, m={m}")
    return sum(comb(m, i) for i in range(d + 1))


def ksz_bound(n: int, d: int) -> int:
    """2^d * C(n, d): the order-d counting bound on class size."""
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    return (1 << d) * comb(n, d)


def improved_factor(d: int) -> float:
    """2*sqrt(2/(d+1)) - 2/(d+1); equals 1 at d = 1 and decays like sqrt(8/d)."""
    if d < 1:
        raise ValueError("need d >= 1")
    return 2.0 * math.sqrt(2.0 / (d + 1)) - 2.0 / (d + 1)


def default_t(d: int) -> int:
    """floor(sqrt(2(d+1))), the optimizing threshold; satisfies 2 <= t <= d for d >= 2."""
    if d < 2:
        raise ValueError("need d >= 2")
    return isqrt(2 * (d + 1))


_EXACT_H_LIMIT = 24  # largest C(n, d) for which resolve_h solves H_t(n, d)


def resolve_h(n: int, d: int, t: int) -> tuple[Fraction, str]:
    """An upper bound on h_t(n, d) with provenance "exact" or "upper-bound".

    Solves H_t(n, d) exactly when C(n, d) <= _EXACT_H_LIMIT (24); otherwise
    falls back to the chain bound t/(d+1), valid for n >= d+1 (at n = d the
    exact branch always applies since C(d, d) = 1).  The limit is a count,
    not a time, so which h a bound uses never depends on the search budget.
    """
    if comb(n, d) <= _EXACT_H_LIMIT:
        return h_ratio(n, d, t), "exact"
    return Fraction(t, d + 1), "upper-bound"


def gub_bound(n: int, d: int, t: int, h: Fraction | str = "auto") -> Fraction:
    """(h + (1-h) * 2/(t+1)) * 2^d * C(n, d), exactly.

    h is an upper bound on the heavy-set density h_t(n, d); "auto" resolves
    it via resolve_h.
    """
    if not 2 <= t <= d <= n:
        raise ValueError(f"need 2 <= t <= d <= n, got t={t}, d={d}, n={n}")
    if h == "auto":
        hv, _ = resolve_h(n, d, t)
    else:
        hv = Fraction(h)
        if not 0 <= hv <= 1:
            raise ValueError(f"need 0 <= h <= 1, got {hv}")
    return (hv + (1 - hv) * Fraction(2, t + 1)) * ksz_bound(n, d)


def corollary_d2_bound(n: int) -> Fraction:
    """(5n-4)n/3: the order-2 bound using the exact triangle-free density."""
    if n < 2:
        raise ValueError("need n >= 2")
    return Fraction((5 * n - 4) * n, 3)


def heavy_sets(t_teacher: NCTeacher, t: int) -> KSetFamily:
    """The d-subsets assigned to more than 2^(d+1)/(t+1) concepts.

    Requires a normalized teacher (every set of size exactly d = order) and
    2 <= t <= d.  The returned family spans no narrow (t+1)-clique.
    """
    d = t_teacher.order
    if any(len(s) != d for s in t_teacher.sets):
        raise ValueError("teacher is not normalized to uniform set size")
    if not 2 <= t <= d:
        raise ValueError(f"need 2 <= t <= order, got t={t}, order={d}")
    mult = Counter(t_teacher.sets)
    threshold = Fraction(1 << (d + 1), t + 1)
    members = frozenset(s for s, m in mult.items() if m > threshold)
    return KSetFamily(t_teacher.k.n, d, members)


def chernoff_bound(p: float, m: int, gamma: float) -> float:
    """exp(-p*m*gamma^2/2) >= Pr[Binomial(m, p) < (1-gamma)pm]."""
    if not 0 < p <= 1:
        raise ValueError("need 0 < p <= 1")
    if m < 1:
        raise ValueError("need m >= 1")
    if not 0 <= gamma <= 1:
        raise ValueError("need 0 <= gamma <= 1")
    return math.exp(-p * m * gamma * gamma / 2.0)


@dataclass(frozen=True)
class BoundReport:
    """The order-d bounds for one (n, d): counting, refined, and their ratio."""

    n: int
    d: int
    t: int | None
    ksz: int
    gub: Fraction
    factor: float
    h_used: Fraction
    h_kind: str

    def rows(self) -> list[tuple[str, str]]:
        return [
            ("n", str(self.n)),
            ("d", str(self.d)),
            ("t", "-" if self.t is None else str(self.t)),
            ("ksz", str(self.ksz)),
            ("gub", str(self.gub)),
            ("factor", f"{self.factor:.12g}"),
            ("h", f"{self.h_used} ({self.h_kind})"),
        ]


def bound_report(n: int, d: int, t: int | None = None) -> BoundReport:
    """Assemble the bound family for one (n, d); t defaults to the optimizing value.

    At d = 1 the refinement does not apply (no valid t), so gub degenerates
    to the counting bound with h = 1, and an explicit t is refused.
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    if t is not None and not 2 <= t <= d:
        raise ValueError(f"need 2 <= t <= d, got t={t}, d={d}")
    ksz = ksz_bound(n, d)
    if d == 1:
        return BoundReport(n, d, None, ksz, Fraction(ksz), improved_factor(1),
                           Fraction(1), "upper-bound")
    if t is None:
        t = default_t(d)
    h_used, h_kind = resolve_h(n, d, t)
    gub = gub_bound(n, d, t, h_used)
    return BoundReport(n, d, t, ksz, gub, improved_factor(d), h_used, h_kind)
