"""Independent MILP formulations, solved with scipy's HiGHS interface.

Test-only: the package itself has no runtime dependencies, so importing this
module skips the calling test when scipy is missing.
"""

from itertools import combinations

import pytest

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")


def order_feasible(masks, n: int, d: int) -> bool:
    """True iff the class admits a no-clash teacher whose sets all have size d.

    One binary x[c, S] per concept c and d-set S, with sum_S x[c, S] = 1.
    Two concepts clash exactly when they agree on the union U of their two
    sets, so for every U of d..2d instances and every trace p on U, at most
    one chosen pair (c, S) has S inside U and c & U = p.
    """
    masks = list(masks)
    dsets = [sum(1 << x for x in s) for s in combinations(range(n), d)]
    pairs = [(c, s) for c in masks for s in dsets]
    rows, lower, upper = [], [], []
    for i in range(len(masks)):
        rows.append(list(range(i * len(dsets), (i + 1) * len(dsets))))
        lower.append(1)
        upper.append(1)
    for u in range(d, min(2 * d, n) + 1):
        for inst in combinations(range(n), u):
            umask = sum(1 << x for x in inst)
            share: dict[int, list[int]] = {}
            for j, (c, s) in enumerate(pairs):
                if s & ~umask == 0:
                    share.setdefault(c & umask, []).append(j)
            for cols in share.values():
                if len(cols) > 1:
                    rows.append(cols)
                    lower.append(0)
                    upper.append(1)
    a = np.zeros((len(rows), len(pairs)))
    for r, cols in enumerate(rows):
        a[r, cols] = 1
    res = optimize.milp(
        np.zeros(len(pairs)),
        constraints=optimize.LinearConstraint(a, lower, upper),
        integrality=np.ones(len(pairs)),
        bounds=optimize.Bounds(0, 1),
    )
    if res.status not in (0, 2):
        raise RuntimeError(f"milp ended with status {res.status}: {res.message}")
    return res.status == 0


def h_max_size(n: int, k: int, t: int) -> int:
    """H_t(n, k): the most k-subsets of [n] with at most t of them in any (k+1)-subset.

    One binary x[A] per k-set A; maximise sum_A x[A] subject to
    sum_{A inside D} x[A] <= t for every (k+1)-set D.
    """
    col = {a: j for j, a in enumerate(combinations(range(n), k))}
    dsets = list(combinations(range(n), k + 1))
    a = np.zeros((len(dsets), len(col)))
    for r, d in enumerate(dsets):
        a[r, [col[s] for s in combinations(d, k)]] = 1
    res = optimize.milp(
        -np.ones(len(col)),
        constraints=optimize.LinearConstraint(a, 0, t),
        integrality=np.ones(len(col)),
        bounds=optimize.Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    if res.status != 0:
        raise RuntimeError(f"milp ended with status {res.status}: {res.message}")
    return round(-res.fun)
