"""The four workloads: seeded inputs, fixed job lists and answer checks.

A job is one call into teachlab's public API.  Right after the call the
worker reduces the answer to a plain-data digest; the digests of the first
pass go through the full check, and every later pass must reproduce them
exactly.  Checks use the oracles module, tables written out here, and the
package's golden files, never the solver under test.  Public functions are
looked up on the teachlab modules at call time so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Any, Callable

import teachlab
import teachlab.cli

import oracles

EXPECTED = Path(__file__).resolve().parent / "expected"


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    digest: Callable[[Any], Any]
    check: Callable[[Any, dict], list[str]]
    # "answer" is the job's headline expected value; the self-check corrupts it
    expect: dict


@dataclass
class Workload:
    jobs: list[Job]
    warmup: Job


def _mask(instances) -> int:
    return sum(1 << (x - 1) for x in instances)


# ---------------------------------------------------------------- tdmin-n64


def _recorded_trials(seed: int, n: int, count: int) -> list | None:
    data = json.loads((EXPECTED / "tdmin_records.json").read_text(encoding="ascii"))
    if data["n"] != n or data["jobs"] != count:
        return None
    return data["seeds"].get(str(seed))


def _tdmin_digest(raw):
    records, summary = raw
    return tuple((r.trial, r.seed, r.td_min, r.nctd) for r in records), summary.counts


def _tdmin_job(n: int, job_seed: int, record) -> Job:
    def run():
        cfg = teachlab.ExperimentConfig(n=n, trials=1, seed=job_seed)
        return teachlab.run_tdmin_experiment(cfg, jobs=1)

    def check(dg, expect) -> list[str]:
        records, counts = dg
        if len(records) != 1:
            return [f"{len(records)} trial records for one trial"]
        trial, trial_seed, td, nc = records[0]
        want_seed = oracles.splitmix64(job_seed, 0)
        problems = []
        if (trial, trial_seed) != (0, want_seed):
            problems.append(f"trial/seed {(trial, trial_seed)} != {(0, want_seed)}")
        if nc != expect["answer"]:
            problems.append(f"nctd {nc} != {expect['answer']}")
        if counts != ((td, 1),):
            problems.append(f"summary counts {counts} disagree with the record")
        masks = oracles.class1_masks(n, oracles.tournament_edges(n, want_seed))
        if not oracles.td_min_is(masks, n, td):
            problems.append(f"td_min {td} is not the smallest teaching-set size")
        if expect["record"] is not None and list(records[0]) != expect["record"]:
            problems.append(f"record {records[0]} != recorded {expect['record']}")
        return problems

    return Job(f"tdmin n={n} seed={job_seed}", run, _tdmin_digest, check,
               {"answer": 1, "record": record})


def _tdmin(seed: int, tiny: bool) -> Workload:
    n, count = (16, 4) if tiny else (64, 32)
    rng = random.Random(f"tdmin-n64/{seed}")
    job_seeds = [rng.getrandbits(64) for _ in range(count + 1)]
    recorded = _recorded_trials(seed, n, count) or [None] * count
    jobs = [_tdmin_job(n, s, rec) for s, rec in zip(job_seeds, recorded)]
    return Workload(jobs, _tdmin_job(n, job_seeds[count], None))


# ---------------------------------------------------------------- nc-search

# distinct order-1 maximum classes over [n] (tournaments and their reversals coincide)
DIM1_DISTINCT = {2: 1, 3: 4, 4: 26}
# nctd of the full power set over [n]: the counting bound allows order 2 at n=5
# (2^2 * C(5,2) = 40 >= 32), yet the exact value recorded at the seed commit is 3
CUBE_NCTD = {4: 2, 5: 3}


def _dim1_job(n: int) -> Job:
    def digest(rep):
        return rep.ok, rep.candidates, rep.complement_closed, frozenset(rep.passing)

    def check(dg, expect) -> list[str]:
        ok, candidates, closed, passing = dg
        problems = []
        if candidates != comb(1 << n, 2 * n):
            problems.append(f"decided {candidates} classes, not C(2^{n}, {2 * n})")
        if len(passing) != expect["answer"]:
            problems.append(f"{len(passing)} passing classes != {expect['answer']}")
        if passing != oracles.tournament_classes(n):
            problems.append("passing classes differ from the tournament classes")
        if not (ok and closed):
            problems.append(f"ok={ok} complement_closed={closed}")
        return problems

    return Job(f"verify_dim1({n})", lambda: teachlab.verify_dim1(n), digest, check,
               {"answer": DIM1_DISTINCT[n]})


def _maxclass_job(n: int) -> Job:
    def digest(res):
        return res.status, res.size, tuple(tuple(w.masks) for w in res.witnesses)

    def check(dg, expect) -> list[str]:
        status, size, witnesses = dg
        if (status, size) != ("exact", expect["answer"]):
            return [f"status/size {(status, size)} != ('exact', {expect['answer']})"]
        forms = {oracles.canonical(c, n) for c in oracles.tournament_classes(n)}
        if not witnesses or any(oracles.canonical(w, n) not in forms for w in witnesses):
            return ["a maximum witness is not a tournament class"]
        return []

    return Job(f"max_class_search({n}, 1)", lambda: teachlab.max_class_search(n, 1),
               digest, check, {"answer": 2 * n})


def _cube_job(n: int, order: list[int]) -> Job:
    cls = teachlab.ConceptClass.from_masks(order, n)

    def digest(res):
        sets = None if res.teacher is None else tuple(_mask(s) for s in res.teacher.sets)
        masks = None if res.teacher is None else tuple(res.teacher.k.masks)
        return res.status, res.d, masks, sets

    def check(dg, expect) -> list[str]:
        status, d, masks, sets = dg
        if (status, d) != ("exact", expect["answer"]):
            return [f"status/d {(status, d)} != ('exact', {expect['answer']})"]
        if masks != tuple(order):
            return ["teacher is not defined on the input class in input order"]
        if any(s.bit_count() > d or s >> n for s in sets):
            return [f"a teaching set is larger than {d} or leaves [{n}]"]
        if not oracles.no_clash(list(masks), list(sets)):
            return ["teacher admits a clash"]
        return []

    return Job(f"nctd(cube over [{n}], order {order[:4]}...)", lambda: teachlab.nctd(cls),
               digest, check, {"answer": CUBE_NCTD[n]})


def _nc(seed: int, tiny: bool) -> Workload:
    """Breadth jobs, then nctd on the power set over [cube_n] in `count` concept orders.

    The orders come from a fixed pool, so every seed does the same search
    work: concept order changes a depth job's time several-fold, and a
    seeded order would swamp the run-to-run spread.  The seed picks the
    pool's order of jobs and a mask v that relabels every concept c as
    c XOR v.  That changes every input mask but leaves every difference set
    c XOR c', and with them the search, unchanged.
    """
    ns = (2, 3) if tiny else (2, 3, 4)
    cube_n, count = (4, 2) if tiny else (5, 16)
    size = 1 << cube_n
    pool_rng = random.Random(f"nc-search/orders/{cube_n}")
    pool = [pool_rng.sample(range(size), size) for _ in range(count)]
    rng = random.Random(f"nc-search/{seed}")
    rng.shuffle(pool)
    v = rng.randrange(size)
    jobs = [_dim1_job(n) for n in ns] + [_maxclass_job(n) for n in ns]
    jobs += [_cube_job(cube_n, [c ^ v for c in order]) for order in pool]
    return Workload(jobs, _maxclass_job(3))


# ---------------------------------------------------------------- johnson-hmax

# the FROZEN_H table of tests/test_johnson.py: (n, k, t) -> H_t(n, k)
FROZEN_H = {
    (3, 2, 2): 2, (4, 2, 2): 4, (5, 2, 2): 6, (6, 2, 2): 9, (7, 2, 2): 12,
    (6, 3, 2): 10, (7, 3, 2): 15, (7, 3, 3): 23, (7, 4, 2): 14, (7, 4, 3): 21,
}


def _hmax_cases() -> dict[tuple[int, int, int], int]:
    """FROZEN_H, the degenerate rows H_t(k,k)=1 and H_t(k+1,k)=t, and (8,2,2) by Mantel."""
    cases = dict(FROZEN_H)
    for k in range(1, 7):
        for t in range(1, k + 1):
            for key, value in (((k, k, t), 1), ((k + 1, k, t), t)):
                if cases.setdefault(key, value) != value:
                    raise ValueError(f"conflicting expected values for {key}")
    cases[(8, 2, 2)] = 8 * 8 // 4
    for (n, k, t), value in cases.items():
        if (k, t) == (2, 2) and value != n * n // 4:
            raise ValueError(f"H_2({n},2)={value} contradicts Mantel's floor(n^2/4)")
    return cases


def _hmax_job(n: int, k: int, t: int, want: int) -> Job:
    def digest(res):
        members = None if res.witness is None else tuple(sorted(
            tuple(sorted(a)) for a in res.witness.members))
        return res.status, res.size, res.lower, res.upper, members

    def check(dg, expect) -> list[str]:
        status, size, lower, upper, members = dg
        if (status, size, lower, upper) != ("exact",) + (expect["answer"],) * 3:
            return [f"status/size/lower/upper {(status, size, lower, upper)}"
                    f" != exact {expect['answer']}"]
        if members is None or len(members) != size:
            return ["witness missing or of the wrong size"]
        if not oracles.narrow_clique_free([frozenset(a) for a in members], n, k, t):
            return ["witness has more than t members inside some (k+1)-set"]
        return []

    return Job(f"h_max({n}, {k}, {t})", lambda: teachlab.h_max(n, k, t), digest, check,
               {"answer": want})


# instances with at most this many vertices finish in about a millisecond or less
CHEAP_VERTICES = 20
# each cheap instance appears this many times in the job list, so that the
# per-call percentiles rest on thousands of samples instead of one per instance
CHEAP_REPEATS = 200


def _johnson(seed: int, tiny: bool) -> Workload:
    cases = _hmax_cases()
    keys = []
    for key in sorted(cases):
        cheap = comb(key[0], key[1]) <= CHEAP_VERTICES
        if cheap or not tiny:
            keys += [key] * (CHEAP_REPEATS if cheap and not tiny else 1)
    random.Random(f"johnson-hmax/{seed}").shuffle(keys)
    jobs = {key: _hmax_job(*key, cases[key]) for key in cases}
    return Workload([jobs[key] for key in keys], _hmax_job(6, 3, 2, 10))


# ---------------------------------------------------------------- cli-pipeline


def _parse_header_lines(text: str) -> tuple[str, list[str]]:
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    return lines[0], lines[1:]


def _parse_edges(text: str) -> tuple[int, set[tuple[int, int]]]:
    header, rows = _parse_header_lines(text)
    return int(header.removeprefix("n=")), {tuple(int(v) for v in row.split()) for row in rows}


def _parse_bits(bits: str) -> int:
    return sum(1 << j for j, ch in enumerate(bits) if ch == "1")


def _parse_class_file(text: str) -> tuple[int, list[int]]:
    header, rows = _parse_header_lines(text)
    return int(header.removeprefix("n=")), [_parse_bits(row) for row in rows]


def _parse_teacher_file(text: str) -> tuple[str, list[int], list[int]]:
    header, rows = _parse_header_lines(text)
    masks, sets = [], []
    for row in rows:
        bits, _, inst = row.partition(":")
        masks.append(_parse_bits(bits.strip()))
        sets.append(_mask(int(v) for v in inst.split()))
    return header, masks, sets


def _pipeline_job(n: int, tseed: int, workdir: Path, bounds: str) -> Job:
    g, c, t = (str(workdir / name) for name in ("g.trn", "g.cls", "g.nct"))
    commands = [
        ["tournament", "gen", "--n", str(n), "--seed", str(tseed), "--out", g],
        ["tournament", "class", "--mode", "2", "--in", g, "--out", c],
        ["nctd", "--class", c, "--emit-teacher", t],
        ["verify-teacher", "--class", c, "--teacher", t],
        ["tournament", "recover", "--class", c, "--teacher", t],
        ["td", "--class", c, "--json"],
        ["rtd", "--class", c, "--json"],
        ["bounds", "--n", "10", "--d", "3", "--t", "2", "--json"],
    ]

    def run():
        return [teachlab.cli.dispatch(cmd) for cmd in commands]

    def digest(outcomes):
        texts = tuple(Path(p).read_text(encoding="ascii") for p in (g, c, t))
        return tuple((o.code, o.text) for o in outcomes), texts

    def check(dg, expect) -> list[str]:
        outs, (trn, cls, nct) = dg
        codes = [code for code, _ in outs]
        if codes != [0] * len(commands):
            return [f"exit codes {codes}"]
        text = [out for _, out in outs]
        edges = oracles.tournament_edges(n, tseed)
        masks = oracles.class2_masks(n, edges)
        problems = []
        if _parse_edges(trn) != (n, edges):
            problems.append("generated tournament differs from the seeded coins")
        if _parse_edges(text[4]) != (n, edges):
            problems.append("recovered tournament differs from the generated one")
        if _parse_class_file(cls) != (n, masks):
            problems.append("class file differs from the tournament's 2n concepts")
        if text[2].splitlines()[0] != f"nctd = {expect['answer']}":
            problems.append(f"nctd output {text[2].splitlines()[0]!r}")
        header, tmasks, tsets = _parse_teacher_file(nct)
        if (header != f"n={n} d=1" or tmasks != masks
                or any(s.bit_count() != 1 for s in tsets) or not oracles.no_clash(masks, tsets)):
            problems.append("emitted teacher is not an admissible order-1 teacher of the class")
        if text[3] != "teacher is admissible (order 1)":
            problems.append(f"verify-teacher said {text[3]!r}")
        td = json.loads(text[5])
        sizes = [e["td"] for e in td["concepts"]]
        for e in td["concepts"]:
            if len(e["witness"]) != e["td"] or not oracles.teaches(masks, e["index"],
                                                                   _mask(e["witness"])):
                problems.append(f"td witness of concept {e['index']} does not teach it")
        if (td["td_min"], td["td_max"]) != (min(sizes), max(sizes)):
            problems.append("td_min/td_max disagree with the per-concept sizes")
        if not td["td_min"] <= json.loads(text[6])["rtd"] <= td["td_max"]:
            problems.append("rtd outside [td_min, td_max]")
        if text[7] != bounds:
            problems.append("bounds JSON differs from tests/golden/bounds_10_3_2.json")
        return problems

    return Job(f"pipeline n={n} seed={tseed}", run, digest, check, {"answer": 1})


def _cli(seed: int, tiny: bool, workdir: Path) -> Workload:
    ns = range(4, 7) if tiny else range(8, 17)
    per_n = 1 if tiny else 10
    rng = random.Random(f"cli-pipeline/{seed}")
    bounds = (EXPECTED / "bounds_10_3_2.json").read_text(encoding="ascii").strip()
    jobs = [_pipeline_job(n, rng.getrandbits(32), workdir, bounds)
            for _ in range(per_n) for n in ns]
    return Workload(jobs, _pipeline_job(ns[0], rng.getrandbits(32), workdir, bounds))


def build(name: str, seed: int, tiny: bool, workdir: Path) -> Workload:
    if name == "tdmin-n64":
        return _tdmin(seed, tiny)
    if name == "nc-search":
        return _nc(seed, tiny)
    if name == "johnson-hmax":
        return _johnson(seed, tiny)
    if name == "cli-pipeline":
        return _cli(seed, tiny, workdir)
    raise ValueError(f"unknown workload {name!r}")
