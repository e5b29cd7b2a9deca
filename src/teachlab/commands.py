"""The subcommand parser and one handler per subcommand.

Each handler returns a Report, (exit code, JSON object, text lines), and
raises for errors; cli.dispatch renders the report or maps the error to its
exit code.  See cli for the output and exit-code contract.
"""

from __future__ import annotations

import argparse
import functools
from pathlib import Path

from .bounds import bound_report
from .classical import rtd, rtd_bruteforce, td_of, teaching_report
from .cli import BUDGET_ENV, EXIT_BUDGET, EXIT_OK, EXIT_PROPERTY, _budget_secs, exact_ints
from .concepts import ConceptClass, _shown, mask_to_instances, parse_class, serialize_class
from .errors import FormatError, PropertyViolation
from .experiments import (
    ExperimentConfig,
    claim_scan,
    max_class_search,
    run_tdmin_experiment,
    tau_estimate,
    verify_dim1,
)
from .johnson import h_max, serialize_family
from .ncteach import NCTeacher, _first_clash, decide_order, nctd, parse_teacher, serialize_teacher
from .tournaments import (
    Tournament,
    class1,
    class2,
    linear_tournament,
    parse_tournament,
    random_tournament,
    recover_tournament,
    serialize_tournament,
)


def _real(x: float) -> str:
    return f"{x:.12g}"


def _jreal(x: float) -> float:
    return float(f"{x:.12g}")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="ascii")


def _wrote(doc: dict, lines: list[str], key: str, path: str, text: str, what: str) -> list[str]:
    """Write text to path, record path as doc[key] and report it in lines, which is returned."""
    Path(path).write_text(text, encoding="ascii")
    doc[key] = path
    lines.append(f"wrote {what} to {path}")
    return lines


def _job_count(raw: str) -> int:
    """A worker process count >= 1."""
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"need a whole number of worker processes >= 1, got {_shown(raw)}")
    return jobs


def _read_class(path: str) -> ConceptClass:
    return parse_class(_read(path))


def _read_teacher(path: str, k: ConceptClass) -> NCTeacher:
    """Parse a teacher file listing exactly k's concepts, in any order, into k's order."""
    t = parse_teacher(_read(path))
    set_of = dict(zip(t.k.masks, t.sets))
    if t.k.n != k.n or set_of.keys() != set(k.masks):
        raise FormatError("teacher file does not cover exactly the concepts of the class file")
    return NCTeacher(k, tuple(set_of[m] for m in k.masks))


def _witness_str(w) -> str:
    return " ".join(str(x) for x in sorted(w))


# A handler's report: its exit code, the object --json prints and the text
# lines printed otherwise (a serialized file is one "line", without its
# final newline, so that no string per edge or concept is made)
Report = tuple[int, dict, list[str]]


# ---------------------------------------------------------------- td / rtd


def _td_line(i: int, concept: str, size: int, witness) -> str:
    return f"concept {i} {concept}: td={size} witness={_witness_str(witness) or '-'}"


def _cmd_td(args) -> Report:
    k = _read_class(args.class_file)
    if args.concept is not None:
        if not 0 <= args.concept < len(k):
            raise ValueError(f"concept index {args.concept} outside 0..{len(k) - 1}")
        i = args.concept
        c = k[i].to_string()
        size, witness = td_of(k, k[i])
        doc = {"n": k.n, "index": i, "concept": c, "td": size, "witness": sorted(witness)}
        return EXIT_OK, doc, [_td_line(i, c, size, witness)]
    rep = teaching_report(k)
    rows = [(i, c.to_string(), rep.sizes[i], rep.witnesses[i]) for i, c in enumerate(k)]
    doc = {"n": k.n, "size": len(k),
           "concepts": [{"index": i, "concept": c, "td": size, "witness": sorted(w)}
                        for i, c, size, w in rows],
           "td_min": rep.td_min, "td_max": rep.td}
    lines = [f"n = {k.n}, concepts = {len(k)}"]
    lines += [_td_line(*row) for row in rows]
    lines += [f"td_min = {rep.td_min}", f"td_max = {rep.td}"]
    if args.csv:
        csv_lines = ["concept_index,td,witness"]
        csv_lines += [f"{i},{size},{_witness_str(w)}" for i, _, size, w in rows]
        _wrote(doc, lines, "csv", args.csv, "\n".join(csv_lines) + "\n", "CSV")
    return EXIT_OK, doc, lines


def _cmd_rtd(args) -> Report:
    k = _read_class(args.class_file)
    r = rtd(k)
    doc = {"n": k.n, "size": len(k), "rtd": r}
    if not args.oracle:
        return EXIT_OK, doc, [f"rtd = {r}"]
    oracle = rtd_bruteforce(k)
    doc["oracle"] = oracle
    doc["match"] = oracle == r
    if oracle != r:
        return EXIT_PROPERTY, doc, [f"rtd mismatch: recursive={r} bruteforce={oracle}"]
    return EXIT_OK, doc, [f"rtd = {r} (oracle agrees)"]


# ---------------------------------------------------------------- nctd


def _teacher_json(t: NCTeacher) -> list[dict]:
    return [{"concept": c.to_string(), "set": sorted(s)}
            for c, s in zip(t.k, t.sets)]


def _cmd_nctd(args) -> Report:
    k = _read_class(args.class_file)
    res = nctd(k, d_max=args.max_d)
    doc = {"n": k.n, "size": len(k), "status": res.status, "d": res.d,
           "lower_bound": res.lower_bound,
           "teacher": _teacher_json(res.teacher) if res.teacher else None}
    if res.status == "exceeds_d_max":
        return EXIT_BUDGET, doc, [
            f"inconclusive: no admissible teacher of order <= {args.max_d};"
            f" nctd >= {res.lower_bound}"]
    if res.status != "exact":
        return EXIT_BUDGET, doc, [
            f"inconclusive: search timed out; verified lower bound = {res.lower_bound}"]
    lines = [f"nctd = {res.d}", f"verified lower bound = {res.lower_bound}"]
    if args.emit_teacher:
        if res.teacher is None:
            raise AssertionError("nctd reported an exact value without a teacher")
        _wrote(doc, lines, "teacher_file", args.emit_teacher, serialize_teacher(res.teacher),
               "teacher")
    return EXIT_OK, doc, lines


def _cmd_verify_teacher(args) -> Report:
    k = _read_class(args.class_file)
    t = _read_teacher(args.teacher, k)
    bad = _first_clash(t)
    doc = {"n": k.n, "size": len(k), "order": t.order, "admissible": bad is None}
    if bad is None:
        return EXIT_OK, doc, [f"teacher is admissible (order {t.order})"]
    i, j = bad
    ci, cj = t.k[i].to_string(), t.k[j].to_string()
    doc["clash"] = [ci, cj]
    joint = sorted(t.sets[i] | t.sets[j])
    return EXIT_PROPERTY, doc, [
        f"clash: concepts {ci} and {cj} agree on {{{', '.join(map(str, joint))}}}"]


# ---------------------------------------------------------------- tournament


def _tournament_json(g: Tournament) -> dict:
    # the edges stay a generator, so that only --json (dispatch's default=list) lists them
    return {"n": g.n, "edges": g.edges()}


def _cmd_tournament_gen(args) -> Report:
    g = linear_tournament(args.n) if args.linear else random_tournament(args.n, args.seed)
    text = serialize_tournament(g)
    doc = _tournament_json(g)
    if not args.out:
        return EXIT_OK, doc, [text.removesuffix("\n")]
    return EXIT_OK, doc, _wrote(doc, [], "tournament_file", args.out, text, "tournament")


def _cmd_tournament_class(args) -> Report:
    g = parse_tournament(_read(args.infile))
    k = class1(g) if args.mode == 1 else class2(g)
    text = serialize_class(k)
    doc = {"n": k.n, "mode": args.mode, "concepts": [c.to_string() for c in k]}
    if not args.out:
        return EXIT_OK, doc, [text.removesuffix("\n")]
    return EXIT_OK, doc, _wrote(doc, [], "class_file", args.out, text, f"{len(k)} concepts")


def _cmd_tournament_recover(args) -> Report:
    k = _read_class(args.class_file)
    if args.teacher:
        t = _read_teacher(args.teacher, k)
    else:
        sol = decide_order(k.masks, k.n, 1)
        if sol is None:
            raise PropertyViolation("class admits no order-1 no-clash teacher")
        t = NCTeacher(k, tuple(mask_to_instances(s) for s in sol))
    g = recover_tournament(k, t)
    return EXIT_OK, _tournament_json(g), [serialize_tournament(g).removesuffix("\n")]


# ---------------------------------------------------------------- johnson


def _cmd_johnson_hmax(args) -> Report:
    res = h_max(args.n, args.k, args.t)
    doc = {"n": res.n, "k": res.k, "t": res.t, "status": res.status,
           "size": res.size, "lower": res.lower, "upper": res.upper,
           "witness": [sorted(a) for a in sorted(res.witness.members, key=sorted)]}
    if res.status == "exact":
        code, what = EXIT_OK, "witness family"
        lines = [f"H_{res.t}({res.n},{res.k}) = {res.size}"]
    else:
        code, what = EXIT_BUDGET, "best family found (lower bound)"
        with exact_ints():  # the counting bound, C(n, k+1) t / (n-k) at most
            lines = [f"inconclusive: {res.lower} <= H_{res.t}({res.n},{res.k}) <= {res.upper}"]
    if args.witness:
        _wrote(doc, lines, "witness_file", args.witness, serialize_family(res.witness), what)
    return code, doc, lines


# ---------------------------------------------------------------- bounds


def _cmd_bounds(args) -> Report:
    rep = bound_report(args.n, args.d, args.t)
    with exact_ints():  # ksz and gub have about n log10(2) digits
        doc = {"n": rep.n, "d": rep.d, "t": rep.t, "ksz": rep.ksz,
               "gub": str(rep.gub), "factor": _jreal(rep.factor),
               "h_used": str(rep.h_used), "h_kind": rep.h_kind}
        if args.csv:
            t_field = "" if rep.t is None else str(rep.t)
            return EXIT_OK, doc, [
                "n,d,t,ksz,gub,factor,h_used,h_kind",
                f"{rep.n},{rep.d},{t_field},{rep.ksz},{rep.gub},"
                f"{_real(rep.factor)},{rep.h_used},{rep.h_kind}"]
        width = max(len(key) for key, _ in rep.rows())
        return EXIT_OK, doc, [f"{key.ljust(width)} = {val}" for key, val in rep.rows()]


# ---------------------------------------------------------------- experiments


def _cmd_experiment_tdmin(args) -> Report:
    # refused before the trials run, rather than print one form and drop the other
    if args.out == "-" and args.json:
        raise ValueError("--out - prints the CSV; it cannot be combined with --json")
    cfg = ExperimentConfig(n=args.n, trials=args.trials, seed=args.seed)
    records, summary = run_tdmin_experiment(cfg, jobs=args.jobs)
    csv_lines = ["trial,seed,n,td_min,nctd"]
    csv_lines += [f"{r.trial},{r.seed},{cfg.n},{r.td_min},{r.nctd}" for r in records]
    doc = {"n": summary.n, "trials": summary.trials, "seed": summary.seed,
           "counts": [list(p) for p in summary.counts],
           "min": summary.minimum, "mean": _jreal(summary.mean),
           "max": summary.maximum, "threshold": summary.threshold,
           "fraction_below": _jreal(summary.fraction_below)}
    if args.out == "-":
        return EXIT_OK, doc, csv_lines
    hist = ", ".join(f"{v} x{c}" for v, c in summary.counts)
    lines = [
        f"n = {summary.n}, trials = {summary.trials}, seed = {summary.seed}",
        f"td_min distribution: {hist}",
        f"min/mean/max = {summary.minimum} / {_real(summary.mean)} / {summary.maximum}",
        f"threshold k = {summary.threshold},"
        f" fraction below = {_real(summary.fraction_below)}",
    ]
    if args.out:
        _wrote(doc, lines, "csv", args.out, "\n".join(csv_lines) + "\n", "CSV")
    return EXIT_OK, doc, lines


def _flag(v: bool | None) -> str:
    if v is None:
        return "-"
    return "yes" if v else "no"


def _cmd_experiment_claim(args) -> Report:
    scan = claim_scan(args.scan_max)
    code = EXIT_OK if scan.n0 is not None and scan.cor_n0 is not None else EXIT_PROPERTY
    doc = {"limit": scan.limit, "n0": scan.n0, "cor_n0": scan.cor_n0,
           "records": [
               {"n": r.n, "k": r.k, "ineq1": r.ineq1, "ineq2": r.ineq2,
                "sufficient": r.sufficient, "holds": r.holds,
                "cor_k": r.cor_k, "cor_ineq1": r.cor_ineq1,
                "cor_ineq2": r.cor_ineq2, "cor_sufficient": r.cor_sufficient,
                "cor_holds": r.cor_holds}
               for r in scan.records
           ]}
    lines = [f"{'n':>14} {'k':>4} {'in1':>4} {'in2':>4} {'ok':>4}"
             f"   {'k2':>4} {'in1':>4} {'in2':>4} {'ok':>4}"]
    for r in scan.records:
        lines.append(
            f"{r.n:>14} {r.k:>4} {_flag(r.ineq1):>4} {_flag(r.ineq2):>4}"
            f" {_flag(r.holds):>4}   {r.cor_k:>4} {_flag(r.cor_ineq1):>4}"
            f" {_flag(r.cor_ineq2):>4} {_flag(r.cor_holds):>4}")
    lines.append(f"claim n0 = {scan.n0}")
    lines.append(f"corollary n0 = {scan.cor_n0}")
    return code, doc, lines


def _cmd_experiment_tau(args) -> Report:
    rep = tau_estimate(args.n, args.trials, args.seed, k_override=args.k)
    doc = {"n": rep.n, "trials": rep.trials, "seed": rep.seed,
           "k": rep.k, "k_source": rep.k_source, "vacuous": rep.vacuous,
           "hits": rep.hits, "fraction": _jreal(rep.fraction),
           "ci_low": _jreal(rep.ci_low), "ci_high": _jreal(rep.ci_high)}
    lines = [f"n = {rep.n}, trials = {rep.trials}, seed = {rep.seed}",
             f"k = {rep.k} ({rep.k_source})"]
    if rep.vacuous:
        lines.append("event td_min <= k is empty for k < 1; tau = 0 exactly (vacuous)")
    else:
        lines.append(f"hits = {rep.hits}, fraction = {_real(rep.fraction)}")
        lines.append(f"95% CI = [{_real(rep.ci_low)}, {_real(rep.ci_high)}]")
    return EXIT_OK, doc, lines


def _cmd_verify_dim1(args) -> Report:
    rep = verify_dim1(args.n)
    doc = {"n": rep.n, "candidates": rep.candidates,
           "passing": len(rep.passing), "expected": len(rep.expected),
           "complement_closed": rep.complement_closed, "ok": rep.ok}
    lines = [
        f"n = {rep.n}: decided {rep.candidates} classes of size {2 * rep.n}",
        f"passing = {len(rep.passing)}, tournament-induced = {len(rep.expected)}",
        f"complement-closed = {_flag(rep.complement_closed)}",
        f"characterization {'holds' if rep.ok else 'FAILS'}",
    ]
    return EXIT_OK if rep.ok else EXIT_PROPERTY, doc, lines


def _cmd_search_maxclass(args) -> Report:
    res = max_class_search(args.n, args.d)
    doc = {"n": res.n, "d": res.d, "status": res.status, "size": res.size,
           "lower": res.lower, "upper": res.upper,
           "witnesses": [[c.to_string() for c in w] for w in res.witnesses]}
    if res.status == "exact":
        lines = [f"M_NC({res.n},{res.d}) = {res.size}",
                 f"maximum classes up to relabeling: {len(res.witnesses)}"]
        lines += ["  " + " ".join(row) for row in doc["witnesses"]]
        return EXIT_OK, doc, lines
    return EXIT_BUDGET, doc, [
        f"inconclusive: {res.lower} <= M_NC({res.n},{res.d}) <= {res.upper}",
        "greedy witness: " + " ".join(doc["witnesses"][0])]


# ---------------------------------------------------------------- parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teachlab",
        description="Exact teaching-dimension computations on finite concept classes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(owner, name: str, handler, help: str):
        p = owner.add_parser(name, help=help)
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        p.add_argument("--timeout", type=_budget_secs, metavar="SECS",
                       help=f"search budget; exit 3 when it runs out (default from ${BUDGET_ENV})")
        p.set_defaults(handler=handler)
        return p

    p = leaf(sub, "td", _cmd_td, "teaching dimensions of a class")
    p.add_argument("--class", dest="class_file", required=True, metavar="FILE")
    one = p.add_mutually_exclusive_group()
    one.add_argument("--concept", type=int, metavar="INDEX",
                     help="report a single concept (0-based class order)")
    one.add_argument("--csv", metavar="FILE", help="write concept_index,td,witness rows")

    p = leaf(sub, "rtd", _cmd_rtd, "recursive teaching dimension")
    p.add_argument("--class", dest="class_file", required=True, metavar="FILE")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against subclass enumeration; mismatch exits 1")

    p = leaf(sub, "nctd", _cmd_nctd, "no-clash teaching dimension")
    p.add_argument("--class", dest="class_file", required=True, metavar="FILE")
    p.add_argument("--max-d", type=int, metavar="D")
    p.add_argument("--emit-teacher", metavar="FILE")

    p = leaf(sub, "verify-teacher", _cmd_verify_teacher, "check teacher admissibility")
    p.add_argument("--class", dest="class_file", required=True, metavar="FILE")
    p.add_argument("--teacher", required=True, metavar="FILE")

    t = sub.add_parser("tournament", help="tournament generation, classes, recovery")
    tsub = t.add_subparsers(dest="subcommand", required=True)

    p = leaf(tsub, "gen", _cmd_tournament_gen, "generate a tournament")
    p.add_argument("--n", type=int, required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--linear", action="store_true", help="i beats j for i < j")
    src.add_argument("--seed", type=int, help="independent fair edge coins")
    p.add_argument("--out", metavar="FILE")

    p = leaf(tsub, "class", _cmd_tournament_class, "induced concept class")
    p.add_argument("--mode", type=int, choices=(1, 2), required=True)
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE")

    p = leaf(tsub, "recover", _cmd_tournament_recover, "rebuild the tournament from its class")
    p.add_argument("--class", dest="class_file", required=True, metavar="FILE")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--teacher", metavar="FILE")
    src.add_argument("--find-teacher", action="store_true",
                     help="search for an order-1 teacher first")

    j = sub.add_parser("johnson", help="Johnson-graph extremal search")
    jsub = j.add_subparsers(dest="subcommand", required=True)

    p = leaf(jsub, "hmax", _cmd_johnson_hmax, "largest narrow-clique-free family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--witness", metavar="FILE", help="write the witness family")

    p = leaf(sub, "bounds", _cmd_bounds, "counting and refined upper bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--csv", action="store_true", help="one header and one data row")

    e = sub.add_parser("experiment", help="seeded experiments")
    esub = e.add_subparsers(dest="subcommand", required=True)

    p = leaf(esub, "tdmin", _cmd_experiment_tdmin, "td_min of random tournament classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", metavar="CSV", help="'-' prints the CSV to stdout")
    p.add_argument("--jobs", type=_job_count, default=1, metavar="J",
                   help="worker processes for the trials (default 1: run in this process)")

    p = leaf(esub, "claim", _cmd_experiment_claim, "growth-inequality scan")
    p.add_argument("--scan-max", type=int, default=1 << 40, metavar="N")

    p = leaf(esub, "tau", _cmd_experiment_tau, "threshold event probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--k", type=int, help="override the shifted threshold")

    v = sub.add_parser("verify", help="exhaustive verifications")
    vsub = v.add_subparsers(dest="subcommand", required=True)

    p = leaf(vsub, "dim1", _cmd_verify_dim1, "dimension-1 maximum classes are tournament classes")
    p.add_argument("--n", type=int, required=True)

    s = sub.add_parser("search", help="exhaustive searches")
    ssub = s.add_subparsers(dest="subcommand", required=True)

    p = leaf(ssub, "maxclass", _cmd_search_maxclass, "largest class with an order-d teacher")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    return parser
