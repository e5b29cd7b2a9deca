"""Seeded benchmark of teachlab: one workload per call, every answer checked.

    python3 perfbench/run.py --workload tdmin-n64 --seed 2718 --seconds 15 --trace 0

Run from the root of a source checkout (the package is imported from
./src).  With --trace 0 it reports the end-to-end metrics; with --trace 1
the per-layer metrics of a traced run.  Human-readable lines start with
"#"; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Every run also writes
perfbench/results/<workload>-seed<seed>-trace<t>.json, and trace runs
write their spans next to it.

The workload runs in a child process on one thread.  set-up (import,
seeded inputs, one warm-up job) is timed in SETUP_RUNS fresh processes
and reported as the median.  setup_s, wall_s and the job times are
normalised to a fixed machine speed by speed.Probe; wall_raw_s is the
same pass time unscaled, and speed the machine's median relative speed.  The held-out seed, used only to confirm
results, is HELD_OUT_SEED.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNTS, NAMES  # noqa: E402  (stdlib only; imports teachlab lazily)

WORKLOADS = ("tdmin-n64", "nc-search", "johnson-hmax", "cli-pipeline")
DEFAULT_SEED = 2718
HELD_OUT_SEED = 31337
SETUP_RUNS = 5
RUN_LIMIT_S = 170


def tail(samples: list[float]) -> tuple[int, float]:
    """(q, value): the highest whole percentile q with at least ten samples above it.

    Nearest-rank percentiles; with ten samples or fewer no percentile
    qualifies, and the maximum is reported as q = 100.
    """
    xs = sorted(samples)
    n = len(xs)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, xs[rank - 1]
    return 100, xs[-1]


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit, "seed": seed}


def worker(args, mode: str, deadline: float, extra: tuple[str, ...] = ()) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode, *extra]
    if args.tiny:
        cmd.append("--tiny")
    if args.poison:
        cmd.append("--poison")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline: float) -> tuple[dict, dict, int, int, list[str]]:
    setups = [worker(args, "setup", deadline) for _ in range(SETUP_RUNS - 1)]
    m = worker(args, "measure", deadline)
    setups.append(m)
    q, tail_s = tail(m["job_times"])
    attempted = sum(s["attempted"] for s in setups)
    failed = sum(s["failed"] for s in setups)
    metrics = {
        "setup_s": (median(s["setup_s"] for s in setups), "s"),
        "wall_s": (median(m["passes"]), "s"),
        "wall_raw_s": (median(m["raw_passes"]), "s"),
        "speed": (median(s["speed"] for s in setups), "x"),
        "job_s.p50": (median(m["job_times"]), "s"),
        "job_s.tail": (tail_s, "s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }
    info = {"jobs": m["jobs"], "passes": len(m["passes"]), "job_samples": len(m["job_times"]),
            "tail_percentile": q, "setup_runs": [s["setup_s"] for s in setups], "pass_times": m["passes"]}
    problems = [p for s in setups for p in s["problems"]]
    return metrics, info, attempted, failed, problems


def per_layer(args, deadline: float) -> tuple[dict, dict, int, int, list[str]]:
    spans = HERE / "results" / f"{args.workload}-seed{args.seed}.spans.jsonl"
    t = worker(args, "trace", deadline, ("--spans", str(spans)))
    traced, untraced = t["traced_passes"], t["untraced_passes"]
    per_pass = len(traced)
    metrics = {}
    for name in NAMES:
        layer = t["layers"][name]
        metrics[f"{name}.calls"] = (layer["calls"] / per_pass, "count")
        metrics[f"{name}.self_s"] = (layer["self_s"] / per_pass, "s")
    calls = t["layers"]["ncteach.decide_order"]["calls"]
    metrics["ncteach.decide_order.refuted_frac"] = (t["refuted"] / calls if calls else 0.0, "frac")
    for name, unit in COUNTS.items():
        metrics[name] = (t["counts"][name] / per_pass, unit)
    self_sum = sum(layer["self_s"] for layer in t["layers"].values())
    # each traced pass ran right after an untraced one; the ratio within a
    # pair is less exposed to drift in machine speed than a ratio of medians
    ratio = median(tr / un for tr, un in zip(traced, untraced))
    metrics["trace.overhead_frac"] = (ratio - 1, "frac")
    metrics["trace.accounted_frac"] = (self_sum / sum(traced), "frac")
    info = {"jobs": t["jobs"], "untraced_wall_s": median(untraced),
            "traced_wall_s": median(traced), "untraced_passes": untraced, "traced_passes": traced,
            "spans": str(spans.relative_to(ROOT))}
    return metrics, info, t["attempted"], t["failed"], t["problems"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a few small jobs per workload (self-check)")
    ap.add_argument("--poison", action="store_true",
                    help="corrupt the first job's expected answer (self-check)")
    args = ap.parse_args()

    if not (ROOT / "src" / "teachlab" / "__init__.py").is_file():
        print(f"no teachlab sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"no BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    # the JSON line carries the metrics BENCHMARK.json declares; the "#" lines
    # and the results file carry every metric measured
    declared = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    deadline = monotonic() + RUN_LIMIT_S
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, info, attempted, failed, problems = measure(args, deadline)
        metrics["failed_frac"] = (failed / attempted, "frac")
        gated = {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark run failed: {exc!r}", file=sys.stderr)
        return 1

    env = environment(args.seed)
    report = {"workload": args.workload, "trace": args.trace, "tiny": args.tiny,
              "env": env, "info": info, "problems": problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (HERE / "results").mkdir(exist_ok=True)
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="ascii")

    print(f"# {args.workload} seed={args.seed} jobs={info['jobs']} python={env['python']}"
          f" nproc={env['nproc']} cpu={env['cpu']!r} commit={env['commit']}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:42s} {value:14.6g} {unit}")
    print(f"# {failed} of {attempted} jobs failed")
    if not args.trace:
        print(f"# job_s.tail is p{info['tail_percentile']} of {info['job_samples']} job times"
              f" over {info['passes']} passes")
    for p in problems:
        print(f"# WRONG: {p}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": gated}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
