"""Run the benchmark over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workloads tdmin-n64 nc-search --seeds 1 2 3 4 5

For every workload and end-to-end metric it prints the median of the
per-seed values, the quartiles from statistics.quantiles(values, n=4), and
the spread (q3 - q1) / median; for a metric BENCHMARK.json declares, also a
third of its bound.  --out FILE also writes the raw values and the summary
as JSON (baseline.json is made this way).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", metavar="FILE")
    args = ap.parse_args()

    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            t0 = monotonic()
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: wrong answers\n{proc.stdout}", file=sys.stderr)
                return 1
            report = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace0.json")
                                .read_text(encoding="ascii"))
            measured = {k: v["value"] for k, v in report["metrics"].items() if k != "failed_frac"}
            for name, value in measured.items():
                values.setdefault(name, []).append(value)
            runs.append({"seed": seed, "run_s": monotonic() - t0, "attempted": result["attempted"],
                         "metrics": measured, "env": report["env"]})
        print(f"{workload}: {len(args.seeds)} seeds, run time"
              f" {min(r['run_s'] for r in runs):.1f}-{max(r['run_s'] for r in runs):.1f} s")
        summary[workload] = {"runs": runs, "metrics": {}}
        for name, vals in values.items():
            q1, q2, q3 = quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            summary[workload]["metrics"][name] = {"median": q2, "q1": q1, "q3": q3,
                                                  "spread": spread}
            gate = ""
            if name in bounds:
                gate = f"  bound/3 {bounds[name] / 3:.4f}"
                if spread >= bounds[name] / 3 and name != "setup_s":
                    gate += "  <-- above bound/3"
            print(f"  {name:12s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.4f}{gate}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
