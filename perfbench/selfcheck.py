"""Self-check of the benchmark: every workload at a tiny size, in a few seconds each.

    python3 perfbench/selfcheck.py

Confirms, for every workload, that an untraced run prints every end-to-end
metric (failed_frac included) with its unit, that a traced run prints every
per-layer metric, that the JSON line carries exactly the metrics
BENCHMARK.json declares, that corrupting one expected answer makes
failed_frac positive, and that the benchmark refuses to run without the
package sources.  Raises AssertionError on the first failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, tail  # noqa: E402

# the metrics the benchmark promises, written out independently of BENCHMARK.json
END_TO_END = {"setup_s": "s", "wall_s": "s", "wall_raw_s": "s", "speed": "x",
              "job_s.p50": "s", "job_s.tail": "s", "peak_rss_mb": "MB", "failed_frac": "frac"}
LAYERS = ["classical.td_min", "classical.teaching_report", "classical.rtd",
          "ncteach.decide_order", "ncteach.nctd", "ncteach.parse_teacher",
          "ncteach.serialize_teacher", "johnson.h_max", "tournaments.random_tournament",
          "tournaments.class1", "tournaments.class2", "tournaments.recover_tournament",
          "tournaments.parse_tournament", "tournaments.serialize_tournament",
          "concepts.parse_class", "concepts.serialize_class",
          "experiments.run_tdmin_experiment", "experiments.verify_dim1",
          "experiments.max_class_search", "cli.dispatch"]
PER_LAYER = {"ncteach.decide_order.refuted_frac": "frac", "johnson.h_max.vertices": "count",
             "rng.draws": "count", "concepts.bytes": "bytes", "trace.overhead_frac": "frac",
             "trace.accounted_frac": "frac"}
PER_LAYER.update({f"{name}.calls": "count" for name in LAYERS})
PER_LAYER.update({f"{name}.self_s": "s" for name in LAYERS})


def run(*extra: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "1",
                           *extra], cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    out = json.loads(stdout.strip().splitlines()[-1])
    if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"result keys {sorted(out)}")
    return out


def printed(stdout: str) -> dict[str, tuple[float, str]]:
    """The "# <name> <value> <unit>" lines of a run."""
    rows = re.findall(r"^# (\S+)\s+(\S+) (\S+)$", stdout, re.MULTILINE)
    out = {}
    for name, value, unit in rows:
        try:
            out[name] = (float(value), unit)
        except ValueError:
            continue
    return out


def expect_metrics(stdout: str, want: dict[str, str], declared: list[dict]) -> dict:
    shown = printed(stdout)
    missing = [name for name, unit in want.items() if shown.get(name, (0, None))[1] != unit]
    if missing:
        raise AssertionError(f"not printed with the right unit: {missing}")
    out = result(stdout)
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in declared}:
        raise AssertionError(f"JSON metrics {sorted(got)} differ from BENCHMARK.json")
    if not all(isinstance(m["value"], (int, float)) for m in out["metrics"].values()):
        raise AssertionError("a metric value is not a number")
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from run.py's")
    if tail([float(x) for x in range(1, 101)]) != (90, 90.0):
        raise AssertionError("tail percentile of 1..100 should be p90 = 90")

    for workload in WORKLOADS:
        code, stdout = run("--workload", workload, "--tiny", "--trace", "0")
        out = expect_metrics(stdout, END_TO_END, bench["end_to_end"])
        if code or not out["correct"] or out["failed"] or printed(stdout)["failed_frac"][0] != 0:
            raise AssertionError(f"{workload}: clean tiny run failed\n{stdout}")
        if any(m["value"] <= 0 for m in out["metrics"].values()):
            raise AssertionError(f"{workload}: an end-to-end metric is not positive")

        code, stdout = run("--workload", workload, "--tiny", "--trace", "1")
        out = expect_metrics(stdout, PER_LAYER, bench["per_layer"])
        if code or not out["correct"]:
            raise AssertionError(f"{workload}: traced tiny run failed\n{stdout}")
        if not 0 < out["metrics"]["trace.accounted_frac"]["value"] <= 1:
            raise AssertionError(f"{workload}: self times exceed the traced wall time")

        code, stdout = run("--workload", workload, "--tiny", "--trace", "0", "--poison")
        out = result(stdout)
        if code or out["correct"] or out["failed"] < 1 or printed(stdout)["failed_frac"][0] <= 0:
            raise AssertionError(f"{workload}: a wrong expected answer went unnoticed\n{stdout}")
        print(f"ok  {workload}")

    with tempfile.TemporaryDirectory(dir=HERE / "results") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        code, stdout = run("--workload", WORKLOADS[0], "--trace", "0", cwd=Path(bare))
        if code == 0 or stdout.strip():
            raise AssertionError("the benchmark ran without the package sources")
    print("ok  refuses to run without src/teachlab")
    return 0


if __name__ == "__main__":
    sys.exit(main())
