"""Record the tdmin-n64 per-trial records that later runs must reproduce.

    python3 perfbench/record.py [SEED ...]

Runs the full tdmin-n64 job list for each seed (default: the default and
held-out seeds of run.py) and stores (trial, trial_seed, td_min, nctd) per
job in perfbench/expected/tdmin_records.json, next to the commit it ran
on.  Existing seeds are kept; run it only on a commit whose answers are
trusted, because every later run is checked against these records.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

PATH = workloads.EXPECTED / "tdmin_records.json"


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [run.DEFAULT_SEED, run.HELD_OUT_SEED]
    data = json.loads(PATH.read_text(encoding="ascii"))
    data["commit"] = run.environment(0)["commit"]
    for seed in seeds:
        wl = workloads.build("tdmin-n64", seed, tiny=False, workdir=HERE)
        if len(wl.jobs) != data["jobs"]:
            raise SystemExit(f"job list has {len(wl.jobs)} jobs, the record file {data['jobs']}")
        rows = []
        for job in wl.jobs:
            records, _ = job.digest(job.run())
            rows.append(list(records[0]))
        data["seeds"][str(seed)] = rows
        print(f"seed {seed}: td_min values {sorted({r[2] for r in rows})}")
    PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
