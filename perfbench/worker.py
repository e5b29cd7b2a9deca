"""One workload in one process: set-up, then timed or traced passes over its job list.

Run by run.py, never by hand.  Prints one JSON object as its last line.

  setup    import teachlab, build the seeded inputs, run and check the warm-up job
  measure  set-up, then untraced passes over the job list for --seconds
  trace    set-up, then untraced and traced passes in turn for --seconds

In setup and measure modes a speed.Probe runs throughout, and set-up,
pass and job times are reported in normalised seconds (see speed.py); the
raw pass times travel alongside.  Trace mode reports raw times.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

from speed import Probe

HERE = Path(__file__).resolve().parent


class Passes:
    """Pass times, per-job times and answer digests of repeated passes over one job list.

    A job object may appear in the list more than once.  Its first answer
    is checked in full; every later run of it must reproduce that answer.
    """

    def __init__(self, jobs, probe=None) -> None:
        self.jobs = jobs
        self.probe = probe
        self.times: list[float] = []         # normalised if there is a probe, else raw
        self.raw_times: list[float] = []
        self.job_times: list[float] = []
        self.first: dict[int, object] = {}   # id(job) -> digest of its first run
        self.runs: dict[int, int] = {}       # id(job) -> runs so far
        self.changed: dict[int, int] = {}    # id(job) -> later runs whose digest differs
        self.tracer = None

    def run(self, seconds: float) -> None:
        """Passes while the next one, as long as the median so far, would end within `seconds`.

        Always at least one pass, so a job list longer than `seconds` runs once.
        """
        start = perf_counter()
        while not self.times or perf_counter() - start + median(self.raw_times) <= seconds:
            self.times.append(self.one_pass())

    def one_pass(self) -> float:
        probe = self.probe
        first_job = len(self.job_times)
        pass_mark = probe.mark() if probe else None
        t_pass = perf_counter()
        for j, job in enumerate(self.jobs):
            if self.tracer is not None:
                self.tracer.job = j
            job_mark = probe.mark() if probe else None
            t0 = perf_counter()
            try:
                raw = job.run()
                self.job_times.append(self._since(t0, job_mark))
                digest = job.digest(raw)
            except Exception as exc:  # a raising job is a failed job, not a crashed run
                self.job_times.append(self._since(t0, job_mark))
                digest = ("raised", repr(exc))
            key = id(job)
            self.runs[key] = self.runs.get(key, 0) + 1
            if key not in self.first:
                self.first[key] = digest
            elif digest != self.first[key]:
                self.changed[key] = self.changed.get(key, 0) + 1
        raw_pass = perf_counter() - t_pass
        self.raw_times.append(raw_pass)
        if probe is None:
            return raw_pass
        net = raw_pass - probe.own(pass_mark)
        speed = probe.speed(pass_mark)
        # the job times of a pass share the pass's speed: most jobs are
        # shorter than the probe's period
        self.job_times[first_job:] = [t * speed for t in self.job_times[first_job:]]
        return net * speed

    def _since(self, t0: float, mark) -> float:
        """Wall seconds since t0, less the probe's time since `mark`."""
        return perf_counter() - t0 - (self.probe.own(mark) if self.probe else 0.0)

    def failures(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems).

        Every run of a job whose first answer fails its check counts as
        failed, and so does every later run whose answer differs from the first.
        """
        failed = 0
        problems = []
        for job in {id(job): job for job in self.jobs}.values():
            found = _check(job, self.first[id(job)])
            if found:
                failed += self.runs[id(job)]
                problems.append(f"{job.label}: {'; '.join(found)}")
            else:
                failed += self.changed.get(id(job), 0)
        return len(self.job_times), failed, problems


def _check(job, digest) -> list[str]:
    if isinstance(digest, tuple) and digest and digest[0] == "raised":
        return [f"raised {digest[1]}"]
    try:
        return job.check(digest, job.expect)
    except Exception as exc:  # a malformed answer that trips the checker
        return [f"check raised {exc!r}"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--poison", action="store_true")
    ap.add_argument("--spans", metavar="FILE")
    args = ap.parse_args()

    root = HERE.parent
    probe = None
    if args.mode != "trace":
        probe = Probe()
        probe.start()
    setup_mark = probe.mark() if probe else None
    t_setup = perf_counter()
    sys.path.insert(0, str(root / "src"))
    import teachlab

    if not Path(teachlab.__file__).resolve().is_relative_to(root / "src"):
        print(f"teachlab imported from {teachlab.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=results) as workdir:
        wl = workloads.build(args.workload, args.seed, args.tiny, Path(workdir))
        if args.poison:
            wl.jobs[0].expect["answer"] += 1
        warm = Passes([wl.warmup], probe)
        warm.one_pass()
        setup_s = perf_counter() - t_setup
        if probe:
            setup_s = probe.normalise(setup_s, setup_mark)
        attempted, failed, problems = warm.failures()
        out = {"setup_s": setup_s}

        if args.mode == "measure":
            passes = Passes(wl.jobs, probe)
            passes.run(args.seconds)
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            out["passes"] = passes.times
            out["raw_passes"] = passes.raw_times
            out["job_times"] = passes.job_times
        elif args.mode == "trace":
            from tracer import Tracer

            passes = Passes(wl.jobs)
            tracer = passes.tracer = Tracer()
            untraced, traced = [], []
            start = perf_counter()
            # alternate the two kinds of pass so that drift in machine speed
            # does not read as tracing overhead
            while not untraced or perf_counter() - start < args.seconds:
                untraced.append(passes.one_pass())
                tracer.enable()
                try:
                    traced.append(passes.one_pass())
                finally:
                    tracer.disable()
            out["untraced_passes"] = untraced
            out["traced_passes"] = traced
            out["layers"] = tracer.summary()
            out["counts"] = tracer.counts
            out["refuted"] = tracer.refuted
            if args.spans:
                tracer.write_spans(args.spans)
        if args.mode != "setup":
            a, f, p = passes.failures()
            attempted, failed, problems = attempted + a, failed + f, problems + p
            out["jobs"] = len(wl.jobs)

    if probe:
        probe.stop()
        out["speed"] = median(probe.speeds)
    out.update(attempted=attempted, failed=failed, problems=problems[:5])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
