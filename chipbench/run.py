"""chipalg benchmark: run one workload and print its metrics.

    python3 chipbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the repository root; ``chipalg`` is imported from ``src/``.  Set-up
imports chipalg, generates the workload's input files and writes them under
``.chipbench_work/``, in a fresh interpreter, ``SETUP_REPEATS`` times.  The
run then calls ``chipalg.cli.run`` in this process, one job at a time
(closed loop, one client), in whole passes over the workload's catalogue in
an order drawn from ``--seed``, until ``--seconds`` have elapsed and at
least 32 job runs are done.  Every job starts with chipalg's caches empty,
as a CLI process does, and every answer is checked against
``reference.json``.

On a shared virtual machine the speed of this pure-Python code changes by
up to 1.6x from one stretch of seconds to the next (see ``probe.py``).  So
every time is scaled to a reference host by the slowdown that a host probe
measured while it was taken: ``jobs_per_s`` is job runs over the sum of
their times, in jobs per reference second (``jobs/ref-s``); ``job_p50_ms``
is the median over the catalogue of each job's mean time, in reference
milliseconds (``ref-ms``); ``setup_s`` is the median set-up time, in
reference seconds (the benchmark's contract fixes its unit as ``s``).  Lines
before the last one are for people: the environment, the wall-time
throughput, latency percentiles of every job run, failed_frac, the host's
slowdown and unscaled figures, and any failed job.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` the run sets up once, makes one
pass, runs each job traced and then again untraced, and prints the
per-layer metrics (see ``spans.py``); the tracing overhead compares the two
runs of each job.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import probe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".chipbench_work"

#: Set-up is repeated this many times per untraced run and its median reported.
SETUP_REPEATS = 21

#: Unit of each end-to-end metric, in print order.
END_TO_END = {"jobs_per_s": "jobs/ref-s", "job_p50_ms": "ref-ms", "peak_rss_mb": "MB", "setup_s": "s"}

#: One set-up, run in a fresh interpreter: argv is the source directory, this
#: directory, the workload and the input directory.  Prints the wall and the
#: reference seconds taken after interpreter start-up (``HostProbe.scale``),
#: and the digest of the inputs.
_SETUP = """
import sys
sys.path[:0] = sys.argv[1:3]
import time
import probe
with probe.HostProbe() as host:
    mark = host.mark()
    start = time.perf_counter()
    import chipalg.cli
    import workloads
    cat = workloads.WORKLOADS[sys.argv[3]]()
    workloads.write_inputs(cat.files, sys.argv[4])
    seconds = time.perf_counter() - start
from harness import inputs_digest
print(*host.scale(seconds, mark), inputs_digest(cat.files))
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _setup(workload: str, input_dir: Path, want_inputs: str, repeats: int) -> list:
    """Set up ``repeats`` times, each in a fresh interpreter; returns the
    (wall, reference) seconds of each."""
    times = []
    for _ in range(repeats):
        child = subprocess.run(
            [sys.executable, "-c", _SETUP, str(SRC), str(HERE), workload, str(input_dir)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        wall, ref, got = child.stdout.split()
        if got != want_inputs:
            raise SystemExit(f"{workload}: generated inputs differ from those in reference.json")
        times.append((float(wall), float(ref)))
    return times


def _untraced(args, cat, input_dir, reference, setup):
    from harness import latency_summary, mean_ref_seconds, report_failures, run_passes

    host = probe.HostProbe()
    outcomes, wall, passes = run_passes(cat.jobs, args.seed, input_dir, reference, args.seconds, host)
    failed = sum(1 for o in outcomes if o.failure)
    report_failures(outcomes, sys.stdout)
    print(f"{args.workload}: {passes} passes of {len(cat.jobs)} jobs in {wall:.3f} s wall, "
          f"{len(outcomes) / wall:.4f} jobs/s of wall time")
    print("latency of every job run: " + ", ".join(f"{k} {v:.6g}" for k, v in latency_summary(outcomes).items()))
    print(f"failed_frac: {failed}/{len(outcomes)} = {failed / len(outcomes):.4f}")
    print(f"host slowdown {probe.slowdown(host.times):.4f} from {len(host.times)} probe samples; unscaled: "
          f"jobs_per_s {len(outcomes) / sum(o.seconds for o in outcomes):.6g} jobs/s, "
          f"setup_s {statistics.median(w for w, _ in setup):.6g} s")
    values = {
        "jobs_per_s": len(outcomes) / sum(o.ref_seconds for o in outcomes),
        "job_p50_ms": statistics.median(mean_ref_seconds(outcomes).values()) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(r for _, r in setup),
    }
    return len(outcomes), failed, {m: (values[m], u) for m, u in END_TO_END.items()}


def _traced(args, cat, input_dir, reference):
    import spans
    from harness import environment, execute, report_failures
    from workloads import shuffled

    tracer = spans.Tracer()
    if tracer.missing:
        print("trace: not found: " + ", ".join(tracer.missing))
    traced, untraced = [], []
    for i, job in enumerate(shuffled(cat.jobs, args.seed, 0)):
        tracer.job = i
        with tracer:
            traced.append(execute(job, input_dir, reference))
        untraced.append(execute(job, input_dir, reference))
    outcomes = traced + untraced
    failed = sum(1 for o in outcomes if o.failure)
    report_failures(outcomes, sys.stdout)

    metrics = tracer.metrics()
    for n in spans.RANK_GROUPS:
        ms = [o.seconds * 1000 for o in untraced if o.job.args[0] == "rank" and o.job.meta["nodes"] == n]
        metrics[f"cli.rank.n{n}.p50_ms"] = statistics.median(ms) if ms else 0.0
    traced_s = sum(o.seconds for o in traced)
    untraced_s = sum(o.seconds for o in untraced)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    print(f"{args.workload}: {len(traced)} jobs, {traced_s:.3f} s traced, {untraced_s:.3f} s untraced, "
          f"{len(tracer.start)} spans")

    jobs = [
        {"key": t.job.key, **t.job.meta, "traced_s": t.seconds, "untraced_s": u.seconds, "failure": t.failure}
        for t, u in zip(traced, untraced)
    ]
    extra = {"workload": args.workload, "seed": args.seed, "env": environment()}
    tracer.write(WORK / f"{args.workload}.trace.json.gz", jobs, extra)
    return len(outcomes), failed, {m: (metrics[m], spans.unit(m)) for m in spans.metric_names()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "chipalg" / "cli.py").is_file():
        print(f"chipbench: no chipalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from harness import environment, load_reference

    reference = load_reference()
    input_dir = WORK / args.workload
    want_inputs = reference["inputs"][args.workload]
    setup = _setup(args.workload, input_dir, want_inputs, 1 if args.trace else SETUP_REPEATS)
    cat = WORKLOADS[args.workload]()
    results = reference["results"][args.workload]
    print("env: " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        attempted, failed, metrics = _traced(args, cat, input_dir, results)
    else:
        attempted, failed, metrics = _untraced(args, cat, input_dir, results, setup)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
