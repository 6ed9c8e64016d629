"""Runs catalogue jobs through ``chipalg.cli.run`` and checks every answer.

A job passes when the CLI exits 0, every entry of the report's ``checks``
passes, and the digest of the report's ``results`` equals the digest
recorded in ``reference.json``.  ``checks`` details stay out of the digest,
so adding or renaming self-checks does not change it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from chipalg import cli

from probe import HostProbe
from workloads import Job, shuffled

REFERENCE = Path(__file__).with_name("reference.json")


def _package_caches() -> list:
    """The ``functools.lru_cache`` functions of the imported chipalg modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "chipalg" or name.startswith("chipalg."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    found[id(value)] = value
    return list(found.values())


#: A user's CLI call starts a fresh process, in which these caches are empty;
#: ``call`` empties them before every job.  Found once, before a tracer can
#: rebind the names.
CACHES = _package_caches()


def digest(obj) -> str:
    """Digest of the canonical JSON of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def inputs_digest(files: dict) -> str:
    return digest(sorted(files.items()))


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


@dataclass
class Outcome:
    job: Job
    seconds: float  # wall time
    ref_seconds: float  # time on the reference host of ``probe.py``
    failure: str | None  # None when the job passed


def _check(rc, stdout: str, want: str | None) -> str | None:
    if rc != 0:
        return rc if isinstance(rc, str) else f"exit code {rc}"
    try:
        report = json.loads(stdout)
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        got = digest(report["results"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if failed:
        return f"failed checks: {', '.join(failed)}"
    if got != want:
        return f"results digest {got} != reference {want}"
    return None


def call(job: Job, input_dir: Path, host: HostProbe | None = None) -> tuple:
    """Run one job's ``cli.run`` call in this process, with the package's
    caches emptied first, and time it.

    Returns the exit code (or the text of a crash), the captured stdout, the
    wall seconds taken and the reference seconds (see ``HostProbe.scale``;
    without a ``host``, the wall seconds).  ``cli.run`` is looked up on each
    call so that a tracer can rebind it.  A job's second argument is always
    its input file.
    """
    argv = [job.args[0], str(input_dir / job.args[1]), *job.args[2:]]
    for cached in CACHES:
        cached.cache_clear()
    out = io.StringIO()
    mark = host.mark() if host else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.run(argv)
    except SystemExit as exc:  # argparse rejected the argv
        rc = exc.code
    except Exception:  # a crash is a failed job, as it would be for the CLI process
        rc = "crashed: " + traceback.format_exc(limit=-1).strip()
    seconds = time.perf_counter() - start
    wall, ref = host.scale(seconds, mark) if host else (seconds, seconds)
    return rc, out.getvalue(), wall, ref


def execute(job: Job, input_dir: Path, reference: dict, host: HostProbe | None = None) -> Outcome:
    """Run one job and check its answer against the reference digests."""
    rc, stdout, wall, ref = call(job, input_dir, host)
    return Outcome(job, wall, ref, _check(rc, stdout, reference.get(job.key)))


#: A run makes whole passes until it has made at least this many job runs,
#: so that a catalogue of a few long jobs (``rank``, 8 jobs) times each job
#: four times: on a shared 2-vCPU virtual machine, runs of two passes spread
#: about twice as wide over seeds.  One pass of ``sweep`` (1292 jobs) is
#: enough.
MIN_JOB_RUNS = 32


def run_passes(jobs: list, seed: int, input_dir: Path, reference: dict, seconds: float, host: HostProbe):
    """Closed loop, one job at a time: whole passes over the catalogue, each in
    a seeded order, until ``seconds`` have elapsed and at least
    ``MIN_JOB_RUNS`` jobs have run, with ``host`` sampling the host
    throughout.  Returns the outcomes, the wall time of the loop and the
    number of passes."""
    outcomes = []
    start = time.perf_counter()
    done = 0
    with host:
        while True:
            for job in shuffled(jobs, seed, done):
                outcomes.append(execute(job, input_dir, reference, host))
            done += 1
            wall = time.perf_counter() - start
            if wall >= seconds and len(outcomes) >= MIN_JOB_RUNS:
                return outcomes, wall, done


def mean_ref_seconds(outcomes: list) -> dict:
    """Mean reference time of each job key over all of its runs."""
    runs = {}
    for o in outcomes:
        runs.setdefault(o.job.key, []).append(o.ref_seconds)
    return {key: statistics.fmean(v) for key, v in runs.items()}


def latency_summary(outcomes: list) -> dict:
    """Median latency, and the highest of p90/p99 with at least ten samples
    beyond it."""
    ms = sorted(o.seconds * 1000 for o in outcomes)
    out = {"samples": len(ms), "p50_ms": statistics.median(ms)}
    for q in (99, 90):
        beyond = len(ms) * (100 - q) // 100
        if beyond >= 10:
            out[f"p{q}_ms"] = ms[len(ms) - beyond - 1]
            break
    return out


def report_failures(outcomes: list, stream):
    seen = set()
    for o in outcomes:
        if o.failure and (o.job.key, o.failure) not in seen:
            seen.add((o.job.key, o.failure))
            print(f"FAILED job: chipalg {o.job.key}: {o.failure}", file=stream)


def environment() -> dict:
    """What decides which program was measured: the kernel backend, the
    Python version and the processor count."""
    from chipalg import kernels

    return {
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }
