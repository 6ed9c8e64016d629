"""Record ``reference.json``: the digest of every catalogue's inputs and of
every job's answer.

    python3 chipbench/record.py

Run it from the repository root on a commit whose answers are trusted, and
only when a catalogue changes; the benchmark then checks every later commit
against these answers.  A job that exits non-zero or fails a check stops the
recording.
"""

from __future__ import annotations

import json
import sys

from run import SRC, WORK

sys.path.insert(0, str(SRC))

from harness import REFERENCE, call, digest, inputs_digest  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402


def main():
    doc = {"inputs": {}, "results": {}}
    for name, make in WORKLOADS.items():
        cat = make()
        write_inputs(cat.files, WORK / name)
        doc["inputs"][name] = inputs_digest(cat.files)
        results = doc["results"][name] = {}
        for job in cat.jobs:
            rc, stdout, *_ = call(job, WORK / name)
            report = json.loads(stdout) if rc == 0 else None
            if report is None or not all(c["pass"] for c in report["checks"]):
                raise SystemExit(f"cannot record chipalg {job.key}: exit {rc}")
            results[job.key] = digest(report["results"])
        print(f"{name}: {len(results)} jobs recorded", file=sys.stderr)
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
