"""Smoke tests of the benchmark harness.

    python3 -m pytest chipbench

They run a handful of real jobs, so they take a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from chipalg import cli  # noqa: E402

import harness  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(name="sweep")
def _sweep(tmp_path):
    """The first four sweep jobs, their inputs written, and their reference."""
    cat = workloads.sweep()
    jobs = cat.jobs[:4]
    workloads.write_inputs({j.args[1]: cat.files[j.args[1]] for j in jobs}, tmp_path)
    reference = harness.load_reference()["results"]["sweep"]
    return jobs, tmp_path, reference


def test_sweep_enumerates_646_graphs():
    assert len(workloads.sweep().files) == workloads.SWEEP_GRAPHS == 646


def test_catalogues_match_recorded_inputs():
    reference = harness.load_reference()
    for name, make in workloads.WORKLOADS.items():
        assert harness.inputs_digest(make().files) == reference["inputs"][name], name


def test_clean_run_has_no_failures(sweep):
    jobs, input_dir, reference = sweep
    outcomes, _, passes = harness.run_passes(jobs, 7, input_dir, reference, 0, probe.HostProbe())
    assert len(outcomes) == passes * len(jobs) >= harness.MIN_JOB_RUNS
    assert [o.failure for o in outcomes] == [None] * len(outcomes)


def test_host_probe_samples_only_while_entered():
    host = probe.HostProbe()
    with host:
        end = time.perf_counter() + 0.25
        while time.perf_counter() < end:
            pass
    assert len(host.times) >= 5 and host.spent >= sum(host.times)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert probe.slowdown(host.times) > 0
    with pytest.raises(RuntimeError):
        probe.slowdown([])


def test_every_job_starts_with_empty_caches(sweep, monkeypatch):
    jobs, input_dir, reference = sweep
    multigraph = spans.importlib.import_module("chipalg.multigraph")
    chipfiring = spans.importlib.import_module("chipalg.chipfiring")
    assert {id(multigraph.divisor_class_group), id(chipfiring._reduced_laplacian_inverse)} <= {
        id(f) for f in harness.CACHES
    }
    real_run = cli.run
    sizes = []

    def recording_run(argv):
        sizes.append([f.cache_info().currsize for f in harness.CACHES])
        return real_run(argv)

    monkeypatch.setattr(cli, "run", recording_run)
    for job in jobs + jobs:
        assert harness.execute(job, input_dir, reference).failure is None
    assert sizes == [[0] * len(harness.CACHES)] * (2 * len(jobs))
    assert multigraph.divisor_class_group.cache_info().currsize > 0


def test_corrupted_result_counts_as_failed(sweep, monkeypatch):
    jobs, input_dir, reference = sweep
    victim = jobs[1]
    real_run = cli.run

    def corrupting_run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = real_run(argv)
        report = json.loads(out.getvalue())
        if argv[2:] == list(victim.args[2:]) and argv[1].endswith(victim.args[1]):
            report["results"]["char"] += 1
        print(json.dumps(report))
        return rc

    monkeypatch.setattr(cli, "run", corrupting_run)
    outcomes, _, passes = harness.run_passes(jobs, 7, input_dir, reference, 0, probe.HostProbe())
    failed = [o for o in outcomes if o.failure]
    assert [o.job for o in failed] == [victim] * passes
    assert "digest" in failed[0].failure


def test_nonzero_exit_counts_as_failed(sweep):
    jobs, input_dir, reference = sweep
    bad = workloads.Job(("rank", jobs[0].args[1], "--divisor", "-1,2"))  # argparse reads -1,2 as an option
    outcome = harness.execute(bad, input_dir, reference)
    assert outcome.failure == "exit code 2"


def test_tracer_counts_and_restores(sweep):
    jobs, input_dir, reference = sweep
    resolutions = spans.importlib.import_module("chipalg.resolutions")
    originals = (cli.run, resolutions.sub_below)
    tracer = spans.Tracer()
    with tracer:
        assert cli.run is not originals[0]
        outcomes = [harness.execute(j, input_dir, reference) for j in jobs]
    assert (cli.run, resolutions.sub_below) == originals
    assert not tracer.missing and all(o.failure is None for o in outcomes)
    m = tracer.metrics()
    assert m["cli.run.calls"] == len(jobs)
    assert m["resolutions.sub_below.calls"] > 0
    assert m["resolutions.sub_below.faces_kept"] <= m["resolutions.sub_below.faces_scanned"]
    assert 0 < m["trace.coverage_frac"] <= 1


def test_benchmark_json_names_every_printed_metric():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in BENCHMARK["per_layer"]] == spans.metric_names()
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        m: spans.unit(m) for m in spans.metric_names()
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_counts_cache_hits_across_clears():
    multigraph = spans.importlib.import_module("chipalg.multigraph")
    graph = multigraph.parse_graph(workloads.graph_text(3, {(1, 2): 2, (2, 3): 1}))
    tracer = spans.Tracer()
    with tracer:
        for _ in range(2):
            for cached in harness.CACHES:
                cached.cache_clear()
            multigraph.divisor_class_group(graph)
            multigraph.divisor_class_group(graph)
    m = tracer.metrics()
    assert m["multigraph.divisor_class_group.calls"] == 4
    assert m["multigraph.divisor_class_group.cache_hits"] == 2
