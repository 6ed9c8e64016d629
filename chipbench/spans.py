"""Per-layer spans for chipalg, recorded from outside the package.

A ``Tracer`` wraps the public functions listed in ``TARGETS``.  Entering it
rebinds each name in every ``chipalg`` module that holds it (methods are
rebound on their class); leaving it puts the originals back.  Only
functions at module boundaries are wrapped: per-element helpers such as
``divides``, ``lcm_exp``, ``vec_add``, ``MonomialIdeal.contains`` and
``LabeledComplex.face_label`` run 10^5-10^7 times a run, and a wrapper would
cost more than their work.  Face counts are read from the arguments and
results of ``sub_below`` and ``homology_ranks`` instead.

A span records its target, start, end, parent span and job id; spans stay
in memory and are written out once the traced pass ends.  A span's self
time is its duration minus the durations of its direct children; coverage
is the share of the time spent inside the tracer that root spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array

LAYERS = (
    "cli", "resolutions", "kernels", "chipfiring", "monomials",
    "riemann_roch", "hilbert", "multigraph", "exactla",
)


def _faces(args, result):
    return {"faces": len(args[0].faces)}


def _sub_below(args, result):
    return {"faces_scanned": len(args[0].faces), "faces_kept": len(result.faces)}


def _sparse_rank(args, result):
    cols = args[0]
    return {"cols": len(cols), "nnz": sum(len(c) for c in cols)}


def _points(args, result):
    return {"points": len(result)}


def _box_points(M) -> int:
    out = 1
    for i in range(M.vars):
        out *= M.pure_power(i)
    return out


def _socle(args, result):
    return {"size": len(result), "box_points": _box_points(args[0])}


def _standard(args, result):
    return {"count": len(result), "box_points": _box_points(args[0])}


# (layer, name in chipalg.<layer>, reported statistics, counter of work).
# Targets that report nothing are wrapped so that their time is attributed
# to their own layer rather than to the caller's self time.
TARGETS = (
    ("cli", "run", ("calls", "self_s"), None),
    ("resolutions", "sub_below", ("calls", "self_s", "faces_scanned", "faces_kept"), _sub_below),
    ("resolutions", "bary_complex", ("calls", "self_s"), None),
    ("resolutions", "apt_region", ("calls", "self_s"), None),
    ("resolutions", "homology_ranks", ("calls", "self_s", "faces"), _faces),
    ("resolutions", "betti_parking", (), None),
    ("resolutions", "betti_toppling", (), None),
    ("resolutions", "conjecture_check", (), None),
    ("resolutions", "cyc_partitions", (), None),
    ("kernels", "sparse_rank", ("calls", "self_s", "cols", "nnz"), _sparse_rank),
    ("kernels", "bareiss_det", ("calls", "self_s"), None),
    ("chipfiring", "lattice_points_in_box", ("calls", "self_s", "points"), _points),
    ("chipfiring", "lattice_socle_base", ("calls", "self_s"), None),
    ("chipfiring", "divisor_rank", ("calls", "self_s"), None),
    ("chipfiring", "divisor_rank_oracle", ("calls", "self_s"), None),
    ("chipfiring", "q_reduced", ("calls", "self_s"), None),
    ("chipfiring", "parking_ideal", ("calls", "self_s"), None),
    ("chipfiring", "toppling_generators", (), None),
    ("chipfiring", "groebner_certificate", (), None),
    ("chipfiring", "baker_norine_verify", (), None),
    ("monomials", "socle", ("calls", "self_s", "size", "box_points"), _socle),
    ("monomials", "standard_monomials", ("calls", "self_s", "count", "box_points"), _standard),
    ("monomials", "parse_ideal", (), None),
    ("riemann_roch", "rr_profile", ("calls", "self_s"), None),
    ("riemann_roch", "rr_verify", ("calls", "self_s"), None),
    ("riemann_roch", "mono_rank", ("calls", "self_s"), None),
    ("riemann_roch", "mono_rank_bruteforce", ("calls", "self_s"), None),
    ("hilbert", "parking_sum", ("calls", "self_s"), None),
    ("hilbert", "hilbert_numerator", ("calls", "self_s"), None),
    ("hilbert", "hilbert_identity_check", (), None),
    ("hilbert", "GradedPolynomial.add", ("calls",), None),
    ("hilbert", "GradedPolynomial.mul", ("self_s",), None),
    ("multigraph", "divisor_class_group", ("calls", "self_s", "cache_hits"), None),
    ("multigraph", "div_class", ("calls",), None),
    ("multigraph", "connected_splits", ("calls", "self_s"), None),
    ("multigraph", "parse_graph", (), None),
    ("multigraph", "tree_count", (), None),
    ("exactla", "smith_normal_form", ("calls", "self_s"), None),
    ("exactla", "determinant", ("calls", "self_s"), None),
    ("exactla", "solve_integer", (), None),
)

#: Latency groups of the rank workload: median job time by node count.
RANK_GROUPS = (5, 6)

UNITS = {"self_s": "s", "p50_ms": "ms", "overhead_frac": "ratio", "coverage_frac": "ratio"}


def metric_names() -> list:
    """Every per-layer metric the traced run prints, in print order."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    for layer, name, stats, _ in TARGETS:
        names += [f"{layer}.{name}.{s}" for s in stats]
    names += [f"cli.rank.n{n}.p50_ms" for n in RANK_GROUPS]
    names += ["trace.overhead_frac", "trace.coverage_frac"]
    return names


def unit(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[1], "count")


class Tracer:
    """Spans of the ``TARGETS``, recorded while the tracer is entered as a
    context manager; outside it the original functions are bound."""

    def __init__(self):
        self.job = -1
        self.target = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = [{s: 0 for s in stats if s not in ("calls", "self_s")} for _, _, stats, _ in TARGETS]
        self.enabled_s = 0.0  # time spent inside the context manager
        self.missing = []
        self._bindings = []  # (holder, attribute, original, wrapper)
        modules = [m for k, m in sys.modules.items() if k == "chipalg" or k.startswith("chipalg.")]
        for idx, (layer, name, _, counter) in enumerate(TARGETS):
            owner = importlib.import_module(f"chipalg.{layer}")
            *path, attr = name.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(f"{layer}.{name}")
                continue
            wrapper = self._wrap(idx, orig, counter)
            holders = [owner] if path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._bindings.append((holder, key, orig, wrapper))

    def __enter__(self):
        for holder, key, _, wrapper in self._bindings:
            setattr(holder, key, wrapper)
        self._entered = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.enabled_s += time.perf_counter() - self._entered
        for holder, key, orig, _ in self._bindings:
            setattr(holder, key, orig)
        return False

    def _wrap(self, idx, orig, counter):
        stack, now = self._stack, time.perf_counter
        target, parent, job_of, start, end = self.target, self.parent, self.job_of, self.start, self.end
        counts = self.counts[idx]
        # A call of an lru-cached target is a hit when the cache's miss count
        # does not move; the cache's own totals are reset whenever it is
        # cleared, which the harness does before every job.
        cache_info = orig.cache_info if "cache_hits" in counts else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            sid = len(start)
            target.append(idx)
            parent.append(stack[-1] if stack else -1)
            job_of.append(self.job)
            end.append(0.0)
            stack.append(sid)
            start.append(now())
            try:
                result = orig(*args, **kwargs)
            finally:
                end[sid] = now()
                stack.pop()
            if counter is not None:
                for k, v in counter(args, result).items():
                    counts[k] += v
            if cache_info and cache_info().misses == misses:
                counts["cache_hits"] += 1
            return result

        return wrapper

    # --- results ----------------------------------------------------------------

    def self_times(self) -> list:
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[sid]
        return own

    def metrics(self) -> dict:
        """Layer and target metrics of everything traced so far."""
        own = self.self_times()
        calls = [0] * len(TARGETS)
        self_s = [0.0] * len(TARGETS)
        covered = 0.0
        for sid, idx in enumerate(self.target):
            calls[idx] += 1
            self_s[idx] += own[sid]
            if self.parent[sid] < 0:
                covered += self.end[sid] - self.start[sid]
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for idx, (layer, name, stats, _) in enumerate(TARGETS):
            out[f"{layer}.self_s"] += self_s[idx]
            values = {"calls": calls[idx], "self_s": self_s[idx], **self.counts[idx]}
            for s in stats:
                out[f"{layer}.{name}.{s}"] = values[s]
        out["trace.coverage_frac"] = covered / self.enabled_s
        return out

    def write(self, path, jobs: list, extra: dict):
        """Write every span, the job table and ``extra`` as gzipped JSON."""
        doc = {
            **extra,
            "targets": [f"{layer}.{name}" for layer, name, _, _ in TARGETS],
            "jobs": jobs,
            "spans": {
                "target": self.target.tolist(),
                "parent": self.parent.tolist(),
                "job": self.job_of.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            },
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
