"""What the benchmark runs and reports.

``BENCHMARK.json`` at the repository root mirrors this catalogue; the
benchmark's tests keep the two in step.  ``bound`` is the share of the
parent commit's median by which an end-to-end metric may worsen before a
change counts as a regression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_PATTERN = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


WORKLOADS = (
    Workload(
        "sweep-linear",
        "Fig. 15/16 grid of stateless batched policies, no reserved pool or spot: "
        "decide_many, the linear schedule, record building, digest and cache I/O",
    ),
    Workload(
        "sweep-contended",
        "Fig. 11/12/18 grid with reserved pools and spot evictions: the heap event "
        "loop and ragged usage intervals; a linear-path change predicts no change here",
    ),
    Workload(
        "service-online",
        "a seeded week-long stream over HTTP to python -m repro.service: scalar decide, "
        "session submit, admission and transport; bypasses the salt and the cache",
    ),
)

END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("jobs_per_s", "jobs/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("results_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
)

PER_LAYER = (
    Metric("workload.generate_s", "s", "lower"),
    Metric("carbon.generate_s", "s", "lower"),
    Metric("runner.salt_s", "s", "lower"),
    Metric("runner.spec_digest_s", "s", "lower"),
    Metric("runner.thaw_s", "s", "lower"),
    Metric("runner.cache_put_s", "s", "lower"),
    Metric("runner.cache_put_bytes", "bytes", "lower"),
    Metric("runner.cache_get_s", "s", "lower"),
    Metric("runner.cache_hit_ratio", "ratio", "higher"),
    Metric("runner.executed", "count", "lower"),
    Metric("runner.deduplicated", "count", "higher"),
    Metric("runner.failed", "count", "lower"),
    Metric("runner.retries", "count", "lower"),
    Metric("policies.decide_many_s", "s", "lower"),
    Metric("policies.batched_decisions", "count", "higher"),
    Metric("policies.decide_s", "s", "lower"),
    Metric("policies.decide_calls", "count", "lower"),
    Metric("engine.run_s", "s", "lower"),
    Metric("engine.run_self_s", "s", "lower"),
    Metric("engine.jobs", "count", "higher"),
    Metric("engine.usage_intervals", "count", "higher"),
    Metric("engine.evictions", "count", "lower"),
    Metric("session.submit_s", "s", "lower"),
    Metric("session.drain_s", "s", "lower"),
    Metric("results.digest_s", "s", "lower"),
    Metric("results.pickle_s", "s", "lower"),
    Metric("results.pickle_bytes", "bytes", "lower"),
    Metric("results.unpickle_s", "s", "lower"),
    Metric("service.submit_s", "s", "lower"),
    Metric("service.http_self_s", "s", "lower"),
    Metric("service.read_p50_ms", "ms", "lower"),
    Metric("service.rejected", "count", "lower"),
    Metric("loadgen.submit_p99_ms", "ms", "lower"),
    Metric("loadgen.late_p99_ms", "ms", "lower"),
    Metric("loadgen.max_inflight", "count", "lower"),
    Metric("loadgen.limit_met", "flag", "higher"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("trace.accounted_ratio", "ratio", "higher"),
    Metric("trace.spans", "count", "lower"),
    Metric("host.calib_ms", "ms", "lower"),
    Metric("host.calib_drift_ratio", "ratio", "lower"),
    Metric("host.cpu_share", "ratio", "higher"),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalogue describes."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
