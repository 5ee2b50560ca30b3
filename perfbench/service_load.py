"""The ``service-online`` workload: a load generator for ``python -m repro.service``.

This process is the only load generator and holds one connection at a
time, so with the service that is two processes on two cores.  Each
repetition starts a fresh service and feeds it a prefix of one seeded,
week-long Alibaba-like stream (at most 4 CPUs per job), always in
arrival order, because the service rejects an arrival earlier than one
it already admitted:

1. closed loop: ``CLOSED_JOBS`` submits back to back, one in flight,
   with a seeded ``READ_SHARE`` of ``GET /jobs/{id}`` status reads mixed
   in -- sustained submits per second;
2. open loop at the fixed ``OPEN_RATE_PER_S``, far below capacity --
   submit latency timed from each request's due time, so a stall also
   counts against the requests queued behind it;
3. open loop at ``PROBE_SHARE`` of this repetition's sustained rate --
   whether the p99 limit holds without a growing lag;
4. ``POST /drain``, whose reply carries the result digest.

The service runs ``res-first:carbon-time`` with a reserved pool at the
stream's mean demand.  After the timed phase the drain digest of every
repetition must equal a batch ``Engine.run`` of the same jobs under the
same ``ServiceConfig``.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.service import ServiceClient, ServiceConfig, ServiceError
from repro.workload.job import Job
from repro.workload.sampling import week_long_trace
from repro.workload.synthetic import alibaba_like
from repro.workload.trace import WorkloadTrace

from perfbench import host, orderstats, spans

POLICY = "res-first:carbon-time"
REGION = "SA-AU"
CLOSED_JOBS = 2_500
OPEN_JOBS = 200
OPEN_RATE_PER_S = 200.0
PROBE_JOBS = 400
PROBE_SHARE = 0.5
READ_SHARE = 0.2
#: The p99 submit latency an operator of the online scheduler is promised.
SUBMIT_P99_LIMIT_MS = 10.0
#: Lag growth (last quarter over first quarter, median) that counts as a backlog.
LAG_GROWTH_LIMIT_MS = 1.0
#: The generator sleeps until this close to a due time, then spins.
SPIN_S = 0.002
STARTUP_TIMEOUT_S = 60.0
MIN_REPETITIONS = 3
MIN_TRACED_PAIRS = 2

#: Per-layer metrics the service never touches; a traced run reports 0.
UNTOUCHED_LAYERS = (
    "runner.salt_s",
    "runner.spec_digest_s",
    "runner.thaw_s",
    "runner.cache_put_s",
    "runner.cache_put_bytes",
    "runner.cache_get_s",
    "runner.cache_hit_ratio",
    "runner.executed",
    "runner.deduplicated",
    "runner.failed",
    "runner.retries",
    "policies.decide_many_s",
    "policies.batched_decisions",
    "engine.run_s",
    "engine.run_self_s",
    "results.pickle_s",
    "results.pickle_bytes",
    "results.unpickle_s",
)


def make_stream(seed: int) -> WorkloadTrace:
    """The seeded arrival stream every repetition submits."""
    jobs = CLOSED_JOBS + OPEN_JOBS + PROBE_JOBS
    raw = alibaba_like(num_jobs=4 * jobs, seed=seed)
    return week_long_trace(raw, num_jobs=jobs, seed=seed)


def make_config(stream: WorkloadTrace) -> ServiceConfig:
    return ServiceConfig(
        policy=POLICY,
        region=REGION,
        reserved_cpus=round(stream.mean_demand),
        horizon_days=7.0,
        max_jobs=len(stream),
    )


def service_flags(config: ServiceConfig) -> list[str]:
    """``python -m repro.service`` flags for ``config`` (ephemeral port)."""
    return [
        "--host", "127.0.0.1",
        "--port", "0",
        "--policy", config.policy,
        "--region", config.region,
        "--reserved", str(config.reserved_cpus),
        "--horizon-days", str(config.horizon_days),
        "--max-jobs", str(config.max_jobs),
    ]


@dataclass
class OpenLoop:
    latency_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    max_inflight: int = 0


@dataclass
class Repetition:
    """Samples and outcomes of one service lifetime."""

    setup_s: float = 0.0
    closed_s: float = 0.0
    closed_latency_ms: list[float] = field(default_factory=list)
    read_ms: list[float] = field(default_factory=list)
    open: OpenLoop = field(default_factory=OpenLoop)
    probe: OpenLoop = field(default_factory=OpenLoop)
    drain_s: float = 0.0
    digest: str = ""
    drained_jobs: int = 0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    problems: list[str] = field(default_factory=list)
    recorder: spans.SpanRecorder | None = None
    #: Reference seconds around each timed phase (see host.py).
    references: dict[str, float] = field(default_factory=dict)
    #: CPUs the load generator and the service ran on.
    generator_cpus: set[int] = field(default_factory=set)
    service_cpus: set[int] = field(default_factory=set)

    def nominal(self, phase: str, measured: float) -> float:
        return host.nominal(measured, self.references[phase])


class _LoadGenerator:
    """Issues one repetition's requests and records what they cost."""

    def __init__(self, client: ServiceClient, rep: Repetition, rng: random.Random):
        self.client = client
        self.rep = rep
        self.rng = rng

    async def _call(self, request):
        self.rep.attempted += 1
        try:
            return await request
        except ServiceError as error:
            self.rep.failed += 1
            if error.status in (409, 422, 429, 503):
                self.rep.rejected += 1
            self.rep.problems.append(str(error))
            return None

    def _submit(self, job: Job):
        return self._call(
            self.client.submit(
                length=job.length, cpus=job.cpus, arrival=job.arrival, job_id=job.job_id
            )
        )

    async def closed_loop(self, jobs: list[Job]) -> None:
        rep = self.rep
        started = time.perf_counter()
        for index, job in enumerate(jobs):
            sent = time.perf_counter()
            await self._submit(job)
            rep.closed_latency_ms.append((time.perf_counter() - sent) * 1000.0)
            if self.rng.random() < READ_SHARE:
                target = jobs[self.rng.randrange(index + 1)].job_id
                sent = time.perf_counter()
                status = await self._call(self.client.status(target))
                rep.read_ms.append((time.perf_counter() - sent) * 1000.0)
                if status is not None and status.get("job_id") != target:
                    rep.problems.append(f"status of job {target} named {status.get('job_id')}")
        rep.closed_s = time.perf_counter() - started

    async def open_loop(self, jobs: list[Job], rate: float, loop: OpenLoop) -> None:
        inflight = 0
        started = time.perf_counter()
        for index, job in enumerate(jobs):
            due = started + index / rate
            pause = due - time.perf_counter() - SPIN_S
            if pause > 0:
                await asyncio.sleep(pause)
            while time.perf_counter() < due:
                pass
            sent = time.perf_counter()
            inflight += 1
            loop.max_inflight = max(loop.max_inflight, inflight)
            await self._submit(job)
            inflight -= 1
            done = time.perf_counter()
            loop.latency_ms.append((done - due) * 1000.0)
            loop.late_ms.append((sent - due) * 1000.0)

    async def drain(self) -> None:
        started = time.perf_counter()
        payload = await self._call(self.client.drain())
        self.rep.drain_s = time.perf_counter() - started
        if payload is not None:
            self.rep.digest = payload["digest"]
            self.rep.drained_jobs = payload["jobs"]


def repetition(
    stream: WorkloadTrace,
    config: ServiceConfig,
    seed: int,
    root: Path,
    spans_path: Path | None,
    cpus: tuple[int, int],
) -> Repetition:
    """One service lifetime: spawn, closed loop, open loops, drain, stop.

    ``cpus`` is the ``(bench, service)`` placement from
    ``host.pin_benchmark``: this process runs on the first, the service
    on the second.
    """
    rep = Repetition()
    if spans_path is None:
        command = [sys.executable, "-m", "repro.service", *service_flags(config)]
    else:
        command = [
            sys.executable, "-m", "perfbench.service_launcher", str(spans_path),
            *service_flags(config),
        ]
    jobs = list(stream.jobs)
    closed = jobs[:CLOSED_JOBS]
    fixed = jobs[CLOSED_JOBS : CLOSED_JOBS + OPEN_JOBS]
    probe = jobs[CLOSED_JOBS + OPEN_JOBS :]
    bench_cpu, service_cpu = cpus

    def both_cpus() -> float:
        return (host.reference_s(bench_cpu) + host.reference_s(service_cpu)) / 2

    # Each phase is paired with the mean of the reference timings just
    # before and after it: on the service's CPU for start-up and drain,
    # which run in the service alone, on both CPUs for the loops.
    before_spawn = host.reference_s(service_cpu)
    process, rep.setup_s, line = host.start(
        command, root, "listening on http://", STARTUP_TIMEOUT_S, cpu=service_cpu
    )
    try:
        rep.generator_cpus = os.sched_getaffinity(0)
        rep.service_cpus = os.sched_getaffinity(process.pid)
        if bench_cpu != service_cpu and rep.generator_cpus & rep.service_cpus:
            rep.problems.append(
                f"service on CPUs {sorted(rep.service_cpus)} shares the load generator's "
                f"{sorted(rep.generator_cpus)}"
            )
        port = int(line.rsplit(":", 1)[1])
        load = _LoadGenerator(ServiceClient("127.0.0.1", port), rep, random.Random(seed))

        async def scenario() -> None:
            listening = host.reference_s(service_cpu)
            rep.references["setup"] = (before_spawn + listening) / 2
            before_closed = both_cpus()
            await load.closed_loop(closed)
            after_closed = both_cpus()
            await load.open_loop(fixed, OPEN_RATE_PER_S, rep.open)
            after_open = both_cpus()
            rep.references["closed"] = (before_closed + after_closed) / 2
            rep.references["open"] = (after_closed + after_open) / 2
            sustained = len(closed) / rep.closed_s
            await load.open_loop(probe, PROBE_SHARE * sustained, rep.probe)
            before_drain = host.reference_s(service_cpu)
            await load.drain()
            rep.references["drain"] = (before_drain + host.reference_s(service_cpu)) / 2
            rep.peak_rss_mb = host.process_peak_rss_mb(process.pid)
            await load.client.shutdown()

        asyncio.run(scenario())
        process.communicate(timeout=STARTUP_TIMEOUT_S)
        if process.returncode != 0:
            rep.problems.append(f"service exited with {process.returncode}")
    finally:
        host.stop(process)
    if spans_path is not None:
        rep.recorder = spans.SpanRecorder.from_json(json.loads(spans_path.read_text()))
        spans_path.unlink()
    return rep


def batch_reference(stream: WorkloadTrace, config: ServiceConfig):
    """``Engine.run`` over the submitted jobs under the service's config."""
    jobs = [
        Job(job_id=job.job_id, arrival=job.arrival, length=job.length, cpus=job.cpus)
        for job in stream.jobs
    ]
    trace = WorkloadTrace(jobs, name=config.workload_name, horizon=config.horizon_minutes)
    return config.engine(trace).run()


def check(reps: list[Repetition], stream: WorkloadTrace, config: ServiceConfig):
    """Output checks after the timed phase; returns (problems, reference result)."""
    reference = batch_reference(stream, config)
    expected = reference.digest()
    problems = []
    for number, rep in enumerate(reps):
        problems.extend(f"repetition {number}: {problem}" for problem in rep.problems)
        if rep.digest != expected:
            problems.append(f"repetition {number}: drain digest differs from batch Engine.run")
        if rep.drained_jobs != len(stream):
            problems.append(f"repetition {number}: drained {rep.drained_jobs}/{len(stream)} jobs")
    return problems, reference


def _timed_phase(
    stream, config, seed, root, work_dir, seconds, traced, cpus
) -> tuple[list[Repetition], list[Repetition], dict]:
    """Repetitions for ``seconds``; with ``traced``, every other one is traced."""
    calibration = host.calibrate()
    plain: list[Repetition] = []
    with_spans: list[Repetition] = []
    children_before = os.times()
    started = time.perf_counter()
    number = 0
    while (
        len(plain) < MIN_REPETITIONS
        or (traced and len(with_spans) < MIN_TRACED_PAIRS)
        or time.perf_counter() - started < seconds
    ):
        spans_path = Path(work_dir) / f"spans-{number}.json" if traced and number % 2 else None
        rep = repetition(stream, config, seed, root, spans_path, cpus)
        (with_spans if spans_path is not None else plain).append(rep)
        number += 1
    wall = time.perf_counter() - started
    children_after = os.times()
    after = host.calibrate()
    service_cpu_s = (children_after.children_user - children_before.children_user) + (
        children_after.children_system - children_before.children_system
    )
    return plain, with_spans, host.diagnostics(calibration, after, service_cpu_s, wall)


def measure(
    seed: int, seconds: float, root: Path, work_dir: str, cpus: tuple[int, int]
) -> dict:
    """End-to-end samples of the measured run (no tracing)."""
    stream = make_stream(seed)
    config = make_config(stream)
    reps, _, diagnostics = _timed_phase(
        stream, config, seed, root, work_dir, seconds, False, cpus
    )
    problems, _ = check(reps, stream, config)
    return {
        "setup_s": [rep.nominal("setup", rep.setup_s) for rep in reps],
        "jobs_per_s": [CLOSED_JOBS / rep.nominal("closed", rep.closed_s) for rep in reps],
        "latency_ms": [rep.nominal("open", ms) for rep in reps for ms in rep.open.latency_ms],
        "results_s": [rep.nominal("drain", rep.drain_s) for rep in reps],
        "raw": {
            "setup_s": orderstats.median([rep.setup_s for rep in reps]),
            "jobs_per_s": orderstats.median([CLOSED_JOBS / rep.closed_s for rep in reps]),
            "latency_ms": orderstats.median([ms for rep in reps for ms in rep.open.latency_ms]),
            "results_s": orderstats.median([rep.drain_s for rep in reps]),
        },
        "peak_rss_mb": [rep.peak_rss_mb for rep in reps],
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "problems": problems,
        "host": diagnostics,
    }


def _limit_met(reps: list[Repetition]) -> bool:
    """Whether every probe loop kept its p99 under the limit without a growing lag."""
    for rep in reps:
        latency, late = rep.probe.latency_ms, rep.probe.late_ms
        quarter = max(1, len(late) // 4)
        growth = orderstats.median(late[-quarter:]) - orderstats.median(late[:quarter])
        if orderstats.percentile(latency, 99) > SUBMIT_P99_LIMIT_MS or growth > LAG_GROWTH_LIMIT_MS:
            return False
    return True


def _layers(rep: Repetition) -> dict[str, float]:
    """Per-layer values of one traced repetition."""
    recorder = rep.recorder
    submit_s = recorder.total("service.submit")
    client_submit_s = (
        sum(rep.closed_latency_ms) + sum(rep.open.latency_ms) + sum(rep.probe.latency_ms)
    ) / 1000.0
    return {
        "carbon.generate_s": recorder.total("carbon.generate"),
        "policies.decide_s": recorder.total("policies.decide"),
        "policies.decide_calls": recorder.calls("policies.decide"),
        "session.submit_s": recorder.total("session.submit"),
        "session.drain_s": recorder.total("session.drain"),
        "results.digest_s": recorder.total("results.digest"),
        "service.submit_s": submit_s,
        "service.http_self_s": client_submit_s - submit_s,
        "trace.accounted_ratio": submit_s / client_submit_s,
        "trace.spans": len(recorder),
    }


def trace(
    seed: int, seconds: float, root: Path, work_dir: str, cpus: tuple[int, int]
) -> dict:
    """Per-layer values: plain and traced service lifetimes, alternating."""
    started = time.perf_counter()
    stream = make_stream(seed)
    generate_s = time.perf_counter() - started
    config = make_config(stream)
    plain, traced, diagnostics = _timed_phase(
        stream, config, seed, root, work_dir, seconds, True, cpus
    )
    problems, reference = check(plain + traced, stream, config)
    per_rep = [_layers(rep) for rep in traced]
    layers = {
        name: orderstats.median_low([values[name] for values in per_rep])
        for name in per_rep[0]
    }
    open_latency = [sample for rep in plain for sample in rep.open.latency_ms]
    open_late = [sample for rep in plain for sample in rep.open.late_ms]
    layers.update(diagnostics)
    layers.update(
        {
            "workload.generate_s": generate_s,
            "engine.jobs": len(reference.records),
            "engine.usage_intervals": sum(len(record.usage) for record in reference.records),
            "engine.evictions": reference.total_evictions,
            "service.read_p50_ms": orderstats.median(
                [sample for rep in plain for sample in rep.read_ms]
            ),
            "service.rejected": sum(rep.rejected for rep in plain + traced),
            "loadgen.submit_p99_ms": orderstats.percentile(open_latency, 99),
            "loadgen.late_p99_ms": orderstats.percentile(open_late, 99),
            "loadgen.max_inflight": max(
                max(rep.open.max_inflight, rep.probe.max_inflight) for rep in plain
            ),
            "loadgen.limit_met": int(_limit_met(plain)),
            "trace.overhead_ratio": orderstats.median_low([rep.closed_s for rep in traced])
            / orderstats.median_low([rep.closed_s for rep in plain]),
        }
    )
    layers.update({name: 0 for name in UNTOUCHED_LAYERS})
    return {
        "layers": layers,
        "attempted": sum(rep.attempted for rep in plain + traced),
        "failed": sum(rep.failed for rep in plain + traced),
        "problems": problems,
    }
