"""The two sweep workloads, run in a child process of ``perfbench/run.py``.

Each sweep runs in one process through the default serial backend
(``run_many(..., jobs=1)``).  After a warm-up repetition it runs many
short, independent repetitions and reports every sample; the parent
takes medians.  One repetition is

* a cold pass: a serial ``run_many`` of the whole grid into a fresh
  disk-backed ``ResultCache`` (simulation, result pickling and cache
  writes), then the digest of every result, and
* a warm pass: the same grid through a new ``ResultCache`` over the same
  directory (every hit a disk read and unpickle), then every digest.

Results are dropped and ``gc.collect()`` runs between repetitions.

Modes (``python3 -m perfbench.sweeps MODE ...`` from the repository root,
with ``src`` on ``PYTHONPATH``)::

    setup WORKLOAD SEED                     build the inputs, print "ready", exit
    measure WORKLOAD SEED SECONDS WORKDIR   timed repetitions, raw samples as JSON
    trace WORKLOAD SEED SECONDS WORKDIR     alternating plain / traced repetitions
    write-pins                              regenerate perfbench/pins.json

Inputs depend on ``SEED % VARIANTS`` only, so ``pins.json`` holds the
expected result digest of every input a seed can produce.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.carbon.regions import region_trace
from repro.cluster.spot import CheckpointConfig, HourlyHazard
from repro.experiments.base import SCALES
from repro.simulator.runner import ResultCache, RunStats, SimulationSpec, run_many
from repro.simulator.runner import cache as cache_module
from repro.simulator.runner.cache import code_version_salt
from repro.units import MINUTES_PER_DAY
from repro.workload.sampling import year_long_trace
from repro.workload.synthetic import alibaba_like, mustang_like

from perfbench import host, orderstats, spans

#: Distinct inputs; a seed selects ``seed % VARIANTS``.
VARIANTS = 32
PINS_PATH = Path(__file__).with_name("pins.json")

#: Both sweeps sample their traces the way the experiments do at this
#: scale: ``raw_jobs`` generated, ``year_jobs`` over ``year_days``.  Its
#: cost shares are close to ``medium``'s (see README.md), and a
#: ``medium`` repetition takes about five times longer, too long for
#: enough repetitions in one run.
SCALE = SCALES["small"]

# sweep-linear: a Fig. 15/16 grid on the contention-free fast path.  The
# three policies are the stateless ones with a batched ``decide_many``;
# lowest-slot has none, so it would take the event loop and scalar
# ``decide`` this workload is meant to bypass.
LINEAR_REGIONS = ("SA-AU", "CA-US", "NL")
LINEAR_POLICIES = ("nowait", "carbon-time", "lowest-window")

# sweep-contended: a Fig. 11/12/18 grid through the heap event loop.
CONTENDED_REGION = "SA-AU"
CONTENDED_POLICIES = ("res-first:carbon-time", "spot-res:carbon-time")
#: Reserved pool sizes as shares of the trace's mean demand.
RESERVED_SHARES = (0.5, 1.0)
EVICTION_RATE = 0.10
CHECKPOINT = (60, 2)  # (interval, overhead) minutes

#: Fewest timed repetitions, however short the requested duration.
MIN_REPETITIONS = 5
MIN_TRACED_PAIRS = 2

#: Per-layer metrics a sweep never touches; a traced sweep reports 0.
UNTOUCHED_LAYERS = (
    "service.submit_s",
    "service.http_self_s",
    "service.read_p50_ms",
    "service.rejected",
    "loadgen.submit_p99_ms",
    "loadgen.late_p99_ms",
    "loadgen.max_inflight",
    "loadgen.limit_met",
)


@dataclass
class Grid:
    """A workload's specs and the time taken to generate its inputs."""

    specs: list[SimulationSpec]
    jobs: int
    generate_s: dict[str, float]


def _year_trace(generator, variant: int):
    """A year-style trace at ``SCALE``, as ``repro.experiments.setup`` samples it."""
    return year_long_trace(
        generator(num_jobs=SCALE.raw_jobs, seed=variant),
        num_jobs=SCALE.year_jobs,
        horizon=SCALE.year_days * MINUTES_PER_DAY,
        seed=variant,
    )


def _linear_grid(variant: int) -> Grid:
    started = time.perf_counter()
    workload = _year_trace(alibaba_like, variant)
    generated = time.perf_counter()
    carbons = [region_trace(region, seed=variant) for region in LINEAR_REGIONS]
    done = time.perf_counter()
    specs = [
        SimulationSpec.build(workload, carbon, policy, reserved_cpus=0)
        for carbon in carbons
        for policy in LINEAR_POLICIES
    ]
    return Grid(
        specs,
        jobs=len(specs) * len(workload),
        generate_s={
            "workload.generate_s": generated - started,
            "carbon.generate_s": done - generated,
        },
    )


def _contended_grid(variant: int) -> Grid:
    started = time.perf_counter()
    workload = _year_trace(mustang_like, variant)
    generated = time.perf_counter()
    carbon = region_trace(CONTENDED_REGION, seed=variant)
    done = time.perf_counter()
    mean_demand = workload.mean_demand
    specs = [
        SimulationSpec.build(
            workload,
            carbon,
            policy,
            reserved_cpus=max(1, round(share * mean_demand)),
            eviction_model=HourlyHazard(EVICTION_RATE),
            checkpointing=CheckpointConfig(*CHECKPOINT),
            spot_seed=variant,
        )
        for policy in CONTENDED_POLICIES
        for share in RESERVED_SHARES
    ]
    return Grid(
        specs,
        jobs=len(specs) * len(workload),
        generate_s={
            "workload.generate_s": generated - started,
            "carbon.generate_s": done - generated,
        },
    )


GRIDS = {"sweep-linear": _linear_grid, "sweep-contended": _contended_grid}


def build_grid(workload: str, seed: int) -> Grid:
    return GRIDS[workload](seed % VARIANTS)


def grid_digest(digests: list[str | None]) -> str:
    """One digest over a grid's per-spec result digests, in spec order."""
    return hashlib.sha256("\n".join(d or "-" for d in digests).encode()).hexdigest()


def result_counts(results) -> dict[str, int]:
    """Exact simulated counts over a grid's results.

    Digests and the record counts are the same on every engine path.
    ``batched_decisions`` is not: it drops to 0 for a spec whose
    decisions were not precomputed through ``decide_many`` (as when the
    obs tracer is on), and ``batched_specs`` counts the specs that were.
    """
    present = [result for result in results if result is not None]
    records = [record for result in present for record in result.records]
    batched = [int(result.metrics["counters"]["engine.batched_decisions"]) for result in present]
    return {
        "jobs": len(records),
        "usage_intervals": sum(len(record.usage) for record in records),
        "evictions": sum(record.evictions for record in records),
        "batched_decisions": sum(batched),
        "batched_specs": sum(1 for count in batched if count > 0),
    }


@dataclass
class Repetition:
    """Samples and outcomes of one cold + warm repetition."""

    cold_s: float
    warm_s: float
    fetch_ms: list[float]
    cold_digest: str
    warm_digest: str
    counts: dict[str, int]
    attempted: int
    failed: int
    executed: int
    deduplicated: int
    retries: int
    warm_hits: int
    #: Host reference seconds around each pass (see host.py).
    cold_reference: float = 0.0
    warm_reference: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)


def _digests(results) -> list[str | None]:
    return [result.digest() if result is not None else None for result in results]


def repetition(specs_blob: bytes, work_dir: str, referenced: bool = False) -> Repetition:
    """One cold and one warm pass over a fresh copy of the grid's specs.

    The specs are unpickled anew so every repetition pays spec digests
    and input thawing the way a fresh sweep does.  ``referenced`` times
    the host reference before, between and after the passes; each pass
    is paired with the mean of the two timings around it.
    """
    specs = pickle.loads(specs_blob)
    cache_dir = tempfile.mkdtemp(dir=work_dir)
    references = [0.0, 0.0, 0.0]
    try:
        if referenced:
            references[0] = host.reference_s()
        cold_stats = RunStats()
        started = time.perf_counter()
        cold = run_many(
            specs, jobs=1, cache=ResultCache(cache_dir), stats=cold_stats, on_error="partial"
        )
        cold_digests = _digests(cold)
        cold_s = time.perf_counter() - started
        counts = result_counts(cold)
        del cold

        if referenced:
            references[1] = host.reference_s()
        marks: list[float] = []
        warm_stats = RunStats()
        started = time.perf_counter()
        warm = run_many(
            specs,
            jobs=1,
            cache=ResultCache(cache_dir),
            stats=warm_stats,
            on_error="partial",
            on_result=lambda index, spec, result: marks.append(time.perf_counter()),
        )
        warm_digests = _digests(warm)
        warm_s = time.perf_counter() - started
        del warm
        if referenced:
            references[2] = host.reference_s()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    fetch_ms = [
        (mark - previous) * 1000.0
        for previous, mark in zip([started, *marks[:-1]], marks)
    ]
    return Repetition(
        cold_s=cold_s,
        warm_s=warm_s,
        fetch_ms=fetch_ms,
        cold_digest=grid_digest(cold_digests),
        warm_digest=grid_digest(warm_digests),
        counts=counts,
        attempted=2 * len(specs),
        failed=cold_stats.failed + warm_stats.failed,
        executed=cold_stats.executed,
        deduplicated=cold_stats.deduplicated,
        retries=cold_stats.retries,
        warm_hits=warm_stats.cache_hits,
        cold_reference=(references[0] + references[1]) / 2,
        warm_reference=(references[1] + references[2]) / 2,
    )


def check(workload: str, seed: int, spec_count: int, reps: list[Repetition]) -> list[str]:
    """Output checks over every repetition; an empty list means correct."""
    problems = []
    pinned = json.loads(PINS_PATH.read_text())[workload][str(seed % VARIANTS)]
    for number, rep in enumerate(reps):
        if rep.failed:
            problems.append(f"repetition {number}: {rep.failed} failed operations")
        if rep.cold_digest != rep.warm_digest:
            problems.append(f"repetition {number}: cold and warm digests differ")
        if rep.cold_digest != pinned["digest"]:
            problems.append(f"repetition {number}: digest differs from pins.json")
        if rep.counts != pinned["counts"]:
            problems.append(f"repetition {number}: counts {rep.counts} != {pinned['counts']}")
        if rep.counts["batched_specs"] != spec_count:
            problems.append(
                f"repetition {number}: {rep.counts['batched_specs']}/{spec_count} specs "
                "batched their decisions"
            )
        if rep.warm_hits != spec_count:
            problems.append(f"repetition {number}: warm pass hit {rep.warm_hits}/{spec_count}")
        if rep.executed != spec_count:
            problems.append(f"repetition {number}: cold pass executed {rep.executed}/{spec_count}")
    return problems


def _prepare(workload: str, seed: int) -> tuple[Grid, float]:
    grid = build_grid(workload, seed)
    started = time.perf_counter()
    code_version_salt()
    return grid, time.perf_counter() - started


def _emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def measure(workload: str, seed: int, seconds: float, work_dir: str) -> dict:
    """Warm-up, then timed repetitions for ``seconds``; raw samples out."""
    grid, _ = _prepare(workload, seed)
    blob = pickle.dumps(grid.specs)
    calibration = host.calibrate()
    reps = [repetition(blob, work_dir)]  # warm-up: checked, not timed
    gc.collect()
    timed: list[Repetition] = []
    wall_started, cpu_started = time.perf_counter(), time.process_time()
    while len(timed) < MIN_REPETITIONS or time.perf_counter() - wall_started < seconds:
        timed.append(repetition(blob, work_dir, referenced=True))
        gc.collect()
    wall = time.perf_counter() - wall_started
    cpu = time.process_time() - cpu_started
    peak_rss = host.peak_rss_mb()
    after = host.calibrate()
    reps.extend(timed)
    problems = check(workload, seed, len(grid.specs), reps)
    return {
        "jobs_per_s": [grid.jobs / host.nominal(rep.cold_s, rep.cold_reference) for rep in timed],
        "results_s": [host.nominal(rep.warm_s, rep.warm_reference) for rep in timed],
        "latency_ms": [
            host.nominal(ms, rep.warm_reference) for rep in timed for ms in rep.fetch_ms
        ],
        "raw": {
            "jobs_per_s": orderstats.median([grid.jobs / rep.cold_s for rep in timed]),
            "results_s": orderstats.median([rep.warm_s for rep in timed]),
            "latency_ms": orderstats.median([ms for rep in timed for ms in rep.fetch_ms]),
        },
        "peak_rss_mb": [peak_rss],
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "problems": problems,
        "host": host.diagnostics(calibration, after, cpu, wall),
    }


def _layers(recorder: spans.SpanRecorder, rep: Repetition) -> dict[str, float]:
    """Per-layer values of one traced repetition."""
    counters = recorder.counters
    return {
        "runner.spec_digest_s": recorder.total("runner.spec_digest"),
        "runner.thaw_s": recorder.total("runner.thaw"),
        "runner.cache_put_s": recorder.total("runner.cache_put"),
        "runner.cache_put_bytes": counters["runner.cache_put_bytes"],
        "runner.cache_get_s": recorder.total("runner.cache_get"),
        "runner.cache_hit_ratio": rep.warm_hits / (rep.attempted // 2),
        "runner.executed": rep.executed,
        "runner.deduplicated": rep.deduplicated,
        "runner.failed": rep.failed,
        "runner.retries": rep.retries,
        "policies.decide_many_s": recorder.total("policies.decide_many"),
        "policies.batched_decisions": counters["policies.batched_decisions"],
        "policies.decide_s": recorder.total("policies.decide"),
        "policies.decide_calls": recorder.calls("policies.decide"),
        "engine.run_s": recorder.total("engine.run"),
        "engine.run_self_s": recorder.self_time("engine.run", spans.ENGINE_CHILDREN),
        "engine.jobs": rep.counts["jobs"],
        "engine.usage_intervals": rep.counts["usage_intervals"],
        "engine.evictions": rep.counts["evictions"],
        "session.submit_s": recorder.total("session.submit"),
        "session.drain_s": recorder.total("session.drain"),
        "results.digest_s": recorder.total("results.digest"),
        "results.pickle_s": recorder.total("results.pickle"),
        "results.pickle_bytes": counters["results.pickle_bytes"],
        "results.unpickle_s": recorder.total("results.unpickle"),
        "trace.accounted_ratio": recorder.top_level() / (rep.cold_s + rep.warm_s),
        "trace.spans": len(recorder),
    }


def trace(workload: str, seed: int, seconds: float, work_dir: str) -> dict:
    """Alternate plain and traced repetitions; per-layer values out.

    The plain repetitions give the measured wall time the tracing
    overhead is taken against, and the digests and exact counts the
    traced ones must reproduce.
    """
    grid, salt_s = _prepare(workload, seed)
    blob = pickle.dumps(grid.specs)
    calibration = host.calibrate()
    reps = [repetition(blob, work_dir)]
    gc.collect()
    plain: list[Repetition] = []
    traced: list[Repetition] = []
    wall_started, cpu_started = time.perf_counter(), time.process_time()
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() - wall_started < seconds:
        plain.append(repetition(blob, work_dir))
        gc.collect()
        recorder = spans.SpanRecorder()
        with spans.installed(recorder, spans.sweep_points()), spans.timed_pickle(
            recorder, cache_module
        ):
            rep = repetition(blob, work_dir)
        rep.layers = _layers(recorder, rep)
        traced.append(rep)
        del recorder
        gc.collect()
    wall = time.perf_counter() - wall_started
    cpu = time.process_time() - cpu_started
    after = host.calibrate()
    reps.extend(plain)
    reps.extend(traced)
    problems = check(workload, seed, len(grid.specs), reps)
    reference = plain[0]
    for rep in traced:
        if (rep.cold_digest, rep.warm_digest, rep.counts) != (
            reference.cold_digest, reference.warm_digest, reference.counts
        ):
            problems.append("traced repetition differs from the plain one")

    layers = {
        name: orderstats.median_low([rep.layers[name] for rep in traced])
        for name in traced[0].layers
    }
    layers.update(grid.generate_s)
    layers["runner.salt_s"] = salt_s
    layers["trace.overhead_ratio"] = orderstats.median_low(
        [rep.cold_s + rep.warm_s for rep in traced]
    ) / orderstats.median_low([rep.cold_s + rep.warm_s for rep in plain])
    layers.update(host.diagnostics(calibration, after, cpu, wall))
    layers.update({name: 0 for name in UNTOUCHED_LAYERS})
    return {
        "layers": layers,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "problems": problems,
    }


def write_pins() -> None:
    """Recompute the expected digest and counts of every input variant."""
    pins: dict[str, dict[str, dict]] = {}
    for workload in GRIDS:
        pins[workload] = {}
        for variant in range(VARIANTS):
            specs = build_grid(workload, variant).specs
            results = run_many(specs, jobs=1, use_cache=False)
            pins[workload][str(variant)] = {
                "digest": grid_digest(_digests(results)),
                "counts": result_counts(results),
            }
            print(f"{workload} {variant}: {pins[workload][str(variant)]}", file=sys.stderr)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "write-pins":
        write_pins()
        return 0
    workload, seed = rest[0], int(rest[1])
    if mode == "setup":
        _prepare(workload, seed)
        print("ready", flush=True)
        return 0
    seconds, work_dir = float(rest[2]), rest[3]
    if mode == "measure":
        _emit(measure(workload, seed, seconds, work_dir))
    elif mode == "trace":
        _emit(trace(workload, seed, seconds, work_dir))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
