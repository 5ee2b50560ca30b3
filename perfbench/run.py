#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-linear --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``,
measured with tracing off; ``--trace 1`` prints every per-layer metric
from a separate traced run.  The last stdout line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
a human-readable summary goes to stderr.  Workloads and metrics are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import catalogue, host, orderstats  # noqa: E402  (needs ROOT on the path)

#: Fresh interpreters timed from spawn to ready per measured sweep run.
SETUP_CHILDREN = 3
#: Everything a run does must end within this many seconds.
RUN_LIMIT_S = 170.0
SWEEPS = ("sweep-linear", "sweep-contended")


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _sweep_command(mode: str, workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, "-m", "perfbench.sweeps", mode, workload, str(seed), *extra]


def _remaining(deadline: float) -> float:
    return max(1.0, deadline - time.perf_counter())


def _last_json_line(output: str) -> dict:
    return json.loads(output.strip().splitlines()[-1])


def run_sweep(workload: str, seed: int, seconds: float, trace: bool, work_dir: str,
              deadline: float) -> dict:
    """Samples of a sweep workload, measured in child processes."""
    extra = (str(seconds), work_dir)
    setup, raw_setup = [], []
    if not trace:
        references = [host.reference_s()]
        for _ in range(SETUP_CHILDREN):
            process, seconds_to_ready, _ = host.start(
                _sweep_command("setup", workload, seed), ROOT, "ready", _remaining(deadline)
            )
            host.stop(process)
            references.append(host.reference_s())
            raw_setup.append(seconds_to_ready)
        setup = [
            host.nominal(measured, (before + after) / 2)
            for measured, before, after in zip(raw_setup, references, references[1:])
        ]
    done = subprocess.run(
        _sweep_command("trace" if trace else "measure", workload, seed, *extra), cwd=ROOT,
        env=host.child_env(ROOT), stdout=subprocess.PIPE, text=True,
        timeout=_remaining(deadline), check=True,
    )
    samples = _last_json_line(done.stdout)
    if not trace:
        samples["setup_s"] = setup
        samples["raw"]["setup_s"] = orderstats.median(raw_setup)
    return samples


def end_to_end(samples: dict) -> dict[str, float]:
    """The end-to-end metrics from a measured run's raw samples."""
    return {
        "setup_s": orderstats.median(samples["setup_s"]),
        "jobs_per_s": orderstats.median(samples["jobs_per_s"]),
        "latency_p50_ms": orderstats.median(samples["latency_ms"]),
        "results_s": orderstats.median(samples["results_s"]),
        "peak_rss_mb": orderstats.median(samples["peak_rss_mb"]),
    }


def _summarise(samples: dict) -> None:
    """Median, tail, sample count and raw median of every sample set, to stderr."""
    for name in ("setup_s", "jobs_per_s", "latency_ms", "results_s", "peak_rss_mb"):
        values = samples[name]
        tail = orderstats.tail(values)
        tail_text = f"p{tail[0]:.1f} {tail[1]:.4g}" if tail else "no tail (<11 samples)"
        raw = samples["raw"].get(name)
        raw_text = f", raw median {raw:.4g}" if raw is not None else ""
        _log(f"  {name}: median {orderstats.median(values):.4g}, {tail_text}, n={len(values)}{raw_text}")
    _log(f"  host: {json.dumps(samples['host'])}")


def result_line(mode_metrics: dict[str, float], outcome: dict, trace: bool) -> dict:
    """The result line, checked against the catalogue."""
    expected = catalogue.PER_LAYER if trace else catalogue.END_TO_END
    names = {metric.name for metric in expected}
    if set(mode_metrics) != names:
        missing, extra = names - set(mode_metrics), set(mode_metrics) - names
        raise RuntimeError(f"metric set mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    return {
        "correct": not outcome["problems"] and outcome["failed"] == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            metric.name: {"value": mode_metrics[metric.name], "unit": metric.unit}
            for metric in expected
        },
    }


def _terminate(signum, frame) -> None:
    # Unwind through the ``finally`` blocks that stop every child.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _log(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    if args.workload not in {workload.name for workload in catalogue.WORKLOADS}:
        parser.error(f"unknown workload {args.workload!r}")
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    # Sweep children inherit the benchmark's CPU; the service gets its own.
    cpus = host.pin_benchmark()
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import service_load
    deadline = time.perf_counter() + RUN_LIMIT_S
    build_dir = ROOT / ".bench_build" / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=build_dir)
    try:
        if args.workload in SWEEPS:
            outcome = run_sweep(
                args.workload, args.seed, args.seconds, bool(args.trace), work_dir, deadline
            )
        elif args.trace:
            outcome = service_load.trace(args.seed, args.seconds, ROOT, work_dir, cpus)
        else:
            outcome = service_load.measure(args.seed, args.seconds, ROOT, work_dir, cpus)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    _log(f"{args.workload} seed {args.seed} ({'traced' if args.trace else 'measured'}):")
    if args.trace:
        metrics = outcome["layers"]
    else:
        _summarise(outcome)
        metrics = end_to_end(outcome)
    for problem in outcome["problems"]:
        _log(f"  CHECK FAILED: {problem}")
    print(json.dumps(result_line(metrics, outcome, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
