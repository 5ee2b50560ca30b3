"""Host speed, CPU placement and child-process plumbing for every workload.

A shared VM drifts.  Measured on a 2-vCPU VM, a fixed Python workload
took anywhere from 38 ms to 133 ms within a few minutes, each vCPU on
its own schedule, and a sweep's raw throughput swung by 30-50% between
runs with it.  So every end-to-end time is taken together with a
*reference*: a fixed workload on fixed data, timed just before and just
after the measured interval on the CPU that does the work.  The time is
then reported at the nominal host speed, where the reference takes
``NOMINAL_REFERENCE_S``:

    nominal = measured * NOMINAL_REFERENCE_S / reference

A program change moves the measured time and leaves the reference
alone, so it shows in full; a slow host moves both and cancels out.
The raw reference timings are reported as the per-layer ``host.*``
diagnostics, so a slow host still shows as a slow host.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import resource
import select
import subprocess
import time
from pathlib import Path

import numpy as np

#: Reference seconds on the nominal host the end-to-end times are reported at.
NOMINAL_REFERENCE_S = 0.05
#: Rows the reference workload sorts, formats, hashes, groups and pickles.
REFERENCE_ROWS = 10_000
#: Length of the float array the reference workload scans, sorts and reduces.
REFERENCE_ARRAY = 200_000
#: Reference timings taken on each side of a timed phase for ``host.*``.
CALIBRATION_SAMPLES = 3


def _reference_work() -> None:
    """The operations the simulator spends its time in, on fixed data.

    Tuple building and sorting (traces, event order), ``repr``-float
    formatting into SHA-256 (result digests), grouping into dicts
    (accounting), a pickle round trip (the result cache), and prefix
    sums, sorts, searches and segment minima over a float array (batched
    policy scoring and accounting).
    """
    rows = [(i, i * 7 % 1013, i * 0.5, f"q{i % 3}") for i in range(REFERENCE_ROWS)]
    rows.sort(key=lambda row: (row[1], row[0]))
    digest = hashlib.sha256()
    for row in rows:
        digest.update(f"{row[0]}|{row[1]}|{row[2]!r}|{row[3]}".encode())
    groups: dict[str, list[float]] = {}
    for row in rows:
        groups.setdefault(row[3], []).append(row[2])
    pickle.loads(pickle.dumps([rows, groups], protocol=pickle.HIGHEST_PROTOCOL))
    values = np.arange(REFERENCE_ARRAY, dtype=np.float64) * 0.37
    for _ in range(2):
        totals = np.cumsum(values)
        ordered = np.sort(values[::-1] % 1013.0)
        np.searchsorted(ordered, totals[::7])
        np.minimum.reduceat(values, np.arange(0, values.size, 64))


def reference_s(cpu: int | None = None) -> float:
    """Seconds of the reference workload now (best of two), on ``cpu``.

    With ``cpu`` the calling process moves to that CPU for the
    measurement and back afterwards.
    """
    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        timings = []
        for _ in range(2):
            started = time.perf_counter()
            _reference_work()
            timings.append(time.perf_counter() - started)
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, allowed)
    return min(timings)


def nominal(measured: float, reference: float) -> float:
    """A measured time (any unit) at the nominal host speed."""
    return measured * NOMINAL_REFERENCE_S / reference


def pin_benchmark() -> tuple[int, int]:
    """Pin this process to the benchmark's CPU; return ``(bench, service)`` CPUs.

    The benchmark process and every sweep child run on the first allowed
    CPU; the service gets the last, so the load generator and the
    service are two processes on two cores.  One allowed CPU serves both.
    The placement is read before the pin narrows this process's CPUs,
    so call this once and pass its result on.
    """
    allowed = sorted(os.sched_getaffinity(0))
    bench, service = allowed[0], allowed[-1]
    os.sched_setaffinity(0, {bench})
    return bench, service


def diagnostics(before: list[float], after: list[float], cpu_s: float, wall_s: float) -> dict:
    """The per-layer ``host.*`` values from raw reference timings (seconds)."""
    from perfbench import orderstats

    return {
        "host.calib_ms": orderstats.median(before + after) * 1000.0,
        "host.calib_drift_ratio": orderstats.median(after) / orderstats.median(before),
        "host.cpu_share": cpu_s / wall_s,
    }


def calibrate() -> list[float]:
    """``CALIBRATION_SAMPLES`` reference timings, in seconds."""
    return [reference_s() for _ in range(CALIBRATION_SAMPLES)]


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def child_env(root: Path) -> dict[str, str]:
    """The environment of every process the benchmark starts.

    Every ``REPRO_*`` variable is dropped so the caller's shell (a cache
    directory, a worker count, a trace file) cannot change what is
    measured, and ``src`` is put on the import path so the checkout's own
    sources run.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


def start(
    command: list[str], root: Path, marker: str, timeout: float, cpu: int | None = None
) -> tuple[subprocess.Popen, float, str]:
    """Start a child and wait for its first stdout line containing ``marker``.

    Returns the process (still running, stdout a text pipe), the seconds
    from spawn to that line, and the line.  The child is killed if it
    exits or stays silent for ``timeout`` seconds first.  With ``cpu``
    the child runs on that CPU only; otherwise it inherits this
    process's CPUs.
    """
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True,
        preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        while True:
            remaining = started + timeout - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError(f"{command[2]} printed no {marker!r} line in {timeout}s")
            ready, _, _ = select.select([process.stdout], [], [], remaining)
            if not ready:
                continue
            line = process.stdout.readline()
            if not line:
                raise RuntimeError(f"{command[2]} exited with {process.wait()} before {marker!r}")
            if marker in line:
                return process, time.perf_counter() - started, line
    except BaseException:
        stop(process)
        raise


def stop(process: subprocess.Popen) -> None:
    """Kill a child that is still running, reap it and close its pipe."""
    if process.poll() is None:
        process.kill()
    process.wait()
    if process.stdout is not None:
        process.stdout.close()
