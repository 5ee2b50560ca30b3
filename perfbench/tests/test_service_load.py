import os
from pathlib import Path

import pytest

from repro.workload.trace import WorkloadTrace

from perfbench import host, service_load

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_service_runs_on_another_cpu_than_the_load_generator():
    full = service_load.make_stream(3)
    stream = WorkloadTrace(full.jobs[:40], name=full.name, horizon=full.horizon)
    config = service_load.make_config(stream)
    allowed = os.sched_getaffinity(0)
    try:
        cpus = host.pin_benchmark()
        rep = service_load.repetition(stream, config, 3, ROOT, None, cpus)
    finally:
        os.sched_setaffinity(0, allowed)
    assert rep.problems == []
    assert rep.generator_cpus == {cpus[0]}
    assert rep.service_cpus == {cpus[1]}
    assert rep.generator_cpus != rep.service_cpus
    assert rep.drained_jobs == len(stream)
