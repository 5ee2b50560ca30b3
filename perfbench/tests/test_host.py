import os

import pytest

from perfbench import host


def test_nominal_scales_by_the_reference():
    assert host.nominal(2.0, 2 * host.NOMINAL_REFERENCE_S) == pytest.approx(1.0)
    assert host.nominal(2.0, host.NOMINAL_REFERENCE_S) == pytest.approx(2.0)


def test_reference_restores_the_cpu_placement():
    allowed = os.sched_getaffinity(0)
    assert host.reference_s(max(allowed)) > 0
    assert os.sched_getaffinity(0) == allowed


def test_pin_benchmark_places_the_service_on_another_cpu():
    allowed = os.sched_getaffinity(0)
    try:
        bench, service = host.pin_benchmark()
        assert os.sched_getaffinity(0) == {bench}
    finally:
        os.sched_setaffinity(0, allowed)
    assert {bench, service} <= allowed
    assert (bench != service) == (len(allowed) > 1)


def test_diagnostics_are_raw_reference_timings():
    values = host.diagnostics([0.04, 0.05, 0.06], [0.10, 0.10, 0.10], cpu_s=1.0, wall_s=2.0)
    assert values == {
        "host.calib_ms": pytest.approx(80.0),
        "host.calib_drift_ratio": pytest.approx(2.0),
        "host.cpu_share": pytest.approx(0.5),
    }


def test_child_env_drops_repro_variables(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE", "/tmp/trace.jsonl")
    monkeypatch.setenv("REPRO_JOBS", "4")
    env = host.child_env(tmp_path)
    assert not any(key.startswith("REPRO_") for key in env)
    assert env["PYTHONPATH"].split(os.pathsep) == [str(tmp_path / "src"), str(tmp_path)]
