"""``BENCHMARK.json`` and the benchmark's own catalogue agree and stay in limits."""

import json
from pathlib import Path

import pytest

from perfbench import catalogue

ROOT = Path(__file__).resolve().parents[2]
ALL_METRICS = catalogue.END_TO_END + catalogue.PER_LAYER


def test_benchmark_json_mirrors_the_catalogue():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == catalogue.benchmark_json()


@pytest.mark.parametrize(
    "name",
    [w.name for w in catalogue.WORKLOADS] + [m.name for m in ALL_METRICS],
)
def test_names_use_the_metric_alphabet(name):
    assert catalogue.NAME_PATTERN.fullmatch(name), name


@pytest.mark.parametrize(
    "name", ["", "-leading-dash", "has space", "slash/name", "x" * 65, "semi;colon"]
)
def test_name_pattern_rejects_bad_names(name):
    assert not catalogue.NAME_PATTERN.fullmatch(name)


def test_names_are_unique():
    names = [w.name for w in catalogue.WORKLOADS] + [m.name for m in ALL_METRICS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
def test_units_and_directions(metric):
    assert catalogue.UNIT_PATTERN.fullmatch(metric.unit)
    assert metric.better in ("higher", "lower")


def test_end_to_end_bounds():
    bounds = {metric.name: metric.bound for metric in catalogue.END_TO_END}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in catalogue.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")


def test_per_layer_metrics_have_no_bound():
    assert all(metric.bound is None for metric in catalogue.PER_LAYER)


def test_sizes_within_the_benchmark_contract():
    assert 2 <= len(catalogue.WORKLOADS) <= 8
    assert 1 <= len(catalogue.END_TO_END) <= 16
    assert 1 <= len(catalogue.PER_LAYER) <= 128
    assert 1 <= catalogue.RUN_SECONDS <= 60
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in catalogue.WORKLOADS)
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
