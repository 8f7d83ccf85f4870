"""Tests for the benchmark's own code: spans, percentiles, answers, wrappers."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from perfbench import run as runner
from perfbench.answers import answers_match, canonical_answer
from perfbench.stats import latency_summary, samples_beyond, tail_fraction
from perfbench.tracing import (
    QUERY_LAYERS,
    SETUP_LAYERS,
    WORKER_ENTRY,
    WORKER_MODULE,
    LayerProbe,
    Tracer,
)

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("adaptivity")          # t=0
    clock.now = 1.0
    tracer.enter("reoptimizer")
    clock.now = 4.0
    tracer.exit("reoptimizer")          # 3 s inside the poll
    clock.now = 4.5
    tracer.enter("reoptimizer")
    clock.now = 5.5
    tracer.exit("reoptimizer")          # 1 s more
    clock.now = 6.0
    tracer.exit("adaptivity")           # 6 s span, 4 s of it nested
    assert tracer.self_seconds["reoptimizer"] == pytest.approx(4.0)
    assert tracer.self_seconds["adaptivity"] == pytest.approx(2.0)
    assert tracer.calls == {"adaptivity": 1, "reoptimizer": 2}


def test_self_time_of_grandchildren_is_not_subtracted_twice():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("serving")
    tracer.enter("adaptivity")
    clock.now = 1.0
    tracer.enter("reoptimizer")
    clock.now = 3.0
    tracer.exit("reoptimizer")
    tracer.exit("adaptivity")
    clock.now = 10.0
    tracer.exit("serving")
    assert tracer.self_seconds == {"reoptimizer": 2.0, "adaptivity": 1.0, "serving": 7.0}


def test_mismatched_span_close_is_an_error():
    tracer = Tracer(FakeClock())
    tracer.enter("engine")
    with pytest.raises(RuntimeError):
        tracer.exit("monitor")


def test_export_and_merge_add_worker_totals():
    clock = FakeClock()
    worker = Tracer(clock)
    worker.enter("engine")
    clock.now = 2.0
    worker.exit("engine")
    worker.count("engine.tuples", 64)
    parent = Tracer(clock)
    parent.merge(worker.export())
    parent.merge(worker.export())
    assert parent.self_seconds["engine"] == pytest.approx(4.0)
    assert parent.calls["engine"] == 2
    assert parent.counts["engine.tuples"] == 128


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 0.9) == 10
    assert tail_fraction(99) is None
    assert tail_fraction(100) == 0.9
    assert tail_fraction(999) == 0.9
    assert tail_fraction(1000) == 0.99
    assert set(latency_summary([1.0] * 99)) == {"p50"}
    summary = latency_summary([float(value) for value in range(1, 101)])
    assert summary == {"p50": 50.0, "p90": 90.0}


NAMES = ("o_orderkey", "revenue")
ROWS = [(1, 10.5), (2, 20.25), (3, 0.1 + 0.2)]


def test_answer_check_accepts_reordered_rows_columns_and_last_bit_floats():
    expected = canonical_answer(ROWS, NAMES)
    reordered = [(0.3, 3), (20.25, 2), (10.5, 1)]
    assert answers_match(expected, canonical_answer(reordered, ("revenue", "o_orderkey")))


def test_answer_check_catches_a_dropped_row():
    expected = canonical_answer(ROWS, NAMES)
    assert not answers_match(expected, canonical_answer(ROWS[:-1], NAMES))


def test_answer_check_catches_an_altered_row():
    expected = canonical_answer(ROWS, NAMES)
    altered = [(1, 10.5), (2, 20.26), (3, 0.3)]
    assert not answers_match(expected, canonical_answer(altered, NAMES))
    renumbered = [(1, 10.5), (4, 20.25), (3, 0.3)]
    assert not answers_match(expected, canonical_answer(renumbered, NAMES))


def test_answer_check_catches_a_duplicated_row():
    expected = canonical_answer(ROWS, NAMES)
    assert not answers_match(expected, canonical_answer(ROWS + ROWS[:1], NAMES))


def _entry_points():
    points = []
    for layer in QUERY_LAYERS + SETUP_LAYERS:
        owner = getattr(importlib.import_module(layer.module), layer.owner)
        points.append((owner, layer.method))
    points.append((importlib.import_module(WORKER_MODULE), WORKER_ENTRY))
    return points


def test_wrappers_are_removed_after_a_traced_run():
    originals = {(owner, name): vars(owner)[name] for owner, name in _entry_points()}
    with LayerProbe(Tracer(), QUERY_LAYERS + SETUP_LAYERS) as probe:
        assert probe.untraced == {}
        for (owner, name), original in originals.items():
            assert vars(owner)[name] is not original
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original


def test_missing_entry_point_is_reported_not_fatal():
    from perfbench.tracing import Layer

    layer = Layer("gone", "repro.core.stitchup", "StitchUpExecutor", "no_such_method")
    with LayerProbe(Tracer(), (layer,), workers=False) as probe:
        assert "gone" in probe.untraced


def test_determinism_check_fails_loudly():
    check = runner.DeterminismCheck()
    check.check("uniform/worst/Q5", (2, 16, 5.67))
    check.check("uniform/worst/Q5", (2, 16, 5.67))
    with pytest.raises(runner.NondeterminismError):
        check.check("uniform/worst/Q5", (2, 17, 5.67))


def _names(section: str) -> set[str]:
    return {entry["name"] for entry in BENCHMARK[section]}


def test_solo_runs_repeat_their_counts_and_report_every_declared_metric():
    originals = {(owner, name): vars(owner)[name] for owner, name in _entry_points()}
    untraced = runner.run("solo-switch", seed=3, seconds=0, trace=False, scale=0.001)
    traced = runner.run("solo-switch", seed=3, seconds=0, trace=True, scale=0.001)
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original
    assert untraced["failed"] == traced["failed"] == 0
    assert untraced["determinism_digest"] == traced["determinism_digest"]
    assert set(untraced["metrics"]) == _names("end_to_end")
    assert set(traced["metrics"]) == _names("per_layer")
    assert traced["untraced_layers"] == {}
    assert traced["metrics"]["stitchup.calls"]["value"] > 0
    assert traced["metrics"]["shard.dispatch_s"]["value"] == 0


def test_a_wrong_answer_is_counted_and_the_run_goes_on():
    from perfbench.workloads import SoloSwitch

    workload = SoloSwitch(scale=0.001)
    state = workload.setup(3)
    references = workload.references(state)
    names, rows = references[("skewed", "Q5")]
    references[("skewed", "Q5")] = (names, rows[1:])
    phase, _, _ = runner.measure(workload, state, references, 0, runner.DeterminismCheck())
    assert phase.attempted == 12
    assert phase.failed == 2  # Q5 from the optimizer's and the worst plan
    assert len(phase.walls) == 12


def test_shard_workers_send_their_spans_home():
    record = runner.run("shard-fanout", seed=3, seconds=0, trace=True, scale=0.001)
    assert record["failed"] == 0
    assert record["untraced_layers"] == {}
    metrics = record["metrics"]
    assert metrics["engine.chunks"]["value"] > 0
    assert metrics["shard.task_mb"]["value"] > 0
    assert metrics["stitchup.calls"]["value"] == 0


def test_declared_workloads_are_the_ones_the_runner_knows():
    from perfbench.workloads import UNDECLARED, WORKLOADS

    assert _names("workloads") == set(WORKLOADS) - UNDECLARED
