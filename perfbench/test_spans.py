"""Tests of the benchmark's own arithmetic on synthetic spans and samples.

    python3 -m pytest perfbench
"""

import json
import math
from pathlib import Path

import pytest

from spans import (
    Span,
    Tracer,
    covered_length,
    nearest_rank,
    self_times,
    tail_percentile,
)

import run


def span(name, start, end, parent=None):
    return Span(name, op=0, phase="ops", start=start, end=end, parent=parent)


def test_covered_length_merges_overlaps_and_skips_empty():
    assert covered_length([]) == 0
    assert covered_length([(0, 1), (2, 3)]) == 2
    assert covered_length([(0, 2), (1, 3)]) == 3
    assert covered_length([(1, 4), (0, 5), (2, 3)]) == 5
    assert covered_length([(0, 1), (1, 2)]) == 2
    assert covered_length([(3, 3), (5, 4)]) == 0


def test_self_time_subtracts_children_once():
    spans = [
        span("op", 0.0, 10.0),
        span("samplers.a", 1.0, 3.0, parent=0),
        span("exact_count.b", 4.0, 9.0, parent=0),
        span("hypergraph.c", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0])


def test_self_time_with_overlapping_and_overhanging_children():
    spans = [
        span("op", 0.0, 10.0),
        span("x.a", 2.0, 6.0, parent=0),
        span("x.b", 4.0, 8.0, parent=0),  # overlaps a: union is 2..8
        span("x.c", 9.0, 12.0, parent=0),  # runs past the parent: clipped to 9..10
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_times_sum_to_root_duration():
    spans = [
        span("op", 0.0, 7.0),
        span("x.a", 0.5, 2.0, parent=0),
        span("x.b", 2.5, 6.5, parent=0),
        span("x.c", 3.0, 4.0, parent=2),
        span("x.d", 4.5, 6.0, parent=2),
    ]
    assert sum(self_times(spans)) == pytest.approx(7.0)


def test_tracer_records_parents_ops_and_counts():
    tracer = Tracer()
    tracer.phase = "ops"
    tracer.op = 3
    double = tracer.wrap("layer.double", lambda x: 2 * x, lambda r, x: {"work": r})
    with tracer.span("op"):
        assert double(5) == 10
    outer, inner = tracer.spans
    assert outer.parent is None and inner.parent == 0
    assert inner.op == outer.op == 3 and inner.phase == "ops"
    assert inner.counts == {"work": 10}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()
    boom = tracer.wrap("layer.boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        boom()
    (record,) = tracer.spans
    assert record.end >= record.start
    assert tracer._open == []


def test_nearest_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == (50, 50)
    assert nearest_rank(values, 90) == (90, 10)
    assert nearest_rank(values, 99) == (99, 1)
    assert nearest_rank([7.0], 90) == (7.0, 0)
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(range(1, 101)) == (90.0, 90, 10)
    assert tail_percentile(range(1, 100)) == (50.0, 50, 49)
    assert tail_percentile(range(1000, 0, -1)) == (99.0, 990, 10)
    assert tail_percentile(range(1, 10001)) == (99.9, 9990, 10)
    assert tail_percentile(range(1, 11)) == (100.0, 10, 0)


def test_cold_minus_warm_groups_by_key():
    def setup_span(name, start, end, **counts):
        s = Span(name, op=-1, phase="setup", start=start, end=end)
        s.counts.update(counts)
        return s

    spans = [
        setup_span("analytics.distance_rate_scan", 0.0, 1.0, k=17, points=33),
        setup_span("analytics.distance_rate_scan", 1.0, 1.25, k=17, points=33),
        setup_span("analytics.distance_rate_scan", 2.0, 2.5, k=25, points=33),
        setup_span("analytics.distance_rate_scan", 3.0, 3.125, k=25, points=33),
        setup_span("analytics.distance_rate_scan", 4.0, 9.0, k=19, points=33),  # no warm call
        span("analytics.distance_rate_scan", 5.0, 9.0),  # timed, not set-up
    ]
    got = run.cold_minus_warm(spans, "analytics.distance_rate_scan", ("k", "points"))
    assert got == pytest.approx(0.75 + 0.375)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert math.isclose(max(m["bound"] for m in spec["end_to_end"]),
                        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"))
