"""Tests of the serving benchmark itself: ``python3 -m pytest servebench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from servebench import catalog  # noqa: E402
from servebench.stats import (  # noqa: E402
    TAIL_SAMPLES,
    LatencySummary,
    WindowLatency,
    samples_beyond,
    tail_percentile,
)
from servebench.tracing import Span, Target, Tracer, attribute_requests, self_times_ns  # noqa: E402


# -- the trace is a function of the seed --------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(catalog.WORKLOADS))
def test_same_seed_gives_an_identical_request_trace(workload: str) -> None:
    from servebench.workloads import build_trace

    def shape(seed: int) -> list[tuple[object, ...]]:
        requests, warm = build_trace(workload, seed, seconds=2.0)
        names = {id(plan): plan.query.name for plan in warm}
        return [
            (request.arrival_ns, tuple(names[id(plan)] for plan in request.plans),
             tuple(op.op_type for plan in request.plans for op in plan.operators()))
            for request in requests
        ]

    first = shape(5)
    assert first == shape(5)
    assert first != shape(6)


def test_open_loop_offered_load_does_not_depend_on_the_seed() -> None:
    from servebench.workloads import poisson_arrivals

    for seed in range(3):
        arrivals = poisson_arrivals(np.random.default_rng(seed), rate=80.0, seconds=15.0)
        assert arrivals.size == 1200
        assert np.all(np.diff(arrivals) >= 0.0)
        assert 0.0 <= arrivals[0] and arrivals[-1] < 15.0


# -- printed metric names match BENCHMARK.json --------------------------------------------------------
def test_metric_catalog_matches_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        catalog.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        catalog.PER_LAYER
    )
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, catalog.WORKLOADS[name].why) for name in catalog.MEASURED
    ]
    assert spec["command"][1] == "servebench/run.py"


def test_result_line_carries_exactly_the_catalog_metrics() -> None:
    values = {name: float(i + 1) for i, (name, _, _) in enumerate(catalog.END_TO_END)}
    metrics = catalog.result_metrics(catalog.END_TO_END, dict(values, extra=1.0))
    assert list(metrics) == [name for name, _, _ in catalog.END_TO_END]
    assert metrics["latency_p50_ms"] == {"value": values["latency_p50_ms"], "unit": "ms"}
    del values["peak_rss_mb"]
    with pytest.raises(KeyError):
        catalog.result_metrics(catalog.END_TO_END, values)
    with pytest.raises(ValueError):
        catalog.result_metrics(catalog.END_TO_END, dict(values, peak_rss_mb=float("nan")))


def test_metric_names_follow_the_naming_rules() -> None:
    names = [m[0] for m in catalog.END_TO_END + catalog.PER_LAYER]
    assert len(names) == len(set(names))
    assert len(catalog.PER_LAYER) <= 128
    for name, unit, better in catalog.END_TO_END + catalog.PER_LAYER:
        assert name[0].isalnum() and len(name) <= 64
        assert better in ("lower", "higher")
        assert 0 < len(unit) <= 16


# -- the tail percentile falls back when the sample cannot support p99 --------------------------------
def test_p99_is_reported_when_ten_samples_lie_beyond_it() -> None:
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(5000) == 99.0
    summary = LatencySummary.of(np.arange(1000, dtype=np.float64))
    assert summary.tail_percentile == 99.0
    assert summary.tail_beyond >= TAIL_SAMPLES


def test_tail_falls_back_when_fewer_than_ten_samples_lie_beyond_p99() -> None:
    assert tail_percentile(500) == pytest.approx(98.0)
    assert tail_percentile(200) == pytest.approx(95.0)
    samples = np.random.default_rng(0).exponential(size=200)
    summary = LatencySummary.of(samples)
    assert summary.tail_percentile == pytest.approx(95.0)
    assert int(np.sum(samples > summary.tail_ms)) == TAIL_SAMPLES
    assert summary.tail_beyond == TAIL_SAMPLES
    # At the nominal p99, 200 samples leave only 2 beyond it.
    assert samples_beyond(samples, 99.0) == 2
    with pytest.raises(ValueError):
        tail_percentile(TAIL_SAMPLES)


def test_one_stalled_part_does_not_set_the_window_tail() -> None:
    rng = np.random.default_rng(1)
    steady = [rng.exponential(10.0, size=800) + 10.0 for _ in range(3)]
    stalled = steady[1].copy()
    stalled[100:160] += 500.0  # a stall delays 60 consecutive requests
    clean = WindowLatency.of(np.concatenate(steady))
    hit = WindowLatency.of(np.concatenate([steady[0], stalled, steady[2]]))
    assert [part.n for part in hit.parts] == [800, 800, 800]
    assert hit.parts[1].tail_ms > 500.0
    assert hit.tail_ms == pytest.approx(clean.tail_ms, rel=0.2)
    assert hit.tail_ms < 100.0


def test_a_short_window_is_not_split_below_the_part_size() -> None:
    assert len(WindowLatency.of(np.arange(150.0)).parts) == 1
    assert len(WindowLatency.of(np.arange(250.0)).parts) == 2
    assert len(WindowLatency.of(np.arange(3000.0)).parts) == 3


# -- self-time arithmetic -----------------------------------------------------------------------------
def _tree() -> list[Span]:
    # A coalesced batch [10, 100) carrying requests "a" and "b":
    #   api [12, 90) -> core [20, 60) -> ml [30, 50), and ml [70, 80) under api.
    # Plus the request phases: a's generator lag [0, 4) and queue wait
    # [4, 10); b's queue wait [6, 10).
    return [
        Span(0, "serving.batch", 10, 100, -1, 0, ("a", "b")),
        Span(1, "api", 12, 90, 0),
        Span(2, "core", 20, 60, 1),
        Span(3, "ml", 30, 50, 2),
        Span(4, "ml", 70, 80, 1),
        Span(5, "lag", 0, 4, -1, 0, ("a",)),
        Span(6, "queue", 4, 10, -1, 0, ("a",)),
        Span(7, "queue", 6, 10, -1, 0, ("b",)),
    ]


def test_self_time_is_duration_minus_what_children_cover() -> None:
    assert self_times_ns(_tree()) == [12, 28, 20, 20, 10, 4, 6, 4]


def test_overlapping_children_are_not_subtracted_twice() -> None:
    spans = [
        Span(0, "root", 0, 100, -1, 0, ("r",)),
        Span(1, "x", 10, 50, 0),
        Span(2, "y", 40, 60, 0),
    ]
    assert self_times_ns(spans)[0] == 50


def test_shared_batch_span_is_split_by_each_request_window() -> None:
    spans = _tree()
    # "a" completes at 95 (before the batch span ends), "b" at 85.
    parts = attribute_requests(spans, {"a": (0, 95), "b": (5, 85)})
    assert parts["a"] == {
        "serving.batch": 2 + 5, "api": 8 + 10 + 10, "core": 20, "ml": 30,
        "lag": 4, "queue": 6, "unattributed": 0,
    }
    # b's window starts at 5 but its queue span only at 6: 1 ns is unattributed.
    assert parts["b"] == {
        "serving.batch": 2, "api": 8 + 10 + 5, "core": 20, "ml": 30,
        "queue": 4, "unattributed": 1,
    }
    for key, (start, end) in {"a": (0, 95), "b": (5, 85)}.items():
        assert sum(parts[key].values()) == end - start


def test_a_request_no_span_served_is_all_unattributed() -> None:
    parts = attribute_requests(_tree(), {"c": (0, 40)})
    assert parts["c"] == {"unattributed": 40}


# -- runtime wrapping ---------------------------------------------------------------------------------
class _Toy:
    def outer(self, rows: list[int]) -> int:
        return self.inner(rows) + 1

    def inner(self, rows: list[int]) -> int:
        return len(rows)


def test_tracer_records_nested_spans_only_under_a_root_and_restores() -> None:
    original_outer, original_inner = _Toy.__dict__["outer"], _Toy.__dict__["inner"]
    tracer = Tracer()
    tracer.install(
        [
            Target("toy.outer", _Toy, "outer", root=True),
            Target("toy.inner", _Toy, "inner", rows=lambda args, kwargs: len(args[1])),
        ]
    )
    try:
        toy = _Toy()
        toy.outer([1, 2])  # inactive: nothing recorded
        tracer.active = True
        tracer.tag("req-1")
        assert toy.outer([1, 2, 3]) == 4
        toy.inner([1])  # not under a root: not recorded
        tracer.active = False
    finally:
        tracer.uninstall()
    assert _Toy.__dict__["outer"] is original_outer
    assert _Toy.__dict__["inner"] is original_inner
    spans = tracer.spans()
    assert [(s.name, s.parent, s.rows, s.requests) for s in spans] == [
        ("toy.outer", -1, 0, ("req-1",)),
        ("toy.inner", 0, 3, ()),
    ]
    assert spans[0].start_ns <= spans[1].start_ns <= spans[1].end_ns <= spans[0].end_ns


def test_a_root_is_traced_or_not_as_a_whole() -> None:
    tracer = Tracer()

    class Flip(_Toy):
        def outer(self, rows: list[int]) -> int:
            tracer.active = not tracer.active
            return self.inner(rows)

    tracer.install(
        [
            Target("flip.outer", Flip, "outer", root=True),
            Target("flip.inner", _Toy, "inner"),
        ]
    )
    try:
        flip = Flip()
        flip.outer([1])  # entered untraced; tracing turns on inside
        flip.outer([1])  # entered traced; tracing turns off inside
    finally:
        tracer.uninstall()
    assert [(s.name, s.parent) for s in tracer.spans()] == [
        ("flip.outer", -1),
        ("flip.inner", 0),
    ]
