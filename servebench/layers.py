"""The traced functions of each serving layer and the per-layer metrics.

Layers are the packages on the request path: ``serving`` (the micro-batch
coalescer), ``api`` (``EstimationService``), ``features``, ``core``
(grouping, model selection, the scaling transform), ``ml`` (the
``FlatForest`` kernel), ``robustness`` (OOD scoring, the degradation
ladder) and ``adaptive``.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median
from typing import Any

from repro.adaptive.controller import AdaptiveLoop, RetrainController
from repro.adaptive.observation import ObservationLog
from repro.api.service import EstimationService
from repro.core.combined_model import CombinedModel
from repro.core.estimator import ResourceEstimator
from repro.core.trainer import OperatorModelSet
from repro.ml.flat_ensemble import FlatForest
from repro.robustness.degradation import ScalingFallback
from repro.robustness.envelope import FeatureEnvelope
from repro.serving.coalescer import ConcurrentEstimationService
from servebench.catalog import ADAPTIVE_TRACED, TRACED
from servebench.stats import LatencySummary
from servebench.tracing import Span, Target, attribute_requests, self_times_ns
from servebench.workloads import RESOURCES, Served, Window

#: Root spans of the request path; the per-layer function metrics count
#: only spans in trees under these (refits and their canary checks also
#: call the estimator, but no request waits on them directly).
REQUEST_ROOTS = ("serving.batch", "api.estimate_workload")


def _matrix_rows(args: tuple[Any, ...], _kwargs: dict[str, Any]) -> int:
    return int(args[1].shape[0])


def _plan_count(args: tuple[Any, ...], _kwargs: dict[str, Any]) -> int:
    return len(args[1])


def _batch_requests(args: tuple[Any, ...]) -> tuple[int, ...]:
    # _serve_batch(self, batch, n_plans): the trace key of a coalesced
    # request is the id of the future the caller holds.
    return tuple(id(request.future) for request in args[1])


TARGETS: tuple[Target, ...] = (
    # The coalescer's per-batch step is private; it is wrapped because it is
    # the one place a span can list every request a micro-batch carried.
    Target("serving.batch", ConcurrentEstimationService, "_serve_batch", root=True,
           requests=_batch_requests),
    Target("api.estimate_workload", EstimationService, "estimate_workload", root=True),
    Target("features.extract_plan", ResourceEstimator, "extract_plan_features"),
    Target("core.estimate_extracted_workload", ResourceEstimator,
           "estimate_extracted_workload", rows=_plan_count),
    Target("core.select_batch", OperatorModelSet, "select_batch", rows=_matrix_rows),
    Target("core.modelset_predict", OperatorModelSet, "predict_batch", rows=_matrix_rows),
    Target("core.transform_matrix", CombinedModel, "transform_matrix"),
    Target("core.combined_predict", CombinedModel, "predict_batch", rows=_matrix_rows),
    Target("ml.flat_predict", FlatForest, "predict", rows=_matrix_rows),
    Target("robustness.out_scores", FeatureEnvelope, "out_scores"),
    Target("robustness.scaling_fallback", ScalingFallback, "predict_rows"),
    Target("adaptive.record_prediction", ObservationLog, "record_prediction"),
    Target("adaptive.complete", AdaptiveLoop, "complete", root=True),
    Target("adaptive.refit", RetrainController, "retrain_now", root=True, always=True),
    Target("adaptive.swap", EstimationService, "swap_artifact"),
)


def request_phase_spans(spans: list[Span], window: Window) -> list[Span]:
    """Synthetic root spans for the parts of a request no function covers.

    ``bench.generator_lag`` runs from the scheduled send time to the send;
    behind the coalescer, ``serving.queue_wait`` runs from the send to the
    start of the batch span that carried the request.
    """
    batch_start: dict[Any, int] = {}
    for span in spans:
        if span.name == "serving.batch":
            for key in span.requests:
                batch_start[key] = span.start_ns
    extra: list[Span] = []
    for i, key in enumerate(window.keys):
        extra.append(Span(len(spans) + len(extra), "bench.generator_lag",
                          window.due_ns[i], window.submit_ns[i], -1, 0, (key,)))
        if key in batch_start:
            extra.append(Span(len(spans) + len(extra), "serving.queue_wait",
                              window.submit_ns[i], batch_start[key], -1, 0, (key,)))
    return extra


def tracing_overhead(window: Window, ok: list[bool], traced: set[Any]) -> dict[str, float]:
    """Traced against untraced requests of one interleaved window.

    ``latency_pct`` compares median latency; ``throughput_pct`` compares
    plans per second of request time, the throughput a request stream of
    each kind would reach.  The overhead is the larger of the two.
    """
    latencies: dict[bool, list[float]] = {True: [], False: []}
    plans = {True: 0, False: 0}
    for i, key in enumerate(window.keys):
        if ok[i]:
            group = key in traced
            latencies[group].append((window.done_ns[i] - window.due_ns[i]) / 1e6)
            plans[group] += len(window.requests[i].plans)
    if not latencies[True] or not latencies[False]:
        raise ValueError("a traced window needs both traced and untraced requests")
    rate = {g: plans[g] / sum(latencies[g]) for g in (True, False)}
    latency_pct = 100.0 * (median(latencies[True]) / median(latencies[False]) - 1.0)
    throughput_pct = 100.0 * (1.0 - rate[True] / rate[False])
    return {
        "latency_pct": latency_pct,
        "throughput_pct": throughput_pct,
        "overhead_pct": max(latency_pct, throughput_pct),
        "traced_requests": len(latencies[True]),
        "untraced_requests": len(latencies[False]),
    }


def layer_metrics(
    spans: list[Span], window: Window, served: Served, ok: list[bool]
) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics of one interleaved window, plus its breakdown.

    Function metrics and the wall-time breakdown cover the traced requests;
    the generator lag covers the untraced ones.
    """
    traced = {key for span in spans if span.parent < 0 and span.name in REQUEST_ROOTS
              for key in span.requests}
    traced_ok = [good and key in traced for key, good in zip(window.keys, ok)]
    n_requests = max(1, sum(traced_ok))
    all_spans = spans + request_phase_spans(spans, window)
    selfs = self_times_ns(all_spans)
    root_of: list[int] = []
    for span in all_spans:
        # A parent is always recorded before its children.
        root_of.append(span.index if span.parent < 0 else root_of[span.parent])

    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    rows: dict[str, int] = defaultdict(int)
    durations: dict[str, float] = defaultdict(float)
    for span in all_spans:
        in_request = all_spans[root_of[span.index]].name in REQUEST_ROOTS
        if in_request or span.name.startswith("adaptive."):
            calls[span.name] += 1
            self_ns[span.name] += selfs[span.index]
            rows[span.name] += span.rows
            durations[span.name] += span.duration_ns

    metrics: dict[str, float] = {}
    for prefix, has_rows in TRACED + ADAPTIVE_TRACED:
        metrics[f"{prefix}.calls"] = calls[prefix]
        metrics[f"{prefix}.self_ms"] = self_ns[prefix] / 1e6
        metrics[f"{prefix}.self_ms_per_req"] = self_ns[prefix] / 1e6 / n_requests
        if has_rows:
            metrics[f"{prefix}.rows_per_call"] = rows[prefix] / calls[prefix] if calls[prefix] else 0.0

    windows = {key: (window.due_ns[i], window.done_ns[i])
               for i, key in enumerate(window.keys) if traced_ok[i]}
    parts = attribute_requests(all_spans, windows)
    wall = sum(end - start for start, end in windows.values())
    breakdown: dict[str, int] = defaultdict(int)
    for request_parts in parts.values():
        for name, ns in request_parts.items():
            breakdown[name] += ns
    metrics["bench.unattributed_share"] = breakdown["unattributed"] / wall if wall else 0.0

    coalescing = window.coalescing
    batches = coalescing.get("batches", 0)
    before, after = window.stats_before, window.stats_after
    metrics.update(
        {
            "serving.batches": batches,
            "serving.requests_per_batch": coalescing["requests"] / batches if batches else 0.0,
            "serving.plans_per_batch": coalescing["plans"] / batches if batches else 0.0,
            "serving.queue_wait_p50_ms": after.queue_wait_p50_ms if batches else 0.0,
            "serving.queue_wait_p95_ms": after.queue_wait_p95_ms if batches else 0.0,
            "serving.max_queue_depth": coalescing.get("max_queue_depth", 0),
            "serving.batch_service_max_ms": coalescing.get("max_service_ms", 0.0),
        }
    )
    hits = after.cache_hits - before.cache_hits
    misses = after.cache_misses - before.cache_misses
    plans = after.plans_served - before.plans_served
    operators = sum(
        plan.operator_count()
        for i, request in enumerate(window.requests) if ok[i]
        for plan in request.plans
    ) * len(RESOURCES)
    overhead = tracing_overhead(window, ok, traced)
    untraced_lag = LatencySummary.of(
        [(window.submit_ns[i] - window.due_ns[i]) / 1e6
         for i, key in enumerate(window.keys) if key not in traced]
    )
    metrics.update(
        {
            "api.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "api.cache_misses": misses,
            "robustness.degraded_operator_share":
                (after.degraded_operators - before.degraded_operators) / operators
                if operators else 0.0,
            "robustness.ood_plan_share":
                (after.ood_plans_flagged - before.ood_plans_flagged) / plans if plans else 0.0,
            "robustness.scaling_fallback.calls": calls["robustness.scaling_fallback"],
        }
    )
    loop = served.loop
    metrics.update(
        {
            "adaptive.drift_events": loop.monitor.events if loop is not None else 0,
            "adaptive.refit_s": durations["adaptive.refit"] / 1e9,
            "adaptive.swap_ms": durations["adaptive.swap"] / 1e6,
            "adaptive.swaps": after.swaps - before.swaps,
            "adaptive.failed_swaps": after.failed_swaps - before.failed_swaps,
            "adaptive.dropped_pending": loop.log.dropped_pending if loop is not None else 0,
            "bench.generator_lag_p99_ms": untraced_lag.tail_ms,
            "bench.tracing_overhead_pct": overhead["overhead_pct"],
        }
    )
    detail = {
        "spans": len(spans),
        "traced_wall_ms": wall / 1e6,
        "wall_share": {name: ns / wall for name, ns in sorted(breakdown.items())} if wall else {},
        "untraced_generator_lag": untraced_lag.record(),
        "tracing_overhead": overhead,
    }
    return metrics, detail
