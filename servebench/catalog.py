"""The serving benchmark's workloads and every metric it prints.

Each metric is a name, a unit and the direction that is better.

``END_TO_END`` is what a caller of the estimation service sees and is
printed by every untraced run; ``PER_LAYER`` comes from the traced run.
``BENCHMARK.json`` at the repository root lists the same workloads, names
and units (``test_servebench.py`` keeps the two in step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    #: Requests slower than this miss the goodput count.
    latency_limit_ms: float
    #: Open-loop arrival rate (requests/s); ``None`` for the closed loop.
    rate: float | None


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "interactive",
            "optimiser what-if costing: per-call overhead (one-row model selection) "
            "and coalescer queue wait dominate; the TPC-DS share drives OOD scoring "
            "and the degradation ladder",
            latency_limit_ms=50.0,
            rate=80.0,
        ),
        WorkloadSpec(
            "batch-fresh",
            "admission control costing a queue of new queries: 96-plan calls amortise "
            "selection, every plan misses the feature cache, the coalescer is bypassed",
            latency_limit_ms=200.0,
            rate=None,
        ),
        WorkloadSpec(
            "drift-refit",
            "interactive serving with writes beside the reads: observers on every "
            "request, a background refit competing for the GIL and a hot swap that "
            "clears the feature cache",
            latency_limit_ms=50.0,
            rate=40.0,
        ),
    )
}

#: The workloads ``BENCHMARK.json`` lists, whose end-to-end spread is bounded.
#: ``drift-refit`` runs on request only: how long its background refit takes
#: under GIL contention varies from run to run (about 5 to 12 s), and with it
#: its latency median and the error of the estimates it serves.
MEASURED: tuple[str, ...] = ("interactive", "batch-fresh")


#: (name, unit, better)
Metric = tuple[str, str, str]

END_TO_END: tuple[Metric, ...] = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("throughput_plans_per_s", "1/s", "higher"),
    ("goodput_rps", "1/s", "higher"),
    ("success_frac", "ratio", "higher"),
    ("l1_error_cpu", "ratio", "lower"),
    ("l1_error_io", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Traced functions: metric prefix -> whether rows per call applies.
TRACED: tuple[tuple[str, bool], ...] = (
    ("serving.batch", False),
    ("api.estimate_workload", False),
    ("features.extract_plan", False),
    ("core.estimate_extracted_workload", True),
    ("core.select_batch", True),
    ("core.modelset_predict", True),
    ("core.transform_matrix", False),
    ("core.combined_predict", True),
    ("ml.flat_predict", True),
    ("robustness.out_scores", False),
)

#: Traced functions of the adaptive loop (``drift-refit`` only).
ADAPTIVE_TRACED: tuple[tuple[str, bool], ...] = (
    ("adaptive.record_prediction", False),
    ("adaptive.complete", False),
)


def _traced_metrics(traced: tuple[tuple[str, bool], ...]) -> tuple[Metric, ...]:
    metrics: list[Metric] = []
    for prefix, has_rows in traced:
        metrics.append((f"{prefix}.calls", "count", "lower"))
        metrics.append((f"{prefix}.self_ms", "ms", "lower"))
        metrics.append((f"{prefix}.self_ms_per_req", "ms", "lower"))
        if has_rows:
            metrics.append((f"{prefix}.rows_per_call", "rows", "higher"))
    return tuple(metrics)


PER_LAYER: tuple[Metric, ...] = (
    ("serving.batches", "count", "lower"),
    ("serving.requests_per_batch", "count", "higher"),
    ("serving.plans_per_batch", "count", "higher"),
    ("serving.queue_wait_p50_ms", "ms", "lower"),
    ("serving.queue_wait_p95_ms", "ms", "lower"),
    ("serving.max_queue_depth", "count", "lower"),
    ("serving.batch_service_max_ms", "ms", "lower"),
    ("api.cache_hit_ratio", "ratio", "higher"),
    ("api.cache_misses", "count", "lower"),
    ("robustness.degraded_operator_share", "ratio", "lower"),
    ("robustness.ood_plan_share", "ratio", "lower"),
    ("robustness.scaling_fallback.calls", "count", "lower"),
    ("bench.generator_lag_p99_ms", "ms", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
    ("bench.tracing_overhead_pct", "%", "lower"),
) + _traced_metrics(TRACED)

#: Per-layer metrics ``drift-refit`` adds to ``PER_LAYER``.
ADAPTIVE: tuple[Metric, ...] = (
    ("adaptive.drift_events", "count", "lower"),
    ("adaptive.refit_s", "s", "lower"),
    ("adaptive.swap_ms", "ms", "lower"),
    ("adaptive.swaps", "count", "lower"),
    ("adaptive.failed_swaps", "count", "lower"),
    ("adaptive.dropped_pending", "count", "lower"),
) + _traced_metrics(ADAPTIVE_TRACED)


def per_layer(workload: str) -> tuple[Metric, ...]:
    return PER_LAYER + ADAPTIVE if workload == "drift-refit" else PER_LAYER


def result_metrics(
    catalog: tuple[Metric, ...], values: Mapping[str, float]
) -> dict[str, dict[str, float | str]]:
    """The ``metrics`` object of the result line, in catalog order.

    Raises ``KeyError`` when a catalog metric was not measured, and
    ``ValueError`` when a value is not a finite number.
    """
    out: dict[str, dict[str, float | str]] = {}
    for name, unit, _ in catalog:
        value = float(values[name])
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": unit}
    return out
