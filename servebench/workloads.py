"""The serving workloads: seeded inputs, set-up, load generation and checks.

Everything a workload feeds the program is generated from the run's seed
before the clock starts: plan pools (planning runs here, off the measured
path), the request trace, simulated actuals from the ``QueryExecutor`` and
the direct-estimator references the output check compares against.

* ``interactive`` — open loop, Poisson arrivals at 80 req/s, one-plan
  cpu+io requests through the micro-batch coalescer; 70% TPC-H and 30%
  TPC-DS plans from two 96-plan pools that fit in the feature cache.
* ``batch-fresh`` — closed loop, one client sending 96-plan requests
  straight to ``EstimationService.estimate_workload``; 4096 distinct plans
  cycled in a seeded permutation, twice the feature cache, so every plan
  misses.
* ``drift-refit`` — open loop at 40 req/s through the coalescer with an
  ``AdaptiveLoop`` attached; traffic switches from TPC-H to TPC-DS, and
  the drift trip, background refit, canary check and hot swap all happen
  inside the measured window.  It runs on request only (see
  ``catalog.MEASURED``).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import queue
import shutil
import struct
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Hashable, Sequence

import numpy as np

from repro.adaptive.controller import AdaptiveLoop, RetrainConfig
from repro.adaptive.drift import DriftConfig
from repro.adaptive.registry import ModelRegistry
from repro.api.service import EstimationService, StatsSnapshot
from repro.core.estimator import ResourceEstimator, WorkloadEstimate
from repro.core.trainer import TrainerConfig
from repro.engine.executor import ExecutionResult, QueryExecutor
from repro.experiments.config import get_config
from repro.features.definitions import FeatureMode
from repro.ml.metrics import l1_relative_error
from repro.plan.plan import QueryPlan
from repro.serving.coalescer import ConcurrentEstimationService
from repro.serving.scenarios import tpcds_plan_pool, tpch_plan_pool
from repro.workloads.datasets import build_training_data, split_workload
from repro.workloads.tpch import build_tpch_workload
from servebench.catalog import WORKLOADS, WorkloadSpec
from servebench.stats import LatencySummary, WindowLatency
from servebench.tracing import Tracer

RESOURCES = ("cpu", "io")

#: The fixed fast-profile training corpus every workload fits on.
TRAIN_QUERIES = 72
TRAIN_SEED = 7
TRAIN_SCALE = 0.1
TRAIN_ITERATIONS = 25

#: Coalescer shape of the open-loop workloads.
MAX_BATCH_SIZE = 96
MAX_WAIT_MS = 2.0

#: Plans per direct call of the warm pass and of ``batch-fresh`` requests.
CHUNK = 96

#: Share of the window served from the TPC-H pool before drift-refit switches.
DRIFT_SWITCH_FRACTION = 0.1

#: Longest the load generator waits for outstanding requests after the trace ends.
DRAIN_TIMEOUT_S = 60.0

#: In a traced window, traced and untraced requests alternate in slices of
#: this length, so the tracing overhead compares requests served under the
#: same machine conditions.
TRACE_SLICE_NS = 1_000_000_000


# -- inputs -------------------------------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    plans: tuple[QueryPlan, ...]
    #: Scheduled send time from the start of the window (open loop only).
    arrival_ns: int = 0
    #: Key of the reference this request's estimate must equal.
    reference: Hashable = None


@dataclass
class Inputs:
    spec: WorkloadSpec
    seed: int
    seconds: float
    #: Plans the warm pass serves once, in 96-plan calls.
    warm_plans: list[QueryPlan]
    #: Open loop: the whole trace.  Closed loop: the request cycle.
    requests: list[Request]
    #: ``id(plan)`` -> simulated execution of every plan the trace can send.
    executions: dict[int, ExecutionResult]
    #: Reference key -> per-plan digests of a direct estimate (see
    #: :func:`add_references`); empty for ``drift-refit``, whose model changes.
    references: dict[Hashable, tuple[Any, ...]] = field(default_factory=dict)


def _seeds(seed: int, count: int) -> list[int]:
    # SeedSequence takes non-negative entropy; the modulo keeps any int valid.
    return [int(s) for s in np.random.SeedSequence(seed % 2**64).generate_state(count)]


def training_inputs() -> tuple[dict[Any, Any], TrainerConfig]:
    """The fixed training corpus: 72 TPC-H queries at the fast profile."""
    config = get_config("fast")
    workload = build_tpch_workload(
        scale_factor=TRAIN_SCALE,
        skew_z=config.tpch_skew,
        n_queries=TRAIN_QUERIES,
        seed=TRAIN_SEED,
    )
    train, _ = split_workload(workload, config.train_fraction, seed=config.seed)
    mart = dataclasses.replace(config.mart, n_iterations=TRAIN_ITERATIONS)
    return build_training_data(train, FeatureMode.EXACT), TrainerConfig(mart=mart)


def _pools(tpch: int, tpcds: int, seeds: Sequence[int]) -> tuple[tuple[QueryPlan, ...], ...]:
    skew = get_config("fast").tpch_skew
    return (
        tpch_plan_pool(tpch, seed=seeds[0] % 2**31, scale_factor=TRAIN_SCALE, skew_z=skew),
        tpcds_plan_pool(tpcds, seed=seeds[1] % 2**31, scale_factor=TRAIN_SCALE),
    )


def poisson_arrivals(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """A Poisson process on ``[0, seconds)`` conditioned on its expected count.

    Given ``n`` arrivals in a window, Poisson arrival times are uniform order
    statistics; fixing ``n = rate * seconds`` keeps the offered load the
    same on every seed while arrivals stay bursty.
    """
    n = max(1, int(round(rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, size=n))


def build_trace(name: str, seed: int, seconds: float) -> tuple[list[Request], list[QueryPlan]]:
    """The request trace of one workload and the plans its warm pass serves."""
    rate = WORKLOADS[name].rate
    seeds = _seeds(seed, 3)
    rng = np.random.default_rng(seeds[2])
    if name == "batch-fresh":
        tpch, tpcds = _pools(2560, 1536, seeds)
        pool = list(tpch) + list(tpcds)
        order = [pool[i] for i in rng.permutation(len(pool))]
        # The permutation is cycled: 96-plan chunks of the repeated order
        # repeat after lcm(4096, 96) plans, 128 distinct requests.
        cycle = np.lcm(len(order), CHUNK) // CHUNK
        requests = [
            Request(
                plans=tuple(order[(k * CHUNK + j) % len(order)] for j in range(CHUNK)),
                reference=k,
            )
            for k in range(cycle)
        ]
        return requests, order
    tpch, tpcds = _pools(96, 96, seeds)
    assert rate is not None
    arrivals = poisson_arrivals(rng, rate, seconds)
    if name == "interactive":
        from_tpcds = rng.random(arrivals.size) < 0.3
    else:
        # drift-refit: TPC-H traffic first, then the shifted TPC-DS mix.
        from_tpcds = arrivals >= DRIFT_SWITCH_FRACTION * seconds
    picks = rng.integers(0, 96, size=arrivals.size)
    requests = []
    for arrival, shifted, pick in zip(arrivals, from_tpcds, picks):
        plan = (tpcds if shifted else tpch)[int(pick)]
        requests.append(
            Request(plans=(plan,), arrival_ns=int(arrival * 1e9), reference=id(plan))
        )
    return requests, list(tpch) + list(tpcds)


def estimate_digest(estimate: WorkloadEstimate, index: int) -> tuple[Any, ...]:
    """Bit-exact fingerprint of one plan's estimate: node order, values, totals."""
    digest: list[Any] = []
    for resource in RESOURCES:
        operators = estimate.operators(index, resource)
        digest.append(tuple(operators))
        digest.append(np.fromiter(operators.values(), dtype=np.float64).tobytes())
        digest.append(struct.pack("<d", estimate.query(index, resource)))
    return tuple(digest)


def make_inputs(name: str, seed: int, seconds: float) -> Inputs:
    """The trace of one workload plus the simulated actuals of its plans."""
    requests, warm_plans = build_trace(name, seed, seconds)
    executor = QueryExecutor()
    return Inputs(
        spec=WORKLOADS[name],
        seed=seed,
        seconds=seconds,
        warm_plans=warm_plans,
        requests=requests,
        executions={id(plan): executor.execute(plan) for plan in warm_plans},
    )


def add_references(inputs: Inputs, estimator: ResourceEstimator) -> None:
    """Direct ``ResourceEstimator.estimate_workload`` digests per request shape."""
    if inputs.spec.name == "drift-refit":
        return
    for request in inputs.requests:
        if request.reference not in inputs.references:
            direct = estimator.estimate_workload(request.plans, RESOURCES)
            inputs.references[request.reference] = tuple(
                estimate_digest(direct, i) for i in range(direct.n_plans)
            )


# -- set-up -------------------------------------------------------------------------------------------
#: The monitor watches io: the incumbent's TPC-H io error sits far below the
#: trip threshold and its TPC-DS io error far above it, while its cpu error
#: is high on both.  The long cooldown keeps one drift episode per window.
DRIFT_CONFIG = DriftConfig(
    window=48,
    min_observations=24,
    trip_threshold=0.25,
    clear_threshold=0.125,
    cooldown=100_000,
    resources=("io",),
)


def retrain_config(seed: int) -> RetrainConfig:
    return RetrainConfig(
        min_observations=64,
        max_observations=96,
        holdout_fraction=0.25,
        max_holdout_error=None,
        seed=seed,
    )


@dataclass
class Served:
    """One set-up's serving state."""

    estimator: ResourceEstimator
    service: EstimationService
    loop: AdaptiveLoop | None = None
    registry_dir: Path | None = None

    def close(self) -> None:
        if self.loop is not None:
            self.loop.close()
        if self.registry_dir is not None:
            shutil.rmtree(self.registry_dir, ignore_errors=True)


def set_up(
    inputs: Inputs, training: tuple[dict[Any, Any], TrainerConfig], scratch: Path
) -> tuple[Served, float]:
    """Fit, build the service, warm it; returns the state and its seconds."""
    started = time.perf_counter()
    training_data, config = training
    estimator = ResourceEstimator.train(
        training_data, FeatureMode.EXACT, resources=RESOURCES, config=config
    )
    service = EstimationService(estimator)
    for i in range(0, len(inputs.warm_plans), CHUNK):
        service.estimate_workload(inputs.warm_plans[i : i + CHUNK], RESOURCES)
    served = Served(estimator=estimator, service=service)
    if inputs.spec.name == "drift-refit":
        served.registry_dir = Path(tempfile.mkdtemp(prefix="registry-", dir=scratch))
        registry = ModelRegistry(served.registry_dir)
        registry.promote(registry.register(estimator, note="fast-profile incumbent").version)
        # Attached after the warm pass, so only measured requests are parked.
        served.loop = AdaptiveLoop(
            service, registry, DRIFT_CONFIG, retrain_config(inputs.seed)
        )
    return served, time.perf_counter() - started


# -- measurement --------------------------------------------------------------------------------------
@dataclass(frozen=True)
class Outcome:
    """What the output check keeps of one served estimate."""

    #: Equal to the reference bit for bit (``drift-refit``: finite and >= 0).
    passed: bool
    #: Query-level estimates: ``totals[resource][plan]``.
    totals: dict[str, tuple[float, ...]]


def inspect(inputs: Inputs, request: Request, estimate: WorkloadEstimate) -> Outcome:
    """Check one served estimate against the reference computed at set-up."""
    totals = {
        resource: tuple(estimate.query(i, resource) for i in range(estimate.n_plans))
        for resource in RESOURCES
    }
    if inputs.references:
        served = tuple(estimate_digest(estimate, i) for i in range(estimate.n_plans))
        passed = served == inputs.references[request.reference]
    else:
        passed = all(
            np.isfinite(value) and value >= 0.0
            for resource in RESOURCES
            for i in range(estimate.n_plans)
            for value in (*estimate.operators(i, resource).values(), totals[resource][i])
        )
    return Outcome(passed=passed, totals=totals)


@dataclass
class Window:
    """What one measured window recorded, request by request."""

    start_ns: int
    requests: list[Request]
    due_ns: list[int]
    submit_ns: list[int]
    done_ns: list[int]
    #: ``None`` where the request failed (see ``errors``).
    outcomes: list[Outcome | None]
    errors: list[str | None]
    #: Trace keys: ``id(future)`` behind the coalescer, else the request index.
    keys: list[Hashable]
    stats_before: StatsSnapshot
    stats_after: StatsSnapshot
    coalescing: dict[str, float] = field(default_factory=dict)
    #: Client time spent checking responses inside the window, excluded
    #: from its length (closed loop only).
    excluded_ns: int = 0
    #: Completion callbacks attached after the request had already finished.
    late_callbacks: int = 0
    #: Requests whose execution feedback found no parked prediction.
    dropped: int = 0
    #: Swaps the service had made when the last request completed.
    swaps_in_window: int = 0
    #: Seconds from the window start to the first drift event and the first
    #: swap, as the generator saw them (adaptive loop only).
    timeline: dict[str, float] = field(default_factory=dict)
    #: Keeps futures alive so their ``id`` stays a unique trace key.
    futures: list[Any] = field(default_factory=list, repr=False)

    @property
    def seconds(self) -> float:
        end = max((d for d in self.done_ns if d), default=self.start_ns)
        return (end - self.start_ns - self.excluded_ns) / 1e9


def _slice(tracer: Tracer | None, elapsed_ns: int) -> None:
    if tracer is not None:
        tracer.active = (elapsed_ns // TRACE_SLICE_NS) % 2 == 1


def run_open_loop(inputs: Inputs, served: Served, tracer: Tracer | None) -> Window:
    """Send each request at its scheduled time; latency runs from that time.

    One generator thread sends and, when an adaptive loop is attached,
    feeds every completed request's execution back through
    ``AdaptiveLoop.complete`` while it waits for the next send time.
    Responses are checked after the window.
    """
    requests = inputs.requests
    n = len(requests)
    due, submit, done = [0] * n, [0] * n, [0] * n
    futures: list[Any] = [None] * n
    errors: list[str | None] = [None] * n
    completed: "queue.SimpleQueue[int]" = queue.SimpleQueue()
    loop = served.loop
    timeline: dict[str, float] = {}
    dropped = 0
    late = 0

    def on_done(index: int, _future: Any) -> None:
        done[index] = time.perf_counter_ns()
        completed.put(index)

    def feed_back(index: int) -> None:
        nonlocal dropped
        assert loop is not None
        if futures[index].exception() is not None:
            return
        plan = requests[index].plans[0]
        if loop.complete(plan, inputs.executions[id(plan)]) is None:
            dropped += 1
        now_s = (time.perf_counter_ns() - start) / 1e9
        if "drift_s" not in timeline and loop.monitor.events:
            timeline["drift_s"] = now_s
        if "swap_s" not in timeline and served.service.stats.swaps > before.swaps:
            timeline["swap_s"] = now_s

    front = ConcurrentEstimationService(
        served.service, max_batch_size=MAX_BATCH_SIZE, max_wait_ms=MAX_WAIT_MS
    ).start()
    before = served.service.stats.snapshot()
    start = time.perf_counter_ns() + 5_000_000
    try:
        for i, request in enumerate(requests):
            due[i] = start + request.arrival_ns
            while True:
                remaining = due[i] - time.perf_counter_ns()
                if remaining <= 0:
                    break
                if loop is None:
                    time.sleep(remaining / 1e9)
                    continue
                try:
                    feed_back(completed.get(timeout=remaining / 1e9))
                except queue.Empty:
                    break
            submit[i] = time.perf_counter_ns()
            _slice(tracer, submit[i] - start)
            try:
                future = front.submit(request.plans, RESOURCES)
            except (RuntimeError, ValueError) as exc:
                errors[i] = f"submit failed: {exc}"
                continue
            futures[i] = future
            if future.done():
                late += 1
            future.add_done_callback(functools.partial(on_done, i))
        concurrent.futures.wait(
            [f for f in futures if f is not None], timeout=DRAIN_TIMEOUT_S
        )
        swaps = served.service.stats.snapshot().swaps
        while loop is not None:
            try:
                feed_back(completed.get_nowait())
            except queue.Empty:
                break
        coalescing = front.coalescing_stats()
    finally:
        front.close()
    after = served.service.stats.snapshot()
    outcomes: list[Outcome | None] = []
    for i, future in enumerate(futures):
        outcome = None
        if future is None:
            pass
        elif not future.done():
            errors[i] = "no result before the drain timeout"
        elif future.exception() is not None:
            errors[i] = f"{type(future.exception()).__name__}: {future.exception()}"
        else:
            outcome = inspect(inputs, requests[i], future.result())
        outcomes.append(outcome)
    return Window(
        start_ns=start,
        requests=requests,
        due_ns=due,
        submit_ns=submit,
        done_ns=done,
        outcomes=outcomes,
        errors=errors,
        keys=[id(f) if f is not None else ("unsent", i) for i, f in enumerate(futures)],
        stats_before=before,
        stats_after=after,
        coalescing={
            "batches": coalescing.batches,
            "requests": coalescing.requests,
            "plans": coalescing.plans,
            "max_queue_depth": coalescing.max_queue_depth,
            "max_service_ms": coalescing.max_service_ms,
        },
        late_callbacks=late,
        dropped=dropped,
        swaps_in_window=swaps - before.swaps,
        timeline=timeline,
        futures=futures,
    )


def run_closed_loop(inputs: Inputs, served: Served, tracer: Tracer | None) -> Window:
    """One client: each request is due as soon as the previous response is checked.

    The client checks each response before sending the next request and
    drops it, so results do not pile up in memory; the checking time is
    excluded from the window.
    """
    due: list[int] = []
    submit: list[int] = []
    done: list[int] = []
    outcomes: list[Outcome | None] = []
    errors: list[str | None] = []
    requests: list[Request] = []
    service = served.service
    before = service.stats.snapshot()
    start = time.perf_counter_ns()
    deadline = start + int(inputs.seconds * 1e9)
    ready = start
    checking = 0
    while ready - checking < deadline:
        index = len(requests)
        request = inputs.requests[index % len(inputs.requests)]
        requests.append(request)
        if tracer is not None:
            tracer.tag(index)
            _slice(tracer, ready - checking - start)
        due.append(ready)
        submit.append(time.perf_counter_ns())
        try:
            estimate = service.estimate_workload(request.plans, RESOURCES)
        except Exception as exc:  # a failed request is counted, never fatal
            done.append(time.perf_counter_ns())
            outcomes.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        else:
            done.append(time.perf_counter_ns())
            outcomes.append(inspect(inputs, request, estimate))
            errors.append(None)
        ready = time.perf_counter_ns()
        checking += ready - done[-1]
    after = service.stats.snapshot()
    return Window(
        start_ns=start,
        requests=requests,
        due_ns=due,
        submit_ns=submit,
        done_ns=done,
        outcomes=outcomes,
        errors=errors,
        keys=list(range(len(requests))),
        stats_before=before,
        stats_after=after,
        excluded_ns=checking - (ready - done[-1]),
    )


def measure(inputs: Inputs, served: Served, tracer: Tracer | None = None) -> Window:
    """One measured window; with a tracer, every other slice is traced."""
    try:
        if inputs.spec.rate is None:
            return run_closed_loop(inputs, served, tracer)
        return run_open_loop(inputs, served, tracer)
    finally:
        if tracer is not None:
            tracer.active = False


# -- checks and end-to-end metrics --------------------------------------------------------------------
@dataclass
class Checked:
    """Per-request verdicts plus the workload-level checks."""

    ok: list[bool]
    mismatches: int
    checks: dict[str, bool]

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def check(served: Served, window: Window) -> Checked:
    """The output check of one window.

    ``interactive`` and ``batch-fresh``: every served estimate equals the
    direct-estimator reference bit for bit (node order, values, totals).
    ``drift-refit``: drift trips, exactly one refit is promoted and swapped
    inside the window, nothing fails or is dropped, and every estimate is
    finite and non-negative.
    """
    ok = [outcome is not None and outcome.passed for outcome in window.outcomes]
    mismatches = sum(1 for outcome in window.outcomes if outcome is not None and not outcome.passed)
    checks = {
        "every_request_served": all(e is None for e in window.errors),
        "every_estimate_checked_ok": mismatches == 0,
    }
    if served.loop is not None:
        loop = served.loop
        before, after = window.stats_before, window.stats_after
        promoted = [o for o in loop.controller.history() if o.promoted]
        checks.update(
            {
                "drift_tripped": loop.monitor.events >= 1,
                "one_refit_promoted": len(promoted) == 1,
                "one_swap_inside_window": window.swaps_in_window == 1
                and after.swaps - before.swaps == 1
                and after.failed_swaps == before.failed_swaps,
                "no_feedback_dropped": window.dropped == 0
                and loop.log.dropped_pending == 0,
            }
        )
    return Checked(ok=ok, mismatches=mismatches, checks=checks)


def end_to_end(
    inputs: Inputs, window: Window, checked: Checked
) -> tuple[dict[str, float], dict[str, Any]]:
    """End-to-end metrics of one window (all but set-up time and memory).

    A request that failed or failed the output check counts against
    ``success_frac`` and misses the goodput limit; its latency and
    estimates are left out.
    """
    window_s = window.seconds
    good = [i for i, ok in enumerate(checked.ok) if ok]
    latencies = [(window.done_ns[i] - window.due_ns[i]) / 1e6 for i in good]
    latency = WindowLatency.of(latencies)
    limit = inputs.spec.latency_limit_ms
    plans = sum(len(window.requests[i].plans) for i in good)
    l1: dict[str, float] = {}
    for resource in RESOURCES:
        served_totals: list[float] = []
        actuals: list[float] = []
        for i in good:
            outcome = window.outcomes[i]
            assert outcome is not None
            served_totals.extend(outcome.totals[resource])
            actuals.extend(
                inputs.executions[id(plan)].total(resource) for plan in window.requests[i].plans
            )
        l1[resource] = l1_relative_error(np.array(served_totals), np.array(actuals))
    lag = LatencySummary.of(
        [(window.submit_ns[i] - window.due_ns[i]) / 1e6 for i in range(len(window.requests))]
    )
    metrics = {
        "latency_p50_ms": latency.p50_ms,
        "latency_p99_ms": latency.tail_ms,
        "throughput_plans_per_s": plans / window_s,
        "goodput_rps": sum(1 for x in latencies if x <= limit) / window_s,
        "success_frac": len(good) / len(window.requests),
        "l1_error_cpu": l1["cpu"],
        "l1_error_io": l1["io"],
    }
    detail = {
        "window_s": window_s,
        "latency": latency.record(),
        "generator_lag": lag.record(),
        "requests_sent": len(window.requests),
        "requests_succeeded": len(good),
        "requests_failed": len(window.requests) - len(good),
        "output_mismatches": checked.mismatches,
        "error_frac": 1.0 - len(good) / len(window.requests),
        "plans_completed": plans,
        "late_callbacks": window.late_callbacks,
        "timeline": window.timeline,
        "first_errors": [e for e in window.errors if e][:5],
    }
    return metrics, detail
