"""Concurrency tests for the serving layer (`repro.serving`).

The coalescer's contract is exact: concurrent callers get **bit-identical**
results to direct ``estimate_workload`` calls, queue latency is bounded by
``max_wait_ms``, in-flight requests survive a concurrent artifact hot-swap,
and the load generator replays the same seeded trace every time.  Each of
those claims is asserted here under real threads, plus the thread-safety of
the :class:`~repro.api.EstimationService` internals the coalescer rides on.
"""

from __future__ import annotations

import threading
from concurrent.futures import wait

import numpy as np
import pytest

from repro.api import EstimationService
from repro.api.service import ServiceStats
from repro.features.definitions import operator_family
from repro.robustness import FaultInjector, PlanValidationError
from repro.serving import (
    ConcurrentEstimationService,
    LoadConfig,
    Scenario,
    ServeBenchConfig,
    build_trace,
    run_load,
    run_serve_bench,
    standard_scenarios,
)


@pytest.fixture(scope="module")
def plans(tpch_plans):
    return tpch_plans


@pytest.fixture(scope="module")
def scenarios(plans):
    return (
        Scenario("interactive", 0.7, tuple(plans), plans_per_request=1),
        Scenario("batch4", 0.3, tuple(plans), plans_per_request=4),
    )


def _assert_identical(direct, coalesced):
    """Bitwise equality of two WorkloadEstimates, operator order included."""
    assert coalesced.resources == direct.resources
    assert coalesced.n_plans == direct.n_plans
    for resource in direct.resources:
        for j in range(direct.n_plans):
            d, c = direct.operators(j, resource), coalesced.operators(j, resource)
            assert list(d.items()) == list(c.items())
        assert np.array_equal(
            direct.query_totals(resource), coalesced.query_totals(resource)
        )


class TestCoalescedParity:
    def test_single_plan_requests_bit_identical(self, trained_estimator, plans):
        direct = EstimationService(trained_estimator)
        service = EstimationService(trained_estimator)
        with ConcurrentEstimationService(
            service, max_batch_size=64, max_wait_ms=20.0
        ) as server:
            futures = [server.submit([plan]) for plan in plans]
            results = [future.result(timeout=30) for future in futures]
        for plan, coalesced in zip(plans, results):
            _assert_identical(direct.estimate_workload([plan]), coalesced)

    def test_mixed_requests_bit_identical_across_forced_batches(
        self, trained_estimator, plans
    ):
        # Tiny max_batch_size + short deadline forces many batch boundaries;
        # requests differ in plan count AND requested resources, so the
        # demux must slice a union-resource batch correctly.
        direct = EstimationService(trained_estimator)
        service = EstimationService(trained_estimator)
        requests = [
            (
                [plans[i % len(plans)], plans[(i * 5 + 3) % len(plans)]][: 1 + i % 2],
                (("cpu",), ("cpu", "io"), None)[i % 3],
            )
            for i in range(30)
        ]
        with ConcurrentEstimationService(
            service, max_batch_size=5, max_wait_ms=1.0
        ) as server:
            futures = [server.submit(p, r) for p, r in requests]
            results = [future.result(timeout=30) for future in futures]
            stats = server.coalescing_stats()
        assert stats.requests == 30
        assert stats.batches > 1  # the batching actually split
        for (request_plans, resources), coalesced in zip(requests, results):
            _assert_identical(
                direct.estimate_workload(request_plans, resources), coalesced
            )

    def test_estimate_query_matches_direct(self, trained_estimator, plans):
        direct = EstimationService(trained_estimator)
        service = EstimationService(trained_estimator)
        with ConcurrentEstimationService(service, max_wait_ms=1.0) as server:
            value = server.estimate_query(plans[0], "cpu")
        assert value == direct.estimate_query(plans[0], "cpu")

    def test_degradation_report_reindexed_per_request(
        self, trained_estimator, plans
    ):
        # Poison the SECOND request's cached features; its report must come
        # back with local plan indices while the first request stays clean.
        service = EstimationService(trained_estimator)
        corrupted = FaultInjector(seed=17).corrupt_features(
            [trained_estimator.extract_plan_features(plans[1])], kind="nan"
        )
        service._feature_cache[id(plans[1])] = (plans[1], corrupted[0])
        with ConcurrentEstimationService(
            service, max_batch_size=64, max_wait_ms=20.0
        ) as server:
            clean_future = server.submit([plans[0]])
            poisoned_future = server.submit([plans[1]])
            clean = clean_future.result(timeout=30)
            poisoned = poisoned_future.result(timeout=30)
        assert clean.degradation is None or clean.degradation.clean
        report = poisoned.degradation
        assert report is not None and not report.clean
        assert all(entry.plan_index == 0 for entry in report.entries)

    def test_degradation_entries_ordered_like_direct(self, trained_estimator, plans):
        # Request A's first operator family is request B's second, and every
        # operator of B has a non-finite feature.  A coalesced batch sees A's
        # family first; B's report must still list its entries in the same
        # order as a direct estimate of B, not in the batch's family order.
        def families(plan):
            return list(dict.fromkeys(operator_family(op.op_type) for op in plan.operators()))

        first, second = next(
            (a, b)
            for a in plans
            for b in plans
            if len(families(b)) > 1 and families(a)[0] == families(b)[1]
        )
        service = EstimationService(trained_estimator)
        poisoned = FaultInjector(seed=5).corrupt_features(
            [trained_estimator.extract_plan_features(second)], rate=1.0
        )
        service._feature_cache[id(second)] = (second, poisoned[0])
        direct = service.estimate_workload([second])
        with ConcurrentEstimationService(
            service, max_batch_size=2, max_wait_ms=1000.0
        ) as server:
            futures = [server.submit([first]), server.submit([second])]
            coalesced = futures[1].result(timeout=30)
            stats = server.coalescing_stats()
        assert stats.batches == 1
        assert direct.degradation.count > 0
        assert coalesced.degradation.entries == direct.degradation.entries
        assert coalesced.degradation == direct.degradation
        _assert_identical(direct, coalesced)


class TestLatencyBounds:
    def test_max_wait_bounds_queue_latency(self, trained_estimator, plans):
        # A lone request never fills max_batch_size; it must be released by
        # the deadline, not held for company that never arrives.
        service = EstimationService(trained_estimator)
        service.estimate_workload(plans[:1])  # warm cache + compiled kernels
        with ConcurrentEstimationService(
            service, max_batch_size=1024, max_wait_ms=5.0
        ) as server:
            import time

            started = time.perf_counter()
            server.estimate_workload([plans[0]])
            elapsed_ms = (time.perf_counter() - started) * 1000.0
        # Far below any "wait for 1024 plans" horizon; generous enough for CI.
        assert elapsed_ms < 5.0 + 1000.0
        waits = service.stats.queue_wait_p95_ms
        assert waits is not None

    def test_zero_wait_serves_immediately(self, trained_estimator, plans):
        service = EstimationService(trained_estimator)
        with ConcurrentEstimationService(service, max_wait_ms=0.0) as server:
            estimate = server.estimate_workload([plans[0]])
        assert estimate.n_plans == 1


class TestSwapDuringFlight:
    def test_requests_complete_across_concurrent_swap(
        self, trained_estimator, plans, tmp_path
    ):
        # Swap to an identical artifact mid-hammer: every in-flight request
        # must complete finitely on either the old or the new model (same
        # weights here, so results stay bit-identical throughout).
        path = tmp_path / "model.bin"
        trained_estimator.save(path)
        direct = EstimationService(trained_estimator)
        service = EstimationService(trained_estimator)
        expected = {
            id(plan): direct.estimate_workload([plan]) for plan in plans
        }
        stop = threading.Event()
        failures: list[BaseException] = []

        def hammer(server: ConcurrentEstimationService) -> None:
            i = 0
            while not stop.is_set():
                plan = plans[i % len(plans)]
                try:
                    estimate = server.estimate_workload([plan])
                    _assert_identical(expected[id(plan)], estimate)
                except BaseException as exc:  # repro: noqa[REPRO-R5] collected for the assert below
                    failures.append(exc)
                    return
                i += 1

        with ConcurrentEstimationService(
            service, max_batch_size=8, max_wait_ms=0.5
        ) as server:
            threads = [
                threading.Thread(target=hammer, args=(server,)) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            previous = service.swap_artifact(path)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures, failures
        assert previous is trained_estimator
        assert service.stats.swaps == 1
        assert service.estimator is not trained_estimator


class TestRejectModeIsolation:
    def test_poisoned_request_fails_alone(self, trained_estimator, plans):
        # In reject mode a poisoned batch is re-served per request, so only
        # the caller with corrupted features sees the rejection.
        service = EstimationService(trained_estimator, on_invalid="reject")
        corrupted = FaultInjector(seed=17).corrupt_features(
            [trained_estimator.extract_plan_features(plans[2])], kind="nan"
        )
        service._feature_cache[id(plans[2])] = (plans[2], corrupted[0])
        direct = EstimationService(trained_estimator)
        with ConcurrentEstimationService(
            service, max_batch_size=64, max_wait_ms=20.0
        ) as server:
            clean_futures = [server.submit([plan]) for plan in plans[:2]]
            poisoned_future = server.submit([plans[2]])
            done, _ = wait(clean_futures + [poisoned_future], timeout=30)
        assert len(done) == 3
        with pytest.raises(PlanValidationError):
            poisoned_future.result()
        for plan, future in zip(plans[:2], clean_futures):
            _assert_identical(direct.estimate_workload([plan]), future.result())


class TestLifecycle:
    def test_close_rejects_queued_and_new_requests(self, trained_estimator, plans):
        service = EstimationService(trained_estimator)
        server = ConcurrentEstimationService(service, max_wait_ms=50.0)
        future = server.submit([plans[0]])
        server.close()
        # The queued request either completed or was drained with an error —
        # it must never hang.
        assert future.done()
        with pytest.raises(RuntimeError, match="closed"):
            server.submit([plans[0]])
        server.close()  # idempotent

    def test_submit_validates_eagerly(self, trained_estimator, plans):
        service = EstimationService(trained_estimator)
        with ConcurrentEstimationService(service) as server:
            with pytest.raises(ValueError, match="at least one plan"):
                server.submit([])
            with pytest.raises(ValueError, match="unknown resource"):
                server.submit([plans[0]], ("latency",))

    def test_rejects_non_service(self):
        with pytest.raises(TypeError, match="EstimationService"):
            ConcurrentEstimationService(object())


class TestServiceThreadSafety:
    def test_concurrent_callers_keep_stats_consistent(
        self, trained_estimator, plans
    ):
        service = EstimationService(trained_estimator, cache_size=8)
        n_threads, n_calls = 6, 25
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            for i in range(n_calls):
                try:
                    plan = plans[(seed * 7 + i) % len(plans)]
                    service.estimate_workload([plan])
                except BaseException as exc:  # repro: noqa[REPRO-R5] collected for the assert below
                    errors.append(exc)
                    return

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert service.stats.workloads_served == n_threads * n_calls
        assert service.stats.plans_served == n_threads * n_calls
        assert (
            service.stats.cache_hits + service.stats.cache_misses
            == n_threads * n_calls
        )
        assert len(service._feature_cache) <= 8

    def test_stats_snapshot_is_consistent_copy(self):
        stats = ServiceStats()
        stats.record_batch(3, 12, [1.0, 2.0, 4.0])
        stats.record_batch(1, 2, [8.0])
        snap = stats.snapshot()
        assert snap.batches_served == 2
        assert snap.plans_coalesced == 14
        assert snap.queue_wait_samples == 4
        assert snap.queue_wait_p50_ms == pytest.approx(3.0)
        assert snap.queue_wait_p95_ms == pytest.approx(7.4, abs=0.2)
        stats.record_batch(1, 1, [100.0])
        assert snap.batches_served == 2  # frozen copy, not a view

    def test_fresh_stats_equal(self):
        assert ServiceStats() == ServiceStats()


class TestLoadGenerator:
    def test_trace_is_deterministic(self, scenarios):
        config = LoadConfig(mode="open", requests=200, warmup=20, qps=500.0, seed=5)
        assert build_trace(scenarios, config) == build_trace(scenarios, config)
        reseeded = LoadConfig(mode="open", requests=200, warmup=20, qps=500.0, seed=6)
        assert build_trace(scenarios, config) != build_trace(scenarios, reseeded)

    def test_trace_shape(self, scenarios):
        config = LoadConfig(mode="closed", requests=50, warmup=10, seed=5)
        trace = build_trace(scenarios, config)
        assert len(trace) == 60
        assert sum(spec.warmup for spec in trace) == 10
        names = {spec.scenario for spec in trace}
        assert names <= {"interactive", "batch4"}
        for spec in trace:
            assert len(spec.plan_indices) in (1, 4)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="mode"):
            LoadConfig(mode="sideways")
        with pytest.raises(ValueError, match="qps"):
            LoadConfig(mode="open", qps=0.0)
        with pytest.raises(ValueError, match="concurrency"):
            LoadConfig(concurrency=0)

    def test_closed_loop_run_counts_every_request(
        self, trained_estimator, scenarios
    ):
        service = EstimationService(trained_estimator)
        config = LoadConfig(mode="closed", requests=60, warmup=8, concurrency=4, seed=9)
        with ConcurrentEstimationService(
            service, max_batch_size=32, max_wait_ms=1.0
        ) as server:
            report = run_load(server, scenarios, config)
        assert report.requests == 60
        assert report.errors == 0
        assert sum(report.scenario_counts.values()) == 60
        assert report.throughput_rps > 0
        assert report.latency.p50_ms <= report.latency.p99_ms <= report.latency.max_ms

    def test_open_loop_run_counts_every_request(self, trained_estimator, scenarios):
        service = EstimationService(trained_estimator)
        config = LoadConfig(mode="open", requests=40, warmup=8, qps=400.0, seed=9)
        with ConcurrentEstimationService(
            service, max_batch_size=32, max_wait_ms=1.0
        ) as server:
            report = run_load(server, scenarios, config)
        assert report.requests == 40
        assert report.errors == 0


class TestServeBench:
    def test_serve_bench_record_round_trips(self, trained_estimator, scenarios):
        service = EstimationService(trained_estimator)
        config = ServeBenchConfig(
            load=LoadConfig(mode="closed", requests=60, warmup=8, concurrency=4, seed=9),
            max_batch_size=32,
            max_wait_ms=1.0,
        )
        result = run_serve_bench(service, scenarios, config)
        record = result.to_record()
        for key in (
            "throughput_rps",
            "throughput_ratio",
            "sequential_rps",
            "latency_p99_ms",
            "p99_budget_ms",
            "p99_within_budget",
            "errors",
        ):
            assert key in record
        assert record["errors"] == 0
        assert record["throughput_rps"] > 0
        assert isinstance(result.render(), str)

    def test_standard_scenarios_mixes(self):
        tpch = standard_scenarios("tpch", pool_size=4)
        assert [s.name for s in tpch] == ["tpch-interactive", "tpch-batch8"]
        with pytest.raises(ValueError, match="unknown scenario mix"):
            standard_scenarios("nope")


class TestPoisonedRetrainRollback:
    def test_canary_rejects_poisoned_candidate_under_coalesced_fire(
        self, trained_estimator, plans, executor, tmp_path, monkeypatch
    ):
        """A poisoned background-refit candidate must never reach callers.

        The retrain controller fits a candidate whose artifact the
        FaultInjector has poisoned (CRC-valid, predicts 1e200 — only the
        swap canary can catch it) while coalesced callers hammer the
        service.  The canary must reject the candidate, the incumbent must
        keep serving bit-identically throughout, and the registry must
        record the failed promotion.
        """
        from repro.adaptive import (
            DriftEvent,
            ModelRegistry,
            ObservationLog,
            RetrainConfig,
            RetrainController,
        )
        from repro.core.serialization import load_estimator

        service = EstimationService(trained_estimator)
        direct = EstimationService(trained_estimator)
        expected = {id(plan): direct.estimate_workload([plan]) for plan in plans}

        # Feedback corpus for the refit: serve + complete every plan once.
        log = ObservationLog(capacity=64).attach(service)
        for plan in plans:
            service.estimate_workload([plan])
            assert log.complete(plan, executor.execute(plan)) is not None

        registry = ModelRegistry(tmp_path / "registry")
        registry.register(trained_estimator, note="incumbent")
        registry.promote("v0001")
        controller = RetrainController(
            service,
            log,
            registry,
            # No holdout gate: only the canary stands between the poisoned
            # candidate and the live session.
            RetrainConfig(min_observations=16, max_holdout_error=None, seed=5),
        )
        injector = FaultInjector(seed=23)
        original_fit = controller._fit_candidate

        def poisoned_fit(corpus):
            candidate = original_fit(corpus)
            path = injector.poisoned_artifact(
                candidate, tmp_path / "poisoned.bin", mode="huge"
            )
            return load_estimator(path)

        monkeypatch.setattr(controller, "_fit_candidate", poisoned_fit)

        event = DriftEvent(
            sequence=len(plans),
            resource="cpu",
            median_relative_error=0.9,
            band_hit_rate=0.1,
            n=16,
            trip_threshold=0.25,
            reason="relative-error",
        )
        stop = threading.Event()
        failures: list[BaseException] = []

        def hammer(server: ConcurrentEstimationService) -> None:
            i = 0
            while not stop.is_set():
                plan = plans[i % len(plans)]
                try:
                    _assert_identical(
                        expected[id(plan)], server.estimate_workload([plan])
                    )
                except BaseException as exc:  # repro: noqa[REPRO-R5] collected for the assert below
                    failures.append(exc)
                    return
                i += 1

        with ConcurrentEstimationService(
            service, max_batch_size=8, max_wait_ms=0.5
        ) as server:
            threads = [
                threading.Thread(target=hammer, args=(server,)) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            refit = controller.handle_drift(event)
            assert refit is not None
            controller.join(timeout=120.0)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)

        assert not failures, failures
        (outcome,) = controller.history()
        assert outcome.status == "canary-rejected"
        assert outcome.version == "v0002"
        # Incumbent untouched: same object, zero successful swaps.
        assert service.estimator is trained_estimator
        stats = service.stats.snapshot()
        assert stats.swaps == 0
        assert stats.failed_swaps == 1
        # The failed promotion is a recorded registry fact, not a deleted file.
        assert registry.active == "v0001"
        rejected = registry.manifest("v0002")
        assert rejected.status == "rejected"
        assert "canary" in rejected.note
        assert registry.artifact_path("v0002").exists()
        assert [e["event"] for e in registry.events()] == [
            "register", "promote", "register", "reject",
        ]
