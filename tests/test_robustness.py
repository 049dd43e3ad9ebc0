"""Fault-injection tests for the serving guardrails (`repro.robustness`).

Every failure class the robustness layer defends against is injected
deterministically (seeded :class:`FaultInjector`) and the expected
degradation tier, rejection or rollback is asserted:

* broken models -> SCALING / FAMILY_RATE / GLOBAL_DEFAULT ladder tiers;
* non-finite features -> flagged degradation or up-front rejection;
* corrupt / truncated / wrong-version artifacts -> codec errors;
* transient IO -> bounded retry with backoff;
* plausible-but-poisoned artifacts -> canary-failed swap with rollback.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.api import EstimationService
from repro.core.trainer import CompiledModelSets
from repro.core.serialization import EstimatorCodecError, save_estimator
from repro.features.definitions import FeatureMode
from repro.features.extractor import OperatorFeatures
from repro.robustness import (
    ArtifactSwapError,
    DegradationTier,
    FaultInjector,
    PlanValidationError,
    PlanValidator,
    load_estimator_with_retry,
    run_canary_checks,
)


@pytest.fixture(scope="module")
def plans(tpch_plans):
    return tpch_plans


@pytest.fixture(scope="module")
def extracted(trained_estimator, plans):
    return [trained_estimator.extract_plan_features(plan) for plan in plans]


@pytest.fixture(scope="module")
def artifact(trained_estimator, tmp_path_factory):
    path = tmp_path_factory.mktemp("robustness") / "model.bin"
    trained_estimator.save(path)
    return path


@pytest.fixture
def injector():
    return FaultInjector(seed=17)


def _poisonable_key(estimator, extracted):
    """A (family, resource) with a trained model set, scaling fallback and
    family rate whose family appears in the fixture workload — so every
    ladder tier below MODEL is reachable by stripping fallbacks one by one."""
    present = {of.family for plan in extracted for of in plan.values()}
    for key in sorted(estimator.model_sets, key=lambda k: (k[0].value, k[1])):
        family, _ = key
        if (
            family in present
            and key in estimator.scaling_fallbacks
            and key in estimator.family_rates
        ):
            return key
    raise AssertionError("fixture workload has no poisonable (family, resource)")


def _degraded(report):
    """Entries degraded off the model tier (families that never had a model
    set are legitimately served by the global default on clean inputs)."""
    return [e for e in report.entries if e.reason != "no-model-set"]


class TestDegradationLadder:
    def test_clean_inputs_are_bit_identical_and_undegraded(
        self, trained_estimator, plans, extracted
    ):
        guarded = trained_estimator.estimate_extracted_workload(
            plans, extracted, guardrails=True
        )
        bare = trained_estimator.estimate_extracted_workload(
            plans, extracted, guardrails=False
        )
        assert bare.degradation is None
        report = guarded.degradation
        assert report is not None
        assert not _degraded(report)
        assert not report.ood_plans
        for resource in trained_estimator.resources:
            assert np.array_equal(
                guarded.query_totals(resource), bare.query_totals(resource)
            )

    @pytest.mark.parametrize(
        "mode,reason",
        [
            ("raise", "model-error"),
            ("nan", "invalid-prediction"),
            ("negative", "invalid-prediction"),
        ],
    )
    def test_broken_model_degrades_to_scaling_tier(
        self, trained_estimator, plans, extracted, injector, mode, reason
    ):
        family, resource = _poisonable_key(trained_estimator, extracted)
        poisoned = injector.poison_model(trained_estimator, family, resource, mode=mode)
        estimate = poisoned.estimate_extracted_workload(plans, extracted, (resource,))
        degraded = _degraded(estimate.degradation)
        assert degraded
        assert {e.tier for e in degraded} == {DegradationTier.SCALING}
        assert {e.reason for e in degraded} == {reason}
        totals = estimate.query_totals(resource)
        assert np.isfinite(totals).all() and (totals >= 0.0).all()

    def test_invalid_fused_output_degrades_like_the_per_set_path(
        self, trained_estimator, plans, extracted, monkeypatch
    ):
        """A compiled set whose ensembles predict NaN is re-served on its own
        path: its rows degrade, every other row keeps its fused value."""
        family, resource = _poisonable_key(trained_estimator, extracted)
        poisoned = copy.deepcopy(trained_estimator)
        for model in poisoned.model_sets[(family, resource)].models:
            model.model_.initial_prediction_ = float("nan")
        clean = trained_estimator.estimate_extracted_workload(plans, extracted)
        estimate = poisoned.estimate_extracted_workload(plans, extracted)
        degraded = _degraded(estimate.degradation)
        assert degraded
        assert {(e.resource, e.tier, e.reason) for e in degraded} == {
            (resource, DegradationTier.SCALING, "invalid-prediction")
        }
        rows = {(e.plan_index, e.node_id) for e in degraded}
        for other in trained_estimator.resources:
            for plan_index in range(len(plans)):
                for node_id, value in estimate.operators(plan_index, other).items():
                    if other != resource or (plan_index, node_id) not in rows:
                        assert value == clean.operators(plan_index, other)[node_id]

        def refuse(self, matrices, resources):
            raise RuntimeError("fused pass disabled")

        monkeypatch.setattr(CompiledModelSets, "predict", refuse)
        per_set = poisoned.estimate_extracted_workload(plans, extracted)
        assert per_set.degradation == estimate.degradation
        for other in trained_estimator.resources:
            assert per_set.values[other].tobytes() == estimate.values[other].tobytes()

    def test_family_rate_tier_without_scaling_fallback(
        self, trained_estimator, plans, extracted, injector
    ):
        family, resource = _poisonable_key(trained_estimator, extracted)
        poisoned = injector.poison_model(trained_estimator, family, resource)
        poisoned.scaling_fallbacks.pop((family, resource))
        estimate = poisoned.estimate_extracted_workload(plans, extracted, (resource,))
        degraded = _degraded(estimate.degradation)
        assert degraded
        assert {e.tier for e in degraded} == {DegradationTier.FAMILY_RATE}
        totals = estimate.query_totals(resource)
        assert np.isfinite(totals).all() and (totals >= 0.0).all()

    def test_global_default_tier_without_family_fallbacks(
        self, trained_estimator, plans, extracted, injector
    ):
        family, resource = _poisonable_key(trained_estimator, extracted)
        poisoned = injector.poison_model(trained_estimator, family, resource)
        poisoned.scaling_fallbacks.pop((family, resource))
        poisoned.family_rates.pop((family, resource))
        estimate = poisoned.estimate_extracted_workload(plans, extracted, (resource,))
        degraded = _degraded(estimate.degradation)
        assert degraded
        assert {e.tier for e in degraded} == {DegradationTier.GLOBAL_DEFAULT}
        totals = estimate.query_totals(resource)
        assert np.isfinite(totals).all() and (totals >= 0.0).all()

    def test_exhausted_ladder_serves_explicit_zero(
        self, trained_estimator, plans, extracted, injector
    ):
        family, resource = _poisonable_key(trained_estimator, extracted)
        poisoned = injector.poison_model(trained_estimator, family, resource)
        poisoned.scaling_fallbacks.pop((family, resource))
        poisoned.family_rates.pop((family, resource))
        poisoned.fallbacks.pop(resource)
        estimate = poisoned.estimate_extracted_workload(plans, extracted, (resource,))
        degraded = _degraded(estimate.degradation)
        assert degraded
        for entry in degraded:
            assert entry.tier is DegradationTier.GLOBAL_DEFAULT
            assert entry.reason.endswith("; no-fallback-available")
            assert estimate.operators(entry.plan_index, resource)[entry.node_id] == 0.0

    def test_degradation_reports_are_deterministic(
        self, trained_estimator, plans, extracted, injector
    ):
        family, resource = _poisonable_key(trained_estimator, extracted)
        poisoned = injector.poison_model(trained_estimator, family, resource)
        first = poisoned.estimate_extracted_workload(plans, extracted, (resource,))
        second = poisoned.estimate_extracted_workload(plans, extracted, (resource,))
        assert first.degradation.entries == second.degradation.entries
        assert "degraded:" in first.degradation.summary()
        assert DegradationTier.SCALING in first.degradation.tiers_used()


class TestFeatureFaults:
    def test_corrupted_features_degrade_instead_of_crashing(
        self, trained_estimator, plans, extracted, injector
    ):
        corrupted = injector.corrupt_features(extracted, rate=0.3, kind="nan")
        estimate = trained_estimator.estimate_extracted_workload(plans, corrupted)
        reasons = {e.reason for e in estimate.degradation.entries}
        assert any(r.startswith("non-finite-features") for r in reasons)
        for resource in trained_estimator.resources:
            totals = estimate.query_totals(resource)
            assert np.isfinite(totals).all() and (totals >= 0.0).all()

    def test_validator_rejects_corrupted_features(
        self, trained_estimator, extracted, injector
    ):
        corrupted = injector.corrupt_features(extracted, kind="nan")
        validator = PlanValidator.for_estimator(trained_estimator)
        report = validator.validate_workload(corrupted)
        assert report.fatal_issues
        assert "non-finite" in report.summary()
        with pytest.raises(PlanValidationError, match="non-finite"):
            validator.require_valid(corrupted)

    def test_feature_corruption_is_deterministic(self, extracted):
        first = FaultInjector(seed=3).corrupt_features(extracted, kind="inf")
        second = FaultInjector(seed=3).corrupt_features(extracted, kind="inf")
        assert first == second
        corrupted_values = [
            value
            for plan in first
            for of in plan.values()
            for value in of.values.values()
            if not np.isfinite(value)
        ]
        assert corrupted_values  # at least one operator is always corrupted

    def test_service_reject_mode_fails_fast(
        self, trained_estimator, plans, extracted, injector
    ):
        service = EstimationService(trained_estimator, on_invalid="reject")
        corrupted = injector.corrupt_features(extracted, kind="nan")
        for plan, features in zip(plans, corrupted):
            service._feature_cache[id(plan)] = (plan, features)
        with pytest.raises(PlanValidationError):
            service.estimate_workload(plans)
        assert service.stats.workloads_served == 0

    def test_service_flag_mode_serves_and_counts(
        self, trained_estimator, plans, extracted, injector
    ):
        service = EstimationService(trained_estimator)
        corrupted = injector.corrupt_features(extracted, kind="nan")
        for plan, features in zip(plans, corrupted):
            service._feature_cache[id(plan)] = (plan, features)
        estimate = service.estimate_workload(plans)
        report = estimate.degradation
        assert report is not None and not report.clean
        assert service.stats.degraded_operators == report.count
        assert service.stats.workloads_served == 1


class TestArtifactFaults:
    def test_corrupt_artifact_rejected(self, artifact, injector, tmp_path):
        bad = injector.corrupt_artifact(artifact, tmp_path / "corrupt.bin")
        with pytest.raises(EstimatorCodecError):
            EstimationService.from_artifact(bad)

    def test_truncated_artifact_rejected(self, artifact, injector, tmp_path):
        bad = injector.truncate_artifact(artifact, tmp_path / "truncated.bin")
        with pytest.raises(EstimatorCodecError):
            EstimationService.from_artifact(bad)

    def test_wrong_version_artifact_rejected(self, artifact, injector, tmp_path):
        bad = injector.wrong_version_artifact(artifact, tmp_path / "future.bin")
        with pytest.raises(EstimatorCodecError, match="version"):
            EstimationService.from_artifact(bad)

    def test_artifact_corruption_is_deterministic(self, artifact, tmp_path):
        first = FaultInjector(seed=9).corrupt_artifact(artifact, tmp_path / "a.bin")
        second = FaultInjector(seed=9).corrupt_artifact(artifact, tmp_path / "b.bin")
        other = FaultInjector(seed=10).corrupt_artifact(artifact, tmp_path / "c.bin")
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes() != other.read_bytes()


class TestRetry:
    def test_transient_failures_are_retried_with_backoff(self, artifact, injector):
        reader = injector.transient_reader(failures=2)
        sleeps: list[float] = []
        estimator = load_estimator_with_retry(
            artifact, retries=3, backoff=0.05, sleep=sleeps.append, reader=reader
        )
        assert reader.calls == 3
        assert sleeps == [0.05, 0.1]  # exponential backoff, no sleep before try 1
        assert estimator.resources == ("cpu", "io")

    def test_exhausted_retries_surface_codec_error(self, artifact, injector):
        reader = injector.transient_reader(failures=10)
        sleeps: list[float] = []
        with pytest.raises(EstimatorCodecError, match="after 3 attempt"):
            load_estimator_with_retry(
                artifact, retries=2, backoff=0.01, sleep=sleeps.append, reader=reader
            )
        assert reader.calls == 3
        assert len(sleeps) == 2

    def test_decode_errors_are_never_retried(self, tmp_path):
        calls: list[object] = []

        def reader(path):
            calls.append(path)
            return b"\x00" * 64

        with pytest.raises(EstimatorCodecError):
            load_estimator_with_retry(
                tmp_path / "junk.bin", sleep=lambda _: None, reader=reader
            )
        assert len(calls) == 1

    def test_missing_file_is_permanent_not_retried(self, tmp_path):
        calls: list[object] = []

        def reader(path):
            calls.append(path)
            raise FileNotFoundError(path)

        with pytest.raises(FileNotFoundError):
            EstimationService.from_artifact(tmp_path / "missing.bin", reader=reader)
        assert len(calls) == 1

    def test_service_from_artifact_retries_then_serves_identically(
        self, artifact, injector, plans, trained_estimator
    ):
        reader = injector.transient_reader(failures=1)
        service = EstimationService.from_artifact(artifact, backoff=0.0, reader=reader)
        assert reader.calls == 2
        assert np.array_equal(
            service.estimate_workload(plans, ("cpu",)).query_totals("cpu"),
            trained_estimator.estimate_workload(plans, ("cpu",)).query_totals("cpu"),
        )


class TestCanaryChecks:
    def test_clean_estimator_passes(self, trained_estimator):
        report = run_canary_checks(trained_estimator)
        assert report.passed
        assert report.n_model_sets == len(trained_estimator.model_sets)
        assert report.n_predictions > 0
        assert "passed" in report.summary()

    def test_non_finite_global_fallback_fails(self, trained_estimator):
        candidate = copy.deepcopy(trained_estimator)
        candidate.fallbacks["cpu"].per_tuple = float("nan")
        report = run_canary_checks(candidate)
        assert not report.passed
        assert any(
            failure.family is None and failure.resource == "cpu"
            for failure in report.failures
        )
        assert "FAILED" in report.summary()


class TestSwapArtifact:
    def test_successful_swap_promotes_and_clears_cache(
        self, trained_estimator, artifact, plans
    ):
        service = EstimationService(trained_estimator)
        before = service.estimate_workload(plans, ("cpu",)).query_totals("cpu")
        assert len(service._feature_cache) > 0
        previous = service.swap_artifact(artifact)
        assert previous is trained_estimator
        assert service.estimator is not trained_estimator
        assert service.stats.swaps == 1 and service.stats.failed_swaps == 0
        assert len(service._feature_cache) == 0
        # The artifact holds the same trained weights: service is unchanged
        # observationally even though the estimator object was replaced.
        assert np.array_equal(
            service.estimate_workload(plans, ("cpu",)).query_totals("cpu"), before
        )

    @pytest.mark.parametrize("mode", ["nan", "huge"])
    def test_poisoned_candidate_fails_canary_and_rolls_back(
        self, trained_estimator, plans, injector, tmp_path, mode
    ):
        service = EstimationService(trained_estimator)
        before = service.estimate_workload(plans, ("cpu",)).query_totals("cpu")
        bad = injector.poisoned_artifact(
            trained_estimator, tmp_path / f"{mode}.bin", mode=mode
        )
        with pytest.raises(ArtifactSwapError, match="canary"):
            service.swap_artifact(bad)
        assert service.estimator is trained_estimator
        assert service.stats.failed_swaps == 1 and service.stats.swaps == 0
        assert np.array_equal(
            service.estimate_workload(plans, ("cpu",)).query_totals("cpu"), before
        )

    def test_corrupt_candidate_fails_load_and_rolls_back(
        self, trained_estimator, artifact, injector, tmp_path
    ):
        service = EstimationService(trained_estimator)
        bad = injector.corrupt_artifact(artifact, tmp_path / "bad.bin")
        with pytest.raises(ArtifactSwapError, match="failed to load"):
            service.swap_artifact(bad)
        assert service.estimator is trained_estimator
        assert service.stats.failed_swaps == 1

    def test_feature_mode_mismatch_rejected(self, trained_estimator, tmp_path):
        candidate = copy.deepcopy(trained_estimator)
        candidate.feature_mode = FeatureMode.ESTIMATED
        path = save_estimator(candidate, tmp_path / "estimated.bin")
        service = EstimationService(trained_estimator)
        with pytest.raises(ArtifactSwapError, match="feature mode"):
            service.swap_artifact(path)
        assert service.estimator is trained_estimator
        assert service.stats.failed_swaps == 1

    def test_candidate_missing_served_resource_rejected(
        self, trained_estimator, tmp_path
    ):
        candidate = copy.deepcopy(trained_estimator)
        candidate.resources = ("cpu",)
        for key in [k for k in candidate.model_sets if k[1] == "io"]:
            candidate.model_sets.pop(key)
        candidate.fallbacks.pop("io", None)
        path = save_estimator(candidate, tmp_path / "cpu_only.bin")
        service = EstimationService(trained_estimator)
        with pytest.raises(ArtifactSwapError, match="resource"):
            service.swap_artifact(path)
        assert service.estimator is trained_estimator
        assert service.stats.failed_swaps == 1


class TestFeatureCacheCollision:
    def test_stale_id_collision_entry_is_dropped(self, trained_estimator, plans):
        """Regression: a recycled id() must not serve another plan's features."""
        service = EstimationService(trained_estimator)
        plan, other = plans[0], plans[1]
        other_features = trained_estimator.extract_plan_features(other)
        # Simulate id() reuse: the cache maps this plan's id to a different
        # (garbage-collected in real life) plan object.
        service._feature_cache[id(plan)] = (other, other_features)
        features = service._plan_features(plan)
        assert service.stats.cache_misses == 1 and service.stats.cache_hits == 0
        assert features is not other_features
        assert features == trained_estimator.extract_plan_features(plan)
        assert service._feature_cache[id(plan)][0] is plan
        # The repopulated entry hits on the next lookup.
        assert service._plan_features(plan) is features
        assert service.stats.cache_hits == 1


class TestOutOfDistribution:
    @pytest.fixture()
    def blown(self, extracted):
        """The fixture workload with plan 0 pushed far outside the envelopes."""
        modified = list(extracted)
        modified[0] = {
            node_id: OperatorFeatures(
                family=of.family,
                values={
                    name: value * 1e12 + 1e12 for name, value in of.values.items()
                },
            )
            for node_id, of in extracted[0].items()
        }
        return modified

    def test_out_of_envelope_plans_flagged(self, trained_estimator, plans, blown):
        estimate = trained_estimator.estimate_extracted_workload(
            plans, blown, ("cpu",), ood_threshold=1.0
        )
        report = estimate.degradation
        assert 0 in report.ood_plans
        assert report.ood_plans[0] > 1.0
        assert "ood_plans" in report.summary()

    def test_validator_scores_ood_as_advisory(self, trained_estimator, blown):
        validator = PlanValidator.for_estimator(trained_estimator)
        report = validator.validate_workload(blown)
        assert not report.fatal_issues
        assert 0 in report.plans_with("out-of-distribution")
        validator.require_valid(blown)  # advisory issues never raise

    def test_unknown_family_flagged_without_envelopes(self, extracted):
        report = PlanValidator(envelopes={}).validate_workload(extracted[:2])
        assert {issue.kind for issue in report.issues} == {"unknown-family"}
        assert not report.fatal_issues
