"""Tests for the ResourceEstimator API and model serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serialization import (
    ModelSizeReport,
    combined_model_size_bytes,
    deserialize_tree,
    estimator_size_bytes,
    mart_size_bytes,
    model_set_size_bytes,
    serialize_mart,
    serialize_tree,
)
from repro.features.definitions import OperatorFamily
from repro.ml.mart import MARTConfig, MARTRegressor
from repro.ml.regression_tree import RegressionTree


class TestResourceEstimator:
    def test_families_trained(self, trained_estimator):
        families = trained_estimator.families("cpu")
        assert OperatorFamily.SCAN in families
        assert OperatorFamily.FILTER in families

    def test_operator_estimates_positive(self, trained_estimator, workload_split):
        _, test = workload_split
        for query in test[:5]:
            estimates = trained_estimator.estimate_operators(query.plan, "cpu")
            assert len(estimates) == len(query.plan.operators())
            assert all(value >= 0.0 for value in estimates.values())

    def test_plan_estimate_is_sum_of_operators(self, trained_estimator, workload_split):
        _, test = workload_split
        plan = test[0].plan
        per_operator = trained_estimator.estimate_operators(plan, "cpu")
        assert trained_estimator.estimate_plan(plan, "cpu") == pytest.approx(
            sum(per_operator.values())
        )

    def test_pipeline_estimates_sum_to_plan(self, trained_estimator, workload_split):
        _, test = workload_split
        plan = test[0].plan
        pipelines = trained_estimator.estimate_pipelines(plan, "cpu")
        assert sum(pipelines.values()) == pytest.approx(
            trained_estimator.estimate_plan(plan, "cpu"), rel=1e-6
        )
        assert len(pipelines) == len(plan.pipelines())

    def test_query_estimates_are_reasonably_accurate(self, trained_estimator, workload_split):
        """In-distribution test queries should mostly fall within 2x."""
        _, test = workload_split
        ratios = []
        for query in test:
            estimate = trained_estimator.estimate_plan(query.plan, "cpu")
            actual = query.total_cpu_us
            ratios.append(max(estimate / actual, actual / estimate))
        assert float(np.median(ratios)) < 2.0

    def test_io_estimates_available(self, trained_estimator, workload_split):
        _, test = workload_split
        assert trained_estimator.estimate_plan(test[0].plan, "io") >= 0.0

    def test_unknown_resource_rejected(self, trained_estimator, workload_split):
        _, test = workload_split
        with pytest.raises(ValueError):
            trained_estimator.estimate_plan(test[0].plan, "memory")

    def test_model_set_lookup(self, trained_estimator):
        model_set = trained_estimator.model_set(OperatorFamily.SCAN, "cpu")
        assert model_set.n_models >= 1
        with pytest.raises(KeyError):
            trained_estimator.model_set(OperatorFamily.SCAN, "memory")

    def test_fallback_for_unseen_family(self, trained_estimator):
        """Families absent from training still produce finite estimates."""
        (estimate,) = trained_estimator.estimate_feature_rows(
            OperatorFamily.MERGE_JOIN, [{"COUT": 1000.0, "CIN1": 1000.0}], "cpu"
        )
        assert np.isfinite(estimate) and estimate >= 0.0


class TestSerialization:
    def _tree(self) -> RegressionTree:
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 100, size=(500, 4))
        y = 2.0 * x[:, 0] + np.where(x[:, 1] > 50, 100.0, 0.0)
        return RegressionTree(max_leaves=10).fit(x, y)

    def test_tree_roundtrip_preserves_predictions(self):
        tree = self._tree()
        restored = deserialize_tree(serialize_tree(tree))
        probe = np.random.default_rng(1).uniform(0, 100, size=(50, 4))
        assert np.allclose(tree.predict(probe), restored.predict(probe))

    def test_ten_leaf_tree_fits_in_130_bytes(self):
        """The paper's memory argument: a 10-leaf tree needs <= ~130 bytes."""
        tree = self._tree()
        assert tree.n_leaves <= 10
        assert len(serialize_tree(tree)) <= 130

    def test_mart_size_scales_with_trees(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 10, size=(200, 3))
        y = x[:, 0] * 5.0 + rng.normal(0, 0.1, 200)
        small = MARTRegressor(MARTConfig(n_iterations=10)).fit(x, y)
        large = MARTRegressor(MARTConfig(n_iterations=40)).fit(x, y)
        assert mart_size_bytes(large) > mart_size_bytes(small)
        assert len(serialize_mart(small)) == mart_size_bytes(small)

    def test_thousand_tree_model_under_130kb(self):
        """Projection of the paper's bound: 1000 trees stay under ~130 KB."""
        tree_bytes = len(serialize_tree(self._tree()))
        assert tree_bytes * 1000 <= 130 * 1024

    def test_unfitted_tree_rejected(self):
        with pytest.raises(ValueError):
            serialize_tree(RegressionTree())

    def test_estimator_size_report(self, trained_estimator):
        report = ModelSizeReport.for_estimator(trained_estimator)
        assert report.n_model_sets == len(trained_estimator.model_sets)
        assert report.n_models >= report.n_model_sets
        assert report.total_bytes == estimator_size_bytes(trained_estimator)
        assert 0 < report.largest_single_model_bytes <= report.total_bytes
        # "A few megabytes" for the whole collection in the paper; our
        # reduced boosting budget keeps it well below that.
        assert report.total_bytes < 8 * 1024 * 1024

    def test_model_set_size_accounting(self, trained_estimator):
        model_set = trained_estimator.model_set(OperatorFamily.SCAN, "cpu")
        assert model_set_size_bytes(model_set) == sum(
            combined_model_size_bytes(m) for m in model_set.models
        )
