"""Bit-identical parity: compiled flat-array kernel vs per-tree node walks.

The flat kernel (:mod:`repro.ml.flat_ensemble`) must reproduce the
sequential per-tree fold *bitwise* — same routing on NaN/inf features, same
floating-point accumulation order — across real workloads (TPC-H and the
cross-schema TPC-DS set) and hand-built edge-case trees, and survive every
artifact round trip (v1/v2 node records recompile, v3 loads the arrays
directly, optionally memory-mapped).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import EstimationService
from repro.core.estimator import _family_matrix
from repro.core.serialization import (
    estimator_from_bytes,
    estimator_to_bytes,
    load_estimator,
    save_estimator,
)
from repro.ml.flat_ensemble import FlatForest, compile_mart, compile_transform
from repro.ml.mart import MARTConfig, MARTRegressor
from repro.ml.regression_tree import RegressionTree, TreeNode
from repro.ml.transform_regression import TransformRegressor
from repro.workloads.tpcds import build_tpcds_workload


@pytest.fixture(scope="module")
def tpch_test_plans(workload_split):
    _, test = workload_split
    return [query.plan for query in test]


@pytest.fixture(scope="module")
def tpcds_plans():
    workload = build_tpcds_workload(
        scale_factor=0.05, skew_z=0.8, n_queries=16, seed=5
    )
    return [query.plan for query in workload.queries]


@pytest.fixture(scope="module")
def fitted_mart(rng_matrix):
    features, targets = rng_matrix
    model = MARTRegressor(
        MARTConfig(n_iterations=30, max_leaves=8, learning_rate=0.12, subsample=0.8)
    )
    return model.fit(features, targets)


@pytest.fixture(scope="module")
def rng_matrix():
    rng = np.random.default_rng(17)
    features = rng.uniform(0.0, 1000.0, size=(400, 6))
    targets = features[:, 0] * 3.0 + features[:, 1] ** 1.5 + rng.normal(0, 5, 400)
    return features, targets


def _per_operator(estimate, resource):
    return [estimate.operators(i, resource) for i in range(estimate.n_plans)]


class TestWorkloadParity:
    """Flat kernel == node walk on every trained model over real plans."""

    def _family_matrices(self, estimator, plans):
        rows_by_family = {}
        for plan in plans:
            for features in estimator.extract_plan_features(plan).values():
                rows_by_family.setdefault(features.family, []).append(features.values)
        return {
            family: _family_matrix(family, rows)
            for family, rows in rows_by_family.items()
        }

    @pytest.mark.parametrize("resource", ["cpu", "io"])
    def test_model_level_parity_tpch(self, trained_estimator, tpch_test_plans, resource):
        matrices = self._family_matrices(trained_estimator, tpch_test_plans)
        checked = 0
        for (family, res), model_set in trained_estimator.model_sets.items():
            if res != resource or family not in matrices:
                continue
            for combined in [*model_set.models, model_set.default_model]:
                transformed = combined.transform_matrix(matrices[family])
                assert np.array_equal(
                    combined.model_.predict(transformed),
                    combined.model_.predict_per_tree(transformed),
                )
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("resource", ["cpu", "io"])
    def test_full_stack_parity_tpch(
        self, trained_estimator, tpch_test_plans, resource, monkeypatch
    ):
        flat = trained_estimator.estimate_workload(tpch_test_plans, (resource,))
        monkeypatch.setattr(MARTRegressor, "predict", MARTRegressor.predict_per_tree)
        walked = trained_estimator.estimate_workload(tpch_test_plans, (resource,))
        assert np.array_equal(flat.query_totals(resource), walked.query_totals(resource))
        assert _per_operator(flat, resource) == _per_operator(walked, resource)

    @pytest.mark.parametrize("resource", ["cpu", "io"])
    def test_full_stack_parity_tpcds(
        self, trained_estimator, tpcds_plans, resource, monkeypatch
    ):
        """Cross-schema: the TPC-H-trained models serve TPC-DS plans."""
        flat = trained_estimator.estimate_workload(tpcds_plans, (resource,))
        monkeypatch.setattr(MARTRegressor, "predict", MARTRegressor.predict_per_tree)
        walked = trained_estimator.estimate_workload(tpcds_plans, (resource,))
        assert np.array_equal(flat.query_totals(resource), walked.query_totals(resource))
        assert _per_operator(flat, resource) == _per_operator(walked, resource)


class TestEdgeCaseParity:
    def test_single_leaf_tree(self):
        forest = FlatForest.from_trees(
            [TreeNode(value=2.5)], learning_rate=0.1, init_=1.0, n_features=3
        )
        out = forest.predict(np.zeros((5, 3)))
        assert np.array_equal(out, np.full(5, 1.0 + 0.1 * 2.5))

    def test_all_rows_one_leaf(self):
        root = TreeNode(
            value=0.0,
            feature=0,
            threshold=10.0,
            left=TreeNode(value=-4.0),
            right=TreeNode(value=7.0),
        )
        forest = FlatForest.from_trees(
            [root], learning_rate=1.0, init_=0.0, n_features=2
        )
        left_only = np.full((64, 2), 3.0)
        right_only = np.full((64, 2), 100.0)
        assert np.array_equal(forest.predict(left_only), np.full(64, -4.0))
        assert np.array_equal(forest.predict(right_only), np.full(64, 7.0))

    def test_nan_and_inf_features_match_node_walk(self, fitted_mart, rng_matrix):
        features, _ = rng_matrix
        corrupted = features[:48].copy()
        corrupted[0, 0] = np.nan
        corrupted[1, :] = np.nan
        corrupted[2, 1] = np.inf
        corrupted[3, 2] = -np.inf
        assert np.array_equal(
            fitted_mart.predict(corrupted), fitted_mart.predict_per_tree(corrupted)
        )

    def test_deep_chain_tree_uses_fallback_router(self):
        # 15 internal levels exceeds the perfect-heap depth cap, exercising
        # the generic descent path.
        leaf_value = 100.0
        node = TreeNode(value=leaf_value)
        # Root tests threshold 0; rows descend right until x <= level.
        for level in reversed(range(15)):
            node = TreeNode(
                value=0.0,
                feature=0,
                threshold=float(level),
                left=TreeNode(value=float(level)),
                right=node,
            )
        forest = FlatForest.from_trees(
            [node], learning_rate=1.0, init_=0.0, n_features=1
        )
        assert forest._tree_depths().max() > 12
        x = np.array([[14.0], [3.0], [1e9], [np.nan]], dtype=np.float64)
        expected = np.array([14.0, 3.0, leaf_value, leaf_value])
        assert np.array_equal(forest.predict(x), expected)

    def test_transform_regressor_parity(self, rng_matrix):
        features, targets = rng_matrix
        model = TransformRegressor(n_iterations=20, max_leaves=5).fit(
            features, targets
        )
        assert np.array_equal(
            model.predict(features), model.predict_per_stage(features)
        )

    def test_transform_regressor_nan_parity(self, rng_matrix):
        features, targets = rng_matrix
        model = TransformRegressor(n_iterations=12, max_leaves=5).fit(
            features, targets
        )
        corrupted = features[:32].copy()
        corrupted[0, 0] = np.nan
        corrupted[5, :] = np.inf
        with np.errstate(invalid="ignore"):
            flat = model.predict(corrupted)
            staged = model.predict_per_stage(corrupted)
        assert np.array_equal(flat, staged, equal_nan=True)


class TestCompileRoundTrips:
    def test_decompile_recompile_identical(self, fitted_mart):
        forest = compile_mart(fitted_mart)
        rebuilt = FlatForest.from_trees(
            forest.tree_root_nodes(),
            learning_rate=forest.learning_rate,
            init_=forest.init_,
            n_features=forest.n_features,
        )
        assert np.array_equal(forest.feature_id, rebuilt.feature_id)
        assert np.array_equal(forest.threshold, rebuilt.threshold)
        assert np.array_equal(forest.left, rebuilt.left)
        assert np.array_equal(forest.right, rebuilt.right)
        assert np.array_equal(forest.leaf_value, rebuilt.leaf_value)
        assert np.array_equal(forest.tree_roots, rebuilt.tree_roots)

    def test_stats_sanity(self, fitted_mart):
        stats = compile_mart(fitted_mart).stats()
        assert stats.n_trees == fitted_mart.n_trees
        assert stats.n_leaves <= stats.n_trees * fitted_mart.config.max_leaves
        assert stats.n_nodes == 2 * stats.n_leaves - stats.n_trees
        assert stats.max_depth >= 1
        assert stats.array_bytes > 0
        assert "int32" in stats.dtype_summary

    def test_transform_leaf_models_survive_decompile(self, rng_matrix):
        features, targets = rng_matrix
        model = TransformRegressor(n_iterations=8, max_leaves=5).fit(features, targets)
        forest = compile_transform(model)
        rebuilt = FlatForest.from_trees(
            forest.tree_root_nodes(),
            learning_rate=forest.learning_rate,
            init_=forest.init_,
            n_features=forest.n_features,
            clip_negative=forest.clip_negative,
            leaf_models=forest.leaf_models_by_rank(),
        )
        assert np.array_equal(
            forest.predict(features, init=forest.init_, rate=forest.learning_rate),
            rebuilt.predict(features, init=forest.init_, rate=forest.learning_rate),
        )


class TestArtifactRoundTrips:
    @pytest.mark.parametrize("version", [1, 2])
    def test_legacy_versions_recompile_identically(
        self, trained_estimator, tpch_test_plans, version
    ):
        blob = estimator_to_bytes(trained_estimator, version=version)
        loaded = estimator_from_bytes(blob)
        for resource in ("cpu", "io"):
            assert np.array_equal(
                loaded.estimate_workload(tpch_test_plans, (resource,)).query_totals(
                    resource
                ),
                trained_estimator.estimate_workload(
                    tpch_test_plans, (resource,)
                ).query_totals(resource),
            )

    def test_v3_mmap_load_identical(self, trained_estimator, tpch_test_plans, tmp_path):
        path = tmp_path / "model_v3.bin"
        save_estimator(trained_estimator, path)
        mapped = load_estimator(path, mmap=True)
        plain = load_estimator(path)
        for resource in ("cpu", "io"):
            expected = trained_estimator.estimate_workload(
                tpch_test_plans, (resource,)
            ).query_totals(resource)
            assert np.array_equal(
                mapped.estimate_workload(tpch_test_plans, (resource,)).query_totals(
                    resource
                ),
                expected,
            )
            assert np.array_equal(
                plain.estimate_workload(tpch_test_plans, (resource,)).query_totals(
                    resource
                ),
                expected,
            )

    def test_service_from_artifact_mmap(self, trained_estimator, tpch_test_plans, tmp_path):
        path = tmp_path / "model_v3.bin"
        save_estimator(trained_estimator, path)
        service = EstimationService.from_artifact(path, mmap=True)
        direct = EstimationService.from_artifact(path)
        mapped_estimate = service.estimate_workload(tpch_test_plans)
        direct_estimate = direct.estimate_workload(tpch_test_plans)
        for resource in service.resources:
            assert np.array_equal(
                mapped_estimate.query_totals(resource),
                direct_estimate.query_totals(resource),
            )


class TestCacheInvalidation:
    def test_root_reassignment_invalidates_flat_cache(self, rng_matrix):
        features, targets = rng_matrix
        tree = RegressionTree(max_leaves=6).fit(features, targets)
        tree.predict(features)
        assert tree._flat_cache is not None
        tree.root = TreeNode(value=42.0)
        assert tree._flat_cache is None
        assert np.array_equal(tree.predict(features), np.full(features.shape[0], 42.0))

    def test_mart_trees_setter_invalidates_compiled(self, rng_matrix):
        features, targets = rng_matrix
        model = MARTRegressor(MARTConfig(n_iterations=5, max_leaves=4)).fit(
            features, targets
        )
        baseline = model.predict(features)
        single = RegressionTree(max_leaves=2)
        single.root = TreeNode(value=1.0)
        single.n_features_ = features.shape[1]
        trees = model.trees_
        model.trees_ = [single]
        changed = model.predict(features)
        expected = model.initial_prediction_ + model.config.learning_rate
        assert np.array_equal(changed, np.full(features.shape[0], expected))
        model.trees_ = trees
        assert np.array_equal(model.predict(features), baseline)
