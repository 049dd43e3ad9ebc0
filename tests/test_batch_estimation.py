"""Batch/scalar parity of the end-to-end estimation path, plus the fallback fix.

The scalar estimation API is a one-row wrapper over the batched one, so these
tests pin the remaining nontrivial batch machinery: the per-family grouping
and scatter of ``estimate_workload``, the vectorised model selector, and the
cross-query grouping of ``ScalingTechnique.predict_queries`` — across TPC-H
and TPC-DS sample workloads and both resources.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selection_oracle
from repro.api import EstimationService
from repro.core import ResourceEstimator
from repro.core.combined_model import CombinedModel
from repro.core.estimator import _FallbackModel, _family_matrix
from repro.core.model_selection import ModelSelector
from repro.core.scaled_model import (
    MIN_DIVISOR,
    ScalingStep,
    transform_feature_dict,
    transform_targets,
)
from repro.core.scaling import SCALING_FUNCTIONS
from repro.core.serialization import load_estimator, save_estimator
from repro.core.trainer import FamilyTrainingData, ScalingModelTrainer, TrainerConfig
from repro.robustness import FaultInjector
from repro.robustness.lifecycle import run_canary_checks
from repro.baselines import ScalingTechnique
from repro.features.definitions import FeatureMode, OperatorFamily
from repro.ml.mart import MARTConfig
from repro.workloads.datasets import build_training_data, split_workload
from repro.workloads.tpcds import build_tpcds_workload

RESOURCES = ("cpu", "io")

FEATURES = ("COUT", "SOUTAVG", "SOUTTOT", "CIN1", "SINAVG1", "SINTOT1",
            "CIN2", "SINAVG2", "SINTOT2", "OUTPUTUSAGE", "CPREDICATES")


def synthetic_rows(n: int = 300, seed: int = 0, max_rows: float = 10_000.0):
    """Filter-like training rows: CPU = 0.05 * CIN1 * (1 + width/200)."""
    rng = np.random.default_rng(seed)
    rows, targets = [], []
    for _ in range(n):
        cin = float(rng.uniform(100, max_rows))
        width = float(rng.uniform(10, 200))
        cout = cin * float(rng.uniform(0.1, 0.9))
        rows.append({
            "COUT": cout, "SOUTAVG": width, "SOUTTOT": cout * width,
            "CIN1": cin, "SINAVG1": width, "SINTOT1": cin * width,
            "CIN2": 0.0, "SINAVG2": 0.0, "SINTOT2": 0.0,
            "OUTPUTUSAGE": 3.0, "CPREDICATES": 1.0,
        })
        targets.append(0.05 * cin * (1.0 + width / 200.0))
    return rows, np.array(targets)


def tiny_mart() -> MARTConfig:
    return MARTConfig(n_iterations=30, max_leaves=8, learning_rate=0.2, subsample=1.0)


@pytest.fixture(scope="module")
def tpcds_split():
    workload = build_tpcds_workload(scale_factor=0.1, skew_z=0.8, n_queries=36, seed=13)
    return split_workload(workload, train_fraction=0.75, seed=5)


@pytest.fixture(scope="module")
def tpcds_estimator(tpcds_split, tiny_trainer_config):
    train, _ = tpcds_split
    training_data = build_training_data(train, FeatureMode.EXACT)
    return ResourceEstimator.train(
        training_data, FeatureMode.EXACT, resources=RESOURCES, config=tiny_trainer_config
    )


def _assert_workload_matches_scalar(estimator, plans):
    estimate = estimator.estimate_workload(plans, RESOURCES)
    assert estimate.n_plans == len(plans)
    for resource in RESOURCES:
        totals = estimate.query_totals(resource)
        assert totals.shape == (len(plans),)
        for index, plan in enumerate(plans):
            scalar_ops = estimator.estimate_operators(plan, resource)
            assert list(estimate.operators(index, resource).items()) == list(
                scalar_ops.items()
            )
            assert estimate.pipelines(index, resource) == estimator.estimate_pipelines(
                plan, resource
            )
            assert estimate.query(index, resource) == estimator.estimate_plan(plan, resource)
            assert totals[index] == estimate.query(index, resource)


class TestEstimateWorkloadParity:
    def test_tpch_batch_matches_scalar(self, trained_estimator, workload_split):
        _, test = workload_split
        _assert_workload_matches_scalar(trained_estimator, [q.plan for q in test])

    def test_tpcds_batch_matches_scalar(self, tpcds_estimator, tpcds_split):
        _, test = tpcds_split
        _assert_workload_matches_scalar(tpcds_estimator, [q.plan for q in test])

    def test_unknown_resource_rejected(self, trained_estimator, workload_split):
        _, test = workload_split
        with pytest.raises(ValueError):
            trained_estimator.estimate_workload([test[0].plan], ("memory",))
        estimate = trained_estimator.estimate_workload([test[0].plan], ("cpu",))
        with pytest.raises(ValueError):
            estimate.query_totals("io")

    def test_empty_workload(self, trained_estimator):
        estimate = trained_estimator.estimate_workload([])
        assert estimate.n_plans == 0
        assert estimate.query_totals("cpu").shape == (0,)


class TestScalingTechniqueBatch:
    def test_predict_queries_matches_per_query(self, workload_split, tiny_trainer_config):
        train, test = workload_split
        technique = ScalingTechnique(trainer_config=tiny_trainer_config)
        technique.fit(train, "cpu", FeatureMode.EXACT)
        batched = technique.predict_queries(test)
        singles = np.array([technique.predict_query(query) for query in test])
        assert batched == pytest.approx(singles, rel=1e-9)

    def test_empty_query_list(self, workload_split, tiny_trainer_config):
        train, _ = workload_split
        technique = ScalingTechnique(trainer_config=tiny_trainer_config)
        technique.fit(train, "cpu", FeatureMode.EXACT)
        assert technique.predict_queries([]).shape == (0,)


class TestCombinedModelBatch:
    def _outlier_rows(self, n: int = 64):
        """Training-range rows mixed with far-out-of-range outliers."""
        rows, _ = synthetic_rows(n, seed=42)
        for i, row in enumerate(rows):
            if i % 3 == 0:
                row["CIN1"] = 1_000_000.0 * (1 + i)
                row["SINTOT1"] = row["CIN1"] * row["SINAVG1"]
        return rows

    def test_predict_batch_matches_scalar(self):
        rows, targets = synthetic_rows(max_rows=5_000.0)
        for steps in (
            (),
            (ScalingStep("CIN1", SCALING_FUNCTIONS["linear"]),),
            (
                ScalingStep("CIN1", SCALING_FUNCTIONS["linear"]),
                ScalingStep("SINAVG1", SCALING_FUNCTIONS["linear"]),
            ),
        ):
            model = CombinedModel(OperatorFamily.FILTER, "cpu", FEATURES, steps, tiny_mart())
            model.fit(rows, targets)
            probe = self._outlier_rows()
            batched = model.predict_batch(model.feature_matrix(probe))
            singles = np.array([model.predict(row) for row in probe])
            assert batched == pytest.approx(singles, rel=1e-12)

    def test_predict_batch_rejects_wrong_width(self):
        rows, targets = synthetic_rows(50)
        model = CombinedModel(OperatorFamily.FILTER, "cpu", FEATURES, (), tiny_mart())
        model.fit(rows, targets)
        with pytest.raises(ValueError):
            model.predict_batch(np.zeros((3, len(FEATURES) + 1)))

    def test_trained_model_set_batch_matches_scalar(self):
        rows, targets = synthetic_rows(300, max_rows=5_000.0)

        data = FamilyTrainingData(family=OperatorFamily.FILTER)
        for row, target in zip(rows, targets):
            data.add(row, {"cpu": float(target)})
        trainer = ScalingModelTrainer(TrainerConfig(mart=tiny_mart(), max_pair_models=1))
        model_set = trainer.train_family(data, "cpu")
        assert model_set is not None

        probe = self._outlier_rows()
        matrix = model_set.feature_matrix(probe)
        batched = model_set.predict_batch(matrix)
        singles = np.array([model_set.predict(row) for row in probe])
        assert batched == pytest.approx(singles, rel=1e-12)

    def test_model_set_batch_routes_rows_to_different_models(self):
        from repro.core.trainer import OperatorModelSet

        rows, targets = synthetic_rows(max_rows=5_000.0)
        plain = CombinedModel(OperatorFamily.FILTER, "cpu", FEATURES, (), tiny_mart())
        plain.fit(rows, targets)
        scaled = CombinedModel(
            OperatorFamily.FILTER, "cpu", FEATURES,
            (ScalingStep("CIN1", SCALING_FUNCTIONS["linear"]),), tiny_mart(),
        )
        scaled.fit(rows, targets)
        model_set = OperatorModelSet(
            family=OperatorFamily.FILTER, resource="cpu",
            models=[plain, scaled], default_model=plain,
        )
        probe = self._outlier_rows()
        matrix = model_set.feature_matrix(probe)
        selection = model_set.select_batch(matrix)
        # In-range rows keep the plain default; CIN1 outliers switch to the
        # scaled model — the scatter path must handle both groups in one call.
        assert len(np.unique(selection.indices)) == 2
        batched = model_set.predict_batch(matrix)
        singles = np.array([model_set.predict(row) for row in probe])
        assert batched == pytest.approx(singles, rel=1e-12)

    def test_transform_matrix_matches_reference_dict_transform(self):
        """transform_matrix must agree with the scalar reference in scaled_model.

        The dict functions are the Section 6.1 specification; the matrix path
        is the production implementation — this pins them together so neither
        can drift silently.
        """
        rows = self._outlier_rows(32)
        targets = np.linspace(1.0, 500.0, len(rows))
        for steps in (
            (),
            (ScalingStep("CIN1", SCALING_FUNCTIONS["linear"]),),
            (ScalingStep("CIN1", SCALING_FUNCTIONS["nlogn"]),),
            (
                ScalingStep("CIN1", SCALING_FUNCTIONS["linear"]),
                ScalingStep("SINAVG1", SCALING_FUNCTIONS["linear"]),
            ),
        ):
            model = CombinedModel(OperatorFamily.FILTER, "cpu", FEATURES, steps, tiny_mart())
            matrix = model.transform_matrix(model.feature_matrix(rows))
            reference = np.array(
                [
                    [transform_feature_dict(row, steps).get(n, 0.0) for n in model.input_features_]
                    for row in rows
                ]
            )
            assert matrix == pytest.approx(reference, rel=1e-12)
            scaled = model._step_factors(model.feature_matrix(rows), floor=MIN_DIVISOR)
            assert targets / scaled == pytest.approx(
                transform_targets(rows, targets, steps), rel=1e-12
            )

    def test_selector_batch_matches_scalar(self):
        rows, targets = synthetic_rows(max_rows=5_000.0)
        plain = CombinedModel(OperatorFamily.FILTER, "cpu", FEATURES, (), tiny_mart())
        plain.fit(rows, targets)
        scaled = CombinedModel(
            OperatorFamily.FILTER, "cpu", FEATURES,
            (ScalingStep("CIN1", SCALING_FUNCTIONS["linear"]),), tiny_mart(),
        )
        scaled.fit(rows, targets)
        probe = self._outlier_rows()
        selector = ModelSelector(plain, [plain, scaled])
        matrix = plain.feature_matrix(probe)
        batch = selector.select_batch(matrix)
        assert len(np.unique(batch.indices)) == 2
        for i, row in enumerate(probe):
            single = selector.select_batch(matrix[i : i + 1])
            index, ratio, used_default = selection_oracle.select(plain, [plain, scaled], row)
            assert int(batch.indices[i]) == int(single.indices[0]) == index
            assert batch.max_out_ratios[i] == single.max_out_ratios[0] == ratio
            assert bool(batch.used_default[i]) == bool(single.used_default[0]) == used_default


class TestCompiledState:
    """Lifecycle of a model set's compiled selection tables and fused kernel."""

    @staticmethod
    def _probe(model_set) -> np.ndarray:
        rows, _ = synthetic_rows(60, seed=8)
        for i, row in enumerate(rows):
            if i % 2:
                row["CIN1"] *= 1e4
                row["SOUTAVG"] *= 50.0
        return model_set.feature_matrix(rows)

    @staticmethod
    def _probe_family(model_set) -> np.ndarray:
        rng = np.random.default_rng(4)
        return rng.uniform(0.0, 1e4, size=(40, len(model_set.feature_names)))

    @staticmethod
    def _trained_set():
        rows, targets = synthetic_rows(200, max_rows=5_000.0)
        data = FamilyTrainingData(family=OperatorFamily.FILTER)
        for row, target in zip(rows, targets):
            data.add(row, {"cpu": float(target)})
        trainer = ScalingModelTrainer(TrainerConfig(mart=tiny_mart(), max_pair_models=1))
        model_set = trainer.train_family(data, "cpu")
        assert model_set is not None
        return model_set

    def test_new_default_on_a_deep_copy_rebuilds_the_tables(self):
        model_set = self._trained_set()
        matrix = self._probe(model_set)
        before = model_set.select_batch(matrix)
        clone = copy.deepcopy(model_set)
        assert np.array_equal(clone.select_batch(matrix).indices, before.indices)
        clone.default_model = next(m for m in clone.models if m is not clone.default_model)
        after = clone.select_batch(matrix)
        assert not np.array_equal(after.indices, before.indices)
        for i in range(matrix.shape[0]):
            row = dict(zip(clone.feature_names, matrix[i]))
            index, _, used_default = selection_oracle.select(
                clone.default_model, clone.models, row
            )
            assert int(after.indices[i]) == index
            assert bool(after.used_default[i]) == used_default
        assert all(a is b for a, b in zip(after.candidates, clone.models))
        # The original keeps its own default and its own candidates.
        again = model_set.select_batch(matrix)
        assert np.array_equal(again.indices, before.indices)
        assert all(a is b for a, b in zip(again.candidates, model_set.models))

    def test_replaced_candidate_rebuilds_the_kernel(self):
        model_set = self._trained_set()
        matrix = self._probe(model_set)
        before = model_set.predict_batch(matrix)
        position = int(np.bincount(model_set.select_batch(matrix).indices).argmax())
        replacement = copy.deepcopy(model_set.models[position])
        assert replacement.model_ is not None
        replacement.model_.initial_prediction_ += 1.0
        model_set.models[position] = replacement
        selection = model_set.select_batch(matrix)
        assert selection.candidates[position] is replacement
        estimates = model_set.predict_batch(matrix)
        won = selection.indices == position
        assert won.any()
        assert estimates[won].tobytes() == replacement.predict_batch(matrix[won]).tobytes()
        assert not np.array_equal(estimates[won], before[won])

    def test_in_place_poison_reaches_the_canary(self, trained_estimator):
        estimator = copy.deepcopy(trained_estimator)
        key = min(estimator.model_sets, key=lambda k: (k[0].value, k[1]))
        model_set = estimator.model_sets[key]
        matrix = self._probe_family(model_set)
        assert np.isfinite(model_set.predict_batch(matrix)).all()  # compiles the kernel
        for model in model_set.models:
            assert model.model_ is not None
            model.model_.initial_prediction_ = float("nan")
        assert np.isnan(model_set.predict_batch(matrix)).all()
        report = run_canary_checks(estimator)
        assert [(f.family, f.resource) for f in report.failures] == [key]

    @pytest.mark.parametrize("mode", ["nan", "huge"])
    def test_poisoned_artifact_fails_the_canary(self, trained_estimator, tmp_path, mode):
        path = FaultInjector(seed=1).poisoned_artifact(
            trained_estimator, tmp_path / f"{mode}.bin", mode=mode
        )
        report = run_canary_checks(load_estimator(path))
        assert not report.passed
        assert run_canary_checks(trained_estimator).passed

    @pytest.fixture(scope="class")
    def loaded(self, trained_estimator, tmp_path_factory):
        """The estimator through every artifact version, plus a v3 mmap load."""
        directory = tmp_path_factory.mktemp("versions")
        loaded = {}
        for version in (1, 2, 3):
            path = save_estimator(trained_estimator, directory / f"v{version}.bin", version=version)
            loaded[f"v{version}"] = load_estimator(path)
        loaded["v3-mmap"] = load_estimator(directory / "v3.bin", mmap=True)
        return loaded

    @settings(max_examples=25, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 1_000), min_size=1, max_size=5),
        resources=st.sampled_from([("cpu",), ("io",), ("cpu", "io")]),
        scale=st.sampled_from([1.0, 1e3, 1e-3, 1e300]),
    )
    def test_every_artifact_version_and_mmap_selects_the_same(
        self, trained_estimator, workload_split, loaded, picks, resources, scale
    ):
        _, test = workload_split
        plans = [test[pick % len(test)].plan for pick in picks]
        features = [trained_estimator.extract_plan_features(plan) for plan in plans]
        features = [
            {
                node: type(op)(family=op.family, values={
                    name: value * scale for name, value in op.values.items()
                })
                for node, op in plan_features.items()
            }
            for plan_features in features
        ]
        with np.errstate(all="ignore"):
            self._check_loads(trained_estimator, loaded, plans, features, resources)

    @staticmethod
    def _check_loads(trained_estimator, loaded, plans, features, resources):
        # v1 artifacts carry no fallback ladder, so whole estimates are
        # compared for the v3 loads; every version selects and predicts alike.
        expected = trained_estimator.estimate_extracted_workload(
            plans, features, resources, ood_threshold=0.5
        )
        for estimator in (loaded["v3"], loaded["v3-mmap"]):
            actual = estimator.estimate_extracted_workload(
                plans, features, resources, ood_threshold=0.5
            )
            for resource in resources:
                assert actual.values[resource].tobytes() == expected.values[resource].tobytes()
            assert actual.degradation == expected.degradation
        for family in {op.family for plan in features for op in plan.values()}:
            rows = [op.values for plan in features for op in plan.values() if op.family == family]
            matrix = _family_matrix(family, rows)
            for resource in resources:
                if (family, resource) not in trained_estimator.model_sets:
                    continue
                reference = trained_estimator.model_sets[(family, resource)]
                selection = reference.select_batch(matrix)
                values = reference.predict_batch(matrix)
                for estimator in loaded.values():
                    model_set = estimator.model_sets[(family, resource)]
                    actual = model_set.select_batch(matrix)
                    assert np.array_equal(actual.indices, selection.indices)
                    assert actual.max_out_ratios.tobytes() == selection.max_out_ratios.tobytes()
                    assert np.array_equal(actual.used_default, selection.used_default)
                    assert model_set.predict_batch(matrix).tobytes() == values.tobytes()

    # -- the estimator's compiled state (per-family selectors + one kernel) --------------------

    @staticmethod
    def _workload(workload_split):
        _, test = workload_split
        return [query.plan for query in test[:8]]

    @staticmethod
    def _values(estimator, plans) -> list[bytes]:
        estimate = estimator.estimate_workload(plans, RESOURCES)
        return [estimate.values[resource].tobytes() for resource in RESOURCES]

    def test_poison_model_on_a_deep_copy_rebuilds_the_compiled_state(
        self, trained_estimator, workload_split
    ):
        plans = self._workload(workload_split)
        before = self._values(trained_estimator, plans)
        compiled = trained_estimator._compiled
        assert compiled is not None
        extracted = [trained_estimator.extract_plan_features(plan) for plan in plans]
        family = next(iter(extracted[0].values())).family
        poisoned = FaultInjector(seed=2).poison_model(trained_estimator, family, "cpu", "nan")
        assert poisoned._compiled is None  # dropped by the deep copy
        estimate = poisoned.estimate_workload(plans, RESOURCES)
        assert poisoned._compiled is not None and poisoned._compiled is not compiled
        degraded = {(e.node_id, e.resource) for e in estimate.degradation.entries}
        assert any(resource == "cpu" for _, resource in degraded)
        assert all(resource == "cpu" for _, resource in degraded)
        # The original keeps its compiled state and its numbers.
        assert self._values(trained_estimator, plans) == before
        assert trained_estimator._compiled is compiled

    def test_in_place_fit_rebuilds_the_compiled_state(
        self, trained_estimator, workload_split, tiny_trainer_config
    ):
        train, _ = workload_split
        plans = self._workload(workload_split)
        estimator = copy.deepcopy(trained_estimator)
        self._values(estimator, plans)
        compiled = estimator._compiled
        corpus = build_training_data(train[: len(train) // 2], FeatureMode.EXACT)
        estimator.fit(corpus)
        refit = self._values(estimator, plans)
        assert estimator._compiled is not compiled
        fresh = ResourceEstimator.train(
            corpus, FeatureMode.EXACT, resources=RESOURCES, config=tiny_trainer_config
        )
        assert refit == self._values(fresh, plans)
        assert refit != self._values(trained_estimator, plans)

    def test_swap_artifact_rebuilds_the_compiled_state(
        self, trained_estimator, workload_split, tiny_trainer_config, tmp_path
    ):
        train, _ = workload_split
        plans = self._workload(workload_split)
        service = EstimationService(copy.deepcopy(trained_estimator))
        service.estimate_workload(plans, RESOURCES)
        incumbent = service.estimator
        assert incumbent._compiled is not None
        candidate = ResourceEstimator.train(
            build_training_data(train[: len(train) // 2], FeatureMode.EXACT),
            FeatureMode.EXACT,
            resources=RESOURCES,
            config=tiny_trainer_config,
        )
        path = save_estimator(candidate, tmp_path / "candidate.bin")
        assert service.swap_artifact(path) is incumbent
        served = service.estimate_workload(plans, RESOURCES)
        assert service.estimator._compiled is not incumbent._compiled
        expected = load_estimator(path).estimate_workload(plans, RESOURCES)
        for resource in RESOURCES:
            assert served.values[resource].tobytes() == expected.values[resource].tobytes()

    def test_pickling_drops_the_compiled_state(self, trained_estimator, workload_split):
        plans = self._workload(workload_split)
        before = self._values(trained_estimator, plans)
        assert trained_estimator._compiled is not None
        # The state pickle would write (the scaling functions themselves are
        # not picklable; artifacts go through the codec).
        state = trained_estimator.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
        assert state["_compiled"] is None
        assert state["model_sets"] is trained_estimator.model_sets
        assert trained_estimator._compiled is not None
        clone = copy.copy(trained_estimator)
        clone.__dict__.update(state)
        assert self._values(clone, plans) == before
        assert clone._compiled is not trained_estimator._compiled


class TestFallbackModel:
    """Regression tests for the fallback constant bug (estimator.py).

    The seed computed ``constant = median(targets) * 0.0`` — a dead term that
    was always 0.  The chosen fix drops the constant entirely: the fallback
    predicts the median per-output-tuple rate times the instance's
    cardinality, exactly as its docstring always claimed.
    """

    def test_no_constant_offset(self, trained_estimator):
        fallback = trained_estimator.fallbacks["cpu"]
        assert fallback.predict({"COUT": 0.0, "CIN1": 0.0}) == 0.0
        assert not hasattr(fallback, "constant")

    def test_prediction_is_per_tuple_rate_times_rows(self, trained_estimator):
        fallback = trained_estimator.fallbacks["cpu"]
        assert fallback.per_tuple > 0.0
        assert fallback.predict({"COUT": 1_000.0}) == pytest.approx(
            fallback.per_tuple * 1_000.0
        )
        # max(COUT, CIN1) drives the estimate.
        assert fallback.predict({"COUT": 10.0, "CIN1": 5_000.0}) == pytest.approx(
            fallback.per_tuple * 5_000.0
        )

    def test_batch_matches_scalar(self):
        fallback = _FallbackModel(per_tuple=0.25)
        cout = np.array([0.0, 10.0, 1_000.0])
        cin1 = np.array([5.0, 0.0, 2_000.0])
        batched = fallback.predict_batch(cout, cin1)
        singles = [
            fallback.predict({"COUT": c, "CIN1": i}) for c, i in zip(cout, cin1)
        ]
        assert batched == pytest.approx(singles)

    def test_unseen_family_routed_through_fallback(self, trained_estimator):
        families = trained_estimator.families("cpu")
        unseen = next(f for f in OperatorFamily if f not in families)
        estimates = trained_estimator.estimate_feature_rows(
            unseen, [{"COUT": 100.0}, {"COUT": 200.0}], "cpu"
        )
        assert estimates[1] == pytest.approx(2 * estimates[0])


def test_mart_config_used_for_batch_suite_is_small():
    """Guard: the parity suite must stay fast (tiny boosting budgets only)."""
    assert tiny_mart().n_iterations <= 50
    assert MARTConfig().n_iterations >= 100
