"""The on-line resource estimator (the SCALING technique's public API).

A trained :class:`ResourceEstimator` maps an annotated query plan to
estimates of its CPU time and logical I/O at three granularities: per
operator, per pipeline and per query.

Estimation has one batched path.  :meth:`ResourceEstimator.estimate_workload`
extracts each plan's features and hands them to
:meth:`ResourceEstimator.estimate_extracted_workload`, which the serving
layer also feeds from its per-plan feature cache.  That method groups
operator rows by family into contiguous float64 matrices and evaluates them
on the estimator's compiled model sets
(:class:`~repro.core.trainer.CompiledModelSets`): one model-selection call
per family covers every requested resource, and one fused MART kernel call
covers every family and resource of the request.  The degradation ladder
then serves the rows the models cannot, and each prediction vector is
scattered into a columnar :class:`WorkloadEstimate`: one float64 column per
resource, plan after plan, each plan's operators in pre-order.  Pipeline
and query estimates are views over those columns, and the per-plan methods
are one-line wrappers over the batch, so scalar/batch parity holds by
construction — and the batched path makes the paper's observation that
prediction overhead is negligible next to query optimisation (Section 7.3)
hold for whole workloads, not just single calls.
"""

# repro: hot-path — batched estimation code; lint rules R1/R6 apply.

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from repro.core.scaling import fit_robust_scaling
from repro.core.trainer import (
    CompiledModelSets,
    FamilyTrainingData,
    OperatorModelSet,
    ScalingModelTrainer,
    TrainerConfig,
    model_sets_identity,
)
from repro.robustness.degradation import (
    DegradationReport,
    DegradationTier,
    DegradedOperator,
    ScalingFallback,
)
from repro.robustness.envelope import FeatureEnvelope
from repro.features.definitions import (
    FeatureMode,
    OperatorFamily,
    features_for_family,
    operator_family,
)
from repro.features.extractor import FeatureExtractor, OperatorFeatures
from repro.plan.operators import PlanOperator
from repro.plan.plan import QueryPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.protocol import TrainingCorpus

__all__ = ["ResourceEstimator", "WorkloadEstimate"]

_LOGGER = logging.getLogger("repro.core.estimator")

#: The resources the library models, as in the paper.
DEFAULT_RESOURCES: tuple[str, ...] = ("cpu", "io")


def _family_matrix(
    family: OperatorFamily, feature_rows: Sequence[dict[str, float]]
) -> np.ndarray:
    """Dense matrix over the family's canonical feature order."""
    names = features_for_family(family)
    return np.array(
        [[row.get(name, 0.0) for name in names] for row in feature_rows],
        dtype=np.float64,
    ).reshape(len(feature_rows), len(names))


@dataclass
class _FallbackModel:
    """Last-resort estimate for operator families unseen during training.

    Predicts the median per-output-tuple resource usage observed across all
    training operators, multiplied by the instance's output cardinality.
    This keeps cross-workload experiments well-defined even if a plan uses
    an operator type that never appeared in the training workload.
    """

    per_tuple: float

    def predict_batch(self, cout: np.ndarray, cin1: np.ndarray) -> np.ndarray:
        rows = np.maximum(
            np.asarray(cout, dtype=np.float64), np.asarray(cin1, dtype=np.float64)
        )
        return np.maximum(self.per_tuple * rows, 0.0)

    def predict(self, feature_values: dict[str, float]) -> float:
        return float(
            self.predict_batch(
                np.array([feature_values.get("COUT", 0.0)], dtype=np.float64),
                np.array([feature_values.get("CIN1", 0.0)], dtype=np.float64),
            )[0]
        )


@dataclass
class WorkloadEstimate:
    """Batched resource estimates for a list of plans, stored as columns.

    Plans are laid out one after another, each as its operators in
    ``plan.operators()`` pre-order: rows ``offsets[i]:offsets[i + 1]`` of
    ``node_ids`` and of every ``values`` column belong to ``plans[i]``.
    Pipeline, plan and query estimates are views over the columns.  Query
    totals reduce each plan's segment on its own, in a fixed order, so a
    plan's numbers never depend on which other plans shared its batch.
    """

    plans: list[QueryPlan]
    resources: tuple[str, ...]
    #: Operator node ids (int64), plan by plan, each plan in pre-order.
    node_ids: np.ndarray
    #: Row offsets (int64, ``n_plans + 1`` entries) of each plan's segment.
    offsets: np.ndarray
    #: resource -> one float64 estimate per row of ``node_ids``.
    values: dict[str, np.ndarray]
    #: Which fallback tier served each degraded (operator, resource);
    #: ``None`` only when the estimate was produced with ``guardrails=False``.
    degradation: DegradationReport | None = None

    @property
    def n_plans(self) -> int:
        return len(self.plans)

    def operators(self, plan_index: int, resource: str) -> dict[int, float]:
        """Per-operator estimates of one plan, keyed by node id in pre-order."""
        start, stop = self.offsets[plan_index], self.offsets[plan_index + 1]
        return dict(
            zip(
                self.node_ids[start:stop].tolist(),
                self._column(resource)[start:stop].tolist(),
            )
        )

    def pipelines(self, plan_index: int, resource: str) -> dict[int, float]:
        """Per-pipeline estimates of one plan (the Section 5.2 granularity)."""
        per_operator = self.operators(plan_index, resource)
        return {
            pipeline.index: float(
                sum(per_operator[op.node_id] for op in pipeline.operators)
            )
            for pipeline in self.plans[plan_index].pipelines()
        }

    def query(self, plan_index: int, resource: str) -> float:
        """Query-level estimate of one plan (sum over its operators)."""
        return float(self.query_totals(resource)[plan_index])

    def query_totals(self, resource: str) -> np.ndarray:
        """Query-level estimates for every plan, in input order."""
        return np.add.reduceat(self._column(resource), self.offsets[:-1])

    def slice(
        self, offset: int, n_plans: int, resources: Sequence[str]
    ) -> "WorkloadEstimate":
        """The estimate of plans ``offset:offset + n_plans`` for ``resources``.

        Columns are views into this estimate, and degradation entries and
        OOD flags are re-indexed to the slice's own plan numbering, so the
        result equals a direct estimate of those plans.
        """
        stop = offset + n_plans
        first, last = int(self.offsets[offset]), int(self.offsets[stop])
        degradation = None
        if self.degradation is not None:
            degradation = DegradationReport(
                entries=tuple(
                    replace(entry, plan_index=entry.plan_index - offset)
                    for entry in self.degradation.entries
                    if offset <= entry.plan_index < stop
                    and entry.resource in resources
                ),
                ood_plans={
                    plan_index - offset: score
                    for plan_index, score in self.degradation.ood_plans.items()
                    if offset <= plan_index < stop
                },
            )
        return WorkloadEstimate(
            plans=self.plans[offset:stop],
            resources=tuple(resources),
            node_ids=self.node_ids[first:last],
            offsets=self.offsets[offset : stop + 1] - first,
            values={resource: self._column(resource)[first:last] for resource in resources},
            degradation=degradation,
        )

    def _column(self, resource: str) -> np.ndarray:
        try:
            return self.values[resource]
        except KeyError:
            raise ValueError(
                f"unknown resource {resource!r}; this estimate covers {self.resources}"
            ) from None


@dataclass
class ResourceEstimator:
    """Operator-level resource estimation with MART + scaling models.

    The class satisfies the :class:`repro.api.Estimator` protocol directly:
    :meth:`fit` trains from a training corpus (or pre-built family data),
    :meth:`predict_batch` produces query-level totals for a list of plans,
    and :meth:`save` / :meth:`load` round-trip the trained model through the
    versioned artifact codec in :mod:`repro.core.serialization`.
    """

    feature_mode: FeatureMode = FeatureMode.EXACT
    model_sets: dict[tuple[OperatorFamily, str], OperatorModelSet] = field(default_factory=dict)
    fallbacks: dict[str, _FallbackModel] = field(default_factory=dict)
    resources: tuple[str, ...] = DEFAULT_RESOURCES
    #: Training configuration used by :meth:`fit`; persisted with the model.
    trainer_config: TrainerConfig | None = None
    #: Per-family training-feature envelopes recorded at fit time; drive OOD
    #: detection (:class:`~repro.robustness.validation.PlanValidator`) and
    #: the artifact canary checks.  Empty for pre-robustness (v1) artifacts.
    envelopes: dict[OperatorFamily, FeatureEnvelope] = field(default_factory=dict)
    #: Median per-tuple rate per (family, resource) — the FAMILY_RATE tier.
    family_rates: dict[tuple[OperatorFamily, str], float] = field(default_factory=dict)
    #: Fitted ``alpha · g(cardinality)`` curves — the SCALING tier.
    scaling_fallbacks: dict[tuple[OperatorFamily, str], ScalingFallback] = field(
        default_factory=dict
    )

    #: Display name under the unified Estimator protocol (not a dataclass field).
    name = "SCALING"

    def __post_init__(self) -> None:
        self._extractor = FeatureExtractor(self.feature_mode)
        #: Serving state derived from :attr:`model_sets` (see
        #: :meth:`_compiled_models`); dropped by copies and pickling.
        self._compiled: CompiledModelSets | None = None

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state["_compiled"] = None
        return state

    # -- training -----------------------------------------------------------------------------------
    @classmethod
    def train(
        cls,
        training_data: dict[OperatorFamily, FamilyTrainingData],
        feature_mode: FeatureMode = FeatureMode.EXACT,
        resources: tuple[str, ...] = DEFAULT_RESOURCES,
        config: TrainerConfig | None = None,
    ) -> "ResourceEstimator":
        """Train model sets for every operator family present in the data.

        ``training_data`` is produced by
        :func:`repro.workloads.datasets.build_training_data`; the feature
        dictionaries it contains must have been extracted with the same
        ``feature_mode`` that will be used at estimation time.
        """
        trainer = ScalingModelTrainer(config)
        estimator = cls(feature_mode=feature_mode, resources=resources, trainer_config=config)
        for family, data in training_data.items():
            if data.feature_rows:
                estimator.envelopes[family] = FeatureEnvelope.fit(
                    family, _family_matrix(family, data.feature_rows)
                )
        for resource in resources:
            per_tuple_rates: list[float] = []
            for family, data in training_data.items():
                model_set = trainer.train_family(data, resource)
                if model_set is not None:
                    estimator.model_sets[(family, resource)] = model_set
                targets = data.target_array(resource)
                family_rates: list[float] = []
                cardinalities: list[float] = []
                for row, value in zip(data.feature_rows, targets):
                    rows = max(row.get("COUT", 0.0), row.get("CIN1", 0.0), 1.0)
                    per_tuple_rates.append(value / rows)
                    family_rates.append(value / rows)
                    cardinalities.append(max(row.get("COUT", 0.0), row.get("CIN1", 0.0)))
                if family_rates:
                    estimator.family_rates[(family, resource)] = float(
                        np.median(family_rates)
                    )
                fitted = fit_robust_scaling(
                    np.asarray(cardinalities, dtype=np.float64),
                    np.asarray(targets, dtype=np.float64),
                )
                if fitted is not None:
                    estimator.scaling_fallbacks[(family, resource)] = (
                        ScalingFallback.from_fitted(fitted)
                    )
            estimator.fallbacks[resource] = _FallbackModel(
                per_tuple=float(np.median(per_tuple_rates)) if per_tuple_rates else 0.0,
            )
        return estimator

    def fit(
        self,
        training_data: "TrainingCorpus | dict[OperatorFamily, FamilyTrainingData]",
    ) -> "ResourceEstimator":
        """Train this estimator in place (the unified Estimator protocol).

        ``training_data`` is either a :class:`repro.api.TrainingCorpus`-like
        object (anything exposing ``queries``, ``mode`` and ``resources``) or
        the pre-built ``{family: FamilyTrainingData}`` dictionary consumed by
        :meth:`train`.  A corpus overrides the instance's feature mode and
        resource tuple; a raw dictionary keeps them.
        """
        if isinstance(training_data, dict):
            family_data = training_data
            mode, resources = self.feature_mode, self.resources
        else:
            from repro.workloads.datasets import build_training_data

            mode = training_data.mode
            resources = tuple(training_data.resources)
            family_data = build_training_data(list(training_data.queries), mode)
        trained = ResourceEstimator.train(
            family_data, feature_mode=mode, resources=resources, config=self.trainer_config
        )
        self.feature_mode = trained.feature_mode
        self.resources = trained.resources
        self.model_sets = trained.model_sets
        self.fallbacks = trained.fallbacks
        self.envelopes = trained.envelopes
        self.family_rates = trained.family_rates
        self.scaling_fallbacks = trained.scaling_fallbacks
        self._extractor = FeatureExtractor(self.feature_mode)
        return self

    # -- persistence ---------------------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the trained model to ``path`` as a versioned artifact."""
        from repro.core.serialization import save_estimator

        save_estimator(self, path)

    @classmethod
    def load(cls, path: str | Path) -> "ResourceEstimator":
        """Load an artifact written by :meth:`save` (strict on version/corruption)."""
        from repro.core.serialization import load_estimator

        return load_estimator(path)

    # -- batched estimation --------------------------------------------------------------------------
    def estimate_workload(
        self,
        plans: Iterable[QueryPlan],
        resources: Sequence[str] | None = None,
        *,
        guardrails: bool = True,
        ood_threshold: float | None = None,
    ) -> WorkloadEstimate:
        """Batch-estimate a whole workload of plans in one pass.

        Extracts every plan's features and runs them through
        :meth:`estimate_extracted_workload`, the one batched path.
        """
        plans = list(plans)
        return self.estimate_extracted_workload(
            plans,
            [self.extract_plan_features(plan) for plan in plans],
            resources,
            guardrails=guardrails,
            ood_threshold=ood_threshold,
        )

    def estimate_extracted_workload(
        self,
        plans: Sequence[QueryPlan],
        extracted: Sequence[dict],
        resources: Sequence[str] | None = None,
        *,
        guardrails: bool = True,
        ood_threshold: float | None = None,
    ) -> WorkloadEstimate:
        """Batch-estimate plans whose features are already extracted.

        ``extracted[i]`` is the :meth:`extract_plan_features` result of
        ``plans[i]``; its key order (plan pre-order) is the row order of the
        plan's segment in the returned :class:`WorkloadEstimate`.  The
        serving layer feeds cached extraction results through here, so
        cached and uncached estimates are identical by construction.

        With ``guardrails`` on (the default), rows the MART models cannot
        serve — non-finite features, a raising model, non-finite or negative
        predictions — are re-estimated down the fallback ladder
        (:class:`~repro.robustness.degradation.DegradationTier`), and the
        returned estimate carries a
        :class:`~repro.robustness.degradation.DegradationReport` whose
        entries are ordered by plan, operator position and resource (in
        :attr:`resources` order).  On clean inputs the guarded path returns
        bit-identical numbers to ``guardrails=False``.  ``ood_threshold``
        additionally flags plans whose features lie outside the training
        envelopes by more than that many training-ranges.
        """
        plans = list(plans)
        resources = tuple(resources) if resources is not None else self.resources
        for resource in resources:
            self._check_resource(resource)

        node_ids: list[int] = []
        offsets = [0]
        positions: dict[OperatorFamily, list[int]] = {}
        rows_by_family: dict[OperatorFamily, list[dict[str, float]]] = {}
        for plan_features in extracted:
            for node_id, op_features in plan_features.items():
                positions.setdefault(op_features.family, []).append(len(node_ids))
                rows_by_family.setdefault(op_features.family, []).append(
                    op_features.values
                )
                node_ids.append(node_id)
            offsets.append(len(node_ids))
        rows_of = {
            family: np.asarray(rows, dtype=np.int64) for family, rows in positions.items()
        }
        matrices = {
            family: _family_matrix(family, rows)
            for family, rows in rows_by_family.items()
        }
        offset_array = np.asarray(offsets, dtype=np.int64)
        plan_of_row = np.repeat(np.arange(len(plans), dtype=np.int64), np.diff(offset_array))

        # Rows with a non-finite feature never reach a model when guarded.
        servable = {
            family: self._servable_rows(matrix) if guardrails else None
            for family, matrix in matrices.items()
        }
        fused = self._fused_predictions(matrices, servable, resources)
        values: dict[str, np.ndarray] = {}
        degraded: list[tuple[int, int, DegradedOperator]] = []
        for resource in resources:
            column = np.empty(len(node_ids), dtype=np.float64)
            for family, rows in rows_of.items():
                predictions, tiers, reasons = self._family_rows(
                    family,
                    matrices[family],
                    resource,
                    servable[family],
                    fused.get((family, resource)),
                    guardrails,
                )
                for row_index, reason in reasons.items():
                    row = int(rows[row_index])
                    entry = DegradedOperator(
                        plan_index=int(plan_of_row[row]),
                        node_id=node_ids[row],
                        resource=resource,
                        tier=DegradationTier(int(tiers[row_index])),
                        reason=reason,
                    )
                    degraded.append((row, self.resources.index(resource), entry))
                column[rows] = predictions
            values[resource] = column
        degradation = None
        if guardrails:
            degraded.sort(key=lambda item: item[:2])
            degradation = DegradationReport(
                entries=tuple(entry for _, _, entry in degraded),
                ood_plans=self._flag_ood_plans(
                    rows_of, matrices, plan_of_row, len(plans), ood_threshold
                ),
            )
        return WorkloadEstimate(
            plans=plans,
            resources=resources,
            node_ids=np.asarray(node_ids, dtype=np.int64),
            offsets=offset_array,
            values=values,
            degradation=degradation,
        )

    def predict_batch(self, plans: Sequence[Any], resource: str = "cpu") -> np.ndarray:
        """Query-level totals for a list of plans (the Estimator protocol).

        Accepts :class:`~repro.plan.plan.QueryPlan` objects or anything
        exposing a ``plan`` attribute (e.g. observed queries), so the same
        call shape works for the experiment harness and for serving.
        """
        resolved = [plan.plan if hasattr(plan, "plan") else plan for plan in plans]
        return self.estimate_workload(resolved, (resource,)).query_totals(resource)

    def estimate_feature_rows(
        self,
        family: OperatorFamily,
        feature_rows: Sequence[dict[str, float]],
        resource: str = "cpu",
    ) -> np.ndarray:
        """Batch-estimate already-extracted feature dictionaries of one family.

        The unguarded estimation path of :meth:`estimate_extracted_workload`
        (``guardrails=False``) for one family and one resource.
        """
        self._check_resource(resource)
        matrices = {family: _family_matrix(family, feature_rows)}
        fused = self._fused_predictions(matrices, {family: None}, (resource,))
        predictions, _, _ = self._family_rows(
            family, matrices[family], resource, None, fused.get((family, resource)), False
        )
        return predictions

    def extract_plan_features(self, plan: QueryPlan) -> dict[int, OperatorFeatures]:
        """Per-operator feature vectors of a plan, in this estimator's mode.

        Public so serving layers (e.g. the
        :class:`~repro.api.EstimationService`) can cache extraction results
        per plan and feed them back through :meth:`estimate_extracted_workload`.
        """
        return self._extractor.extract_plan(plan)

    # -- scalar estimation (one-row wrappers over the batch path) ------------------------------------
    def estimate_plan(self, plan: QueryPlan, resource: str = "cpu") -> float:
        """Estimate the total resource usage of a plan (sum over operators)."""
        return self.estimate_workload([plan], (resource,)).query(0, resource)

    def estimate_operators(self, plan: QueryPlan, resource: str = "cpu") -> dict[int, float]:
        """Per-operator estimates for a plan, keyed by operator node id."""
        return self.estimate_workload([plan], (resource,)).operators(0, resource)

    def estimate_pipelines(self, plan: QueryPlan, resource: str = "cpu") -> dict[int, float]:
        """Per-pipeline estimates (the scheduling granularity of Section 5.2)."""
        return self.estimate_workload([plan], (resource,)).pipelines(0, resource)

    def estimate_query(self, plan: QueryPlan, resource: str = "cpu") -> float:
        """Alias of :meth:`estimate_plan` (query-level granularity)."""
        return self.estimate_workload([plan], (resource,)).query(0, resource)

    # -- internals --------------------------------------------------------------------------------------
    def _compiled_models(self) -> CompiledModelSets:
        """The serving state of :attr:`model_sets`, rebuilt when they change."""
        compiled = self._compiled
        if compiled is None or compiled.identity != model_sets_identity(self.model_sets):
            compiled = self._compiled = CompiledModelSets(self.model_sets)
        return compiled

    @staticmethod
    def _servable_rows(matrix: np.ndarray) -> np.ndarray | None:
        """Rows whose features are all finite, or ``None`` when every row is."""
        finite = np.isfinite(matrix)
        if finite.all():
            return None
        return finite.all(axis=1)

    def _fused_predictions(
        self,
        matrices: dict[OperatorFamily, np.ndarray],
        servable: dict[OperatorFamily, np.ndarray | None],
        resources: Sequence[str],
    ) -> dict[tuple[OperatorFamily, str], np.ndarray]:
        """Model output of every compiled (family, resource) over its servable rows.

        One selection call per family and one kernel call in total (see
        :class:`~repro.core.trainer.CompiledModelSets`).  When that raises,
        the result is empty and every model set serves its rows on its own.
        """
        try:
            return self._compiled_models().predict(
                {
                    family: matrix if servable[family] is None else matrix[servable[family]]
                    for family, matrix in matrices.items()
                },
                resources,
            )
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            _LOGGER.warning(
                "fused model evaluation raised; serving each model set on its own: %s", exc
            )
            return {}

    def _family_rows(
        self,
        family: OperatorFamily,
        matrix: np.ndarray,
        resource: str,
        servable: np.ndarray | None,
        fused: np.ndarray | None,
        guardrails: bool,
    ) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
        """Predictions of one family's rows for one resource.

        Returns ``(predictions, tiers, reasons)`` where ``tiers[i]`` is the
        :class:`~repro.robustness.degradation.DegradationTier` that served
        row ``i`` and ``reasons`` maps exactly the degraded row indices to
        why they left the model tier.  ``servable`` marks the rows with
        finite features (``None``: every row) and ``fused`` is the fused
        pass's output over them, when the model set was compiled.  Without
        ``guardrails`` the model output is returned as is and nothing
        degrades.  With them, rows the model cannot serve — non-finite
        features, a raising model, non-finite or negative predictions — go
        down the ladder; on valid output the model's values are returned
        unchanged, so both modes agree bitwise on clean rows.
        """
        n = int(matrix.shape[0])
        tiers = np.full(n, int(DegradationTier.MODEL), dtype=np.int64)
        reasons: dict[int, str] = {}
        model_set = self.model_sets.get((family, resource))
        if model_set is None:
            # Families without a trained model set are served by the global
            # fallback, recorded as such.
            names = features_for_family(family)
            fallback = self.fallbacks.get(resource)
            if fallback is None:
                predictions = np.zeros(n, dtype=np.float64)
            else:
                predictions = fallback.predict_batch(
                    matrix[:, names.index("COUT")], matrix[:, names.index("CIN1")]
                )
            if guardrails:
                predictions = np.where(np.isfinite(predictions), predictions, 0.0)
                tiers[:] = int(DegradationTier.GLOBAL_DEFAULT)
                reasons = dict.fromkeys(range(n), "no-model-set")
            return predictions, tiers, reasons
        if not guardrails:
            return (model_set.predict_batch(matrix) if fused is None else fused), tiers, reasons

        model_rows = np.arange(n, dtype=np.int64)
        if servable is not None:
            for row_index in np.flatnonzero(~servable):
                reasons[int(row_index)] = "non-finite-features"
            model_rows = np.flatnonzero(servable)
        predictions = np.zeros(n, dtype=np.float64)
        if fused is not None and np.isfinite(fused).all() and (fused >= 0.0).all():
            if servable is None:
                return fused, tiers, reasons
            predictions[model_rows] = fused
        elif model_rows.size:
            # No fused output, or an invalid one: the set serves its rows on
            # its own, and its output decides which rows degrade.
            try:
                out = np.asarray(
                    model_set.predict_batch(matrix if servable is None else matrix[model_rows]),
                    dtype=np.float64,
                )
            except (ValueError, ArithmeticError, RuntimeError) as exc:
                _LOGGER.warning(
                    "model set %s/%s raised during batch prediction; degrading "
                    "%d row(s): %s",
                    family.value,
                    resource,
                    int(model_rows.size),
                    exc,
                )
                for row_index in model_rows:
                    reasons[int(row_index)] = "model-error"
            else:
                invalid = ~np.isfinite(out) | (out < 0.0)
                if servable is None and not invalid.any():
                    return out, tiers, reasons
                predictions[model_rows[~invalid]] = out[~invalid]
                for row_index in model_rows[invalid]:
                    reasons[int(row_index)] = "invalid-prediction"

        degraded = np.asarray(sorted(reasons), dtype=np.int64)
        if degraded.size:
            names = features_for_family(family)
            cout = matrix[:, names.index("COUT")]
            cin1 = matrix[:, names.index("CIN1")]
            raw_cards = np.maximum(cout[degraded], cin1[degraded])
            cards = np.where(
                np.isfinite(raw_cards), np.maximum(raw_cards, 0.0), 0.0
            )
            self._degrade_rows(
                family, resource, degraded, cards, predictions, tiers, reasons
            )
        return predictions, tiers, reasons

    def _degrade_rows(
        self,
        family: OperatorFamily,
        resource: str,
        row_indices: np.ndarray,
        cards: np.ndarray,
        predictions: np.ndarray,
        tiers: np.ndarray,
        reasons: dict[int, str],
    ) -> None:
        """Serve degraded rows down the ladder (mutates predictions/tiers).

        ``cards`` holds the sanitised (finite, non-negative) output
        cardinalities of ``row_indices``.  Each tier serves every row it can
        produce a finite estimate for; anything still unserved after the
        global default becomes an explicit zero.
        """
        remaining = np.arange(row_indices.shape[0], dtype=np.int64)
        scaling = self.scaling_fallbacks.get((family, resource))
        if scaling is not None and remaining.size:
            out = scaling.predict_rows(cards[remaining])
            served = np.isfinite(out)
            taken = remaining[served]
            predictions[row_indices[taken]] = out[served]
            tiers[row_indices[taken]] = int(DegradationTier.SCALING)
            remaining = remaining[~served]
        rate = self.family_rates.get((family, resource))
        if rate is not None and np.isfinite(rate) and remaining.size:
            out = np.maximum(float(rate) * cards[remaining], 0.0)
            served = np.isfinite(out)
            taken = remaining[served]
            predictions[row_indices[taken]] = out[served]
            tiers[row_indices[taken]] = int(DegradationTier.FAMILY_RATE)
            remaining = remaining[~served]
        fallback = self.fallbacks.get(resource)
        if fallback is not None and remaining.size:
            out = fallback.predict_batch(cards[remaining], cards[remaining])
            served = np.isfinite(out)
            taken = remaining[served]
            predictions[row_indices[taken]] = out[served]
            tiers[row_indices[taken]] = int(DegradationTier.GLOBAL_DEFAULT)
            remaining = remaining[~served]
        if remaining.size:
            predictions[row_indices[remaining]] = 0.0
            tiers[row_indices[remaining]] = int(DegradationTier.GLOBAL_DEFAULT)
            for position in remaining:
                row_index = int(row_indices[position])
                reasons[row_index] = reasons[row_index] + "; no-fallback-available"

    def _flag_ood_plans(
        self,
        rows_of: dict[OperatorFamily, np.ndarray],
        matrices: dict[OperatorFamily, np.ndarray],
        plan_of_row: np.ndarray,
        n_plans: int,
        ood_threshold: float | None,
    ) -> dict[int, float]:
        """Plans whose features leave the training envelopes, with scores."""
        if ood_threshold is None:
            return {}
        worst = np.zeros(n_plans, dtype=np.float64)
        for family, rows in rows_of.items():
            envelope = self.envelopes.get(family)
            if envelope is None:
                continue
            scores = envelope.out_scores(matrices[family])
            flagged = np.isfinite(scores) & (scores > float(ood_threshold))
            np.maximum.at(worst, plan_of_row[rows[flagged]], scores[flagged])
        return {int(plan): float(worst[plan]) for plan in np.flatnonzero(worst > 0.0)}

    def _check_resource(self, resource: str) -> None:
        if resource not in self.resources:
            raise ValueError(
                f"unknown resource {resource!r}; this estimator models {self.resources}"
            )

    # -- introspection -------------------------------------------------------------------------------------
    def families(self, resource: str = "cpu") -> list[OperatorFamily]:
        """Operator families with a trained model set for ``resource``."""
        return [family for (family, res) in self.model_sets if res == resource]

    def model_set(self, family: OperatorFamily, resource: str = "cpu") -> OperatorModelSet:
        try:
            return self.model_sets[(family, resource)]
        except KeyError:
            raise KeyError(f"no model set for family {family} and resource {resource!r}") from None

    @staticmethod
    def family_of(operator: PlanOperator) -> OperatorFamily:
        """Convenience passthrough to the feature-definition mapping."""
        return operator_family(operator.op_type)
