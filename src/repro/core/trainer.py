"""Off-line model training (paper Section 6, Figure 5).

For every (operator family, resource) pair the trainer fits

* one *plain* MART model over the family's full feature set, and
* one *combined* model per scalable ("outlier-able") feature, plus a small
  number of two-feature combinations (the paper scales by at most two
  features to keep the number of stored models manageable),

and then designates as the family's **default model** the trained model with
the lowest error on the training set (the paper notes the default may
already incorporate scaling).  The result is an :class:`OperatorModelSet`
which, through the online :class:`~repro.core.model_selection.ModelSelector`
compiled from it, fully determines how an operator instance is estimated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.core.combined_model import CombinedModel
from repro.core.model_selection import BatchSelection, ModelSelector
from repro.core.scaled_model import ScalingStep
from repro.core.scaling import default_scaling_function
from repro.features.definitions import (
    OperatorFamily,
    features_for_family,
    scalable_features,
)
from repro.ml.flat_ensemble import FusedForest
from repro.ml.mart import MARTConfig, MARTRegressor

__all__ = ["TrainerConfig", "FamilyTrainingData", "OperatorModelSet", "ScalingModelTrainer"]


@dataclass(frozen=True)
class TrainerConfig:
    """Configuration of the off-line training pipeline."""

    #: Hyper-parameters of every underlying MART model.
    mart: MARTConfig = field(default_factory=MARTConfig)
    #: Minimum number of training rows required to fit models for a family.
    min_training_rows: int = 20
    #: Upper bound on the number of two-feature combined models per family.
    max_pair_models: int = 3
    #: Whether to train two-feature combined models at all.
    enable_pair_scaling: bool = True


@dataclass
class FamilyTrainingData:
    """Training rows of one operator family.

    ``feature_rows[i]`` holds the feature dictionary of the i-th observed
    operator instance and ``targets[resource][i]`` its observed resource
    usage.
    """

    family: OperatorFamily
    feature_rows: list[dict[str, float]] = field(default_factory=list)
    targets: dict[str, list[float]] = field(default_factory=dict)

    def add(self, feature_values: dict[str, float], observed: dict[str, float]) -> None:
        self.feature_rows.append(feature_values)
        for resource, value in observed.items():
            self.targets.setdefault(resource, []).append(float(value))

    def target_array(self, resource: str) -> np.ndarray:
        return np.asarray(self.targets.get(resource, []), dtype=np.float64)

    @property
    def n_rows(self) -> int:
        return len(self.feature_rows)


@dataclass
class OperatorModelSet:
    """All trained models for one (family, resource) pair.

    Selection and evaluation run on compiled state derived from the
    models: the :class:`~repro.core.model_selection.ModelSelector` tables
    and one :class:`~repro.ml.flat_ensemble.FusedForest` over every
    candidate's trees.  The tables are built when the set is created (after
    fitting or loading), the kernel on the first prediction.  Both are keyed
    on the identity of the candidates and of their MART ensembles, rebuilt
    whenever ``models`` or ``default_model`` changes, and never serialised
    or copied (``copy.deepcopy`` and pickling drop them).
    """

    family: OperatorFamily
    resource: str
    models: list[CombinedModel]
    default_model: CombinedModel

    def __post_init__(self) -> None:
        self._compiled: _CompiledSet | None = None
        self._compiled_state()

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state["_compiled"] = None
        return state

    def _compiled_state(self) -> "_CompiledSet":
        state = self._compiled
        if state is None or state.identity != _identity(self.default_model, self.models):
            state = self._compiled = _CompiledSet(self.default_model, self.models)
        return state

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Canonical raw feature order shared by every model of the set."""
        return self.default_model.feature_names

    def feature_matrix(self, feature_rows: list[dict[str, float]]) -> np.ndarray:
        """Dense ``(n, len(feature_names))`` matrix from feature dictionaries."""
        return self.default_model.feature_matrix(feature_rows)

    def select_batch(self, matrix: np.ndarray) -> BatchSelection:
        """Vectorised model selection for every row of a raw feature matrix."""
        return self._compiled_state().selector.select_batch(matrix)

    def predict_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Estimate the resource for every row of a raw feature matrix.

        Selects a model per row in one vectorised pass, evaluates every row
        with its winner's trees in one fused kernel call over the winner's
        transformed inputs, then clips and scales each winner's rows.
        Bit-identical to ``candidates[i].predict_batch`` on each winner's
        rows.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        selection = self.select_batch(matrix)
        return self._compiled_state().predict(matrix, selection)

    def predict(self, feature_values: dict[str, float]) -> float:
        """Estimate the resource for one operator instance."""
        return float(self.predict_batch(self.feature_matrix([feature_values]))[0])

    @property
    def n_models(self) -> int:
        return len(self.models)


_ENSEMBLE = attrgetter("model_")


def _identity(default_model: CombinedModel, models: list[CombinedModel]) -> tuple[int, ...]:
    """Object identities the compiled state of a model set depends on."""
    return (
        id(default_model),
        id(default_model.model_),
        *map(id, models),
        *map(id, map(_ENSEMBLE, models)),
    )


class _CompiledSet:
    """Selection tables plus the (lazily built) fused kernel of one model set."""

    __slots__ = ("selector", "identity", "ensembles", "_kernel")

    def __init__(self, default_model: CombinedModel, models: list[CombinedModel]) -> None:
        self.selector = ModelSelector(default_model, models)
        self.identity = _identity(default_model, models)
        # Holding every ensemble keeps the ids in ``identity`` from being
        # reused while this state is alive (the candidates hold themselves).
        self.ensembles = tuple(model.model_ for model in self.selector.candidates)
        self._kernel: tuple[FusedForest, list[MARTRegressor]] | None = None

    def kernel(self) -> tuple[FusedForest, list[MARTRegressor]]:
        if self._kernel is None:
            fitted: list[MARTRegressor] = []
            for model, ensemble in zip(self.selector.candidates, self.ensembles):
                if ensemble is None:
                    raise RuntimeError(f"{model.name} has not been trained")
                fitted.append(ensemble)
            self._kernel = (FusedForest([m.flat_forest() for m in fitted]), fitted)
        return self._kernel

    def predict(self, matrix: np.ndarray, selection: BatchSelection) -> np.ndarray:
        n = matrix.shape[0]
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        if selection.candidates is not self.selector.candidates:
            raise RuntimeError("model set changed between selection and prediction")
        kernel, ensembles = self.kernel()
        # Read at call time: fault injection mutates ``initial_prediction_``
        # of a compiled ensemble in place.
        init = np.asarray([m.initial_prediction_ for m in ensembles], dtype=np.float64)
        rate = np.asarray([m.config.learning_rate for m in ensembles], dtype=np.float64)
        indices = selection.indices
        raw = kernel.predict(selection.inputs, indices, init, rate)
        estimates = np.empty(n, dtype=np.float64)
        winners = np.unique(indices)
        for index in winners:
            model = self.selector.candidates[int(index)]
            rows = indices == index if winners.shape[0] > 1 else slice(None)
            values = raw[rows]
            if model.steps:
                values = np.clip(values, model.scaled_target_low_, model.scaled_target_high_)
                values = values * model.scale_factors(matrix[rows])
            estimates[rows] = np.maximum(values, 0.0)
        return estimates


class ScalingModelTrainer:
    """Trains the per-family model sets of the SCALING technique."""

    #: Preferred two-feature scaling combinations per family.  Pairs listed
    #: first are tried first; only pairs whose features are both scalable for
    #: the family/resource are used.
    _PAIR_PREFERENCES: dict[OperatorFamily, tuple[tuple[str, str], ...]] = {
        OperatorFamily.SCAN: (("TSIZE", "SOUTAVG"), ("CIN1", "SINAVG1")),
        OperatorFamily.SEEK: (("TSIZE", "SOUTAVG"), ("COUT", "SOUTAVG")),
        OperatorFamily.FILTER: (("CIN1", "SINAVG1"), ("CIN1", "COUT")),
        OperatorFamily.SORT: (("CIN1", "SINAVG1"), ("CIN1", "SOUTAVG")),
        OperatorFamily.HASH_JOIN: (("CIN1", "CIN2"), ("CIN1", "SINAVG1")),
        OperatorFamily.MERGE_JOIN: (("CIN1", "CIN2"), ("CIN1", "SINAVG1")),
        OperatorFamily.NESTED_LOOP_JOIN: (("CIN1", "SSEEKTABLE"), ("CIN1", "COUT")),
        OperatorFamily.HASH_AGGREGATE: (("CIN1", "SINAVG1"), ("CIN1", "COUT")),
        OperatorFamily.STREAM_AGGREGATE: (("CIN1", "SINAVG1"),),
        OperatorFamily.COMPUTE_SCALAR: (("CIN1", "SINAVG1"),),
        OperatorFamily.TOP: (("CIN1", "SINAVG1"),),
    }

    def __init__(self, config: TrainerConfig | None = None) -> None:
        self.config = config or TrainerConfig()

    # -- public API ----------------------------------------------------------------------------
    def train_family(
        self, data: FamilyTrainingData, resource: str
    ) -> OperatorModelSet | None:
        """Train all models of one family for one resource.

        Returns ``None`` when the family has too few training rows (the
        estimator then falls back to a neighbour-free default, see
        :class:`~repro.core.estimator.ResourceEstimator`).
        """
        targets = data.target_array(resource)
        if data.n_rows < self.config.min_training_rows or targets.size != data.n_rows:
            return None
        feature_names = features_for_family(data.family)
        models: list[CombinedModel] = []

        plain = CombinedModel(
            family=data.family,
            resource=resource,
            feature_names=feature_names,
            steps=(),
            mart_config=self.config.mart,
        )
        plain.fit(data.feature_rows, targets)
        models.append(plain)

        for steps in self._candidate_steps(data, resource):
            model = CombinedModel(
                family=data.family,
                resource=resource,
                feature_names=feature_names,
                steps=steps,
                mart_config=self.config.mart,
            )
            model.fit(data.feature_rows, targets)
            models.append(model)

        default_model = min(models, key=lambda m: (m.training_error_, m.n_scaling_features))
        return OperatorModelSet(
            family=data.family,
            resource=resource,
            models=models,
            default_model=default_model,
        )

    # -- candidate generation ---------------------------------------------------------------------
    def _candidate_steps(
        self, data: FamilyTrainingData, resource: str
    ) -> list[tuple[ScalingStep, ...]]:
        """Scaling-step combinations to train for a family/resource."""
        family = data.family
        usable = [
            feature
            for feature in scalable_features(family, resource)
            if self._feature_varies(data, feature)
        ]
        candidates: list[tuple[ScalingStep, ...]] = [
            (self._step(family, feature, resource),) for feature in usable
        ]
        if self.config.enable_pair_scaling:
            pairs_added = 0
            for first, second in self._PAIR_PREFERENCES.get(family, ()):
                if pairs_added >= self.config.max_pair_models:
                    break
                if first in usable and second in usable:
                    candidates.append(
                        (
                            self._step(family, first, resource),
                            self._step(family, second, resource),
                        )
                    )
                    pairs_added += 1
        return candidates

    def _step(self, family: OperatorFamily, feature: str, resource: str) -> ScalingStep:
        return ScalingStep(
            feature=feature, function=default_scaling_function(family, feature, resource)
        )

    @staticmethod
    def _feature_varies(data: FamilyTrainingData, feature: str) -> bool:
        """Only features that vary in training are worth scaling by."""
        values = [row.get(feature, 0.0) for row in data.feature_rows]
        if not values:
            return False
        return (max(values) - min(values)) > 1e-9 and max(values) > 0
