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
:class:`CompiledModelSets` compiles all model sets of an estimator for
serving: one stacked selector per family and one fused kernel.
"""

# repro: hot-path — batched estimation code; lint rules R1/R6 apply.

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping, Sequence

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

__all__ = [
    "TrainerConfig",
    "FamilyTrainingData",
    "OperatorModelSet",
    "CompiledModelSets",
    "ScalingModelTrainer",
]


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
    or copied (``copy.deepcopy`` and pickling drop them).  An estimator
    serves its sets through :class:`CompiledModelSets` instead, which
    selects with the same :class:`~repro.core.model_selection.ModelSelector`
    (stacked over the family's resources) and gives the same values, so the
    per-set kernel is only built when a set predicts on its own.
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

    @property
    def candidates(self) -> list[CombinedModel]:
        """``models`` plus the default (unless it is one of them), in selection order."""
        return self._compiled_state().selector.candidates

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
_INIT = attrgetter("initial_prediction_")
_RATE = attrgetter("config.learning_rate")


def _identity(default_model: CombinedModel, models: list[CombinedModel]) -> tuple[int, ...]:
    """Object identities the compiled state of a model set depends on."""
    return (
        id(default_model),
        id(default_model.model_),
        *map(id, models),
        *map(id, map(_ENSEMBLE, models)),
    )


def _fitted(candidates: Sequence[CombinedModel]) -> list[MARTRegressor]:
    fitted: list[MARTRegressor] = []
    for model in candidates:
        if model.model_ is None:
            raise RuntimeError(f"{model.name} has not been trained")
        fitted.append(model.model_)
    return fitted


def _current(ensembles: Sequence[MARTRegressor]) -> tuple[np.ndarray, np.ndarray]:
    """Every ensemble's initial prediction and learning rate, read now.

    Read at call time: fault injection mutates ``initial_prediction_`` of a
    compiled ensemble in place.
    """
    count = len(ensembles)
    return (
        np.fromiter(map(_INIT, ensembles), dtype=np.float64, count=count),
        np.fromiter(map(_RATE, ensembles), dtype=np.float64, count=count),
    )


def _finish(
    candidates: Sequence[CombinedModel], indices: np.ndarray, raw: np.ndarray, matrix: np.ndarray
) -> np.ndarray:
    """Clip and scale each row's raw kernel output as its winner's ``predict_batch`` does."""
    estimates = np.empty(indices.shape[0], dtype=np.float64)
    winners = set(indices.tolist())
    for index in winners:
        model = candidates[index]
        rows = indices == index if len(winners) > 1 else slice(None)
        values = raw[rows]
        if model.steps:
            values = np.clip(values, model.scaled_target_low_, model.scaled_target_high_)
            values = values * model.scale_factors(matrix[rows])
        estimates[rows] = np.maximum(values, 0.0)
    return estimates


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
            fitted = _fitted(self.selector.candidates)
            self._kernel = (FusedForest([m.flat_forest() for m in fitted]), fitted)
        return self._kernel

    def predict(self, matrix: np.ndarray, selection: BatchSelection) -> np.ndarray:
        if matrix.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        if selection.candidates is not self.selector.candidates:
            raise RuntimeError("model set changed between selection and prediction")
        kernel, ensembles = self.kernel()
        init, rate = _current(ensembles)
        raw = kernel.predict(selection.inputs, selection.indices, init, rate)
        return _finish(self.selector.candidates, selection.indices, raw, matrix)


ModelSetKey = tuple[OperatorFamily, str]


def model_sets_identity(model_sets: Mapping[ModelSetKey, object]) -> tuple[object, ...]:
    """Object identities :class:`CompiledModelSets` of ``model_sets`` depends on."""
    identity: list[object] = []
    for key, model_set in model_sets.items():
        identity += (key, id(model_set))
        if isinstance(model_set, OperatorModelSet):
            identity += _identity(model_set.default_model, model_set.models)
    return tuple(identity)


class _FamilyPlan:
    """One family's stacked selector over the requested resources."""

    __slots__ = ("keys", "selector", "base")

    def __init__(self, sets: dict[ModelSetKey, OperatorModelSet], base: np.ndarray) -> None:
        self.keys = list(sets)
        self.selector = ModelSelector.stacked(
            [(model_set.default_model, model_set.models) for model_set in sets.values()]
        )
        #: Kernel member index of each resource's first candidate.
        self.base = base


class CompiledModelSets:
    """Every model set of an estimator behind per-family selectors and one kernel.

    The model sets of each family share the family's raw feature order, so
    one :meth:`ModelSelector.stacked <repro.core.model_selection.ModelSelector.stacked>`
    selector per (family, requested resources) picks the winners of every
    resource in one pass, and one
    :class:`~repro.ml.flat_ensemble.FusedForest` over every candidate of
    every set evaluates all of them in one kernel call: a row's member is
    its set's base offset plus its winner.  Each (family, resource) is then
    clipped and scaled as :meth:`OperatorModelSet.predict_batch` does, so
    its values equal that method's bitwise.

    Only trained :class:`OperatorModelSet` entries over their family's
    canonical feature order are compiled; any other entry is left to its own
    ``predict_batch``.  The state is derived: :attr:`identity` is compared
    against :func:`model_sets_identity` by the owner, and the state holds
    every set it was built from, so those identities stay unique while it
    lives.
    """

    def __init__(self, model_sets: Mapping[ModelSetKey, object]) -> None:
        self.identity = model_sets_identity(model_sets)
        self._served: dict[ModelSetKey, OperatorModelSet] = {}
        self._base: dict[ModelSetKey, int] = {}
        members: list[CombinedModel] = []
        for key, model_set in model_sets.items():
            if (
                isinstance(model_set, OperatorModelSet)
                and model_set.feature_names == features_for_family(key[0])
                and all(model.model_ is not None for model in model_set.candidates)
            ):
                self._served[key] = model_set
                self._base[key] = len(members)
                members += model_set.candidates
        # Holding every set, candidate and ensemble keeps the ids in
        # ``identity`` from being reused while this state is alive.
        self._held = (dict(model_sets), members)
        self._ensembles = _fitted(members)
        self._kernel = FusedForest([m.flat_forest() for m in self._ensembles])
        # Built on first use per requested resource tuple; two threads may
        # both build one, and either result is the same.
        self._plans: dict[tuple[OperatorFamily, tuple[str, ...]], _FamilyPlan | None] = {}

    def _plan(self, family: OperatorFamily, resources: tuple[str, ...]) -> _FamilyPlan | None:
        key = (family, resources)
        if key not in self._plans:
            sets = {
                (family, resource): self._served[(family, resource)]
                for resource in resources
                if (family, resource) in self._served
            }
            base = np.asarray([self._base[k] for k in sets], dtype=np.intp)
            self._plans[key] = _FamilyPlan(sets, base) if sets else None
        return self._plans[key]

    def predict(
        self, matrices: Mapping[OperatorFamily, np.ndarray], resources: Sequence[str]
    ) -> dict[ModelSetKey, np.ndarray]:
        """Estimates of every compiled (family, resource) over its family's rows.

        One selection call per family, one kernel call in total.  Keys
        without a compiled model set are absent from the result.
        """
        resources = tuple(resources)
        blocks = []
        n_cells = width = 0
        for family, matrix in matrices.items():
            plan = self._plan(family, resources)
            if plan is None or not matrix.shape[0]:
                continue
            indices, inputs = plan.selector.select_stacked(matrix)
            blocks.append((plan, matrix, indices, inputs))
            n_cells += indices.size
            width = max(width, inputs.shape[2])
        if not blocks:
            return {}
        features = np.zeros((n_cells, width), dtype=np.float64)
        member = np.empty(n_cells, dtype=np.intp)
        start = 0
        for plan, _, indices, inputs in blocks:
            stop = start + indices.size
            features[start:stop, : inputs.shape[2]] = inputs.reshape(indices.size, inputs.shape[2])
            member[start:stop] = (indices + plan.base).ravel()
            start = stop
        init, rate = _current(self._ensembles)
        raw = self._kernel.predict(features, member, init, rate)
        out: dict[ModelSetKey, np.ndarray] = {}
        start = 0
        for plan, matrix, indices, _ in blocks:
            stop = start + indices.size
            family_raw = raw[start:stop].reshape(indices.shape)
            for r, key in enumerate(plan.keys):
                out[key] = _finish(
                    plan.selector.candidate_lists[r], indices[:, r], family_raw[:, r], matrix
                )
            start = stop
        return out


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
