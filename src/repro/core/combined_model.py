"""Combined models: scaling function ∘ scaled MART model (paper Section 6).

A :class:`CombinedModel` with zero scaling steps is a plain ("default-style")
MART model over the raw operator features.  With one or more scaling steps,
the underlying MART model is trained on transformed data (targets divided by
the scaling factors, scaling features removed, dependent features
normalised) and predictions are multiplied back up by the scaling factors.

Every model records the training range (low/high) of each of its *own* input
features — in its own transformed space — which is what the out_ratio model
selection heuristic (:mod:`repro.core.model_selection`, which compiles these
ranges into stacked tables) compares against at estimation time.

Prediction is matrix-first: :meth:`CombinedModel.predict_batch` evaluates a
contiguous ``(n, len(feature_names))`` float64 matrix through a single
vectorised transform + MART pass, and the scalar :meth:`CombinedModel.predict`
is a one-row wrapper over it, so scalar/batch parity holds by construction.
"""

# repro: hot-path — batched estimation code; lint rules R1/R6 apply.

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.scaled_model import MIN_DIVISOR, ScalingStep
from repro.features.definitions import OperatorFamily
from repro.features.dependencies import dependent_features
from repro.ml.mart import MARTConfig, MARTRegressor
from repro.ml.metrics import l1_relative_error

__all__ = ["CombinedModel", "StackedTransform"]


@dataclass
class CombinedModel:
    """A (possibly scaled) MART model for one operator family and resource."""

    family: OperatorFamily
    resource: str
    feature_names: tuple[str, ...]
    steps: tuple[ScalingStep, ...] = ()
    mart_config: MARTConfig = field(default_factory=MARTConfig)

    def __post_init__(self) -> None:
        self.model_: MARTRegressor | None = None
        #: Input feature names of the scaled model (scaling features removed).
        self.input_features_: tuple[str, ...] = tuple(
            name for name in self.feature_names if name not in self.scaling_feature_names
        )
        self._column_index: dict[str, int] = {
            name: i for i, name in enumerate(self.feature_names)
        }
        self._input_columns: list[int] = [
            self._column_index[name] for name in self.input_features_
        ]
        self._transform = StackedTransform([self])
        self.training_low_: dict[str, float] = {}
        self.training_high_: dict[str, float] = {}
        self.training_error_: float = float("inf")
        self.n_training_rows_: int = 0
        #: Range of the (scaled) training targets; scaled-model outputs are
        #: clamped to it at prediction time (see ``predict``).
        self.scaled_target_low_: float = 0.0
        self.scaled_target_high_: float = float("inf")

    # -- identity -----------------------------------------------------------------------------
    @property
    def scaling_feature_names(self) -> tuple[str, ...]:
        return tuple(step.feature for step in self.steps)

    @property
    def n_scaling_features(self) -> int:
        return len(self.steps)

    @property
    def is_default_form(self) -> bool:
        """True when the model uses no scaling at all."""
        return not self.steps

    @property
    def name(self) -> str:
        if not self.steps:
            return f"{self.family.value}/{self.resource}/plain"
        parts = "+".join(f"{s.feature}:{s.function.name}" for s in self.steps)
        return f"{self.family.value}/{self.resource}/scaled[{parts}]"

    # -- matrix plumbing ------------------------------------------------------------------------
    def feature_matrix(self, feature_rows: Sequence[dict[str, float]]) -> np.ndarray:
        """Dense ``(n, len(feature_names))`` matrix in this model's raw feature order."""
        return np.array(
            [[row.get(name, 0.0) for name in self.feature_names] for row in feature_rows],
            dtype=np.float64,
        ).reshape(len(feature_rows), len(self.feature_names))

    def transform_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Vectorised scaling transform of a raw feature matrix.

        Applies the same sequential steps as
        :func:`~repro.core.scaled_model.transform_feature_dict` — dependent
        columns divided by the scaling feature's current value, scaling
        columns removed — and returns the ``(n, len(input_features_))``
        matrix the scaled MART model consumes.
        """
        return self._transform(np.asarray(matrix, dtype=np.float64))[:, 0, :]

    def _step_factors(self, matrix: np.ndarray, floor: float) -> np.ndarray:
        """Per-row product of the scaling-function values over the raw matrix."""
        factors = np.ones(matrix.shape[0], dtype=np.float64)
        for step in self.steps:
            column = self._column_index.get(step.feature)
            if column is None:
                values = np.zeros(matrix.shape[0], dtype=np.float64)
            else:
                values = matrix[:, column]
            scale = np.asarray(step.function(np.maximum(values, 0.0)), dtype=np.float64)
            factors *= np.maximum(scale, floor)
        return factors

    def scale_factors(self, matrix: np.ndarray) -> np.ndarray:
        """Per-row multiplicative scaling factors for a raw feature matrix."""
        return self._step_factors(np.asarray(matrix, dtype=np.float64), floor=0.0)

    # -- training ------------------------------------------------------------------------------
    def fit(self, feature_rows: list[dict[str, float]], targets: np.ndarray) -> "CombinedModel":
        """Train the underlying MART model on transformed data."""
        if not len(feature_rows):
            raise ValueError(f"{self.name}: cannot train on an empty dataset")
        targets = np.asarray(targets, dtype=np.float64)
        raw = self.feature_matrix(feature_rows)
        matrix = self.transform_matrix(raw)
        # Targets are divided per-step with the same floor transform_targets
        # uses, so training stays numerically identical to the dict path.
        scaled_targets = targets / self._step_factors(raw, floor=MIN_DIVISOR)
        self.model_ = MARTRegressor(self.mart_config)
        fitted = self.model_.fit_predict(matrix, scaled_targets)
        self.n_training_rows_ = len(feature_rows)
        self._record_ranges(matrix)
        self.scaled_target_low_ = float(scaled_targets.min())
        self.scaled_target_high_ = float(scaled_targets.max())
        # Training error (used to pick the family's default model): the
        # in-sample predictions of the fit, scaled back up.
        predictions = np.maximum(fitted * self.scale_factors(raw), 0.0)
        self.training_error_ = l1_relative_error(predictions, targets)
        return self

    def _record_ranges(self, matrix: np.ndarray) -> None:
        lows = matrix.min(axis=0)
        highs = matrix.max(axis=0)
        self.training_low_ = {
            name: float(lows[i]) for i, name in enumerate(self.input_features_)
        }
        self.training_high_ = {
            name: float(highs[i]) for i, name in enumerate(self.input_features_)
        }

    # -- prediction ------------------------------------------------------------------------------
    def predict_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Estimate the resource for ``n`` operator instances at once.

        ``matrix`` holds one row per instance with columns in
        ``feature_names`` order.  For scaled models the MART output is a
        *per-unit* quantity (e.g. CPU per input tuple); it is clamped to the
        per-unit range observed during training, since the magnitude of the
        estimate is carried by the scaling function and per-unit costs
        outside the observed range are an artefact of boosting overshoot
        rather than a meaningful prediction.
        """
        if self.model_ is None:
            raise RuntimeError(f"{self.name} has not been trained")
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.feature_names):
            raise ValueError(
                f"{self.name}: expected an (n, {len(self.feature_names)}) matrix, "
                f"got shape {matrix.shape}"
            )
        if matrix.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        estimates = self.model_.predict(self.transform_matrix(matrix))
        if self.steps:
            estimates = np.clip(estimates, self.scaled_target_low_, self.scaled_target_high_)
        return np.maximum(estimates * self.scale_factors(matrix), 0.0)

    def predict(self, feature_values: dict[str, float]) -> float:
        """Estimate the resource for one operator instance.

        Thin one-row wrapper over :meth:`predict_batch`.
        """
        return float(self.predict_batch(self.feature_matrix([feature_values]))[0])


class StackedTransform:
    """The scaling transforms of several models, applied in one pass.

    Compiled once by replaying each model's steps symbolically: per (model x
    input slot) the raw column the slot reads; per (model x step) the raw
    column of the step's feature (an all-zero pad column when the family
    lacks it) and which earlier steps had divided that column when it is
    read; per (model x step x slot) whether the step divides the slot.
    Calling it gathers an ``(n, C, K)`` tensor and divides in step order —
    by ``1.0`` where a step does not apply, which is exact — so each model's
    slice equals its sequential transform bitwise.  Slots past a model's own
    input count are padding.  All models share one raw feature order.
    """

    def __init__(self, models: Sequence[CombinedModel]) -> None:
        self.n_features = len(models[0].feature_names)
        width = max(len(m.input_features_) for m in models)
        n_steps = max(len(m.steps) for m in models)
        self.slot_column = np.zeros((len(models), width), dtype=np.intp)
        self.step_column = np.full((len(models), n_steps), self.n_features, dtype=np.intp)
        self.step_reads = np.zeros((len(models), n_steps, n_steps), dtype=np.bool_)
        self.divides = np.zeros((len(models), n_steps, width), dtype=np.bool_)
        for c, model in enumerate(models):
            divided_by: dict[int, list[int]] = {}
            removed: set[str] = set()
            for s, step in enumerate(model.steps):
                column = model._column_index.get(step.feature)
                if column is not None:
                    self.step_column[c, s] = column
                    if step.feature not in removed:
                        self.step_reads[c, s, divided_by.get(column, [])] = True
                for dependent in dependent_features(step.feature):
                    dep_column = model._column_index.get(dependent)
                    if dep_column is not None and dependent not in removed:
                        divided_by.setdefault(dep_column, []).append(s)
                removed.add(step.feature)
            for k, column in enumerate(model._input_columns):
                self.slot_column[c, k] = column
                self.divides[c, divided_by.get(column, []), k] = True

    def __call__(self, matrix: np.ndarray) -> np.ndarray:
        """``(n, C, K)`` scaled-model inputs of every model for a raw matrix."""
        padded = np.zeros((matrix.shape[0], self.n_features + 1), dtype=np.float64)
        padded[:, : self.n_features] = matrix
        n_steps = self.step_column.shape[1]
        divisors = np.empty((matrix.shape[0],) + self.step_column.shape, dtype=np.float64)
        for s in range(n_steps):
            raw = padded[:, self.step_column[:, s]]
            for earlier in range(s):
                raw = raw / np.where(self.step_reads[:, s, earlier], divisors[:, :, earlier], 1.0)
            divisors[:, :, s] = np.maximum(np.abs(raw), MIN_DIVISOR)
        transformed = padded[:, self.slot_column]
        for s in range(n_steps):
            transformed /= np.where(self.divides[:, s, :], divisors[:, :, s, None], 1.0)
        return transformed
