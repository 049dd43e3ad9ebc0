"""Online model selection (paper Section 6.3).

For every operator instance of an incoming query the estimator must choose
among the default model and the available combined models.  The heuristic
relies on the monotonic relationship between the scalable features and
resource usage: the further a feature value falls outside the range a model
was trained on (its ``out_ratio``), the less we trust that model for this
instance.

Selection rule:

1. if the default model's out_ratio is zero for every feature, use it;
2. otherwise use the model whose *maximum* out_ratio over its input features
   is smallest;
3. break ties by (a) preferring fewer scaling features and (b) comparing the
   second-largest out_ratio, third-largest, and so on.

A :class:`ModelSelector` compiles one candidate list into stacked tables —
the :class:`~repro.core.combined_model.StackedTransform` of every candidate
plus per (candidate x input slot) training ``lows`` / ``highs`` / ``widths``
and a known-feature mask — and scores all rows against all candidates in one
``(n, C, K)`` pass (rows x candidates x input slots).  Each (row, candidate)
gets the key ``(max out_ratio, #scaling features, out_ratio tail[:7])``,
missing tail entries padded with ``-1``; the winner is found by narrowing the
candidates column by column with ordered ``<=``-against-the-row-minimum
comparisons, the first candidate winning a full tie.  Without NaN that is
exactly the sequential "replace the incumbent only when strictly smaller"
fold; a NaN key entry decides neither way, which makes the fold
order-dependent, so rows whose keys hold a NaN run that pairwise fold over
the same stacked keys.  The winner's transformed slice is returned with the
selection, so prediction (:class:`~repro.core.trainer.OperatorModelSet`'s
fused kernel) never re-transforms the matrix.  The tables are derived state,
a few KB per model set, never serialised; the ``(n, C, K)`` temporaries are
bounded by row blocks of the flat kernel's cell budget.
"""

# repro: hot-path — batched estimation code; lint rules R1/R6 apply.

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.combined_model import CombinedModel, StackedTransform
from repro.ml.flat_ensemble import _CELL_BUDGET

__all__ = ["ModelSelector", "BatchSelection"]


@dataclass(frozen=True)
class BatchSelection:
    """Model choices for every row of a feature matrix."""

    #: Candidate models in selection order (``models`` plus the default).
    candidates: list[CombinedModel]
    #: Index into ``candidates`` chosen for each row.
    indices: np.ndarray
    #: Maximum out_ratio of the chosen model for each row.
    max_out_ratios: np.ndarray
    #: Whether each row fell back to the default model.
    used_default: np.ndarray
    #: ``(n, K)`` transformed input row of each row's chosen model; columns
    #: past that model's own input count are padding.
    inputs: np.ndarray

    def model_for(self, row: int) -> CombinedModel:
        return self.candidates[int(self.indices[row])]


class ModelSelector:
    """The out_ratio selection heuristic, compiled for one candidate list.

    ``models`` plus ``default_model`` (appended unless it is one of
    ``models`` by identity) form the candidates; every candidate shares
    ``default_model.feature_names`` (the trainer fits every model of a
    family over the same canonical feature tuple), so one raw matrix serves
    all of them.
    """

    #: Length of the out_ratio tail used for tie-breaking (``profile[1:8]``).
    _PROFILE_TAIL = 7
    #: Key columns: max out_ratio, #scaling features, the tail.
    _N_KEYS = 2 + _PROFILE_TAIL
    #: Pad value for missing tail entries; any real out_ratio (>= 0) beats it,
    #: matching Python's shorter-tuple-compares-less semantics.
    _PAD = -1.0

    def __init__(self, default_model: CombinedModel, models: Sequence[CombinedModel]) -> None:
        candidates = list(models)
        if not any(model is default_model for model in candidates):
            candidates.append(default_model)
        self.candidates = candidates
        self.default_index = next(i for i, m in enumerate(candidates) if m is default_model)
        self._transform = StackedTransform(candidates)
        self.n_features = self._transform.n_features
        width = self._transform.slot_column.shape[1]
        self._lows = np.zeros((len(candidates), width), dtype=np.float64)
        self._highs = np.zeros((len(candidates), width), dtype=np.float64)
        self._known = np.zeros((len(candidates), width), dtype=np.bool_)
        #: Ratio of an unscored slot: 0 for an unknown feature, the pad past
        #: the candidate's own inputs.
        self._fill = np.full((len(candidates), width), self._PAD, dtype=np.float64)
        for c, model in enumerate(candidates):
            for k, name in enumerate(model.input_features_):
                self._known[c, k] = name in model.training_low_
                self._fill[c, k] = 0.0
                self._lows[c, k] = model.training_low_.get(name, 0.0)
                self._highs[c, k] = model.training_high_.get(name, 0.0)
        self._widths = np.maximum(self._highs - self._lows, 1e-9)
        self._has_inputs = np.asarray([bool(m.input_features_) for m in candidates], dtype=np.bool_)
        self._n_scaling = np.asarray(
            [float(m.n_scaling_features) for m in candidates], dtype=np.float64
        )

    # -- selection ------------------------------------------------------------------------------
    def select_batch(self, matrix: np.ndarray) -> BatchSelection:
        """Choose a model for every row of a raw feature matrix."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.n_features:
            raise ValueError(
                f"model selection: expected an (n, {self.n_features}) matrix, "
                f"got shape {matrix.shape}"
            )
        n = matrix.shape[0]
        cells = len(self.candidates) * max(self._lows.shape[1], self._N_KEYS)
        block = max(int(_CELL_BUDGET // cells), 16)
        if n <= block:
            indices, max_ratios, in_range, inputs = self._select_block(matrix)
        else:
            parts = [self._select_block(matrix[start : start + block]) for start in range(0, n, block)]
            indices, max_ratios, in_range, inputs = (
                np.concatenate([part[i] for part in parts]) for i in range(4)
            )
        return BatchSelection(
            candidates=self.candidates,
            indices=indices,
            max_out_ratios=max_ratios,
            used_default=in_range | (indices == self.default_index),
            inputs=inputs,
        )

    def _select_block(
        self, matrix: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = matrix.shape[0]
        transformed = self._transform(matrix)
        keys = self._keys(transformed)
        nan_rows = np.isnan(keys).any(axis=(1, 2))
        if nan_rows.any():
            indices = np.empty(n, dtype=np.intp)
            clean = ~nan_rows
            indices[clean] = self._narrow(keys[clean])
            indices[nan_rows] = self._fold(keys[nan_rows])
        else:
            indices = self._narrow(keys)
        rows = np.arange(n, dtype=np.intp)
        max_ratios = keys[rows, indices, 0]
        # Rule 1: rows the default model covers entirely in-range use it.
        in_range = keys[:, self.default_index, 0] <= 0.0
        indices[in_range] = self.default_index
        max_ratios[in_range] = 0.0
        return indices, max_ratios, in_range, transformed[rows, indices]

    def _keys(self, transformed: np.ndarray) -> np.ndarray:
        """Per (row, candidate) sort key: (max out_ratio, #scaling, tail)."""
        n, n_candidates, width = transformed.shape
        ratios = (
            np.maximum(self._lows - transformed, 0.0)
            + np.maximum(transformed - self._highs, 0.0)
        ) / self._widths
        ratios = np.where(self._known, ratios, self._fill)
        ratios.sort(axis=2)
        profiles = ratios[:, :, ::-1]
        keys = np.full((n, n_candidates, self._N_KEYS), self._PAD, dtype=np.float64)
        keys[:, :, 0] = np.where(self._has_inputs, profiles[:, :, 0] if width else 0.0, 0.0)
        keys[:, :, 1] = self._n_scaling
        tail = profiles[:, :, 1 : 1 + self._PROFILE_TAIL]
        keys[:, :, 2 : 2 + tail.shape[2]] = tail
        return keys

    def _narrow(self, keys: np.ndarray) -> np.ndarray:
        """First lexicographically smallest candidate per row (NaN-free keys)."""
        alive = np.ones(keys.shape[:2], dtype=np.bool_)
        for column in range(self._N_KEYS):
            values = keys[:, :, column]
            smallest = np.where(alive, values, np.inf).min(axis=1, keepdims=True)
            alive &= values <= smallest
            if np.count_nonzero(alive) == alive.shape[0]:
                break  # one candidate left in every row
        return np.argmax(alive, axis=1).astype(np.intp)

    @staticmethod
    def _fold(keys: np.ndarray) -> np.ndarray:
        """Sequential pairwise fold: keep the incumbent unless strictly beaten.

        A NaN entry decides neither way, so the comparison moves on to the
        next key column.
        """
        n, n_candidates, n_keys = keys.shape
        indices = np.zeros(n, dtype=np.intp)
        best = keys[:, 0].copy()
        for position in range(1, n_candidates):
            challenger = keys[:, position]
            less = np.zeros(n, dtype=np.bool_)
            decided = np.zeros(n, dtype=np.bool_)
            for column in range(n_keys):
                smaller = challenger[:, column] < best[:, column]
                larger = challenger[:, column] > best[:, column]
                less |= smaller & ~decided
                decided |= smaller | larger
            indices[less] = position
            best[less] = challenger[less]
        return indices
