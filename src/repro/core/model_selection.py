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

A :class:`ModelSelector` compiles one or more candidate lists that share a
raw feature order — the cpu and io model sets of one operator family — into
stacked tables of shape ``(R, C, K)`` (resources x candidates, padded to the
longest list, x input slots): the
:class:`~repro.core.combined_model.StackedTransform` of every candidate plus
training ``lows`` / ``highs`` / ``widths`` and a known-feature mask.  It
scores all rows against all candidates of every list in one
``(n, R, C, K)`` pass; the tables broadcast over the rows.  Each (row,
resource, candidate) gets the key ``(max out_ratio, #scaling features,
out_ratio tail[:7])``, missing tail entries padded with ``-1`` and padded
candidates ``+inf`` in every column, so a padded candidate never wins.  The
winner is found per (row, resource) by narrowing the candidates column by
column with ordered ``<=``-against-the-row-minimum comparisons, the first
candidate winning a full tie.  Without NaN that is exactly the sequential
"replace the incumbent only when strictly smaller" fold; a NaN key entry
decides neither way, which makes the fold order-dependent, so (row,
resource) pairs whose keys hold a NaN run that pairwise fold over the same
stacked keys.  The winner's transformed slice is returned with the
selection, so prediction (a fused kernel, see
:mod:`repro.core.trainer`) never re-transforms the matrix.  An
:class:`~repro.core.trainer.OperatorModelSet` is the ``R = 1`` case.  The
tables are derived state, a few KB per family, never serialised; the
``(n, R, C, K)`` temporaries are bounded by row blocks of
:data:`_SELECT_BUDGET` cells.
"""

# repro: hot-path — batched estimation code; lint rules R1/R6 apply.

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.combined_model import CombinedModel, StackedTransform

__all__ = ["ModelSelector", "BatchSelection"]

#: Cells per ``(rows x R x C x K)`` temporary of one row block (512 KB of
#: float64), small enough to stay cache-resident on large batches.
_SELECT_BUDGET = 1 << 16


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
    """The out_ratio selection heuristic, compiled for ``R`` candidate lists.

    ``ModelSelector(default_model, models)`` compiles one list (``R = 1``);
    :meth:`stacked` compiles several, one per resource of a family.  Each
    list is its ``models`` plus its default (appended unless it is one of
    ``models`` by identity).  Every candidate of every list shares one raw
    feature order (the trainer fits every model of a family over the same
    canonical feature tuple), so one raw matrix serves all of them.
    """

    #: Length of the out_ratio tail used for tie-breaking (``profile[1:8]``).
    _PROFILE_TAIL = 7
    #: Key columns: max out_ratio, #scaling features, the tail.
    _N_KEYS = 2 + _PROFILE_TAIL
    #: Pad value for missing tail entries; any real out_ratio (>= 0) beats it,
    #: matching Python's shorter-tuple-compares-less semantics.
    _PAD = -1.0

    def __init__(self, default_model: CombinedModel, models: Sequence[CombinedModel]) -> None:
        self._compile([(default_model, models)])

    @classmethod
    def stacked(
        cls, sets: Sequence[tuple[CombinedModel, Sequence[CombinedModel]]]
    ) -> "ModelSelector":
        """One selector over several ``(default_model, models)`` lists."""
        selector = cls.__new__(cls)
        selector._compile(sets)
        return selector

    def _compile(self, sets: Sequence[tuple[CombinedModel, Sequence[CombinedModel]]]) -> None:
        lists = []
        for default_model, models in sets:
            candidates = list(models)
            if not any(model is default_model for model in candidates):
                candidates.append(default_model)
            lists.append(candidates)
        if len({models[0].feature_names for models in lists}) != 1:
            raise ValueError("model selection: stacked candidate lists must share a feature order")
        #: Candidates of each list, in selection order.
        self.candidate_lists = lists
        #: Candidates of the first list (the only one when ``R = 1``).
        self.candidates = lists[0]
        self.default_indices = np.asarray(
            [
                next(i for i, m in enumerate(models) if m is default_model)
                for models, (default_model, _) in zip(lists, sets)
            ],
            dtype=np.intp,
        )
        n_candidates = max(len(models) for models in lists)
        self._shape = (len(lists), n_candidates)
        # Padded candidates reuse their list's default for the transform;
        # their keys are overwritten with ``+inf``.
        flat = [
            models[c] if c < len(models) else models[default]
            for models, default in zip(lists, self.default_indices)
            for c in range(n_candidates)
        ]
        self._padded = np.flatnonzero(
            [c >= len(models) for models in lists for c in range(n_candidates)]
        ).astype(np.intp)
        self._transform = StackedTransform(flat)
        self.n_features = self._transform.n_features
        width = self._transform.slot_column.shape[1]
        self._lows = np.zeros((len(flat), width), dtype=np.float64)
        self._highs = np.zeros((len(flat), width), dtype=np.float64)
        self._known = np.zeros((len(flat), width), dtype=np.bool_)
        #: Ratio of an unscored slot: 0 for an unknown feature, the pad past
        #: the candidate's own inputs.
        self._fill = np.full((len(flat), width), self._PAD, dtype=np.float64)
        for c, model in enumerate(flat):
            for k, name in enumerate(model.input_features_):
                self._known[c, k] = name in model.training_low_
                self._fill[c, k] = 0.0
                self._lows[c, k] = model.training_low_.get(name, 0.0)
                self._highs[c, k] = model.training_high_.get(name, 0.0)
        self._widths = np.maximum(self._highs - self._lows, 1e-9)
        self._has_inputs = np.asarray([bool(m.input_features_) for m in flat], dtype=np.bool_)
        self._n_scaling = np.asarray([float(m.n_scaling_features) for m in flat], dtype=np.float64)

    # -- selection ------------------------------------------------------------------------------
    def select_batch(self, matrix: np.ndarray) -> BatchSelection:
        """Choose a model of the first list for every row of a raw feature matrix."""
        indices, max_ratios, in_range, inputs = self._select(matrix)
        return BatchSelection(
            candidates=self.candidates,
            indices=indices[:, 0],
            max_out_ratios=max_ratios[:, 0],
            used_default=in_range[:, 0] | (indices[:, 0] == self.default_indices[0]),
            inputs=inputs[:, 0],
        )

    def select_stacked(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Winners of every list: ``(n, R)`` indices and ``(n, R, K)`` inputs."""
        indices, _, _, inputs = self._select(matrix)
        return indices, inputs

    def _select(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.n_features:
            raise ValueError(
                f"model selection: expected an (n, {self.n_features}) matrix, "
                f"got shape {matrix.shape}"
            )
        n = matrix.shape[0]
        cells = self._lows.shape[0] * max(self._lows.shape[1], self._N_KEYS)
        block = max(int(_SELECT_BUDGET // cells), 16)
        if n <= block:
            return self._select_block(matrix)
        parts = [self._select_block(matrix[start : start + block]) for start in range(0, n, block)]
        indices, max_ratios, in_range, inputs = (
            np.concatenate([part[i] for part in parts]) for i in range(4)
        )
        return indices, max_ratios, in_range, inputs

    def _select_block(
        self, matrix: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = matrix.shape[0]
        n_lists, n_candidates = self._shape
        transformed = self._transform(matrix)
        keys = self._keys(transformed).reshape(n * n_lists, n_candidates, self._N_KEYS)
        nan_rows = np.isnan(keys).any(axis=(1, 2))
        if nan_rows.any():
            indices = np.empty(n * n_lists, dtype=np.intp)
            clean = ~nan_rows
            indices[clean] = self._narrow(keys[clean])
            indices[nan_rows] = self._fold(keys[nan_rows])
        else:
            indices = self._narrow(keys)
        rows = np.arange(n * n_lists, dtype=np.intp)
        max_ratios = keys[rows, indices, 0].reshape(n, n_lists)
        # Rule 1: rows a list's default model covers entirely in-range use it.
        defaults = keys.reshape(n, n_lists, n_candidates, self._N_KEYS)[
            :, np.arange(n_lists, dtype=np.intp), self.default_indices, 0
        ]
        in_range = defaults <= 0.0
        indices = np.where(in_range, self.default_indices, indices.reshape(n, n_lists))
        max_ratios[in_range] = 0.0
        width = transformed.shape[2]
        inputs = transformed.reshape(n * n_lists, n_candidates, width)[rows, indices.reshape(-1)]
        return indices, max_ratios, in_range, inputs.reshape(n, n_lists, width)

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
        if self._padded.size:
            keys[:, self._padded] = np.inf
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

