"""Extraction of feature vectors from plan operators (paper Figure 4).

Feature values are derived purely from the execution plan and catalog
metadata, so they are available before a query runs — the only uncertain
inputs are cardinality-derived values (tuple and byte counts), for which the
extractor can use either the true values or the optimizer estimates
(:class:`~repro.features.definitions.FeatureMode`).  The only exception,
as in the paper, are operators that scan an entire table: their input counts
are known exactly a priori in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.definitions import (
    FeatureMode,
    OperatorFamily,
    features_for_family,
    operator_family,
)
from repro.plan.operators import OperatorType, PlanOperator
from repro.plan.plan import QueryPlan

__all__ = ["OperatorFeatures", "FeatureExtractor"]

#: Stable integer encoding of the categorical OUTPUTUSAGE feature.
_OPERATOR_TYPE_CODES: dict[OperatorType, int] = {
    op_type: code for code, op_type in enumerate(OperatorType, start=1)
}


@dataclass(frozen=True)
class OperatorFeatures:
    """A feature vector for one operator instance."""

    family: OperatorFamily
    values: dict[str, float]

    def vector(self, feature_names: tuple[str, ...] | None = None) -> np.ndarray:
        """Dense vector in the canonical feature order of the family."""
        names = feature_names or features_for_family(self.family)
        return np.array([self.values.get(name, 0.0) for name in names], dtype=np.float64)

    def get(self, name: str, default: float = 0.0) -> float:
        return self.values.get(name, default)


class FeatureExtractor:
    """Computes per-operator feature vectors from an annotated plan."""

    def __init__(self, mode: FeatureMode = FeatureMode.EXACT) -> None:
        self.mode = mode

    # -- public API ------------------------------------------------------------------------
    def extract_plan(self, plan: QueryPlan) -> dict[int, OperatorFeatures]:
        """Feature vectors for every operator of ``plan``, keyed by node id.

        Keys follow ``plan.operators()`` pre-order, the row order of the
        plan in a :class:`~repro.core.estimator.WorkloadEstimate`.
        """
        parents: dict[int, PlanOperator | None] = {plan.root.node_id: None}
        for op in plan.operators():
            for child in op.children:
                parents[child.node_id] = op
        return {
            op.node_id: self.extract_operator(op, parents.get(op.node_id))
            for op in plan.operators()
        }

    def extract_operator(
        self, op: PlanOperator, parent: PlanOperator | None = None
    ) -> OperatorFeatures:
        """Feature vector for a single operator instance."""
        family = operator_family(op.op_type)
        values = self._global_features(op, parent)
        values.update(self._operator_specific_features(op, family))
        return OperatorFeatures(family=family, values=values)

    # -- global features ----------------------------------------------------------------------
    def _rows(self, op: PlanOperator) -> float:
        """Output cardinality in the configured mode.

        Full scans of a base table report exact counts in both modes (the
        table cardinality is catalog metadata).
        """
        if op.op_type in (OperatorType.TABLE_SCAN, OperatorType.INDEX_SCAN):
            return float(op.true_rows)
        if self.mode is FeatureMode.EXACT:
            return float(op.true_rows)
        return float(op.est_rows)

    def _global_features(
        self, op: PlanOperator, parent: PlanOperator | None
    ) -> dict[str, float]:
        out_rows = self._rows(op)
        out_width = float(op.row_width)
        values: dict[str, float] = {
            "COUT": out_rows,
            "SOUTAVG": out_width,
            "SOUTTOT": out_rows * out_width,
            "OUTPUTUSAGE": float(_OPERATOR_TYPE_CODES[parent.op_type]) if parent else 0.0,
        }
        children = op.children
        if op.op_type.is_leaf:
            # Leaf operators read the base table: their "input" is the table.
            table_rows = float(op.props.get("table_rows", out_rows))
            full_width = float(op.props.get("row_width_full", out_width))
            inputs: list[tuple[float, float]] = [(table_rows, full_width)]
        else:
            inputs = [(self._rows(child), float(child.row_width)) for child in children]
        for index in (1, 2):
            if index <= len(inputs):
                rows, width = inputs[index - 1]
            else:
                rows, width = 0.0, 0.0
            values[f"CIN{index}"] = rows
            values[f"SINAVG{index}"] = width
            values[f"SINTOT{index}"] = rows * width
        return values

    # -- operator-specific features ---------------------------------------------------------------
    def _operator_specific_features(
        self, op: PlanOperator, family: OperatorFamily
    ) -> dict[str, float]:
        props = op.props
        values: dict[str, float] = {}
        if family in (OperatorFamily.SCAN, OperatorFamily.SEEK):
            values["TSIZE"] = float(props.get("table_rows", 0.0))
            values["PAGES"] = float(props.get("pages", 0.0))
            values["TCOLUMNS"] = float(props.get("table_columns", 0.0))
            values["ESTIOCOST"] = float(op.est_io_cost)
        if family is OperatorFamily.SEEK:
            values["INDEXDEPTH"] = float(props.get("index_depth", 0.0))
        if family is OperatorFamily.FILTER:
            values["CPREDICATES"] = float(props.get("predicate_complexity", 1.0))
        if family is OperatorFamily.COMPUTE_SCALAR:
            values["CEXPRESSIONS"] = float(props.get("n_expressions", 1.0))
        if family is OperatorFamily.SORT:
            sort_columns = float(props.get("n_sort_columns", 1.0))
            rows_in = self._rows(op.children[0]) if op.children else 0.0
            values["CSORTCOL"] = sort_columns
            values["MINCOMP"] = rows_in * sort_columns
        if family in (OperatorFamily.HASH_JOIN, OperatorFamily.HASH_AGGREGATE):
            hash_columns = float(props.get("hash_columns", 1.0))
            rows_in = sum(self._rows(child) for child in op.children)
            values["HASHOPAVG"] = hash_columns
            values["HASHOPTOT"] = hash_columns * rows_in
        if family is OperatorFamily.HASH_AGGREGATE:
            values["CHASHCOL"] = float(props.get("n_group_columns", 1.0))
            values["CAGGREGATES"] = float(props.get("n_aggregates", 1.0))
        if family is OperatorFamily.STREAM_AGGREGATE:
            values["CAGGREGATES"] = float(props.get("n_aggregates", 1.0))
        if family in (
            OperatorFamily.HASH_JOIN,
            OperatorFamily.MERGE_JOIN,
            OperatorFamily.NESTED_LOOP_JOIN,
        ):
            values["CINNERCOL"] = float(props.get("inner_columns", 1.0))
            values["COUTERCOL"] = float(props.get("outer_columns", 1.0))
        if family is OperatorFamily.MERGE_JOIN:
            total_bytes = sum(
                self._rows(child) * float(child.row_width) for child in op.children
            )
            values["SINSUM"] = total_bytes
        if family is OperatorFamily.NESTED_LOOP_JOIN:
            values["SSEEKTABLE"] = float(props.get("inner_table_rows", 0.0))
            values["INDEXDEPTH"] = float(props.get("index_depth", 0.0))
        return values
