"""Flat structure-of-arrays compilation of boosted tree ensembles.

The paper's serving argument is that MART inference is cheap enough for the
optimizer's hot loop, but a fitted :class:`~repro.ml.mart.MARTRegressor`
normally predicts by walking Python ``TreeNode`` objects tree-by-tree.  This
module compiles a fitted ensemble into one contiguous structure-of-arrays
layout — per-node ``feature_id`` / ``threshold`` / ``left`` / ``right`` /
``leaf_value`` plus per-tree root offsets — and evaluates *all rows x all
trees* with vectorised index-chasing: no Python recursion, no per-tree loop.

Execution strategy
------------------
The canonical SoA arrays double as the persisted v3 artifact section (see
:mod:`repro.core.serialization`): trees stored in pre-order with
``left == index + 1`` so a saved artifact can be ``frombuffer``/mmap'd
straight into a :class:`FlatForest` without re-walking nodes.  For prediction
the forest lazily derives an *execution plan*: trees are bucketed by depth
and embedded into perfect binary heaps (per-level feature/threshold tables,
one bottom row of leaf values), so a depth-``D`` bucket routes every
(row, tree) cursor with ``D`` branchless table gathers.  Descent uses the
swapped-children convention — ``go = (x <= threshold)`` selects slot
``2*pos + go`` with the LEFT child at the odd slot — which routes NaN
features to the RIGHT child exactly like the node-walking comparison, with
no extra negation pass.  Trees deeper than :data:`_MAX_HEAP_DEPTH` internal
levels (possible only for hand-built or adversarial trees; the paper's
10-leaf trees are far shallower) fall back to a generic ``np.where`` descent
over active row cursors on the SoA arrays.

:class:`FusedForest` is the serving-side counterpart for model selection:
it concatenates the SoA arrays of several ensembles (every candidate of one
operator model set, or of every model set of an estimator) and runs each
row against only the trees of its own member with a plain node-chasing
loop, deepest members first so each level routes only the rows still
descending — one kernel call per request instead of one per selected
candidate.  The heap tables above stay the path for single-ensemble callers
(``MARTRegressor.predict``, the baselines).

Numerical identity
------------------
The kernel is bit-identical to the sequential per-tree fold
``out = init; out += rate * tree.predict(X)``: per-tree leaf values are
gathered exactly, the learning-rate multiply is the same elementwise IEEE
operation, and the fold is reproduced with ``np.cumsum`` along axis 1, which
numpy evaluates sequentially (pairwise summation would break identity).
Per-leaf linear refinements of
:class:`~repro.ml.transform_regression.TransformRegressor` compile into
bottom-row slope/intercept tables; ``slope * x + intercept`` matches the
``(m, 1) @ (1,)`` matmul of the node-walking path bitwise.
"""

# repro: hot-path — batched estimation code; lint rules R1/R6 apply.

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.ml.regression_tree import TreeNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.ml.mart import MARTRegressor
    from repro.ml.transform_regression import TransformRegressor

__all__ = [
    "FlatForest",
    "FlatLayoutStats",
    "FusedForest",
    "compile_mart",
    "compile_transform",
]

#: Trees with more internal levels than this skip the perfect-heap embedding
#: (whose tables grow as ``2**depth``) and route through the generic
#: ``np.where`` descent instead.
_MAX_HEAP_DEPTH = 12

#: Upper bound on ``rows x trees`` cursor cells processed per block, keeping
#: the descent working set cache-resident for very large row batches.
_CELL_BUDGET = 1 << 21

#: Cursor cells per row block of :class:`FusedForest`: its node table spans
#: every member, so smaller blocks than :data:`_CELL_BUDGET` keep the cursor
#: buffers cache-resident.
_FUSED_BUDGET = 1 << 15

#: ``(leaf feature id, slope, intercept)`` of one leaf's linear refinement.
LeafModel = tuple[int, float, float]


@dataclass(frozen=True)
class FlatLayoutStats:
    """Sizing summary of one compiled ensemble (for ``models inspect``)."""

    n_trees: int
    n_nodes: int
    n_leaves: int
    max_depth: int
    array_bytes: int
    dtype_summary: str


class _HeapBucket:
    """Perfect-heap tables for every tree with the same internal depth."""

    __slots__ = ("depth", "tree_index", "level_feats", "level_thrs", "values", "models")

    def __init__(
        self,
        depth: int,
        tree_index: np.ndarray,
        level_feats: list[np.ndarray],
        level_thrs: list[np.ndarray],
        values: np.ndarray,
        models: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None,
    ) -> None:
        self.depth = depth
        self.tree_index = tree_index
        self.level_feats = level_feats
        self.level_thrs = level_thrs
        self.values = values
        self.models = models


class _ExecutionPlan:
    """Depth-bucketed heaps plus the (rare) deep-tree fallback group."""

    __slots__ = ("buckets", "deep_trees")

    def __init__(self, buckets: list[_HeapBucket], deep_trees: np.ndarray) -> None:
        self.buckets = buckets
        self.deep_trees = deep_trees


class FlatForest:
    """A boosted ensemble compiled to contiguous arrays.

    ``feature_id[i] == -1`` marks node ``i`` as a leaf.  Trees are stored in
    pre-order, so for every internal node ``left[i] == i + 1`` and
    ``right[i] > i + 1`` within the same tree — descent strictly increases
    the node index, which both guarantees termination and lets a decoded
    artifact be validated with a handful of vectorised comparisons.
    ``init_`` / ``learning_rate`` are the values at compile time; callers
    whose ensemble parameters may have been mutated afterwards (the fault
    injector rewrites ``initial_prediction_`` in place) pass the current
    values to :meth:`predict` instead.
    """

    def __init__(
        self,
        feature_id: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        leaf_value: np.ndarray,
        tree_roots: np.ndarray,
        learning_rate: float,
        init_: float,
        n_features: int,
        clip_negative: bool = False,
        leaf_has_model: np.ndarray | None = None,
        leaf_model_feature: np.ndarray | None = None,
        leaf_model_slope: np.ndarray | None = None,
        leaf_model_intercept: np.ndarray | None = None,
        validate: bool = False,
    ) -> None:
        self.feature_id = np.ascontiguousarray(feature_id, dtype=np.int32)
        self.threshold = np.ascontiguousarray(threshold, dtype=np.float64)
        self.left = np.ascontiguousarray(left, dtype=np.int32)
        self.right = np.ascontiguousarray(right, dtype=np.int32)
        self.leaf_value = np.ascontiguousarray(leaf_value, dtype=np.float64)
        self.tree_roots = np.ascontiguousarray(tree_roots, dtype=np.int64)
        self.learning_rate = float(learning_rate)
        self.init_ = float(init_)
        self.n_features = int(n_features)
        self.clip_negative = bool(clip_negative)
        self.leaf_has_model = (
            None if leaf_has_model is None else np.ascontiguousarray(leaf_has_model, dtype=np.bool_)
        )
        self.leaf_model_feature = (
            None
            if leaf_model_feature is None
            else np.ascontiguousarray(leaf_model_feature, dtype=np.int32)
        )
        self.leaf_model_slope = (
            None
            if leaf_model_slope is None
            else np.ascontiguousarray(leaf_model_slope, dtype=np.float64)
        )
        self.leaf_model_intercept = (
            None
            if leaf_model_intercept is None
            else np.ascontiguousarray(leaf_model_intercept, dtype=np.float64)
        )
        self._plan: _ExecutionPlan | None = None
        self._depths: np.ndarray | None = None
        if validate:
            self._validate()

    # -- construction ----------------------------------------------------------------------------

    @classmethod
    def from_trees(
        cls,
        roots: Sequence[TreeNode],
        learning_rate: float,
        init_: float,
        n_features: int,
        clip_negative: bool = False,
        leaf_models: Sequence[dict[int, LeafModel]] | None = None,
    ) -> "FlatForest":
        """Compile ``TreeNode`` trees (pre-order walk) into flat arrays.

        ``leaf_models`` optionally maps, per tree, the stable pre-order leaf
        rank to that leaf's linear refinement (the keying used by
        :class:`~repro.ml.transform_regression.TransformRegressor`).
        """
        feature_ids: list[int] = []
        thresholds: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        values: list[float] = []
        tree_roots: list[int] = []
        lm_has: list[bool] = []
        lm_feat: list[int] = []
        lm_slope: list[float] = []
        lm_intercept: list[float] = []
        with_models = leaf_models is not None
        for tree_index, root in enumerate(roots):
            tree_roots.append(len(feature_ids))
            models = leaf_models[tree_index] if with_models else None
            leaf_rank = 0
            # Iterative pre-order with child-offset backpatching: a stack
            # entry is the parent index whose ``right`` field needs the next
            # emitted node's position.
            stack: list[tuple[TreeNode, int]] = [(root, -1)]
            while stack:
                node, patch_right_of = stack.pop()
                index = len(feature_ids)
                if patch_right_of >= 0:
                    rights[patch_right_of] = index
                if node.is_leaf:
                    feature_ids.append(-1)
                    thresholds.append(0.0)
                    lefts.append(index)
                    rights.append(index)
                    values.append(float(node.value))
                    model = models.get(leaf_rank) if models is not None else None
                    if model is not None:
                        lm_has.append(True)
                        lm_feat.append(int(model[0]))
                        lm_slope.append(float(model[1]))
                        lm_intercept.append(float(model[2]))
                    else:
                        lm_has.append(False)
                        lm_feat.append(0)
                        lm_slope.append(0.0)
                        lm_intercept.append(0.0)
                    leaf_rank += 1
                else:
                    feature_ids.append(int(node.feature))
                    thresholds.append(float(node.threshold))
                    lefts.append(index + 1)
                    rights.append(-1)  # backpatched when the right child is emitted
                    values.append(0.0)
                    lm_has.append(False)
                    lm_feat.append(0)
                    lm_slope.append(0.0)
                    lm_intercept.append(0.0)
                    stack.append((node.right, index))
                    stack.append((node.left, -1))
        return cls(
            feature_id=np.asarray(feature_ids, dtype=np.int32),
            threshold=np.asarray(thresholds, dtype=np.float64),
            left=np.asarray(lefts, dtype=np.int32),
            right=np.asarray(rights, dtype=np.int32),
            leaf_value=np.asarray(values, dtype=np.float64),
            tree_roots=np.asarray(tree_roots, dtype=np.int64),
            learning_rate=learning_rate,
            init_=init_,
            n_features=n_features,
            clip_negative=clip_negative,
            leaf_has_model=np.asarray(lm_has, dtype=np.bool_) if with_models else None,
            leaf_model_feature=np.asarray(lm_feat, dtype=np.int32) if with_models else None,
            leaf_model_slope=np.asarray(lm_slope, dtype=np.float64) if with_models else None,
            leaf_model_intercept=(
                np.asarray(lm_intercept, dtype=np.float64) if with_models else None
            ),
        )

    # -- validation (decoded artifacts) ----------------------------------------------------------

    def _validate(self) -> None:
        """Structurally validate arrays that came from an untrusted artifact.

        All checks are vectorised; together with the pre-order invariant
        (children strictly after their parent) they guarantee every descent
        terminates at a leaf of the correct tree.
        """
        n_nodes = int(self.feature_id.shape[0])
        n_trees = int(self.tree_roots.shape[0])
        for name, arr in (
            ("threshold", self.threshold),
            ("left", self.left),
            ("right", self.right),
            ("leaf_value", self.leaf_value),
        ):
            if arr.shape[0] != n_nodes:
                raise ValueError(f"flat ensemble: {name} has {arr.shape[0]} entries, expected {n_nodes}")
        if n_trees and n_nodes == 0:
            raise ValueError("flat ensemble: trees declared but no nodes stored")
        if n_trees:
            if int(self.tree_roots[0]) != 0:
                raise ValueError("flat ensemble: first tree root must be node 0")
            if np.any(self.tree_roots[1:] <= self.tree_roots[:-1]):
                raise ValueError("flat ensemble: tree roots must be strictly increasing")
            if int(self.tree_roots[-1]) >= n_nodes:
                raise ValueError("flat ensemble: tree root offset out of range")
        internal = np.flatnonzero(self.feature_id >= 0)
        if internal.size:
            if int(self.feature_id[internal].max()) >= self.n_features:
                raise ValueError("flat ensemble: feature id out of range")
            if np.any(self.left[internal] != internal + 1):
                raise ValueError("flat ensemble: left child must directly follow its parent")
            rights = self.right[internal]
            if np.any(rights <= internal + 1):
                raise ValueError("flat ensemble: right child must come after the left subtree")
            # Children may not cross into the next tree's node range.
            counts = np.diff(np.concatenate([self.tree_roots, np.asarray([n_nodes], dtype=np.int64)]))
            tree_end = np.repeat(self.tree_roots + counts, counts)
            if np.any(rights >= tree_end[internal]):
                raise ValueError("flat ensemble: right child crosses a tree boundary")

    # -- basic shape -----------------------------------------------------------------------------

    @property
    def n_trees(self) -> int:
        return int(self.tree_roots.shape[0])

    @property
    def n_nodes(self) -> int:
        return int(self.feature_id.shape[0])

    @property
    def has_leaf_models(self) -> bool:
        return self.leaf_has_model is not None

    def _tree_depths(self) -> np.ndarray:
        """Internal depth of every tree (0 == root is a leaf), vectorised."""
        if self._depths is not None:
            return self._depths
        n_trees = self.n_trees
        depths = np.zeros(n_trees, dtype=np.int64)
        frontier_nodes = self.tree_roots.astype(np.intp)
        frontier_tree = np.arange(n_trees, dtype=np.intp)
        level = 0
        while frontier_nodes.size:
            is_internal = self.feature_id[frontier_nodes] >= 0
            # Levels only grow, so plain assignment accumulates the max.
            depths[frontier_tree[~is_internal]] = level
            inner = frontier_nodes[is_internal]
            inner_tree = frontier_tree[is_internal]
            frontier_nodes = np.concatenate(
                [self.left[inner], self.right[inner]], dtype=np.intp, casting="unsafe"
            )
            frontier_tree = np.concatenate([inner_tree, inner_tree])
            level += 1
            if level > self.n_nodes + 1:  # pragma: no cover - guarded by _validate
                raise ValueError("flat ensemble: malformed tree exceeds node count in depth")
        self._depths = depths
        return depths

    # -- execution plan --------------------------------------------------------------------------

    def _execution_plan(self) -> _ExecutionPlan:
        """Derive (once) the depth-bucketed heap tables from the SoA arrays.

        The whole derivation is vectorised level-descent over frontier
        arrays — no per-node Python loop — so compiling a freshly decoded v3
        artifact costs a few array passes, not a tree walk.
        """
        if self._plan is not None:
            return self._plan
        depths = self._tree_depths()
        deep_mask = depths > _MAX_HEAP_DEPTH
        buckets: list[_HeapBucket] = []
        for depth in np.unique(depths[~deep_mask]) if depths.size else []:
            depth = int(depth)
            bucket_trees = np.flatnonzero((depths == depth) & ~deep_mask).astype(np.intp)
            buckets.append(self._build_bucket(depth, bucket_trees))
        plan = _ExecutionPlan(buckets, np.flatnonzero(deep_mask).astype(np.intp))
        self._plan = plan
        return plan

    def _build_bucket(self, depth: int, bucket_trees: np.ndarray) -> _HeapBucket:
        n_bucket = int(bucket_trees.shape[0])
        level_feats = [np.zeros(n_bucket << lvl, dtype=np.intp) for lvl in range(depth)]
        level_thrs = [np.full(n_bucket << lvl, np.inf, dtype=np.float64) for lvl in range(depth)]
        leaf_nodes: list[np.ndarray] = []
        leaf_starts: list[np.ndarray] = []
        leaf_widths: list[np.ndarray] = []
        frontier_nodes = self.tree_roots[bucket_trees].astype(np.intp)
        frontier_tree = np.arange(n_bucket, dtype=np.intp)
        frontier_slot = np.zeros(n_bucket, dtype=np.intp)
        for level in range(depth):
            is_leaf = self.feature_id[frontier_nodes] < 0
            leaf_nodes.append(frontier_nodes[is_leaf])
            leaf_starts.append(
                (frontier_tree[is_leaf] << depth) + (frontier_slot[is_leaf] << (depth - level))
            )
            leaf_widths.append(
                np.full(int(is_leaf.sum()), 1 << (depth - level), dtype=np.intp)
            )
            inner = frontier_nodes[~is_leaf]
            inner_tree = frontier_tree[~is_leaf]
            inner_slot = frontier_slot[~is_leaf]
            table_index = (inner_tree << level) + inner_slot
            level_feats[level][table_index] = self.feature_id[inner]
            level_thrs[level][table_index] = self.threshold[inner]
            # Swapped-children layout: LEFT at the odd slot so that
            # ``2*pos + (x <= thr)`` lands on it, RIGHT at the even slot.
            frontier_nodes = np.concatenate(
                [self.left[inner], self.right[inner]], dtype=np.intp, casting="unsafe"
            )
            frontier_tree = np.concatenate([inner_tree, inner_tree])
            frontier_slot = np.concatenate([(inner_slot << 1) + 1, inner_slot << 1])
        leaf_nodes.append(frontier_nodes)
        leaf_starts.append((frontier_tree << depth) + frontier_slot)
        leaf_widths.append(np.ones(int(frontier_nodes.shape[0]), dtype=np.intp))
        nodes = np.concatenate(leaf_nodes)
        starts = np.concatenate(leaf_starts)
        widths = np.concatenate(leaf_widths)
        # Sorted by bottom-row start offset the leaf ranges tile
        # [0, n_bucket << depth) exactly, so np.repeat fills the bottom row —
        # including every padded slot under an early leaf — in one shot.
        order = np.argsort(starts, kind="stable")
        nodes = nodes[order]
        widths = widths[order]
        values = np.repeat(self.leaf_value[nodes], widths)
        models: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        if (
            self.leaf_has_model is not None
            and self.leaf_model_feature is not None
            and self.leaf_model_slope is not None
            and self.leaf_model_intercept is not None
        ):
            models = (
                np.repeat(self.leaf_has_model[nodes], widths),
                np.repeat(self.leaf_model_feature[nodes].astype(np.intp), widths),
                np.repeat(self.leaf_model_slope[nodes], widths),
                np.repeat(self.leaf_model_intercept[nodes], widths),
            )
        return _HeapBucket(depth, bucket_trees, level_feats, level_thrs, values, models)

    # -- prediction ------------------------------------------------------------------------------

    def predict(
        self,
        features: np.ndarray,
        init: float | None = None,
        rate: float | None = None,
    ) -> np.ndarray:
        """Evaluate the full ensemble for every row of ``features``.

        ``init`` / ``rate`` override the compiled ``init_`` /
        ``learning_rate`` so callers can pass the ensemble's *current*
        parameters (which fault injection may have mutated after compile).
        Bit-identical to the sequential per-tree fold.
        """
        matrix = np.ascontiguousarray(features, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"flat ensemble: expected a 2-D matrix, got shape {matrix.shape}")
        n_rows = matrix.shape[0]
        base = self.init_ if init is None else float(init)
        lr = self.learning_rate if rate is None else float(rate)
        n_trees = self.n_trees
        contrib = np.empty((n_rows, n_trees + 1), dtype=np.float64)
        contrib[:, 0] = base
        if n_rows and n_trees:
            self._fill_tree_outputs(matrix, contrib[:, 1:])
        contrib[:, 1:] *= lr
        np.cumsum(contrib, axis=1, out=contrib)
        out = np.ascontiguousarray(contrib[:, n_trees])
        if self.clip_negative:
            np.maximum(out, 0.0, out=out)
        return out

    def _fill_tree_outputs(self, matrix: np.ndarray, out_cols: np.ndarray) -> None:
        """Write each tree's per-row output into ``out_cols[:, tree]``."""
        plan = self._execution_plan()
        n_rows = matrix.shape[0]
        # Column-major flattening: feature f of row r lives at f * n_rows + r,
        # so one fused gather index replaces 2-D fancy indexing.
        transposed = np.ascontiguousarray(matrix.T).ravel()
        # Per-call column bases: feature id -> offset into ``transposed``.
        colbases = [[feats * n_rows for feats in bucket.level_feats] for bucket in plan.buckets]
        model_colbases = [
            bucket.models[1] * n_rows if bucket.models is not None else None
            for bucket in plan.buckets
        ]
        block = max(int(_CELL_BUDGET // max(self.n_trees, 1)), 16)
        for start in range(0, n_rows, block):
            stop = min(start + block, n_rows)
            row_index = np.arange(start, stop, dtype=np.intp).reshape(-1, 1)
            for bucket, bases, model_base in zip(plan.buckets, colbases, model_colbases):
                out_cols[start:stop, bucket.tree_index] = self._route_bucket(
                    bucket, bases, model_base, transposed, row_index
                )
            if plan.deep_trees.size:
                out_cols[start:stop, plan.deep_trees] = self._route_deep(
                    plan.deep_trees, matrix[start:stop]
                )

    def _route_bucket(
        self,
        bucket: _HeapBucket,
        colbases: list[np.ndarray],
        model_colbase: np.ndarray | None,
        transposed: np.ndarray,
        row_index: np.ndarray,
    ) -> np.ndarray:
        n_block = row_index.shape[0]
        n_bucket = int(bucket.tree_index.shape[0])
        cells = (n_block, n_bucket)
        # ``pos`` folds the tree offset into the slot: at level L the global
        # table index is simply ``tree << L | slot``, so seeding with the
        # bucket-local tree number makes every later gather base-free.
        pos = np.empty(cells, dtype=np.intp)
        pos[:] = np.arange(n_bucket, dtype=np.intp)
        gather_index = np.empty(cells, dtype=np.intp)
        feature_value = np.empty(cells, dtype=np.float64)
        threshold = np.empty(cells, dtype=np.float64)
        go_left = np.empty(cells, dtype=np.bool_)
        for level in range(bucket.depth):
            colbases[level].take(pos, out=gather_index, mode="clip")
            gather_index += row_index
            transposed.take(gather_index, out=feature_value, mode="clip")
            bucket.level_thrs[level].take(pos, out=threshold, mode="clip")
            np.less_equal(feature_value, threshold, out=go_left)
            np.left_shift(pos, 1, out=pos)
            np.add(pos, go_left, out=pos, casting="unsafe")
        leaf = np.empty(cells, dtype=np.float64)
        bucket.values.take(pos, out=leaf, mode="clip")
        if bucket.models is not None and model_colbase is not None:
            has_model, _, slope, intercept = bucket.models
            model_colbase.take(pos, out=gather_index, mode="clip")
            gather_index += row_index
            transposed.take(gather_index, out=feature_value, mode="clip")
            slope.take(pos, out=threshold, mode="clip")
            feature_value *= threshold
            intercept.take(pos, out=threshold, mode="clip")
            feature_value += threshold
            has_model.take(pos, out=go_left, mode="clip")
            leaf = np.where(go_left, feature_value, leaf)
        return leaf

    def _route_deep(self, deep_trees: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        """Generic ``np.where`` descent over active row cursors (deep trees)."""
        n_block = matrix.shape[0]
        n_deep = int(deep_trees.shape[0])
        pos = np.empty((n_block, n_deep), dtype=np.intp)
        pos[:] = self.tree_roots[deep_trees].astype(np.intp)
        rows = np.broadcast_to(
            np.arange(n_block, dtype=np.intp).reshape(-1, 1), (n_block, n_deep)
        )
        active = self.feature_id[pos] >= 0
        while active.any():
            cells = np.nonzero(active)
            cursor = pos[cells]
            feature = self.feature_id[cursor]
            value = matrix[cells[0], feature]
            go_left = value <= self.threshold[cursor]
            advanced = np.where(go_left, self.left[cursor], self.right[cursor])
            pos[cells] = advanced
            active[cells] = self.feature_id[advanced] >= 0
        leaf = self.leaf_value[pos]
        if (
            self.leaf_has_model is not None
            and self.leaf_model_feature is not None
            and self.leaf_model_slope is not None
            and self.leaf_model_intercept is not None
        ):
            refined = (
                self.leaf_model_slope[pos] * matrix[rows, self.leaf_model_feature[pos]]
                + self.leaf_model_intercept[pos]
            )
            leaf = np.where(self.leaf_has_model[pos], refined, leaf)
        return leaf

    # -- decompile / stats -----------------------------------------------------------------------

    def tree_root_nodes(self) -> list[TreeNode]:
        """Rebuild ``TreeNode`` trees (inverse of :meth:`from_trees`)."""
        roots: list[TreeNode] = []
        n_nodes = self.n_nodes
        for tree in range(self.n_trees):
            start = int(self.tree_roots[tree])
            nodes: dict[int, TreeNode] = {}
            end = int(self.tree_roots[tree + 1]) if tree + 1 < self.n_trees else n_nodes
            # Children always follow their parent in pre-order, so one
            # reverse sweep has both children ready when the parent is built.
            for index in range(end - 1, start - 1, -1):
                if int(self.feature_id[index]) < 0:
                    nodes[index] = TreeNode(value=float(self.leaf_value[index]))
                else:
                    nodes[index] = TreeNode(
                        value=0.0,
                        feature=int(self.feature_id[index]),
                        threshold=float(self.threshold[index]),
                        left=nodes[int(self.left[index])],
                        right=nodes[int(self.right[index])],
                    )
            roots.append(nodes[start])
        return roots

    def leaf_models_by_rank(self) -> list[dict[int, LeafModel]]:
        """Per-tree ``{pre-order leaf rank: (feature, slope, intercept)}``."""
        if (
            self.leaf_has_model is None
            or self.leaf_model_feature is None
            or self.leaf_model_slope is None
            or self.leaf_model_intercept is None
        ):
            return [{} for _ in range(self.n_trees)]
        out: list[dict[int, LeafModel]] = []
        bounds = np.concatenate(
            [self.tree_roots, np.asarray([self.n_nodes], dtype=np.int64)]
        )
        for tree in range(self.n_trees):
            start, end = int(bounds[tree]), int(bounds[tree + 1])
            models: dict[int, LeafModel] = {}
            rank = 0
            for index in range(start, end):
                if int(self.feature_id[index]) >= 0:
                    continue
                if bool(self.leaf_has_model[index]):
                    models[rank] = (
                        int(self.leaf_model_feature[index]),
                        float(self.leaf_model_slope[index]),
                        float(self.leaf_model_intercept[index]),
                    )
                rank += 1
            out.append(models)
        return out

    def stats(self) -> FlatLayoutStats:
        arrays: list[np.ndarray] = [
            self.feature_id,
            self.threshold,
            self.left,
            self.right,
            self.leaf_value,
            self.tree_roots,
        ]
        for extra in (
            self.leaf_has_model,
            self.leaf_model_feature,
            self.leaf_model_slope,
            self.leaf_model_intercept,
        ):
            if extra is not None:
                arrays.append(extra)
        depths = self._tree_depths()
        return FlatLayoutStats(
            n_trees=self.n_trees,
            n_nodes=self.n_nodes,
            n_leaves=int(np.count_nonzero(self.feature_id < 0)),
            max_depth=int(depths.max()) if depths.size else 0,
            array_bytes=int(sum(arr.nbytes for arr in arrays)),
            dtype_summary="feature/children int32, thresholds/values float64, roots int64",
        )


class FusedForest:
    """Several compiled MART ensembles behind one node-chasing kernel.

    The members' SoA node arrays are concatenated (node indices offset per
    member) and every row is evaluated against its *own* member only: the
    row's cursors start at that member's tree roots.  Leaves loop to
    themselves (feature 0, threshold ``+inf``, both children the leaf), so
    routing a row for its member's depth lands every cursor on a leaf; rows
    are routed deepest member first, each level only the prefix of rows
    still descending.  Members with fewer trees than the
    widest one pad their cursors with a zero-valued dummy leaf; each row
    reads its own member's last running-sum column, so the padding never
    enters a result.

    Evaluation is bit-identical to :meth:`FlatForest.predict` of the row's
    member: same routing (``x <= threshold`` goes left, NaN goes right),
    the same per-tree ``rate *`` multiply and the same sequential
    ``np.cumsum`` fold.  Only plain MART forests fuse (no per-leaf linear
    refinements, no output clipping).
    """

    def __init__(self, forests: Sequence[FlatForest]) -> None:
        if any(f.has_leaf_models or f.clip_negative for f in forests):
            raise ValueError("fused forest: only plain MART ensembles can be fused")
        sizes = np.asarray([f.n_nodes for f in forests], dtype=np.intp)
        node_base = np.concatenate([np.zeros(1, dtype=np.intp), np.cumsum(sizes)])
        dummy = int(node_base[-1])
        n_nodes = dummy + 1
        leaf = np.concatenate([f.feature_id < 0 for f in forests] + [np.ones(1, dtype=np.bool_)])
        feature = np.concatenate(
            [f.feature_id.astype(np.intp) for f in forests] + [np.zeros(1, dtype=np.intp)]
        )
        feature[leaf] = 0
        threshold = np.concatenate(
            [f.threshold for f in forests] + [np.zeros(1, dtype=np.float64)]
        )
        threshold[leaf] = np.inf
        # Children interleaved so that ``children[2*pos + go_left]`` is the
        # next cursor: RIGHT at the even slot, LEFT at the odd one.
        own = np.arange(n_nodes, dtype=np.intp)
        left = np.concatenate(
            [f.left.astype(np.intp) + base for f, base in zip(forests, node_base)] + [own[-1:]]
        )
        right = np.concatenate(
            [f.right.astype(np.intp) + base for f, base in zip(forests, node_base)] + [own[-1:]]
        )
        children = np.empty(2 * n_nodes, dtype=np.intp)
        children[0::2] = np.where(leaf, own, right)
        children[1::2] = np.where(leaf, own, left)
        self.feature = feature
        self.threshold = threshold
        self.children = children
        self.value = np.concatenate(
            [f.leaf_value for f in forests] + [np.zeros(1, dtype=np.float64)]
        )
        self.n_trees = np.asarray([f.n_trees for f in forests], dtype=np.intp)
        self.depth = np.asarray(
            [int(f._tree_depths().max()) if f.n_trees else 0 for f in forests], dtype=np.intp
        )
        width = int(self.n_trees.max()) if forests else 0
        roots = np.full((len(forests), width), dummy, dtype=np.intp)
        for member, (forest, base) in enumerate(zip(forests, node_base)):
            roots[member, : forest.n_trees] = forest.tree_roots + base
        self.roots = roots

    def predict(
        self,
        features: np.ndarray,
        member: np.ndarray,
        init: np.ndarray,
        rate: np.ndarray,
    ) -> np.ndarray:
        """Evaluate row ``i`` of ``features`` with member ``member[i]``.

        ``features`` holds, per row, the input features of that row's
        member (columns past the member's own width are never read);
        ``init`` / ``rate`` hold every member's *current* initial
        prediction and learning rate.
        """
        matrix = np.ascontiguousarray(features, dtype=np.float64)
        n_rows, width = matrix.shape
        # Rows are evaluated deepest member first (then by member), so each
        # level routes only the prefix of rows whose member still has trees
        # that deep; results are scattered back to input order at the end.
        member = np.asarray(member, dtype=np.intp)
        order = np.argsort(member - self.depth[member] * self.depth.shape[0], kind="stable")
        member = member[order]
        n_trees = self.n_trees[member]
        n_cols = int(n_trees.max()) if n_rows else 0
        contrib = np.empty((n_rows, n_cols + 1), dtype=np.float64)
        contrib[:, 0] = init[member]
        if n_rows and n_cols:
            depth = self.depth[member]
            flat = matrix.ravel()
            block = max(int(_FUSED_BUDGET // n_cols), 16)
            for start in range(0, n_rows, block):
                stop = min(start + block, n_rows)
                contrib[start:stop, 1:] = self._route(
                    flat, member[start:stop], order[start:stop] * width, depth[start:stop], n_cols
                )
        contrib[:, 1:] *= rate[member].reshape(-1, 1)
        np.cumsum(contrib, axis=1, out=contrib)
        out = np.empty(n_rows, dtype=np.float64)
        out[order] = contrib[np.arange(n_rows, dtype=np.intp), n_trees]
        return out

    def _route(
        self,
        flat: np.ndarray,
        member: np.ndarray,
        row_base: np.ndarray,
        depth: np.ndarray,
        n_cols: int,
    ) -> np.ndarray:
        """Leaf value of every (row, tree) cursor of rows in descending depth."""
        n_rows = member.shape[0]
        cells = (n_rows, n_cols)
        pos = self.roots[member, :n_cols]
        nxt = np.empty(cells, dtype=np.intp)
        row_base = row_base.reshape(-1, 1)
        gather_index = np.empty(cells, dtype=np.intp)
        feature_value = np.empty(cells, dtype=np.float64)
        threshold = np.empty(cells, dtype=np.float64)
        go_left = np.empty(cells, dtype=np.bool_)
        # Rows deeper than each level; the rest already sit on their leaves.
        active = n_rows - np.cumsum(np.bincount(depth))
        routed = n_rows
        for rows in active[:-1].tolist():
            if rows < routed:
                # Finished rows keep their leaf in both cursor buffers.
                nxt[rows:routed] = pos[rows:routed]
                routed = rows
            cursor, index = pos[:rows], gather_index[:rows]
            value, bound, left = feature_value[:rows], threshold[:rows], go_left[:rows]
            self.feature.take(cursor, out=index, mode="clip")
            index += row_base[:rows]
            flat.take(index, out=value, mode="clip")
            self.threshold.take(cursor, out=bound, mode="clip")
            np.less_equal(value, bound, out=left)
            np.left_shift(cursor, 1, out=cursor)
            np.add(cursor, left, out=cursor, casting="unsafe")
            self.children.take(cursor, out=nxt[:rows], mode="clip")
            pos, nxt = nxt, pos
        leaf = np.empty(cells, dtype=np.float64)
        self.value.take(pos, out=leaf, mode="clip")
        return leaf


def compile_mart(model: "MARTRegressor") -> FlatForest:
    """Compile a fitted :class:`MARTRegressor` into a :class:`FlatForest`."""
    if model.n_features_ is None:
        raise RuntimeError("model has not been fitted")
    return FlatForest.from_trees(
        [tree.root for tree in model.trees_ if tree.root is not None],
        learning_rate=model.config.learning_rate,
        init_=float(model.initial_prediction_),
        n_features=int(model.n_features_),
    )


def compile_transform(model: "TransformRegressor") -> FlatForest:
    """Compile a fitted :class:`TransformRegressor` (trees + leaf linears)."""
    if model.n_features_ is None:
        raise RuntimeError("model has not been fitted")
    roots: list[TreeNode] = []
    leaf_models: list[dict[int, LeafModel]] = []
    for stage in model.stages_:
        if stage.tree.root is None:  # pragma: no cover - fitted stages always have roots
            raise RuntimeError("transform stage has no fitted tree")
        roots.append(stage.tree.root)
        stage_models: dict[int, LeafModel] = {}
        for rank, (feature_index, regressor) in stage.leaf_models.items():
            if regressor.coefficients_ is None:  # pragma: no cover - fitted by construction
                continue
            stage_models[rank] = (
                int(feature_index),
                float(regressor.coefficients_[0]),
                float(regressor.intercept_),
            )
        leaf_models.append(stage_models)
    return FlatForest.from_trees(
        roots,
        learning_rate=model.config.learning_rate,
        init_=float(model.initial_prediction_),
        n_features=int(model.n_features_),
        clip_negative=bool(model.clip_negative),
        leaf_models=leaf_models,
    )
