"""Pure-Python reference of the out_ratio selection rule (paper Section 6.3).

Test helper, not a test module.  One row at a time, with Python floats only:
the row is transformed with the scalar Section 6.1 reference
(:func:`~repro.core.scaled_model.transform_feature_dict`), every candidate
gets the key ``(max out_ratio, #scaling features, descending tail[:7])``,
and the candidates are folded in order, a challenger replacing the
incumbent only when its key compares strictly smaller.  Keys without NaN
compare as Python tuples; a NaN entry decides neither way, so the
comparison moves on to the next entry of the ``-1``-padded keys.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.combined_model import CombinedModel
from repro.core.scaled_model import transform_feature_dict

#: Tail length and pad of the tie-breaking keys.
TAIL = 7
PAD = -1.0


def out_ratio_profile(model: CombinedModel, row: dict[str, float]) -> list[float]:
    """Per-input-feature out_ratios, NaN first, then descending."""
    full = {name: row.get(name, 0.0) for name in model.feature_names}
    transformed = transform_feature_dict(full, model.steps)
    ratios = []
    for name in model.input_features_:
        if name not in model.training_low_:
            ratios.append(0.0)
            continue
        low, high = model.training_low_[name], model.training_high_[name]
        value = transformed[name]
        ratios.append((max(low - value, 0.0) + max(value - high, 0.0)) / max(high - low, 1e-9))
    nans = [r for r in ratios if math.isnan(r)]
    return nans + sorted((r for r in ratios if not math.isnan(r)), reverse=True)


def selection_key(model: CombinedModel, row: dict[str, float]) -> tuple[float, ...]:
    profile = out_ratio_profile(model, row)
    return (profile[0] if profile else 0.0, float(model.n_scaling_features), *profile[1 : 1 + TAIL])


def precedes(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """``a`` strictly before ``b`` in the selection order."""
    if not any(math.isnan(v) for v in a + b):
        return a < b
    width = 2 + TAIL
    for x, y in zip(a + (PAD,) * (width - len(a)), b + (PAD,) * (width - len(b))):
        if x < y:
            return True
        if x > y:
            return False
    return False


def select(
    default_model: CombinedModel, models: Sequence[CombinedModel], row: dict[str, float]
) -> tuple[int, float, bool]:
    """``(candidate index, max out_ratio, used default)`` for one row."""
    candidates = list(models)
    if not any(model is default_model for model in candidates):
        candidates.append(default_model)
    default_index = next(i for i, m in enumerate(candidates) if m is default_model)
    keys = [selection_key(model, row) for model in candidates]
    if keys[default_index][0] <= 0.0:
        return default_index, 0.0, True
    best = 0
    for position in range(1, len(candidates)):
        if precedes(keys[position], keys[best]):
            best = position
    return best, keys[best][0], best == default_index
