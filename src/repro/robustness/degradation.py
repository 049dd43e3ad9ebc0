"""The explicit fallback ladder and its per-estimate report.

When the guarded estimation path cannot serve a (plan, operator, resource)
from the trained MART model set it walks down an explicit ladder:

====================  =========================================================
tier                  source of the estimate
====================  =========================================================
``MODEL``             per-family MART model set (the paper's full technique)
``SCALING``           fitted ``alpha · g(cardinality)`` scaling function
                      (the paper's designed fallback, ``core/scaling.py``)
``FAMILY_RATE``       per-(family, resource) median per-tuple rate
``GLOBAL_DEFAULT``    global per-resource median per-tuple rate
====================  =========================================================

Every guarded :class:`~repro.core.estimator.WorkloadEstimate` carries a
:class:`DegradationReport` recording which tier served each (plan, resource),
so callers and tests can *see* degradation instead of inferring it from
suspicious numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Iterable, Mapping

import numpy as np

from repro.core.scaling import FittedScaling, make_scaling_function

__all__ = [
    "DegradationTier",
    "DegradedOperator",
    "DegradationReport",
    "ScalingFallback",
]


class DegradationTier(IntEnum):
    """Fallback ladder position; larger values mean deeper degradation."""

    MODEL = 0
    SCALING = 1
    FAMILY_RATE = 2
    GLOBAL_DEFAULT = 3


@dataclass(frozen=True)
class DegradedOperator:
    """One operator estimate that was served below the ``MODEL`` tier."""

    plan_index: int
    node_id: int
    resource: str
    tier: DegradationTier
    reason: str


@dataclass(frozen=True)
class DegradationReport:
    """Which tier served each (plan, resource) of a workload estimate.

    ``entries`` lists only operators served *below* the model tier; a clean
    estimate has an empty report.  ``ood_plans`` maps plan index to the worst
    out-of-distribution score among its operators, for plans whose score
    exceeded the caller's threshold.
    """

    #: Ordered by plan, then operator pre-order position, then resource in
    #: the estimator's resource order — so a coalesced slice's report equals
    #: a direct estimate's report entry for entry.
    entries: tuple[DegradedOperator, ...] = ()
    ood_plans: Mapping[int, float] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.entries and not self.ood_plans

    @property
    def count(self) -> int:
        return len(self.entries)

    def tier(self, plan_index: int, resource: str) -> DegradationTier:
        """Worst (deepest) tier that served any operator of the plan."""

        worst = DegradationTier.MODEL
        for entry in self.entries:
            if entry.plan_index == plan_index and entry.resource == resource:
                worst = max(worst, entry.tier)
        return worst

    def tiers_used(self) -> tuple[DegradationTier, ...]:
        """Distinct tiers present in the report, shallowest first."""

        return tuple(sorted({entry.tier for entry in self.entries}))

    def by_tier(self) -> dict[DegradationTier, int]:
        counts: dict[DegradationTier, int] = {}
        for entry in self.entries:
            counts[entry.tier] = counts.get(entry.tier, 0) + 1
        return counts

    def summary(self) -> str:
        if self.clean:
            return "all estimates served by the model tier"
        parts = [
            f"{tier.name}={count}" for tier, count in sorted(self.by_tier().items())
        ]
        if self.ood_plans:
            parts.append(f"ood_plans={len(self.ood_plans)}")
        return "degraded: " + ", ".join(parts)

    @classmethod
    def merge(cls, reports: Iterable["DegradationReport"]) -> "DegradationReport":
        entries: list[DegradedOperator] = []
        ood: dict[int, float] = {}
        for report in reports:
            entries.extend(report.entries)
            for plan_index, score in report.ood_plans.items():
                ood[plan_index] = max(score, ood.get(plan_index, 0.0))
        return cls(entries=tuple(entries), ood_plans=ood)


@dataclass(frozen=True)
class ScalingFallback:
    """A fitted ``alpha · g(cardinality)`` curve for one (family, resource).

    This is the paper's scaling technique repurposed as the first degradation
    tier below the MART models: fitted at training time from (cardinality,
    resource) pairs, it needs only an output cardinality at serving time.
    """

    function: str
    alpha: float

    def predict_rows(self, cardinalities: np.ndarray) -> np.ndarray:
        """Vectorised prediction over sanitised (non-negative) cardinalities."""

        g = make_scaling_function(self.function)
        cards = np.maximum(np.asarray(cardinalities, dtype=np.float64), 0.0)
        return np.maximum(self.alpha * np.asarray(g(cards), dtype=np.float64), 0.0)

    @classmethod
    def from_fitted(cls, fitted: FittedScaling) -> "ScalingFallback":
        return cls(function=fitted.function.name, alpha=float(fitted.alpha))

    def record(self) -> dict[str, Any]:
        return {"function": self.function, "alpha": float(self.alpha)}

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "ScalingFallback":
        fallback = cls(function=str(record["function"]), alpha=float(record["alpha"]))
        make_scaling_function(fallback.function)  # validate eagerly
        return fallback
