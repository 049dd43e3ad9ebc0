"""Latency statistics of one measured window.

A tail percentile is only reported where the sample supports it: at least
``TAIL_SAMPLES`` samples must lie beyond it.  With fewer than
``100 * TAIL_SAMPLES`` samples the nominal p99 falls back to the highest
percentile that still has that many samples above it, and the summary says
which percentile it reports.

A window's latency figures are medians over ``PARTS`` consecutive parts of
its requests, so that one stall of the machine does not set a run's tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10

#: Consecutive parts of a window whose latency figures are medianed, and
#: the fewest samples a part may hold (shorter windows use fewer parts).
PARTS = 3
PART_SAMPLES = 100


def tail_percentile(n_samples: int, target: float = 99.0) -> float:
    """The highest percentile <= ``target`` with ``TAIL_SAMPLES`` samples beyond it.

    Percentiles use linear interpolation between order statistics (NumPy's
    default), under which percentile ``100 * (1 - k / n)`` has exactly ``k``
    of ``n`` samples strictly above its interpolation point.
    """
    if n_samples <= TAIL_SAMPLES:
        raise ValueError(
            f"{n_samples} sample(s) cannot support a tail percentile; "
            f"need more than {TAIL_SAMPLES}"
        )
    return min(target, 100.0 * (1.0 - TAIL_SAMPLES / n_samples))


def samples_beyond(samples: Sequence[float], percentile: float) -> int:
    """Samples strictly above the interpolation point of ``percentile``."""
    n = len(samples)
    position = (n - 1) * percentile / 100.0
    return n - 1 - int(np.floor(position))


@dataclass(frozen=True)
class LatencySummary:
    """Median and supported tail of one window's request latencies (ms)."""

    n: int
    p50_ms: float
    #: Value at :attr:`tail_percentile` (the p99 when the sample supports it).
    tail_ms: float
    tail_percentile: float
    #: Samples strictly beyond the tail percentile (>= ``TAIL_SAMPLES``).
    tail_beyond: int
    max_ms: float

    @classmethod
    def of(cls, samples_ms: Sequence[float]) -> "LatencySummary":
        values = np.asarray(samples_ms, dtype=np.float64)
        percentile = tail_percentile(values.size)
        p50, tail = np.percentile(values, [50.0, percentile])
        return cls(
            n=int(values.size),
            p50_ms=float(p50),
            tail_ms=float(tail),
            tail_percentile=percentile,
            tail_beyond=samples_beyond(values, percentile),
            max_ms=float(values.max()),
        )

    def record(self) -> dict[str, float | int]:
        return {
            "n": self.n,
            "p50_ms": self.p50_ms,
            "tail_ms": self.tail_ms,
            "tail_percentile": self.tail_percentile,
            "tail_beyond": self.tail_beyond,
            "max_ms": self.max_ms,
        }


@dataclass(frozen=True)
class WindowLatency:
    """Median over a window's consecutive parts of their p50 and tail."""

    p50_ms: float
    tail_ms: float
    parts: tuple[LatencySummary, ...]

    @classmethod
    def of(cls, samples_in_order: Sequence[float], parts: int = PARTS) -> "WindowLatency":
        samples = np.asarray(samples_in_order, dtype=np.float64)
        parts = max(1, min(parts, samples.size // PART_SAMPLES))
        chunks = np.array_split(samples, parts)
        summaries = tuple(LatencySummary.of(chunk) for chunk in chunks)
        return cls(
            p50_ms=float(np.median([s.p50_ms for s in summaries])),
            tail_ms=float(np.median([s.tail_ms for s in summaries])),
            parts=summaries,
        )

    def record(self) -> dict[str, object]:
        return {
            "p50_ms": self.p50_ms,
            "tail_ms": self.tail_ms,
            "parts": [part.record() for part in self.parts],
        }
