"""Property tests of the columnar ``WorkloadEstimate``.

Two invariants make coalesced serving exact, and both are checked bitwise
(``np.array_equal``, ``tobytes`` and ``==``, never ``approx``) over random
plan mixes drawn from TPC-H plans, cross-schema TPC-DS plans and plans whose
every operator carries a non-finite feature (so degradation entries and OOD
flags are exercised too):

* a batch estimate equals the concatenation of single-plan estimates;
* a slice of a combined batch equals the direct estimate of its plans, for
  random request splits and resource subsets, as the coalescer cuts them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import WorkloadEstimate
from repro.robustness import FaultInjector
from repro.robustness.degradation import DegradationReport
from repro.workloads.tpcds import build_tpcds_workload

#: Plans in the pool: 5 TPC-H, 5 TPC-DS, then one poisoned copy of each kind.
POOL_SIZE = 12
OOD_THRESHOLD = 0.5

plan_indices = st.lists(st.integers(0, POOL_SIZE - 1), min_size=1, max_size=6)
resource_sets = st.sampled_from([("cpu",), ("io",), ("cpu", "io"), ("io", "cpu")])


@pytest.fixture(scope="module")
def pool(trained_estimator, workload_split):
    """``(plan, extracted features)`` pairs the properties draw from."""
    _, test = workload_split
    tpcds = build_tpcds_workload(scale_factor=0.05, skew_z=0.8, n_queries=5, seed=21)
    plans = [q.plan for q in test[:5]] + [q.plan for q in tpcds.queries[:5]]
    entries = [(plan, trained_estimator.extract_plan_features(plan)) for plan in plans]
    for plan, features in (entries[0], entries[5]):
        (poisoned,) = FaultInjector(seed=3).corrupt_features([features], rate=1.0)
        entries.append((plan, poisoned))
    assert len(entries) == POOL_SIZE
    return entries


def _estimate(estimator, pool, indices, resources) -> WorkloadEstimate:
    return estimator.estimate_extracted_workload(
        [pool[i][0] for i in indices],
        [pool[i][1] for i in indices],
        resources,
        ood_threshold=OOD_THRESHOLD,
    )


def _assert_same(actual: WorkloadEstimate, expected: WorkloadEstimate) -> None:
    assert actual.plans == expected.plans
    assert actual.resources == expected.resources
    assert np.array_equal(actual.node_ids, expected.node_ids)
    assert np.array_equal(actual.offsets, expected.offsets)
    for resource in expected.resources:
        assert actual.values[resource].tobytes() == expected.values[resource].tobytes()
        assert (
            actual.query_totals(resource).tobytes()
            == expected.query_totals(resource).tobytes()
        )
        for index in range(expected.n_plans):
            assert list(actual.operators(index, resource).items()) == list(
                expected.operators(index, resource).items()
            )
    assert actual.degradation == expected.degradation


@settings(max_examples=50, deadline=None)
@given(indices=plan_indices, resources=resource_sets)
def test_batch_equals_concatenated_single_plan_estimates(
    trained_estimator, pool, indices, resources
):
    batch = _estimate(trained_estimator, pool, indices, resources)
    singles = [_estimate(trained_estimator, pool, [i], resources) for i in indices]
    sizes = [single.node_ids.size for single in singles]
    expected = WorkloadEstimate(
        plans=[single.plans[0] for single in singles],
        resources=resources,
        node_ids=np.concatenate([single.node_ids for single in singles]),
        offsets=np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
        values={
            resource: np.concatenate([single.values[resource] for single in singles])
            for resource in resources
        },
        degradation=DegradationReport(
            entries=tuple(
                replace(entry, plan_index=position)
                for position, single in enumerate(singles)
                for entry in single.degradation.entries
            ),
            ood_plans={
                position: score
                for position, single in enumerate(singles)
                for score in single.degradation.ood_plans.values()
            },
        ),
    )
    _assert_same(batch, expected)
    for resource in resources:
        assert np.array_equal(
            batch.query_totals(resource),
            np.concatenate([single.query_totals(resource) for single in singles]),
        )


@settings(max_examples=50, deadline=None)
@given(requests=st.lists(st.tuples(plan_indices, resource_sets), min_size=1, max_size=4))
def test_slice_equals_direct_estimate(trained_estimator, pool, requests):
    all_indices = [i for indices, _ in requests for i in indices]
    union = tuple(dict.fromkeys(r for _, resources in requests for r in resources))
    combined = _estimate(trained_estimator, pool, all_indices, union)
    offset = 0
    for indices, resources in requests:
        direct = _estimate(trained_estimator, pool, indices, resources)
        _assert_same(combined.slice(offset, len(indices), resources), direct)
        offset += len(indices)
