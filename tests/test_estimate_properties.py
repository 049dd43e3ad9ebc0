"""Property tests of the columnar ``WorkloadEstimate``.

Two invariants make coalesced serving exact, and both are checked bitwise
(``np.array_equal``, ``tobytes`` and ``==``, never ``approx``) over random
plan mixes drawn from TPC-H plans, cross-schema TPC-DS plans and plans whose
every operator carries a non-finite feature (so degradation entries and OOD
flags are exercised too):

* a batch estimate equals the concatenation of single-plan estimates;
* a slice of a combined batch equals the direct estimate of its plans, for
  random request splits and resource subsets, as the coalescer cuts them.

Two more pin the compiled model selection of an operator model set
against references over hand-built candidates (scaling-step chains, a
duplicated step, a step on a missing column, an unknown training range and
an exact duplicate candidate) and rows that are in range, out of range,
overflowing to ``inf``, NaN or exact ties:

* ``select_batch`` equals the pure-Python oracle of the Section 6.3 rule
  (``tests/selection_oracle.py``) and the concatenation of single-row
  selections;
* ``predict_batch`` equals each winner's own ``CombinedModel.predict_batch``
  on the rows it won.

The estimator serves every model set through one stacked selector per
family and one fused kernel per request.  Two properties pin that path:

* its per-operator values equal ``OperatorModelSet.predict_batch`` of each
  (family, resource), bitwise, for every resource subset and for rows with
  NaN, +-inf and 1e300 features;
* the degradation ladder only ever degrades a row: under corrupted features
  and a poisoned (family, resource), clean rows stay at ``MODEL`` and equal
  ``guardrails=False``, no row with a non-finite feature is served at
  ``MODEL``, and the report equals the one the per-set guarded path builds.
"""

from __future__ import annotations

import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selection_oracle
from repro.core.combined_model import CombinedModel
from repro.core.estimator import WorkloadEstimate, _family_matrix
from repro.core.trainer import CompiledModelSets
from repro.core.scaled_model import ScalingStep
from repro.core.scaling import SCALING_FUNCTIONS
from repro.core.trainer import OperatorModelSet
from repro.features.definitions import OperatorFamily, features_for_family
from repro.ml.mart import MARTConfig
from repro.robustness import FaultInjector
from repro.robustness.degradation import DegradationReport, DegradationTier
from repro.workloads.tpcds import build_tpcds_workload

#: Plans in the pool: 5 TPC-H, 5 TPC-DS, then one poisoned copy of each kind.
POOL_SIZE = 12
N_CLEAN = 10
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


# -- compiled model selection --------------------------------------------------------------------

SELECTION_FEATURES = ("COUT", "SOUTAVG", "SOUTTOT", "CIN1", "SINAVG1", "SINTOT1",
                      "CIN2", "SINAVG2", "SINTOT2", "OUTPUTUSAGE", "CPREDICATES")
#: Per-feature multipliers applied to in-range training rows.
MULTIPLIERS = (1.0, 1.0, 0.5, 2.0, 10.0, 1e3, 1e-3, 0.0, -1.0, 1e300,
               math.inf, -math.inf, math.nan)
N_BASE_ROWS = 40

probe_rows = st.lists(
    st.tuples(
        st.integers(0, N_BASE_ROWS - 1),
        st.lists(
            st.tuples(st.sampled_from(SELECTION_FEATURES), st.sampled_from(MULTIPLIERS)),
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=12,
)


def _training_rows(n: int = 150) -> tuple[list[dict[str, float]], np.ndarray]:
    rng = np.random.default_rng(5)
    rows, targets = [], []
    for _ in range(n):
        cin = float(rng.uniform(100, 5_000))
        width = float(rng.uniform(10, 200))
        cout = cin * float(rng.uniform(0.1, 0.9))
        rows.append({
            "COUT": cout, "SOUTAVG": width, "SOUTTOT": cout * width,
            "CIN1": cin, "SINAVG1": width, "SINTOT1": cin * width,
            "CIN2": 0.0, "SINAVG2": 0.0, "SINTOT2": 0.0,
            "OUTPUTUSAGE": 3.0, "CPREDICATES": float(rng.integers(1, 4)),
        })
        targets.append(0.05 * cin * (1.0 + width / 200.0))
    return rows, np.asarray(targets, dtype=np.float64)


@pytest.fixture(scope="module")
def selection_case():
    """Candidates covering every branch of the compiled transform and keys."""
    rows, targets = _training_rows()
    linear = SCALING_FUNCTIONS["linear"]
    mart = MARTConfig(n_iterations=8, max_leaves=6, learning_rate=0.3, subsample=1.0)

    def fitted(*features: str) -> CombinedModel:
        steps = tuple(ScalingStep(feature, linear) for feature in features)
        model = CombinedModel(OperatorFamily.FILTER, "cpu", SELECTION_FEATURES, steps, mart)
        return model.fit(rows, targets)

    plain, cin1, soutavg = fitted(), fitted("CIN1"), fitted("SOUTAVG")
    unknown = copy.deepcopy(soutavg)
    del unknown.training_low_["CPREDICATES"], unknown.training_high_["CPREDICATES"]
    models = [
        plain, cin1, soutavg,
        fitted("CIN1", "COUT"),      # the second step reads a divided column
        fitted("SOUTTOT", "COUT"),
        fitted("CIN1", "CIN1"),      # the second step reads the raw column
        fitted("TSIZE"),             # a step on a column the family lacks
        copy.deepcopy(cin1),         # ties ``cin1`` on every row
        unknown,
    ]
    outside = fitted("SINAVG1")
    return rows, models, {"first": plain, "scaled": cin1, "outside": outside}


def _probe_matrix(rows, specs) -> tuple[list[dict[str, float]], np.ndarray]:
    probes = []
    for base, changes in specs:
        row = dict(rows[base])
        for feature, multiplier in changes:
            with np.errstate(all="ignore"):
                row[feature] = float(np.float64(row[feature]) * multiplier) + 0.0
        probes.append(row)
    matrix = np.asarray(
        [[row[name] for name in SELECTION_FEATURES] for row in probes], dtype=np.float64
    )
    return probes, matrix


def _same_floats(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equal, except that any NaN matches any NaN (payloads are free)."""
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))) and a[~nan].tobytes() == b[~nan].tobytes()


@settings(max_examples=150, deadline=None)
@given(specs=probe_rows, default=st.sampled_from(["first", "scaled", "outside"]))
def test_compiled_selection_matches_oracle_and_single_rows(selection_case, specs, default):
    rows, models, defaults = selection_case
    model_set = OperatorModelSet(OperatorFamily.FILTER, "cpu", models, defaults[default])
    probes, matrix = _probe_matrix(rows, specs)
    with np.errstate(all="ignore"):
        batch = model_set.select_batch(matrix)
        singles = [model_set.select_batch(matrix[i : i + 1]) for i in range(len(probes))]
    oracle = [
        selection_oracle.select(model_set.default_model, models, row) for row in probes
    ]
    assert batch.indices.tolist() == [index for index, _, _ in oracle]
    assert batch.used_default.tolist() == [used for _, _, used in oracle]
    assert _same_floats(
        batch.max_out_ratios, np.asarray([ratio for _, ratio, _ in oracle], dtype=np.float64)
    )
    assert np.array_equal(np.concatenate([s.indices for s in singles]), batch.indices)
    assert np.array_equal(np.concatenate([s.used_default for s in singles]), batch.used_default)
    assert _same_floats(np.concatenate([s.max_out_ratios for s in singles]), batch.max_out_ratios)


@settings(max_examples=100, deadline=None)
@given(specs=probe_rows, default=st.sampled_from(["first", "scaled", "outside"]))
def test_model_set_predict_equals_per_winner_predict(selection_case, specs, default):
    rows, models, defaults = selection_case
    model_set = OperatorModelSet(OperatorFamily.FILTER, "cpu", models, defaults[default])
    _, matrix = _probe_matrix(rows, specs)
    with np.errstate(all="ignore"):
        selection = model_set.select_batch(matrix)
        estimates = model_set.predict_batch(matrix)
        for index in np.unique(selection.indices):
            won = selection.indices == index
            expected = selection.candidates[index].predict_batch(matrix[won])
            assert estimates[won].tobytes() == expected.tobytes()


# -- the fused per-request path --------------------------------------------------------------------

#: Multipliers of the scaled rows: in range, far out of range, overflowing
#: and non-finite.
ROW_SCALES = (1.0, 1e-3, 1e3, 1e300, math.inf, -math.inf, math.nan)

scaled_ops = st.lists(
    st.tuples(st.integers(0, 10_000), st.sampled_from(ROW_SCALES)), max_size=8
)


def _scaled(extracted, specs):
    """Copies of ``extracted`` with one feature of some operators scaled."""
    plans = [dict(features) for features in extracted]
    slots = [(p, node) for p, features in enumerate(plans) for node in features]
    for pick, scale in specs:
        p, node = slots[pick % len(slots)]
        op = plans[p][node]
        names = sorted(op.values)
        name = names[pick % len(names)]
        values = dict(op.values)
        with np.errstate(all="ignore"):
            values[name] = float(np.float64(values[name]) * scale) + 0.0
        plans[p][node] = replace(op, values=values)
    return plans


def _family_rows(extracted):
    """Per family: the estimate's row indices and the family matrix."""
    positions, rows = {}, {}
    row = 0
    for features in extracted:
        for op in features.values():
            positions.setdefault(op.family, []).append(row)
            rows.setdefault(op.family, []).append(op.values)
            row += 1
    return {
        family: (np.asarray(positions[family]), _family_matrix(family, rows[family]))
        for family in positions
    }


@settings(max_examples=40, deadline=None)
@given(indices=plan_indices, resources=resource_sets, specs=scaled_ops)
def test_fused_values_equal_model_set_predict_batch(
    trained_estimator, pool, indices, resources, specs
):
    plans = [pool[i][0] for i in indices]
    extracted = _scaled([pool[i][1] for i in indices], specs)
    with np.errstate(all="ignore"):
        bare = trained_estimator.estimate_extracted_workload(
            plans, extracted, resources, guardrails=False
        )
        guarded = trained_estimator.estimate_extracted_workload(plans, extracted, resources)
        served = {(e.plan_index, e.node_id, e.resource) for e in guarded.degradation.entries}
        plan_of_row = np.repeat(np.arange(len(plans)), np.diff(bare.offsets))
        for family, (rows, matrix) in _family_rows(extracted).items():
            for resource in resources:
                model_set = trained_estimator.model_sets.get((family, resource))
                if model_set is None:
                    continue
                expected = model_set.predict_batch(matrix)
                assert bare.values[resource][rows].tobytes() == expected.tobytes()
                for position, row in enumerate(rows):
                    key = (int(plan_of_row[row]), int(bare.node_ids[row]), resource)
                    if key not in served:
                        assert guarded.values[resource][row] == expected[position]
    if all(scale == 1.0 for _, scale in specs) and max(indices) < N_CLEAN:
        direct = trained_estimator.estimate_workload(plans, resources, guardrails=False)
        for resource in resources:
            assert direct.values[resource].tobytes() == bare.values[resource].tobytes()


@pytest.fixture(scope="module")
def poisoned_estimators(trained_estimator):
    """``poison_model`` results for any (family, resource) and mode.

    ``poison_model`` deep-copies the estimator, which is slow; the broken
    set it installs is stateless, so one copy per mode supplies the shim
    and each (family, resource) gets a shallow copy with it swapped in.
    """
    first = min(trained_estimator.model_sets, key=lambda k: (k[0].value, k[1]))
    shims = {
        mode: FaultInjector(seed=0)
        .poison_model(trained_estimator, first[0], first[1], mode=mode)
        .model_sets[first]
        for mode in ("raise", "nan", "negative")
    }
    cache = {}

    def get(key, mode):
        if (key, mode) not in cache:
            model_sets = {**trained_estimator.model_sets, key: shims[mode]}
            cache[(key, mode)] = replace(trained_estimator, model_sets=model_sets)
        return cache[(key, mode)]

    return get


def _per_set_estimate(estimator, plans, extracted, resources):
    """The estimate when the fused pass raises: every set serves itself."""

    def refuse(self, matrices, resources):
        raise RuntimeError("fused pass disabled")

    original = CompiledModelSets.predict
    CompiledModelSets.predict = refuse
    try:
        return estimator.estimate_extracted_workload(plans, extracted, resources)
    finally:
        CompiledModelSets.predict = original


@settings(max_examples=30, deadline=None)
@given(
    indices=st.lists(st.integers(0, N_CLEAN - 1), min_size=1, max_size=5),
    resources=resource_sets,
    seed=st.integers(0, 2**16),
    rate=st.sampled_from([0.0, 0.1, 0.5]),
    kind=st.sampled_from(["nan", "inf"]),
    poison=st.integers(0, 10_000),
    mode=st.sampled_from(["raise", "nan", "negative"]),
)
def test_ladder_only_degrades(
    trained_estimator, pool, poisoned_estimators, indices, resources, seed, rate, kind,
    poison, mode,
):
    plans = [pool[i][0] for i in indices]
    clean = [pool[i][1] for i in indices]
    extracted = FaultInjector(seed=seed).corrupt_features(clean, rate=rate, kind=kind)
    keys = sorted(trained_estimator.model_sets, key=lambda k: (k[0].value, k[1]))
    key = keys[poison % len(keys)]
    poisoned = poisoned_estimators(key, mode)

    with np.errstate(all="ignore"):
        guarded = poisoned.estimate_extracted_workload(plans, extracted, resources)
        bare = trained_estimator.estimate_extracted_workload(
            plans, extracted, resources, guardrails=False
        )
        per_set = _per_set_estimate(poisoned, plans, extracted, resources)
    report = guarded.degradation
    assert all(entry.tier > DegradationTier.MODEL for entry in report.entries)
    degraded = {(e.plan_index, e.node_id, e.resource) for e in report.entries}
    for p, features in enumerate(extracted):
        for position, (node_id, op) in enumerate(features.items()):
            names = features_for_family(op.family)
            finite = all(math.isfinite(op.values.get(name, 0.0)) for name in names)
            for resource in resources:
                served_by_model = (p, node_id, resource) not in degraded
                if not finite:
                    assert not served_by_model
                    continue
                row = int(guarded.offsets[p]) + position
                reference = bare.values[resource][row]
                if (
                    (op.family, resource) != key
                    and (op.family, resource) in trained_estimator.model_sets
                    and math.isfinite(reference)
                    and reference >= 0.0
                ):
                    assert served_by_model
                    assert guarded.values[resource][row].tobytes() == reference.tobytes()
    assert per_set.degradation == report
    for resource in resources:
        assert per_set.values[resource].tobytes() == guarded.values[resource].tobytes()
