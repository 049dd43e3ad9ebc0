"""Golden pins: estimate bytes and per-technique accuracy bands.

The suite's shared estimator is trained from a fixed seed, so its estimates
are reproducible to the bit.  These tests pin a sha256 digest of the
per-operator float64 estimates (cpu and io, plan pre-order) for a handful of
TPC-H and TPC-DS plans, a digest of their query totals, and the L1 relative
error band of each technique on the in-distribution (TPC-H) and
cross-workload (TPC-DS) test sets.  A change to any estimate therefore shows
up here as a deliberate golden update, not as a silent drift.

The accuracy assertions mirror the paper's qualitative claims that the
opt-in table benchmarks check (Tables 4, 6 and 10), on this small corpus.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines import LinearBaseline, MARTBaseline
from repro.experiments.harness import TechniqueCache, evaluate_techniques
from repro.features.definitions import FeatureMode
from repro.ml.metrics import ErrorSummary
from repro.workloads.tpcds import build_tpcds_workload

RESOURCES = ("cpu", "io")

#: sha256 over every plan's per-operator estimates, plan by plan, cpu then
#: io, each as little-endian float64 in plan pre-order.
OPERATOR_DIGEST = "539632b1a2a06ac81a6355f3a45e20b6d3ecf72b0935c911e522bfd44b84d4fa"

#: sha256 over ``query_totals`` of the same plans, cpu then io, each as
#: little-endian float64: one ``np.add.reduceat`` over each plan's
#: pre-order segment.
TOTALS_DIGEST = "df139d48a943ddd02f58ec8286bb0e272d381bb46b38fe698ae936f3fd016010"

#: (resource, test set) -> technique -> (L1 low, L1 high).  Each band is the
#: pinned value +- 0.02: wide enough for last-ulp summation changes, narrow
#: enough that any change to a model or a feature fails it.
L1_BANDS = {
    ("cpu", "TPC-H"): {"SCALING": (0.144, 0.184), "MART": (0.167, 0.207),
                       "LINEAR": (0.110, 0.150)},
    ("cpu", "TPC-DS"): {"SCALING": (0.415, 0.455), "MART": (0.498, 0.538),
                        "LINEAR": (0.197, 0.237)},
    ("io", "TPC-H"): {"SCALING": (0.014, 0.054), "MART": (0.008, 0.048),
                      "LINEAR": (0.055, 0.095)},
    ("io", "TPC-DS"): {"SCALING": (0.276, 0.316), "MART": (0.331, 0.371),
                       "LINEAR": (0.067, 0.107)},
}


@pytest.fixture(scope="module")
def tpcds_queries():
    return list(
        build_tpcds_workload(scale_factor=0.1, skew_z=0.8, n_queries=12, seed=13).queries
    )


@pytest.fixture(scope="module")
def golden_plans(workload_split, tpcds_queries):
    _, test = workload_split
    return [q.plan for q in test[:4]] + [q.plan for q in tpcds_queries[:4]]


@pytest.fixture(scope="module")
def technique_rows(trained_estimator, workload_split, tpcds_queries, tiny_mart_config):
    """L1 and ratio summaries of SCALING, MART and LINEAR per test set."""
    train, test = workload_split
    test_sets = {"TPC-H": test, "TPC-DS": tpcds_queries}
    rows: dict[tuple[str, str], dict[str, ErrorSummary]] = {}
    for resource in RESOURCES:
        for result in evaluate_techniques(
            [MARTBaseline(tiny_mart_config), LinearBaseline()],
            train,
            test_sets,
            resource,
            FeatureMode.EXACT,
            "golden-train",
            TechniqueCache(),
        ):
            rows.setdefault((resource, result.test_set), {})[result.technique] = (
                result.summary
            )
        for name, queries in test_sets.items():
            actuals = np.array([q.actual(resource) for q in queries], dtype=np.float64)
            rows[(resource, name)]["SCALING"] = ErrorSummary.from_predictions(
                trained_estimator.predict_batch(queries, resource), actuals
            )
    return rows


def _operator_digest(estimate, plans) -> str:
    digest = hashlib.sha256()
    for index, plan in enumerate(plans):
        for resource in RESOURCES:
            per_operator = estimate.operators(index, resource)
            values = [per_operator[op.node_id] for op in plan.operators()]
            digest.update(np.asarray(values, dtype="<f8").tobytes())
    return digest.hexdigest()


class TestGoldenEstimates:
    def test_per_operator_digest(self, trained_estimator, golden_plans):
        estimate = trained_estimator.estimate_workload(golden_plans, RESOURCES)
        assert _operator_digest(estimate, golden_plans) == OPERATOR_DIGEST

    def test_query_totals_digest(self, trained_estimator, golden_plans):
        estimate = trained_estimator.estimate_workload(golden_plans, RESOURCES)
        digest = hashlib.sha256()
        for resource in RESOURCES:
            digest.update(estimate.query_totals(resource).astype("<f8").tobytes())
        assert digest.hexdigest() == TOTALS_DIGEST


class TestGoldenAccuracy:
    @pytest.mark.parametrize("key", sorted(L1_BANDS))
    def test_l1_bands(self, technique_rows, key):
        summaries = technique_rows[key]
        for technique, (low, high) in L1_BANDS[key].items():
            assert low <= summaries[technique].l1_error <= high, (key, technique)

    def test_scaling_in_distribution_claims(self, technique_rows):
        # Table 4: SCALING within 2x of the best technique, most plans within
        # ratio 1.5.  Table 10: the I/O task is easy in-distribution.
        cpu = technique_rows[("cpu", "TPC-H")]
        best = min(summary.l1_error for summary in cpu.values())
        assert cpu["SCALING"].l1_error <= best * 2.0
        assert cpu["SCALING"].ratio_le_15 >= 0.6
        assert technique_rows[("io", "TPC-H")]["SCALING"].ratio_le_15 >= 0.6

    def test_scaling_cross_workload_claim(self, technique_rows):
        # Table 6: across workloads SCALING is at least as accurate as plain
        # MART, up to the benchmark's sampling-noise tolerance.
        cpu = technique_rows[("cpu", "TPC-DS")]
        assert cpu["SCALING"].l1_error <= cpu["MART"].l1_error * 1.25 + 0.05
