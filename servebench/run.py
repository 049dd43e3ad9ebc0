"""Serving benchmark: one workload per process, end-to-end or traced.

Usage, from the repository root::

    python3 servebench/run.py --workload interactive --seed 1 --seconds 15 --trace 0
    python3 servebench/run.py --seed 1            # every workload, one process each

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` wraps every layer's public functions at runtime and records
spans in every other one-second slice of the window; it prints the
per-layer metrics of the traced requests plus the tracing overhead, the
latency of traced requests against the untraced ones in between.

Each run checks the served estimates (see ``workloads.check``), prints one
``name = value unit`` line per metric and, as its last line, a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  It writes a
machine-readable record (and, when traced, the spans) under
``.servebench/`` and exits 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="workload to run (default: every workload, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    from servebench.catalog import WORKLOADS

    status = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        status = max(status, completed.returncode)
    return status


def run_workload(args: argparse.Namespace) -> int:
    from servebench import catalog, layers, tracing, workloads

    name = args.workload
    inputs = workloads.make_inputs(name, args.seed, args.seconds)
    training = workloads.training_inputs()
    scratch = ROOT / ".servebench"
    scratch.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None

    # Untraced runs set up SETUP_REPEATS times and report the median.
    setup_samples = []
    for _ in range(SETUP_REPEATS - 1 if tracer is None else 0):
        served, seconds = workloads.set_up(inputs, training, scratch)
        served.close()
        setup_samples.append(seconds)
    if tracer is not None:
        tracer.install(layers.TARGETS)
    try:
        served, seconds = workloads.set_up(inputs, training, scratch)
        setup_samples.append(seconds)
        workloads.add_references(inputs, served.estimator)
        # Freezing the set-up heap (plan pools, trace, references, the fitted
        # model) keeps collections inside the window from rescanning the
        # benchmark's own resident inputs on every pass.
        gc.collect()
        gc.freeze()
        try:
            window = workloads.measure(inputs, served, tracer)
        finally:
            served.close()
            gc.unfreeze()
    finally:
        if tracer is not None:
            tracer.uninstall()
    checked = workloads.check(served, window)
    window_metrics, detail = workloads.end_to_end(inputs, window, checked)
    record: dict[str, object] = {
        "workload": name, "why": inputs.spec.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "window": detail,
        "checks": checked.checks,
    }
    if tracer is None:
        values = dict(
            window_metrics,
            setup_s=statistics.median(setup_samples),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        catalog_metrics = catalog.END_TO_END
        record["setup_samples_s"] = setup_samples
    else:
        spans = tracer.spans()
        values, record["layers"] = layers.layer_metrics(spans, window, served, checked.ok)
        catalog_metrics = catalog.per_layer(name)
        spans_path = scratch / "spans" / f"{name}-seed{args.seed}.jsonl.gz"
        tracing.write_spans(spans_path, spans)
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    metrics = catalog.result_metrics(catalog_metrics, values)
    result = {
        "correct": checked.correct,
        "attempted": len(window.requests),
        "failed": checked.ok.count(False),
        "metrics": metrics,
    }
    record.update(result)
    records = scratch / "records"
    records.mkdir(exist_ok=True)
    (records / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n"
    )
    for metric, entry in metrics.items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    for check_name, passed in checked.checks.items():
        if not passed:
            print(f"{name} check failed: {check_name}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if checked.correct else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload is None:
        return run_all(args)
    from servebench.catalog import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        import repro  # noqa: F401  (the program under test, from src/)
    except ImportError as exc:
        print(f"cannot import the program under test from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 1
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
