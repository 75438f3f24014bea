"""Hot-path benchmark: columnar store vs. element list, end to end.

This is the acceptance bench for the columnar ``ElementStore`` data layer
(PR 3) and the repository's perf-trajectory anchor: it measures the three
hot paths the store accelerates —

1. **SFDM2 chunked ingest** at ``n = 100 000``: the same stream
   permutation consumed once through a store-backed :class:`DataStream`
   (zero-copy row ranges) and once as a plain element list (one payload
   stack per chunk), both through the one ingestion engine.  Solutions
   and charged distance counts must be identical; the time ratio is
   recorded for the perf gate's trajectory.
2. **Post-processing**: ``greedy_fair_fill`` over the full ``n``-element
   pool (store views vs. standalone elements).
3. **Offline baseline**: ``gmm`` over the full dataset (columnar
   :class:`ElementStore` input vs. the element list).

Headline numbers are appended to the shared ``BENCH_hot_paths.json`` at
the repo root (section ``hot_paths`` at acceptance scale, or
``hot_paths_smoke`` below it) — the file ``tools/perf_gate.py`` uses to
catch silent perf regressions.  Override the scale with
``REPRO_BENCH_HOT_N``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.baselines.gmm import gmm_elements
from repro.core.postprocess import greedy_fair_fill
from repro.core.sfdm2 import SFDM2
from repro.datasets.synthetic import synthetic_blobs
from repro.evaluation.reporting import write_csv
from repro.fairness.constraints import equal_representation
from repro.metrics.cached import CountingMetric
from repro.parallel.backends import usable_cpus
from repro.streaming.stream import DataStream

from .conftest import BENCH_SEED, print_table, record_bench_section, scaled_csv_name

#: Acceptance-scale dataset size (override with REPRO_BENCH_HOT_N).
HOT_N = int(os.environ.get("REPRO_BENCH_HOT_N", "100000"))
#: Chunk size for the ingest comparison.
BATCH_SIZE = int(os.environ.get("REPRO_BENCH_HOT_BATCH", "1024"))

K = 20
M = 2
EPSILON = 0.1

COLUMNS = ["path", "mode", "n", "seconds", "speedup"]


def _ingest_pair(dataset, constraint):
    """Timed SFDM2 runs on the store-backed and element-list streams.

    Each mode runs twice (interleaved) and reports its best stream time —
    the standard way to shave scheduler noise off a single-shot wall-clock
    comparison; the solutions of every run are identity-checked.
    """

    def _run(stream):
        algorithm = SFDM2(
            metric=dataset.metric,
            constraint=constraint,
            epsilon=EPSILON,
            batch_size=BATCH_SIZE,
        )
        return algorithm.run(stream)

    # Warm pass at a fraction of the scale so allocator and code-path
    # warm-up costs do not pollute the first timed run.
    warm = DataStream(dataset.elements[: max(2048, HOT_N // 50)], name="warmup")
    _run(warm)
    _run(dataset.stream(seed=BENCH_SEED).take(max(2048, HOT_N // 50)))

    object_runs = []
    store_runs = []
    for _ in range(2):
        object_runs.append(_run(DataStream(dataset.elements, shuffle_seed=BENCH_SEED)))
        store_runs.append(_run(dataset.stream(seed=BENCH_SEED)))
    reference = sorted(object_runs[0].solution.uids)
    for result in object_runs + store_runs:
        assert sorted(result.solution.uids) == reference
    object_best = min(object_runs, key=lambda r: r.stats.stream_seconds)
    store_best = min(store_runs, key=lambda r: r.stats.stream_seconds)
    return store_best, object_best


def _timed(callable_):
    start = time.perf_counter()
    value = callable_()
    return value, time.perf_counter() - start


def test_hot_paths(benchmark, results_dir):
    """Store-backed hot paths: identical solutions and counts, timings recorded."""
    dataset = synthetic_blobs(n=HOT_N, m=M, seed=BENCH_SEED)
    constraint = equal_representation(K, list(dataset.group_sizes().keys()))
    store = dataset.columnar()
    assert store is not None, "synthetic blobs must be columnar"

    def _sweep():
        store_result, object_result = _ingest_pair(dataset, constraint)

        pool_views = store.elements()
        pool_objects = list(dataset.elements)
        fill_store, fill_store_s = _timed(
            lambda: greedy_fair_fill(pool_views, constraint, CountingMetric(dataset.metric))
        )
        fill_object, fill_object_s = _timed(
            lambda: greedy_fair_fill(pool_objects, constraint, CountingMetric(dataset.metric))
        )
        gmm_store, gmm_store_s = _timed(
            lambda: gmm_elements(store, CountingMetric(dataset.metric), K)
        )
        gmm_object, gmm_object_s = _timed(
            lambda: gmm_elements(pool_objects, CountingMetric(dataset.metric), K)
        )
        return {
            "store_result": store_result,
            "object_result": object_result,
            "fill": (fill_store, fill_store_s, fill_object, fill_object_s),
            "gmm": (gmm_store, gmm_store_s, gmm_object, gmm_object_s),
        }

    outcome = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    store_result = outcome["store_result"]
    object_result = outcome["object_result"]
    fill_store, fill_store_s, fill_object, fill_object_s = outcome["fill"]
    gmm_store, gmm_store_s, gmm_object, gmm_object_s = outcome["gmm"]

    ingest_store_s = store_result.stats.stream_seconds
    ingest_object_s = object_result.stats.stream_seconds
    ingest_speedup = ingest_object_s / max(ingest_store_s, 1e-9)

    rows = [
        {"path": "sfdm2-ingest", "mode": "object", "n": HOT_N, "seconds": ingest_object_s, "speedup": 1.0},
        {"path": "sfdm2-ingest", "mode": "store", "n": HOT_N, "seconds": ingest_store_s, "speedup": ingest_speedup},
        {"path": "greedy-fair-fill", "mode": "object", "n": HOT_N, "seconds": fill_object_s, "speedup": 1.0},
        {"path": "greedy-fair-fill", "mode": "store", "n": HOT_N, "seconds": fill_store_s, "speedup": fill_object_s / max(fill_store_s, 1e-9)},
        {"path": "gmm", "mode": "object", "n": HOT_N, "seconds": gmm_object_s, "speedup": 1.0},
        {"path": "gmm", "mode": "store", "n": HOT_N, "seconds": gmm_store_s, "speedup": gmm_object_s / max(gmm_store_s, 1e-9)},
    ]
    print_table(rows, COLUMNS, title=f"columnar store vs element list — n={HOT_N}")
    write_csv(rows, results_dir / scaled_csv_name("hot_paths", HOT_N, 100_000), columns=COLUMNS)

    # Exact identity: same solution, same diversity, same charged distances.
    assert sorted(store_result.solution.uids) == sorted(object_result.solution.uids)
    assert store_result.solution.diversity == pytest.approx(object_result.solution.diversity)
    assert (
        store_result.stats.stream_distance_computations
        == object_result.stats.stream_distance_computations
    )
    assert (
        store_result.stats.postprocess_distance_computations
        == object_result.stats.postprocess_distance_computations
    )
    # The columnar post-processing and baseline must select identically too.
    assert [e.uid for e in fill_store] == [e.uid for e in fill_object]
    assert [e.uid for e in gmm_store] == [e.uid for e in gmm_object]

    print(f"\ningest speedup: {ingest_speedup:.2f}x (store over element list)")
    record_bench_section(
        "hot_paths" if HOT_N >= 100_000 else "hot_paths_smoke",
        {
            "n": HOT_N,
            "batch_size": BATCH_SIZE,
            "k": K,
            "m": M,
            "epsilon": EPSILON,
            "cpus": usable_cpus(),
            "sfdm2_ingest_store_s": round(ingest_store_s, 4),
            "sfdm2_ingest_object_s": round(ingest_object_s, 4),
            "sfdm2_ingest_speedup": round(ingest_speedup, 2),
            "greedy_fair_fill_store_s": round(fill_store_s, 4),
            "greedy_fair_fill_object_s": round(fill_object_s, 4),
            "gmm_store_s": round(gmm_store_s, 4),
            "gmm_object_s": round(gmm_object_s, 4),
            "stream_distance_computations": store_result.stats.stream_distance_computations,
        },
    )


def test_store_slices_are_views():
    """The slice hot path hands kernels zero-copy windows of the store."""
    dataset = synthetic_blobs(n=2_000, m=M, seed=BENCH_SEED)
    store = dataset.columnar()
    window = store.rows(slice(100, 612))
    assert np.shares_memory(window, store.features)
    assert window.flags["C_CONTIGUOUS"]
