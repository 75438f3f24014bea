"""Sharded parallel engine — scaling, transports, and bytes shipped.

Three measurements on the paper's synthetic Gaussian-blob workload scaled
to ``n = 100 000`` points (override with ``REPRO_BENCH_PARALLEL_N``):

1. **Scaling scan** (``test_parallel_scaling``): for each shard count the
   same ``ParallelFDM`` configuration runs on the serial backend and on
   the process backend, whose shards ship over shared memory; solutions
   must be identical (the engine guarantees the backend and transport
   only decide *where* and *how* shard work runs, never what it computes,
   and a run with shared memory hidden — the pickle fallback — must match
   too) and
   the per-shard-count speedup-per-core goes into the shared perf
   trajectory.  On a machine with at least 4 usable cores the process
   backend must deliver at least 2.5x the serial throughput at the
   reference shard count; on smaller machines the speedup is reported but
   not asserted, because process parallelism cannot beat a single shared
   core.

2. **Bytes shipped**: what actually crosses the pickle boundary per
   worker — the pickled :class:`~repro.data.store.ElementStore` of each
   shard, which the fallback ships, vs. the O(1) :class:`ShardRef`
   descriptors of the shared-memory route (the block itself is shared,
   not copied per worker,
   and is recorded separately).  The shm payload must be smaller than the
   pickle payload at every scale — this assertion is hardware-independent
   and always on.

3. **Shard scaling** (``test_parallel_shard_scaling``): a serial-backend
   scan over shard counts showing quality stays in the composable-coreset
   regime as shards multiply.

The per-shard summarizer is the one-pass ``StreamShardSummarizer`` (the
streaming engine's chunk screen over an ``epsilon = 0.15`` guess
ladder) — the configuration whose per-shard cost is dominated by genuine
summary work rather than by driver-side planning, i.e. the regime
sharding is designed for.  The local-search polish is disabled so the
timed run is the distributed pipeline itself, not the final-solution
cosmetics.

Acceptance-scale runs record the ``parallel_scaling`` section of
``BENCH_hot_paths.json``; smoke runs record ``parallel_scaling_smoke``
(same schema, smaller ``n``), which ``tools/perf_gate.py`` re-proves on
every ``make ci``.
"""

from __future__ import annotations

import os
import pickle
import time

from repro.datasets.synthetic import synthetic_blobs
from repro.evaluation.reporting import write_csv
from repro.fairness.constraints import equal_representation
from repro.parallel import ParallelFDM, shm
from repro.parallel.backends import usable_cpus
from repro.parallel.planner import ShardPlanner
from repro.parallel.shm import ship_shards
from repro.parallel.summarize import StreamShardSummarizer

from .conftest import BENCH_SEED, print_table, record_bench_section, scaled_csv_name

#: Acceptance-scale dataset size (override with REPRO_BENCH_PARALLEL_N).
PARALLEL_BENCH_N = int(os.environ.get("REPRO_BENCH_PARALLEL_N", "100000"))
#: Feature dimensionality of the synthetic workload.
PARALLEL_BENCH_D = int(os.environ.get("REPRO_BENCH_PARALLEL_D", "16"))
#: Reference shard count for the transport comparison.
SHARDS = int(os.environ.get("REPRO_BENCH_PARALLEL_SHARDS", "4"))
#: Shard counts covered by the scaling scan.
SHARD_COUNTS = (1, 2, 4, 8)
#: Minimum accepted process/serial throughput ratio at acceptance scale.
TARGET_SPEEDUP = 2.5

K = 48
M = 2

COLUMNS = [
    "backend",
    "transport",
    "shards",
    "n",
    "diversity",
    "total_seconds",
    "speedup",
    "speedup_per_core",
]


def _engine(dataset, constraint, shards, backend):
    """The benchmarked engine configuration on one backend."""
    return ParallelFDM(
        metric=dataset.metric,
        constraint=constraint,
        shards=shards,
        backend=backend,
        summarizer=StreamShardSummarizer(chunk_size=512, epsilon=0.15),
        refine_with_swap=False,
        seed=BENCH_SEED,
    )


def _timed_run(dataset, constraint, shards, backend):
    """One timed run; returns (RunResult, wall-clock seconds)."""
    engine = _engine(dataset, constraint, shards, backend)
    start = time.perf_counter()
    result = engine.run(dataset.stream(seed=BENCH_SEED))
    return result, time.perf_counter() - start


def _payload_bytes(elements, shards, monkeypatch):
    """Bytes crossing the pickle boundary per route for one shard plan.

    Returns ``(pickle_bytes, shm_bytes, shm_block_bytes)``: the summed
    pickled size of the per-worker payloads on the pickle fallback and on
    the shared-memory route, plus the size of the (shared, shipped-once)
    block backing the shm descriptors.
    """
    plan = ShardPlanner(shards, strategy="stratified").plan(elements)
    with monkeypatch.context() as patch:
        patch.setattr(shm, "shm_available", lambda: False)
        payloads, _, _ = ship_shards(plan)
    pickle_bytes = sum(len(pickle.dumps(payload)) for payload in payloads)
    payloads, block, used = ship_shards(plan)
    try:
        shm_bytes = sum(len(pickle.dumps(payload)) for payload in payloads)
        block_bytes = block.nbytes if block is not None else 0
    finally:
        if block is not None:
            block.dispose()
    if used != "shm":
        raise AssertionError(f"shm transport degraded to {used} on this platform")
    return pickle_bytes, shm_bytes, block_bytes


def test_parallel_scaling(benchmark, results_dir, monkeypatch):
    """Identity + speedup-per-core per shard count; shm ships fewer bytes."""
    dataset = synthetic_blobs(
        n=PARALLEL_BENCH_N, m=M, dimensions=PARALLEL_BENCH_D, seed=BENCH_SEED
    )
    constraint = equal_representation(K, list(dataset.group_sizes().keys()))
    cpus = usable_cpus()

    def _sweep():
        scan = {}
        for shards in SHARD_COUNTS:
            serial = _timed_run(dataset, constraint, shards, "serial")
            process = _timed_run(dataset, constraint, shards, "process")
            scan[shards] = {"serial": serial, "process": process}
        return scan

    scan = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    # Neither the backend nor the transport may change the solution.
    for shards, runs in scan.items():
        serial_uids = sorted(runs["serial"][0].solution.uids)
        process_uids = sorted(runs["process"][0].solution.uids)
        assert serial_uids == process_uids, f"{shards} shards: process diverged"
    with monkeypatch.context() as patch:
        patch.setattr(shm, "shm_available", lambda: False)
        pickled_result, _ = _timed_run(dataset, constraint, SHARDS, "process")
    reference = sorted(scan[SHARDS]["serial"][0].solution.uids)
    assert sorted(pickled_result.solution.uids) == reference, "pickle diverged"
    threaded_result, _ = _timed_run(dataset, constraint, SHARDS, "thread")
    assert sorted(threaded_result.solution.uids) == reference, "thread diverged"

    # Per-worker payload accounting: descriptors beat column pickles.
    elements = list(dataset.stream(seed=BENCH_SEED))
    pickle_bytes, shm_bytes, block_bytes = _payload_bytes(elements, SHARDS, monkeypatch)
    assert shm_bytes < pickle_bytes, (
        f"shm payload ({shm_bytes} B) must undercut pickle ({pickle_bytes} B)"
    )

    rows, per_shards = [], {}
    for shards, runs in scan.items():
        serial_result, serial_s = runs["serial"]
        process_result, process_s = runs["process"]
        speedup = serial_s / max(process_s, 1e-9)
        cores_used = max(1, min(shards, cpus))
        rows.append(
            {
                "backend": "process",
                "transport": process_result.params["transport"],
                "shards": shards,
                "n": PARALLEL_BENCH_N,
                "diversity": process_result.solution.diversity,
                "total_seconds": process_s,
                "speedup": round(speedup, 3),
                "speedup_per_core": round(speedup / cores_used, 3),
            }
        )
        per_shards[str(shards)] = {
            "serial_s": round(serial_s, 4),
            "process_shm_s": round(process_s, 4),
            "speedup": round(speedup, 3),
            "speedup_per_core": round(speedup / cores_used, 3),
        }
    print_table(
        rows,
        COLUMNS,
        title=f"ParallelFDM scaling — process+shm vs serial, n={PARALLEL_BENCH_N}",
    )
    write_csv(
        rows,
        results_dir / scaled_csv_name("parallel_scaling", PARALLEL_BENCH_N, 100_000),
        columns=COLUMNS,
    )
    print(
        f"\nper-worker payload: shm {shm_bytes} B vs pickle {pickle_bytes} B "
        f"({pickle_bytes / max(shm_bytes, 1):.0f}x smaller; shared block "
        f"{block_bytes} B shipped once)"
    )

    section = "parallel_scaling" if PARALLEL_BENCH_N >= 100_000 else "parallel_scaling_smoke"
    record_bench_section(
        section,
        {
            "n": PARALLEL_BENCH_N,
            "dim": PARALLEL_BENCH_D,
            "shards": SHARDS,
            "cpus": cpus,
            "solutions_identical": True,
            "pickle_payload_bytes": pickle_bytes,
            "shm_payload_bytes": shm_bytes,
            "shm_block_bytes": block_bytes,
            "payload_reduction": round(pickle_bytes / max(shm_bytes, 1), 1),
            "per_shards": per_shards,
        },
    )

    reference_speedup = per_shards[str(SHARDS)]["speedup"]
    print(
        f"process/serial speedup at {SHARDS} shards: {reference_speedup:.2f}x on "
        f"{cpus} usable cpu(s) (target >= {TARGET_SPEEDUP:g}x on >= 4 cpus)"
    )
    if cpus >= 4 and PARALLEL_BENCH_N >= 100_000:
        assert reference_speedup >= TARGET_SPEEDUP
    # On fewer cores true CPU parallelism is unavailable; the run above
    # still validates cross-backend/transport solution identity at scale.


def test_parallel_shard_scaling(benchmark, results_dir):
    """Serial-backend scan over shard counts: same pipeline, finer partitions."""
    dataset = synthetic_blobs(
        n=PARALLEL_BENCH_N, m=M, dimensions=PARALLEL_BENCH_D, seed=BENCH_SEED
    )
    constraint = equal_representation(K, list(dataset.group_sizes().keys()))

    def _sweep():
        return [
            (shards, *_timed_run(dataset, constraint, shards, "serial"))
            for shards in SHARD_COUNTS
        ]

    outcomes = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rows = [
        {
            "backend": "serial",
            "transport": "inline",
            "shards": shards,
            "n": PARALLEL_BENCH_N,
            "diversity": result.solution.diversity,
            "total_seconds": seconds,
            "speedup": 1.0,
            "speedup_per_core": 1.0,
        }
        for shards, result, seconds in outcomes
    ]
    print_table(
        rows, COLUMNS, title=f"ParallelFDM shard scaling — serial, n={PARALLEL_BENCH_N}"
    )
    write_csv(
        rows,
        results_dir / scaled_csv_name("parallel_shard_scaling", PARALLEL_BENCH_N, 100_000),
        columns=COLUMNS,
    )

    # Every shard count must produce a full-size fair solution.
    for shards, result, _ in outcomes:
        assert result.solution is not None
        assert result.solution.is_fair, f"{shards} shards lost fairness"
    # More shards -> smaller per-shard summaries, but quality must stay in
    # the composable-coreset regime relative to the unsharded run.
    single = outcomes[0][1].solution.diversity
    for shards, result, _ in outcomes[1:]:
        assert result.solution.diversity >= single / 3.0, f"{shards} shards lost quality"
