"""Serving-layer benchmark: load generation against a real HTTP endpoint.

Three claims of the serving PR get numbers here:

1. **Eviction identity** (always asserted, hardware-independent) — a
   session churned through evict/restore cycles answers byte-identically
   to a resident one; the deterministic offer/evict/restore counts of
   this fixed schedule are recorded so ``tools/perf_gate.py`` can check
   that every smoke run reproduces them exactly.
2. **Throughput / latency** — a load generator drives ``S`` sessions
   over real HTTP (keep-alive, 16-row offers, interleaved solution
   queries): sustained offered rows/s and the p99 solution-query
   latency.
3. **Micro-batching win** — the same workload against a ``max_batch=1``
   server (every offer flushes alone, sessions get no vectorized
   ``batch_size``) vs the batched default; the ratio is the speedup the
   per-session offer queues buy.

Headline numbers land in ``BENCH_hot_paths.json`` (section ``serving``
at acceptance scale, ``serving_smoke`` below it).  Override the total
HTTP rows with ``REPRO_BENCH_SERVING_ROWS``.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np

from repro import obs
from repro.datasets.synthetic import synthetic_blobs
from repro.evaluation.reporting import write_csv
from repro.parallel.backends import usable_cpus
from repro.serving import ManagerConfig, ServerThread, ServingClient, SessionManager

from .conftest import BENCH_SEED, print_table, record_bench_section, scaled_csv_name

#: Total feature rows pushed over HTTP (override with REPRO_BENCH_SERVING_ROWS).
ROWS = int(os.environ.get("REPRO_BENCH_SERVING_ROWS", "100000"))
#: Concurrent sessions the load generator spreads the rows over.
SESSIONS = int(os.environ.get("REPRO_BENCH_SERVING_SESSIONS", "8"))
#: Rows per offer request — deliberately small so micro-batching matters.
CHUNK = 16
#: Rows between interleaved solution queries (per session).
QUERY_EVERY = 2_048
#: The unbatched comparison runs this fraction of ROWS (it is much slower).
UNBATCHED_FRACTION = 10

K = 8
M = 2

COLUMNS = ["quantity", "value"]

#: Fixed schedule of the identity part (kept tiny and deterministic).
IDENTITY_CUTS = (40, 97, 201, 240)
IDENTITY_K = 4


def _dataset_rows(n):
    dataset = synthetic_blobs(n=n, m=M, seed=BENCH_SEED)
    features = np.asarray([element.vector for element in dataset.elements], dtype=float)
    groups = np.asarray([int(element.group) for element in dataset.elements])
    return features, groups


# ----------------------------------------------------------------------
# Part 1: deterministic eviction identity
# ----------------------------------------------------------------------
def _fingerprint(result):
    return (
        list(result.solution.uids),
        result.diversity,
        result.stats.total_distance_computations,
        result.stats.elements_processed,
    )


async def _identity_run(state_dir, rows, evict):
    features, groups = rows
    manager = SessionManager(
        ManagerConfig(
            state_dir=state_dir,
            max_live=1 if evict else 64,
            max_batch=48,
            flush_ms=60_000.0,
        )
    )
    await manager.create(k=IDENTITY_K, groups=M, name="target")
    await manager.create(k=IDENTITY_K, groups=M, name="decoy")
    await manager.offer("decoy", features[:8], groups=groups[:8])
    await manager.flush("decoy")
    start = 0
    fingerprints = []
    for cut in IDENTITY_CUTS:
        await manager.offer("target", features[start:cut], groups=groups[start:cut])
        await manager.flush("target")
        fingerprints.append(_fingerprint(await manager.solution("target")))
        if evict:
            await manager.solution("decoy")  # kick the target out of the slot
        start = cut
    return fingerprints


def run_identity_check(state_dir):
    """The always-on correctness part; returns its deterministic counters."""
    rows = _dataset_rows(IDENTITY_CUTS[-1])
    metrics = obs.get_metrics()
    offered_before = metrics.counter("repro.serving.offered_rows").value
    evicted_before = metrics.counter("repro.serving.sessions.evicted").value
    restored_before = metrics.counter("repro.serving.sessions.restored").value

    churned = asyncio.run(_identity_run(state_dir / "churn", rows, evict=True))
    resident = asyncio.run(_identity_run(state_dir / "resident", rows, evict=False))
    identical = churned == resident

    return {
        "eviction_identity": bool(identical),
        "identity_offers_total": int(
            metrics.counter("repro.serving.offered_rows").value - offered_before
        ),
        "identity_evictions": int(
            metrics.counter("repro.serving.sessions.evicted").value - evicted_before
        ),
        "identity_restores": int(
            metrics.counter("repro.serving.sessions.restored").value - restored_before
        ),
    }


# ----------------------------------------------------------------------
# Part 2/3: HTTP load generation
# ----------------------------------------------------------------------
def run_load(state_dir, total_rows, max_batch, flush_ms=10.0):
    """Drive ``total_rows`` over HTTP; returns throughput/latency numbers."""
    features, groups = _dataset_rows(min(total_rows, 50_000))
    pool = len(features)
    config = ManagerConfig(
        state_dir=state_dir,
        max_live=max(2, SESSIONS // 2),  # half the tenants churn through LRU
        max_batch=max_batch,
        flush_ms=flush_ms,
        max_queue=1_000_000,  # throughput bench: never reject
    )
    histogram_before = obs.get_metrics().histogram("repro.serving.flush.rows")
    flushes_before = (histogram_before.count, histogram_before.total)
    query_latencies = []
    with ServerThread(config) as server:
        client = ServingClient("127.0.0.1", server.port)
        names = [
            client.create_session(k=K, groups=M, name=f"load{i}")
            for i in range(SESSIONS)
        ]
        sent = [0] * SESSIONS
        since_query = [0] * SESSIONS
        begin = time.perf_counter()
        index = 0
        remaining = total_rows
        while remaining > 0:
            target = index % SESSIONS
            index += 1
            take = min(CHUNK, remaining)
            lo = sent[target] % pool
            hi = min(lo + take, pool)
            client.offer(
                names[target],
                features[lo:hi],
                groups=groups[lo:hi],
            )
            sent[target] += hi - lo
            since_query[target] += hi - lo
            remaining -= hi - lo
            if since_query[target] >= QUERY_EVERY:
                since_query[target] = 0
                q0 = time.perf_counter()
                client.solution(names[target])
                query_latencies.append((time.perf_counter() - q0) * 1000.0)
        for name in names:  # final drain + one timed query per session
            q0 = time.perf_counter()
            client.solution(name)
            query_latencies.append((time.perf_counter() - q0) * 1000.0)
        elapsed = time.perf_counter() - begin
        client.close()

    histogram = obs.get_metrics().histogram("repro.serving.flush.rows")
    flush_count = histogram.count - flushes_before[0]
    flush_rows = histogram.total - flushes_before[1]
    latencies = sorted(query_latencies)
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
    return {
        "rows": total_rows,
        "seconds": elapsed,
        "offers_per_s": total_rows / max(elapsed, 1e-9),
        "p99_query_ms": p99,
        "queries": len(latencies),
        "mean_flush_rows": flush_rows / max(flush_count, 1),
    }


def test_serving_load(benchmark, results_dir, tmp_path):
    """Eviction identity + HTTP throughput/latency + micro-batching speedup."""
    assert not obs.enabled(), "bench requires the tracer to start disabled"

    def _sweep():
        identity = run_identity_check(tmp_path / "identity")
        batched = run_load(tmp_path / "batched", ROWS, max_batch=256)
        unbatched = run_load(
            tmp_path / "unbatched",
            max(ROWS // UNBATCHED_FRACTION, CHUNK),
            max_batch=1,
        )
        return identity, batched, unbatched

    identity, batched, unbatched = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    assert identity["eviction_identity"], "evict/restore changed served answers"
    speedup = batched["offers_per_s"] / max(unbatched["offers_per_s"], 1e-9)

    rows = [
        {"quantity": "sessions", "value": SESSIONS},
        {"quantity": "rows", "value": ROWS},
        {"quantity": "offers_per_s", "value": round(batched["offers_per_s"], 1)},
        {"quantity": "p99_query_ms", "value": round(batched["p99_query_ms"], 2)},
        {"quantity": "mean_flush_rows", "value": round(batched["mean_flush_rows"], 1)},
        {"quantity": "unbatched_offers_per_s", "value": round(unbatched["offers_per_s"], 1)},
        {"quantity": "batched_speedup", "value": round(speedup, 2)},
        {"quantity": "eviction_identity", "value": identity["eviction_identity"]},
        {"quantity": "identity_evictions", "value": identity["identity_evictions"]},
        {"quantity": "identity_restores", "value": identity["identity_restores"]},
    ]
    print_table(rows, COLUMNS, title=f"serving load — {SESSIONS} sessions x {ROWS} rows")
    write_csv(
        rows,
        results_dir / scaled_csv_name("serving", ROWS, 100_000),
        columns=COLUMNS,
    )
    record_bench_section(
        "serving" if ROWS >= 100_000 else "serving_smoke",
        {
            "rows": ROWS,
            "sessions": SESSIONS,
            "chunk": CHUNK,
            "k": K,
            "m": M,
            "cpus": usable_cpus(),
            "offers_per_s": round(batched["offers_per_s"], 1),
            "p99_query_ms": round(batched["p99_query_ms"], 3),
            "queries": batched["queries"],
            "mean_flush_rows": round(batched["mean_flush_rows"], 2),
            "unbatched_rows": unbatched["rows"],
            "unbatched_offers_per_s": round(unbatched["offers_per_s"], 1),
            "batched_speedup": round(speedup, 3),
            "eviction_identity": identity["eviction_identity"],
            "identity_offers_total": identity["identity_offers_total"],
            "identity_evictions": identity["identity_evictions"],
            "identity_restores": identity["identity_restores"],
        },
    )
