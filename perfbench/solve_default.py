"""Workload ``solve-default``: closed loop, one caller, default ``repro.solve``.

Every option stays at its default: ``algorithm="auto"`` resolves to SFDM2
for three groups and ingest takes the scalar path.  The dataset is fixed;
the caller solves it again and again until the run's time is up, each
time in another stream order derived from ``--seed`` (``solve``'s
``seed``), so ``diversity`` averages over several orders.
"""

from __future__ import annotations

import time
from pathlib import Path

import repro
from repro import obs

from common import (
    Checks,
    CoreProbe,
    Outcome,
    answer_key,
    median,
    own_peak_rss_mb,
    pin,
    self_seconds,
    span_total,
    usable_cpus,
    write_trace,
)

N, GROUPS, DIMENSIONS, K = 20_000, 3, 16, 20
#: The dataset is fixed; ``--seed`` derives the stream orders passed to ``solve``.
DATA_SEED = 7
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5


def _order(seed: int, index: int) -> int:
    """The stream-order seed of the run's ``index``-th solve."""
    return seed * 1000 + index


def run(seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    """Solve until ``seconds`` have passed; with ``trace``, add one traced solve.

    The work runs pinned to one CPU, next to a :class:`CoreProbe` on it.
    """
    cpu = usable_cpus()[0]
    pin([cpu])
    with CoreProbe(cpu) as speed:
        return _run(seed, seconds, trace, out_dir, speed)


def _run(seed: int, seconds: float, trace: bool, out_dir: Path,
         speed: CoreProbe) -> Outcome:
    outcome = Outcome(Checks())
    checks = outcome.checks
    setups = []
    for _ in range(SETUPS):
        dataset, raw, factor = speed.timed(
            repro.synthetic_blobs, n=N, m=GROUPS, dimensions=DIMENSIONS,
            seed=DATA_SEED, collect=True,
        )
        setups.append(raw * factor)

    walls, factors, results = [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < 2 or time.perf_counter() < deadline:
        result, raw, factor = speed.timed(repro.solve, dataset, k=K,
                                          seed=_order(seed, len(walls)), collect=True)
        walls.append(raw)
        factors.append(factor)
        results.append(result)
        checks.answer(result.solution.uids, result.diversity,
                      result.solution.is_fair, K, "solve")

    stats = [result.stats for result in results]
    first = stats[0]
    solve_s = median([w * f for w, f in zip(walls, factors)])
    ingest_s = median([s.stream_seconds * f for s, f in zip(stats, factors)])
    extract_s = median([s.postprocess_seconds * f for s, f in zip(stats, factors)])
    outcome.e2e = {
        "setup_s": median(setups),
        "solve_s": solve_s,
        "ingest_rows_per_s": N / ingest_s,
        # A one-shot caller's query is the ``solve`` call itself.
        "query_p50_ms": solve_s * 1000.0,
        "diversity": sum(result.diversity for result in results) / len(results),
        "peak_rss_mb": own_peak_rss_mb(),
    }
    outcome.layer = {
        "api.overhead_ms": median([
            (w - s.stream_seconds - s.postprocess_seconds) * f
            for w, s, f in zip(walls, stats, factors)
        ]) * 1000.0,
        "core.ingest_s": ingest_s,
        "core.extract_ms": extract_s * 1000.0,
        "core.stream_distance_evals": first.stream_distance_computations,
        "core.elements_processed": first.elements_processed,
        "core.postprocess_distance_evals": first.postprocess_distance_computations,
        "core.eligible_guesses": first.extra.get("eligible_guesses", 0),
        "core.num_guesses": first.extra.get("num_guesses", 0),
        "core.peak_stored_elements": first.peak_stored_elements,
        "datasets.generate_s": median(setups),
        "query.samples": len(walls),
    }
    outcome.details = {"solves": len(walls), "raw_solve_s": walls, "factors": factors}
    if not trace:
        return outcome

    sink = obs.MemorySink()
    with obs.tracing(sink):
        with obs.span("bench.solve", n=N, k=K):
            result, raw, factor = speed.timed(repro.solve, dataset, k=K,
                                              seed=_order(seed, 0), collect=True)
    checks.same(answer_key(result), answer_key(results[0]), "traced solve")
    selfs = self_seconds(sink.records)
    write_trace(out_dir / f"solve-default-seed{seed}.jsonl", sink.records)
    traced_split = (span_total(sink.records, "ingest")
                    + span_total(sink.records, "postprocess")) * factor
    traced_split += outcome.layer["api.overhead_ms"] / 1000.0
    outcome.layer.update({
        "core.chunk_self_ms": selfs.get("ingest.chunk", 0.0) * factor * 1000.0,
        "core.ingest_self_ms": selfs.get("ingest", 0.0) * factor * 1000.0,
        "core.guess_self_ms": selfs.get("sfdm2.guess", 0.0) * factor * 1000.0,
        "obs.trace_overhead_pct": (raw * factor / solve_s - 1.0) * 100.0,
        "obs.split_gap_pct": (traced_split / solve_s - 1.0) * 100.0,
    })
    outcome.details["self_ms"] = {name: value * 1000.0 for name, value in selfs.items()}
    return outcome
