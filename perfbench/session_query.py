"""Workload ``session-query``: closed loop, one caller, offer -> query.

One pass opens an SFDM2 session (k=20, two groups, ``batch_size=1024``),
offers a seeded permutation of ``synthetic_blobs(n=100_000, m=2)`` 1024
rows at a time and asks for ``solution()`` after every offer (~97 queries
per pass).  Passes repeat, each in another order derived from ``--seed``,
until the run's time is up.  Outside the timed loop the last pass's final
answer is checked against a one-shot ``repro.solve`` over the same rows,
and against the same session after a checkpoint -> resume round trip.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import repro
from repro import obs

from common import (
    Checks,
    CoreProbe,
    Outcome,
    answer_key,
    median,
    own_peak_rss_mb,
    percentile,
    pin,
    self_seconds,
    usable_cpus,
    write_trace,
)

N, K, BATCH = 100_000, 20, 1024
#: The dataset is fixed; ``--seed`` derives the orders its rows are offered in.
DATA_SEED = 7
#: Rows that lead every order.  The session's warm-up (its first 64 rows)
#: sets the distance bounds and so the guess ladder; keeping it fixed keeps
#: the per-query work the same for every seed.
WARMUP = 64
SETUPS = 3
#: One-shot reference solves per run; ``solve_s`` is their median.
SOLVES = 7


def _session():
    return repro.open_session(k=K, groups=[0, 1], algorithm="SFDM2", batch_size=BATCH)


def _rows(dataset, seed: int, index: int):
    """``(features, groups)`` in the run's ``index``-th order."""
    rest = WARMUP + np.random.default_rng([seed, index]).permutation(N - WARMUP)
    order = np.concatenate([np.arange(WARMUP), rest])
    features = np.stack([dataset.elements[i].vector for i in order])
    groups = np.array([dataset.elements[i].group for i in order], dtype=np.int64)
    return features, groups


def _setup(seed: int):
    dataset = repro.synthetic_blobs(n=N, m=2, seed=DATA_SEED)
    return dataset, _rows(dataset, seed, 0)


def _pass(features, groups, speed: CoreProbe, checks: Checks, span: bool = False):
    """One offer -> query pass: the session, its final answer and normalised timings.

    Returns ``(session, final, offers, queries, extracts)``; the last three
    are per-call seconds scaled by :class:`CoreProbe`.
    """
    session = _session()
    offers, queries, extracts = [], [], []
    result = None
    for start in range(0, N, BATCH):
        rows, labels = features[start:start + BATCH], groups[start:start + BATCH]
        with obs.span("bench.offer_rows", rows=len(rows)) if span else nullcontext():
            _, raw, factor = speed.timed(session.offer_rows, rows, groups=labels)
        offers.append(raw * factor)
        with obs.span("bench.solution") if span else nullcontext():
            result, raw, factor = speed.timed(session.solution)
        queries.append(raw * factor)
        extracts.append(result.stats.postprocess_seconds * factor)
        checks.answer(result.solution.uids, result.diversity,
                      result.solution.is_fair, K, "query")
    return session, result, offers, queries, extracts


def run(seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    """Repeat passes for ``seconds``; with ``trace``, add one traced pass.

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
    setups, generate = [], []
    for _ in range(SETUPS):
        (dataset, rows), raw, factor = speed.timed(_setup, seed, collect=True)
        generate.append(raw * factor)
        _, raw, factor = speed.timed(_session)
        setups.append(generate[-1] + raw * factor)

    offers, queries, extracts, finals = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not finals or time.perf_counter() < deadline:
        features, groups = rows if not finals else _rows(dataset, seed, len(finals))
        session, final, pass_offers, pass_queries, pass_extracts = _pass(
            features, groups, speed, checks
        )
        offers += pass_offers
        queries += pass_queries
        extracts += pass_extracts
        finals.append(final)

    # Identity checks, outside the timed loop.
    solves, solve_stats = [], []
    for _ in range(SOLVES):
        reference, raw, factor = speed.timed(
            repro.solve, features, k=K, groups=groups, algorithm="SFDM2",
            batch_size=BATCH, collect=True,
        )
        solves.append(raw * factor)
        ref = reference.stats
        solve_stats.append((raw - ref.stream_seconds - ref.postprocess_seconds) * factor)
        checks.answer(reference.solution.uids, reference.diversity,
                      reference.solution.is_fair, K, "one-shot solve")
        checks.same(answer_key(final), answer_key(reference), "session vs one-shot solve")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"session-query-seed{seed}.ckpt"
    _, checkpoint_raw, checkpoint_factor = speed.timed(session.checkpoint, path)
    checkpoint_bytes = path.stat().st_size
    resumed, resume_raw, resume_factor = speed.timed(repro.resume, path)
    path.unlink()
    checks.same(answer_key(resumed.solution()), answer_key(final), "checkpoint -> resume")

    stats = final.stats
    snapshots = [q - e for q, e in zip(queries, extracts)]
    outcome.e2e = {
        "setup_s": median(setups),
        "solve_s": median(solves),
        "ingest_rows_per_s": BATCH / median(offers),
        "query_p50_ms": median(queries) * 1000.0,
        "diversity": sum(answer.diversity for answer in finals) / len(finals),
        "peak_rss_mb": own_peak_rss_mb(),
    }
    outcome.layer = {
        "api.overhead_ms": median(solve_stats) * 1000.0,
        "core.ingest_s": stats.stream_seconds * speed.factor(),
        "core.extract_ms": median(extracts) * 1000.0,
        "core.stream_distance_evals": stats.stream_distance_computations,
        "core.elements_processed": stats.elements_processed,
        "core.postprocess_distance_evals": stats.postprocess_distance_computations,
        "core.eligible_guesses": stats.extra.get("eligible_guesses", 0),
        "core.num_guesses": stats.extra.get("num_guesses", 0),
        "core.peak_stored_elements": stats.peak_stored_elements,
        "session.offer_rows_p50_ms": median(offers) * 1000.0,
        "session.snapshot_ms": median(snapshots) * 1000.0,
        "session.checkpoint_ms": checkpoint_raw * checkpoint_factor * 1000.0,
        "session.resume_ms": resume_raw * resume_factor * 1000.0,
        "session.checkpoint_bytes": checkpoint_bytes,
        "datasets.generate_s": median(generate),
        "query.samples": len(queries),
    }
    for name, values, q in (("session.offer_rows_p90_ms", offers, 90),
                            ("query_p90_ms", queries, 90)):
        value = percentile(values, q)
        if value is not None:
            outcome.layer[name] = value * 1000.0
    outcome.details = {"passes": len(finals), "offer_rows_calls": len(offers),
                       "queries": len(queries), "run_factor": speed.factor()}
    if not trace:
        return outcome

    sink = obs.MemorySink()
    with obs.tracing(sink):
        _, traced_final, traced_offers, traced_queries, _ = _pass(
            *rows, speed, checks, span=True
        )
    checks.same(answer_key(traced_final), answer_key(finals[0]), "traced pass")
    selfs = self_seconds(sink.records)
    write_trace(out_dir / f"session-query-seed{seed}.jsonl", sink.records)
    per_query = speed.factor() * 1000.0 / len(traced_queries)
    untraced_pass = (sum(offers) + sum(queries)) / len(finals)
    outcome.layer.update({
        "core.chunk_self_ms": selfs.get("ingest.chunk", 0.0) * per_query,
        "core.guess_self_ms": selfs.get("sfdm2.guess", 0.0) * per_query,
        "obs.trace_overhead_pct": ((sum(traced_offers) + sum(traced_queries))
                                   / untraced_pass - 1.0) * 100.0,
        # A traced query is the sum of its spans' self times.
        "obs.split_gap_pct": (median(traced_queries) / median(queries) - 1.0) * 100.0,
    })
    outcome.details["self_ms_per_query"] = {
        name: value * per_query for name, value in selfs.items()
    }
    return outcome
