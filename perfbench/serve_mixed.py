"""Workload ``serve-mixed``: open loop against ``python -m repro serve``.

The server runs in its own process with 16 SFDM2 tenants (k=20, two
groups), ``max_live=8`` and ``max_batch=256``.  This process is the load
generator: two threads, each owning one keep-alive connection and the
tenants of one parity (so every tenant's rows arrive in order), send
16-row offers at a fixed 125/s and solution queries at 3/s to tenants
drawn with a seeded Zipf skew.  Each request is timed from the moment it
was due, so a stalled server is charged for the wait it imposes on later
requests; the generator's own lateness is reported separately and a run
whose generator fell behind is marked invalid.

Outside the timed window every tenant's final served answer is checked
against an in-process ``open_session`` fed the same accepted rows with
``batch_size`` equal to the server's ``max_batch``.
"""

from __future__ import annotations

import json
import os
import selectors
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from http.client import HTTPException
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

import repro
from repro import obs
from repro.serving import ServingClient

from common import (
    Checks,
    CoreProbe,
    Outcome,
    median,
    percentile,
    pin,
    process_peak_rss_mb,
    self_seconds,
    usable_cpus,
    write_trace,
)

TENANTS, MAX_LIVE, MAX_BATCH, K = 16, 8, 256, 20
OFFER_ROWS, OFFER_RATE, QUERY_RATE = 16, 125.0, 3.0
#: Rows every tenant receives during set-up, before the timed window.
WARM_ROWS = 256
ZIPF_EXPONENT = 1.0
#: The row pool is fixed; ``--seed`` shuffles which tenant gets which rows, when.
DATA_SEED = 7
CONNECTIONS = 2
#: The run is invalid when the generator's p99 lateness exceeds this.
GEN_LAG_LIMIT_MS = 25.0
#: Server set-ups (start, create tenants, warm them) per run; ``setup_s``
#: adds their median to the data generation time.
SETUPS = 3
REFERENCE_REPEATS = 3
START_TIMEOUT_S = 60.0


class Server:
    """One ``python -m repro serve`` child process on an ephemeral port."""

    def __init__(self, root: Path, state_dir: Path, cpu: int,
                 trace_out: Optional[Path] = None):
        command = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--state-dir", str(state_dir), "--max-live", str(MAX_LIVE),
            "--max-batch", str(MAX_BATCH),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        try:
            os.sched_setaffinity(self.process.pid, {cpu})
            self.port = self._read_port()
            self.client = ServingClient("127.0.0.1", self.port)
            self.client.healthz()
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - started

    def _read_port(self) -> int:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(START_TIMEOUT_S):
                raise RuntimeError("server did not announce its port")
        line = self.process.stdout.readline()
        if not line.startswith("serving on http://"):
            raise RuntimeError(f"unexpected server banner {line!r}")
        return int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Plan:
    """The seeded inputs: rows, warm-up offers and the request schedule."""

    def __init__(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng(seed)
        offers = int(OFFER_RATE * seconds)
        queries = int(QUERY_RATE * seconds)
        offer_tenants = rng.permutation(_zipf_sequence(offers))
        query_tenants = rng.permutation(_zipf_sequence(queries))
        total = TENANTS * WARM_ROWS + offers * OFFER_ROWS
        dataset = repro.synthetic_blobs(n=total, m=2, seed=DATA_SEED)
        self.features = np.stack([element.vector for element in dataset.elements])
        self.groups = np.array([element.group for element in dataset.elements])
        self.warm = [slice(t * WARM_ROWS, (t + 1) * WARM_ROWS) for t in range(TENANTS)]
        base = TENANTS * WARM_ROWS
        events = [
            (i / OFFER_RATE, "offer", int(tenant),
             slice(base + i * OFFER_ROWS, base + (i + 1) * OFFER_ROWS))
            for i, tenant in enumerate(offer_tenants)
        ]
        events += [((j + 0.5) / QUERY_RATE, "query", int(tenant), None)
                   for j, tenant in enumerate(query_tenants)]
        events.sort(key=lambda event: event[0])
        self.events = [[e for e in events if e[2] % CONNECTIONS == c]
                       for c in range(CONNECTIONS)]

    def body(self, rows: slice):
        """``(features, groups, uids)`` of a row range; uids are row indices."""
        return (self.features[rows], self.groups[rows],
                np.arange(rows.start, rows.stop))

    def offer(self, rows: slice) -> Dict[str, Any]:
        """The JSON body of an offer of a row range."""
        features, groups, uids = self.body(rows)
        return {"features": features.tolist(), "groups": groups.tolist(),
                "uids": uids.tolist()}


def _zipf_sequence(count: int) -> np.ndarray:
    """``count`` tenant ids whose frequencies follow the Zipf weights exactly.

    Fixing the counts and letting the seed shuffle only their order keeps
    every tenant's load the same across seeds, so seeds vary the traffic
    pattern without changing how much work each tenant does.
    """
    weights = 1.0 / np.arange(1, TENANTS + 1) ** ZIPF_EXPONENT
    shares = weights / weights.sum() * count
    counts = np.floor(shares).astype(int)
    counts[np.argsort(counts - shares)[: count - counts.sum()]] += 1
    return np.repeat(np.arange(TENANTS), counts)


def _name(tenant: int) -> str:
    return f"tenant-{tenant:02d}"


def _setup_tenants(server: Server, plan: Plan, checks: Checks) -> None:
    for tenant in range(TENANTS):
        server.client.create_session(name=_name(tenant), k=K, groups=[0, 1],
                                     algorithm="SFDM2")
        status, _ = server.client.request("POST", f"/sessions/{_name(tenant)}/offer",
                                          plan.offer(plan.warm[tenant]))
        checks.record(status == 202, f"warm-up offer to {_name(tenant)}: HTTP {status}")


def _drive(port: int, plan: Plan, events, t0: float, log: List[Dict[str, Any]],
           span: bool) -> None:
    """One connection's share of the schedule (runs in its own thread)."""
    client = ServingClient("127.0.0.1", port)
    previous_end = 0.0
    try:
        for due, kind, tenant, rows in events:
            if kind == "offer":
                method, path, body = "POST", f"/sessions/{_name(tenant)}/offer", plan.offer(rows)
            else:
                method, path, body = "GET", f"/sessions/{_name(tenant)}/solution", None
            delay = t0 + due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent_at = time.time()
            start = time.perf_counter() - t0
            try:
                with obs.span(f"bench.{kind}", tenant=tenant) if span else nullcontext():
                    status, payload = client.request(method, path, body)
            except (OSError, HTTPException) as error:
                status, payload = 0, {"error": repr(error)}
            end = time.perf_counter() - t0
            log.append({
                "kind": kind, "tenant": tenant, "rows": rows, "status": status, "due": due,
                "payload": payload if kind == "query" else None,
                "latency": end - due, "service": end - start,
                "lag": start - max(due, previous_end), "sent_at": sent_at,
            })
            previous_end = end
    finally:
        client.close()


def _window(server: Server, plan: Plan, until: float, span: bool):
    """Run the schedule up to ``until`` seconds over ``CONNECTIONS`` threads.

    Returns every request's record and the window's start on the
    ``perf_counter`` clock (records hold times relative to it).
    """
    logs: List[List[Dict[str, Any]]] = [[] for _ in range(CONNECTIONS)]
    t0 = time.perf_counter() + 0.05
    threads = [
        threading.Thread(target=_drive, args=(
            server.port, plan, [e for e in plan.events[c] if e[0] < until], t0,
            logs[c], span,
        ))
        for c in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [entry for log in logs for entry in log], t0


def _diff(after: Dict[str, Any], before: Dict[str, Any], name: str, key: str = ""):
    name = f"repro.serving.{name}"
    if key:
        return after.get(name, {}).get(key, 0) - before.get(name, {}).get(key, 0)
    return after.get(name, 0) - before.get(name, 0)


def _served(server: Server, checks: Checks):
    """Every tenant's final served answer (checked as it is read)."""
    finals = {}
    for tenant in range(TENANTS):
        status, payload = server.client.request("GET", f"/sessions/{_name(tenant)}/solution")
        if checks.record(status == 200, f"final query {_name(tenant)}: HTTP {status}"):
            finals[tenant] = payload
            checks.answer(payload["uids"], payload["diversity"], payload.get("is_fair"),
                          K, f"final answer {_name(tenant)}")
    return finals


def _reference(plan: Plan, accepted: Dict[int, List[slice]], speed: CoreProbe,
               checks: Checks):
    """Per tenant, an in-process session fed the same accepted rows.

    Returns ``(answers, stats, seconds, overheads)``.  Each tenant's
    reference runs ``REFERENCE_REPEATS`` times; its time (and its time
    outside ingest and extraction) is the median normalised repeat.
    """
    answers, stats, seconds, overheads = {}, {}, {}, {}

    def answer(ranges):
        session = repro.open_session(k=K, groups=[0, 1], algorithm="SFDM2",
                                     batch_size=MAX_BATCH)
        for rows in ranges:
            features, groups, uids = plan.body(rows)
            session.offer_rows(features, groups=groups, uids=uids)
        return session.solution()

    for tenant, ranges in accepted.items():
        times, outside = [], []
        for _ in range(REFERENCE_REPEATS):
            result, raw, factor = speed.timed(answer, ranges)
            times.append(raw * factor)
            outside.append((raw - result.stats.stream_seconds
                            - result.stats.postprocess_seconds) * factor)
            key = (sorted(result.solution.uids), float(result.diversity))
            checks.same(key, answers.setdefault(tenant, key),
                        f"repeated reference {_name(tenant)}")
        stats[tenant], seconds[tenant] = result.stats, median(times)
        overheads[tenant] = median(outside)
    return answers, stats, seconds, overheads


def _run_server(root: Path, state_dir: Path, plan: Plan, speed: CoreProbe,
                checks: Checks, until: float, trace_out: Optional[Path] = None,
                span: bool = False) -> Dict[str, Any]:
    """Start a server, warm the tenants, drive the window, collect outputs."""
    started = time.perf_counter()
    server = Server(root, state_dir, speed.cpu, trace_out)
    try:
        _setup_tenants(server, plan, checks)
        ready = time.perf_counter()
        metrics_before = server.client.metrics()
        requests, t0 = _window(server, plan, until, span)
        metrics_after = server.client.metrics()
        finals = _served(server, checks)
        rss = process_peak_rss_mb(server.process.pid)
    finally:
        server.stop()
    for entry in requests:
        entry["factor"] = speed.factor(t0 + entry["due"],
                                       t0 + entry["due"] + entry["latency"])
    return {
        "setup_s": (ready - started) * speed.factor(started, ready),
        "factor": speed.factor(t0, t0 + until),
        "requests": requests, "finals": finals, "rss": rss,
        "metrics_before": metrics_before, "metrics_after": metrics_after,
    }


def _handler_ms(served: Dict[str, Any]) -> float:
    """Mean server-side handling time of the window's requests (``/metrics``)."""
    after, before = served["metrics_after"], served["metrics_before"]
    handled = _diff(after, before, "http.ms", "count")
    return _diff(after, before, "http.ms", "total") / max(handled, 1)


def run(seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    """Drive one open-loop window; with ``trace``, a second one on a traced server.

    With two or more CPUs the server runs pinned to the first and the
    generator to the rest; a :class:`CoreProbe` watches the server's CPU,
    which is also where the in-process references run once it has stopped.
    """
    cpus = usable_cpus()
    with CoreProbe(cpus[0]) as speed:
        return _run(seed, seconds, trace, out_dir, speed, cpus[1:] or cpus)


def _run(seed: int, seconds: float, trace: bool, out_dir: Path, speed: CoreProbe,
         generator_cpus: List[int]) -> Outcome:
    outcome = Outcome(Checks())
    checks = outcome.checks
    root = out_dir.parent
    state = root / ".bench_state" / f"serve-{seed}-{os.getpid()}"
    pin([speed.cpu])
    plan, raw, factor = speed.timed(Plan, seed, seconds, collect=True)
    generate_s = raw * factor
    pin(generator_cpus)
    try:
        setups = []
        for attempt in range(SETUPS - 1):
            started = time.perf_counter()
            server = Server(root, state / f"setup-{attempt}", speed.cpu)
            try:
                _setup_tenants(server, plan, checks)
                ready = time.perf_counter()
            finally:
                server.stop()
            setups.append((ready - started) * speed.factor(started, ready))
        served = _run_server(root, state / "run", plan, speed, checks, seconds)
        setups.append(served["setup_s"])
        if trace:
            out_dir.mkdir(parents=True, exist_ok=True)
            server_trace = out_dir / f"serve-mixed-seed{seed}.server.jsonl"
            sink = obs.MemorySink()
            with obs.tracing(sink):
                traced = _run_server(root, state / "traced", plan, speed, checks,
                                     seconds / 2, trace_out=server_trace, span=True)
    finally:
        shutil.rmtree(state, ignore_errors=True)
    pin([speed.cpu])

    requests, finals, window = served["requests"], served["finals"], served["factor"]
    after, before = served["metrics_after"], served["metrics_before"]
    offers = [r for r in requests if r["kind"] == "offer"]
    queries = [r for r in requests if r["kind"] == "query"]
    accepted: Dict[int, List[slice]] = {t: [plan.warm[t]] for t in range(TENANTS)}
    for entry in offers:
        if checks.record(entry["status"] == 202,
                         f"offer to {_name(entry['tenant'])}: HTTP {entry['status']}"):
            accepted[entry["tenant"]].append(entry["rows"])
    for entry in queries:
        payload = entry["payload"] or {}
        if checks.record(entry["status"] == 200,
                         f"query {_name(entry['tenant'])}: HTTP {entry['status']}"):
            checks.answer(payload["uids"], payload["diversity"], payload.get("is_fair"),
                          K, f"query {_name(entry['tenant'])}")
    lags = [r["lag"] for r in requests]
    lag_p99 = percentile(lags, 99)
    lag_tail = lag_p99 if lag_p99 is not None else max(lags)
    checks.record(lag_tail * 1000.0 <= GEN_LAG_LIMIT_MS,
                  f"generator fell behind: lag tail {lag_tail * 1000.0:.1f} ms (run invalid)")

    answers, stats, reference, overheads = _reference(plan, accepted, speed, checks)
    for tenant, payload in finals.items():
        checks.same((sorted(payload["uids"]), float(payload["diversity"])),
                    answers[tenant], f"served vs in-process {_name(tenant)}")

    rows = sum(OFFER_ROWS for r in offers if r["status"] == 202)
    handler_ms = _handler_ms(served) * window
    run_factor = speed.factor()
    hot = stats[0]
    outcome.e2e = {
        "setup_s": generate_s + median(setups),
        "solve_s": sum(reference.values()),
        "ingest_rows_per_s": rows / max(r["due"] + r["latency"] for r in offers),
        "query_p50_ms": median([r["latency"] * r["factor"] for r in queries]) * 1000.0,
        "diversity": float(np.mean([p["diversity"] for p in finals.values()])),
        "peak_rss_mb": served["rss"],
    }
    outcome.layer = {
        "api.overhead_ms": sum(overheads.values()) * 1000.0,
        "core.ingest_s": hot.stream_seconds * run_factor,
        "core.extract_ms": median([s.postprocess_seconds for s in stats.values()])
        * run_factor * 1000.0,
        "core.stream_distance_evals": hot.stream_distance_computations,
        "core.elements_processed": hot.elements_processed,
        "core.postprocess_distance_evals": hot.postprocess_distance_computations,
        "core.eligible_guesses": hot.extra.get("eligible_guesses", 0),
        "core.num_guesses": hot.extra.get("num_guesses", 0),
        "core.peak_stored_elements": hot.peak_stored_elements,
        "serving.handler_ms": handler_ms,
        "serving.transport_ms": float(np.mean([r["service"] * r["factor"]
                                               for r in requests])) * 1000.0 - handler_ms,
        "serving.flush_rows_mean": _diff(after, before, "flush.rows", "total")
        / max(_diff(after, before, "flush.rows", "count"), 1),
        "serving.flushes": _diff(after, before, "flushes"),
        "serving.evictions": _diff(after, before, "sessions.evicted"),
        "serving.restores": _diff(after, before, "sessions.restored"),
        "serving.rejected_rows": _diff(after, before, "rejected_rows"),
        "serving.http_errors": _diff(after, before, "http.errors"),
        "serving.gen_lag_p99_ms": (lag_p99 or lag_tail) * 1000.0,
        "datasets.generate_s": generate_s,
        "offer_p50_ms": median([r["latency"] * r["factor"] for r in offers]) * 1000.0,
        "query.samples": len(queries),
        "offer.samples": len(offers),
    }
    for name, values, q in (("offer_p99_ms", offers, 99), ("query_p90_ms", queries, 90)):
        value = percentile([r["latency"] * r["factor"] for r in values], q)
        if value is not None:
            outcome.layer[name] = value * 1000.0
    outcome.details = {
        "offers": len(offers), "queries": len(queries), "accepted_rows": rows,
        "setup_s": setups, "window_factor": window,
    }
    if not trace:
        return outcome

    traced_requests = traced["requests"]
    for entry in traced_requests:
        checks.record(entry["status"] == (202 if entry["kind"] == "offer" else 200),
                      f"traced {entry['kind']} to {_name(entry['tenant'])}: "
                      f"HTTP {entry['status']}")
    first = min(r["sent_at"] for r in traced_requests)
    last = max(r["sent_at"] for r in traced_requests)
    records = [json.loads(line) for line in server_trace.read_text().splitlines()]
    write_trace(out_dir / f"serve-mixed-seed{seed}.generator.jsonl", sink.records)
    selfs = self_seconds(records)
    traced_handler_ms = _handler_ms(traced) * traced["factor"]
    solutions = max(len([r for r in records if r.get("name") == "session.solution"]), 1)
    chunks = max(len([r for r in records if r.get("name") == "ingest.chunk"]), 1)
    requests_ms = [r["dur"] * 1000.0 * traced["factor"] for r in records
                   if r.get("name") == "serving.request" and first <= r["ts"] <= last]
    outcome.layer.update({
        "core.chunk_self_ms": selfs.get("ingest.chunk", 0.0) * run_factor * 1000.0 / chunks,
        "core.guess_self_ms": selfs.get("sfdm2.guess", 0.0) * run_factor * 1000.0
        / solutions,
        "obs.trace_overhead_pct": (traced_handler_ms / handler_ms - 1.0) * 100.0,
        "obs.split_gap_pct": (float(np.mean(requests_ms)) / traced_handler_ms - 1.0)
        * 100.0,
    })
    outcome.details["server_self_ms"] = {k: v * 1000.0 for k, v in selfs.items()}
    outcome.details["traced_requests"] = len(traced_requests)
    return outcome
