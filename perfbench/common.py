"""Shared helpers of the benchmark: timing summaries, answer checks, traces.

Everything here measures the program from outside: it times calls into
public functions, reads public outputs (``RunResult.stats``, HTTP
payloads, ``GET /metrics``) and analyses the spans ``repro.obs`` emits.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

#: A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    """The median of ``values`` (0.0 for an empty sequence)."""
    return float(np.median(values)) if len(values) else 0.0


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` when too few samples lie beyond it."""
    if len(values) * (1.0 - q / 100.0) < TAIL_SAMPLES:
        return None
    return float(np.percentile(values, q))


def timed(call, *args, collect: bool = False, **kwargs):
    """``(result, seconds)`` of one call, optionally after a full collection."""
    if collect:
        gc.collect()
    start = time.perf_counter()
    result = call(*args, **kwargs)
    return result, time.perf_counter() - start


#: Iterations of the host-speed probe loop (a few milliseconds of CPython).
PROBE_ITERATIONS = 20_000
#: Probe time that normalised timings are scaled to: roughly what the probe
#: takes on an uncontended 2-CPU x86-64 host under CPython 3.11.
PROBE_REF_S = 0.0035


def probe_loop(iterations: int = PROBE_ITERATIONS) -> None:
    """The host-speed probe: a fixed pure-Python loop that uses no repro code."""
    table: Dict[int, float] = {}
    for i in range(iterations):
        table[i % 512] = table.get(i % 512, 0.0) + i * 0.5


#: Gap between two probe samples (the probe takes ~2% of its CPU).
PROBE_GAP_S = 0.15
#: An operation is normalised by the probe samples within this many seconds of it.
PROBE_NEAR_S = 0.75


def usable_cpus() -> List[int]:
    """The CPUs this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


def pin(cpus) -> None:
    """Restrict the calling thread (and threads it starts later) to ``cpus``."""
    os.sched_setaffinity(0, set(cpus))


class CoreProbe:
    """Normalises timings for the speed one CPU of a shared host has right now.

    The host this benchmark was built on changes the speed of each CPU
    independently, by up to 1.8x, every few seconds (other tenants' load),
    and every raw timing moves with it.  While the context is open, a
    background thread pinned to ``cpu`` times :func:`probe_loop` in its own
    CPU time every ``PROBE_GAP_S``; that stays correct while it shares the
    CPU with the measured work.  A raw time multiplied by
    :meth:`factor` over the same interval reads as if the CPU ran at the
    reference speed (``PROBE_REF_S`` per probe).  The probe runs no repro
    code, so a faster program still reads faster.
    """

    def __init__(self, cpu: Optional[int]) -> None:
        self.cpu = cpu
        self.samples: List[tuple] = []
        self._done = threading.Event()
        self._first = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "CoreProbe":
        self._thread.start()
        self._first.wait()
        return self

    def __exit__(self, *exc_info) -> None:
        self._done.set()
        self._thread.join()

    def _run(self) -> None:
        if self.cpu is not None:
            pin([self.cpu])
        while True:
            start = time.thread_time()
            probe_loop()
            self.samples.append((time.perf_counter(), time.thread_time() - start))
            self._first.set()
            if self._done.wait(PROBE_GAP_S):
                return

    def factor(self, start: float = -math.inf, stop: float = math.inf) -> float:
        """Scale from raw to normalised time for work between ``start`` and ``stop``."""
        near = [spent for at, spent in self.samples
                if start - PROBE_NEAR_S <= at <= stop + PROBE_NEAR_S]
        return PROBE_REF_S / median(near or [spent for _, spent in self.samples])

    def timed(self, call, *args, collect: bool = False, **kwargs):
        """``(result, raw_seconds, factor)`` of one call; multiply to normalise."""
        start = time.perf_counter()
        result, seconds = timed(call, *args, collect=collect, **kwargs)
        return result, seconds, self.factor(start, start + seconds)


@dataclass
class Outcome:
    """What one workload run measured.

    ``e2e`` and ``layer`` map metric names (as in ``BENCHMARK.json``) to
    values; ``details`` holds sample counts and other context printed
    beside the result.
    """

    checks: "Checks"
    e2e: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)


class Checks:
    """Counts attempted and failed operations and remembers why they failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str = "") -> bool:
        """Count one operation; ``ok=False`` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok

    def answer(self, uids: Sequence[int], diversity: float, fair: Any, k: int,
               what: str) -> bool:
        """Count one answer: fair, ``k`` distinct uids and a finite diversity."""
        problems = []
        if fair is not True:
            problems.append(f"fair={fair}")
        if len(uids) != k or len(set(uids)) != k:
            problems.append(f"{len(set(uids))} distinct of {len(uids)} uids, want {k}")
        if diversity is None or not math.isfinite(diversity):
            problems.append(f"diversity={diversity}")
        return self.record(not problems, f"{what}: {'; '.join(problems)}")

    def same(self, left: Any, right: Any, what: str) -> bool:
        """Count one identity check between two answers."""
        return self.record(left == right, f"{what}: {left!r} != {right!r}")

    @property
    def error_rate(self) -> float:
        """Failed over attempted operations."""
        return self.failed / self.attempted if self.attempted else 0.0


def answer_key(result) -> tuple:
    """What two answers must share to be identical: sorted uids and diversity."""
    return tuple(sorted(result.solution.uids)), float(result.diversity)


def pairwise_ms(repeats: int = 5) -> float:
    """Median milliseconds of a fixed 2048x2048x16 Euclidean ``pairwise``."""
    import repro

    points = np.random.default_rng(0).normal(size=(2048, 16))
    metric = repro.euclidean()
    samples = []
    for _ in range(repeats):
        _, seconds = timed(metric.pairwise, points, points, collect=True)
        samples.append(seconds * 1000.0)
    return median(samples)


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def fingerprint(root: Path, calibration_ms: float) -> Dict[str, Any]:
    """Machine and code identity attached to every run's output."""
    import repro

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": repro.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "metrics.pairwise_ms": calibration_ms,
    }


# ----------------------------------------------------------------------
# Trace analysis
# ----------------------------------------------------------------------
def self_seconds(records: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Total self time per span name: duration minus what its children cover.

    Children are clipped to their parent's interval and merged before they
    are subtracted, so overlapping or escaping children (interleaved
    asyncio requests) never drive a self time below zero.
    """
    spans = [r for r in records if r.get("type") == "span"]
    children: Dict[Any, List[tuple]] = {}
    for span in spans:
        if span.get("parent_id") is not None:
            children.setdefault(span["parent_id"], []).append(
                (span["mono"], span["mono"] + span["dur"])
            )
    totals: Dict[str, float] = {}
    for span in spans:
        start, stop = span["mono"], span["mono"] + span["dur"]
        covered, cursor = 0.0, start
        for child_start, child_stop in sorted(children.get(span["span_id"], [])):
            child_start, child_stop = max(child_start, cursor), min(child_stop, stop)
            if child_stop > child_start:
                covered += child_stop - child_start
                cursor = child_stop
        totals[span["name"]] = totals.get(span["name"], 0.0) + span["dur"] - covered
    return totals


def span_total(records: Iterable[Dict[str, Any]], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(r["dur"] for r in records if r.get("type") == "span" and r["name"] == name)


def write_trace(path: Path, records: Iterable[Dict[str, Any]]) -> None:
    """Write span and event records as JSON lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=str))
            handle.write("\n")
