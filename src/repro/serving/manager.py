"""Asyncio session manager: thousands of named, checkpointable sessions.

The manager is the serving layer's core.  It owns a registry of named
per-tenant sessions (any registry algorithm with the ``sessions``
capability, through :func:`repro.open_session`) and adds the three things
a single in-process session lacks:

* **micro-batching** — incoming offers are queued per session and flushed
  into ``offer_rows`` calls when a batch fills (``max_batch`` rows) or a
  deadline passes (``flush_ms``), so the engine's measured batch-ingest
  speedup is realized even when every request carries a handful of rows
  (new sessions default to ``batch_size = max_batch`` when their
  algorithm supports batching);
* **bounded memory** — at most ``max_live`` sessions are resident; the
  least-recently-used ones are evicted to data-only checkpoints
  (:mod:`repro.api.checkpoint`) under ``state_dir`` (after flushing their
  queue, so nothing is lost) and transparently restored on the next
  touch.  Because session checkpoint/resume is byte-identical and
  ``offer_rows`` chunking is alignment-independent, an evicted-and-restored
  session produces solutions and distance counts identical to one that
  never left memory — the serving property tests pin this.  The checkpoint
  keeps the session's extraction memo, so a restored session's next query
  re-extracts only the guess levels that grew, and restoring reads no
  pickle: a file planted in ``state_dir`` can fail a restore (HTTP 500)
  but cannot run code;
* **backpressure** — each session's queue is bounded (``max_queue``
  rows); an offer that would overflow it is rejected wholesale with
  :class:`~repro.serving.errors.QueueFullError` (HTTP 429 upstream).

Serving metrics (``repro.serving.*`` counters/gauges/histograms) feed the
process-wide :class:`~repro.obs.MetricsRegistry` directly — *not* gated
on tracing like the engine's run-boundary metrics, because the serving
layer is request-boundary code where one registry update per flush is
noise and an always-on ``/metrics`` endpoint is the point.  Spans
(``serving.flush``, ``serving.evict``, ``serving.restore``) stay gated
through :func:`repro.obs.span` as usual.

All ingestion and extraction runs synchronously on the event loop: the
engine is CPU-bound pure Python/NumPy, so handing it to a thread pool
would only add GIL contention.  Requests queue cheaply; the loop blocks
only while a flush or query actually computes.
"""

from __future__ import annotations

import asyncio
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import obs
from repro.api.registry import get_algorithm, has_algorithm
from repro.api.session import SessionBase, resume
from repro.api.solve import open_session
from repro.core.result import RunResult
from repro.data.store import feature_rows, group_codes
from repro.serving.errors import (
    QueueFullError,
    SessionExistsError,
    SessionNotFoundError,
    TooManySessionsError,
)
from repro.utils.errors import InvalidParameterError

#: Valid session names: path-safe, no separators, bounded length.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9_-]{1,64}$")

#: Metric-name prefix of every serving instrument.
METRIC_PREFIX = "repro.serving"


@dataclass
class ManagerConfig:
    """Tunables of one :class:`SessionManager`.

    Attributes
    ----------
    state_dir:
        Directory for eviction/drain checkpoints (created on first use).
    max_sessions:
        Total named sessions the manager admits (live + evicted).
    max_live:
        Sessions resident in memory before LRU eviction kicks in.
    max_batch:
        Queued rows that force an immediate flush; also the default
        ``batch_size`` option of new batch-capable sessions.
    flush_ms:
        Deadline (milliseconds) before a partial queue flushes anyway.
    max_queue:
        Per-session bound on queued rows; offers beyond it are rejected
        (backpressure, HTTP 429 upstream).
    default_algorithm:
        Algorithm used when a create request names none.
    """

    state_dir: Path
    max_sessions: int = 10_000
    max_live: int = 256
    max_batch: int = 256
    flush_ms: float = 20.0
    max_queue: int = 8_192
    default_algorithm: str = "SFDM2"

    def __post_init__(self) -> None:
        self.state_dir = Path(self.state_dir)
        for name in ("max_sessions", "max_live", "max_batch", "max_queue"):
            if int(getattr(self, name)) < 1:
                raise InvalidParameterError(
                    f"{name} must be a positive integer, got {getattr(self, name)}"
                )
        if self.flush_ms < 0:
            raise InvalidParameterError(
                f"flush_ms must be non-negative, got {self.flush_ms}"
            )


class _Entry:
    """One named session: live object or checkpoint, plus its offer queue."""

    __slots__ = (
        "name",
        "session",
        "checkpoint_path",
        "pending",
        "pending_rows",
        "flush_handle",
        "lock",
        "offered_rows",
    )

    def __init__(self, name: str, session: SessionBase, checkpoint_path: Path) -> None:
        self.name = name
        self.session: Optional[SessionBase] = session
        self.checkpoint_path = checkpoint_path
        #: Queued offers, oldest first: ``(features, groups, uids)`` tuples.
        self.pending: List[tuple] = []
        self.pending_rows = 0
        self.flush_handle: Optional[asyncio.TimerHandle] = None
        self.lock = asyncio.Lock()
        self.offered_rows = 0

    @property
    def live(self) -> bool:
        """Whether the session object is resident in memory."""
        return self.session is not None


class SessionManager:
    """Owns named sessions: create/offer/solution/close, LRU evict, drain."""

    def __init__(self, config: ManagerConfig) -> None:
        self._config = config
        self._config.state_dir.mkdir(parents=True, exist_ok=True)
        self._entries: Dict[str, _Entry] = {}
        #: LRU order over *live* sessions (oldest first).
        self._live: Dict[str, None] = {}
        self._next_auto = 0
        self._flush_tasks: set = set()
        self._draining = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> ManagerConfig:
        """The manager's (immutable by convention) configuration."""
        return self._config

    def __len__(self) -> int:
        """Total named sessions (live + evicted)."""
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        """Whether a session with this name is registered."""
        return name in self._entries

    @property
    def live_count(self) -> int:
        """Sessions currently resident in memory."""
        return len(self._live)

    def names(self) -> List[str]:
        """All registered session names, creation-ordered."""
        return list(self._entries)

    def is_live(self, name: str) -> bool:
        """Whether the named session is resident (False = evicted)."""
        return self._require(name).live

    def pending_rows(self, name: str) -> int:
        """Rows queued (accepted, not yet ingested) for the named session."""
        return self._require(name).pending_rows

    def stats(self) -> Dict[str, Any]:
        """Operational snapshot for ``/healthz`` and tests."""
        return {
            "sessions": len(self._entries),
            "live": len(self._live),
            "evicted": len(self._entries) - len(self._live),
            "queued_rows": sum(e.pending_rows for e in self._entries.values()),
            "max_sessions": self._config.max_sessions,
            "max_live": self._config.max_live,
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The process metrics registry with the serving gauges refreshed."""
        self._refresh_gauges()
        return obs.get_metrics().snapshot()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def create(self, name: Optional[str] = None, **session_kwargs: Any) -> str:
        """Register a new named session and return its name.

        ``session_kwargs`` are passed to :func:`repro.open_session`
        (``k``, ``groups``, ``algorithm``, ``epsilon``, ``fairness``,
        ``metric``, ``options``, ...).  Batch-capable algorithms default
        to ``batch_size = max_batch`` so the flush path runs vectorized.
        """
        if len(self._entries) >= self._config.max_sessions:
            raise TooManySessionsError(self._config.max_sessions)
        if name is None:
            name = self._generate_name()
        elif not _NAME_PATTERN.match(str(name)):
            raise InvalidParameterError(
                f"session names must match {_NAME_PATTERN.pattern}, got {name!r}"
            )
        if name in self._entries:
            raise SessionExistsError(name)

        kwargs = dict(session_kwargs)
        if isinstance(kwargs.get("groups"), int):
            # JSON convenience: a group *count* m means labels 0..m-1.
            kwargs["groups"] = list(range(kwargs["groups"]))
        algorithm = kwargs.setdefault("algorithm", self._config.default_algorithm)
        options = dict(kwargs.pop("options", None) or {})
        if (
            self._config.max_batch > 1
            and "batch_size" not in options
            and isinstance(algorithm, str)
            and has_algorithm(algorithm)
            and "batch_size" in get_algorithm(algorithm).capabilities.options
        ):
            options["batch_size"] = self._config.max_batch
        session = open_session(options=options, **kwargs)

        entry = _Entry(name, session, self._config.state_dir / f"{name}.ckpt")
        self._entries[name] = entry
        self._live[name] = None
        self._count("sessions.created")
        obs.event("serving.create", session=name, algorithm=session.algorithm_name)
        await self._enforce_live_bound(exclude=name)
        self._refresh_gauges()
        return name

    async def close(self, name: str, checkpoint: bool = False) -> Dict[str, Any]:
        """Remove the named session; optionally checkpoint it first.

        Without ``checkpoint`` the session's state (and any prior
        eviction checkpoint) is discarded; with it, queued offers are
        flushed and a final checkpoint is left under ``state_dir``.
        """
        entry = self._require(name)
        async with entry.lock:
            self._cancel_timer(entry)
            if checkpoint:
                self._ensure_live_locked(entry)
                self._flush_locked(entry, reason="close")
                entry.session.checkpoint(entry.checkpoint_path)
            elif entry.checkpoint_path.exists():
                entry.checkpoint_path.unlink()
            self._entries.pop(name, None)
            self._live.pop(name, None)
        self._count("sessions.closed")
        self._refresh_gauges()
        return {
            "name": name,
            "checkpoint": str(entry.checkpoint_path) if checkpoint else None,
        }

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    async def offer(
        self,
        name: str,
        features: Any,
        groups: Any = None,
        uids: Any = None,
    ) -> Dict[str, int]:
        """Queue feature rows for the named session (micro-batched ingest).

        Returns ``{"accepted": n, "pending": rows-now-queued}``.  The rows
        are ingested on the next flush — immediately when the queue
        reaches ``max_batch``, otherwise within ``flush_ms``.

        Raises
        ------
        InvalidParameterError
            If the features are not a non-empty matrix, a feature is NaN
            or infinite (see :func:`~repro.data.store.feature_rows`), a
            group label is not an integer (see
            :func:`~repro.data.store.group_codes`, which checks the uids
            too), or the labels or uids do not match the rows.  This is
            checked here, so a bad batch is refused before it is queued and
            the session keeps answering.
        QueueFullError
            If accepting the rows would overflow the session's bounded
            queue; nothing is queued in that case (all-or-nothing).
        """
        entry = self._require(name)
        matrix = feature_rows(features)
        if matrix.shape[0] == 0:
            raise InvalidParameterError(
                f"features must be a non-empty (n, d) matrix or a single row, "
                f"got shape {matrix.shape}"
            )
        rows = matrix.shape[0]
        if groups is not None:
            groups = group_codes(groups, rows)
        if uids is not None:
            uids = group_codes(uids, rows, "uids")
        if entry.pending_rows + rows > self._config.max_queue:
            self._count("rejected_rows", rows)
            raise QueueFullError(name, entry.pending_rows, self._config.max_queue)

        entry.pending.append((matrix, groups, uids))
        entry.pending_rows += rows
        entry.offered_rows += rows
        self._count("offered_rows", rows)
        if entry.pending_rows >= self._config.max_batch:
            await self._flush(entry, reason="max-batch")
        elif entry.flush_handle is None:
            loop = asyncio.get_running_loop()
            entry.flush_handle = loop.call_later(
                self._config.flush_ms / 1000.0, self._on_flush_deadline, entry.name
            )
        self._refresh_gauges()
        return {"accepted": rows, "pending": entry.pending_rows}

    async def flush(self, name: str) -> int:
        """Force-flush the named session's queue; returns rows ingested."""
        return await self._flush(self._require(name), reason="explicit")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    async def solution(self, name: str) -> RunResult:
        """Flush the queue, then the session's current solution (pure query)."""
        entry = self._require(name)
        async with entry.lock:
            self._ensure_live_locked(entry)
            self._flush_locked(entry, reason="solution")
            result = entry.session.solution()
        self._touch(entry)
        await self._enforce_live_bound(exclude=entry.name)
        return result

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def drain(self) -> Dict[str, str]:
        """Flush every queue and checkpoint every session (SIGTERM path).

        Evicted sessions with an empty queue already have a current
        checkpoint on disk and are left untouched.  Returns a mapping of
        session name to checkpoint path.
        """
        self._draining = True
        checkpoints: Dict[str, str] = {}
        with obs.span("serving.drain", sessions=len(self._entries)):
            for entry in list(self._entries.values()):
                async with entry.lock:
                    self._cancel_timer(entry)
                    if entry.live or entry.pending_rows:
                        self._ensure_live_locked(entry)
                        self._flush_locked(entry, reason="drain")
                        entry.session.checkpoint(entry.checkpoint_path)
                    checkpoints[entry.name] = str(entry.checkpoint_path)
        self._count("drained_sessions", len(checkpoints))
        self._refresh_gauges()
        return checkpoints

    async def shutdown(self) -> None:
        """Cancel timers and drop all state without checkpointing."""
        for entry in self._entries.values():
            self._cancel_timer(entry)
        for task in list(self._flush_tasks):
            task.cancel()
        self._entries.clear()
        self._live.clear()
        self._refresh_gauges()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require(self, name: str) -> _Entry:
        """The entry for ``name``, or :class:`SessionNotFoundError`."""
        entry = self._entries.get(name)
        if entry is None:
            raise SessionNotFoundError(name)
        return entry

    def _generate_name(self) -> str:
        """A fresh auto-assigned session name (``s-<counter>``)."""
        while True:
            self._next_auto += 1
            name = f"s-{self._next_auto:06d}"
            if name not in self._entries:
                return name

    def _on_flush_deadline(self, name: str) -> None:
        """Timer callback: flush the (possibly partial) queue as a task."""
        entry = self._entries.get(name)
        if entry is None or self._draining:
            return
        entry.flush_handle = None
        task = asyncio.get_running_loop().create_task(
            self._flush(entry, reason="deadline")
        )
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_tasks.discard)

    def _cancel_timer(self, entry: _Entry) -> None:
        """Drop the entry's pending flush deadline, if any."""
        if entry.flush_handle is not None:
            entry.flush_handle.cancel()
            entry.flush_handle = None

    async def _flush(self, entry: _Entry, reason: str) -> int:
        """Ingest the entry's queued offers (restoring the session first)."""
        async with entry.lock:
            self._cancel_timer(entry)
            if not entry.pending:
                return 0
            self._ensure_live_locked(entry)
            rows = self._flush_locked(entry, reason=reason)
        self._touch(entry)
        await self._enforce_live_bound(exclude=entry.name)
        self._refresh_gauges()
        return rows

    def _flush_locked(self, entry: _Entry, reason: str) -> int:
        """Feed every queued payload to the live session, oldest first."""
        if not entry.pending:
            return 0
        payloads, entry.pending = entry.pending, []
        rows = entry.pending_rows
        entry.pending_rows = 0
        with obs.span("serving.flush", session=entry.name, rows=rows, reason=reason):
            for features, groups, uids in payloads:
                entry.session.offer_rows(features, groups=groups, uids=uids)
        self._count("flushes")
        self._observe("flush.rows", rows)
        return rows

    def _ensure_live_locked(self, entry: _Entry) -> None:
        """Restore the entry's session from its checkpoint if evicted."""
        if entry.session is not None:
            return
        with obs.span("serving.restore", session=entry.name):
            entry.session = resume(entry.checkpoint_path)
        self._live[entry.name] = None
        self._count("sessions.restored")

    def _touch(self, entry: _Entry) -> None:
        """Mark the entry most-recently-used in the live LRU order."""
        if entry.name in self._live:
            self._live.pop(entry.name)
            self._live[entry.name] = None

    async def _enforce_live_bound(self, exclude: str) -> None:
        """LRU-evict live sessions (never ``exclude``) beyond ``max_live``."""
        while len(self._live) > self._config.max_live:
            victim_name = next(
                (name for name in self._live if name != exclude), None
            )
            if victim_name is None:
                return
            victim = self._entries[victim_name]
            async with victim.lock:
                if victim.session is None:
                    self._live.pop(victim_name, None)
                    continue
                with obs.span(
                    "serving.evict",
                    session=victim_name,
                    offered=victim.session.elements_offered,
                ):
                    self._cancel_timer(victim)
                    self._flush_locked(victim, reason="evict")
                    victim.session.checkpoint(victim.checkpoint_path)
                    victim.session = None
                self._live.pop(victim_name, None)
            self._count("sessions.evicted")

    # ------------------------------------------------------------------
    # Metrics plumbing (direct registry feed, never gated on tracing)
    # ------------------------------------------------------------------
    def _count(self, suffix: str, amount: int = 1) -> None:
        """Increment the serving counter ``repro.serving.<suffix>``."""
        obs.get_metrics().counter(f"{METRIC_PREFIX}.{suffix}").inc(amount)

    def _observe(self, suffix: str, value: float) -> None:
        """Fold one observation into the serving histogram ``<suffix>``."""
        obs.get_metrics().histogram(f"{METRIC_PREFIX}.{suffix}").observe(value)

    def _refresh_gauges(self) -> None:
        """Recompute the point-in-time serving gauges."""
        metrics = obs.get_metrics()
        metrics.gauge(f"{METRIC_PREFIX}.sessions.active").set(len(self._entries))
        metrics.gauge(f"{METRIC_PREFIX}.sessions.live").set(len(self._live))
        metrics.gauge(f"{METRIC_PREFIX}.queue.depth").set(
            sum(e.pending_rows for e in self._entries.values())
        )
