"""Long-lived streaming sessions: ingest indefinitely, query anytime.

The one-shot :meth:`~repro.core.base.StreamingAlgorithm.run` consumes a
finite stream and returns once.  A production server instead needs to keep
ingesting and answer *"what is the best fair solution right now?"* at any
point — which is exactly what a :class:`StreamingSession` provides, for
every streaming-ladder algorithm (SFDM1, SFDM2, StreamingDM), by driving
the same candidate state the one-shot run builds:

* :meth:`~StreamingSession.offer` / :meth:`~StreamingSession.offer_batch` /
  :meth:`~StreamingSession.offer_rows` feed elements (or raw feature rows)
  incrementally into the same ingestion engine
  (:class:`~repro.core.base.IngestState`) that ``run()`` drives;
* :meth:`~StreamingSession.solution` extracts the current best solution as a
  full :class:`~repro.core.result.RunResult` **without mutating the
  session** — ingestion continues afterwards exactly as if the query never
  happened, so the final answer (and its distance accounting) is
  byte-identical to an uninterrupted run over the same element order;
* :meth:`~SessionBase.checkpoint` writes the live state to disk as a
  data-only checkpoint (:mod:`repro.api.checkpoint`: a JSON header and raw
  arrays, never a pickle) and :func:`resume` restores it —
  ``checkpoint -> resume -> continue`` yields byte-identical solutions and
  equal distance counts versus never stopping, for every streaming-ladder
  algorithm and for the windowed ones :class:`WindowSession` wraps.  The
  checkpoint keeps the queries' :class:`~repro.core.base.ExtractionMemo`
  too, so a resumed session answers warm.

Sessions are created through :func:`repro.open_session`, which resolves the
algorithm from the registry and rejects entries without the ``sessions``
capability.
"""

from __future__ import annotations

import copy
import dataclasses
import os
from pathlib import Path
from typing import Any, Iterable, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.api import checkpoint as _checkpoint
from repro.core.base import IngestState, StreamChunk, StreamingAlgorithm
from repro.core.result import RunResult
from repro.data.element import Element
from repro.data.store import feature_rows, group_codes
from repro.metrics.cached import CountingMetric
from repro.streaming.stats import StreamStats
from repro.utils.errors import EmptyStreamError, InvalidParameterError
from repro.utils.timer import Timer


class SessionBase:
    """Shared session plumbing: element coercion, uids, and checkpointing.

    Parameters
    ----------
    trace:
        Optional tracing sink spec (a :class:`repro.obs.Sink`,
        ``"stderr"``, ``"memory"``, or a JSONL file path).  Sessions are
        long-lived, so this configures the *process-wide* tracer via
        :func:`repro.obs.configure` rather than scoping it to one call;
        pass ``trace=`` to at most one constructor (the last one wins).
    """

    #: ``(rows, stream distance evaluations)`` already fed to the obs
    #: registry by earlier queries (see :meth:`_publish`).
    _published: Tuple[int, int] = (0, 0)

    def __init__(self, trace: Any = None) -> None:
        self._offered = 0
        self._next_uid = 0
        #: Accumulated wall-clock spent ingesting, shared by every session
        #: kind (one :class:`~repro.utils.timer.Timer` instead of ad-hoc
        #: ``perf_counter`` bookkeeping per subclass).
        self._stream_timer = Timer()
        if trace is not None:
            obs.configure(sink=trace, enabled=True)

    @property
    def _stream_seconds(self) -> float:
        """Total wall-clock seconds spent inside ``_ingest``."""
        return self._stream_timer.elapsed

    # ------------------------------------------------------------------
    # Ingestion surface
    # ------------------------------------------------------------------
    @property
    def elements_offered(self) -> int:
        """Total number of elements this session has ingested."""
        return self._offered

    def offer(self, element: Element) -> None:
        """Ingest one element."""
        self._ingest(StreamChunk.of_elements([element]))

    def offer_batch(self, elements: Iterable[Element]) -> None:
        """Ingest a chunk of elements, in order."""
        chunk = list(elements)
        if chunk:
            self._ingest(StreamChunk.of_elements(chunk))

    def offer_rows(
        self,
        features: Any,
        groups: Optional[Any] = None,
        uids: Optional[Any] = None,
    ) -> None:
        """Ingest raw feature rows (the server-friendly array entry point).

        Parameters
        ----------
        features:
            Array of shape ``(n, d)`` — or a single ``(d,)`` row — checked
            by :func:`~repro.data.store.feature_rows`: a NaN or infinite
            entry raises :class:`InvalidParameterError` naming its row,
            before anything is ingested.
        groups:
            ``n`` integer group labels (default: group ``0`` for every row),
            checked by :func:`~repro.data.store.group_codes`: a NaN,
            infinite, fractional or non-scalar label raises
            :class:`InvalidParameterError` naming its row.
        uids:
            ``n`` integer identifiers, checked like the group labels;
            auto-assigned past the largest uid seen so far when omitted.
        """
        matrix = feature_rows(features)
        n = matrix.shape[0]
        codes = np.zeros(n, dtype=np.int64) if groups is None else group_codes(groups, n)
        if uids is None:
            uid_array = np.arange(self._next_uid, self._next_uid + n, dtype=np.int64)
        else:
            uid_array = group_codes(uids, n, "uids")
        if n:
            self._ingest(StreamChunk(matrix, codes, uid_array))

    def _ingest(self, chunk: StreamChunk) -> None:
        """Subclasses ingest an in-order, non-empty chunk here."""
        raise NotImplementedError

    def _publish(self, stats: StreamStats) -> None:
        """Feed one query's stats to the obs registry, counting ingested work once.

        A query's stats cover the whole stream so far, so publishing them as
        they are would add the rows and stream distance evaluations of every
        earlier query again.  Only the growth of those two counters since
        the previous query is published; the registry then holds what was
        ingested however often the session is queried.  A query made
        mid-warmup runs on a ladder estimated from fewer rows, so nothing
        guarantees that its stream count is below a later query's; growth
        is clamped at zero, since registry counters refuse decrements.
        """
        rows, distances = self._published
        grown_rows = max(stats.elements_processed - rows, 0)
        grown_distances = max(stats.stream_distance_computations - distances, 0)
        self._published = (rows + grown_rows, distances + grown_distances)
        dataclasses.replace(
            stats,
            elements_processed=grown_rows,
            stream_distance_computations=grown_distances,
        ).publish(self.algorithm_name)

    def _track_uids(self, chunk: StreamChunk) -> None:
        """Count ``chunk``'s rows; keep auto-uids past its largest uid."""
        self._offered += len(chunk)
        self._next_uid = max(self._next_uid, int(chunk.uids().max()) + 1)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, path: Union[str, os.PathLike]) -> Path:
        """Snapshot the live session state to ``path`` (atomic replace).

        The checkpoint (:mod:`repro.api.checkpoint`) is data only: a JSON
        header with the algorithm's registry name and configuration, the
        counters and watermarks, and raw arrays holding every stored
        element once, the candidates' members, the pending partial chunk
        and the queries' extraction memo.  It holds everything needed to
        continue byte-identically and to answer the next query warm, and
        nothing that runs code when read.  Restore with
        :func:`repro.resume`.

        The write is crash-safe: the payload is encoded in full first, then
        goes to a uniquely named temporary file in the target directory, is
        flushed and fsynced, and only then atomically replaces ``path``.
        A failure at any point leaves the previous checkpoint untouched and
        removes the temporary file; a truncated payload is never visible
        under ``path``.

        Raises
        ------
        CheckpointError
            If the target directory does not exist or is not writable, or
            the session cannot be encoded as data: its metric is not one of
            :func:`repro.solve`'s named metrics (or ``minkowski``), a payload
            is not numeric or fixed-width text, or the algorithm is not a
            session-capable library class.
        """
        path = Path(path)
        _checkpoint.save(self, path)
        obs.event(
            "session.checkpoint",
            algorithm=self.algorithm_name,
            path=str(path),
            offered=self._offered,
        )
        return path

    @property
    def algorithm_name(self) -> str:
        """Name of the wrapped algorithm (used in reports and checkpoints)."""
        raise NotImplementedError


def resume(path: Union[str, os.PathLike]) -> SessionBase:
    """Restore a session previously saved with :meth:`SessionBase.checkpoint`.

    The restored session continues exactly where the checkpoint left off:
    feeding it the remaining stream suffix yields byte-identical solutions
    and equal distance counts to a session that was never interrupted, and
    its first query reuses every guess level the checkpointed session had
    already post-processed.  Restoring evaluates no distance and runs no
    code from the file: the algorithm is rebuilt from an allowlist of
    session-capable classes, its metric from an allowlist of names.

    Raises
    ------
    CheckpointError
        If ``path`` does not exist, cannot be read, is truncated, fails
        its checksum, is a pickle (the format of version 2 and earlier,
        which is refused unread), or is not a version-3 checkpoint of an
        allowlisted algorithm and metric.  The message always names the
        offending path.
    """
    session = _checkpoint.load(path)
    obs.event(
        "session.resume",
        algorithm=session.algorithm_name,
        path=str(path),
        offered=session.elements_offered,
    )
    return session


class StreamingSession(SessionBase):
    """Incremental driver for one streaming-ladder algorithm.

    Parameters
    ----------
    algorithm:
        A configured :class:`~repro.core.base.StreamingAlgorithm`
        (SFDM1, SFDM2, or StreamingDiversityMaximization).  The session owns
        the run state; the algorithm object itself is never mutated.

    Offers go straight into the algorithm's ingestion engine
    (:class:`~repro.core.base.IngestState`), the one ``run()`` drives:
    the warmup buffers until the bounds can be estimated, and rows are
    screened in ``batch_size`` chunks aligned to the stream start whatever
    the offer sizes, so a session ends in exactly the state of a one-shot
    run over the same element order.  :meth:`offer_rows` hands the offered
    matrix to the engine as is; an element is built only for a row some
    candidate accepts.

    :meth:`solution` works on a snapshot of that state, so queries are
    pure: the live ingestion schedule — and therefore the distance
    accounting — is unaffected by how often (or whether) the session is
    queried.
    """

    def __init__(self, algorithm: StreamingAlgorithm, trace: Any = None) -> None:
        super().__init__(trace=trace)
        if not isinstance(algorithm, StreamingAlgorithm):
            raise InvalidParameterError(
                f"StreamingSession drives StreamingAlgorithm instances, "
                f"got {type(algorithm).__name__}"
            )
        self._algorithm = algorithm
        self._state = IngestState(algorithm)

    # ------------------------------------------------------------------
    @property
    def algorithm_name(self) -> str:
        """Name of the wrapped algorithm."""
        return self._algorithm.name

    @property
    def is_active(self) -> bool:
        """Whether the guess ladder exists yet (warmup complete)."""
        return self._state.is_active

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _ingest(self, chunk: StreamChunk) -> None:
        obs.event("session.offer", algorithm=self._algorithm.name, count=len(chunk))
        with self._stream_timer.measure():
            self._track_uids(chunk)
            self._state.offer(chunk)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def solution(self) -> RunResult:
        """The best solution over everything offered so far, as a RunResult.

        The extraction runs on a snapshot of the ingestion state
        (:meth:`~repro.core.base.IngestState.snapshot`), so the live state
        is untouched: the pending partial chunk is flushed only inside the
        snapshot, and post-processing distance evaluations are charged to
        the snapshot's counter.  Querying is therefore free of side effects
        — a session queried a thousand times mid-stream ends with exactly
        the accounting of one that was never queried.  The only thing a
        query leaves behind is a cache: the guess levels it post-processed
        (:class:`~repro.core.base.ExtractionMemo`), which the next query
        reuses for every level whose candidates have not grown since.

        Raises
        ------
        EmptyStreamError
            If nothing was offered yet.
        NoFeasibleSolutionError
            If no (fair) solution can be built from the current state.
        """
        if self._offered == 0:
            raise EmptyStreamError(
                f"{self._algorithm.name} session received no elements"
            )
        with obs.span(
            "session.solution",
            algorithm=self._algorithm.name,
            offered=self._offered,
        ) as span:
            snapshot = self._state.snapshot()
            snapshot.flush()
            try:
                return snapshot.finish(self._stream_seconds, publish=self._publish)
            finally:
                span.set(**snapshot.extraction_counts())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "active" if self.is_active else "warming up"
        return f"StreamingSession({self._algorithm.name}, offered={self._offered}, {state})"


class WindowSession(SessionBase):
    """Session wrapper around a windowed algorithm.

    Drives any algorithm of the windowing layer — the incremental
    :class:`~repro.windowing.sliding.SlidingWindowFDM` or the
    block-summary baseline
    :class:`~repro.windowing.checkpointed.CheckpointedWindowFDM` — which
    are already incremental (``process`` / ``solution``); this wrapper
    gives them the same surface as :class:`StreamingSession` — ``offer`` /
    ``offer_batch`` / ``offer_rows``, RunResult-producing
    :meth:`solution`, and checkpoint/resume — so servers can treat every
    session-capable algorithm uniformly.
    """

    def __init__(self, algorithm: Any, trace: Any = None) -> None:
        super().__init__(trace=trace)
        required_attrs = (
            "process",
            "solution",
            "stored_elements",
            "window",
            "blocks",
            "constraint",
        )
        for required in required_attrs:
            if not hasattr(algorithm, required):
                raise InvalidParameterError(
                    f"WindowSession drives windowed algorithms exposing "
                    f"{'/'.join(required_attrs)}; "
                    f"{type(algorithm).__name__} lacks {required!r}"
                )
        self._algorithm = algorithm
        self._stats = StreamStats()
        #: Distance evaluations spent inside queries so far (lets repeated
        #: queries split stream vs postprocess accounting correctly when
        #: the algorithm's metric is a counting wrapper).
        self._query_calls = 0

    @property
    def algorithm_name(self) -> str:
        """Name of the wrapped algorithm."""
        return getattr(self._algorithm, "name", type(self._algorithm).__name__)

    @property
    def _counting(self):
        """The algorithm's counting metric, or ``None`` if it has none."""
        metric = getattr(self._algorithm, "metric", None)
        return metric if isinstance(metric, CountingMetric) else None

    def _ingest(self, chunk: StreamChunk) -> None:
        obs.event(
            "session.offer", algorithm=self.algorithm_name, count=len(chunk)
        )
        with self._stream_timer.measure():
            self._track_uids(chunk)
            for position in range(len(chunk)):
                self._algorithm.process(chunk.element(position))
                self._stats.elements_processed += 1
                self._stats.record_stored(self._algorithm.stored_elements)

    def solution(self) -> RunResult:
        """The current windowed solution as a RunResult.

        Unlike :class:`StreamingSession` this does not raise when the live
        window cannot satisfy the quotas: the windowed extractor reports
        ``solution=None`` (``succeeded`` is ``False``).  A one-shot
        windowed run (:func:`repro.solve`, the harness) is this session,
        offered the whole stream and queried once, so a window that lacks
        a quota answers ``None`` there too; but when the data as a whole
        cannot meet the quotas, no window can, and the run raises
        :class:`~repro.utils.errors.InfeasibleConstraintError` before
        ingesting anything.
        """
        if self._offered == 0:
            raise EmptyStreamError(
                f"{self.algorithm_name} session received no elements"
            )
        counting = self._counting
        calls_before = counting.calls if counting is not None else 0
        timer = Timer()
        with obs.span(
            "session.solution",
            algorithm=self.algorithm_name,
            offered=self._offered,
        ), timer.measure():
            solution = self._algorithm.solution()
        stats = copy.copy(self._stats)
        stats.extra = dict(self._stats.extra)
        stats.stream_seconds = self._stream_seconds
        stats.postprocess_seconds = timer.elapsed
        if counting is not None:
            query_cost = counting.calls - calls_before
            stats.stream_distance_computations = calls_before - self._query_calls
            stats.postprocess_distance_computations = query_cost
            self._query_calls += query_cost
        self._publish(stats)
        return RunResult(
            algorithm=self.algorithm_name,
            solution=solution,
            stats=stats,
            params={
                "k": self._algorithm.constraint.total_size,
                "window": self._algorithm.window,
                "blocks": self._algorithm.blocks,
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WindowSession({self.algorithm_name}, window={self._algorithm.window}, "
            f"blocks={self._algorithm.blocks}, offered={self._offered})"
        )
