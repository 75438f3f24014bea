"""Shared plumbing for the streaming algorithms.

All three streaming algorithms (Algorithm 1, SFDM1, SFDM2) share the same
skeleton: estimate or accept distance bounds, build the guess ladder,
maintain per-guess candidates while consuming the stream once, then
post-process and select the best candidate.  :class:`StreamingAlgorithm`
hosts the hooks the algorithm classes fill in, so they read close to the
paper's pseudocode, and :class:`IngestState` is the one ingestion engine
behind both the one-shot :meth:`StreamingAlgorithm.run` and the long-lived
sessions of :mod:`repro.api.session`.

The engine applies the paper's stream rule (lines 4–8 of Algorithms 1–3)
chunk-wise: every source is cut into :class:`StreamChunk` objects — a
payload matrix, a group-code array and a way to materialise accepted rows
as elements — and each ``batch_size``-row chunk, aligned to the stream
start, is screened against every guess level at once by a
:class:`ChunkScreen`.  The accepted candidates are exactly those of the
element-at-a-time rule (:meth:`~repro.core.candidate.Candidate.offer`);
only the arithmetic is scheduled differently.
"""

from __future__ import annotations

import copy
import dataclasses
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.candidate import Candidate
from repro.core.guesses import GuessLadder
from repro.core.postprocess import greedy_fair_fill
from repro.core.result import RunResult
from repro.core.solution import FairSolution, Solution
from repro.data.store import ElementStore, store_rows_of
from repro.metrics.base import Metric, join_payloads, stack_payloads, stack_vectors
from repro.metrics.cached import CountingMetric
from repro.metrics.space import payload_distance_bounds
from repro.data.element import Element
from repro.fairness.constraints import FairnessConstraint
from repro.streaming.stats import StreamStats
from repro.streaming.stream import iter_batches
from repro.utils.errors import (
    EmptyStreamError,
    InvalidParameterError,
    NoFeasibleSolutionError,
)
from repro.utils.timer import Timer
from repro.utils.validation import require_in_open_interval

#: The candidate state one run (or one live session) of a streaming
#: algorithm maintains: one group-blind candidate per guess level, plus —
#: for the fair algorithms — one group-specific candidate per (level,
#: group) pair (``None`` for the unconstrained Algorithm 1).
CandidateState = Tuple[List[Candidate], Optional[List[Dict[int, Candidate]]]]

#: Rows per screened chunk when an algorithm's ``batch_size`` is ``None``.
#: 1024 measured 12–20% faster on the default ``solve`` workload; 512 is
#: kept because it halves the chunk-by-union distance matrix (and so peak
#: memory) until the steady-state chunk cost is re-tuned.
DEFAULT_BATCH_SIZE = 512


class StreamChunk:
    """A run of consecutive stream rows, in the form the engine screens.

    Parameters
    ----------
    vectors:
        Payload matrix; row ``i`` is the payload of the chunk's ``i``-th
        row (a 1-D array for scalar payloads, an object array for ragged
        ones).
    codes:
        int64 group label of every row.
    source:
        How an accepted row becomes an :class:`Element`: the offered
        element list itself (accepted elements stay the offered objects), a
        ``(store, rows)`` pair of :class:`ElementStore` rows (accepted rows
        become zero-copy store views), or an int64 uid array for raw offered
        rows (an element is built only for an accepted row).
    """

    __slots__ = ("vectors", "codes", "source")

    def __init__(self, vectors: np.ndarray, codes: np.ndarray, source: Any) -> None:
        self.vectors = vectors
        self.codes = codes
        self.source = source

    @classmethod
    def of_elements(cls, elements: List[Element]) -> "StreamChunk":
        """One stack of an element list (one gather if they are store views)."""
        codes = np.fromiter(
            (element.group for element in elements), dtype=np.int64, count=len(elements)
        )
        return cls(stack_vectors(elements), codes, elements)

    def __len__(self) -> int:
        return self.codes.shape[0]

    def __getitem__(self, window: slice) -> "StreamChunk":
        source = self.source
        if isinstance(source, tuple):
            source = (source[0], source[1][window])
        else:
            source = source[window]
        return StreamChunk(self.vectors[window], self.codes[window], source)

    def element(self, position: int) -> Element:
        """The element of row ``position``."""
        source = self.source
        if isinstance(source, list):
            return source[position]
        if isinstance(source, tuple):
            store, rows = source
            return store.element(rows[position])
        return Element(
            uid=int(source[position]),
            vector=np.array(self.vectors[position]),
            group=int(self.codes[position]),
        )

    @staticmethod
    def join(pieces: List["StreamChunk"]) -> "StreamChunk":
        """The rows of ``pieces`` in order, as one chunk sharing no array with them."""
        sources = [piece.source for piece in pieces]
        if all(isinstance(source, np.ndarray) for source in sources):
            source = np.concatenate(sources)
        else:
            source = [piece.element(i) for piece in pieces for i in range(len(piece))]
        return StreamChunk(
            join_payloads([piece.vectors for piece in pieces]),
            np.concatenate([piece.codes for piece in pieces]),
            source,
        )


def _store_plan(stream: Iterable[Element]) -> Optional[Tuple[ElementStore, Optional[np.ndarray]]]:
    """``(store, order)`` when ``stream`` is store-backed, else ``None``.

    Recognises three columnar sources: a bare :class:`ElementStore`, a
    stream exposing ``store_plan()`` (a store-backed
    :class:`~repro.streaming.stream.DataStream`, which resolves its shuffle
    permutation here), and a concrete sequence whose elements are all views
    of one store.  ``order`` is ``None`` for canonical row order.
    """
    if isinstance(stream, ElementStore):
        return stream, None
    store_plan = getattr(stream, "store_plan", None)
    if store_plan is not None:
        return store_plan()
    if isinstance(stream, (list, tuple)):
        return store_rows_of(stream)
    return None


def stream_chunks(stream: Iterable[Element], size: int) -> Iterator[StreamChunk]:
    """Cut a one-pass source into ``size``-row chunks aligned to its start.

    Store-backed sources yield zero-copy row ranges (one gather per chunk
    under a shuffle); any other iterable — element lists, generators — is
    consumed once, one stack per chunk.
    """
    plan = _store_plan(stream)
    if plan is None:
        for batch in iter_batches(stream, size):
            yield StreamChunk.of_elements(batch)
        return
    store, order = plan
    total = len(store) if order is None else order.shape[0]
    for start in range(0, total, size):
        if order is None:
            window: Any = slice(start, min(start + size, total))
            rows = np.arange(window.start, window.stop, dtype=np.int64)
        else:
            window = rows = order[start : start + size]
        yield StreamChunk(store.features[window], store.groups[window], (store, rows))


class StreamingAlgorithm:
    """Base class holding the pieces common to all streaming FDM algorithms.

    Parameters
    ----------
    metric:
        The distance metric of the underlying metric space.
    epsilon:
        Guess-ladder resolution in ``(0, 1)``.
    distance_bounds:
        Optional ``(d_min, d_max)``.  When omitted, bounds are estimated
        from the first ``warmup_size`` stream elements (which are buffered
        and then processed normally, so the algorithm remains one-pass).
    warmup_size:
        Number of elements buffered for bound estimation when
        ``distance_bounds`` is not supplied.
    batch_size:
        Rows per chunk of the ingestion engine: the stream is cut into
        chunks of this many elements, aligned to the stream start, and every
        guess level screens each chunk with one batched distance
        computation.  ``None`` (default) means :data:`DEFAULT_BATCH_SIZE`.
        The accepted candidates — and therefore the final solution — are
        those of the paper's element-at-a-time rule for every chunk size;
        the size only changes how the arithmetic is scheduled (and the
        counted distance evaluations, since a chunk is screened in full).
        Metrics without vectorized kernels (e.g. custom callables) run the
        same chunks through :class:`~repro.metrics.base.Metric`'s scalar
        loops and are charged the same distance counts.
    """

    #: Overridden by subclasses; used in reports.
    name = "streaming-algorithm"
    #: The fairness constraint of the fair subclasses (``None``: unconstrained).
    constraint: Optional[FairnessConstraint] = None
    #: Whether a greedy fair fill over the stored elements answers when no
    #: guess level does (fair subclasses set it from their option).
    fallback = False

    def __init__(
        self,
        metric: Metric,
        epsilon: float = 0.1,
        distance_bounds: Optional[Tuple[float, float]] = None,
        warmup_size: int = 64,
        batch_size: Optional[int] = None,
    ) -> None:
        self.metric = metric
        self.epsilon = require_in_open_interval(epsilon, 0.0, 1.0, "epsilon")
        if distance_bounds is not None:
            d_min, d_max = distance_bounds
            if not (0 < d_min <= d_max):
                raise InvalidParameterError(
                    f"distance_bounds must satisfy 0 < d_min <= d_max, got {distance_bounds}"
                )
        self.distance_bounds = distance_bounds
        if warmup_size < 2:
            raise InvalidParameterError("warmup_size must be at least 2")
        self.warmup_size = int(warmup_size)
        if batch_size is not None and batch_size < 1:
            raise InvalidParameterError(f"batch_size must be positive, got {batch_size}")
        self.batch_size = None if batch_size is None else int(batch_size)

    # ------------------------------------------------------------------
    # Template run: offer every chunk, flush, extract
    # ------------------------------------------------------------------
    def run(self, stream: Iterable[Element]) -> RunResult:
        """Consume ``stream`` in one pass and return the best solution found.

        The stream is cut into chunks (:func:`stream_chunks`) and offered
        to a fresh :class:`IngestState`, which resolves the distance bounds,
        builds the guess ladder and its candidates
        (:meth:`_make_candidates`) and screens every chunk; the candidates
        are then post-processed into the best solution (:meth:`_extract`).
        Subclasses supply only the candidate layout, an eligibility test
        and a per-guess post-processing (:meth:`_eligible`,
        :meth:`_extract_guess`) plus their parameter/report metadata — the
        same hooks the long-lived session API (:mod:`repro.api.session`)
        drives through the same engine.

        Raises
        ------
        NoFeasibleSolutionError
            If no candidate state admits a (fair) solution.
        """
        with obs.span("run", algorithm=self.name) as run_span:
            state = IngestState(self)
            timer = Timer()
            with timer.measure(), obs.span("ingest", algorithm=self.name):
                for chunk in stream_chunks(stream, state.size):
                    state.offer(chunk)
                state.flush()
            with obs.span("postprocess", algorithm=self.name) as span:
                try:
                    return state.finish(timer.elapsed)
                finally:
                    span.set(**state.extraction_counts())
                    run_span.set(
                        elements=state.stats.elements_processed,
                        distance_evaluations=state.counting.calls,
                        stored=state.stats.final_stored_elements,
                    )

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _make_candidates(self, ladder: GuessLadder, metric: Metric) -> CandidateState:
        """Fresh candidates for every guess level (one run's mutable state)."""
        raise NotImplementedError

    def _eligible(self, blind: Candidate, specific: Optional[Dict[int, Candidate]]) -> bool:
        """Whether one guess level's candidates admit its post-processing."""
        raise NotImplementedError

    def _extract_guess(
        self,
        level: int,
        mu: float,
        blind: Candidate,
        specific: Optional[Dict[int, Candidate]],
        metric: Metric,
    ) -> Optional[Solution]:
        """Post-process one eligible guess level into its solution, or ``None``.

        Reads only that level's candidates, which is what lets
        :meth:`_extract` reuse the answer while their member counts hold.
        """
        raise NotImplementedError

    def _extract(
        self,
        ladder: GuessLadder,
        blind: List[Candidate],
        specific: Optional[List[Dict[int, Candidate]]],
        metric: Metric,
        memo: Optional["ExtractionMemo"] = None,
    ) -> Tuple[Optional[Solution], Dict[str, float]]:
        """Post-process the candidate state into ``(best solution, extra stats)``.

        Every guess level that passes :meth:`_eligible` is post-processed
        by :meth:`_extract_guess`, and the first strictly most diverse
        answer wins; when no level yields one and :attr:`fallback` is set,
        a greedy fair fill over every stored element answers instead.
        ``best`` is ``None`` when no (fair) solution could be built; the
        extra-stats mapping (``eligible_guesses`` for the fair algorithms)
        is merged into ``stats.extra``.

        ``memo`` carries a live state's answers from earlier extractions
        (:class:`ExtractionMemo`): a level whose member counts have not
        moved since it was post-processed reuses its answer and re-charges
        the distance evaluations that took, so the result and every count
        are those of a fresh extraction.  Extraction must not mutate the
        candidates: the session API calls it on live state to answer
        queries mid-stream.
        """
        memo = ExtractionMemo() if memo is None else memo
        memo.reused = memo.extracted = 0
        charge = getattr(metric, "charge", None)
        best: Optional[Solution] = None
        for level, mu in enumerate(ladder):
            group_candidates = None if specific is None else specific[level]
            if not self._eligible(blind[level], group_candidates):
                continue
            counts = (len(blind[level]), *map(len, (group_candidates or {}).values()))
            entry = memo.levels.get(level)
            if entry is not None and entry[0] == counts:
                _, answer, evaluations = entry
                if charge is not None:
                    charge(evaluations)
                memo.reused += 1
            else:
                calls = getattr(metric, "calls", 0)
                answer = self._extract_guess(level, mu, blind[level], group_candidates, metric)
                memo.levels[level] = (counts, answer, getattr(metric, "calls", 0) - calls)
                memo.extracted += 1
            if answer is not None and (best is None or answer.diversity > best.diversity):
                best = answer
        if best is None and self.fallback:
            pool = self._stored_elements(blind, specific)
            with obs.span(f"{self.name.lower()}.fallback_fill", pool=len(pool)):
                filled = greedy_fair_fill(pool, self.constraint, metric)
            solution = FairSolution(filled, metric, self.constraint)
            best = solution if solution.is_fair else None
        if self.constraint is None:
            return best, {}
        return best, {"eligible_guesses": memo.reused + memo.extracted}

    def _infeasible_message(self) -> str:
        """Error message when no feasible solution was found."""
        return (
            f"{self.name} could not build a solution; the stream may not "
            f"contain enough suitable elements"
        )

    def _run_params(self) -> Dict[str, Any]:
        """The parameter mapping recorded in the :class:`RunResult`."""
        return {"epsilon": self.epsilon}

    @staticmethod
    def _stored_elements(
        blind: List[Candidate], specific: Optional[List[Dict[int, Candidate]]]
    ) -> List[Element]:
        """All distinct elements currently held by any candidate."""
        seen: Dict[int, Element] = {}
        for candidate in blind:
            for element in candidate:
                seen.setdefault(element.uid, element)
        if specific is not None:
            for per_group in specific:
                for candidate in per_group.values():
                    for element in candidate:
                        seen.setdefault(element.uid, element)
        return list(seen.values())

    # ------------------------------------------------------------------
    # Helpers shared by subclasses
    # ------------------------------------------------------------------
    def _counting_metric(self) -> CountingMetric:
        """A fresh counting wrapper around the user metric for one run."""
        return CountingMetric(self.metric)

    def _build_ladder(self, bounds: Tuple[float, float]) -> GuessLadder:
        """Guess ladder for the resolved bounds."""
        d_min, d_max = bounds
        return GuessLadder(d_min=d_min, d_max=d_max, epsilon=self.epsilon)


class ExtractionMemo:
    """What one live state's extractions keep for the next.

    Candidates only grow, and their members depend only on the stream
    prefix, so equal member counts mean equal members.  A guess level's
    answer (:attr:`levels`) is therefore keyed on its candidates' member
    counts, and the number of distinct stored elements (:attr:`stored`) on
    the total member count.  An entry stays valid for every extraction over
    the same ladder: later queries of the live state, the forks a snapshot
    makes when a partial chunk is pending, and the same state restored from
    a checkpoint, which saves the memo's entries (:mod:`repro.api.checkpoint`)
    so a resumed session answers warm.
    """

    __slots__ = ("levels", "stored", "reused", "extracted")

    def __init__(self) -> None:
        #: ``level -> (member counts, answer, distance evaluations it took)``.
        self.levels: Dict[int, Tuple[Tuple[int, ...], Optional[Solution], int]] = {}
        #: ``(total members, distinct stored elements)`` of the last count.
        self.stored: Tuple[int, int] = (-1, 0)
        #: Eligible levels the latest extraction reused / post-processed.
        self.reused = 0
        self.extracted = 0


class IngestState:
    """The ingestion engine: one run's, or one live session's, stream state.

    Parameters
    ----------
    algorithm:
        The configured algorithm; it supplies the bounds, warmup and chunk
        settings and the candidate/extraction hooks, and is never mutated.

    Chunks of any size arrive through :meth:`offer` and are screened in
    ``size``-row chunks aligned to the stream start, whatever the offer
    boundaries were, so a session fed row by row ends in exactly the state
    (and distance count) of a one-shot run over the same order:

    * until ``warmup_size`` rows have arrived (and no explicit
      ``distance_bounds`` were given), rows wait in the pending buffer and
      the guess ladder does not exist yet;
    * the bounds are then estimated on the first ``warmup_size`` rows and
      widened by a factor of four on each side (the sample minimum
      overestimates the global ``d_min``, the sample maximum underestimates
      ``d_max``), and the ladder and its candidates are built;
    * from then on every whole chunk is screened as soon as it completes;
      :meth:`flush` screens the trailing partial chunk at the end.

    Screened rows are not retained: between offers the state holds the
    candidates, the pending partial chunk and the counters, so a
    checkpoint stays small.  Two caches ride along: the screens, rebuilt
    on demand and never checkpointed, and the :class:`ExtractionMemo` of
    the queries, which a checkpoint keeps (:mod:`repro.api.checkpoint`).
    """

    def __init__(self, algorithm: StreamingAlgorithm) -> None:
        self.algorithm = algorithm
        self.counting = algorithm._counting_metric()
        self.stats = StreamStats()
        self.size = algorithm.batch_size or DEFAULT_BATCH_SIZE
        self.stats.extra["batch_size"] = float(self.size)
        self.ladder: Optional[GuessLadder] = None
        self.blind: List[Candidate] = []
        self.specific: Optional[List[Dict[int, Candidate]]] = None
        self._pending: Deque[StreamChunk] = deque()
        self._pending_rows = 0
        #: The screens over the candidates; a cache rebuilt on demand, never
        #: checkpointed.
        self._screens: Optional[ChunkScreen] = None
        #: Extraction answers kept across queries (and checkpoints).
        self._memo = ExtractionMemo()
        if algorithm.distance_bounds is not None:
            self._activate(algorithm.distance_bounds)

    @property
    def is_active(self) -> bool:
        """Whether the guess ladder exists yet (warmup complete)."""
        return self.ladder is not None

    def offer(self, chunk: StreamChunk) -> None:
        """Append rows to the stream; screen every chunk they complete."""
        if not len(chunk):
            return
        self._pending.append(chunk)
        self._pending_rows += len(chunk)
        if self.ladder is None:
            if self._pending_rows < self.algorithm.warmup_size:
                return
            self._activate_from_pending()
        self._drain(final=False)

    def flush(self) -> None:
        """End of input: activate if still warming up, screen the partial chunk.

        Raises
        ------
        EmptyStreamError
            If no row was ever offered and no explicit bounds were given.
        """
        if self.ladder is None:
            self._activate_from_pending()
        self._drain(final=True)

    def snapshot(self) -> "IngestState":
        """A copy to answer a query from; flushing and finishing it leave this state as is.

        Extraction only reads the candidates, so the copy shares them (and
        the ladder) with this state.  It gets its own stats, pending-chunk
        deque and counting metric, which starts at the live count.  Only
        when the copy's flush has rows to screen into the candidates — a
        partial chunk is pending — are they forked: member lists and row
        buffers copied, screens charged to the copy's counter.  Before the
        warmup completes there are no candidates yet; the copy's flush
        builds its own, with its own ladder and a memo of its own.  Past
        the warmup the copy extracts through this state's
        :class:`ExtractionMemo`, whose entries hold for both.
        """
        twin = copy.copy(self)
        twin.counting = copy.copy(self.counting)
        twin.stats = dataclasses.replace(self.stats, extra=dict(self.stats.extra))
        twin._pending = deque(self._pending)
        twin._screens = None
        twin._memo = self._memo if self.ladder is not None else ExtractionMemo()
        if self._pending_rows and self.ladder is not None:
            twin.blind = [candidate._fork(twin.counting) for candidate in self.blind]
            if self.specific is not None:
                twin.specific = [
                    {group: candidate._fork(twin.counting) for group, candidate in level.items()}
                    for level in self.specific
                ]
        return twin

    def finish(
        self,
        stream_seconds: float,
        publish: Optional[Callable[[StreamStats], None]] = None,
    ) -> RunResult:
        """Post-process the flushed candidates into the result of the stream.

        Completes (and publishes) the stats first; ``stream_seconds`` is the
        wall-clock the caller spent ingesting.  ``publish`` feeds the
        completed stats to the obs registry; the default is
        :meth:`StreamStats.publish` under the algorithm's name.

        Raises
        ------
        NoFeasibleSolutionError
            If no candidate state admits a (fair) solution.
        """
        stream_calls = self.counting.calls
        timer = Timer()
        with timer.measure():
            best, extract_stats = self.algorithm._extract(
                self.ladder, self.blind, self.specific, self.counting, self._memo
            )
        stats = self.stats
        stats.extra["num_guesses"] = len(self.ladder)
        stats.extra.update(extract_stats)
        stats.stream_seconds = stream_seconds
        stats.postprocess_seconds = timer.elapsed
        stats.stream_distance_computations = stream_calls
        stats.postprocess_distance_computations = self.counting.calls - stream_calls
        stats.record_stored(self._stored_count())
        if publish is None:
            stats.publish(self.algorithm.name)
        else:
            publish(stats)
        if best is None:
            raise NoFeasibleSolutionError(self.algorithm._infeasible_message())
        return RunResult(
            algorithm=self.algorithm.name,
            solution=best,
            stats=self.stats,
            params=self.algorithm._run_params(),
        )

    def extraction_counts(self) -> Dict[str, int]:
        """Eligible guess levels the last :meth:`finish` reused and post-processed."""
        return {"levels_reused": self._memo.reused, "levels_extracted": self._memo.extracted}

    # ------------------------------------------------------------------
    def _stored_count(self) -> int:
        """Distinct elements held by any candidate; counted again only after an accept."""
        total = sum(map(len, self.blind)) + sum(
            len(candidate) for level in self.specific or () for candidate in level.values()
        )
        if self._memo.stored[0] != total:
            stored = self.algorithm._stored_elements(self.blind, self.specific)
            self._memo.stored = (total, len(stored))
        return self._memo.stored[1]

    def _activate(self, bounds: Tuple[float, float]) -> None:
        """Build the guess ladder and its candidates for ``bounds``."""
        self.ladder = self.algorithm._build_ladder(bounds)
        self.blind, self.specific = self.algorithm._make_candidates(self.ladder, self.counting)

    def _activate_from_pending(self) -> None:
        """Estimate the bounds on the first ``warmup_size`` pending rows."""
        if not self._pending_rows:
            raise EmptyStreamError(f"{self.algorithm.name} received an empty stream")
        if self._pending_rows == 1:
            # A single element: any positive bounds work, the ladder is trivial.
            self._activate((1.0, 1.0))
            return
        count = min(self.algorithm.warmup_size, self._pending_rows)
        pieces, rows = [], 0
        for piece in self._pending:
            pieces.append(piece.vectors)
            rows += len(piece)
            if rows >= count:
                break
        warmup = join_payloads(pieces)[:count]
        d_min, d_max = payload_distance_bounds(warmup, self.counting)
        self._activate((d_min / 4.0, d_max * 4.0))

    def _drain(self, final: bool) -> None:
        """Screen every whole pending chunk (and, when ``final``, the rest)."""
        screened = False
        while self._pending_rows >= self.size or (final and self._pending_rows):
            self._screen(self._take(min(self.size, self._pending_rows)))
            screened = True
        if screened and self._pending:
            # The remainder may be a view into an offer whose head was just
            # screened; copy it so no screened row stays referenced.
            self._pending[0] = StreamChunk.join([self._pending[0]])

    def _take(self, count: int) -> StreamChunk:
        """Remove the first ``count`` pending rows, as one chunk."""
        self._pending_rows -= count
        pieces = []
        while count:
            first = self._pending[0]
            if len(first) <= count:
                pieces.append(self._pending.popleft())
                count -= len(first)
            else:
                pieces.append(first[:count])
                self._pending[0] = first[count:]
                count = 0
        return pieces[0] if len(pieces) == 1 else StreamChunk.join(pieces)

    def _screen(self, chunk: StreamChunk) -> None:
        """Screen one aligned chunk through every non-full candidate."""
        start = self.stats.elements_processed
        self.stats.elements_processed += len(chunk)
        if self._screens is None:
            self._screens = ChunkScreen(self.blind, self.specific)
        if self._screens.exhausted:
            return
        with obs.span("ingest.chunk", start=start, size=len(chunk)) as span:
            rechecked, exact, heads = self._screens.screen(self.counting, chunk)
            span.set(rechecked=rechecked, exact=exact, heads=heads)


class ChunkScreen:
    """The screen layout over one candidate state.

    Parameters
    ----------
    blind:
        The group-blind candidates, one per guess level.
    specific:
        Optional group-specific candidates, one ``{group: candidate}``
        mapping per guess level (the layout of :data:`CandidateState`).

    One :class:`_UnionScreen` covers the group-blind candidates and one per
    group covers that group's candidates across all levels; a group screen
    sees only the chunk rows of its group.  Groups can also be added as
    they first appear (:meth:`add_group`), which is how the shard
    summarizer builds its per-group candidates lazily.
    """

    __slots__ = ("_blind", "_groups")

    def __init__(
        self,
        blind: List[Candidate],
        specific: Optional[List[Dict[int, Candidate]]] = None,
    ) -> None:
        self._blind = _UnionScreen(blind)
        by_group: Dict[int, List[Candidate]] = {}
        for per_group in specific or ():
            for group, candidate in per_group.items():
                by_group.setdefault(group, []).append(candidate)
        self._groups = {group: _UnionScreen(levels) for group, levels in by_group.items()}

    def add_group(self, group: int, candidates: List[Candidate]) -> None:
        """Screen the rows of ``group`` through ``candidates`` from now on."""
        self._groups[group] = _UnionScreen(candidates)

    @property
    def exhausted(self) -> bool:
        """Whether every candidate has reached capacity."""
        return self._blind.exhausted and all(s.exhausted for s in self._groups.values())

    def screen(self, metric: Metric, chunk: StreamChunk) -> Tuple[int, bool, int]:
        """Screen one chunk through every non-full candidate.

        An accepted row is materialised once, however many levels accept
        it, so every candidate holding it holds the same element object.
        Returns ``(rechecked, exact, heads)`` over the chunk's union
        screens: the rows their exact rechecks decided, summed; whether any
        of them decided the chunk on the exact distance matrix; and the
        head rows their resolves evaluated, summed.
        """
        made: Dict[int, Element] = {}

        def element_at(position: int) -> Element:
            """The element of chunk row ``position``, materialised once."""
            element = made.get(position)
            if element is None:
                element = made[position] = chunk.element(position)
            return element

        rechecked, exact, heads = 0, False, 0
        if not self._blind.exhausted:
            rechecked, exact, heads = self._blind.process(metric, chunk.vectors, element_at)
        for group, screen in self._groups.items():
            if screen.exhausted:
                continue
            positions = np.nonzero(chunk.codes == group)[0]
            if positions.size:
                rows, whole, evaluated = screen.process(
                    metric, chunk.vectors[positions], lambda i: element_at(int(positions[i]))
                )
                rechecked += rows
                exact |= whole
                heads += evaluated
        return rechecked, exact, heads


class _UnionScreen:
    """Memoised multi-candidate screen over one chunk of payload rows.

    Screens every chunk against each candidate's *pre-chunk* members —
    exactly what a separate screen per candidate would use, since a
    candidate's screen never depends on another candidate's members.
    Adjacent guess levels store heavily overlapping member sets (the union
    of all members is ~3x smaller than their per-level sum), so the chunk
    is screened against the **union** of the members once, through the
    metric's radius screen, and each level's decision is read from the
    shared columns — decisions equal to the exact kernel's
    ``pairwise(chunk, union)[:, columns].min(axis=1) >= µ`` for every
    level.

    The memoisation changes the arithmetic schedule, not the algorithm:
    every level's screen is still *charged* in full (``chunk × members``
    through :meth:`~repro.metrics.cached.CountingMetric.charge`), so
    distance accounting equals one screen per candidate.

    The union (a payload matrix stacked from the members' own rows, plus
    per-candidate column lists and whatever the metric's screen reuses of
    it) only changes when some candidate accepts an element or reaches
    capacity, both of which are rare after the warm-up chunks; it is
    cached between chunks and rebuilt only when the ``(candidate count,
    total members)`` version moves — accepts strictly grow the member total
    and prunes strictly shrink the candidate count, so the version is
    change-exact.  Members are keyed by object identity, so two distinct
    elements never share a column even if their uids clash.  A screen
    serves one metric: what that metric's screen reuses of the union is
    built with it.
    """

    __slots__ = (
        "candidates",
        "_version",
        "_union",
        "_prepared",
        "_level_of",
        "_levels",
        "_total_members",
    )

    def __init__(self, candidates: List[Candidate]) -> None:
        self.candidates = [candidate for candidate in candidates if not candidate.is_full]
        self._version: Optional[Tuple[int, int]] = None
        self._union: Optional[np.ndarray] = None
        self._prepared: Any = None
        #: Each candidate's row in the screen (``None``: no members yet).
        self._level_of: List[Optional[int]] = []
        #: ``(columns, mus)`` of the candidates with members, as
        #: :meth:`~repro.metrics.base.Metric._radius_screen` reads them.
        self._levels: Tuple[List[np.ndarray], np.ndarray] = ([], np.empty(0))
        self._total_members = 0

    @property
    def exhausted(self) -> bool:
        """Whether every candidate has reached capacity."""
        return not self.candidates

    def _rebuild(self, metric: Metric) -> None:
        """Recompute the union for the current member sets."""
        column_of: Dict[int, int] = {}
        payloads: List[Any] = []
        level_of: List[Optional[int]] = []
        member_columns: List[np.ndarray] = []
        mus: List[float] = []
        total_members = 0
        for candidate in self.candidates:
            members = candidate._elements
            if not members:
                level_of.append(None)
                continue
            level_of.append(len(member_columns))
            mus.append(candidate.mu)
            total_members += len(members)
            matrix = candidate.member_matrix()
            columns = np.empty(len(members), dtype=np.intp)
            for position, member in enumerate(members):
                column = column_of.setdefault(id(member), len(payloads))
                if column == len(payloads):
                    payloads.append(matrix[position])
                columns[position] = column
            member_columns.append(columns)
        self._union = stack_payloads(payloads) if payloads else None
        self._prepared = None if self._union is None else metric._screen_union(self._union)
        self._level_of = level_of
        self._levels = (member_columns, np.array(mus, dtype=float))
        self._total_members = total_members

    def process(
        self,
        metric: Metric,
        vectors: np.ndarray,
        element_at: Callable[[int], Element],
    ) -> Tuple[int, bool, int]:
        """Screen one chunk and resolve each candidate's survivors.

        ``element_at(i)`` materialises the element of chunk row ``i``; it
        is called only for accepted rows.  The candidates' resolves read
        their distances off one :class:`_HeadRows` table of the chunk.
        Returns ``(rechecked, exact, heads)``: the rows the radius screen's
        exact recheck decided, whether the screen decided the chunk on the
        exact distance matrix, and the head rows the resolves evaluated.
        """
        version = (len(self.candidates), sum(len(c) for c in self.candidates))
        if version != self._version:
            self._rebuild(metric)
            self._version = version
        rechecked, exact = 0, False
        if self._union is not None:
            survives, rechecked, exact = metric._radius_screen(
                vectors, self._union, self._prepared, *self._levels
            )
            # The screen counted each union member once; charge the shared
            # columns again so every level's screen is billed in full.
            charge = getattr(metric, "charge", None)
            if charge is not None:
                charge(len(vectors) * (self._total_members - len(self._union)))
            hits = survives.any(axis=1).tolist()
        heads = _HeadRows(metric, vectors)
        filled = False
        for candidate, level in zip(self.candidates, self._level_of):
            if level is None:
                survivors = np.arange(len(vectors))
            elif hits[level]:
                survivors = np.nonzero(survives[level])[0]
            else:
                continue
            candidate._resolve_survivors(vectors, survivors, element_at, heads)
            filled |= candidate.is_full
        if filled:
            self.candidates = [c for c in self.candidates if not c.is_full]
        return rechecked, exact, len(heads)


class _HeadRows:
    """One chunk's resolve distances, each (head, row) pair evaluated once.

    Every chunk row that heads a resolve round gets one distance row over
    the chunk, filled on demand: a round reads its alive rows' entries and
    evaluates only those no earlier round with the same head needed.  The
    guess levels of a chunk share most heads — every empty level of a first
    chunk starts at row 0 — so they share the arithmetic.  Entries come from
    :meth:`~repro.metrics.base.Metric._head_distances`, whose entries depend
    on their own row only, so a round reads exactly what its own kernel call
    would return, and no round evaluates more than its alive rows.  Every
    head is a row some level accepts, so the table holds at most one
    chunk-long row per distinct row the chunk adds to the candidates.
    """

    __slots__ = ("_metric", "_vectors", "_rows")

    def __init__(self, metric: Metric, vectors: np.ndarray) -> None:
        self._metric = metric
        self._vectors = vectors
        self._rows: Dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        """The head rows evaluated so far."""
        return len(self._rows)

    def __call__(self, head: int, alive: np.ndarray) -> np.ndarray:
        """Distances from chunk row ``head`` to the chunk rows ``alive``."""
        row = self._rows.get(head)
        if row is None:
            # A negative entry is one not evaluated yet (distances are not
            # negative; one that is would just be evaluated again).
            row = self._rows[head] = np.full(len(self._vectors), -1.0)
        distances = row[alive]
        missing = distances < 0.0
        if np.count_nonzero(missing):
            rows = alive[missing]
            fresh = self._metric._head_distances(self._vectors[head], self._vectors[rows])
            row[rows] = distances[missing] = fresh
        return distances
