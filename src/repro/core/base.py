"""Shared plumbing for the streaming algorithms.

All three streaming algorithms (Algorithm 1, SFDM1, SFDM2) share the same
skeleton: estimate or accept distance bounds, build the guess ladder,
maintain per-guess candidates while consuming the stream once, then
post-process and select the best candidate.  :class:`StreamingAlgorithm`
hosts the common pieces (bounds handling, counting metric, stats plumbing,
and the element-at-a-time vs. batched stream ingestion) so the algorithm
classes read close to the paper's pseudocode.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.candidate import Candidate
from repro.core.guesses import GuessLadder
from repro.core.result import RunResult
from repro.core.solution import Solution
from repro.data.store import ElementStore, store_rows_of
from repro.metrics.base import Metric
from repro.metrics.cached import CountingMetric
from repro.metrics.space import exact_distance_bounds
from repro.data.element import Element
from repro.streaming.stats import StreamStats
from repro.streaming.stream import iter_batches
from repro.utils.errors import (
    EmptyStreamError,
    InvalidParameterError,
    NoFeasibleSolutionError,
)
from repro.utils.timer import StageTimer
from repro.utils.validation import require_in_open_interval

#: The candidate state one run (or one live session) of a streaming
#: algorithm maintains: one group-blind candidate per guess level, plus —
#: for the fair algorithms — one group-specific candidate per (level,
#: group) pair (``None`` for the unconstrained Algorithm 1).
CandidateState = Tuple[List[Candidate], Optional[List[Dict[int, Candidate]]]]


class IngestPlan:
    """A resolved one-pass element source, columnar when possible.

    Produced by :meth:`StreamingAlgorithm._resolve_bounds` and consumed by
    :meth:`StreamingAlgorithm._ingest`.  Exactly one of two shapes:

    * **store-backed** — ``store`` is an :class:`ElementStore` and
      ``order`` the row iteration order (``None`` for canonical order);
      the batched ingestion then runs on store row-ranges with no
      per-element Python work;
    * **object-backed** — ``store`` is ``None`` and the source is the
      buffered warmup ``prefix`` chained with the ``rest`` iterator, as in
      the original object path.
    """

    __slots__ = ("store", "order", "prefix", "rest")

    def __init__(
        self,
        store: Optional[ElementStore] = None,
        order: Optional[np.ndarray] = None,
        prefix: Optional[List[Element]] = None,
        rest: Optional[Iterator[Element]] = None,
    ) -> None:
        self.store = store
        self.order = order
        self.prefix = prefix if prefix is not None else []
        self.rest = rest if rest is not None else iter(())

    def __len__(self) -> int:
        if self.store is None:
            raise TypeError("object-backed ingest plans have no known length")
        return len(self.store) if self.order is None else int(self.order.shape[0])

    def row(self, position: int) -> int:
        """Absolute store row at iteration ``position`` (store-backed only)."""
        return position if self.order is None else int(self.order[position])

    def elements(self) -> Iterator[Element]:
        """The one-pass element sequence, whichever shape the plan has."""
        if self.store is not None:
            return self.store.iter_elements(self.order)
        return StreamingAlgorithm._chain(self.prefix, self.rest)


def _plan_for_stream(stream: Iterable[Element]) -> Optional[IngestPlan]:
    """A store-backed :class:`IngestPlan` for ``stream``, or ``None``.

    Recognises three columnar sources: a bare :class:`ElementStore`, a
    stream exposing ``store_plan()`` (a store-backed
    :class:`~repro.streaming.stream.DataStream`, which resolves its shuffle
    permutation here), and a concrete sequence whose elements are all views
    of one store.  Generators and object-element sequences fall through to
    the object path.
    """
    if isinstance(stream, ElementStore):
        return IngestPlan(store=stream)
    store_plan = getattr(stream, "store_plan", None)
    if store_plan is not None:
        resolved = store_plan()
        if resolved is not None:
            store, order = resolved
            return IngestPlan(store=store, order=order)
        return None
    if isinstance(stream, (list, tuple)):
        backing = store_rows_of(stream)
        if backing is not None:
            store, rows = backing
            return IngestPlan(store=store, order=rows)
    return None


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
        When set (and the metric has vectorized kernels), the stream is
        consumed in chunks of this many elements and every guess level
        screens each chunk with one batched min-distance computation
        instead of per-element Python loops.  ``None`` (default) keeps the
        paper's element-at-a-time updates.  The accepted candidates — and
        therefore the final solution — are the same in both modes; batching
        only changes how the arithmetic is scheduled.  Metrics without
        vectorized kernels (e.g. custom callables) silently fall back to
        the scalar path.
    """

    #: Overridden by subclasses; used in reports.
    name = "streaming-algorithm"

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
    # Template run: resolve bounds, build candidates, ingest, extract
    # ------------------------------------------------------------------
    def run(self, stream: Iterable[Element]) -> RunResult:
        """Consume ``stream`` in one pass and return the best solution found.

        The skeleton is shared by every streaming algorithm: resolve the
        distance bounds (buffering a warmup prefix when they are not
        given), build the guess ladder and its candidates
        (:meth:`_make_candidates`), feed the stream through the ingestion
        engine, and post-process the candidates into the best solution
        (:meth:`_extract`).  Subclasses supply only the two hooks plus
        their parameter/report metadata — the same hooks the long-lived
        session API (:mod:`repro.api.session`) drives incrementally.

        Raises
        ------
        NoFeasibleSolutionError
            If no candidate state admits a (fair) solution.
        """
        with obs.span("run", algorithm=self.name) as run_span:
            counting = self._counting_metric()
            stats, stages = self._new_stats()
            with stages.stage("stream"), obs.span("ingest", algorithm=self.name):
                bounds, plan = self._resolve_bounds(stream, counting)
                ladder = self._build_ladder(bounds)
                blind, specific = self._make_candidates(ladder, counting)
                self._ingest(plan, blind, specific, stats, counting)
            stream_calls = counting.calls

            with stages.stage("postprocess"), obs.span("postprocess", algorithm=self.name):
                best, extract_stats = self._extract(ladder, blind, specific, counting)

            stored = len(self._stored_elements(blind, specific))
            stats.extra["num_guesses"] = len(ladder)
            stats.extra.update(extract_stats)
            self._finalize_stats(stats, stages, counting, stream_calls, stored)
            stats.publish(self.name)
            run_span.set(
                elements=stats.elements_processed,
                distance_evaluations=counting.calls,
                stored=stored,
            )

            if best is None:
                raise NoFeasibleSolutionError(self._infeasible_message())
            return RunResult(
                algorithm=self.name,
                solution=best,
                stats=stats,
                params=self._run_params(),
            )

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _make_candidates(self, ladder: GuessLadder, metric: Metric) -> CandidateState:
        """Fresh candidates for every guess level (one run's mutable state)."""
        raise NotImplementedError

    def _extract(
        self,
        ladder: GuessLadder,
        blind: List[Candidate],
        specific: Optional[List[Dict[int, Candidate]]],
        metric: Metric,
    ) -> Tuple[Optional[Solution], Dict[str, float]]:
        """Post-process the candidate state into ``(best solution, extra stats)``.

        ``best`` is ``None`` when no (fair) solution could be built; the
        extra-stats mapping is merged into ``stats.extra``.  Extraction
        must not mutate the candidates: the session API calls it on live
        state to answer queries mid-stream.
        """
        raise NotImplementedError

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

    def _resolve_bounds(
        self, stream: Iterable[Element], metric: Metric
    ) -> Tuple[Tuple[float, float], IngestPlan]:
        """Return ``(bounds, ingest_plan)`` for ``stream``.

        Columnar sources (see :func:`_plan_for_stream`) resolve to a
        store-backed plan whose warmup prefix is sliced from the store in
        iteration order; other sources buffer the first ``warmup_size``
        elements off the iterator exactly as before.  Either way every
        element is still processed exactly once, the bound estimate is
        computed on the same warmup elements, and explicit
        ``distance_bounds`` skip the warmup entirely.
        """
        plan = _plan_for_stream(stream)
        if plan is not None:
            total = len(plan)
            if self.distance_bounds is not None:
                return self.distance_bounds, plan
            if total == 0:
                raise EmptyStreamError(f"{self.name} received an empty stream")
            if total == 1:
                # A single element: any positive bounds work, the ladder is trivial.
                return (1.0, 1.0), plan
            warmup = [
                plan.store.element(plan.row(position))
                for position in range(min(self.warmup_size, total))
            ]
            d_min, d_max = exact_distance_bounds(warmup, metric)
            return (d_min / 4.0, d_max * 4.0), plan

        iterator = iter(stream)
        if self.distance_bounds is not None:
            return self.distance_bounds, IngestPlan(rest=iterator)
        buffered: List[Element] = []
        for element in iterator:
            buffered.append(element)
            if len(buffered) >= self.warmup_size:
                break
        if not buffered:
            raise EmptyStreamError(f"{self.name} received an empty stream")
        if len(buffered) == 1:
            # A single element: any positive bounds work, the ladder is trivial.
            return (1.0, 1.0), IngestPlan(prefix=buffered, rest=iterator)
        d_min, d_max = exact_distance_bounds(buffered, metric)
        # Widen the estimate: the sample minimum overestimates the global
        # d_min and the sample maximum underestimates the global d_max.
        return (d_min / 4.0, d_max * 4.0), IngestPlan(prefix=buffered, rest=iterator)

    def _build_ladder(self, bounds: Tuple[float, float]) -> GuessLadder:
        """Guess ladder for the resolved bounds."""
        d_min, d_max = bounds
        return GuessLadder(d_min=d_min, d_max=d_max, epsilon=self.epsilon)

    @staticmethod
    def _chain(prefix: List[Element], rest: Iterator[Element]) -> Iterator[Element]:
        """Iterate the buffered prefix and then the remaining stream."""
        for element in prefix:
            yield element
        for element in rest:
            yield element

    # ------------------------------------------------------------------
    # Stream ingestion (element-at-a-time or batched)
    # ------------------------------------------------------------------
    def _ingest(
        self,
        plan: IngestPlan,
        blind: List[Candidate],
        specific: Optional[List[Dict[int, Candidate]]],
        stats: StreamStats,
        metric: Metric,
    ) -> None:
        """Feed the stream into every guess level's candidates.

        Parameters
        ----------
        plan:
            The resolved one-pass source from :meth:`_resolve_bounds`.
        blind:
            One group-blind candidate per guess level.
        specific:
            Per-level mapping from group label to the group-specific
            candidate, or ``None`` for the unconstrained Algorithm 1.
        stats:
            Run statistics; ``elements_processed`` is advanced here.
        metric:
            The (counting) metric — consulted for batch-kernel support.

        Dispatches to the columnar row-range path for store-backed plans in
        batch mode, to the object batch path for object-backed plans in
        batch mode, and to the scalar path otherwise.  All paths produce
        identical candidate contents (and charge identical distance
        counts) because candidates are mutually independent and each one
        sees the elements in stream order.
        """
        size = self.batch_size
        batched = size is not None and size > 1 and metric.supports_batch
        if batched:
            stats.extra["batch_size"] = float(size)
        if plan.store is not None and batched:
            self._ingest_store(plan, blind, specific, stats, metric, size)
        elif batched:
            self._ingest_batches(plan.elements(), blind, specific, stats, size)
        else:
            self._ingest_elements(plan.elements(), blind, specific, stats)

    @staticmethod
    def _ingest_elements(
        elements: Iterable[Element],
        blind: List[Candidate],
        specific: Optional[List[Dict[int, Candidate]]],
        stats: StreamStats,
    ) -> None:
        """The paper's element-at-a-time update loop (lines 4–8)."""
        levels = len(blind)
        for element in elements:
            stats.elements_processed += 1
            for index in range(levels):
                blind[index].offer(element)
                if specific is not None:
                    candidate = specific[index].get(element.group)
                    if candidate is not None:
                        candidate.offer(element)

    def _ingest_batches(
        self,
        elements: Iterable[Element],
        blind: List[Candidate],
        specific: Optional[List[Dict[int, Candidate]]],
        stats: StreamStats,
        size: int,
    ) -> None:
        """Vectorized update loop: one batched screen per chunk and guess level.

        Each chunk's payloads are stacked once (and pre-split by group once,
        for the group-specific candidates) so the per-level work reduces to
        a handful of NumPy kernel calls on the already-stacked matrices.
        """
        levels = len(blind)
        for chunk in iter_batches(elements, size):
            stats.elements_processed += len(chunk)
            with obs.span("ingest.chunk", size=len(chunk)):
                self._offer_chunk(chunk, blind, specific, levels)

    @staticmethod
    def _offer_chunk(
        chunk: List[Element],
        blind: List[Candidate],
        specific: Optional[List[Dict[int, Candidate]]],
        levels: int,
    ) -> None:
        """Offer one object-path chunk to every guess level's candidates."""
        vectors = np.asarray([element.vector for element in chunk])
        by_group: Dict[int, Tuple[List[Element], np.ndarray]] = {}
        if specific is not None:
            indices_by_group: Dict[int, List[int]] = {}
            for i, element in enumerate(chunk):
                indices_by_group.setdefault(element.group, []).append(i)
            by_group = {
                group: ([chunk[i] for i in indices], vectors[indices])
                for group, indices in indices_by_group.items()
            }
        for index in range(levels):
            blind[index].offer_batch(chunk, vectors)
            if specific is not None:
                per_group = specific[index]
                for group, (sub_elements, sub_vectors) in by_group.items():
                    candidate = per_group.get(group)
                    if candidate is not None:
                        candidate.offer_batch(sub_elements, sub_vectors)

    def _ingest_store(
        self,
        plan: IngestPlan,
        blind: List[Candidate],
        specific: Optional[List[Dict[int, Candidate]]],
        stats: StreamStats,
        metric: Metric,
        size: int,
    ) -> None:
        """Columnar update loop: store row-ranges, no per-element Python work.

        Mirrors :meth:`_ingest_batches` decision-for-decision (same chunk
        boundaries, same per-candidate screens, same in-chunk resolution —
        so identical candidates and identical distance counts) while
        removing everything the object path pays per element or per guess
        level:

        * chunks are contiguous feature-matrix slices (zero-copy in
          canonical order, one vectorized gather per chunk under a shuffle
          permutation);
        * group splitting is a mask over the ``groups`` column computed
          once per chunk;
        * the per-level member screens are collapsed into one memoised
          union screen per chunk (see :class:`_UnionScreen`);
        * candidates that have reached capacity are dropped from the loop
          instead of being re-offered a chunk they must refuse.
        """
        store, order = plan.store, plan.order
        features, group_column = store.features, store.groups
        total = len(plan)
        blind_screen = _UnionScreen(
            [candidate for candidate in blind if not candidate.is_full]
        )
        group_screens: Dict[int, _UnionScreen] = {}
        if specific is not None:
            by_group: Dict[int, List[Candidate]] = {}
            for per_group in specific:
                for group, candidate in per_group.items():
                    if not candidate.is_full:
                        by_group.setdefault(group, []).append(candidate)
            group_screens = {
                group: _UnionScreen(candidates)
                for group, candidates in by_group.items()
            }
        for start in range(0, total, size):
            stop = min(start + size, total)
            stats.elements_processed += stop - start
            if blind_screen.exhausted and not group_screens:
                continue
            with obs.span("ingest.chunk", start=start, size=stop - start):
                if order is None:
                    rows = np.arange(start, stop, dtype=np.int64)
                    vectors = features[start:stop]
                    codes = group_column[start:stop]
                else:
                    rows = order[start:stop]
                    vectors = features[rows]
                    codes = group_column[rows]

                if not blind_screen.exhausted:
                    blind_screen.process(metric, store, rows, vectors)
                if group_screens:
                    drained = []
                    for group, screen in group_screens.items():
                        member_positions = np.nonzero(codes == group)[0]
                        if member_positions.size == 0:
                            continue
                        screen.process(
                            metric,
                            store,
                            rows[member_positions],
                            vectors[member_positions],
                        )
                        if screen.exhausted:
                            drained.append(group)
                    for group in drained:
                        del group_screens[group]

    @staticmethod
    def _new_stats() -> Tuple[StreamStats, StageTimer]:
        """Fresh stats object and stage timer for one run."""
        return StreamStats(), StageTimer()

    @staticmethod
    def _finalize_stats(
        stats: StreamStats,
        stages: StageTimer,
        counting: CountingMetric,
        stream_calls: int,
        stored_elements: int,
    ) -> None:
        """Copy timer and counter values into ``stats`` after a run."""
        stats.stream_seconds = stages.elapsed("stream")
        stats.postprocess_seconds = stages.elapsed("postprocess")
        stats.stream_distance_computations = stream_calls
        stats.postprocess_distance_computations = counting.calls - stream_calls
        stats.record_stored(stored_elements)


class _UnionScreen:
    """Memoised multi-candidate screen over one chunk of store rows.

    Screens every chunk against each candidate's *pre-chunk* members —
    exactly what per-candidate ``offer_batch`` calls would use, since a
    candidate's screen never depends on another candidate's members.
    Adjacent guess levels store heavily overlapping member sets (the union
    of all members is ~3x smaller than their per-level sum), so the chunk
    is evaluated against the **union** of the members once and each level's
    row minima are reduced from the shared distance columns — the same
    exact per-pair values a per-level ``pairwise`` would produce, hence
    bitwise-identical decisions.

    The memoisation changes the arithmetic schedule, not the algorithm:
    every level's screen is still *charged* in full (``chunk × members``
    through :meth:`~repro.metrics.cached.CountingMetric.charge`), so
    distance accounting stays identical with the object batch path.

    The union layout (member row indices and per-candidate column lists)
    only changes when some candidate accepts an element or reaches
    capacity, both of which are rare after the warm-up chunks; the layout
    is cached between chunks and rebuilt only when the
    ``(candidate count, total members)`` version moves — accepts strictly
    grow the member total and prunes strictly shrink the candidate count,
    so the version is change-exact.
    """

    __slots__ = (
        "candidates",
        "_version",
        "_union_rows",
        "_member_columns",
        "_total_members",
    )

    def __init__(self, candidates: List[Candidate]) -> None:
        self.candidates = candidates
        self._version: Optional[Tuple[int, int]] = None
        self._union_rows: Optional[np.ndarray] = None
        self._member_columns: List[Optional[np.ndarray]] = []
        self._total_members = 0

    @property
    def exhausted(self) -> bool:
        """Whether every candidate has reached capacity."""
        return not self.candidates

    def _rebuild(self) -> None:
        """Recompute the union layout for the current member sets."""
        column_of: Dict[int, int] = {}
        union_rows: List[int] = []
        member_columns: List[Optional[np.ndarray]] = []
        total_members = 0
        for candidate in self.candidates:
            members = candidate._elements
            if not members:
                member_columns.append(None)
                continue
            total_members += len(members)
            columns = np.empty(len(members), dtype=np.intp)
            for position, member in enumerate(members):
                column = column_of.get(member.uid)
                if column is None:
                    column = len(union_rows)
                    column_of[member.uid] = column
                    union_rows.append(member.row)
                columns[position] = column
            member_columns.append(columns)
        self._union_rows = (
            np.asarray(union_rows, dtype=np.int64) if union_rows else None
        )
        self._member_columns = member_columns
        self._total_members = total_members

    def process(
        self,
        metric: Metric,
        store: ElementStore,
        rows: np.ndarray,
        vectors: np.ndarray,
    ) -> None:
        """Screen one chunk and resolve each candidate's survivors."""
        version = (len(self.candidates), sum(len(c) for c in self.candidates))
        if version != self._version:
            self._rebuild()
            self._version = version
        distances: Optional[np.ndarray] = None
        if self._union_rows is not None:
            distances = metric.pairwise(vectors, store.features[self._union_rows])
            # ``pairwise`` counted each union member once; charge the shared
            # columns again so every level's screen is billed in full.
            charge = getattr(metric, "charge", None)
            if charge is not None:
                charge(
                    vectors.shape[0]
                    * (self._total_members - self._union_rows.shape[0])
                )
        filled = False
        for candidate, columns in zip(self.candidates, self._member_columns):
            if columns is None:
                survivors = np.arange(rows.size)
            else:
                if columns.shape[0] == 1:
                    level_min = distances[:, columns[0]]
                else:
                    level_min = distances[:, columns].min(axis=1)
                survivors = np.nonzero(level_min >= candidate.mu)[0]
            if survivors.size:
                candidate.resolve_rows(store, rows, vectors, survivors)
                filled |= candidate.is_full
        if filled:
            self.candidates = [c for c in self.candidates if not c.is_full]
