"""Incremental sliding-window fair diversity maximization.

:class:`SlidingWindowFDM` maintains a fair, diverse subset over the most
recent ``window`` elements of an (unbounded) stream — the paper's named
future-work direction — with memory far below the window size, *exact*
element-level eviction, and constant-size query pools.

The stream is cut into blocks of ``window // blocks`` elements.  Sealing a
block computes one composable per-group GMM coreset of it
(:func:`~repro.core.coreset.gmm_coreset`, riding the columnar
:class:`~repro.data.store.ElementStore` row paths when the payloads are
columnar) and folds that block summary into a single **active summary** —
an incrementally-composed coreset of every wholly-live block.  When the
window slides past a block's start, the block is *retired*: its summary is
dropped and the active summary is recomposed from the surviving block
summaries (amortised one extra reduction per block, never a recomputation
over window contents).  This replaces the query-time work of the
block-granular baseline :class:`~repro.windowing.checkpointed
.CheckpointedWindowFDM`, whose pool unions every block summary on each
query and keeps expired elements for up to a full block.

At query time the candidate pool is the active summary plus the raw
in-progress block.  Every pool element belongs to a block whose start is
at or after the window start — so **no expired element can ever appear in
a returned solution**, a property the windowing test suite pins.  The
price is coverage: retirement drops a partially-live block wholesale, so
up to ``window // blocks - 1`` of the very oldest live elements are not in
the pool (shrinking with more blocks; at least two blocks are required,
because with a single block retirement would empty the pool right after
every boundary), and the summaries are composed coresets, so the max-min
diversity of the extracted solution tracks an offline extraction over the
exact window contents within the documented :data:`APPROXIMATION_FACTOR`
envelope rather than exactly.

Memory is ``O(blocks · m · k)`` summary elements plus one raw block; the
per-element work is amortised O(1) coreset reductions per block, and
queries touch only the ``O(m · k + window/blocks)``-element pool.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Sequence

from repro import obs
from repro.core.coreset import gmm_coreset
from repro.data.element import Element
from repro.data.store import ElementStore
from repro.windowing.base import WindowedAlgorithm

#: Documented quality envelope: the windowed solution's diversity stays
#: within this factor of an offline greedy extraction over the exact live
#: window contents (same machinery, full information).  The constant
#: borrows the parallel layer's factor-3 single-level composable-coreset
#: envelope; the active summary nests reductions (coreset-of-coresets, up
#: to ``blocks`` levels between retirements), for which no single-level
#: theoretical bound carries over, so this envelope is **empirical** —
#: pinned by the windowing property tests and the windowing benchmark on
#: fixed seeds/configurations (worst observed ratio 0.53 across 80 seeded
#: configurations, well inside 1/3).
APPROXIMATION_FACTOR = 3.0


@dataclass
class _Block:
    """One sealed block: its start position and per-group GMM summary."""

    #: Stream position (0-based) of the block's first element.
    start: int
    #: Composable per-group GMM coreset of the block's elements.
    summary: List[Element] = field(default_factory=list)


class SlidingWindowFDM(WindowedAlgorithm):
    """Incremental fair diversity maximization over a count-based sliding window.

    Parameters
    ----------
    metric:
        Distance metric.
    constraint:
        Fairness constraint (quotas per group); the window must be at
        least ``constraint.total_size`` elements long.
    window:
        Window length ``w`` in number of elements.
    blocks:
        Number of blocks the window is divided into (at least 2).  More
        blocks mean finer coverage (at most ``w // blocks - 1`` of the
        oldest live elements are outside the pool) at the cost of
        proportionally more stored summaries and retirements.
    """

    #: Registry / reporting name of this algorithm.
    name = "SlidingWindowFDM"
    #: A single block would retire — and empty the pool — right after
    #: every block boundary; two is the smallest non-degenerate count.
    _min_blocks = 2

    def __init__(self, metric, constraint, window, blocks: int = 8) -> None:
        super().__init__(metric, constraint, window, blocks)
        #: Summaries of the wholly-live sealed blocks, oldest first.
        #: Invariant: every block starts at or after the window start, and
        #: every sealed block boundary inside the window has an entry.
        self._live_blocks: Deque[_Block] = deque()
        #: Incrementally-composed coreset of every block in ``_live_blocks``.
        self._active_summary: List[Element] = []
        #: Distinct uids across the live summaries (cached at block events
        #: so :attr:`stored_elements` stays O(1) on the per-element path).
        self._summary_uid_count = 0
        #: Raw elements of the block currently being filled.
        self._buffer: List[Element] = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def process(self, element: Element) -> None:
        """Consume one stream element (amortised block-boundary work only)."""
        self._buffer.append(element)
        self._count += 1
        if self._count % self._block_size == 0:
            self._seal_block()
        self._retire_expired_blocks()

    def _reduce(self, pool: Sequence[Element]) -> List[Element]:
        """One composable per-group GMM reduction of ``pool``.

        Routes through the columnar store kernels whenever the pool's
        payloads are columnar (store-backed streams, ``offer_rows``).
        """
        store = ElementStore.try_from_elements(pool)
        return gmm_coreset(
            pool if store is None else store,
            self.metric,
            self.constraint.total_size,
            per_group=True,
        )

    def _seal_block(self) -> None:
        """Summarise the filled block and fold it into the active summary."""
        block, self._buffer = self._buffer, []
        with obs.span(
            "window.block.seal", start=self._count - len(block), size=len(block)
        ):
            summary = self._reduce(block)
            self._live_blocks.append(
                _Block(start=self._count - len(block), summary=summary)
            )
            if len(self._live_blocks) == 1:
                self._active_summary = list(summary)
            else:
                self._active_summary = self._reduce(self._active_summary + summary)
            self._recount_summaries()

    def _retire_expired_blocks(self) -> None:
        """Drop blocks whose start slipped out of the window; recompose.

        Retirement is incremental: the active summary is recomposed from
        the surviving (small) block summaries — amortised one reduction per
        block — never recomputed from window contents.  Sealed boundaries
        are ``window // blocks`` apart and the window is at least two
        blocks long, so once the window is full the oldest surviving block
        starts within one block of the window start.
        """
        window_start = self.window_start
        dropped = 0
        while self._live_blocks and self._live_blocks[0].start < window_start:
            self._live_blocks.popleft()
            dropped += 1
        if dropped:
            with obs.span(
                "window.block.retire", retired=dropped, live=len(self._live_blocks)
            ):
                pool = [e for block in self._live_blocks for e in block.summary]
                self._active_summary = self._reduce(pool) if pool else []
                self._recount_summaries()
            obs.count("repro.window.blocks_retired", dropped)

    def _recount_summaries(self) -> None:
        """Refresh the cached distinct-uid count (block-boundary events only).

        The active summary is always composed *from* the live block
        summaries, so it is a subset of the counted set and adds nothing.
        """
        self._summary_uid_count = len(
            {e.uid for block in self._live_blocks for e in block.summary}
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def coverage_start(self) -> int:
        """First stream position the current candidate pool can draw from.

        Always at least :attr:`window_start` (the eviction invariant) and,
        once the window is full, at most one block past it (the coverage
        guarantee).
        """
        if self._live_blocks:
            return self._live_blocks[0].start
        return self._count - len(self._buffer)

    @property
    def stored_elements(self) -> int:
        """Number of distinct elements currently held (summaries plus block)."""
        return self._summary_uid_count + len(self._buffer)

    def candidate_pool(self) -> List[Element]:
        """Elements available for extraction: active summary plus raw block.

        Every element arrived at or after :attr:`coverage_start`, hence
        inside the live window — the pool is expiry-free by construction.
        """
        pool = {e.uid: e for e in self._active_summary}
        for element in self._buffer:
            pool.setdefault(element.uid, element)
        return list(pool.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SlidingWindowFDM(window={self.window}, blocks={self.blocks}, "
            f"processed={self._count}, stored={self.stored_elements})"
        )
