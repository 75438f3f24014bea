"""The block-summary windowed baseline: :class:`CheckpointedWindowFDM`.

This is the library's original "strawman plus coreset" sliding-window
algorithm, kept as the baseline the incremental
:class:`~repro.windowing.sliding.SlidingWindowFDM` is benchmarked against.
It partitions the stream into blocks of ``window / blocks`` elements, keeps
a per-group GMM summary of every live block, and recomputes a fair solution
from the union of the live summaries on demand.  Its memory is
``O(blocks · m · k)`` summaries plus the current partial block — but
eviction happens at *block* granularity, so summaries of the oldest live
block may still contribute elements that have already expired (by up to one
block length).  The incremental algorithm fixes exactly this.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro import obs
from repro.data.element import Element
from repro.fairness.constraints import FairnessConstraint
from repro.metrics.base import Metric
from repro.windowing.base import WindowedAlgorithm


class CheckpointedWindowFDM(WindowedAlgorithm):
    """Fair diversity maximization over a sliding window via block summaries.

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
        Number of blocks the window is divided into; more blocks means a
        fresher summary (stale elements are dropped at block granularity)
        at the cost of proportionally more stored summaries.
    """

    #: Registry / reporting name of this algorithm.
    name = "WindowFDM"

    def __init__(
        self,
        metric: Metric,
        constraint: FairnessConstraint,
        window: int,
        blocks: int = 8,
    ) -> None:
        super().__init__(metric, constraint, window, blocks)
        #: Completed blocks, oldest first: (start_index, summary elements).
        self._summaries: Deque[Tuple[int, List[Element]]] = deque()
        #: Elements of the block currently being filled.
        self._current_block: List[Element] = []
        self._current_start = 0

    # ------------------------------------------------------------------
    def process(self, element: Element) -> None:
        """Consume one stream element."""
        if not self._current_block:
            self._current_start = self._count
        self._current_block.append(element)
        self._count += 1
        if len(self._current_block) >= self._block_size:
            self._seal_current_block()
        self._evict_expired_blocks()

    def _seal_current_block(self) -> None:
        """Summarise the filled block (per-group GMM coreset) and store it."""
        with obs.span(
            "window.block.seal",
            start=self._current_start,
            size=len(self._current_block),
        ):
            summary = self._reduce(self._current_block)
            self._summaries.append((self._current_start, summary))
            self._current_block = []

    def _evict_expired_blocks(self) -> None:
        """Drop block summaries that lie entirely outside the live window.

        The drop is traced as a ``window.block.retire`` span with the
        attributes the incremental algorithm's retirements carry.
        """
        window_start = self.window_start
        dropped = 0
        for start, _ in self._summaries:
            if start + self._block_size > window_start:
                break
            dropped += 1
        if dropped:
            with obs.span(
                "window.block.retire",
                retired=dropped,
                live=len(self._summaries) - dropped,
            ):
                for _ in range(dropped):
                    self._summaries.popleft()
            obs.count("repro.window.blocks_retired", dropped)

    # ------------------------------------------------------------------
    @property
    def stored_elements(self) -> int:
        """Number of elements currently held (summaries plus partial block)."""
        return sum(len(summary) for _, summary in self._summaries) + len(self._current_block)

    def candidate_pool(self) -> List[Element]:
        """All elements currently available for solution extraction.

        Eviction is block-granular, so the pool can include elements of the
        oldest live block that have themselves already expired (by up to
        one block length) — the incremental algorithm's pool cannot.
        """
        pool: Dict[int, Element] = {}
        for _, summary in self._summaries:
            for element in summary:
                pool.setdefault(element.uid, element)
        for element in self._current_block:
            pool.setdefault(element.uid, element)
        return list(pool.values())
