"""Shared scaffolding of the windowed algorithms.

:class:`WindowedAlgorithm` owns everything the checkpointed baseline and
the incremental algorithm have in common — validated window/blocks
geometry, the stream-position counter, the block reduction (one
composable per-group GMM coreset) and the extraction path (greedy fair
fill over the subclass's candidate pool) — so the two implementations
differ only in how they compose summaries and evict.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.coreset import gmm_coreset
from repro.core.postprocess import greedy_fair_fill
from repro.core.solution import FairSolution
from repro.data.element import Element
from repro.data.store import ElementStore
from repro.fairness.constraints import FairnessConstraint
from repro.metrics.base import Metric
from repro.utils.errors import InvalidParameterError
from repro.utils.validation import require_positive_int


class WindowedAlgorithm:
    """Base class of the windowed solvers: geometry, counters, extraction.

    Subclasses implement :meth:`process` (consume one element, advancing
    ``self._count``), :meth:`candidate_pool`, and :attr:`stored_elements`.

    Parameters
    ----------
    metric:
        Distance metric.
    constraint:
        Fairness constraint (quotas per group).  The window must be at
        least ``constraint.total_size`` elements long — a shorter window
        can never hold a fair solution, so it is rejected eagerly.
    window:
        Window length ``w`` in number of elements.
    blocks:
        Number of blocks the window is divided into (must not exceed the
        window length; subclasses may require a higher minimum).
    """

    #: Registry / reporting name of the algorithm (set by subclasses).
    name = "WindowedAlgorithm"
    #: Smallest usable block count (subclasses override when the scheme
    #: degenerates below it).
    _min_blocks = 1

    def __init__(
        self,
        metric: Metric,
        constraint: FairnessConstraint,
        window: int,
        blocks: int = 8,
    ) -> None:
        self.metric = metric
        self.constraint = constraint
        self.window = require_positive_int(window, "window")
        self.blocks = require_positive_int(blocks, "blocks")
        if self.blocks > self.window:
            raise InvalidParameterError("blocks must not exceed the window length")
        if self.blocks < self._min_blocks:
            raise InvalidParameterError(
                f"{self.name} needs at least {self._min_blocks} blocks, "
                f"got {self.blocks}"
            )
        if self.window < constraint.total_size:
            raise InvalidParameterError(
                f"window ({self.window}) is shorter than the constraint's total "
                f"size ({constraint.total_size}); no window can ever hold a "
                f"fair solution"
            )
        self._block_size = max(1, self.window // self.blocks)
        self._count = 0

    # ------------------------------------------------------------------
    @property
    def elements_processed(self) -> int:
        """Total number of stream elements consumed so far."""
        return self._count

    @property
    def window_start(self) -> int:
        """First live stream position (0 until the window fills)."""
        return max(0, self._count - self.window)

    @property
    def stored_elements(self) -> int:
        """Number of distinct elements currently held (subclass-provided)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def process(self, element: Element) -> None:
        """Consume one stream element (subclass-provided)."""
        raise NotImplementedError

    def candidate_pool(self) -> List[Element]:
        """Elements available for solution extraction (subclass-provided)."""
        raise NotImplementedError

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

    # ------------------------------------------------------------------
    def solution(self) -> Optional[FairSolution]:
        """A fair solution over the live summaries (``None`` if infeasible).

        Extraction runs the library's greedy fair fill over the candidate
        pool; an empty or quota-infeasible pool cleanly returns ``None`` —
        it never raises.
        """
        pool = self.candidate_pool()
        if not pool:
            return None
        selection = greedy_fair_fill(pool, self.constraint, self.metric)
        result = FairSolution(selection, self.metric, self.constraint)
        return result if result.is_fair else None

    def run(self, elements: Iterable[Element]) -> Optional[FairSolution]:
        """Convenience: process a stream lazily and return the final solution."""
        for element in elements:
            self.process(element)
        return self.solution()
