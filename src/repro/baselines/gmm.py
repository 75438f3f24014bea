"""GMM — the Gonzalez farthest-point greedy for max-min diversity maximization.

GMM (Gonzalez 1985; Ravi et al. 1994) starts from an arbitrary element and
repeatedly adds the element farthest from the current selection.  It is a
1/2-approximation for unconstrained max-min diversity maximization, the best
possible in polynomial time unless P = NP.  The paper uses ``2 * div(GMM)``
as an upper bound on the fair optimum OPT_f in all quality plots.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.result import RunResult
from repro.core.solution import Solution
from repro.data.store import ElementStore
from repro.metrics.base import Metric, stack_vectors
from repro.metrics.cached import CountingMetric
from repro.data.element import Element
from repro.streaming.stats import StreamStats
from repro.utils.errors import InvalidParameterError
from repro.utils.timer import Timer
from repro.utils.validation import require_positive_int


def gmm_elements(
    elements: Union[Sequence[Element], ElementStore],
    metric: Metric,
    k: int,
    start_index: int = 0,
    restrict_group: Optional[int] = None,
) -> List[Element]:
    """Run the farthest-point greedy and return the selected elements.

    Parameters
    ----------
    elements:
        The candidate pool (the full dataset for the offline baseline) —
        an element sequence or, for the columnar fast path, an
        :class:`~repro.data.store.ElementStore` (group restriction then
        becomes a vectorized mask and only the ``k`` selected rows are ever
        materialised as elements).
    metric:
        Distance metric.  The nearest-to-selection array over the pool's
        payload matrix is updated with one ``distances_to`` call per
        selected element.
    k:
        Number of elements to select (capped at the pool size).
    start_index:
        Index of the seed element within the (possibly group-restricted)
        pool; the paper seeds with the first element.
    restrict_group:
        If given, only elements of this group are considered — used by
        FairSwap and FairGMM to build group-specific candidate sets.
    """
    k = require_positive_int(k, "k")
    if isinstance(elements, ElementStore):
        pool: Union[List[Element], ElementStore] = elements
        if restrict_group is not None:
            pool = elements.select(np.nonzero(elements.groups == restrict_group)[0])
    else:
        pool = [
            element
            for element in elements
            if restrict_group is None or element.group == restrict_group
        ]
    if not len(pool):
        return []
    if not (0 <= start_index < len(pool)):
        raise InvalidParameterError(
            f"start_index {start_index} out of range for a pool of {len(pool)} elements"
        )
    # One loop over the pool's payload matrix; only the winners become elements.
    if isinstance(pool, ElementStore):
        matrix, element_at = pool.features, pool.element
    else:
        matrix, element_at = stack_vectors(pool), pool.__getitem__
    selected = [start_index]
    nearest = metric.distances_to(matrix[start_index], matrix)
    nearest[start_index] = -1.0  # selected rows never win again
    while len(selected) < min(k, len(pool)):
        best_index = int(np.argmax(nearest))  # ties go to the first row
        if nearest[best_index] < 0:
            break
        selected.append(best_index)
        np.minimum(nearest, metric.distances_to(matrix[best_index], matrix), out=nearest)
        nearest[best_index] = -1.0
    return [element_at(row) for row in selected]


def gmm(elements: Sequence[Element], metric: Metric, k: int) -> RunResult:
    """Offline GMM baseline packaged as a :class:`RunResult`.

    The offline baselines keep the full dataset in memory, so the stored-
    element count equals the dataset size (as in the paper's accounting).
    """
    counting = CountingMetric(metric)
    timer = Timer()
    with timer.measure():
        selected = gmm_elements(elements, counting, k)
    stats = StreamStats(
        elements_processed=len(elements),
        stream_distance_computations=counting.calls,
        peak_stored_elements=len(elements),
        final_stored_elements=len(elements),
        stream_seconds=timer.elapsed,
    )
    return RunResult(
        algorithm="GMM",
        solution=Solution(selected, counting),
        stats=stats,
        params={"k": k},
    )
