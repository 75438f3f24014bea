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
        Distance metric.  Metrics with vectorized kernels update the
        nearest-to-selection array with one batched ``distances_to`` call
        per selected element; other metrics use the scalar loop.
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
        sub = elements
        if restrict_group is not None:
            sub = sub.select(np.nonzero(sub.groups == restrict_group)[0])
        if not len(sub):
            return []
        if not (0 <= start_index < len(sub)):
            raise InvalidParameterError(
                f"start_index {start_index} out of range for a pool of {len(sub)} elements"
            )
        if metric.supports_batch:
            return _gmm_store_batched(sub, metric, k, start_index)
        pool: List[Element] = sub.elements()
    else:
        pool = [
            element
            for element in elements
            if restrict_group is None or element.group == restrict_group
        ]
    if not pool:
        return []
    if not (0 <= start_index < len(pool)):
        raise InvalidParameterError(
            f"start_index {start_index} out of range for a pool of {len(pool)} elements"
        )
    if metric.supports_batch:
        return _gmm_elements_batched(pool, metric, k, start_index)
    selected = [pool[start_index]]
    # Maintain, for every pool element, its distance to the current selection.
    nearest = [metric.distance(element.vector, selected[0].vector) for element in pool]
    nearest[start_index] = -1.0  # exclude the seed from future selection
    while len(selected) < min(k, len(pool)):
        best_index = max(range(len(pool)), key=lambda i: nearest[i])
        if nearest[best_index] < 0:
            break
        chosen = pool[best_index]
        selected.append(chosen)
        nearest[best_index] = -1.0
        for i, element in enumerate(pool):
            if nearest[i] < 0:
                continue
            d = metric.distance(element.vector, chosen.vector)
            if d < nearest[i]:
                nearest[i] = d
    return selected


def _gmm_store_batched(
    store: ElementStore,
    metric: Metric,
    k: int,
    start_index: int,
) -> List[Element]:
    """Columnar farthest-point greedy: selection over store rows.

    Same selection sequence (and distance accounting) as
    :func:`_gmm_elements_batched` over the corresponding element list —
    the payload matrix is simply the store's feature matrix, and elements
    are materialised (as zero-copy views) only for the ``k`` winners.
    """
    matrix = store.features
    selected_rows = [start_index]
    nearest = metric.distances_to(matrix[start_index], matrix)
    nearest[start_index] = -1.0
    while len(selected_rows) < min(k, len(store)):
        best_index = int(np.argmax(nearest))
        if nearest[best_index] < 0:
            break
        selected_rows.append(best_index)
        np.minimum(nearest, metric.distances_to(matrix[best_index], matrix), out=nearest)
        nearest[best_index] = -1.0
    return [store.element(row) for row in selected_rows]


def _gmm_elements_batched(
    pool: Sequence[Element],
    metric: Metric,
    k: int,
    start_index: int,
) -> List[Element]:
    """Vectorized farthest-point greedy over an already-filtered pool.

    Selects the same elements as the scalar loop (``np.argmax`` and
    ``max(key=...)`` both break ties on the first index); selected entries
    are masked with ``-1`` exactly as the scalar path does.
    """
    matrix = stack_vectors(pool)
    selected = [pool[start_index]]
    nearest = metric.distances_to(pool[start_index].vector, matrix)
    nearest[start_index] = -1.0
    while len(selected) < min(k, len(pool)):
        best_index = int(np.argmax(nearest))
        if nearest[best_index] < 0:
            break
        chosen = pool[best_index]
        selected.append(chosen)
        np.minimum(nearest, metric.distances_to(chosen.vector, matrix), out=nearest)
        nearest[best_index] = -1.0
    return selected


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
