"""Greedy max-sum dispersion, used only for the Figure 1 illustration.

The max-sum objective maximizes the *sum* of pairwise distances of the
selected subset.  The classic 1/2-approximation greedy repeatedly adds the
element with the largest total distance to the current selection.  The paper
uses it only to illustrate (Figure 1) why max-min is preferable when uniform
coverage matters; it is not part of the evaluated algorithms.

One ``pairwise`` evaluation up front drives both the farthest-pair seeding
and the per-round gain updates.  The counter is charged what the
element-at-a-time greedy evaluates — every pair once to find the farthest
pair, then each unselected element's distance to each selected one per
round — so the count does not depend on how the metric evaluates the
matrix.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.result import RunResult
from repro.core.solution import Solution
from repro.metrics.base import Metric, stack_vectors
from repro.metrics.cached import CountingMetric
from repro.data.element import Element
from repro.streaming.stats import StreamStats
from repro.utils.timer import Timer
from repro.utils.validation import require_positive_int


def _select(counting: CountingMetric, pool: Sequence[Element], k: int) -> List[Element]:
    """The greedy selection driven by one cached pairwise matrix.

    Seeds with the first row-major maximum of the upper triangle, then grows
    the selection by the first maximum-gain element, with gains folded in
    selection order.  The counter is charged ``n(n-1)/2`` for the seeding
    sweep and ``(n - t) * t`` per round over the ``t`` selected.
    """
    n = len(pool)
    distances = counting.inner.pairwise(stack_vectors(pool))
    counting.charge(n * (n - 1) // 2)
    upper = np.triu_indices(n, k=1)
    flat = int(np.argmax(distances[upper]))
    rows = [int(upper[0][flat]), int(upper[1][flat])]
    chosen = np.zeros(n, dtype=bool)
    chosen[rows] = True
    gains = distances[:, rows[0]] + distances[:, rows[1]]
    while len(rows) < min(k, n):
        counting.charge((n - len(rows)) * len(rows))
        scored = np.where(chosen, -np.inf, gains)
        best = int(np.argmax(scored))
        rows.append(best)
        chosen[best] = True
        gains = gains + distances[:, best]
    return [pool[row] for row in rows[:k]]


def max_sum_greedy(elements: Sequence[Element], metric: Metric, k: int) -> RunResult:
    """Greedy 1/2-approximation for max-sum dispersion packaged as a run result."""
    k = require_positive_int(k, "k")
    counting = CountingMetric(metric)
    timer = Timer()
    with timer.measure():
        remaining = list(elements)
        selected = remaining[:k] if len(remaining) < 2 else _select(counting, remaining, k)
    stats = StreamStats(
        elements_processed=len(elements),
        stream_distance_computations=counting.calls,
        peak_stored_elements=len(elements),
        final_stored_elements=len(elements),
        stream_seconds=timer.elapsed,
    )
    return RunResult(
        algorithm="MaxSumGreedy",
        solution=Solution(selected, counting),
        stats=stats,
        params={"k": k},
    )
