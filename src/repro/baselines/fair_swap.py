"""FairSwap — the offline 1/4-approximation for fair DM with two groups.

FairSwap (Moumoulidou, McGregor, Meliou — ICDT 2021) first runs GMM on the
whole dataset to obtain an unconstrained size-``k`` solution, then balances
it: while some group is under its quota, it inserts the element of that
group (from the *entire dataset*) farthest from the already-selected
elements of that group, and removes the element of the over-filled group
closest to the under-filled group's selection.  That balancing is SFDM1's
post-processing (Algorithm 2, lines 10–17) with the whole group as the
group-specific candidate, so both run
:func:`~repro.core.postprocess.balance_by_swapping`.  FairSwap needs the
whole dataset in memory and random access over it, which is exactly the
cost the paper's streaming algorithms avoid.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.gmm import gmm_elements
from repro.core.postprocess import balance_by_swapping
from repro.core.result import RunResult
from repro.core.solution import FairSolution
from repro.fairness.constraints import FairnessConstraint
from repro.metrics.base import Metric
from repro.metrics.cached import CountingMetric
from repro.data.element import Element
from repro.streaming.stats import StreamStats
from repro.utils.errors import InvalidParameterError
from repro.utils.timer import Timer


def fair_swap(
    elements: Sequence[Element],
    metric: Metric,
    constraint: FairnessConstraint,
) -> RunResult:
    """Run FairSwap on ``elements`` and return a :class:`RunResult`.

    Elements of groups outside the constraint take no part: GMM runs over
    the elements of the constraint's two groups only.

    Raises
    ------
    InvalidParameterError
        If the constraint does not have exactly two groups.
    InfeasibleConstraintError
        If some group has fewer elements than its quota.
    """
    if constraint.num_groups != 2:
        raise InvalidParameterError(
            f"FairSwap supports exactly two groups, got {constraint.num_groups}"
        )
    members = {group: [] for group in constraint.groups}
    for element in elements:
        if element.group in members:
            members[element.group].append(element)
    constraint.validate_feasible({group: len(pool) for group, pool in members.items()})

    counting = CountingMetric(metric)
    timer = Timer()
    k = constraint.total_size
    with timer.measure():
        blind = gmm_elements(
            [element for element in elements if element.group in members], counting, k
        )
        solution = balance_by_swapping(blind, members, constraint, counting)

    stats = StreamStats(
        elements_processed=len(elements),
        stream_distance_computations=counting.calls,
        peak_stored_elements=len(elements),
        final_stored_elements=len(elements),
        stream_seconds=timer.elapsed,
    )
    return RunResult(
        algorithm="FairSwap",
        solution=FairSolution(solution, counting, constraint),
        stats=stats,
        params={"k": k, "quotas": constraint.quotas},
    )
