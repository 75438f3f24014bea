"""FairFlow — the offline 1/(3m-1)-approximation for fair DM with any m.

FairFlow (Moumoulidou, McGregor, Meliou — ICDT 2021) proceeds in three
steps:

1. run GMM on the whole dataset to obtain ``k`` well-separated centres and
   assign every element to its nearest centre, producing ``k`` clusters;
2. build a bipartite flow network between groups (with capacities ``k_i``)
   and clusters (with capacity one) where an edge exists when the cluster
   contains at least one element of the group, and compute a maximum flow;
3. if the flow saturates all quotas, read the assignment back and pick, for
   each (group, cluster) pair carrying flow, one element of that group from
   that cluster.

Its solution quality degrades with ``m`` in practice (as the paper's
experiments show), which is the gap SFDM2 closes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

import numpy as np

from repro.baselines.gmm import gmm_elements
from repro.core.result import RunResult
from repro.core.solution import FairSolution
from repro.fairness.constraints import FairnessConstraint
from repro.flow.assignment import solve_cluster_assignment
from repro.metrics.base import Metric, stack_vectors
from repro.metrics.cached import CountingMetric
from repro.data.element import Element
from repro.streaming.stats import StreamStats
from repro.utils.errors import InfeasibleConstraintError
from repro.utils.timer import Timer


def _assign_to_clusters(
    elements: Sequence[Element], centers: Sequence[Element], metric: Metric
) -> List[List[Element]]:
    """Assign every element to its nearest centre; returns one list per centre.

    Evaluates chunked ``pairwise(elements, centers)`` calls (store-backed
    element lists gather their payload matrix from the store in one slice),
    charged ``n · k`` in all; ``argmin`` breaks distance ties on the first
    centre.
    """
    clusters: List[List[Element]] = [[] for _ in centers]
    center_matrix = stack_vectors(centers)
    element_matrix = stack_vectors(elements)
    chunk = 4096
    for start in range(0, len(elements), chunk):
        block = metric.pairwise(element_matrix[start : start + chunk], center_matrix)
        for offset, best_index in enumerate(np.argmin(block, axis=1)):
            clusters[int(best_index)].append(elements[start + offset])
    return clusters


def fair_flow(
    elements: Sequence[Element],
    metric: Metric,
    constraint: FairnessConstraint,
) -> RunResult:
    """Run FairFlow on ``elements`` and return a :class:`RunResult`."""
    group_sizes: Dict[int, int] = {}
    for element in elements:
        group_sizes[element.group] = group_sizes.get(element.group, 0) + 1
    constraint.validate_feasible(group_sizes)

    counting = CountingMetric(metric)
    timer = Timer()
    k = constraint.total_size
    with timer.measure():
        centers = gmm_elements(elements, counting, k)
        clusters = _assign_to_clusters(elements, centers, counting)
        cluster_groups: List[Set[int]] = [
            {element.group for element in cluster} for cluster in clusters
        ]
        value, assignment = solve_cluster_assignment(constraint.quotas, cluster_groups)

        solution: List[Element] = []
        used_clusters: Set[int] = set()
        for group, cluster_indices in assignment.items():
            for cluster_index in cluster_indices:
                if cluster_index in used_clusters:
                    continue
                members = [
                    element
                    for element in clusters[cluster_index]
                    if element.group == group
                ]
                if members:
                    solution.append(members[0])
                    used_clusters.add(cluster_index)

        # If the flow could not satisfy every quota (value < k), top the
        # solution up greedily from the leftover elements of the deficient
        # groups — the original algorithm may return an infeasible solution
        # in this case; completing it keeps the comparison fair while only
        # helping the baseline.
        if len(solution) < k:
            counts = {group: 0 for group in constraint.groups}
            for element in solution:
                counts[element.group] += 1
            selected_uids = {element.uid for element in solution}
            for group in constraint.groups:
                while counts[group] < constraint.quota(group):
                    candidates = [
                        element
                        for element in elements
                        if element.group == group and element.uid not in selected_uids
                    ]
                    if not candidates:
                        break
                    if solution:
                        best = max(
                            candidates,
                            key=lambda e: min(
                                counting.distance(e.vector, s.vector) for s in solution
                            ),
                        )
                    else:
                        best = candidates[0]
                    solution.append(best)
                    selected_uids.add(best.uid)
                    counts[group] += 1

    stats = StreamStats(
        elements_processed=len(elements),
        stream_distance_computations=counting.calls,
        peak_stored_elements=len(elements),
        final_stored_elements=len(elements),
        stream_seconds=timer.elapsed,
    )
    stats.extra["flow_value"] = value
    return RunResult(
        algorithm="FairFlow",
        solution=FairSolution(solution, counting, constraint),
        stats=stats,
        params={"k": k, "quotas": constraint.quotas},
    )
