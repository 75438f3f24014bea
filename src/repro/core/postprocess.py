"""Post-processing helpers shared by SFDM1 and SFDM2.

* :func:`balance_by_swapping` — the swap-based balancing of SFDM1
  (Algorithm 2, lines 10–17): add the farthest elements from the
  under-filled group's candidate, then drop the closest elements of the
  over-filled group.
* :func:`cluster_elements` — the threshold clustering of SFDM2 (Algorithm 3,
  lines 12–16): single-linkage connected components under ``d < µ/(m+1)``,
  built from :func:`~repro.metrics.space.pairwise_distances` and
  :func:`threshold_clusters`, which SFDM2 calls directly so one pool
  matrix also serves its matroid intersection and the diversity of the
  picked solution.
* :func:`greedy_fair_fill` — a GMM-style greedy that builds a fair set from
  an arbitrary pool of stored elements; used as a best-effort fallback when
  no guess admits the exact post-processing of the paper (this can happen
  with estimated distance bounds on adversarial streams).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro import obs
from repro.data.store import store_rows_of
from repro.fairness.constraints import FairnessConstraint
from repro.metrics.base import Metric, stack_vectors
from repro.metrics.space import distance_to_set, pairwise_distances
from repro.data.element import Element


def balance_by_swapping(
    blind: Sequence[Element],
    group_candidates: Dict[int, Sequence[Element]],
    constraint: FairnessConstraint,
    metric: Metric,
) -> List[Element]:
    """Balance a group-blind candidate for a two-group fairness constraint.

    Implements the post-processing of Algorithm 2.  ``blind`` is the full
    group-blind candidate ``S_µ`` (``k`` elements), ``group_candidates``
    maps each group to its group-specific candidate ``S_{µ,i}`` (``k_i``
    elements each).  For the under-filled group the farthest-from-current
    elements of its group-specific candidate are inserted; the same number
    of closest-to-the-under-filled-group elements of the over-filled group
    are then removed.

    The function is written for ``m = 2`` (the only case SFDM1 supports)
    but does not hard-code the group labels.
    """
    solution: List[Element] = list(blind)
    counts = {group: 0 for group in constraint.groups}
    for element in solution:
        if element.group in counts:
            counts[element.group] += 1

    under = [g for g in constraint.groups if counts[g] < constraint.quota(g)]
    if not under:
        return solution
    under_group = under[0]
    over_groups = [g for g in constraint.groups if counts[g] > constraint.quota(g)]

    # Phase 1: add elements of the under-filled group, farthest-first, from
    # its group-specific candidate (which contains k_i well-separated
    # elements by construction).
    in_solution: Set[int] = {element.uid for element in solution}
    pool = [
        element
        for element in group_candidates.get(under_group, [])
        if element.uid not in in_solution
    ]
    while counts[under_group] < constraint.quota(under_group) and pool:
        anchor = [element for element in solution if element.group == under_group]
        best = max(pool, key=lambda element: distance_to_set(element, anchor, metric))
        pool.remove(best)
        solution.append(best)
        in_solution.add(best.uid)
        counts[under_group] += 1

    # Phase 2: remove elements of over-filled groups that sit closest to the
    # under-filled group's selection, until the total size is back to k.
    target_size = constraint.total_size
    while len(solution) > target_size:
        under_members = [element for element in solution if element.group == under_group]
        removable = [
            element
            for element in solution
            if element.group in over_groups and counts[element.group] > constraint.quota(element.group)
        ]
        if not removable:
            break
        worst = min(
            removable, key=lambda element: distance_to_set(element, under_members, metric)
        )
        solution.remove(worst)
        counts[worst.group] -= 1
    return solution


class _UnionFind:
    """Minimal union-find used by the threshold clustering."""

    def __init__(self, items: Iterable[int]) -> None:
        self._parent = {item: item for item in items}
        self._rank = {item: 0 for item in self._parent}

    def find(self, item: int) -> int:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1


def threshold_clusters(distances: np.ndarray, threshold: float) -> np.ndarray:
    """Cluster code of every row of ``distances``, by single linkage under ``d < threshold``.

    Rows ``i`` and ``j`` share a code exactly when a chain of pairwise
    distances below ``threshold`` connects them; codes are row indices (the
    root of each component), so they are non-negative and below
    ``len(distances)`` but not consecutive.
    """
    uf = _UnionFind(range(distances.shape[0]))
    for i, j in zip(*np.nonzero(np.triu(distances < threshold, k=1))):
        uf.union(int(i), int(j))
    return np.array([uf.find(i) for i in range(distances.shape[0])], dtype=np.intp)


def cluster_elements(
    elements: Sequence[Element], threshold: float, metric: Metric
) -> List[List[Element]]:
    """Partition ``elements`` into connected components under ``d < threshold``.

    Two elements end up in the same cluster exactly when they are connected
    by a chain of pairwise distances below ``threshold`` — this is the fixed
    point of the repeated merging in Algorithm 3 (lines 13–16), computed
    with a union-find (:func:`threshold_clusters`) over the elements'
    distance matrix (:func:`~repro.metrics.space.pairwise_distances`)
    instead of repeated scans.

    The returned clusters satisfy the paper's Property (i): any two elements
    in *different* clusters are at distance at least ``threshold``.
    """
    unique: Dict[int, Element] = {}
    for element in elements:
        unique.setdefault(element.uid, element)
    items = list(unique.values())
    codes = threshold_clusters(pairwise_distances(items, metric), threshold)
    clusters: Dict[int, List[Element]] = {}
    for element, code in zip(items, codes):
        clusters.setdefault(int(code), []).append(element)
    # Deterministic order: by smallest uid within each cluster.
    ordered = sorted(clusters.values(), key=lambda cluster: min(e.uid for e in cluster))
    return ordered


def greedy_fair_fill(
    pool: Sequence[Element],
    constraint: FairnessConstraint,
    metric: Metric,
    initial: Optional[Sequence[Element]] = None,
) -> List[Element]:
    """Best-effort fair selection from ``pool`` by farthest-point greedy.

    Starting from ``initial`` (kept verbatim), repeatedly add the pool
    element that maximizes the distance to the current selection among the
    elements whose group quota is not yet exhausted.  Returns a fair set
    whenever ``pool`` contains enough elements of every group; otherwise it
    returns the largest quota-respecting set it could build.

    This is not part of the paper's algorithms; it is the library's fallback
    when the exact post-processing finds no eligible guess (which the paper
    implicitly assumes never happens because ``d_min``/``d_max`` are known
    exactly).

    Every pool element's distance to the current selection is kept in one
    array, updated by one ``distances_to`` over the pool per selected
    element, and each round takes the arg-max over the quota-eligible
    entries, ties going to the first pool element.  A store-backed pool
    gathers its payload matrix and group and uid columns straight from the
    store.
    """
    with obs.span("postprocess.fill", pool=len(pool), k=constraint.total_size):
        selection: List[Element] = list(initial) if initial else []
        counts = {group: 0 for group in constraint.groups}
        for element in selection:
            if element.group in counts:
                counts[element.group] += 1
        selected_uids = {element.uid for element in selection}
        candidates = [element for element in pool if element.uid not in selected_uids]
        if not candidates:
            return selection
        backing = store_rows_of(candidates)
        if backing is not None:
            store, rows = backing
            matrix = store.features[rows]
            pool_groups = store.groups[rows]
            pool_uids = store.uids[rows]
        else:
            matrix = stack_vectors(candidates)
            pool_groups = np.array([element.group for element in candidates])
            pool_uids = np.array([element.uid for element in candidates])
        taken = np.zeros(len(candidates), dtype=bool)
        nearest = np.full(len(candidates), np.inf)
        for member in selection:
            np.minimum(nearest, metric.distances_to(member.vector, matrix), out=nearest)

        while len(selection) < constraint.total_size:
            eligible = ~taken & np.isin(pool_groups, list(counts))
            for group in counts:
                if counts[group] >= constraint.quota(group):
                    eligible &= pool_groups != group
            indices = np.nonzero(eligible)[0]
            if indices.size == 0:
                break
            if selection:
                best = candidates[int(indices[np.argmax(nearest[indices])])]
            else:
                best = candidates[int(indices[0])]
            selection.append(best)
            counts[best.group] += 1
            # Mask every pool entry with the selected uid, not just the
            # chosen index: the pool may hold one uid more than once.
            taken |= pool_uids == best.uid
            np.minimum(nearest, metric.distances_to(best.vector, matrix), out=nearest)
        return selection
