"""Maximum-cardinality matroid intersection (Cunningham's algorithm).

Given two matroids ``M1 = (V, I1)`` and ``M2 = (V, I2)`` over the same
ground set, a *common independent set* is a set independent in both.  The
paper's Algorithm 4 finds a maximum-cardinality common independent set by
repeatedly augmenting along shortest paths in the *augmentation graph*
(also called the exchange graph) of Definition 2:

* source ``a`` has an edge to every ``x`` that can be added under ``M1``;
* every ``x`` that can be added under ``M2`` has an edge to sink ``b``;
* an edge ``y -> x`` (``y`` in ``S``, ``x`` outside) exists when ``x``
  cannot be added under ``M1`` but swapping ``y`` for ``x`` keeps ``M1``
  independence;
* an edge ``x -> y`` exists when ``x`` cannot be added under ``M2`` but
  swapping ``y`` for ``x`` keeps ``M2`` independence.

Augmenting along a *shortest* ``a``-``b`` path increases ``|S|`` by one and
keeps ``S`` common independent; when no path exists ``S`` is maximum (by the
matroid-intersection min-max theorem).

The paper warms the search up by first adding elements that are immediately
addable in both matroids (each such element corresponds to a length-two path
``a -> x -> b``), ordered to maximize diversity; that greedy phase lives in
:func:`greedy_common_independent` and accepts an arbitrary priority function
so the caller can plug in "distance to the current solution".

These routines work for any pair of matroids through their independence
oracles, and they are the reference that SFDM2's post-processing is tested
against.  SFDM2 itself only ever intersects two *partition* matroids
(groups with quotas, clusters with capacity one) and runs
:func:`partition_intersection`, which reads the same decisions off
per-group and per-cluster counters: a differential test pins it to
:func:`matroid_intersection` pick for pick.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Hashable, Iterable, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.matroids.base import Matroid
from repro.utils.errors import InvalidParameterError


class AugmentationGraph:
    """The exchange graph of Definition 2 for a common independent set ``S``.

    The graph is materialised as adjacency lists over the ground set plus
    the two artificial terminals, exposed as the string sentinels
    ``AugmentationGraph.SOURCE`` and ``AugmentationGraph.SINK`` (the ground
    set holds arbitrary hashables, so sentinel objects avoid collisions by
    being private singletons).
    """

    SOURCE = object()
    SINK = object()

    def __init__(self, m1: Matroid, m2: Matroid, current: Set[Hashable]) -> None:
        if m1.ground_set != m2.ground_set:
            raise InvalidParameterError("both matroids must share the same ground set")
        if not (m1.is_independent(current) and m2.is_independent(current)):
            raise InvalidParameterError("current set must be independent in both matroids")
        self.m1 = m1
        self.m2 = m2
        self.current = set(current)
        self._adjacency: Dict[Hashable, List[Hashable]] = {}
        self._build()

    def _add_edge(self, u: Hashable, v: Hashable) -> None:
        self._adjacency.setdefault(u, []).append(v)

    def _build(self) -> None:
        ground = self.m1.ground_set
        outside = [x for x in ground if x not in self.current]
        inside = list(self.current)
        for x in outside:
            with_x = self.current | {x}
            addable_1 = self.m1.is_independent(with_x)
            addable_2 = self.m2.is_independent(with_x)
            if addable_1:
                self._add_edge(self.SOURCE, x)
            if addable_2:
                self._add_edge(x, self.SINK)
            if not addable_1:
                for y in inside:
                    if self.m1.is_independent(with_x - {y}):
                        self._add_edge(y, x)
            if not addable_2:
                for y in inside:
                    if self.m2.is_independent(with_x - {y}):
                        self._add_edge(x, y)

    def neighbors(self, node: Hashable) -> List[Hashable]:
        """Outgoing neighbours of ``node`` (empty list if none)."""
        return list(self._adjacency.get(node, []))

    def shortest_augmenting_path(self) -> Optional[List[Hashable]]:
        """A shortest source-to-sink path (excluding the terminals), or ``None``.

        Breadth-first search; ties are broken by insertion order of the
        adjacency lists, which makes the routine deterministic for a given
        ground-set iteration order.
        """
        parents: Dict[Hashable, Hashable] = {}
        visited = {self.SOURCE}
        queue = deque([self.SOURCE])
        while queue:
            node = queue.popleft()
            for neighbor in self._adjacency.get(node, []):
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                parents[neighbor] = node
                if neighbor is self.SINK:
                    path: List[Hashable] = []
                    walk = self.SINK
                    while walk is not self.SOURCE:
                        walk = parents[walk]
                        if walk is not self.SOURCE:
                            path.append(walk)
                    path.reverse()
                    return path
                queue.append(neighbor)
        return None


def greedy_common_independent(
    m1: Matroid,
    m2: Matroid,
    initial: Iterable[Hashable] = (),
    priority: Optional[Callable[[Hashable, Set[Hashable]], float]] = None,
    target_size: Optional[int] = None,
) -> Set[Hashable]:
    """Grow a common independent set by adding directly-addable elements.

    Starting from ``initial`` (which must already be common independent),
    repeatedly add an element that keeps the set independent in *both*
    matroids, until no such element exists.  When ``priority`` is given, the
    addable element maximizing ``priority(x, current)`` is chosen at each
    step — SFDM2 passes the distance to the current solution here so the
    greedy phase also maximizes diversity, mirroring GMM.

    This corresponds to lines 1–7 of the paper's Algorithm 4 and returns a
    set that may still be non-maximum; run :func:`matroid_intersection` on
    the result to finish the job.
    """
    current: Set[Hashable] = set(initial)
    if not (m1.is_independent(current) and m2.is_independent(current)):
        raise InvalidParameterError("initial set must be independent in both matroids")
    candidates = [x for x in m1.ground_set if x not in current]
    while target_size is None or len(current) < target_size:
        addable = [
            x
            for x in candidates
            if x not in current
            and m1.is_independent(current | {x})
            and m2.is_independent(current | {x})
        ]
        if not addable:
            return current
        if priority is None:
            chosen = addable[0]
        else:
            chosen = max(addable, key=lambda x: priority(x, current))
        current.add(chosen)
    return current


def matroid_intersection(
    m1: Matroid,
    m2: Matroid,
    initial: Iterable[Hashable] = (),
    priority: Optional[Callable[[Hashable, Set[Hashable]], float]] = None,
    target_size: Optional[int] = None,
) -> Set[Hashable]:
    """Maximum-cardinality common independent set of two matroids.

    Parameters
    ----------
    m1, m2:
        The matroids; they must share the same ground set.
    initial:
        A common independent set to start from (defaults to the empty set).
        Starting from a larger set saves augmentation rounds; correctness
        does not depend on it because Cunningham's algorithm augments any
        common independent set to a maximum one.
    priority:
        Optional priority used during the greedy warm-start phase (see
        :func:`greedy_common_independent`).
    target_size:
        If given, stop as soon as the set reaches this size (used by SFDM2,
        which only needs a set of size ``k``).

    Returns
    -------
    set
        A common independent set of maximum cardinality (or of
        ``target_size`` if that is reached first).
    """
    current = greedy_common_independent(
        m1, m2, initial=initial, priority=priority, target_size=target_size
    )
    while target_size is None or len(current) < target_size:
        graph = AugmentationGraph(m1, m2, current)
        path = graph.shortest_augmenting_path()
        if path is None:
            break
        # Augment: elements outside S on the path enter, elements of S leave.
        for item in path:
            if item in current:
                current.remove(item)
            else:
                current.add(item)
    return current


class PartitionIntersection(NamedTuple):
    """The outcome of :func:`partition_intersection`."""

    #: Pool indices of the selected items, ascending.
    selected: np.ndarray
    #: Distances the farthest-first warm start compared: the current set's
    #: size for every addable item, at every pick from a non-empty set.
    priority_evaluations: int
    #: Augmenting paths applied after the warm start.
    augmenting_paths: int


def partition_intersection(
    groups: np.ndarray,
    capacities: np.ndarray,
    clusters: np.ndarray,
    initial: Iterable[int] = (),
    distances: Optional[np.ndarray] = None,
    target_size: Optional[int] = None,
) -> PartitionIntersection:
    """Maximum common independent set of a group and a cluster partition matroid.

    The counter-based form of :func:`matroid_intersection` for the two
    matroids of SFDM2's post-processing: at most ``capacities[g]`` items of
    group ``g``, and at most one item per cluster.  Per-group and
    per-cluster counts answer every independence question in O(1):

    * the warm start adds, until none is left, the addable item farthest
      from the current set, keeping one running nearest-distance array
      updated from one row of ``distances`` per pick (the first addable
      item when ``distances`` is ``None``);
    * each augmenting path is a breadth-first search over the exchange
      graph read off the counts: the source reaches every unselected item
      of a group below capacity, an item whose cluster is free reaches the
      sink, an item whose cluster is taken leads to the member holding it,
      and a member leads to every unselected item of its (full) group.

    Parameters
    ----------
    groups:
        Group code of every pool item, an index into ``capacities``.
    capacities:
        Most items selectable per group code (0 for groups the constraint
        does not cover).
    clusters:
        Non-negative cluster code of every pool item.
    initial:
        Pool indices of a common independent starting set.
    distances:
        Pool distance matrix, ``distances[i, j] = d(i, j)``; drives the
        farthest-first warm start.
    target_size:
        Stop as soon as this many items are selected.

    Pool order is the tie-break order throughout.  Given the pool in the
    ground-set order of the generic matroids, the picks, ties and
    augmenting paths are those of :func:`matroid_intersection` with a
    distance-to-set priority.

    Raises
    ------
    InvalidParameterError
        If ``initial`` is not independent in both matroids.
    """
    groups = np.asarray(groups, dtype=np.intp)
    clusters = np.asarray(clusters, dtype=np.intp)
    capacities = np.asarray(capacities, dtype=np.int64)
    chosen = np.zeros(groups.shape[0], dtype=bool)
    group_count = np.zeros(capacities.shape[0], dtype=np.int64)
    holder = np.full(int(clusters.max(initial=-1)) + 1, -1, dtype=np.intp)

    def add(item: int) -> None:
        """Select ``item``: count it in its group and let it hold its cluster."""
        chosen[item] = True
        group_count[groups[item]] += 1
        holder[clusters[item]] = item

    for item in initial:
        if chosen[item]:
            continue
        if group_count[groups[item]] >= capacities[groups[item]] or holder[clusters[item]] >= 0:
            raise InvalidParameterError("initial set must be independent in both matroids")
        add(item)
    size = int(np.count_nonzero(chosen))

    evaluations = 0
    nearest = None
    if distances is not None:
        nearest = np.full(groups.shape[0], np.inf)
        for item in np.flatnonzero(chosen):
            np.minimum(nearest, distances[item], out=nearest)
    while target_size is None or size < target_size:
        addable = np.flatnonzero(
            ~chosen & (group_count[groups] < capacities[groups]) & (holder[clusters] < 0)
        )
        if not addable.size:
            break
        if nearest is None:
            pick = int(addable[0])
        else:
            if size:
                evaluations += size * addable.size
            pick = int(addable[np.argmax(nearest[addable])])
            np.minimum(nearest, distances[pick], out=nearest)
        add(pick)
        size += 1

    paths = 0
    while target_size is None or size < target_size:
        path = _counted_augmenting_path(groups, capacities, clusters, chosen, group_count, holder)
        if path is None:
            break
        leaving = [item for item in path if chosen[item]]
        for item in leaving:
            chosen[item] = False
            group_count[groups[item]] -= 1
            holder[clusters[item]] = -1
        for item in path:
            if item not in leaving:
                add(item)
        size += 1
        paths += 1
    return PartitionIntersection(np.flatnonzero(chosen), evaluations, paths)


def _counted_augmenting_path(
    groups: np.ndarray,
    capacities: np.ndarray,
    clusters: np.ndarray,
    chosen: np.ndarray,
    group_count: np.ndarray,
    holder: np.ndarray,
) -> Optional[List[int]]:
    """A shortest augmenting path of :func:`partition_intersection`'s exchange graph.

    Visits nodes in the order :meth:`AugmentationGraph.shortest_augmenting_path`
    visits the materialised graph, so it returns the same path.  A member
    leads to the unselected items of its group only while the group is
    full; otherwise the source reached all of them already.
    """
    unvisited, source = -2, -1
    parent = np.full(groups.shape[0], unvisited, dtype=np.intp)
    queue = deque(
        int(item)
        for item in np.flatnonzero(~chosen & (group_count[groups] < capacities[groups]))
    )
    parent[list(queue)] = source
    expanded_groups: Set[int] = set()
    while queue:
        node = queue.popleft()
        if chosen[node]:
            group = int(groups[node])
            if group in expanded_groups:
                continue
            expanded_groups.add(group)
            reached = np.flatnonzero(~chosen & (groups == group))
        else:
            member = int(holder[clusters[node]])
            if member < 0:
                path = [node]
                while parent[path[-1]] != source:
                    path.append(int(parent[path[-1]]))
                path.reverse()
                return path
            reached = (member,)
        for item in reached:
            if parent[item] == unvisited:
                parent[item] = node
                queue.append(int(item))
    return None


def is_common_independent(m1: Matroid, m2: Matroid, subset: Iterable[Hashable]) -> bool:
    """Convenience check used by tests: independent in both matroids."""
    subset = set(subset)
    return m1.is_independent(subset) and m2.is_independent(subset)


def intersection_upper_bound(m1: Matroid, m2: Matroid) -> int:
    """A cheap upper bound on the maximum common independent set size.

    The true optimum is ``min_{A ⊆ V} rank1(A) + rank2(V \\ A)``; evaluating
    that exactly is exponential, but ``A = ∅`` and ``A = V`` give the easy
    bound ``min(rank1(V), rank2(V))`` which is what the tests use to verify
    optimality on partition matroids (where the bound is tight whenever a
    perfect system of representatives exists).
    """
    return min(m1.full_rank(), m2.full_rank())
