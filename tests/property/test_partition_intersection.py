"""Differential tests: SFDM2's counter-based matroid intersection vs the generic one.

:func:`~repro.matroids.intersection.partition_intersection` reads SFDM2's two
partition matroids (groups with quotas, clusters with capacity one) off
counters.  The generic, oracle-based
:func:`~repro.matroids.intersection.matroid_intersection` over
:func:`~repro.matroids.partition.matroid_from_constraint` and
:class:`~repro.matroids.cluster.ClusterMatroid` is the reference:

* on seeded instances — one to four groups, unit and skewed quotas, a group
  outside the constraint, duplicate rows and integer-grid points (exact
  distance ties), the warm start on and off, and instances where the warm
  start gets stuck so augmenting paths must run — both pick the same set
  and read the same number of distances;
* an SFDM2 post-processed through the generic matroids returns the same
  uids, diversity and distance counts as the library's SFDM2, under a
  batched Euclidean metric, a kernel-less callable one, and a squared
  distance whose clusters can join members of the group-blind seed.
"""

import math
from typing import Dict, List

import numpy as np
import pytest

from repro.core.postprocess import (
    cluster_elements,
    distance_to_set,
    pool_distances,
    threshold_clusters,
)
from repro.core.sfdm2 import SFDM2
from repro.core.solution import FairSolution
from repro.data.element import Element
from repro.fairness.constraints import FairnessConstraint
from repro.matroids.cluster import ClusterMatroid
from repro.matroids.intersection import matroid_intersection, partition_intersection
from repro.matroids.partition import matroid_from_constraint
from repro.metrics.base import CallableMetric
from repro.metrics.vector import EuclideanMetric
from repro.utils.errors import InvalidParameterError

METRIC = EuclideanMetric()

QUOTAS = {
    "m1-unit": {0: 1},
    "m1": {0: 3},
    "m2-unit": {0: 1, 1: 1},
    "m2-skewed": {0: 3, 1: 1},
    "m3-unit": {0: 1, 1: 1, 2: 1},
    "m3-skewed": {0: 1, 1: 4, 2: 2},
    "m4-unit": {0: 1, 1: 1, 2: 1, 3: 1},
    "m4-skewed": {0: 2, 1: 1, 2: 3, 3: 1},
}

KINDS = ("normal", "grid", "duplicates")


def _points(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` planar points; ``grid`` and ``duplicates`` produce exact distance ties."""
    if kind == "normal":
        return rng.normal(size=(n, 2))
    if kind == "grid":
        return rng.integers(0, 6, size=(n, 2)).astype(float)
    distinct = rng.normal(size=(max(2, n // 3), 2))
    return distinct[rng.integers(0, len(distinct), size=n)]


def _elements(points: np.ndarray, groups: np.ndarray, rng: np.random.Generator) -> List[Element]:
    """Elements with scattered uids, so the pool's set order is not uid order."""
    uids = rng.choice(10 * len(points), size=len(points), replace=False)
    return [
        Element(uid=int(uid), vector=point, group=int(group))
        for uid, point, group in zip(uids, points, groups)
    ]


def _codes(ground: List[Element], quotas: Dict[int, int]):
    """Group codes and capacities as SFDM2 builds them (outside groups: capacity 0)."""
    code_of = {group: code for code, group in enumerate(quotas)}
    codes = np.array([code_of.get(element.group, len(quotas)) for element in ground])
    return codes, np.array([*quotas.values(), 0])


def _generic(elements, ground, distances, clusters, quotas, initial, greedy, target):
    """The generic route: oracle matroids, distance-to-set priority read off ``distances``.

    Returns the selected pool indices, ascending, and the number of
    distances the priority read.
    """
    position = {element.uid: index for index, element in enumerate(ground)}
    members: Dict[int, List[Element]] = {}
    for element, code in zip(ground, clusters):
        members.setdefault(int(code), []).append(element)
    reads = [0]

    def priority(item: Element, current) -> float:
        if not current:
            return math.inf
        reads[0] += len(current)
        return min(distances[position[item.uid], position[other.uid]] for other in current)

    # Built from ``elements`` — the list ``ground`` was read from — so the
    # generic matroids walk their ground set in ``ground`` order.
    chosen = matroid_intersection(
        matroid_from_constraint(elements, FairnessConstraint(quotas)),
        ClusterMatroid(list(members.values())),
        initial=[ground[index] for index in initial],
        priority=priority if greedy else None,
        target_size=target,
    )
    return sorted(position[element.uid] for element in chosen), reads[0]


def _assert_same(elements, distances, clusters, quotas, initial, greedy, target):
    """Run both routes on one instance; return the counter route's result."""
    ground = list(frozenset(elements))
    codes, capacities = _codes(ground, quotas)
    result = partition_intersection(
        codes,
        capacities,
        clusters,
        initial=initial,
        distances=distances if greedy else None,
        target_size=target,
    )
    expected, reads = _generic(
        elements, ground, distances, clusters, quotas, initial, greedy, target
    )
    assert result.selected.tolist() == expected
    assert result.priority_evaluations == (reads if greedy else 0)
    return result


def _threshold_instance(quotas, kind, seed, n=30):
    """A pool clustered at a seeded distance threshold, as SFDM2 builds one."""
    rng = np.random.default_rng(seed)
    points = _points(kind, n, rng)
    elements = _elements(points, rng.integers(0, len(quotas) + 1, size=n), rng)
    ground = list(frozenset(elements))
    distances = pool_distances(ground, METRIC)
    threshold = float(np.quantile(distances[np.triu_indices(n, k=1)], rng.uniform(0.01, 0.08)))
    return elements, ground, distances, threshold_clusters(distances, max(threshold, 1e-9))


def _independent_prefix(order, codes, capacities, clusters):
    """The items of ``order`` a greedy pass keeps independent in both matroids."""
    counts = np.zeros(len(capacities), dtype=int)
    taken, kept = set(), []
    for item in order:
        item = int(item)
        if counts[codes[item]] < capacities[codes[item]] and int(clusters[item]) not in taken:
            counts[codes[item]] += 1
            taken.add(int(clusters[item]))
            kept.append(item)
    return kept


class TestAgainstGenericIntersection:
    @pytest.mark.parametrize("quotas", QUOTAS.values(), ids=list(QUOTAS))
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("greedy", [True, False], ids=["warm", "first-addable"])
    @pytest.mark.parametrize("seed", range(4))
    def test_threshold_clustered_pools(self, quotas, kind, greedy, seed):
        elements, ground, distances, clusters = _threshold_instance(quotas, kind, seed)
        codes, capacities = _codes(ground, quotas)
        rng = np.random.default_rng(seed + 100)
        # A seeded partial solution, as SFDM2 seeds one from its blind candidate.
        initial = _independent_prefix(
            rng.permutation(len(ground))[: sum(quotas.values()) // 2],
            codes,
            capacities,
            clusters,
        )
        target = sum(quotas.values())
        for start in ([], initial):
            _assert_same(elements, distances, clusters, quotas, start, greedy, target)
            _assert_same(elements, distances, clusters, quotas, start, greedy, None)

    def test_stuck_warm_starts_run_augmenting_paths(self):
        """Few clusters and a random maximal start: the warm start adds nothing."""
        paths = []
        for seed in range(300):
            rng = np.random.default_rng(seed)
            quotas = list(QUOTAS.values())[seed % len(QUOTAS)]
            n = int(rng.integers(10, 30))
            elements = _elements(
                _points(KINDS[seed % 3], n, rng), rng.integers(0, len(quotas) + 1, size=n), rng
            )
            ground = list(frozenset(elements))
            distances = pool_distances(ground, METRIC)
            clusters = rng.integers(0, n // 3, size=n)
            codes, capacities = _codes(ground, quotas)
            initial = _independent_prefix(rng.permutation(n), codes, capacities, clusters)
            for greedy in (True, False):
                result = _assert_same(
                    elements, distances, clusters, quotas, initial, greedy, None
                )
                paths.append(result.augmenting_paths)
        assert sum(count > 0 for count in paths) >= 80
        assert max(paths) >= 2

    def test_three_step_exchange(self):
        # a1 holds group 0 and cluster 0, so b1 (group 1, cluster 0) and a2
        # (group 0, cluster 1) are both blocked: only b1 -> a1 -> a2 helps.
        elements = _elements(
            np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 5.0]]),
            np.array([0, 1, 0]),
            np.random.default_rng(0),
        )
        a1, b1, a2 = elements
        ground = list(frozenset(elements))
        position = {element.uid: index for index, element in enumerate(ground)}
        clusters = np.array([{a1.uid: 0, b1.uid: 0, a2.uid: 1}[e.uid] for e in ground])
        distances = pool_distances(ground, METRIC)
        result = _assert_same(
            elements, distances, clusters, {0: 1, 1: 1}, [position[a1.uid]], True, None
        )
        assert sorted(ground[index].uid for index in result.selected) == sorted(
            [b1.uid, a2.uid]
        )
        assert result.augmenting_paths == 1

    def test_three_sequential_augmentations(self):
        # Three disjoint copies of the three-step exchange, six groups of
        # quota 1.  Copy j: a_j (group 2j, cluster 2j) blocks both b_j
        # (group 2j+1, cluster 2j) and a'_j (group 2j, cluster 2j+1), so
        # nothing is directly addable and each copy takes its own path.
        points, groups, codes = [], [], []
        for j in range(3):
            points += [[10.0 * j, 0.0], [10.0 * j, 1.0], [10.0 * j + 5.0, 5.0]]
            groups += [2 * j, 2 * j + 1, 2 * j]
            codes += [2 * j, 2 * j, 2 * j + 1]
        elements = _elements(np.array(points), np.array(groups), np.random.default_rng(2))
        cluster_of = {element.uid: code for element, code in zip(elements, codes)}
        ground = list(frozenset(elements))
        position = {element.uid: index for index, element in enumerate(ground)}
        clusters = np.array([cluster_of[element.uid] for element in ground])
        start = [position[elements[3 * j].uid] for j in range(3)]
        quotas = {group: 1 for group in range(6)}
        for greedy in (True, False):
            result = _assert_same(
                elements, pool_distances(ground, METRIC), clusters, quotas, start, greedy, None
            )
            assert result.augmenting_paths == 3
            assert sorted(ground[index].uid for index in result.selected) == sorted(
                element.uid for j in range(3) for element in elements[3 * j + 1 : 3 * j + 3]
            )

    def test_five_step_exchange(self):
        # Start {a1, b1}: c1 needs b1's cluster, b1 can move to b2, which
        # needs a1's cluster, and a1 can move to the free a2.
        elements = _elements(
            np.arange(10.0).reshape(5, 2), np.array([0, 1, 2, 1, 0]), np.random.default_rng(1)
        )
        a1, b1, c1, b2, a2 = elements
        cluster_of = {a1.uid: 0, b1.uid: 1, c1.uid: 1, b2.uid: 0, a2.uid: 2}
        ground = list(frozenset(elements))
        position = {element.uid: index for index, element in enumerate(ground)}
        clusters = np.array([cluster_of[element.uid] for element in ground])
        start = [position[a1.uid], position[b1.uid]]
        result = _assert_same(
            elements,
            pool_distances(ground, METRIC),
            clusters,
            {0: 1, 1: 1, 2: 1},
            start,
            True,
            None,
        )
        assert sorted(ground[index].uid for index in result.selected) == sorted(
            [c1.uid, b2.uid, a2.uid]
        )
        assert result.augmenting_paths == 1

    def test_rejects_dependent_start(self):
        with pytest.raises(InvalidParameterError):
            partition_intersection(
                np.array([0, 0]), np.array([1]), np.array([0, 1]), initial=[0, 1]
            )
        with pytest.raises(InvalidParameterError):
            partition_intersection(
                np.array([0, 1]), np.array([1, 1]), np.array([0, 0]), initial=[0, 1]
            )


class GenericSFDM2(SFDM2):
    """SFDM2 post-processed through the generic, oracle-based matroids."""

    def _extract_guess(self, level, mu, blind, specific, metric):
        elements = self._generic_guess(mu, blind, specific, metric)
        if elements is None:
            return None
        solution = FairSolution(elements, metric, self.constraint)
        return solution if solution.is_fair else None

    def _generic_guess(self, mu, blind, specific, metric):
        initial: List[Element] = []
        taken = {group: 0 for group in self.constraint.groups}
        for element in blind.elements:
            quota = self.constraint.quotas.get(element.group)
            if quota is not None and taken[element.group] < quota:
                initial.append(element)
                taken[element.group] += 1
        pool: Dict[int, Element] = {}
        for element in blind.elements:
            pool.setdefault(element.uid, element)
        for candidate in specific.values():
            for element in candidate:
                pool.setdefault(element.uid, element)
        everything = list(pool.values())
        clusters = cluster_elements(
            everything, mu / (self.constraint.num_groups + 1), metric
        )
        fairness = matroid_from_constraint(everything, self.constraint)
        cluster_matroid = ClusterMatroid(clusters)
        start = set()
        for element in initial:
            if fairness.is_independent(start | {element}) and cluster_matroid.is_independent(
                start | {element}
            ):
                start.add(element)
        chosen = matroid_intersection(
            fairness,
            cluster_matroid,
            initial=start,
            priority=(
                (lambda element, current: distance_to_set(element, list(current), metric))
                if self.greedy_augmentation
                else None
            ),
            target_size=self.constraint.total_size,
        )
        if len(chosen) < self.constraint.total_size:
            return None
        return sorted(chosen, key=lambda element: element.uid)


def _kernel_less_euclidean():
    return CallableMetric(
        lambda x, y: float(np.sqrt(np.sum((np.asarray(x) - np.asarray(y)) ** 2))),
        name="euclidean-callable",
    )


class SquaredEuclidean(EuclideanMetric):
    """Squared Euclidean distances, which break the triangle inequality.

    Lemma 3(ii) then no longer keeps the group-blind candidate's members in
    distinct clusters, so SFDM2's seed filter has members to drop.
    """

    name = "squared-euclidean"

    def distance(self, x, y):
        return super().distance(x, y) ** 2

    def distances_to(self, point, X):
        return super().distances_to(point, X) ** 2

    def pairwise(self, X, Y=None):
        return super().pairwise(X, Y) ** 2


def _stream(quotas, kind, seed, n):
    rng = np.random.default_rng(seed)
    points = _points(kind, n, rng) * 4.0
    groups = rng.integers(0, len(quotas) + 1, size=n)  # the last group is unconstrained
    return [
        Element(uid=uid, vector=point, group=int(group))
        for uid, (point, group) in enumerate(zip(points, groups))
    ]


def _run_both(metric, quotas, stream, greedy):
    constraint = FairnessConstraint(quotas)
    results = [
        algorithm(metric, constraint, epsilon=0.2, greedy_augmentation=greedy).run(stream)
        for algorithm in (SFDM2, GenericSFDM2)
    ]
    counted, generic = results
    assert counted.solution.uids == generic.solution.uids
    assert counted.solution.diversity == generic.solution.diversity
    assert counted.solution.is_fair
    assert (
        counted.stats.postprocess_distance_computations
        == generic.stats.postprocess_distance_computations
    )
    assert counted.stats.extra == generic.stats.extra
    return counted


class TestAgainstGenericSFDM2:
    @pytest.mark.parametrize("quotas", QUOTAS.values(), ids=list(QUOTAS))
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("greedy", [True, False], ids=["warm", "first-addable"])
    def test_euclidean(self, quotas, kind, greedy):
        result = _run_both(METRIC, quotas, _stream(quotas, kind, 11, 400), greedy)
        assert result.stats.extra["eligible_guesses"] > 0

    @pytest.mark.parametrize("quotas", [QUOTAS["m2-skewed"], QUOTAS["m3-unit"]], ids=["m2", "m3"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("greedy", [True, False], ids=["warm", "first-addable"])
    def test_kernel_less_metric(self, quotas, kind, greedy):
        result = _run_both(
            _kernel_less_euclidean(), quotas, _stream(quotas, kind, 5, 150), greedy
        )
        assert result.stats.extra["eligible_guesses"] > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_distance_without_triangle_inequality(self, seed):
        quotas = QUOTAS["m3-skewed"]
        _run_both(SquaredEuclidean(), quotas, _stream(quotas, "normal", seed, 300), True)
