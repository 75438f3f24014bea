"""Unit tests for the composable-coreset utilities."""

import numpy as np
import pytest

import repro
from repro.core.coreset import (
    composable_fair_coreset,
    coreset_fair_diversity,
    gmm_coreset,
    partition_elements,
)
from repro.core.solution import diversity_of
from repro.baselines.exact import exact_fdm
from repro.fairness.constraints import FairnessConstraint, equal_representation
from repro.metrics.cached import CountingMetric
from repro.metrics.vector import EuclideanMetric
from repro.data.element import Element
from repro.utils.errors import InvalidParameterError

METRIC = EuclideanMetric()


def _elements(count, period=2, scale=1.0):
    return [
        Element(uid=i, vector=np.array([scale * i, 0.0]), group=i % period)
        for i in range(count)
    ]


class TestPartitionElements:
    def test_covers_all_elements(self):
        elements = _elements(10)
        parts = partition_elements(elements, 3)
        assert sum(len(part) for part in parts) == 10
        assert len(parts) == 3
        assert all(part for part in parts)

    def test_near_equal_sizes(self):
        parts = partition_elements(_elements(10), 4)
        sizes = [len(part) for part in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_more_parts_than_elements_caps_gracefully(self):
        parts = partition_elements(_elements(3), 5)
        assert len(parts) == 3
        assert all(len(part) == 1 for part in parts)
        assert sorted(e.uid for part in parts for e in part) == [0, 1, 2]

    def test_empty_input_yields_no_parts(self):
        assert partition_elements([], 4) == []

    def test_non_positive_parts_rejected(self):
        with pytest.raises(InvalidParameterError):
            partition_elements(_elements(3), 0)


class TestGmmCoreset:
    def test_size_bounded_by_k(self):
        summary = gmm_coreset(_elements(50, period=1), METRIC, 5)
        assert len(summary) == 5

    def test_per_group_keeps_all_groups(self):
        summary = gmm_coreset(_elements(50, period=3), METRIC, 4, per_group=True)
        assert {e.group for e in summary} == {0, 1, 2}

    def test_no_duplicate_uids(self):
        summary = gmm_coreset(_elements(30), METRIC, 10, per_group=True)
        uids = [e.uid for e in summary]
        assert len(uids) == len(set(uids))

    def test_start_index_is_deterministic_and_modular(self):
        elements = _elements(20, period=2)
        seeded = gmm_coreset(elements, METRIC, 4, per_group=True, start_index=7)
        again = gmm_coreset(elements, METRIC, 4, per_group=True, start_index=7)
        assert [e.uid for e in seeded] == [e.uid for e in again]
        # Any non-negative start is valid: it is reduced modulo the pool size.
        huge = gmm_coreset(elements, METRIC, 4, per_group=True, start_index=10_007)
        assert {e.group for e in huge} == {0, 1}

    def test_empty_input_yields_empty_summary(self):
        assert gmm_coreset([], METRIC, 3, per_group=True) == []


class TestComposableFairCoreset:
    def test_union_contains_every_group(self):
        elements = _elements(60, period=3)
        parts = partition_elements(elements, 4)
        coreset = composable_fair_coreset(parts, METRIC, 4)
        assert {e.group for e in coreset} == {0, 1, 2}
        assert len(coreset) < len(elements)

    def test_empty_parts_skipped(self):
        elements = _elements(10)
        coreset = composable_fair_coreset([elements, []], METRIC, 3)
        assert coreset


class TestCoresetFairDiversity:
    def test_returns_fair_solution(self):
        elements = _elements(80, period=2)
        constraint = equal_representation(6, [0, 1])
        solution = coreset_fair_diversity(elements, METRIC, constraint, num_parts=4)
        assert solution.is_fair
        assert solution.size == 6

    def test_competitive_with_exact_on_small_instance(self):
        elements = _elements(16, period=2)
        constraint = equal_representation(4, [0, 1])
        solution = coreset_fair_diversity(elements, METRIC, constraint, num_parts=2)
        _, optimum = exact_fdm(elements, METRIC, constraint)
        assert solution.diversity >= optimum / 4 - 1e-9

    def test_empty_input_rejected(self):
        constraint = equal_representation(4, [0, 1])
        with pytest.raises(InvalidParameterError):
            coreset_fair_diversity([], METRIC, constraint)

    def test_refinement_never_hurts(self):
        rng = np.random.default_rng(3)
        elements = [
            Element(uid=i, vector=rng.uniform(0, 100, size=2), group=i % 2) for i in range(60)
        ]
        constraint = equal_representation(6, [0, 1])
        plain = coreset_fair_diversity(
            elements, METRIC, constraint, num_parts=3, refine_with_swap=False
        )
        refined = coreset_fair_diversity(
            elements, METRIC, constraint, num_parts=3, refine_with_swap=True
        )
        assert refined.diversity >= plain.diversity - 1e-12

    def test_run_charges_its_distance_evaluations(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(2000, 4))
        groups = rng.integers(0, 2, 2000)
        result = repro.solve(features, groups=groups, k=10, algorithm="Coreset")
        elements = [
            Element(uid=i, vector=row, group=group)
            for i, (row, group) in enumerate(zip(features, groups))
        ]
        counting = CountingMetric(METRIC)
        direct = coreset_fair_diversity(
            elements, counting, equal_representation(10, [0, 1]), num_parts=4
        )
        assert sorted(result.solution.uids) == sorted(direct.uids)
        assert result.stats.stream_distance_computations == counting.calls > 0
        assert result.stats.postprocess_distance_computations == 0
