"""Unit tests for MetricSpace and the pairwise-distance helpers."""

import numpy as np
import pytest

from repro.metrics.space import (
    MetricSpace,
    distance_range,
    estimate_distance_bounds,
    exact_distance_bounds,
    pairwise_distances,
)
from repro.metrics.vector import EuclideanMetric
from repro.data.element import Element
from repro.utils.errors import InvalidParameterError


def _line_elements(count=5, group_period=2):
    return [
        Element(uid=i, vector=np.array([float(i), 0.0]), group=i % group_period)
        for i in range(count)
    ]


class TestPairwiseDistances:
    def test_matrix_shape_and_symmetry(self, euclidean_metric):
        elements = _line_elements(4)
        matrix = pairwise_distances(elements, euclidean_metric)
        assert matrix.shape == (4, 4)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_values(self, euclidean_metric):
        elements = _line_elements(3)
        matrix = pairwise_distances(elements, euclidean_metric)
        assert matrix[0, 2] == pytest.approx(2.0)


class TestDistanceBounds:
    def test_exact_bounds_on_line(self, euclidean_metric):
        d_min, d_max = exact_distance_bounds(_line_elements(5), euclidean_metric)
        assert d_min == pytest.approx(1.0)
        assert d_max == pytest.approx(4.0)

    def test_exact_bounds_ignore_duplicates(self, euclidean_metric):
        elements = _line_elements(3) + [Element(uid=99, vector=np.array([0.0, 0.0]), group=0)]
        d_min, _ = exact_distance_bounds(elements, euclidean_metric)
        assert d_min == pytest.approx(1.0)

    def test_exact_bounds_require_two_elements(self, euclidean_metric):
        with pytest.raises(InvalidParameterError):
            exact_distance_bounds(_line_elements(1), euclidean_metric)

    def test_estimated_bounds_bracket_exact(self, euclidean_metric):
        elements = _line_elements(50)
        d_min_exact, d_max_exact = exact_distance_bounds(elements, euclidean_metric)
        d_min_est, d_max_est = estimate_distance_bounds(
            elements, euclidean_metric, sample_size=10, seed=0
        )
        assert d_min_est <= d_min_exact
        assert d_max_est >= d_max_exact

    def test_all_identical_points_fall_back(self, euclidean_metric):
        elements = [Element(uid=i, vector=np.array([1.0, 1.0]), group=0) for i in range(3)]
        d_min, d_max = exact_distance_bounds(elements, euclidean_metric)
        assert d_min > 0
        assert d_max >= d_min * 0  # no crash; d_max may be 0-adjusted upward
        assert d_max >= 0


class TestDistanceRange:
    def test_smallest_positive_and_largest(self, euclidean_metric):
        payloads = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        assert distance_range(payloads, euclidean_metric) == (1.0, 5.0)

    def test_one_repeated_point_has_no_positive_distance(self, euclidean_metric):
        assert distance_range(np.ones((4, 2)), euclidean_metric) == (float("inf"), 0.0)

    def test_overflowing_distances_name_the_feature_scale(self, euclidean_metric):
        payloads = np.array([[1e300, 0.0], [-1e300, 0.0], [0.0, 0.0]])
        shown = r"inf apart; the largest absolute feature value among the estimate's rows is 1e\+300"
        with pytest.raises(InvalidParameterError, match=shown):
            distance_range(payloads, euclidean_metric)
        with pytest.raises(InvalidParameterError, match=shown):
            exact_distance_bounds(
                [Element(uid=i, vector=row, group=0) for i, row in enumerate(payloads)],
                euclidean_metric,
            )

    def test_non_finite_features_are_named_as_such(self, euclidean_metric):
        payloads = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(InvalidParameterError, match="nan apart; features must be finite"):
            distance_range(payloads, euclidean_metric)


class TestMetricSpace:
    def test_len_and_iter(self, euclidean_metric):
        space = MetricSpace(_line_elements(4), euclidean_metric)
        assert len(space) == 4
        assert len(list(space)) == 4

    def test_distance_between_elements(self, euclidean_metric):
        elements = _line_elements(3)
        space = MetricSpace(elements, euclidean_metric)
        assert space.distance(elements[0], elements[2]) == pytest.approx(2.0)

    def test_distance_to_set(self, euclidean_metric):
        elements = _line_elements(5)
        space = MetricSpace(elements, euclidean_metric)
        assert space.distance_to_set(elements[0], elements[2:]) == pytest.approx(2.0)
        assert space.distance_to_set(elements[0], []) == float("inf")

    def test_diversity(self, euclidean_metric):
        elements = _line_elements(5)
        space = MetricSpace(elements, euclidean_metric)
        assert space.diversity([elements[0], elements[2], elements[4]]) == pytest.approx(2.0)
        assert space.diversity([elements[0]]) == float("inf")

    def test_groups_and_sizes(self, euclidean_metric):
        space = MetricSpace(_line_elements(5), euclidean_metric)
        assert space.groups() == [0, 1]
        assert space.group_sizes() == {0: 3, 1: 2}

    def test_subset_by_group(self, euclidean_metric):
        space = MetricSpace(_line_elements(4), euclidean_metric)
        assert all(e.group == 1 for e in space.subset_by_group(1))

    def test_distance_bounds_exact_and_sampled(self, euclidean_metric):
        space = MetricSpace(_line_elements(10), euclidean_metric)
        exact = space.distance_bounds(exact=True)
        sampled = space.distance_bounds(exact=False, seed=1)
        assert exact[0] <= exact[1]
        assert sampled[0] <= sampled[1]
