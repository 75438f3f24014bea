"""Unit tests for the concrete vector metrics."""

import math
import warnings

import numpy as np
import pytest

from repro.metrics.base import CallableMetric
from repro.metrics.vector import (
    AngularMetric,
    ChebyshevMetric,
    CosineDistanceMetric,
    EuclideanMetric,
    HammingMetric,
    ManhattanMetric,
    MinkowskiMetric,
    angular,
    chebyshev,
    cosine,
    euclidean,
    hamming,
    manhattan,
    minkowski,
)
from repro.utils.errors import InvalidParameterError


class TestEuclidean:
    def test_simple_distance(self):
        assert EuclideanMetric().distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_identity(self):
        assert EuclideanMetric().distance([1.5, -2.0], [1.5, -2.0]) == 0.0

    def test_symmetry(self):
        metric = EuclideanMetric()
        assert metric.distance([1, 2], [4, 6]) == pytest.approx(metric.distance([4, 6], [1, 2]))

    def test_accepts_numpy_arrays(self):
        assert EuclideanMetric().distance(np.array([0.0]), np.array([2.0])) == pytest.approx(2.0)

    def test_callable_alias(self):
        metric = EuclideanMetric()
        assert metric([0, 0], [1, 0]) == pytest.approx(1.0)


class TestManhattan:
    def test_simple_distance(self):
        assert ManhattanMetric().distance([0, 0], [3, 4]) == pytest.approx(7.0)

    def test_matches_hamming_on_binary_vectors(self):
        x = [1, 0, 1, 1, 0]
        y = [0, 0, 1, 0, 1]
        assert ManhattanMetric().distance(x, y) == HammingMetric().distance(x, y)


class TestChebyshev:
    def test_simple_distance(self):
        assert ChebyshevMetric().distance([0, 0], [3, 4]) == pytest.approx(4.0)

    def test_below_manhattan(self):
        x, y = [1, 2, 3], [4, 0, 8]
        assert ChebyshevMetric().distance(x, y) <= ManhattanMetric().distance(x, y)


class TestMinkowski:
    def test_p1_matches_manhattan(self):
        x, y = [1.0, -2.0, 3.0], [0.0, 4.0, 1.0]
        assert MinkowskiMetric(1).distance(x, y) == pytest.approx(
            ManhattanMetric().distance(x, y)
        )

    def test_p2_matches_euclidean(self):
        x, y = [1.0, -2.0, 3.0], [0.0, 4.0, 1.0]
        assert MinkowskiMetric(2).distance(x, y) == pytest.approx(
            EuclideanMetric().distance(x, y)
        )

    def test_invalid_order_rejected(self):
        with pytest.raises(InvalidParameterError):
            MinkowskiMetric(0.5)


class TestAngular:
    def test_orthogonal_vectors(self):
        assert AngularMetric().distance([1, 0], [0, 1]) == pytest.approx(math.pi / 2)

    def test_parallel_vectors(self):
        assert AngularMetric().distance([1, 1], [2, 2]) == pytest.approx(0.0, abs=1e-6)

    def test_opposite_vectors(self):
        assert AngularMetric().distance([1, 0], [-1, 0]) == pytest.approx(math.pi)

    def test_zero_vector_convention(self):
        metric = AngularMetric()
        assert metric.distance([0, 0], [0, 0]) == 0.0
        assert metric.distance([0, 0], [1, 0]) == pytest.approx(math.pi / 2)
        # The first row's norm underflows to zero; the kernel must follow the
        # zero-vector convention without a RuntimeWarning along the way.
        X = [[1e-200, 1e-200], [1, 2], [0, 0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batched = metric.pairwise(X)
        expected = np.array([[metric.distance(x, y) for y in X] for x in X])
        assert np.array_equal(batched, expected)

    def test_bounded_by_pi_over_2_for_nonnegative_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(0, 1, size=5)
            y = rng.uniform(0, 1, size=5)
            assert AngularMetric().distance(x, y) <= math.pi / 2 + 1e-9


class TestCosine:
    def test_identical_vectors(self):
        assert CosineDistanceMetric().distance([1, 2, 3], [2, 4, 6]) == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_vectors(self):
        assert CosineDistanceMetric().distance([1, 0], [0, 1]) == pytest.approx(1.0)

    def test_zero_vector_convention(self):
        assert CosineDistanceMetric().distance([0, 0], [1, 0]) == pytest.approx(1.0)


class TestHamming:
    def test_counts_differing_positions(self):
        assert HammingMetric().distance([1, 0, 1], [0, 0, 1]) == 1.0

    def test_works_on_strings(self):
        assert HammingMetric().distance(list("abc"), list("abd")) == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(InvalidParameterError):
            HammingMetric().distance([1, 0], [1, 0, 1])


class TestFactories:
    @pytest.mark.parametrize(
        "factory,cls",
        [
            (euclidean, EuclideanMetric),
            (manhattan, ManhattanMetric),
            (chebyshev, ChebyshevMetric),
            (angular, AngularMetric),
            (cosine, CosineDistanceMetric),
            (hamming, HammingMetric),
        ],
    )
    def test_factory_returns_instance(self, factory, cls):
        assert isinstance(factory(), cls)

    def test_minkowski_factory(self):
        assert isinstance(minkowski(3), MinkowskiMetric)


class TestCallableMetric:
    def test_wraps_function(self):
        metric = CallableMetric(lambda x, y: abs(x - y), name="absdiff")
        assert metric.distance(3, 5) == 2
        assert metric.name == "absdiff"

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            CallableMetric("not callable")

