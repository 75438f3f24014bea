"""Property-based tests: batch kernels agree with the scalar distance.

For every built-in metric, ``Metric.distances_to`` and ``Metric.pairwise``
must reproduce the scalar ``Metric.distance`` entry-by-entry to ``1e-9`` on
random inputs — this is the contract that lets the batched ingestion path,
the vectorized baselines, and the evaluation helpers substitute kernels for
scalar loops without changing any algorithm's output.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.metrics.base import CallableMetric
from repro.metrics.cached import CountingMetric
from repro.metrics.matrix import PrecomputedMetric
from repro.metrics.vector import (
    AngularMetric,
    ChebyshevMetric,
    CosineDistanceMetric,
    EuclideanMetric,
    HammingMetric,
    ManhattanMetric,
    MinkowskiMetric,
)

DIM = 4

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)
vectors = arrays(dtype=float, shape=DIM, elements=finite_floats)
stacks = st.lists(vectors, min_size=1, max_size=8).map(np.asarray)

ALL_VECTOR_METRICS = [
    EuclideanMetric(),
    ManhattanMetric(),
    ChebyshevMetric(),
    MinkowskiMetric(3),
    AngularMetric(),
    CosineDistanceMetric(),
    HammingMetric(),
]


def _coerce(metric, array):
    """Binarise inputs for the Hamming metric, pass others through."""
    if metric.name == "hamming":
        return (np.asarray(array) > 0).astype(int)
    return array


@pytest.mark.parametrize("metric", ALL_VECTOR_METRICS, ids=lambda m: m.name)
class TestBatchScalarAgreement:
    @given(point=vectors, X=stacks)
    @settings(max_examples=40, deadline=None)
    def test_distances_to_matches_scalar(self, metric, point, X):
        point, X = _coerce(metric, point), _coerce(metric, X)
        batched = metric.distances_to(point, X)
        expected = np.array([metric.distance(point, row) for row in X])
        assert batched.shape == (len(X),)
        np.testing.assert_allclose(batched, expected, rtol=1e-9, atol=1e-9)

    @given(X=stacks, Y=stacks)
    @settings(max_examples=40, deadline=None)
    def test_pairwise_matches_scalar(self, metric, X, Y):
        X, Y = _coerce(metric, X), _coerce(metric, Y)
        batched = metric.pairwise(X, Y)
        expected = np.array([[metric.distance(x, y) for y in Y] for x in X])
        assert batched.shape == (len(X), len(Y))
        np.testing.assert_allclose(batched, expected, rtol=1e-9, atol=1e-9)

    @given(X=stacks)
    @settings(max_examples=30, deadline=None)
    def test_self_pairwise_matches_scalar(self, metric, X):
        X = _coerce(metric, X)
        batched = metric.pairwise(X)
        expected = np.array([[metric.distance(x, y) for y in X] for x in X])
        np.testing.assert_allclose(batched, expected, rtol=1e-9, atol=1e-9)
        # Zero diagonal and symmetry come for free from the scalar agreement
        # but are cheap to pin explicitly.
        np.testing.assert_allclose(np.diag(batched), 0.0, atol=1e-9)


class TestZeroVectorConventions:
    """The angular/cosine zero-vector conventions survive vectorization."""

    @pytest.mark.parametrize("metric", [AngularMetric(), CosineDistanceMetric()], ids=lambda m: m.name)
    def test_zero_vectors_in_batch(self, metric):
        zero = np.zeros(DIM)
        nonzero = np.ones(DIM)
        X = np.vstack([zero, nonzero])
        expected_to_zero = np.array([metric.distance(zero, row) for row in X])
        np.testing.assert_allclose(metric.distances_to(zero, X), expected_to_zero)
        expected_matrix = np.array([[metric.distance(x, y) for y in X] for x in X])
        np.testing.assert_allclose(metric.pairwise(X), expected_matrix)


class TestDecoratorKernels:
    def test_counting_metric_charges_batch_calls(self):
        counting = CountingMetric(EuclideanMetric())
        X = np.arange(12.0).reshape(4, 3)
        counting.distances_to(np.zeros(3), X)
        assert counting.calls == 4
        counting.pairwise(X, X[:2])
        assert counting.calls == 4 + 8

    def test_callable_metric_uses_scalar_fallback(self):
        calls = [0]

        def first_coord(x, y):
            calls[0] += 1
            return abs(float(x[0]) - float(y[0]))

        metric = CallableMetric(first_coord, name="first-coord")
        X = np.array([[1.0, 9.0], [4.0, 9.0]])
        np.testing.assert_allclose(metric.distances_to(np.array([2.0, 0.0]), X), [1.0, 2.0])
        np.testing.assert_allclose(metric.pairwise(X), [[0.0, 3.0], [3.0, 0.0]])
        # pairwise(X) evaluates each unordered pair once; pairwise(X, Y) every pair.
        X = np.arange(14.0).reshape(7, 2)
        calls[0] = 0
        self_matrix = metric.pairwise(X)
        assert calls[0] == 7 * 6 // 2
        np.testing.assert_array_equal(self_matrix, np.abs(X[:, :1] - X[:, 0]))
        calls[0] = 0
        assert metric.pairwise(X, X[:3]).shape == (7, 3)
        assert calls[0] == 7 * 3


class TestPrecomputedKernels:
    def test_matches_scalar_lookups(self):
        rng = np.random.default_rng(5)
        matrix = rng.random((7, 7))
        matrix = (matrix + matrix.T) / 2.0
        np.fill_diagonal(matrix, 0.0)
        metric = PrecomputedMetric(matrix)
        rows = np.array([0, 2, 6])
        cols = np.array([1, 5])
        np.testing.assert_allclose(
            metric.pairwise(rows, cols),
            [[metric.distance(i, j) for j in cols] for i in rows],
        )
        np.testing.assert_allclose(
            metric.distances_to(3, rows), [metric.distance(3, i) for i in rows]
        )
