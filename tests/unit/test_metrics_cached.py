"""Unit tests for the distance-counting metric decorator."""

import pytest

from repro.metrics.cached import CountingMetric
from repro.metrics.vector import EuclideanMetric


class TestCountingMetric:
    def test_counts_calls(self):
        metric = CountingMetric(EuclideanMetric())
        metric.distance([0, 0], [1, 1])
        metric.distance([0, 0], [2, 2])
        assert metric.calls == 2

    def test_reset(self):
        metric = CountingMetric(EuclideanMetric())
        metric.distance([0], [1])
        metric.reset()
        assert metric.calls == 0

    def test_delegates_value(self):
        inner = EuclideanMetric()
        metric = CountingMetric(inner)
        assert metric.distance([0, 0], [3, 4]) == pytest.approx(inner.distance([0, 0], [3, 4]))

    def test_name_mentions_inner(self):
        assert "euclidean" in CountingMetric(EuclideanMetric()).name

    def test_charge_adds_nominal_calls(self):
        metric = CountingMetric(EuclideanMetric())
        metric.charge(41)
        assert metric.calls == 41
