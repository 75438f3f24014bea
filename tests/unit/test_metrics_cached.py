"""Unit tests for the metric decorators (counting and caching)."""

import pytest

from repro.metrics.cached import CachedMetric, CountingMetric
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


class TestCachedMetric:
    def test_keyed_lookup_hits_cache(self):
        metric = CachedMetric(EuclideanMetric())
        first = metric.distance_keyed(1, [0, 0], 2, [1, 1])
        second = metric.distance_keyed(2, [1, 1], 1, [0, 0])
        assert first == pytest.approx(second)
        assert metric.hits == 1
        assert metric.misses == 1

    def test_same_key_distance_is_zero(self):
        metric = CachedMetric(EuclideanMetric())
        assert metric.distance_keyed(5, [1, 2], 5, [1, 2]) == 0.0

    def test_plain_distance_not_cached(self):
        metric = CachedMetric(EuclideanMetric())
        metric.distance([0, 0], [1, 1])
        assert len(metric) == 0

    def test_maxsize_respected(self):
        metric = CachedMetric(EuclideanMetric(), maxsize=1)
        metric.distance_keyed(1, [0], 2, [1])
        metric.distance_keyed(1, [0], 3, [2])
        assert len(metric) == 1

    def test_lru_eviction_order(self):
        metric = CachedMetric(EuclideanMetric(), maxsize=2)
        metric.distance_keyed(1, [0.0], 2, [1.0])  # pair (1,2)
        metric.distance_keyed(1, [0.0], 3, [2.0])  # pair (1,3)
        metric.distance_keyed(1, [0.0], 2, [1.0])  # touch (1,2): (1,3) is now LRU
        metric.distance_keyed(1, [0.0], 4, [3.0])  # evicts (1,3)
        assert metric.evictions == 1
        hits_before = metric.hits
        metric.distance_keyed(2, [1.0], 1, [0.0])  # (1,2) survived the eviction
        assert metric.hits == hits_before + 1
        metric.distance_keyed(3, [2.0], 1, [0.0])  # (1,3) was evicted: a miss
        assert metric.misses == 3 + 1

    def test_new_entries_cached_after_capacity(self):
        # The bounded cache must keep admitting *new* pairs (evicting old
        # ones), not freeze its contents once full.
        metric = CachedMetric(EuclideanMetric(), maxsize=1)
        metric.distance_keyed(1, [0.0], 2, [1.0])
        metric.distance_keyed(1, [0.0], 3, [5.0])
        hits_before = metric.hits
        metric.distance_keyed(3, [5.0], 1, [0.0])
        assert metric.hits == hits_before + 1

    def test_stats_reporting(self):
        metric = CachedMetric(EuclideanMetric(), maxsize=8)
        metric.distance_keyed(1, [0.0], 2, [1.0])
        metric.distance_keyed(1, [0.0], 2, [1.0])
        stats = metric.stats()
        assert stats["size"] == 1
        assert stats["capacity"] == 8
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["evictions"] == 0
        assert stats["hit_rate"] == 0.5

    def test_unbounded_when_maxsize_none(self):
        metric = CachedMetric(EuclideanMetric(), maxsize=None)
        for key in range(2, 50):
            metric.distance_keyed(1, [0.0], key, [float(key)])
        assert len(metric) == 48
        assert metric.evictions == 0
        assert metric.stats()["capacity"] == float("inf")

    def test_default_capacity_is_bounded(self):
        assert CachedMetric(EuclideanMetric()).maxsize == CachedMetric.DEFAULT_MAXSIZE

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            CachedMetric(EuclideanMetric(), maxsize=0)

    def test_clear(self):
        metric = CachedMetric(EuclideanMetric())
        metric.distance_keyed(1, [0], 2, [1])
        metric.clear()
        assert len(metric) == 0
        assert metric.hits == 0
        assert metric.misses == 0
        assert metric.evictions == 0
