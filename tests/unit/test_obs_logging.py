"""Tests for the ``repro`` package logging: routed warnings stay visible.

The library is silent by default (``NullHandler`` on the ``repro``
logger), but two degradations warrant a warning an embedding
application can surface: a window ``blocks`` request clamped to the
window length, and the bounded distance cache starting to evict.
"""

import logging

import pytest

import repro
from repro import obs
from repro.datasets.synthetic import synthetic_blobs
from repro.metrics.cached import CachedMetric
from repro.metrics.vector import euclidean


class TestPackageLogger:
    def test_root_logger_has_null_handler(self):
        handlers = logging.getLogger("repro").handlers
        assert any(isinstance(handler, logging.NullHandler) for handler in handlers)

    def test_get_logger_returns_children(self):
        assert obs.get_logger() is logging.getLogger("repro")
        assert obs.get_logger("api").name == "repro.api"
        assert obs.get_logger("metrics").parent.name == "repro"


class TestClampedBlocks:
    def test_blocks_beyond_window_warns_and_clamps(self, caplog):
        dataset = synthetic_blobs(n=60, m=2, seed=5)
        with caplog.at_level(logging.WARNING, logger="repro"):
            result = repro.solve(
                dataset,
                k=4,
                algorithm="SlidingWindowFDM",
                seed=1,
                window=30,
                blocks=50,
            )
        assert result.params["blocks"] == 30
        messages = [r.message for r in caplog.records if r.name == "repro.api"]
        assert any("clamping" in message for message in messages)

    def test_blocks_within_window_is_silent(self, caplog):
        dataset = synthetic_blobs(n=60, m=2, seed=5)
        with caplog.at_level(logging.WARNING, logger="repro"):
            repro.solve(
                dataset, k=4, algorithm="SlidingWindowFDM", seed=1, window=30, blocks=5
            )
        assert not [r for r in caplog.records if r.name == "repro.api"]


class TestCacheEvictionWarning:
    def test_first_eviction_warns_once(self, caplog):
        metric = CachedMetric(euclidean(), maxsize=2)
        points = [([float(i)], i) for i in range(4)]
        with caplog.at_level(logging.WARNING, logger="repro"):
            for (x, kx), (y, ky) in zip(points, points[1:]):
                metric.distance_keyed(kx, x, ky, y)
        assert metric.evictions >= 1
        warnings = [r for r in caplog.records if r.name == "repro.metrics"]
        assert len(warnings) == 1
        assert "capacity" in warnings[0].message

    def test_unbounded_cache_never_warns(self, caplog):
        metric = CachedMetric(euclidean(), maxsize=None)
        with caplog.at_level(logging.WARNING, logger="repro"):
            for i in range(10):
                metric.distance_keyed(i, [float(i)], i + 1, [float(i + 1)])
        assert metric.evictions == 0
        assert not [r for r in caplog.records if r.name == "repro.metrics"]
