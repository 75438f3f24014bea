"""Tests for the ``repro`` package logging: routed warnings stay visible.

The library is silent by default (``NullHandler`` on the ``repro``
logger), but a window ``blocks`` request clamped to the window length
warrants a warning an embedding application can surface.
"""

import logging

import pytest

import repro
from repro import obs
from repro.datasets.synthetic import synthetic_blobs


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
