"""Unit tests for the wall-clock timer."""

import time

import pytest

from repro.utils.timer import Timer


class TestTimer:
    def test_starts_stopped(self):
        timer = Timer()
        assert not timer.running
        assert timer.elapsed == 0.0

    def test_measures_elapsed_time(self):
        timer = Timer()
        timer.start()
        time.sleep(0.01)
        elapsed = timer.stop()
        assert elapsed >= 0.009
        assert timer.elapsed == elapsed

    def test_accumulates_across_runs(self):
        timer = Timer()
        with timer.measure():
            time.sleep(0.005)
        first = timer.elapsed
        with timer.measure():
            time.sleep(0.005)
        assert timer.elapsed > first

    def test_double_start_raises(self):
        timer = Timer()
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()
        timer.stop()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_context_manager_stops_on_exception(self):
        timer = Timer()
        with pytest.raises(ValueError):
            with timer.measure():
                raise ValueError("boom")
        assert not timer.running
        assert timer.elapsed >= 0.0
