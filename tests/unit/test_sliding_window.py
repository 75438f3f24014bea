"""Unit tests for the windowing layer: baseline and incremental FDM."""

import itertools

import numpy as np
import pytest

from repro.fairness.constraints import equal_representation
from repro.metrics.vector import EuclideanMetric
from repro.data.element import Element
from repro.utils.errors import InvalidParameterError
from repro.windowing import CheckpointedWindowFDM, SlidingWindowFDM

METRIC = EuclideanMetric()


def _elements(count, period=2):
    return [
        Element(uid=i, vector=np.array([float(i), 0.0]), group=i % period)
        for i in range(count)
    ]


def _element_generator(period=2):
    """An unbounded element source (must never be materialised)."""
    i = 0
    while True:
        yield Element(uid=i, vector=np.array([float(i % 17), 0.0]), group=i % period)
        i += 1


class TestCheckpointedWindowFDM:
    def test_produces_fair_solution(self):
        constraint = equal_representation(4, [0, 1])
        algorithm = CheckpointedWindowFDM(METRIC, constraint, window=40, blocks=4)
        solution = algorithm.run(_elements(100))
        assert solution is not None
        assert solution.is_fair
        assert solution.size == 4

    def test_memory_stays_below_window(self):
        constraint = equal_representation(4, [0, 1])
        algorithm = CheckpointedWindowFDM(METRIC, constraint, window=60, blocks=6)
        for element in _elements(300):
            algorithm.process(element)
        assert algorithm.stored_elements < 60

    def test_solution_uses_only_recent_elements(self):
        """After many elements, expired blocks must not contribute to the pool."""
        constraint = equal_representation(4, [0, 1])
        algorithm = CheckpointedWindowFDM(METRIC, constraint, window=20, blocks=4)
        elements = _elements(200)
        for element in elements:
            algorithm.process(element)
        pool_uids = {e.uid for e in algorithm.candidate_pool()}
        # Everything older than ~2 windows ago must be gone.
        assert all(uid >= 140 for uid in pool_uids)

    def test_infeasible_window_returns_none(self):
        """If the recent window lacks a group entirely, no fair solution exists."""
        constraint = equal_representation(4, [0, 1])
        algorithm = CheckpointedWindowFDM(METRIC, constraint, window=10, blocks=2)
        # Only group-0 elements in the stream tail.
        elements = _elements(30, period=2)[:20] + [
            Element(uid=100 + i, vector=np.array([1000.0 + i, 0.0]), group=0) for i in range(30)
        ]
        solution = algorithm.run(elements)
        assert solution is None

    def test_invalid_blocks(self):
        constraint = equal_representation(4, [0, 1])
        with pytest.raises(InvalidParameterError):
            CheckpointedWindowFDM(METRIC, constraint, window=4, blocks=8)

    def test_window_shorter_than_k_rejected(self):
        """A window that can never hold k elements is rejected eagerly."""
        constraint = equal_representation(8, [0, 1])
        with pytest.raises(InvalidParameterError, match="shorter than"):
            CheckpointedWindowFDM(METRIC, constraint, window=4, blocks=2)

    def test_empty_state_returns_none(self):
        constraint = equal_representation(4, [0, 1])
        algorithm = CheckpointedWindowFDM(METRIC, constraint, window=10, blocks=2)
        assert algorithm.solution() is None

    def test_run_accepts_generator(self):
        constraint = equal_representation(4, [0, 1])
        algorithm = CheckpointedWindowFDM(METRIC, constraint, window=20, blocks=4)
        solution = algorithm.run(itertools.islice(_element_generator(), 80))
        assert solution is not None and solution.is_fair


class TestSlidingWindowFDM:
    def test_produces_fair_solution(self):
        constraint = equal_representation(4, [0, 1])
        algorithm = SlidingWindowFDM(METRIC, constraint, window=40, blocks=4)
        solution = algorithm.run(_elements(100))
        assert solution is not None
        assert solution.is_fair
        assert solution.size == 4

    def test_pool_is_exactly_expiry_free(self):
        """Unlike the baseline, no expired element ever enters the pool."""
        constraint = equal_representation(4, [0, 1])
        algorithm = SlidingWindowFDM(METRIC, constraint, window=20, blocks=4)
        for element in _elements(203):
            algorithm.process(element)
            pool_uids = {e.uid for e in algorithm.candidate_pool()}
            assert all(uid >= algorithm.window_start for uid in pool_uids)

    def test_coverage_within_one_block_of_window_start(self):
        constraint = equal_representation(4, [0, 1])
        algorithm = SlidingWindowFDM(METRIC, constraint, window=24, blocks=6)
        for element in _elements(150):
            algorithm.process(element)
            assert algorithm.window_start <= algorithm.coverage_start
            assert algorithm.coverage_start <= algorithm.window_start + 24 // 6

    def test_memory_stays_below_window(self):
        constraint = equal_representation(4, [0, 1])
        algorithm = SlidingWindowFDM(METRIC, constraint, window=80, blocks=8)
        for element in _elements(400):
            algorithm.process(element)
        assert algorithm.stored_elements < 80

    def test_unbounded_source(self):
        """The algorithm runs on a generator without materialising it."""
        constraint = equal_representation(4, [0, 1])
        algorithm = SlidingWindowFDM(METRIC, constraint, window=30, blocks=3)
        solution = algorithm.run(itertools.islice(_element_generator(), 500))
        assert solution is not None and solution.is_fair

    def test_infeasible_window_returns_none(self):
        constraint = equal_representation(4, [0, 1])
        algorithm = SlidingWindowFDM(METRIC, constraint, window=10, blocks=2)
        elements = [
            Element(uid=i, vector=np.array([float(i), 0.0]), group=0) for i in range(40)
        ]
        assert algorithm.run(elements) is None

    def test_empty_state_returns_none(self):
        constraint = equal_representation(4, [0, 1])
        algorithm = SlidingWindowFDM(METRIC, constraint, window=10, blocks=2)
        assert algorithm.solution() is None

    def test_window_shorter_than_k_rejected(self):
        constraint = equal_representation(8, [0, 1])
        with pytest.raises(InvalidParameterError, match="shorter than"):
            SlidingWindowFDM(METRIC, constraint, window=4, blocks=2)

    def test_invalid_blocks(self):
        constraint = equal_representation(4, [0, 1])
        with pytest.raises(InvalidParameterError):
            SlidingWindowFDM(METRIC, constraint, window=4, blocks=8)

    def test_single_block_rejected(self):
        """blocks=1 would empty the pool right after every boundary."""
        constraint = equal_representation(4, [0, 1])
        with pytest.raises(InvalidParameterError, match="at least 2 blocks"):
            SlidingWindowFDM(METRIC, constraint, window=100, blocks=1)

    def test_two_blocks_stay_feasible_past_boundaries(self):
        """The minimum block count keeps a usable pool at every position."""
        constraint = equal_representation(4, [0, 1])
        algorithm = SlidingWindowFDM(METRIC, constraint, window=40, blocks=2)
        for element in _elements(130):
            algorithm.process(element)
            if algorithm.elements_processed >= algorithm.window:
                assert algorithm.solution() is not None

    def test_elements_processed(self):
        constraint = equal_representation(4, [0, 1])
        algorithm = SlidingWindowFDM(METRIC, constraint, window=10, blocks=2)
        for element in _elements(37):
            algorithm.process(element)
        assert algorithm.elements_processed == 37
