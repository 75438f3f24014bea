"""What both windowed solvers share: window geometry, validation and trace records.

The solvers take ``window`` and ``blocks`` directly and own their expiry,
so the window's position, the block boundaries they seal and retire, and
the records those events leave in a trace are pinned here for both
:class:`SlidingWindowFDM` and :class:`CheckpointedWindowFDM`.
"""

import numpy as np
import pytest

from repro import obs
from repro.data.element import Element
from repro.fairness.constraints import equal_representation
from repro.metrics.vector import EuclideanMetric
from repro.utils.errors import InvalidParameterError
from repro.windowing import CheckpointedWindowFDM, SlidingWindowFDM
from repro.windowing.base import WindowedAlgorithm

METRIC = EuclideanMetric()
CONSTRAINT = equal_representation(4, [0, 1])
#: 40 elements in 4 blocks: every block boundary is 10 offers apart.
WINDOW, BLOCKS, BLOCK = 40, 4, 10

SOLVERS = pytest.mark.parametrize(
    "solver", [SlidingWindowFDM, CheckpointedWindowFDM], ids=lambda cls: cls.__name__
)


def _elements(count):
    return [
        Element(uid=i, vector=np.array([float(i), 0.0]), group=i % 2) for i in range(count)
    ]


@pytest.fixture(autouse=True)
def _pristine_tracer():
    """Tracing state and registry counters never leak between tests."""
    obs.configure(sink=None, enabled=False, reset_metrics=True)
    yield
    obs.configure(sink=None, enabled=False, reset_metrics=True)


@SOLVERS
def test_window_start_trails_the_stream_by_the_window(solver):
    algorithm = solver(METRIC, CONSTRAINT, window=WINDOW, blocks=BLOCKS)
    assert algorithm.window_start == 0
    for processed, element in enumerate(_elements(95), start=1):
        algorithm.process(element)
        assert algorithm.elements_processed == processed
        assert algorithm.window_start == max(0, processed - WINDOW)


@SOLVERS
@pytest.mark.parametrize("window", [0, -4, 2.5, True])
def test_window_must_be_a_positive_integer(solver, window):
    with pytest.raises(InvalidParameterError, match="window"):
        solver(METRIC, CONSTRAINT, window=window, blocks=BLOCKS)


@SOLVERS
def test_blocks_must_be_positive(solver):
    with pytest.raises(InvalidParameterError, match="blocks"):
        solver(METRIC, CONSTRAINT, window=WINDOW, blocks=0)


@SOLVERS
def test_empty_stream_holds_nothing(solver):
    algorithm = solver(METRIC, CONSTRAINT, window=WINDOW, blocks=BLOCKS)
    assert algorithm.run([]) is None
    assert algorithm.elements_processed == 0
    assert algorithm.stored_elements == 0
    assert algorithm.candidate_pool() == []


@SOLVERS
def test_raw_block_is_the_pool_before_the_first_seal(solver):
    algorithm = solver(METRIC, CONSTRAINT, window=WINDOW, blocks=BLOCKS)
    elements = _elements(BLOCK - 1)
    with obs.tracing("memory") as sink:
        for element in elements:
            algorithm.process(element)
    assert sink.spans("window.block.seal") == []
    assert sorted(e.uid for e in algorithm.candidate_pool()) == list(range(BLOCK - 1))
    assert algorithm.stored_elements == BLOCK - 1


@SOLVERS
def test_seal_spans_cover_consecutive_blocks(solver):
    algorithm = solver(METRIC, CONSTRAINT, window=WINDOW, blocks=BLOCKS)
    with obs.tracing("memory") as sink:
        algorithm.run(_elements(95))
    seals = [(s["attrs"]["start"], s["attrs"]["size"]) for s in sink.spans("window.block.seal")]
    assert seals == [(start, BLOCK) for start in range(0, 90, BLOCK)]


@SOLVERS
def test_retirements_are_traced_and_counted(solver):
    """After 95 offers the window starts at 55; the nine sealed blocks start at 0..80.

    The incremental solver retires a block once its start leaves the
    window (0..50, six blocks); the baseline only once its last element
    does (0..40, five blocks).
    """
    retired, live = {SlidingWindowFDM: (6, 3), CheckpointedWindowFDM: (5, 4)}[solver]
    algorithm = solver(METRIC, CONSTRAINT, window=WINDOW, blocks=BLOCKS)
    with obs.tracing("memory") as sink:
        algorithm.run(_elements(95))
    records = sink.spans("window.block.retire")
    assert sum(r["attrs"]["retired"] for r in records) == retired
    assert records[-1]["attrs"]["live"] == live
    assert obs.get_metrics().snapshot()["repro.window.blocks_retired"] == retired


def test_checkpointed_pool_keeps_expired_elements_for_under_one_block():
    """The baseline's documented staleness: present, and never a whole block."""
    algorithm = CheckpointedWindowFDM(METRIC, CONSTRAINT, window=WINDOW, blocks=BLOCKS)
    stale = 0
    for element in _elements(200):
        algorithm.process(element)
        oldest = min(e.uid for e in algorithm.candidate_pool())
        assert oldest > algorithm.window_start - BLOCK
        stale += oldest < algorithm.window_start
    assert stale > 0


def test_base_class_leaves_ingestion_to_subclasses():
    algorithm = WindowedAlgorithm(METRIC, CONSTRAINT, window=WINDOW, blocks=BLOCKS)
    with pytest.raises(NotImplementedError):
        algorithm.process(_elements(1)[0])
    with pytest.raises(NotImplementedError):
        algorithm.candidate_pool()
    with pytest.raises(NotImplementedError):
        algorithm.stored_elements
