"""Differential tests for the one ingestion engine.

Every streaming-ladder algorithm of the registry ingests through
:class:`repro.core.base.IngestState`, whatever the source: an
:class:`ElementStore`, a store-backed :class:`DataStream`, a list of store
views, a list of standalone elements, a generator, or a live session fed
rows or elements in calls of any size.  Each route must take the paper's
decisions — the same solution as a sequential
:meth:`~repro.core.candidate.Candidate.offer` loop over the same order —
for chunk sizes from one row up to the default, and every route must
charge the same distance count at the same chunk size.
"""

import functools

import numpy as np
import pytest

import repro
from repro.core.base import DEFAULT_BATCH_SIZE, IngestState, stream_chunks
from repro.data.element import Element
from repro.data.store import ElementStore
from repro.metrics.base import CallableMetric
from repro.metrics.matrix import PrecomputedMetric
from repro.metrics.space import exact_distance_bounds
from repro.metrics.vector import EuclideanMetric, HammingMetric
from repro.streaming.stream import DataStream

#: Every registered algorithm that runs on the chunked ingestion engine.
ALGORITHMS = [
    name for name in repro.algorithm_names() if repro.get_algorithm(name).capabilities.batch
]
CHUNKS = (1, 7, 64, None)
SOURCES = ("store", "data-stream", "store-views", "elements", "generator")

N = 260
DATA = repro.synthetic_blobs(n=N, m=2, seed=31)
BASE = DATA.columnar()
STREAM = DataStream(store=BASE, shuffle_seed=5)
ORDER = np.array([element.row for element in STREAM])
ELEMENTS = [
    Element(uid=int(BASE.uids[row]), vector=BASE.features[row].copy(), group=int(BASE.groups[row]))
    for row in ORDER
]
CONSTRAINT = repro.equal_representation(6, [0, 1])


def _algorithm(name, metric, chunk):
    """A fresh instance of the registered algorithm ``name``."""
    session = repro.open_session(
        constraint=CONSTRAINT, metric=metric, algorithm=name, batch_size=chunk
    )
    return session._algorithm


def _sequential(name, metric, elements):
    """The paper's loop: every candidate offered every element in order."""
    algorithm = _algorithm(name, metric, None)
    d_min, d_max = exact_distance_bounds(elements[: algorithm.warmup_size], metric)
    ladder = algorithm._build_ladder((d_min / 4.0, d_max * 4.0))
    blind, specific = algorithm._make_candidates(ladder, metric)
    for element in elements:
        for level, candidate in enumerate(blind):
            candidate.offer(element)
            if specific is not None and element.group in specific[level]:
                specific[level][element.group].offer(element)
    return algorithm, ladder, blind, specific


def _reference(name, metric, elements):
    """Uids and diversity of the best solution after the paper's loop."""
    algorithm, ladder, blind, specific = _sequential(name, metric, elements)
    best, _ = algorithm._extract(ladder, blind, specific, metric)
    return [element.uid for element in best.elements], best.diversity


def _members(blind, specific):
    """The identities of every candidate's members, blind candidates first."""
    candidates = blind + [c for per_group in specific or () for c in per_group.values()]
    return [[id(element) for element in candidate] for candidate in candidates]


@functools.lru_cache(maxsize=None)
def _numeric_reference(name):
    return _reference(name, EuclideanMetric(), ELEMENTS)


def _source(kind):
    """The shuffled stream in one source shape; the order is the same."""
    if kind == "store":
        return BASE.select(ORDER)
    if kind == "data-stream":
        return STREAM
    if kind == "store-views":
        return [BASE.element(row) for row in ORDER]
    if kind == "elements":
        return list(ELEMENTS)
    return (element for element in ELEMENTS)


@functools.lru_cache(maxsize=None)
def _store_run(name, chunk):
    """``run()`` on the store source, the count every other route must match."""
    return _algorithm(name, EuclideanMetric(), chunk).run(_source("store"))


def _answer(result):
    return [element.uid for element in result.solution.elements], result.solution.diversity


def _counts(result):
    stats = result.stats
    return stats.stream_distance_computations, stats.total_distance_computations


@pytest.mark.parametrize("chunk", CHUNKS, ids=lambda c: f"chunk{c}")
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("name", ALGORITHMS)
def test_every_source_matches_sequential_offer(name, source, chunk):
    result = _algorithm(name, EuclideanMetric(), chunk).run(_source(source))
    assert _answer(result) == _numeric_reference(name)
    assert result.stats.elements_processed == N
    assert result.stats.extra["batch_size"] == float(chunk or DEFAULT_BATCH_SIZE)
    assert _counts(result) == _counts(_store_run(name, chunk))
    if source == "elements":
        by_uid = {element.uid: element for element in ELEMENTS}
        assert all(element is by_uid[element.uid] for element in result.solution.elements)


@pytest.mark.parametrize("chunk", (7, None), ids=lambda c: f"chunk{c}")
@pytest.mark.parametrize("feed", ("rows", "elements"))
@pytest.mark.parametrize("per_call", (1, 13, 500))
@pytest.mark.parametrize("name", ALGORITHMS)
def test_session_matches_run(name, per_call, feed, chunk):
    session = repro.open_session(
        constraint=CONSTRAINT, metric=EuclideanMetric(), algorithm=name, batch_size=chunk
    )
    for start in range(0, N, per_call):
        rows = ORDER[start : start + per_call]
        if feed == "rows":
            session.offer_rows(BASE.features[rows], groups=BASE.groups[rows], uids=BASE.uids[rows])
        elif per_call == 1:
            session.offer(ELEMENTS[start])
        else:
            session.offer_batch(ELEMENTS[start : start + per_call])
    result = session.solution()
    assert _answer(result) == _numeric_reference(name)
    assert _counts(result) == _counts(_store_run(name, chunk))


def _categorical():
    """String payloads under the Hamming metric (no float coercion)."""
    rng = np.random.default_rng(41)
    letters = np.array(list("abcd"))
    return HammingMetric(), [
        Element(uid=i, vector=letters[rng.integers(0, 4, size=6)], group=i % 2)
        for i in range(120)
    ]


def _kernel_less():
    """Numeric payloads under a metric with only a scalar ``distance``."""
    return CallableMetric(EuclideanMetric().distance, name="scalar-euclidean"), ELEMENTS[:120]


def _precomputed():
    """Scalar index payloads into a precomputed distance matrix."""
    points = BASE.features[:120]
    matrix = EuclideanMetric().pairwise(points)
    np.fill_diagonal(matrix, 0.0)
    return PrecomputedMetric(matrix), [
        Element(uid=i, vector=i, group=int(BASE.groups[i])) for i in range(120)
    ]


def _padded_hamming(x, y):
    """Hamming distance after padding the shorter sequence with a blank."""
    common = min(len(x), len(y))
    return float(np.count_nonzero(x[:common] != y[:common]) + abs(len(x) - len(y)))


def _variable_length():
    """Character arrays of varying length under a kernel-less metric.

    The length changes every ten rows, so some chunks stack into a matrix,
    others (those crossing a change) into an object array, and offers of one
    element stack into matrices of different widths.
    """
    rng = np.random.default_rng(43)
    letters = np.array(list("abcd"))
    return CallableMetric(_padded_hamming, name="padded-hamming"), [
        Element(uid=i, vector=letters[rng.integers(0, 4, size=4 + (i // 10) % 3)], group=i % 2)
        for i in range(120)
    ]


PAYLOADS = {
    "categorical": _categorical,
    "kernel-less": _kernel_less,
    "precomputed": _precomputed,
    "variable-length": _variable_length,
}


def _session(name, metric, chunk, elements, per_call):
    """A session fed ``elements`` in calls of ``per_call`` (``offer`` for one)."""
    session = repro.open_session(
        constraint=CONSTRAINT, metric=metric, algorithm=name, batch_size=chunk
    )
    for start in range(0, len(elements), per_call):
        if per_call == 1:
            session.offer(elements[start])
        else:
            session.offer_batch(elements[start : start + per_call])
    return session


@pytest.mark.parametrize("chunk", (1, 7, None), ids=lambda c: f"chunk{c}")
@pytest.mark.parametrize("payload", sorted(PAYLOADS))
@pytest.mark.parametrize("name", ALGORITHMS)
def test_other_payloads_and_metrics_match_sequential_offer(name, payload, chunk):
    metric, elements = PAYLOADS[payload]()
    expected = _reference(name, metric, elements)
    from_list = _algorithm(name, metric, chunk).run(list(elements))
    from_generator = _algorithm(name, metric, chunk).run(iter(elements))
    sessions = [_session(name, metric, chunk, elements, per_call) for per_call in (1, 13)]
    for result in [from_list, from_generator] + [s.solution() for s in sessions]:
        assert _answer(result) == expected
        assert _counts(result) == _counts(from_list)
    # Accepted elements are the offered objects (queries answer on a copy).
    by_uid = {element.uid: element for element in elements}
    assert all(element is by_uid[element.uid] for element in from_list.solution.elements)
    for session in sessions:
        live = [element for candidate in session._state.blind for element in candidate]
        assert all(element is by_uid[element.uid] for element in live)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_clashing_uids_keep_distinct_payloads(name):
    # Offered uids need not be unique; screening follows payloads, not uids.
    elements = [
        Element(uid=i % 4, vector=element.vector, group=element.group)
        for i, element in enumerate(ELEMENTS)
    ]
    state = IngestState(_algorithm(name, EuclideanMetric(), 16))
    for chunk in stream_chunks(elements, state.size):
        state.offer(chunk)
    state.flush()
    _, _, blind, specific = _sequential(name, EuclideanMetric(), elements)
    assert _members(state.blind, state.specific) == _members(blind, specific)


def test_session_keeps_no_screened_rows():
    session = repro.open_session(k=6, groups=[0, 1], algorithm="SFDM2", batch_size=64)
    features = BASE.features[ORDER].copy()
    session.offer_rows(features, groups=BASE.groups[ORDER])
    state = session._state
    assert state.stats.elements_processed == N - N % 64
    pending = list(state._pending)
    assert sum(len(piece) for piece in pending) == N % 64
    assert not any(np.shares_memory(piece.vectors, features) for piece in pending)
    members = [element for candidate in state.blind for element in candidate]
    assert members
    assert not any(np.shares_memory(element.vector, features) for element in members)


def test_default_chunk_size_is_recorded():
    result = repro.solve(ElementStore(BASE.features, BASE.groups), k=6, algorithm="SFDM2")
    assert result.stats.extra["batch_size"] == float(DEFAULT_BATCH_SIZE)
