"""Incremental session queries answer exactly what a fresh extraction would.

A live session keeps the post-processing of every guess level between
queries (:class:`~repro.core.base.ExtractionMemo`) and re-extracts only the
levels whose candidates grew.  The memo is a cache and nothing more: here
every session is queried after every offer, and each answer must equal a
fresh extraction with the memo cleared — uids in order, bit-equal
diversity, and every stat except the wall-clock ones — for SFDM1, SFDM2 and
StreamingDM, under each way rows reach a session:

* 1024-row offers at ``batch_size=1024`` (nothing pending at a query);
* 16-row offers at ``batch_size=256``, which leave a partial chunk pending,
  so every query's snapshot forks the candidates, as in serving;
* 7-row offers, so the first queries arrive mid-warmup and build a ladder
  of their own;
* element lists through ``offer_batch``;
* a kernel-less :class:`~repro.metrics.base.CallableMetric`;
* SFDM2 over three groups;
* a checkpoint and resume in the middle of the stream.
"""

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.base import ExtractionMemo
from repro.datasets.synthetic import synthetic_blobs
from repro.metrics.base import CallableMetric
from repro.utils.errors import NoFeasibleSolutionError

K = 6
ALGORITHMS = ("SFDM1", "SFDM2", "StreamingDM")
#: ``shape -> (rows, rows per offer, batch_size, offer kind)``.
SHAPES = {
    "rows-1024": (5120, 1024, 1024, "rows"),
    "rows-16-pending": (768, 16, 256, "rows"),
    "rows-7-warmup": (448, 7, 64, "rows"),
    "elements-50": (1200, 50, 128, "elements"),
}


@pytest.fixture(autouse=True)
def _pristine_tracer():
    obs.configure(sink=None, enabled=False)
    yield
    obs.configure(sink=None, enabled=False)


def _pieces(n, size, m=2, seed=4):
    """The elements of a seeded blob stream, cut into offers of ``size``."""
    elements = list(synthetic_blobs(n=n, m=m, seed=seed).stream(seed=seed + 1))
    return [elements[start:start + size] for start in range(0, n, size)]


def _session(name, batch_size, groups=(0, 1), metric=None):
    return repro.open_session(
        k=K, groups=list(groups), algorithm=name, batch_size=batch_size, metric=metric
    )


def _offer(session, piece, kind):
    if kind == "elements":
        session.offer_batch(piece)
    else:
        session.offer_rows(
            np.stack([element.vector for element in piece]),
            groups=[element.group for element in piece],
            uids=[element.uid for element in piece],
        )


def _answer(result):
    """Uids in order, the diversity's bits, and every stat but the timings."""
    stats = {
        name: value
        for name, value in result.stats.as_dict().items()
        if not name.endswith("_seconds")
    }
    return result.solution.uids, float(result.solution.diversity).hex(), stats


def _outcome(session):
    """The session's answer, or the message of its infeasibility."""
    try:
        return _answer(session.solution())
    except NoFeasibleSolutionError as error:
        return str(error)


def _fresh(session):
    """:func:`_outcome` with the memo cleared; the live memo is put back."""
    state = session._state
    memo, state._memo = state._memo, ExtractionMemo()
    try:
        return _outcome(session)
    finally:
        state._memo = memo


def _memo_entries(session):
    """The live memo as data: ``level -> (counts, uids, diversity bits, evaluations)``."""
    return {
        level: (
            counts,
            None if answer is None else answer.uids,
            None if answer is None else float(answer.diversity).hex(),
            evaluations,
        )
        for level, (counts, answer, evaluations) in session._state._memo.levels.items()
    }


def _query_after_every_offer(session, pieces, kind):
    """Offer every piece and compare each query with a fresh extraction.

    Returns the last outcome and how many levels the live memo reused.
    """
    reused = 0
    outcome = None
    for piece in pieces:
        _offer(session, piece, kind)
        outcome = _outcome(session)
        if session.is_active:
            reused += session._state._memo.reused
        assert outcome == _fresh(session), (
            f"query after {session.elements_offered} rows differs from a fresh extraction"
        )
    return outcome, reused


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", ALGORITHMS)
def test_every_query_equals_a_fresh_extraction(name, shape):
    n, size, batch_size, kind = SHAPES[shape]
    session = _session(name, batch_size)
    _, reused = _query_after_every_offer(session, _pieces(n, size), kind)
    assert reused > 0


def test_queries_mid_warmup_stay_apart_from_the_live_memo():
    n, size, batch_size, kind = SHAPES["rows-7-warmup"]
    pieces = _pieces(n, size)
    session = _session("SFDM2", batch_size)
    warming = 0
    for piece in pieces[:20]:
        _offer(session, piece, kind)
        outcome = _outcome(session)
        if not session.is_active:
            warming += 1
            assert session._state._memo.levels == {}
        assert outcome == _fresh(session)
    assert warming >= 5


@pytest.mark.parametrize("name", ALGORITHMS)
def test_kernel_less_metric(name):
    metric = CallableMetric(
        lambda x, y: float(np.sqrt(np.sum((np.asarray(x) - np.asarray(y)) ** 2))),
        name="euclidean-callable",
    )
    session = _session(name, 64, metric=metric)
    _, reused = _query_after_every_offer(session, _pieces(256, 16), "rows")
    assert reused > 0


@pytest.mark.parametrize("shape", ["rows-1024", "rows-16-pending"])
def test_sfdm2_over_three_groups(shape):
    n, size, batch_size, kind = SHAPES[shape]
    session = _session("SFDM2", batch_size, groups=(0, 1, 2))
    (_, _, stats), reused = _query_after_every_offer(session, _pieces(n, size, m=3), kind)
    assert reused > 0
    assert stats["eligible_guesses"] > 0


@pytest.mark.parametrize("name", ALGORITHMS)
def test_checkpoint_resume_mid_stream(name, tmp_path):
    n, size, batch_size, kind = SHAPES["rows-16-pending"]
    pieces = _pieces(n, size)
    uninterrupted = _session(name, batch_size)
    for piece in pieces:
        _offer(uninterrupted, piece, kind)

    session = _session(name, batch_size)
    half = len(pieces) // 2
    _query_after_every_offer(session, pieces[:half], kind)
    restored = repro.resume(session.checkpoint(tmp_path / f"{name}.ckpt"))
    # The checkpoint keeps the memo: the same levels, keys, answers and costs.
    assert _memo_entries(restored) == _memo_entries(session)
    final, reused = _query_after_every_offer(restored, pieces[half:], kind)
    assert reused > 0
    assert final == _outcome(uninterrupted)


@pytest.mark.parametrize(
    "name, guess_span", [("SFDM2", "sfdm2.guess"), ("SFDM1", "sfdm1.balance")]
)
@pytest.mark.parametrize("pending", [0, 100], ids=["nothing-pending", "chunk-pending"])
def test_repeat_query_post_processes_no_guess(name, guess_span, pending):
    session = _session(name, 256)
    (rows,) = _pieces(2048 + pending, 2048 + pending)
    _offer(session, rows, "rows")
    first = session.solution()
    with obs.tracing("memory") as sink:
        again = session.solution()
    assert len(sink.spans(guess_span)) == 0
    assert again.stats.extra["eligible_guesses"] > 0
    assert _answer(again) == _answer(first)
