"""Integration tests for long-lived streaming sessions."""

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.sfdm2 import SFDM2
from repro.utils.errors import (
    EmptyStreamError,
    InvalidParameterError,
    NoFeasibleSolutionError,
)


@pytest.fixture(scope="module")
def dataset():
    return repro.synthetic_blobs(n=300, m=2, seed=21)


@pytest.fixture(scope="module")
def constraint(dataset):
    return repro.equal_representation(6, list(dataset.group_sizes().keys()))


def _open(dataset, constraint, **kwargs):
    return repro.open_session(
        constraint=constraint, metric=dataset.metric, algorithm="SFDM2", **kwargs
    )


class TestStreamingSession:
    def test_matches_one_shot_run(self, dataset, constraint):
        direct = SFDM2(metric=dataset.metric, constraint=constraint).run(
            dataset.stream(seed=4)
        )
        session = _open(dataset, constraint)
        for element in dataset.stream(seed=4):
            session.offer(element)
        result = session.solution()
        assert [e.uid for e in result.solution.elements] == [
            e.uid for e in direct.solution.elements
        ]
        assert result.diversity == direct.diversity
        assert (
            result.stats.total_distance_computations
            == direct.stats.total_distance_computations
        )

    def test_queries_are_side_effect_free(self, dataset, constraint):
        queried = _open(dataset, constraint)
        silent = _open(dataset, constraint)
        for position, element in enumerate(dataset.stream(seed=9)):
            queried.offer(element)
            silent.offer(element)
            if position in (40, 150):
                queried.solution()  # mid-stream queries must not change anything
        a, b = queried.solution(), silent.solution()
        assert [e.uid for e in a.solution.elements] == [e.uid for e in b.solution.elements]
        assert (
            a.stats.total_distance_computations == b.stats.total_distance_computations
        )

    def test_repeated_final_queries_agree(self, dataset, constraint):
        session = _open(dataset, constraint)
        session.offer_batch(dataset.stream(seed=2))
        first, second = session.solution(), session.solution()
        assert [e.uid for e in first.solution.elements] == [
            e.uid for e in second.solution.elements
        ]
        assert (
            first.stats.total_distance_computations
            == second.stats.total_distance_computations
        )

    def test_query_during_warmup(self, dataset, constraint):
        session = _open(dataset, constraint)
        for element in list(dataset.stream(seed=1))[:30]:  # below warmup_size
            session.offer(element)
        assert not session.is_active
        result = session.solution()
        assert result.succeeded
        assert not session.is_active  # the query did not seal the warmup

    def test_offer_rows(self, constraint):
        rng = np.random.default_rng(3)
        session = repro.open_session(constraint=constraint, algorithm="SFDM2")
        session.offer_rows(
            rng.normal(size=(200, 3)), groups=rng.integers(0, 2, size=200)
        )
        assert session.elements_offered == 200
        assert session.solution().solution.is_fair

    def test_empty_session_raises(self, dataset, constraint):
        with pytest.raises(EmptyStreamError):
            _open(dataset, constraint).solution()

    def test_infeasible_state_raises(self, constraint):
        session = repro.open_session(constraint=constraint, algorithm="SFDM2")
        session.offer_rows(np.eye(3), groups=[0, 0, 0])  # group 1 never arrives
        with pytest.raises(NoFeasibleSolutionError):
            session.solution()

    def test_unconstrained_session(self):
        session = repro.open_session(k=4, algorithm="StreamingDM")
        session.offer_rows(np.random.default_rng(0).normal(size=(50, 2)))
        result = session.solution()
        assert result.algorithm == "StreamingDM"
        assert result.solution.size == 4

    def test_unconstrained_session_infers_k_from_constraint(self, constraint):
        # an explicit constraint supplies k even when the algorithm itself
        # is unconstrained, mirroring solve()
        session = repro.open_session(constraint=constraint, algorithm="StreamingDM")
        session.offer_rows(np.random.default_rng(1).normal(size=(60, 2)))
        assert session.solution().solution.size == constraint.total_size

    def test_session_spec_with_data_prefeeds(self, dataset, constraint):
        spec = repro.SolveSpec(
            data=dataset, constraint=constraint, algorithm="SFDM2", seed=4
        )
        session = repro.open_session(spec)
        assert session.elements_offered == dataset.size
        direct = SFDM2(metric=dataset.metric, constraint=constraint).run(
            dataset.stream(seed=4)
        )
        result = session.solution()
        assert [e.uid for e in result.solution.elements] == [
            e.uid for e in direct.solution.elements
        ]


def _candidates(state):
    """Every candidate of an ingestion state, in a fixed order."""
    found = list(state.blind)
    for level in state.specific or ():
        found.extend(level[group] for group in sorted(level))
    return found


def _candidate_view(state):
    """Each candidate with its member objects and a copy of its member rows.

    Only the first ``len(candidate)`` rows of the buffer are copied: the
    rows past them are allocated with ``np.empty`` and never written, so
    whatever they hold (a NaN included) says nothing about the members.
    """
    return [
        (
            candidate,
            candidate.metric,
            [id(member) for member in candidate],
            candidate._rows,
            None if candidate._rows is None else candidate._rows[: len(candidate)].copy(),
        )
        for candidate in _candidates(state)
    ]


def _assert_candidates_unchanged(before, state):
    after = _candidate_view(state)
    assert len(after) == len(before)
    for (candidate, metric, members, rows, content), now in zip(before, after):
        assert now[0] is candidate and now[1] is metric
        assert now[2] == members
        assert now[3] is rows
        if content is not None:
            assert np.array_equal(now[4], content)


def _state_view(state):
    """Everything of an ingestion state a query must leave as it was."""
    return (
        _candidate_view(state),
        state.counting.calls,
        state.stats.as_dict(),
        state._pending_rows,
        [(id(chunk), chunk.vectors.copy(), chunk.codes.copy()) for chunk in state._pending],
    )


def _assert_state_unchanged(before, state):
    candidates, calls, stats, pending_rows, pending = before
    _assert_candidates_unchanged(candidates, state)
    assert state.counting.calls == calls
    assert state.stats.as_dict() == stats
    assert state._pending_rows == pending_rows
    assert len(state._pending) == len(pending)
    for (identity, vectors, codes), chunk in zip(pending, state._pending):
        assert id(chunk) == identity
        assert np.array_equal(chunk.vectors, vectors) and np.array_equal(chunk.codes, codes)


class TestReadOnlyQueries:
    """``solution()`` reads the live state; only its own snapshot changes."""

    @staticmethod
    def _session(rows):
        rng = np.random.default_rng(12)
        session = repro.open_session(k=6, groups=[0, 1], algorithm="SFDM2", batch_size=64)
        if rows:
            session.offer_rows(rng.normal(size=(rows, 3)), groups=rng.integers(0, 2, rows))
        return session

    def test_nothing_pending_shares_the_candidates(self):
        session = self._session(256)  # four whole chunks, nothing pending
        state = session._state
        assert state.is_active and state._pending_rows == 0
        snapshot = state.snapshot()
        assert all(a is b for a, b in zip(_candidates(snapshot), _candidates(state)))
        assert snapshot.counting is not state.counting
        assert snapshot.counting.calls == state.counting.calls
        before = _state_view(state)
        session.solution()
        _assert_state_unchanged(before, state)

    def test_unchanged_check_ignores_unwritten_rows_but_not_members(self):
        state = self._session(256)._state
        candidate = next(
            c for c in _candidates(state)
            if c._rows is not None and 0 < len(c) < c._rows.shape[0]
        )
        candidate._rows[len(candidate):] = np.nan
        before = _candidate_view(state)
        _assert_candidates_unchanged(before, state)
        candidate._rows[0] += 1.0
        with pytest.raises(AssertionError):
            _assert_candidates_unchanged(before, state)

    def test_pending_partial_chunk_is_screened_into_forks(self):
        session = self._session(250)  # 58 rows past the last whole chunk
        state = session._state
        assert state.is_active and state._pending_rows == 58
        snapshot = state.snapshot()
        for fork, live in zip(_candidates(snapshot), _candidates(state)):
            assert fork is not live and fork.metric is snapshot.counting
            assert fork._rows is None or fork._rows is not live._rows
        before = _state_view(state)
        result = session.solution()
        assert result.stats.elements_processed == 250
        _assert_state_unchanged(before, state)

    def test_mid_warmup(self):
        session = self._session(30)
        state = session._state
        assert not state.is_active
        before = _state_view(state)
        session.solution()
        _assert_state_unchanged(before, state)
        assert not state.is_active and state.ladder is None

    @pytest.mark.parametrize("algorithm", ["SFDM1", "SFDM2", "StreamingDM"])
    def test_extract_leaves_candidates_untouched(self, algorithm):
        rng = np.random.default_rng(5)
        session = repro.open_session(k=6, groups=[0, 1], algorithm=algorithm, batch_size=64)
        session.offer_rows(rng.normal(size=(256, 3)), groups=rng.integers(0, 2, 256))
        state = session._state
        before = _candidate_view(state)
        best, _ = state.algorithm._extract(
            state.ladder, state.blind, state.specific, state.counting
        )
        assert best is not None
        _assert_candidates_unchanged(before, state)


class TestQueryMetrics:
    """Queries feed the obs registry the stream's work once, however many there are."""

    @pytest.fixture(autouse=True)
    def _traced(self):
        obs.configure("memory", reset_metrics=True)
        yield
        obs.configure(sink=None, enabled=False, reset_metrics=True)

    @pytest.mark.parametrize(
        "options",
        [
            {"algorithm": "SFDM2"},
            {"algorithm": "WindowFDM", "window": 1000, "blocks": 4},
        ],
        ids=["StreamingSession", "WindowSession"],
    )
    def test_eight_queries_publish_4000_rows(self, options):
        rng = np.random.default_rng(8)
        features, groups = rng.normal(size=(4000, 3)), rng.integers(0, 2, 4000)
        session = repro.open_session(k=6, groups=[0, 1], **options)
        results = []
        for start in range(0, 4000, 500):
            session.offer_rows(features[start : start + 500], groups=groups[start : start + 500])
            results.append(session.solution())
        metrics = obs.get_metrics().snapshot()
        final = results[-1].stats
        assert final.elements_processed == 4000
        assert metrics["repro.elements_processed"] == 4000
        assert metrics["repro.distance.stream"] == final.stream_distance_computations
        assert metrics["repro.distance.postprocess"] == sum(
            result.stats.postprocess_distance_computations for result in results
        )
        assert metrics["repro.runs"] == 8


class TestWindowSession:
    def test_window_session_tracks_window(self, dataset, constraint):
        session = repro.open_session(
            constraint=constraint,
            metric=dataset.metric,
            algorithm="WindowFDM",
            window=120,
            blocks=4,
        )
        for element in dataset.stream(seed=6):
            session.offer(element)
        result = session.solution()
        assert result.algorithm == "WindowFDM"
        assert result.succeeded and result.solution.is_fair
        assert result.stats.peak_stored_elements < dataset.size

    def test_window_session_requires_window(self, dataset, constraint):
        with pytest.raises(InvalidParameterError, match="window"):
            repro.open_session(
                constraint=constraint, metric=dataset.metric, algorithm="WindowFDM"
            )


class TestOpenSessionValidation:
    def test_non_session_algorithm_rejected(self, constraint):
        with pytest.raises(InvalidParameterError, match="does not support sessions"):
            repro.open_session(constraint=constraint, algorithm="GMM")

    def test_needs_constraint_or_groups(self):
        with pytest.raises(InvalidParameterError, match="groups"):
            repro.open_session(k=6, algorithm="SFDM2")

    def test_groups_build_equal_constraint(self):
        session = repro.open_session(k=6, groups=[0, 1], algorithm="SFDM2")
        rng = np.random.default_rng(8)
        session.offer_rows(rng.normal(size=(120, 2)), groups=rng.integers(0, 2, 120))
        assert session.solution().solution.is_fair

    def test_proportional_without_data_rejected(self):
        with pytest.raises(InvalidParameterError, match="proportional"):
            repro.open_session(
                k=6, groups=[0, 1], algorithm="SFDM2", fairness="proportional"
            )

    def test_resume_rejects_non_checkpoints(self, tmp_path):
        bad = tmp_path / "not-a-checkpoint.pkl"
        import pickle

        bad.write_bytes(pickle.dumps({"hello": "world"}))
        with pytest.raises(InvalidParameterError, match="checkpoint"):
            repro.resume(bad)

    def test_offer_rows_shape_validation(self, constraint):
        session = repro.open_session(constraint=constraint, algorithm="SFDM2")
        with pytest.raises(InvalidParameterError, match="group labels"):
            session.offer_rows(np.eye(3), groups=[0, 1])

    @pytest.mark.parametrize(
        "column, bad, shown",
        [
            ("groups", 1.7, "1.7"),
            ("groups", np.nan, "nan"),
            ("groups", -np.inf, "-inf"),
            ("uids", 1.5, "1.5"),
            ("uids", "a", "'a'"),
        ],
        ids=["fractional", "nan", "inf", "uid-fractional", "uid-string"],
    )
    def test_offer_rows_rejects_bad_labels_before_ingesting(
        self, constraint, column, bad, shown
    ):
        session = repro.open_session(constraint=constraint, algorithm="SFDM2")
        columns = {"groups": [0.0, 1.0, 1.0], "uids": [0, 1, 2]}
        columns[column][1] = bad
        with pytest.raises(
            InvalidParameterError, match=f"{column} must hold integer labels, but row 1 has {shown}"
        ):
            session.offer_rows(np.eye(3), **columns)
        assert session.elements_offered == 0
        session.offer_rows(np.eye(3), groups=[0.0, 1.0, True])
        assert session.elements_offered == 3

    @pytest.mark.parametrize(
        "bad, shown", [(np.inf, "inf"), (-np.inf, "-inf"), (np.nan, "nan")]
    )
    @pytest.mark.parametrize(
        "algorithm, options", [("SFDM2", {}), ("SlidingWindowFDM", {"window": 200})]
    )
    def test_offer_rows_rejects_non_finite_rows_before_ingesting(
        self, dataset, constraint, algorithm, options, bad, shown
    ):
        session = repro.open_session(constraint=constraint, algorithm=algorithm, **options)
        features = np.asarray([element.vector for element in dataset.elements[:100]])
        groups = [element.group for element in dataset.elements[:100]]
        poisoned = features.copy()
        poisoned[3, 1] = bad
        poisoned[7, 0] = bad
        with pytest.raises(InvalidParameterError, match=f"row 3 holds {shown}"):
            session.offer_rows(poisoned, groups=groups)
        assert session.elements_offered == 0
        session.offer_rows(features, groups=groups)
        assert session.solution().solution.is_fair

    @pytest.mark.parametrize(
        "features, message",
        [
            ([[1.0, 0.0], ["a", "b"], [0.0, 1.0]], "features must be numeric, but row 1"),
            ([[1.0, 0.0], [0.0, 1.0], [1.0]], "one length per row, but row 2"),
        ],
        ids=["non-numeric", "ragged"],
    )
    def test_offer_rows_rejects_unconvertible_rows_before_ingesting(
        self, constraint, features, message
    ):
        session = repro.open_session(constraint=constraint, algorithm="SFDM2")
        with pytest.raises(InvalidParameterError, match=message):
            session.offer_rows(features, groups=[0, 1, 1])
        assert session.elements_offered == 0
        session.offer_rows(np.eye(3)[:, :2], groups=[0, 1, 1])
        assert session.elements_offered == 3

    @pytest.mark.parametrize(
        "labels", [[[0], [1], [1]], [[0, 1, 1]]], ids=["column", "row"]
    )
    def test_offer_rows_reads_a_label_column_or_row_flat(self, constraint, labels):
        session = repro.open_session(constraint=constraint, algorithm="SFDM2")
        session.offer_rows(np.eye(3), groups=labels)
        assert session.elements_offered == 3
