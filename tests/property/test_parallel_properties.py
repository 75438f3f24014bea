"""Property tests for the parallel engine's core guarantees.

Three families:

* **backend transparency** — for a fixed ``(stream seed, shards,
  strategy, run seed)`` the computed solution is identical on every
  backend: the backend decides where shard summaries run, never what
  they compute.  Serial vs. thread is exercised densely via Hypothesis;
  the process backend (which forks worker processes) is pinned with a
  representative parametrised matrix to keep the suite fast.

* **transport and planner transparency** — shipping shards through the
  shared-memory block vs. pickled stores, and letting the execution
  planner pick the backend/shard count (``"auto"``), are equally
  invisible: uids, diversity values, and charged distance counts all
  match the serial reference exactly.

* **composable-coreset quality** — the diversity obtained through the
  sharded merge-tree route stays within the composable-coreset factor of
  the sequential coreset run on the same data.  The library's sequential
  reference is :func:`repro.core.coreset.coreset_fair_diversity`; Indyk
  et al.'s bound says solving on unioned per-part GMM summaries loses at
  most a constant factor (3 for max-min diversity), which the merge tree
  preserves per level — we assert the end-to-end factor-3 envelope both
  ways, since neither route dominates the other pointwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coreset import coreset_fair_diversity
from repro.datasets.synthetic import synthetic_blobs
from repro.fairness.constraints import equal_representation
from repro.parallel import ParallelFDM, shm

#: The composable-coreset approximation envelope for max-min diversity.
CORESET_FACTOR = 3.0


def _dataset(n, m, seed):
    return synthetic_blobs(n=n, m=m, seed=seed)


def _run(
    dataset,
    constraint,
    shards,
    backend,
    strategy,
    seed,
    summarizer="gmm",
    fallback=False,
):
    """One run; ``fallback`` hides shared memory so shards ship as pickles."""
    engine = ParallelFDM(
        metric=dataset.metric,
        constraint=constraint,
        shards=shards,
        backend=backend,
        strategy=strategy,
        summarizer=summarizer,
        seed=seed,
    )
    with pytest.MonkeyPatch.context() as patch:
        if fallback:
            patch.setattr(shm, "shm_available", lambda: False)
        return engine.run(dataset.stream(seed=seed))


class TestBackendTransparency:
    @settings(max_examples=12, deadline=None)
    @given(
        shards=st.integers(min_value=1, max_value=6),
        strategy=st.sampled_from(["contiguous", "stratified"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        m=st.integers(min_value=2, max_value=4),
    )
    def test_thread_equals_serial(self, shards, strategy, seed, m):
        dataset = _dataset(150, m, seed=7)
        constraint = equal_representation(2 * m, list(dataset.group_sizes()))
        serial = _run(dataset, constraint, shards, "serial", strategy, seed)
        threaded = _run(dataset, constraint, shards, "thread", strategy, seed)
        assert serial.solution.uids == threaded.solution.uids
        assert serial.solution.diversity == pytest.approx(threaded.solution.diversity)

    @pytest.mark.parametrize("shards", [1, 3, 4])
    @pytest.mark.parametrize("summarizer", ["gmm", "stream"])
    def test_process_equals_serial(self, shards, summarizer):
        dataset = _dataset(240, 2, seed=11)
        constraint = equal_representation(6, list(dataset.group_sizes()))
        serial = _run(
            dataset, constraint, shards, "serial", "stratified", seed=5,
            summarizer=summarizer,
        )
        process = _run(
            dataset, constraint, shards, "process", "stratified", seed=5,
            summarizer=summarizer,
        )
        assert serial.solution.uids == process.solution.uids
        assert serial.solution.diversity == pytest.approx(process.solution.diversity)

    @settings(max_examples=8, deadline=None)
    @given(
        shards=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_solution_is_always_fair_across_shard_counts(self, shards, seed):
        dataset = _dataset(120, 3, seed=3)
        constraint = equal_representation(6, list(dataset.group_sizes()))
        result = _run(dataset, constraint, shards, "serial", "stratified", seed)
        assert result.solution is not None
        assert result.solution.is_fair


class TestTransportTransparency:
    """The shard transport moves bytes, never changes what they compute."""

    @pytest.mark.parametrize("shards", [1, 3, 5])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_shm_equals_pickle_on_process_backend(self, shards, seed):
        dataset = _dataset(240, 3, seed=9)
        constraint = equal_representation(6, list(dataset.group_sizes()))
        shared = _run(dataset, constraint, shards, "process", "stratified", seed)
        pickled = _run(
            dataset, constraint, shards, "process", "stratified", seed,
            fallback=True,
        )
        assert shared.params["transport"] in ("shm", "pickle")
        assert pickled.params["transport"] == "pickle"
        assert shared.solution.uids == pickled.solution.uids
        assert shared.solution.diversity == pickled.solution.diversity
        assert (
            shared.stats.stream_distance_computations
            == pickled.stats.stream_distance_computations
        )
        assert (
            shared.stats.postprocess_distance_computations
            == pickled.stats.postprocess_distance_computations
        )

    @pytest.mark.parametrize("fallback", [False, True], ids=["shm", "pickle"])
    def test_every_transport_matches_the_serial_reference(self, fallback):
        dataset = _dataset(200, 2, seed=13)
        constraint = equal_representation(6, list(dataset.group_sizes()))
        serial = _run(dataset, constraint, 4, "serial", "stratified", seed=2)
        process = _run(
            dataset, constraint, 4, "process", "stratified", seed=2,
            fallback=fallback,
        )
        assert serial.solution.uids == process.solution.uids
        assert serial.solution.diversity == process.solution.diversity
        assert (
            serial.stats.stream_distance_computations
            == process.stats.stream_distance_computations
        )

    def test_stream_summarizer_identical_across_transports(self):
        dataset = _dataset(300, 2, seed=23)
        constraint = equal_representation(6, list(dataset.group_sizes()))
        runs = [
            _run(
                dataset, constraint, 4, backend, "stratified", seed=8,
                summarizer="stream", fallback=fallback,
            )
            for backend, fallback in (
                ("serial", False),
                ("process", False),
                ("process", True),
            )
        ]
        uids = {tuple(run.solution.uids) for run in runs}
        counts = {run.stats.stream_distance_computations for run in runs}
        assert len(uids) == 1 and len(counts) == 1


class TestAutoPlanning:
    """``"auto"`` picks where to run; the answer must not depend on it."""

    def test_auto_backend_matches_explicit_configuration(self):
        from repro.parallel import plan_execution

        dataset = _dataset(180, 2, seed=31)
        constraint = equal_representation(6, list(dataset.group_sizes()))
        auto = ParallelFDM(
            metric=dataset.metric,
            constraint=constraint,
            shards="auto",
            backend="auto",
            seed=4,
        ).run(dataset.stream(seed=4))
        planned = plan_execution(180, 2)
        explicit = _run(
            dataset, constraint, planned.shards, planned.backend, "stratified",
            seed=4,
        )
        assert auto.params["shards"] == planned.shards
        assert auto.params["backend"] == planned.backend
        assert auto.params["plan"] == planned.reason
        assert auto.solution.uids == explicit.solution.uids
        assert auto.solution.diversity == explicit.solution.diversity

    def test_forced_multicore_auto_plan_is_solution_transparent(self, monkeypatch):
        from repro.parallel import planner

        dataset = _dataset(220, 2, seed=37)
        constraint = equal_representation(6, list(dataset.group_sizes()))
        # A plan that sees 4 CPUs and a tiny cutoff must pick the process
        # backend — and still reproduce the serial answer exactly.
        monkeypatch.setattr(planner, "usable_cpus", lambda: 4)
        monkeypatch.setattr(planner, "SERIAL_CUTOFF", 2)
        monkeypatch.setattr(planner, "ROWS_PER_SHARD", 64)
        auto = ParallelFDM(
            metric=dataset.metric,
            constraint=constraint,
            shards="auto",
            backend="auto",
            seed=6,
        ).run(dataset.stream(seed=6))
        assert auto.params["backend"] == "process"
        reference = _run(
            dataset, constraint, auto.params["shards"], "serial", "stratified",
            seed=6,
        )
        assert auto.solution.uids == reference.solution.uids
        assert (
            auto.stats.stream_distance_computations
            == reference.stats.stream_distance_computations
        )


class TestComposableCoresetQuality:
    @settings(max_examples=10, deadline=None)
    @given(
        shards=st.integers(min_value=2, max_value=8),
        data_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_merged_coreset_diversity_within_factor_of_sequential(
        self, shards, data_seed
    ):
        dataset = _dataset(200, 2, seed=data_seed)
        constraint = equal_representation(6, list(dataset.group_sizes()))
        parallel = _run(dataset, constraint, shards, "serial", "stratified", seed=None)
        sequential = coreset_fair_diversity(
            dataset.elements, dataset.metric, constraint, num_parts=shards
        )
        assert parallel.solution.is_fair and sequential.is_fair
        assert parallel.solution.diversity >= sequential.diversity / CORESET_FACTOR
        assert sequential.diversity >= parallel.solution.diversity / CORESET_FACTOR

    def test_deep_merge_tree_preserves_quality(self):
        # 16 shards -> a 4-level merge tree; quality must not decay with depth.
        dataset = _dataset(400, 2, seed=21)
        constraint = equal_representation(8, list(dataset.group_sizes()))
        sharded = _run(dataset, constraint, 16, "serial", "stratified", seed=None)
        unsharded = _run(dataset, constraint, 1, "serial", "stratified", seed=None)
        assert sharded.solution.is_fair
        assert sharded.solution.diversity >= unsharded.solution.diversity / CORESET_FACTOR
