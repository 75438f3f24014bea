"""Unit tests for shard packing, summarizers, merge tree, and the driver."""

import numpy as np
import pytest

from repro.datasets.synthetic import synthetic_blobs
from repro.fairness.constraints import equal_representation
from repro.metrics.base import CallableMetric
from repro.metrics.vector import EuclideanMetric
from repro.data.store import ElementStore
from repro.parallel import ExecutionPlanner, ParallelFDM, merge_tree
from repro.parallel import shm as shm_module
from repro.parallel.driver import _summarize_shard, _ShardJob
from repro.parallel.shm import ShardRef, ship_shards, shm_available
from repro.parallel.merge import merge_pair
from repro.parallel.summarize import (
    GMMShardSummarizer,
    StreamShardSummarizer,
    resolve_summarizer,
)
from repro.data.element import Element
from repro.utils.errors import InvalidParameterError

METRIC = EuclideanMetric()


def _elements(count, period=2):
    return [
        Element(uid=i, vector=np.array([float(i), 0.0]), group=i % period)
        for i in range(count)
    ]


class TestShardShipping:
    def test_pickle_transport_ships_columnar_stores(self, monkeypatch):
        monkeypatch.setattr(shm_module, "shm_available", lambda: False)
        elements = _elements(7, period=3)
        elements[2].label = "special"
        payloads, block, used = ship_shards([elements])
        assert block is None and used == "pickle"
        (shipped,) = payloads
        assert isinstance(shipped, ElementStore)
        rebuilt = shipped.elements()
        assert [e.uid for e in rebuilt] == [e.uid for e in elements]
        assert [e.group for e in rebuilt] == [e.group for e in elements]
        assert rebuilt[2].label == "special"
        assert all(
            np.allclose(a.vector, b.vector) for a, b in zip(rebuilt, elements)
        )

    def test_shm_transport_ships_descriptors(self):
        if not shm_available():
            pytest.skip("shared memory unavailable on this platform")
        payloads, block, used = ship_shards([_elements(5), _elements(4)])
        try:
            assert used == "shm" and block is not None
            assert all(isinstance(ref, ShardRef) for ref in payloads)
            with payloads[0].attach() as attached:
                assert attached.store.features.shape == (5, 2)
        finally:
            if block is not None:
                block.dispose()

    def test_ragged_payloads_fall_back_to_element_lists(self):
        elements = [
            Element(uid=0, vector=np.array([1.0]), group=0),
            Element(uid=1, vector=np.array([1.0, 2.0]), group=1),
        ]
        payloads, block, used = ship_shards([elements])
        assert block is None and used == "pickle"
        (shipped,) = payloads
        assert not isinstance(shipped, ElementStore)
        assert [e.uid for e in shipped] == [0, 1]
        assert np.allclose(shipped[1].vector, [1.0, 2.0])

    def test_summary_elements_detach_from_store_when_pickled(self):
        import pickle

        store = ElementStore.from_elements(_elements(20))
        views = store.elements()
        restored = pickle.loads(pickle.dumps(views[:3]))
        assert [e.uid for e in restored] == [0, 1, 2]
        assert all(e.store is None and e.row == -1 for e in restored)
        assert all(
            np.allclose(a.vector, b.vector) for a, b in zip(restored, views[:3])
        )

    def test_summarize_shard_reports_worker_distance_calls(self):
        job = _ShardJob(
            shard=ElementStore.from_elements(_elements(20)),
            metric=METRIC,
            k=4,
            summarizer=GMMShardSummarizer(),
            start_index=0,
        )
        summary, calls = _summarize_shard(job)
        assert summary and calls > 0


class TestSummarizers:
    def test_gmm_summary_keeps_every_group(self):
        summary = GMMShardSummarizer().summarize(_elements(30, period=3), METRIC, 4)
        assert {e.group for e in summary} == {0, 1, 2}

    def test_stream_summary_keeps_every_group(self):
        summary = StreamShardSummarizer(chunk_size=8).summarize(
            _elements(30, period=3), METRIC, 4
        )
        assert {e.group for e in summary} == {0, 1, 2}
        uids = [e.uid for e in summary]
        assert len(uids) == len(set(uids))

    def test_stream_summary_single_element_shard(self):
        summary = StreamShardSummarizer().summarize(_elements(1), METRIC, 3)
        assert [e.uid for e in summary] == [0]

    def test_stream_summary_duplicate_only_shard(self):
        elements = [
            Element(uid=i, vector=np.array([1.0, 1.0]), group=0) for i in range(5)
        ]
        summary = StreamShardSummarizer(chunk_size=4).summarize(elements, METRIC, 3)
        assert 1 <= len(summary) <= 3

    def test_degenerate_shard_keeps_every_group(self):
        # Duplicate-only first chunk (no usable distance ladder) with the
        # minority group appearing only after position k: the fallback
        # must still keep up to k members of *every* group.
        elements = [
            Element(uid=i, vector=np.array([1.0, 1.0]), group=0) for i in range(6)
        ] + [
            Element(uid=6 + i, vector=np.array([2.0, 2.0]), group=1) for i in range(2)
        ]
        summary = StreamShardSummarizer(chunk_size=4).summarize(elements, METRIC, 2)
        assert {e.group for e in summary} == {0, 1}
        assert sum(1 for e in summary if e.group == 0) <= 2

    def test_stream_summary_works_without_batch_kernels(self):
        scalar_metric = CallableMetric(
            lambda x, y: float(np.abs(np.asarray(x) - np.asarray(y)).sum())
        )
        summary = StreamShardSummarizer(chunk_size=8).summarize(
            _elements(20), scalar_metric, 3
        )
        assert summary

    def test_resolve_summarizer(self):
        assert isinstance(resolve_summarizer(None), GMMShardSummarizer)
        assert isinstance(resolve_summarizer("stream"), StreamShardSummarizer)
        instance = GMMShardSummarizer()
        assert resolve_summarizer(instance) is instance
        with pytest.raises(InvalidParameterError):
            resolve_summarizer("magic")

    def test_stream_summarizer_validation(self):
        with pytest.raises(InvalidParameterError):
            StreamShardSummarizer(chunk_size=0)
        with pytest.raises(InvalidParameterError):
            StreamShardSummarizer(epsilon=1.5)


class TestMergeTree:
    def test_merge_pair_deduplicates_by_uid(self):
        elements = _elements(10)
        merged = merge_pair(elements[:6], elements[4:], METRIC, 4)
        uids = [e.uid for e in merged]
        assert len(uids) == len(set(uids))
        assert {e.group for e in merged} == {0, 1}

    def test_tree_reduces_to_single_summary(self):
        parts = [_elements(8), _elements(8), _elements(8), _elements(8)]
        coreset, rounds = merge_tree(parts, METRIC, 3)
        assert rounds == 2
        assert coreset

    def test_odd_summary_carried_over(self):
        parts = [_elements(6)[:2], _elements(6)[2:4], _elements(6)[4:]]
        coreset, rounds = merge_tree(parts, METRIC, 2)
        assert rounds == 2
        assert {e.uid for e in coreset} <= {0, 1, 2, 3, 4, 5}

    def test_empty_and_single_inputs(self):
        assert merge_tree([], METRIC, 3) == ([], 0)
        coreset, rounds = merge_tree([[], _elements(4)], METRIC, 3)
        assert rounds == 0
        assert [e.uid for e in coreset] == [0, 1, 2, 3]


class TestParallelFDM:
    def test_eager_validation(self):
        constraint = equal_representation(4, [0, 1])
        with pytest.raises(InvalidParameterError):
            ParallelFDM(METRIC, constraint, shards=0)
        with pytest.raises(InvalidParameterError):
            ParallelFDM(METRIC, constraint, backend="gpu")
        with pytest.raises(InvalidParameterError):
            ParallelFDM(METRIC, constraint, strategy="random")
        with pytest.raises(InvalidParameterError):
            ParallelFDM(METRIC, constraint, summarizer="magic")
        with pytest.raises(InvalidParameterError):
            ParallelFDM(METRIC, constraint, summary_size=0)

    def test_run_returns_fair_solution_and_accounting(self):
        dataset = synthetic_blobs(n=600, m=3, seed=5)
        constraint = equal_representation(9, list(dataset.group_sizes()))
        result = ParallelFDM(
            dataset.metric, constraint, shards=4, backend="serial", seed=3
        ).run(dataset.stream(seed=1))
        assert result.solution is not None and result.solution.is_fair
        assert result.algorithm == "ParallelFDM"
        assert result.stats.elements_processed == 600
        assert result.stats.extra["shards"] == 4.0
        assert result.stats.extra["merge_rounds"] == 2.0
        assert result.stats.stream_distance_computations > 0
        assert result.stats.postprocess_distance_computations > 0
        # Distributed accounting: far below holding all n elements at once.
        assert result.stats.peak_stored_elements < 600
        assert result.params["backend"] == "serial"

    def test_reproducible_for_fixed_configuration(self):
        dataset = synthetic_blobs(n=400, m=2, seed=8)
        constraint = equal_representation(6, list(dataset.group_sizes()))

        def _run():
            return ParallelFDM(
                dataset.metric, constraint, shards=3, backend="serial", seed=17
            ).run(dataset.stream(seed=2))

        assert _run().solution.uids == _run().solution.uids

    def test_seed_varies_gmm_starts(self):
        dataset = synthetic_blobs(n=300, m=2, seed=8)
        constraint = equal_representation(6, list(dataset.group_sizes()))
        runs = {
            seed: ParallelFDM(
                dataset.metric, constraint, shards=3, seed=seed
            ).run(dataset.stream(seed=2))
            for seed in (None, 1, 2)
        }
        # All runs must be fair regardless of the seeded start positions.
        assert all(r.solution.is_fair for r in runs.values())

    def test_shard_count_capped_for_tiny_streams(self):
        dataset = synthetic_blobs(n=6, m=2, seed=4)
        constraint = equal_representation(2, list(dataset.group_sizes()))
        result = ParallelFDM(dataset.metric, constraint, shards=32).run(
            dataset.stream(seed=None)
        )
        assert result.solution is not None
        assert result.stats.extra["shards"] <= 6.0

    def test_contiguous_strategy_runs(self):
        dataset = synthetic_blobs(n=200, m=2, seed=4)
        constraint = equal_representation(4, list(dataset.group_sizes()))
        result = ParallelFDM(
            dataset.metric, constraint, shards=4, strategy="contiguous"
        ).run(dataset.stream(seed=1))
        assert result.solution.is_fair

    def test_auto_plan_recorded_in_params(self):
        dataset = synthetic_blobs(n=120, m=2, seed=4)
        constraint = equal_representation(4, list(dataset.group_sizes()))
        result = ParallelFDM(
            dataset.metric, constraint, shards="auto", backend="auto"
        ).run(dataset.stream(seed=1))
        assert result.solution.is_fair
        assert result.params["backend"] in ("serial", "thread", "process")
        assert isinstance(result.params["shards"], int)
        assert "plan" in result.params

    def test_inline_transport_for_in_process_backends(self):
        dataset = synthetic_blobs(n=120, m=2, seed=4)
        constraint = equal_representation(4, list(dataset.group_sizes()))
        for backend in ("serial", "thread"):
            result = ParallelFDM(
                dataset.metric, constraint, shards=3, backend=backend
            ).run(dataset.stream(seed=1))
            assert result.params["transport"] == "inline"


class TestExecutionPlanner:
    def test_small_inputs_stay_serial(self):
        plan = ExecutionPlanner(cpus=16).plan(1000, dim=2)
        assert plan.backend == "serial"
        assert 1 <= plan.shards <= 4
        assert "cutoff" in plan.reason

    def test_single_cpu_stays_serial_at_any_size(self):
        plan = ExecutionPlanner(cpus=1).plan(10_000_000, dim=32)
        assert plan.backend == "serial"
        assert "single usable cpu" in plan.reason

    def test_large_inputs_go_to_processes(self):
        plan = ExecutionPlanner(cpus=8).plan(1_000_000, dim=8)
        assert plan.backend == "process"
        assert 8 <= plan.shards <= 16

    def test_wide_rows_lower_the_cutoff(self):
        narrow = ExecutionPlanner(cpus=8).plan(20_000, dim=2)
        wide = ExecutionPlanner(cpus=8).plan(20_000, dim=128)
        assert narrow.backend == "serial"
        assert wide.backend == "process"

    def test_shards_are_bounded(self):
        plan = ExecutionPlanner(cpus=64, max_shards=32).plan(100_000_000, dim=8)
        assert plan.shards == 32

    def test_planner_validation(self):
        with pytest.raises(InvalidParameterError):
            ExecutionPlanner(serial_cutoff=0)
        with pytest.raises(InvalidParameterError):
            ExecutionPlanner(cpus=0)
