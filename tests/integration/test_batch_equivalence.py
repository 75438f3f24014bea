"""Every chunk size must produce the same streaming output.

The ingestion engine only reschedules the arithmetic of the paper's update
rule — every accept/reject decision is the same whatever the chunk size
(``batch_size``) on the same stream order.  These tests pin that
equivalence end-to-end for all three streaming algorithms, between the
default chunk size and explicit ones, and for the vectorized offline
helpers.
"""

import pytest

from repro.baselines.gmm import gmm_elements
from repro.core.postprocess import greedy_fair_fill
from repro.core.sfdm1 import SFDM1
from repro.core.sfdm2 import SFDM2
from repro.core.streaming_dm import StreamingDiversityMaximization
from repro.datasets.synthetic import synthetic_blobs
from repro.fairness.constraints import equal_representation
from repro.metrics.base import CallableMetric
from repro.metrics.vector import EuclideanMetric
from repro.utils.errors import InvalidParameterError


@pytest.fixture(scope="module")
def dataset():
    return synthetic_blobs(n=1_500, m=2, seed=11)


@pytest.fixture(scope="module")
def constraint(dataset):
    return equal_representation(8, list(dataset.group_sizes().keys()))


def _scalar_euclidean():
    """The Euclidean formula without batch kernels (the scalar-loop kernels)."""
    inner = EuclideanMetric()
    return CallableMetric(inner.distance, name="scalar-euclidean")


class TestStreamingEquivalence:
    @pytest.mark.parametrize("batch_size", [64, 256, 1_024])
    def test_sfdm2_batch_matches_element(self, dataset, constraint, batch_size):
        element = SFDM2(metric=dataset.metric, constraint=constraint).run(dataset.stream(seed=1))
        batch = SFDM2(
            metric=dataset.metric, constraint=constraint, batch_size=batch_size
        ).run(dataset.stream(seed=1))
        assert sorted(element.solution.uids) == sorted(batch.solution.uids)
        assert element.solution.diversity == pytest.approx(batch.solution.diversity)

    def test_sfdm1_batch_matches_element(self, dataset, constraint):
        element = SFDM1(metric=dataset.metric, constraint=constraint).run(dataset.stream(seed=2))
        batch = SFDM1(metric=dataset.metric, constraint=constraint, batch_size=128).run(
            dataset.stream(seed=2)
        )
        assert sorted(element.solution.uids) == sorted(batch.solution.uids)
        assert element.solution.diversity == pytest.approx(batch.solution.diversity)

    def test_streaming_dm_batch_matches_element(self, dataset):
        element = StreamingDiversityMaximization(metric=dataset.metric, k=6).run(
            dataset.stream(seed=3)
        )
        batch = StreamingDiversityMaximization(
            metric=dataset.metric, k=6, batch_size=200
        ).run(dataset.stream(seed=3))
        assert sorted(element.solution.uids) == sorted(batch.solution.uids)

    def test_batch_mode_recorded_in_stats(self, dataset, constraint):
        result = SFDM2(
            metric=dataset.metric, constraint=constraint, batch_size=256
        ).run(dataset.stream(seed=4))
        assert result.stats.extra.get("batch_size") == 256.0

    def test_scalar_metric_falls_back_silently(self, dataset, constraint):
        """A batch_size with a kernel-less metric must still work (scalar loops)."""
        metric = _scalar_euclidean()
        element = SFDM2(metric=metric, constraint=constraint).run(dataset.stream(seed=5))
        batch = SFDM2(metric=metric, constraint=constraint, batch_size=128).run(
            dataset.stream(seed=5)
        )
        assert sorted(element.solution.uids) == sorted(batch.solution.uids)
        # Kernel-less metrics run the same chunks; the size used is recorded.
        assert batch.stats.extra["batch_size"] == 128.0

    def test_invalid_batch_size_rejected(self, dataset, constraint):
        with pytest.raises(InvalidParameterError):
            SFDM2(metric=dataset.metric, constraint=constraint, batch_size=0)


class TestOfflineHelpersEquivalence:
    def test_gmm_batched_matches_scalar(self, dataset):
        pool = dataset.elements[:400]
        fast = gmm_elements(pool, EuclideanMetric(), k=12)
        slow = gmm_elements(pool, _scalar_euclidean(), k=12)
        assert [e.uid for e in fast] == [e.uid for e in slow]

    def test_greedy_fair_fill_batched_matches_scalar(self, dataset, constraint):
        pool = dataset.elements[:300]
        fast = greedy_fair_fill(pool, constraint, EuclideanMetric())
        slow = greedy_fair_fill(pool, constraint, _scalar_euclidean())
        assert [e.uid for e in fast] == [e.uid for e in slow]
