"""Integration tests for the experiment harness end-to-end."""

import numpy as np
import pytest

from repro.api.solve import solve
from repro.data.element import Element
from repro.datasets.spec import DatasetSpec
from repro.datasets.synthetic import synthetic_blobs
from repro.evaluation.harness import (
    ExperimentConfig,
    algorithm_spec,
    coreset_algorithm,
    default_algorithms,
    extended_algorithms,
    parallel_algorithm,
    run_algorithm,
    run_experiment,
    streaming_algorithms,
    window_algorithm,
)
from repro.evaluation.reporting import format_table, records_to_rows, write_csv
from repro.metrics.vector import EuclideanMetric
from repro.utils.errors import InvalidParameterError


class TestRunExperiment:
    def test_full_suite_on_two_group_dataset(self):
        dataset = synthetic_blobs(n=200, m=2, seed=1)
        configs = [ExperimentConfig(dataset=dataset, k=6, repetitions=1)]
        records = run_experiment(configs)
        names = {record.algorithm for record in records}
        assert names == {"GMM", "FairSwap", "FairFlow", "SFDM1", "SFDM2"}
        assert all(record.diversity > 0 for record in records)

    def test_unsupported_algorithms_skipped_for_many_groups(self):
        dataset = synthetic_blobs(n=200, m=4, seed=1)
        configs = [ExperimentConfig(dataset=dataset, k=8, repetitions=1)]
        records = run_experiment(configs)
        names = {record.algorithm for record in records}
        assert "SFDM1" not in names
        assert "FairSwap" not in names
        assert {"GMM", "FairFlow", "SFDM2"}.issubset(names)

    def test_streaming_only_suite(self):
        dataset = synthetic_blobs(n=150, m=2, seed=2)
        configs = [ExperimentConfig(dataset=dataset, k=6, repetitions=2)]
        records = run_experiment(configs, algorithms=streaming_algorithms())
        assert {record.algorithm for record in records} == {"SFDM1", "SFDM2"}
        assert all(record.repetitions == 2 for record in records)

    def test_records_flow_into_reporting(self, tmp_path):
        dataset = synthetic_blobs(n=150, m=2, seed=3)
        configs = [ExperimentConfig(dataset=dataset, k=6, repetitions=1)]
        records = run_experiment(configs, algorithms=streaming_algorithms())
        rows = records_to_rows(records, columns=["algorithm", "diversity", "total_seconds"])
        table = format_table(rows, title="smoke")
        assert "SFDM1" in table and "SFDM2" in table
        path = write_csv(rows, tmp_path / "records.csv")
        assert path.exists()

    def test_multiple_cells(self):
        dataset = synthetic_blobs(n=120, m=2, seed=4)
        configs = [
            ExperimentConfig(dataset=dataset, k=4, repetitions=1),
            ExperimentConfig(dataset=dataset, k=8, repetitions=1),
        ]
        records = run_experiment(configs, algorithms=streaming_algorithms())
        ks = {record.k for record in records}
        assert ks == {4, 8}

    def test_extended_suite(self):
        dataset = synthetic_blobs(n=240, m=3, seed=6)
        configs = [ExperimentConfig(dataset=dataset, k=6, repetitions=1)]
        records = run_experiment(configs, algorithms=extended_algorithms(shards=3))
        names = {record.algorithm for record in records}
        assert names == {
            "Coreset",
            "WindowFDM",
            "SlidingWindowFDM",
            "ParallelFDM",
            "MWU",
        }
        assert all(record.diversity > 0 for record in records)

    def test_parallel_algorithm_validates_eagerly(self):
        with pytest.raises(InvalidParameterError):
            parallel_algorithm(shards=0)
        with pytest.raises(InvalidParameterError):
            parallel_algorithm(backend="gpu")
        with pytest.raises(InvalidParameterError):
            parallel_algorithm(strategy="zigzag")
        with pytest.raises(InvalidParameterError):
            parallel_algorithm(summarizer="kmeans")

    def test_window_and_coreset_validate_eagerly(self):
        with pytest.raises(InvalidParameterError):
            window_algorithm(window=0)
        with pytest.raises(InvalidParameterError):
            window_algorithm(blocks=0)
        with pytest.raises(InvalidParameterError):
            coreset_algorithm(num_parts=0)
        with pytest.raises(InvalidParameterError):
            coreset_algorithm(num_parts="four")
        with pytest.raises(InvalidParameterError):
            coreset_algorithm(num_parts=2.9)

    def test_parallel_spec_runs_with_repetitions(self):
        dataset = synthetic_blobs(n=200, m=2, seed=9)
        configs = [ExperimentConfig(dataset=dataset, k=6, repetitions=2)]
        records = run_experiment(
            configs, algorithms=[parallel_algorithm(shards=4, backend="thread")]
        )
        assert records[0].algorithm == "ParallelFDM"
        assert records[0].repetitions == 2
        assert records[0].failures == 0

    def test_proportional_fairness_cells(self):
        dataset = synthetic_blobs(n=200, m=2, seed=5)
        configs = [
            ExperimentConfig(dataset=dataset, k=8, repetitions=1, fairness="proportional")
        ]
        records = run_experiment(configs, algorithms=streaming_algorithms())
        assert all(record.fairness == "proportional" for record in records)
        assert all(record.diversity > 0 for record in records)


class TestFailureAccounting:
    @pytest.mark.parametrize("name", ["SlidingWindowFDM", "WindowFDM"])
    def test_repetition_without_solution_counts_as_failure(self, name):
        # Group 1 has three rows in 400, so no 50-row window meets its quota:
        # the windowed run answers None rather than raising.
        features = np.random.default_rng(0).normal(size=(400, 2))
        elements = [
            Element(uid=i, vector=row, group=int(i in (10, 20, 30)))
            for i, row in enumerate(features)
        ]
        dataset = DatasetSpec(
            name="sparse-group", elements=elements, metric=EuclideanMetric()
        )
        config = ExperimentConfig(dataset=dataset, k=6, repetitions=3)
        direct = solve(dataset, k=6, algorithm=name, window=50)
        assert not direct.succeeded
        record = run_algorithm(algorithm_spec(name, window=50), config)
        assert record.failures == 3
        assert record.diversity == 0.0
