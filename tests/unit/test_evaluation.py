"""Unit tests for the evaluation measures, harness plumbing, and reporting."""

import numpy as np
import pytest

import repro
from repro.datasets.synthetic import synthetic_blobs
from repro.evaluation.harness import (
    AlgorithmSpec,
    ExperimentConfig,
    default_algorithms,
    offline_algorithms,
    run_algorithm,
    streaming_algorithms,
)
from repro.evaluation.measures import (
    approximation_ratio_lower_bound,
    diversity,
    fairness_violation,
    optimum_upper_bound,
)
from repro.evaluation.reporting import (
    format_table,
    records_to_rows,
    summarize_trace,
    write_csv,
)
from repro.fairness.constraints import FairnessConstraint, equal_representation
from repro.metrics.vector import EuclideanMetric
from repro.obs import MemorySink
from repro.data.element import Element
from repro.utils.errors import InvalidParameterError


def _line_elements(count, group_period=2):
    return [
        Element(uid=i, vector=np.array([float(i), 0.0]), group=i % group_period)
        for i in range(count)
    ]


class TestMeasures:
    def test_diversity_matches_solution_module(self):
        elements = _line_elements(5)
        assert diversity(elements, EuclideanMetric()) == pytest.approx(1.0)

    def test_fairness_violation(self):
        constraint = FairnessConstraint({0: 1, 1: 1})
        assert fairness_violation(_line_elements(2), constraint) == 0
        assert fairness_violation(_line_elements(4), constraint) == 2

    def test_optimum_upper_bound_is_valid(self):
        elements = _line_elements(12)
        upper = optimum_upper_bound(elements, EuclideanMetric(), 4)
        from repro.baselines.exact import exact_dm

        _, optimum = exact_dm(elements, EuclideanMetric(), 4)
        assert upper >= optimum - 1e-9

    def test_approximation_ratio_lower_bound_in_unit_interval(self):
        elements = _line_elements(12)
        ratio = approximation_ratio_lower_bound(1.0, elements, EuclideanMetric(), 4)
        assert 0.0 < ratio <= 1.0


class TestHarness:
    def test_algorithm_suites(self):
        names = {spec.name for spec in default_algorithms(include_fair_gmm=True)}
        assert names == {"GMM", "FairSwap", "FairFlow", "FairGMM", "SFDM1", "SFDM2"}
        assert {spec.name for spec in streaming_algorithms()} == {"SFDM1", "SFDM2"}
        assert "FairGMM" not in {spec.name for spec in offline_algorithms()}

    def test_spec_supports_group_limits(self):
        sfdm1 = next(s for s in streaming_algorithms() if s.name == "SFDM1")
        assert sfdm1.supports(equal_representation(4, [0, 1]))
        assert not sfdm1.supports(equal_representation(6, [0, 1, 2]))

    def test_config_resolves_equal_constraint(self):
        dataset = synthetic_blobs(n=100, m=2, seed=0)
        config = ExperimentConfig(dataset=dataset, k=6, fairness="equal")
        constraint = config.resolve_constraint()
        assert constraint.total_size == 6
        assert constraint.num_groups == 2

    def test_config_resolves_proportional_constraint(self):
        dataset = synthetic_blobs(n=200, m=2, seed=0)
        config = ExperimentConfig(dataset=dataset, k=10, fairness="proportional")
        assert config.resolve_constraint().total_size == 10

    def test_config_rejects_unknown_fairness(self):
        dataset = synthetic_blobs(n=50, m=2, seed=0)
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(dataset=dataset, k=4, fairness="lexicographic").resolve_constraint()

    def test_run_algorithm_produces_record(self):
        dataset = synthetic_blobs(n=150, m=2, seed=0)
        config = ExperimentConfig(dataset=dataset, k=6, repetitions=1)
        spec = next(s for s in streaming_algorithms() if s.name == "SFDM2")
        record = run_algorithm(spec, config)
        assert record.algorithm == "SFDM2"
        assert record.diversity > 0
        assert record.stored_elements > 0
        assert record.failures == 0

    def test_run_algorithm_rejects_unsupported(self):
        dataset = synthetic_blobs(n=100, m=3, seed=0)
        config = ExperimentConfig(dataset=dataset, k=6, repetitions=1)
        sfdm1 = next(s for s in streaming_algorithms() if s.name == "SFDM1")
        with pytest.raises(InvalidParameterError):
            run_algorithm(sfdm1, config)


class TestReporting:
    def test_format_table_alignment_and_title(self):
        rows = [{"a": 1, "b": 2.34567}, {"a": 10, "b": 0.5}]
        table = format_table(rows, title="demo")
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_records_to_rows_projection(self):
        dataset = synthetic_blobs(n=100, m=2, seed=0)
        config = ExperimentConfig(dataset=dataset, k=4, repetitions=1)
        record = run_algorithm(
            next(s for s in streaming_algorithms() if s.name == "SFDM2"), config
        )
        rows = records_to_rows([record], columns=["algorithm", "diversity"])
        assert list(rows[0].keys()) == ["algorithm", "diversity"]

    def test_write_csv(self, tmp_path):
        rows = [{"x": 1, "y": "a"}, {"x": 2, "y": "b"}]
        path = write_csv(rows, tmp_path / "out" / "table.csv")
        content = path.read_text().strip().splitlines()
        assert content[0] == "x,y"
        assert len(content) == 3

    def test_write_csv_empty(self, tmp_path):
        path = write_csv([], tmp_path / "empty.csv")
        assert path.read_text() == ""


def _span(name, span_id, start, duration, parent=None):
    """A span record as a trace sink writes it (times in seconds)."""
    return {
        "type": "span", "name": name, "span_id": span_id, "parent_id": parent,
        "mono": start, "dur": duration, "attrs": {},
    }


def _rows_by_name(records):
    return {row["name"]: row for row in summarize_trace(records)}


class TestSummarizeTrace:
    def test_nested_children_leave_each_level_its_own_time(self):
        records = [
            _span("leaf", 3, 3.0, 1.0, parent=2),
            _span("child", 2, 2.0, 3.0, parent=1),
            _span("root", 1, 0.0, 10.0),
        ]
        rows = _rows_by_name(records)
        assert rows["root"]["total_ms"] == pytest.approx(10_000.0)
        assert rows["root"]["self_ms"] == pytest.approx(7_000.0)
        assert rows["child"]["self_ms"] == pytest.approx(2_000.0)
        assert rows["leaf"]["self_ms"] == pytest.approx(1_000.0)
        assert [row["name"] for row in summarize_trace(records)] == ["root", "child", "leaf"]

    def test_overlapping_children_are_merged_before_subtracting(self):
        rows = _rows_by_name([
            _span("worker", 2, 1.0, 3.0, parent=1),
            _span("worker", 3, 3.0, 3.0, parent=1),
            _span("request", 1, 0.0, 10.0),
        ])
        # The children cover [1, 6]: 5 s of the parent's 10.
        assert rows["request"]["self_ms"] == pytest.approx(5_000.0)
        assert rows["worker"]["count"] == 2
        assert rows["worker"]["total_ms"] == pytest.approx(6_000.0)
        assert rows["worker"]["self_ms"] == pytest.approx(6_000.0)
        assert rows["worker"]["mean_ms"] == pytest.approx(3_000.0)

    def test_escaping_children_are_clipped_to_the_parent(self):
        rows = _rows_by_name([
            _span("early", 2, -2.0, 3.0, parent=1),
            _span("late", 3, 8.0, 5.0, parent=1),
            _span("whole", 4, -1.0, 20.0, parent=1),
            _span("parent", 1, 0.0, 10.0),
        ])
        assert rows["parent"]["self_ms"] == pytest.approx(0.0)
        rows = _rows_by_name([
            _span("early", 2, -2.0, 3.0, parent=1),
            _span("late", 3, 8.0, 5.0, parent=1),
            _span("parent", 1, 0.0, 10.0),
        ])
        # Only [0, 1] and [8, 10] of the children lie inside the parent.
        assert rows["parent"]["self_ms"] == pytest.approx(7_000.0)
        assert rows["late"]["self_ms"] == pytest.approx(5_000.0)

    def test_events_count_but_take_no_time(self):
        rows = _rows_by_name([
            {"type": "event", "name": "tick", "span_id": 1, "mono": 2.0, "attrs": {}},
            {"type": "event", "name": "tick", "span_id": 1, "mono": 4.0, "attrs": {}},
            _span("run", 1, 0.0, 5.0),
        ])
        assert rows["tick"] == {
            "name": "tick", "count": 2, "total_ms": 0.0, "mean_ms": 0.0, "self_ms": 0.0,
        }
        assert rows["run"]["self_ms"] == pytest.approx(5_000.0)

    def test_self_time_of_a_traced_solve_adds_up_to_its_root(self):
        sink = MemorySink()
        repro.solve(synthetic_blobs(n=300, m=2, seed=1), k=4, algorithm="SFDM2", trace=sink)
        rows = summarize_trace(sink.records)
        (root,) = sink.spans("solve")
        assert sum(row["self_ms"] for row in rows) == pytest.approx(root["dur"] * 1000.0)
        assert all(row["self_ms"] <= row["total_ms"] + 1e-9 for row in rows)
