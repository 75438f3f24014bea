"""Experiment harness: measures, algorithm runners, and report formatting."""

from repro.evaluation.measures import (
    diversity,
    fairness_violation,
    optimum_upper_bound,
    approximation_ratio_lower_bound,
)
from repro.evaluation.harness import (
    AlgorithmSpec,
    ExperimentConfig,
    ExperimentRecord,
    run_algorithm,
    run_experiment,
    streaming_algorithms,
    offline_algorithms,
    default_algorithms,
)
from repro.evaluation.reporting import format_table, records_to_rows, write_csv

__all__ = [
    "diversity",
    "fairness_violation",
    "optimum_upper_bound",
    "approximation_ratio_lower_bound",
    "AlgorithmSpec",
    "ExperimentConfig",
    "ExperimentRecord",
    "run_algorithm",
    "run_experiment",
    "streaming_algorithms",
    "offline_algorithms",
    "default_algorithms",
    "format_table",
    "records_to_rows",
    "write_csv",
]
