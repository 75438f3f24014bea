"""Streaming fair diversity maximization.

Reproduction of *"Streaming Algorithms for Diversity Maximization with
Fairness Constraints"* (Wang, Fabbri, Mathioudakis -- ICDE 2022,
arXiv:2208.00194).

The package exposes:

* the unified API layer: :func:`solve` (one call for any data shape and
  any registered algorithm), the pluggable algorithm registry
  (:func:`register_algorithm`, :func:`algorithms`), and long-lived
  streaming sessions (:func:`open_session`, :func:`resume`);
* the streaming algorithms :class:`SFDM1`, :class:`SFDM2`, and the
  unconstrained building block :class:`StreamingDiversityMaximization`;
* the offline baselines ``gmm``, ``fair_swap``, ``fair_flow``, ``fair_gmm``;
* the sharded parallel engine :class:`ParallelFDM` with its serial /
  thread / process execution backends;
* the windowing layer: the incremental sliding-window algorithm
  :class:`SlidingWindowFDM` (with the block-summary baseline
  :class:`CheckpointedWindowFDM`);
* the supporting substrates: metrics, streams, fairness constraints,
  matroids (with matroid intersection), max-flow, datasets, and an
  experiment harness.

Quickstart
----------
>>> import repro
>>> dataset = repro.synthetic_blobs(n=2_000, m=2, seed=7)
>>> result = repro.solve(dataset, k=10, seed=1)
>>> result.solution.is_fair
True
"""

from repro.core import (
    Candidate,
    FairSolution,
    GuessLadder,
    RunResult,
    SFDM1,
    SFDM2,
    Solution,
    StreamingDiversityMaximization,
)
from repro.baselines import (
    exact_dm,
    exact_fdm,
    fair_flow,
    fair_gmm,
    fair_swap,
    gmm,
    max_sum_greedy,
    mwu_fair,
)
from repro.datasets import (
    DatasetSpec,
    adult_surrogate,
    celeba_surrogate,
    census_surrogate,
    load_dataset,
    lyrics_surrogate,
    synthetic_blobs,
    uniform_points,
    dataset_names,
)
from repro.fairness import (
    FairnessConstraint,
    audit_fairness,
    equal_representation,
    proportional_representation,
)
from repro.metrics import (
    AngularMetric,
    EuclideanMetric,
    ManhattanMetric,
    Metric,
    MetricSpace,
    angular,
    cosine,
    euclidean,
    hamming,
    manhattan,
)
from repro.parallel import (
    ParallelFDM,
    ProcessBackend,
    SerialBackend,
    ShardPlanner,
    ThreadBackend,
)
from repro.data import ElementStore
from repro.streaming import DataStream, Element, StreamStats, iter_batches, stream_from_arrays
from repro.windowing import CheckpointedWindowFDM, SlidingWindowFDM
from repro.api import (
    AlgorithmInfo,
    Capabilities,
    SolveSpec,
    StreamingSession,
    WindowSession,
    algorithm_names,
    algorithms,
    get_algorithm,
    open_session,
    register_algorithm,
    resume,
    solve,
)
from repro.utils import (
    CheckpointError,
    EmptyStreamError,
    InfeasibleConstraintError,
    InvalidParameterError,
    NoFeasibleSolutionError,
    ReproError,
)

__version__ = "1.0.0"

__all__ = [
    # unified API layer
    "solve",
    "SolveSpec",
    "open_session",
    "resume",
    "StreamingSession",
    "WindowSession",
    "algorithms",
    "algorithm_names",
    "get_algorithm",
    "register_algorithm",
    "AlgorithmInfo",
    "Capabilities",
    # core algorithms
    "StreamingDiversityMaximization",
    "SFDM1",
    "SFDM2",
    "GuessLadder",
    "Candidate",
    "Solution",
    "FairSolution",
    "RunResult",
    # baselines
    "gmm",
    "max_sum_greedy",
    "fair_swap",
    "fair_flow",
    "fair_gmm",
    "exact_dm",
    "exact_fdm",
    "mwu_fair",
    # datasets
    "DatasetSpec",
    "synthetic_blobs",
    "uniform_points",
    "adult_surrogate",
    "celeba_surrogate",
    "census_surrogate",
    "lyrics_surrogate",
    "load_dataset",
    "dataset_names",
    # fairness
    "FairnessConstraint",
    "equal_representation",
    "proportional_representation",
    "audit_fairness",
    # metrics
    "Metric",
    "MetricSpace",
    "EuclideanMetric",
    "ManhattanMetric",
    "AngularMetric",
    "euclidean",
    "manhattan",
    "angular",
    "cosine",
    "hamming",
    # parallel execution
    "ParallelFDM",
    "ShardPlanner",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    # windowing layer
    "SlidingWindowFDM",
    "CheckpointedWindowFDM",
    # data layer + streaming
    "Element",
    "ElementStore",
    "DataStream",
    "StreamStats",
    "iter_batches",
    "stream_from_arrays",
    # errors
    "ReproError",
    "InvalidParameterError",
    "InfeasibleConstraintError",
    "CheckpointError",
    "EmptyStreamError",
    "NoFeasibleSolutionError",
    "__version__",
]
