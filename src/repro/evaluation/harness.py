"""Experiment harness: run algorithm suites over datasets and collect records.

The harness mirrors the paper's experimental protocol:

* every run is repeated over several random permutations of the dataset and
  the measures are averaged;
* streaming algorithms consume a one-pass :class:`DataStream`;
* offline baselines receive the full element list (they keep everything in
  memory, which is reflected in their stored-element accounting);
* the per-run records carry diversity, timings, and space so each
  table/figure script only needs to select and format columns.

All dispatch goes through the :mod:`repro.api.registry`: a harness
:class:`AlgorithmSpec` is a registry entry plus a frozen, eagerly-validated
option set, and the suite builders (:func:`streaming_algorithms`,
:func:`offline_algorithms`, :func:`extended_algorithms`) are registry
queries — there are no per-family runner closures here.  Each cell runs
as one :func:`repro.solve` call, so it resolves, validates and answers
exactly as ``solve`` does on the same dataset; a cell whose data cannot
meet the quotas raises :class:`~repro.utils.errors.InfeasibleConstraintError`
and counts as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.api.registry import RegisteredAlgorithm, get_algorithm
from repro.api.solve import SolveSpec, _resolve_constraint, solve
from repro.core.result import RunResult
from repro.datasets.spec import DatasetSpec
from repro.fairness.constraints import FairnessConstraint
from repro.utils.errors import InvalidParameterError, ReproError
from repro.utils.rng import derive_seed

#: An algorithm runner takes (dataset, constraint, epsilon, permutation seed)
#: and returns a RunResult.
AlgorithmRunner = Callable[[DatasetSpec, FairnessConstraint, float, Optional[int]], RunResult]


@dataclass
class AlgorithmSpec:
    """A named algorithm plus the runner the harness invokes.

    Specs are normally built from the registry with :func:`algorithm_spec`;
    the ``runner`` field remains a plain callable so tests and downstream
    code can still inject custom algorithms without registering them.
    """

    name: str
    runner: AlgorithmRunner
    #: Whether the algorithm is a streaming algorithm (affects which seeds
    #: the harness varies — offline algorithms are order-insensitive).
    streaming: bool = True
    #: Maximum number of groups supported (None = unlimited).
    max_groups: Optional[int] = None

    def supports(self, constraint: FairnessConstraint) -> bool:
        """Whether this algorithm can run under ``constraint``."""
        return self.max_groups is None or constraint.num_groups <= self.max_groups


def _registry_runner(
    entry: RegisteredAlgorithm, options: Dict[str, Any]
) -> AlgorithmRunner:
    """The one generic runner: a harness cell is one :func:`repro.solve` call.

    The cell resolves exactly as a direct ``solve`` on the dataset would:
    the dataset's metric, ``dataset.elements`` offline and
    ``dataset.stream(seed=seed)`` streaming, and the same option,
    constraint and feasibility checks.
    """

    def _run(
        dataset: DatasetSpec,
        constraint: FairnessConstraint,
        epsilon: float,
        seed: Optional[int],
    ) -> RunResult:
        return solve(
            SolveSpec(
                data=dataset,
                algorithm=entry.name,
                constraint=constraint,
                epsilon=epsilon,
                seed=seed,
                options=options,
            )
        )

    return _run


def algorithm_spec(name: str, **options: Any) -> AlgorithmSpec:
    """A harness :class:`AlgorithmSpec` for the registered algorithm ``name``.

    Options are validated eagerly against the registry entry's declared
    capabilities (mirroring the historical harness convention): a bad
    shard count, backend name, batch size, or unknown option raises
    :class:`InvalidParameterError` here, before any run starts, instead of
    being absorbed into per-repetition failure accounting.
    """
    entry = get_algorithm(name)
    cleaned = entry.validate_options(options)
    return AlgorithmSpec(
        name=entry.name,
        runner=_registry_runner(entry, cleaned),
        streaming=entry.capabilities.streaming,
        max_groups=entry.capabilities.max_groups,
    )


def streaming_algorithms(batch_size: Optional[int] = None) -> List[AlgorithmSpec]:
    """The paper's proposed streaming algorithms (a registry query).

    Parameters
    ----------
    batch_size:
        Rows per chunk of the SFDM1/SFDM2 ingestion engine; ``None``
        (default) means the engine's default chunk size.  Validated
        eagerly, before any run starts.
    """
    return [
        algorithm_spec("SFDM1", batch_size=batch_size),
        algorithm_spec("SFDM2", batch_size=batch_size),
    ]


def offline_algorithms(include_fair_gmm: bool = False) -> List[AlgorithmSpec]:
    """The offline comparison algorithms (GMM, FairSwap, FairFlow[, FairGMM])."""
    specs = [
        algorithm_spec("GMM"),
        algorithm_spec("FairSwap"),
        algorithm_spec("FairFlow"),
    ]
    if include_fair_gmm:
        specs.append(algorithm_spec("FairGMM"))
    return specs


def parallel_algorithm(
    shards=4,
    backend: str = "serial",
    strategy: str = "stratified",
    summarizer: str = "gmm",
) -> AlgorithmSpec:
    """The sharded ParallelFDM engine as a harness algorithm.

    ``shards`` and ``backend`` accept ``"auto"`` to defer the decision to
    the execution planner.  Parameters are validated eagerly through the
    registry entry: an invalid shard count, backend name, strategy, or
    summarizer raises :class:`InvalidParameterError` here, before any run
    starts.
    """
    return algorithm_spec(
        "ParallelFDM",
        shards=shards,
        backend=backend,
        strategy=strategy,
        summarizer=summarizer,
    )


def coreset_algorithm(num_parts: int = 4, refine_with_swap: bool = True) -> AlgorithmSpec:
    """The sequential composable-coreset route as a harness algorithm."""
    return algorithm_spec(
        "Coreset", num_parts=num_parts, refine_with_swap=refine_with_swap
    )


def window_algorithm(
    window: Optional[int] = None, blocks: int = 8, algorithm: str = "WindowFDM"
) -> AlgorithmSpec:
    """A windowed algorithm as a harness algorithm.

    With the default ``window=None`` the window spans the whole stream (no
    element ever expires), which exercises the block-summary machinery as a
    low-memory one-pass summarizer; pass an explicit window length for the
    genuine sliding-window regime.

    Parameters
    ----------
    algorithm:
        Which windowed implementation to run: the checkpointed baseline
        (``"WindowFDM"``, default) or the incremental
        ``"SlidingWindowFDM"``.
    """
    return algorithm_spec(algorithm, window=window, blocks=blocks)


def sliding_window_algorithm(
    window: Optional[int] = None, blocks: int = 8
) -> AlgorithmSpec:
    """The incremental sliding-window algorithm as a harness algorithm."""
    return window_algorithm(window=window, blocks=blocks, algorithm="SlidingWindowFDM")


def mwu_algorithm(iterations: int = 32, rounds: int = 8) -> AlgorithmSpec:
    """The MWU + LP-rounding quality oracle as a harness algorithm.

    Options are validated eagerly through the registry entry; the guess
    ladder's ``epsilon`` and the rounding ``seed`` are problem-level
    parameters and come from the :class:`ExperimentConfig`.
    """
    return algorithm_spec("MWU", iterations=iterations, rounds=rounds)


def extended_algorithms(
    shards: int = 4,
    backend: str = "serial",
    strategy: str = "stratified",
    window: Optional[int] = None,
    blocks: int = 8,
) -> List[AlgorithmSpec]:
    """The algorithms beyond the paper's suite.

    Coreset, the two windowed algorithms (checkpointed baseline and
    incremental sliding), ParallelFDM, and the MWU quality oracle.  These
    are kept out of :func:`default_algorithms` so the comparison tables
    keep the paper's Table II shape unless explicitly extended.
    """
    return [
        coreset_algorithm(),
        window_algorithm(window=window, blocks=blocks),
        sliding_window_algorithm(window=window, blocks=blocks),
        parallel_algorithm(shards=shards, backend=backend, strategy=strategy),
        mwu_algorithm(),
    ]


def default_algorithms(
    include_fair_gmm: bool = False,
    batch_size: Optional[int] = None,
) -> List[AlgorithmSpec]:
    """Offline baselines followed by the streaming algorithms (Table II order).

    Parameters
    ----------
    include_fair_gmm:
        Also include the enumeration-based FairGMM baseline (small k/m only).
    batch_size:
        Forwarded to :func:`streaming_algorithms` (the SFDM1/SFDM2 chunk
        size).
    """
    return offline_algorithms(include_fair_gmm=include_fair_gmm) + streaming_algorithms(
        batch_size=batch_size
    )


@dataclass
class ExperimentConfig:
    """Configuration of one experiment cell (dataset x constraint x parameters)."""

    dataset: DatasetSpec
    k: int
    epsilon: float = 0.1
    fairness: str = "equal"
    repetitions: int = 3
    base_seed: int = 42
    constraint: Optional[FairnessConstraint] = None

    def resolve_constraint(self) -> FairnessConstraint:
        """The fairness constraint for this cell (built from ``fairness`` if absent).

        Built by the rule :func:`repro.solve` applies; an explicit
        ``constraint`` is returned as is.
        """
        if self.constraint is not None:
            return self.constraint
        return _resolve_constraint(
            SolveSpec(k=self.k, fairness=self.fairness), self.dataset.group_sizes()
        )


@dataclass
class ExperimentRecord:
    """Averaged measurements of one algorithm on one experiment cell."""

    dataset: str
    algorithm: str
    k: int
    m: int
    epsilon: float
    fairness: str
    diversity: float
    total_seconds: float
    stream_seconds: float
    postprocess_seconds: float
    stored_elements: float
    repetitions: int
    failures: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary representation (used for CSV and table rows)."""
        data = {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "k": self.k,
            "m": self.m,
            "epsilon": self.epsilon,
            "fairness": self.fairness,
            "diversity": self.diversity,
            "total_seconds": self.total_seconds,
            "stream_seconds": self.stream_seconds,
            "postprocess_seconds": self.postprocess_seconds,
            "stored_elements": self.stored_elements,
            "repetitions": self.repetitions,
            "failures": self.failures,
        }
        data.update(self.extra)
        return data


def run_algorithm(
    spec: AlgorithmSpec, config: ExperimentConfig
) -> ExperimentRecord:
    """Run one algorithm on one experiment cell, averaged over permutations.

    Offline algorithms are order-insensitive, so they are run once;
    streaming algorithms are run ``config.repetitions`` times over different
    stream permutations (matching the paper's protocol of averaging over ten
    permutations, with a smaller default for quick local runs).
    """
    constraint = config.resolve_constraint()
    if not spec.supports(constraint):
        raise InvalidParameterError(
            f"{spec.name} does not support m={constraint.num_groups} groups"
        )
    repetitions = config.repetitions if spec.streaming else 1
    diversities: List[float] = []
    total_seconds: List[float] = []
    stream_seconds: List[float] = []
    post_seconds: List[float] = []
    stored: List[float] = []
    failures = 0
    for repetition in range(repetitions):
        seed = derive_seed(config.base_seed, repetition)
        try:
            result = spec.runner(config.dataset, constraint, config.epsilon, seed)
        except ReproError:
            failures += 1
            continue
        diversities.append(result.diversity)
        total_seconds.append(result.stats.total_seconds)
        stream_seconds.append(result.stats.stream_seconds)
        post_seconds.append(result.stats.postprocess_seconds)
        stored.append(float(result.stats.peak_stored_elements))

    def _mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return ExperimentRecord(
        dataset=config.dataset.name,
        algorithm=spec.name,
        k=config.k,
        m=constraint.num_groups,
        epsilon=config.epsilon,
        fairness=config.fairness,
        diversity=_mean(diversities),
        total_seconds=_mean(total_seconds),
        stream_seconds=_mean(stream_seconds),
        postprocess_seconds=_mean(post_seconds),
        stored_elements=_mean(stored),
        repetitions=repetitions,
        failures=failures,
    )


def run_experiment(
    configs: Sequence[ExperimentConfig],
    algorithms: Optional[Sequence[AlgorithmSpec]] = None,
    skip_unsupported: bool = True,
) -> List[ExperimentRecord]:
    """Run a suite of algorithms over a list of experiment cells.

    Parameters
    ----------
    configs:
        The experiment cells (dataset x parameters).
    algorithms:
        Algorithm suite; defaults to :func:`default_algorithms`.
    skip_unsupported:
        When ``True`` (default) algorithms that cannot handle a cell's group
        count (e.g. SFDM1 and FairSwap for m > 2) are skipped silently, as
        in the paper's Table II.
    """
    algorithms = list(algorithms) if algorithms is not None else default_algorithms()
    records: List[ExperimentRecord] = []
    for config in configs:
        constraint = config.resolve_constraint()
        for spec in algorithms:
            if skip_unsupported and not spec.supports(constraint):
                continue
            records.append(run_algorithm(spec, config))
    return records
