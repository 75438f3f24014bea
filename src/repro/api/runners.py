"""Built-in algorithm registrations for the unified API layer.

Every solver family in the library self-registers here with its declared
:class:`~repro.api.registry.Capabilities`.  The adapters are deliberately
thin: each one invokes the underlying algorithm with **exactly** the calling
convention a direct caller would use (same constructor arguments, same
defaults, same stream), so dispatching through the registry is
byte-identical to direct invocation — the registry-driven equivalence test
pins this for every entry.

Importing this module populates the registry; :mod:`repro.api` does so on
package import.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro import obs
from repro.api.registry import RunContext, register_algorithm
from repro.baselines.fair_flow import fair_flow
from repro.baselines.fair_gmm import fair_gmm
from repro.baselines.fair_swap import fair_swap
from repro.baselines.gmm import gmm
from repro.baselines.mwu import mwu_fair
from repro.core.base import DEFAULT_BATCH_SIZE, stream_chunks
from repro.core.coreset import coreset_fair_diversity
from repro.core.result import RunResult
from repro.core.sfdm1 import SFDM1
from repro.core.sfdm2 import SFDM2
from repro.core.streaming_dm import StreamingDiversityMaximization
from repro.parallel.backends import resolve_backend
from repro.parallel.driver import ParallelFDM
from repro.parallel.planner import ShardPlanner
from repro.parallel.summarize import resolve_summarizer
from repro.metrics.cached import CountingMetric
from repro.streaming.stats import StreamStats
from repro.utils.errors import InvalidParameterError
from repro.windowing import CheckpointedWindowFDM, SlidingWindowFDM
from repro.utils.timer import Timer
from repro.utils.validation import require_positive_int

_LOGGER = obs.get_logger("api")

#: Options shared by every streaming-ladder algorithm.
_STREAMING_OPTIONS = ("batch_size", "warmup_size", "distance_bounds")


def _validate_streaming(options: Mapping[str, Any]) -> None:
    """Eager checks for the streaming-ladder options."""
    batch_size = options.get("batch_size")
    if batch_size is not None and batch_size < 1:
        raise InvalidParameterError(f"batch_size must be positive, got {batch_size}")
    warmup = options.get("warmup_size")
    if warmup is not None and warmup < 2:
        raise InvalidParameterError("warmup_size must be at least 2")


def _make_streaming_dm(context: RunContext) -> StreamingDiversityMaximization:
    return StreamingDiversityMaximization(
        metric=context.metric,
        k=context.k,
        epsilon=context.epsilon,
        distance_bounds=context.option("distance_bounds"),
        warmup_size=context.option("warmup_size", 64),
        batch_size=context.option("batch_size"),
    )


def _make_sfdm1(context: RunContext) -> SFDM1:
    return SFDM1(
        metric=context.metric,
        constraint=context.require_constraint(),
        epsilon=context.epsilon,
        distance_bounds=context.option("distance_bounds"),
        warmup_size=context.option("warmup_size", 64),
        fallback=context.option("fallback", True),
        batch_size=context.option("batch_size"),
    )


def _make_sfdm2(context: RunContext) -> SFDM2:
    return SFDM2(
        metric=context.metric,
        constraint=context.require_constraint(),
        epsilon=context.epsilon,
        distance_bounds=context.option("distance_bounds"),
        warmup_size=context.option("warmup_size", 64),
        fallback=context.option("fallback", True),
        greedy_augmentation=context.option("greedy_augmentation", True),
        batch_size=context.option("batch_size"),
    )


def _session_for(maker):
    """A session factory wrapping ``maker``'s algorithm in a live session."""

    def _factory(context: RunContext):
        from repro.api.session import StreamingSession

        return StreamingSession(maker(context))

    return _factory


@register_algorithm(
    "StreamingDM",
    kind="streaming",
    aliases=("streaming-dm", "algorithm1"),
    description="Algorithm 1: unconstrained streaming max-min diversity maximization",
    streaming=True,
    constrained=False,
    batch=True,
    sessions=True,
    constraint_kinds=(),
    options=_STREAMING_OPTIONS,
    validator=_validate_streaming,
    session_factory=_session_for(_make_streaming_dm),
)
def _run_streaming_dm(context: RunContext) -> RunResult:
    """Run Algorithm 1 on the context's stream."""
    return _make_streaming_dm(context).run(context.stream())


@register_algorithm(
    "SFDM1",
    kind="streaming",
    aliases=("sfdm1",),
    description="Algorithm 2: (1-eps)/4-approximate streaming fair DM for two groups",
    streaming=True,
    max_groups=2,
    batch=True,
    sessions=True,
    options=_STREAMING_OPTIONS + ("fallback",),
    validator=_validate_streaming,
    session_factory=_session_for(_make_sfdm1),
)
def _run_sfdm1(context: RunContext) -> RunResult:
    """Run SFDM1 on the context's stream."""
    return _make_sfdm1(context).run(context.stream())


@register_algorithm(
    "SFDM2",
    kind="streaming",
    aliases=("sfdm2",),
    description="Algorithm 3: (1-eps)/(3m+2)-approximate streaming fair DM for any m",
    streaming=True,
    batch=True,
    sessions=True,
    options=_STREAMING_OPTIONS + ("fallback", "greedy_augmentation"),
    validator=_validate_streaming,
    session_factory=_session_for(_make_sfdm2),
)
def _run_sfdm2(context: RunContext) -> RunResult:
    """Run SFDM2 on the context's stream."""
    return _make_sfdm2(context).run(context.stream())


@register_algorithm(
    "GMM",
    kind="offline",
    aliases=("gmm",),
    description="Gonzalez farthest-point greedy (unconstrained 1/2-approximation)",
    streaming=False,
    constrained=False,
    constraint_kinds=(),
)
def _run_gmm(context: RunContext) -> RunResult:
    """Run the offline GMM baseline on the full element list."""
    return gmm(context.elements, context.metric, context.k)


@register_algorithm(
    "FairSwap",
    kind="offline",
    aliases=("fair-swap",),
    description="Offline 1/4-approximate fair DM via swapping (two groups)",
    streaming=False,
    max_groups=2,
)
def _run_fair_swap(context: RunContext) -> RunResult:
    """Run the offline FairSwap baseline."""
    return fair_swap(context.elements, context.metric, context.require_constraint())


@register_algorithm(
    "FairFlow",
    kind="offline",
    aliases=("fair-flow",),
    description="Offline 1/(3m-1)-approximate fair DM via max-flow (any m)",
    streaming=False,
)
def _run_fair_flow(context: RunContext) -> RunResult:
    """Run the offline FairFlow baseline."""
    return fair_flow(context.elements, context.metric, context.require_constraint())


@register_algorithm(
    "FairGMM",
    kind="offline",
    aliases=("fair-gmm",),
    description="Offline 1/5-approximate fair DM by enumeration (small k and m)",
    streaming=False,
    max_groups=5,
    options=("max_combinations",),
)
def _run_fair_gmm(context: RunContext) -> RunResult:
    """Run the offline FairGMM baseline."""
    return fair_gmm(
        context.elements,
        context.metric,
        context.require_constraint(),
        max_combinations=context.option("max_combinations", 2_000_000),
    )


def _validate_mwu(options: Mapping[str, Any]) -> None:
    """Eager checks for the MWU loop-size options.

    ``epsilon`` and ``seed`` arrive as problem-level :func:`repro.solve`
    arguments (they are SolveSpec fields, not entry options) and are
    range-checked inside :func:`~repro.baselines.mwu.mwu_fair`.
    """
    if "iterations" in options:
        require_positive_int(options["iterations"], "iterations")
    if "rounds" in options:
        require_positive_int(options["rounds"], "rounds")


@register_algorithm(
    "MWU",
    kind="offline",
    aliases=("mwu",),
    description="MWU + LP-rounding quality oracle (near-exact fair DM anchor)",
    streaming=False,
    options=("iterations", "rounds"),
    validator=_validate_mwu,
)
def _run_mwu(context: RunContext) -> RunResult:
    """Run the MWU + LP-rounding quality oracle on the full element list."""
    return mwu_fair(
        context.elements,
        context.metric,
        context.require_constraint(),
        epsilon=context.epsilon,
        iterations=context.option("iterations", 32),
        rounds=context.option("rounds", 8),
        seed=context.seed,
    )


def _validate_coreset(options: Mapping[str, Any]) -> None:
    """Eager checks for the coreset options."""
    if "num_parts" in options:
        require_positive_int(options["num_parts"], "num_parts")


@register_algorithm(
    "Coreset",
    kind="coreset",
    aliases=("coreset",),
    description="Sequential composable-coreset route (per-group GMM summaries)",
    streaming=False,
    options=("num_parts", "refine_with_swap"),
    validator=_validate_coreset,
)
def _run_coreset(context: RunContext) -> RunResult:
    """Run the composable-coreset route with harness-style accounting."""
    constraint = context.require_constraint()
    num_parts = context.option("num_parts", 4)
    elements = context.elements
    counting = CountingMetric(context.metric)
    timer = Timer()
    with timer.measure():
        solution = coreset_fair_diversity(
            elements,
            counting,
            constraint,
            num_parts=num_parts,
            refine_with_swap=context.option("refine_with_swap", True),
        )
    size = context.size if context.size is not None else len(elements)
    stats = StreamStats(
        elements_processed=size,
        peak_stored_elements=size,
        final_stored_elements=size,
        stream_distance_computations=counting.calls,
        stream_seconds=timer.elapsed,
    )
    return RunResult(
        algorithm="Coreset",
        solution=solution,
        stats=stats,
        params={"k": constraint.total_size, "num_parts": num_parts},
    )


def _validate_window(options: Mapping[str, Any]) -> None:
    """Eager checks for the window options."""
    if "window" in options:
        require_positive_int(options["window"], "window")
    if "blocks" in options:
        require_positive_int(options["blocks"], "blocks")


def _windowed_session(factory):
    """A session factory wrapping ``factory``'s algorithm in a WindowSession.

    The window comes from the ``window`` option (default: the data size)
    and the algorithm gets a counting metric, so queries report real
    distance accounting.
    """

    def _factory(context: RunContext):
        from repro.api.session import WindowSession

        window = context.option("window", context.size)
        if window is None:
            raise InvalidParameterError(
                f"{factory.name} needs a window length; pass window= (sessions) or "
                f"provide sized data (runs default to window = dataset size)"
            )
        requested_blocks = context.option("blocks", 8)
        blocks = min(requested_blocks, window)
        if blocks != requested_blocks:
            _LOGGER.warning(
                "%s: blocks=%d exceeds window=%d; clamping to %d (one block per "
                "window element)",
                factory.name,
                requested_blocks,
                window,
                blocks,
            )
        return WindowSession(
            factory(
                metric=CountingMetric(context.metric),
                constraint=context.require_constraint(),
                window=window,
                blocks=blocks,
            )
        )

    return _factory


def _run_windowed(context: RunContext, factory: Any) -> RunResult:
    """One-pass run of a windowed algorithm: its session, offered the stream and queried once."""
    session = _windowed_session(factory)(context)
    for chunk in stream_chunks(context.stream(), DEFAULT_BATCH_SIZE):
        session._ingest(chunk)
    return session.solution()


@register_algorithm(
    "WindowFDM",
    kind="window",
    aliases=("window-fdm", "window"),
    description="Checkpointed sliding-window fair DM via per-block GMM summaries",
    streaming=True,
    sessions=True,
    options=("window", "blocks"),
    validator=_validate_window,
    session_factory=_windowed_session(CheckpointedWindowFDM),
)
def _run_window(context: RunContext) -> RunResult:
    """Run the checkpointed windowed baseline on the context's stream."""
    return _run_windowed(context, CheckpointedWindowFDM)


@register_algorithm(
    "SlidingWindowFDM",
    kind="window",
    aliases=("sliding-window", "sliding_window"),
    description="Incremental sliding-window fair DM via retiring per-block coresets",
    streaming=True,
    sessions=True,
    options=("window", "blocks"),
    validator=_validate_window,
    session_factory=_windowed_session(SlidingWindowFDM),
)
def _run_sliding_window(context: RunContext) -> RunResult:
    """Run the incremental sliding-window algorithm on the context's stream."""
    return _run_windowed(context, SlidingWindowFDM)


def _validate_parallel(options: Mapping[str, Any]) -> None:
    """Eager checks for the parallel-engine options (backend, strategy, ...)."""
    shards = options.get("shards", 4)
    shards = 1 if shards == "auto" else require_positive_int(shards, "shards")
    backend = options.get("backend", "serial")
    if backend != "auto":
        resolve_backend(backend)
    ShardPlanner(shards, strategy=options.get("strategy", "stratified"))
    resolve_summarizer(options.get("summarizer", "gmm"))
    if "summary_size" in options:
        require_positive_int(options["summary_size"], "summary_size")


@register_algorithm(
    "ParallelFDM",
    kind="parallel",
    aliases=("parallel-fdm", "parallel"),
    description="Sharded fair DM with pluggable serial/thread/process backends",
    streaming=True,
    parallel=True,
    options=(
        "shards",
        "backend",
        "strategy",
        "summarizer",
        "summary_size",
        "refine_with_swap",
    ),
    validator=_validate_parallel,
)
def _run_parallel(context: RunContext) -> RunResult:
    """Run the sharded parallel engine on the context's stream."""
    algorithm = ParallelFDM(
        metric=context.metric,
        constraint=context.require_constraint(),
        shards=context.option("shards", 4),
        backend=context.option("backend", "serial"),
        strategy=context.option("strategy", "stratified"),
        summarizer=context.option("summarizer", "gmm"),
        summary_size=context.option("summary_size"),
        refine_with_swap=context.option("refine_with_swap", True),
        seed=context.seed,
    )
    return algorithm.run(context.stream())
