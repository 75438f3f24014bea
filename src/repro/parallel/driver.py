"""``ParallelFDM``: sharded fair diversity maximization, end to end.

The driver stitches the parallel layer together:

1. :func:`~repro.parallel.planner.plan_execution` (for ``"auto"``) or
   the caller picks the backend and shard count; a
   :class:`~repro.parallel.planner.ShardPlanner` then partitions the
   stream (group-stratified by default, so small protected groups are
   spread across shards rather than stranded in one);
2. every shard is summarised on a
   :class:`~repro.parallel.backends.Backend` worker.  Shards crossing a
   process boundary ship through the zero-copy shared-memory transport
   (:mod:`repro.parallel.shm`): the driver publishes one read-only block
   holding every shard's columnar arrays and workers receive only
   ``(offset, length)`` descriptors, reconstructing their shard as NumPy
   views — degrading to pickled :class:`~repro.data.store.ElementStore`
   columns (or plain element lists for non-columnar payloads) when the
   platform or the payload rules shared memory out.  In-process backends
   hand the shard over untouched;
3. the per-shard summaries are reduced through the binary
   :func:`~repro.parallel.merge.merge_tree` on the driver;
4. the fair post-processing runs on the merged coreset: greedy fair fill
   plus (optionally) the same-group local-search polish, exactly the
   extraction rule :func:`repro.core.coreset.coreset_fair_diversity`
   uses.

Every stage is deterministic for a fixed ``(stream order, shards,
strategy, seed)``: the planner is order-preserving, backends return
results in shard order, the merge pairs summaries positionally, and GMM
seed positions are derived from the run seed.  Neither the *backend* nor
the *transport* ever affects the solution — only where and how fast the
shard work runs — which the property tests pin down.  The shard count
does: an ``"auto"`` count depends on the usable CPUs, so only an explicit
count gives the same answer on every machine.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple, Union

from repro import obs
from repro.core.postprocess import greedy_fair_fill
from repro.core.result import RunResult
from repro.core.solution import FairSolution
from repro.data.store import ElementStore
from repro.fairness.constraints import FairnessConstraint
from repro.metrics.base import Metric
from repro.metrics.cached import CountingMetric
from repro.parallel.backends import Backend, resolve_backend
from repro.parallel.merge import merge_tree
from repro.parallel.planner import ShardPlanner, plan_execution
from repro.parallel.shm import ShardRef, detach_elements, ship_shards
from repro.parallel.summarize import ShardSummarizer, resolve_summarizer
from repro.data.element import Element
from repro.streaming.stats import StreamStats
from repro.utils.rng import derive_seed
from repro.utils.timer import Timer
from repro.utils.validation import require_positive_int

#: The one shard payload format: an shm descriptor, a pickled columnar
#: store, or (in-process / non-columnar fallback) the element list itself.
ShardPayload = Union[ShardRef, ElementStore, List[Element]]


class _ShardJob(NamedTuple):
    """One unit of backend work: a shard payload plus the summarizer config.

    ``shard`` is a :data:`ShardPayload`: a :class:`ShardRef` descriptor
    when the shard travels through the shared-memory block (pickles in
    O(1)), a columnar :class:`~repro.data.store.ElementStore` on the
    pickle fallback (three flat arrays, orders of magnitude faster than
    per-element pickles), and the plain element list for in-process
    backends — which never pickle and would only pay a conversion tax —
    or for the rare non-columnar payload.
    """

    shard: ShardPayload
    metric: Metric
    k: int
    summarizer: ShardSummarizer
    start_index: int


def _summarize_shard(job: _ShardJob) -> Tuple[List[Element], int]:
    """Backend entry point: summarise one shard, return ``(summary, distances)``.

    Module-level (not a closure) so the process backend can pickle it; the
    distance count is measured inside the worker and shipped back with the
    summary so the accounting works identically on every backend.  An
    shm-shipped shard is attached as zero-copy views and the mapping is
    released before returning — summaries are detached first (copying only
    the selected rows, the same bytes pickling would copy anyway).  Store
    shards summarise straight on their columns; the summary elements
    detach from the store when pickled back, so the return trip ships only
    the selected rows.
    """
    counting = CountingMetric(job.metric)
    payload = job.shard
    if isinstance(payload, ShardRef):
        with payload.attach() as attached:
            summary = job.summarizer.summarize(
                attached.store, counting, job.k, start_index=job.start_index
            )
            summary = detach_elements(summary)
        return summary, counting.calls
    summary = job.summarizer.summarize(
        payload, counting, job.k, start_index=job.start_index
    )
    return summary, counting.calls


class ParallelFDM:
    """Sharded fair diversity maximization with pluggable execution backends.

    Parameters
    ----------
    metric:
        Distance metric shared by all shards.
    constraint:
        Fairness constraint; its total size ``k`` is the per-group summary
        budget unless ``summary_size`` overrides it.
    shards:
        Requested shard count, a positive integer (the plan may contain
        fewer for tiny inputs), or ``"auto"`` to let
        :func:`~repro.parallel.planner.plan_execution` derive it from the
        input size and usable CPUs.  The shard count shapes the coreset,
        so an ``"auto"`` count can answer differently on machines with
        different CPU counts; an explicit count answers the same on every
        machine.
    backend:
        A :class:`Backend` instance, one of ``"serial"``, ``"thread"``,
        ``"process"`` (validated eagerly), or ``"auto"`` —
        :func:`~repro.parallel.planner.plan_execution` then picks the
        backend per run from the input size, dimensionality, and usable
        CPUs (small inputs stay serial).  The backend never affects the
        computed solution.
    strategy:
        Shard planning strategy; defaults to ``"stratified"`` so protected
        groups are spread across shards (``"contiguous"`` splits the
        stream order instead).
    summarizer:
        A :class:`ShardSummarizer` instance or one of ``"gmm"`` /
        ``"stream"``; defaults to the per-group GMM composable coreset.
    summary_size:
        Per-group summary budget; defaults to ``constraint.total_size``.
    refine_with_swap:
        Apply the same-group local-search polish to the extracted solution
        (cheap — the merged coreset is small).
    seed:
        Seed for the GMM start positions inside shards; results are
        reproducible for a fixed ``(stream order, shards, strategy, seed)``
        and identical across backends and transports.

    Shards crossing a process boundary ship over shared memory when the
    platform allows it and every shard is columnar, as pickled stores
    otherwise (:func:`~repro.parallel.shm.ship_shards` decides; the route
    taken is recorded as ``params["transport"]``).  Solutions and distance
    counts are identical on either route.
    """

    name = "ParallelFDM"

    def __init__(
        self,
        metric: Metric,
        constraint: FairnessConstraint,
        shards: Union[int, str] = 4,
        backend: Union[str, Backend, None] = "serial",
        strategy: str = "stratified",
        summarizer: Union[str, ShardSummarizer, None] = "gmm",
        summary_size: Optional[int] = None,
        refine_with_swap: bool = True,
        seed: Optional[int] = None,
    ) -> None:
        self.metric = metric
        self.constraint = constraint
        self._auto_backend = isinstance(backend, str) and backend == "auto"
        self.backend = None if self._auto_backend else resolve_backend(backend)
        self._auto_shards = shards == "auto"
        self.shards = None if self._auto_shards else require_positive_int(shards, "shards")
        # Validates the strategy eagerly even when the count is planned.
        self.planner = ShardPlanner(self.shards or 1, strategy=strategy)
        self.summarizer = resolve_summarizer(summarizer)
        self.summary_size = require_positive_int(
            summary_size if summary_size is not None else constraint.total_size,
            "summary_size",
        )
        self.refine_with_swap = refine_with_swap
        self.seed = seed

    def _start_index(self, shard_index: int, shard_size: int) -> int:
        """Deterministic GMM seed position for one shard."""
        if self.seed is None or shard_size == 0:
            return 0
        derived = derive_seed(self.seed, shard_index)
        return int(derived) % shard_size

    def _resolve_plan(
        self, elements: List[Element]
    ) -> Tuple[Backend, ShardPlanner, Optional[str]]:
        """The concrete (backend, shard planner) for this input.

        Fixed configurations pass through untouched; ``"auto"`` asks
        :func:`~repro.parallel.planner.plan_execution`, using the first
        element's payload width as the dimensionality signal.
        """
        if not (self._auto_backend or self._auto_shards):
            return self.backend, self.planner, None
        first = elements[0].vector
        dim = int(getattr(first, "shape", (1,))[0]) if hasattr(first, "shape") else 1
        plan = plan_execution(len(elements), dim)
        backend = self.backend
        if self._auto_backend:
            backend = resolve_backend(plan.backend)
        shard_planner = self.planner
        if self._auto_shards:
            shard_planner = ShardPlanner(plan.shards, strategy=self.planner.strategy)
        return backend, shard_planner, plan.reason

    def run(self, stream) -> RunResult:
        """Consume ``stream`` (any element iterable) and return a :class:`RunResult`.

        The stream phase covers planning, shipping, and the per-shard
        summaries; the post-processing phase covers the merge tree, the
        greedy fair fill, and the optional local-search polish.  A
        published shared-memory block is disposed of (closed and
        unlinked) as soon as the map completes, success or not.  Stored
        elements are accounted from the distributed perspective: the peak
        is the largest single worker's shard plus the driver-side
        summaries, not the full ``n`` the driver would need if it solved
        the problem unsharded.
        """
        elements = list(stream)
        backend, shard_planner, plan_reason = self._resolve_plan(elements)
        run_span = obs.span(
            "parallel.run", backend=backend.name, shards=shard_planner.num_shards
        )
        with run_span:
            stream_timer = Timer()
            with stream_timer.measure():
                with obs.span("parallel.plan", strategy=shard_planner.strategy):
                    shards = shard_planner.plan(elements)
                total = sum(len(shard) for shard in shards)
                block = None
                transport_used = "inline"
                if backend.requires_pickling:
                    payloads, block, transport_used = ship_shards(shards)
                else:
                    payloads = shards
                jobs = [
                    _ShardJob(
                        shard=payload,
                        metric=self.metric,
                        k=self.summary_size,
                        summarizer=self.summarizer,
                        start_index=self._start_index(index, len(shard)),
                    )
                    for index, (payload, shard) in enumerate(zip(payloads, shards))
                ]
                try:
                    with obs.span(
                        "parallel.map",
                        shards=len(jobs),
                        backend=backend.name,
                        transport=transport_used,
                    ):
                        outcomes = backend.map_shards(_summarize_shard, jobs)
                finally:
                    if block is not None:
                        block.dispose()
            summaries = [summary for summary, _ in outcomes]
            shard_distance_calls = sum(calls for _, calls in outcomes)

            counting = CountingMetric(self.metric)
            post_timer = Timer()
            with post_timer.measure():
                with obs.span("parallel.merge", summaries=len(summaries)):
                    coreset, merge_rounds = merge_tree(
                        summaries, counting, self.summary_size, start_index=0
                    )
                selection = greedy_fair_fill(coreset, self.constraint, counting)
                if self.refine_with_swap:
                    from repro.core.local_search import local_search_improve

                    with obs.span("parallel.polish", selection=len(selection)):
                        solution = local_search_improve(
                            selection, coreset, counting, self.constraint
                        )
                else:
                    solution = FairSolution(selection, counting, self.constraint)
            run_span.set(elements=total, merge_rounds=merge_rounds)

        stats = StreamStats(
            elements_processed=total,
            stream_distance_computations=shard_distance_calls,
            postprocess_distance_computations=counting.calls,
            peak_stored_elements=(
                max((len(shard) for shard in shards), default=0)
                + sum(len(summary) for summary in summaries)
            ),
            final_stored_elements=len(coreset),
            stream_seconds=stream_timer.elapsed,
            postprocess_seconds=post_timer.elapsed,
            extra={
                "shards": float(len(shards)),
                "merge_rounds": float(merge_rounds),
                "coreset_size": float(len(coreset)),
            },
        )
        stats.publish(self.name)
        params = {
            "k": self.constraint.total_size,
            "shards": shard_planner.num_shards,
            "backend": backend.name,
            "strategy": shard_planner.strategy,
            "summarizer": self.summarizer.name,
            "summary_size": self.summary_size,
            "transport": transport_used,
            "seed": self.seed,
        }
        if plan_reason is not None:
            params["plan"] = plan_reason
        return RunResult(
            algorithm=self.name,
            solution=solution,
            stats=stats,
            params=params,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        backend = "auto" if self._auto_backend else self.backend.name
        shards = "auto" if self._auto_shards else self.planner.num_shards
        return (
            f"ParallelFDM(shards={shards}, backend={backend!r}, "
            f"strategy={self.planner.strategy!r}, "
            f"summarizer={self.summarizer.name!r})"
        )
