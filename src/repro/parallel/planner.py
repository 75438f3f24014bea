"""Shard planning: how a stream is partitioned and where the shards run.

Two planners live here.  :class:`ShardPlanner` turns a
:class:`~repro.streaming.stream.DataStream` (or any element sequence)
into a list of shards — disjoint element lists whose concatenation covers
the input — and :class:`ExecutionPlanner` decides, from the input size,
the dimensionality, and the usable CPU count, *which backend and how many
shards* are worth using at all (``backend="auto"``).

:class:`ShardPlanner` supports two strategies:

``"contiguous"``
    Consecutive, near-equal slices of the stream order (the classic
    "split the log file" partition).  Cheapest, and the natural choice
    when the data is already randomly ordered.

``"stratified"``
    Group-aware dealing: the elements of every group are distributed
    round-robin across the shards, with each group's dealing staggered by
    its order of first appearance.  A protected group with at least as
    many members as shards therefore appears in *every* shard, and a tiny
    group is spread over distinct shards instead of being stranded in one
    — which is what keeps every per-shard fair summary feasible to merge.

Both strategies preserve the relative stream order within each shard, so
for a fixed input order the plan is deterministic; shuffling is the
stream's job (``DataStream.shuffle_seed``), not the planner's.  When the
input has fewer elements than the requested shard count the plan degrades
gracefully to one element per shard.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.coreset import partition_elements
from repro.data.element import Element
from repro.parallel.backends import usable_cpus
from repro.utils.errors import EmptyStreamError, InvalidParameterError
from repro.utils.validation import require_positive_int

#: Valid planning strategies, in documentation order.
STRATEGIES: Tuple[str, ...] = ("contiguous", "stratified")

#: Anything the planner can shard: a DataStream, list, or other iterable.
ShardSource = Union[Iterable[Element], Sequence[Element]]


class ShardPlanner:
    """Partition a stream or element collection into shards.

    Parameters
    ----------
    num_shards:
        Requested number of shards; the plan may contain fewer for tiny
        inputs (never more), and never contains an empty shard.
    strategy:
        ``"contiguous"`` or ``"stratified"`` (see the module docstring).
    """

    def __init__(self, num_shards: int, strategy: str = "contiguous") -> None:
        self.num_shards = require_positive_int(num_shards, "num_shards")
        if strategy not in STRATEGIES:
            raise InvalidParameterError(
                f"strategy must be one of {', '.join(STRATEGIES)}, got {strategy!r}"
            )
        self.strategy = strategy

    def plan(self, source: ShardSource) -> List[List[Element]]:
        """Materialise ``source`` in its iteration order and shard it.

        Iterating the source is what applies a :class:`DataStream`'s
        shuffle permutation, so the plan for a fixed ``(stream seed,
        num_shards, strategy)`` triple is fully deterministic.
        """
        elements = list(source)
        if not elements:
            raise EmptyStreamError("cannot shard an empty element collection")
        if self.strategy == "contiguous":
            return partition_elements(elements, self.num_shards)
        return self._stratified(elements)

    def _stratified(self, elements: List[Element]) -> List[List[Element]]:
        """Deal each group round-robin across the shards, staggered per group."""
        num_parts = min(self.num_shards, len(elements))
        shards: List[List[Element]] = [[] for _ in range(num_parts)]
        # Per-group dealing cursor, started at the group's first-appearance
        # rank so that several tiny groups land on *different* shards
        # instead of all piling onto shard 0.
        cursors: Dict[int, int] = {}
        for element in elements:
            cursor = cursors.setdefault(element.group, len(cursors))
            shards[cursor % num_parts].append(element)
            cursors[element.group] = cursor + 1
        # Staggered dealing can leave trailing shards empty when there are
        # fewer "dealing rounds" than shards (only possible for tiny
        # inputs); drop them rather than hand workers empty work.
        return [shard for shard in shards if shard]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardPlanner(num_shards={self.num_shards}, strategy={self.strategy!r})"


class ExecutionPlan(NamedTuple):
    """One adaptive execution decision: backend and shard count.

    ``reason`` is a short human-readable justification recorded in the
    run's params so a trace reader can see *why* a run stayed serial.
    """

    backend: str
    shards: int
    reason: str


class ExecutionPlanner:
    """Pick backend and shard count from a tunable cost model.

    The model is deliberately coarse — three knobs, all in row units —
    because the decision it guards is coarse: forking a process pool and
    shipping shards only pays off once the per-shard summary work
    dominates the fixed pool start-up cost.  Wider feature rows mean more
    kernel work per row, so the effective size scales ``n · max(1, d/8)``.

    Parameters
    ----------
    serial_cutoff:
        Effective rows below which the plan always stays serial (default
        32 768 — at that size a full per-shard summary takes milliseconds,
        less than a process pool costs to start).
    rows_per_shard:
        Target effective rows per shard; the shard count is the input
        size divided by this, clamped to ``[1, max_shards]`` (and to the
        CPU count on the process backend — more workers than cores only
        adds scheduling overhead).
    max_shards:
        Hard upper bound on the planned shard count (default 32).
    cpus:
        Usable CPU count override, for tests; defaults to the scheduler
        affinity mask via :func:`~repro.parallel.backends.usable_cpus`.

    The decision never affects the computed solution — backends are
    solution-transparent by construction — so an ``"auto"`` run on a
    laptop and on a 64-core box return byte-identical answers.
    """

    def __init__(
        self,
        serial_cutoff: int = 32_768,
        rows_per_shard: int = 16_384,
        max_shards: int = 32,
        cpus: Optional[int] = None,
    ) -> None:
        self.serial_cutoff = require_positive_int(serial_cutoff, "serial_cutoff")
        self.rows_per_shard = require_positive_int(rows_per_shard, "rows_per_shard")
        self.max_shards = require_positive_int(max_shards, "max_shards")
        self.cpus = cpus if cpus is None else require_positive_int(cpus, "cpus")

    def _effective_rows(self, n: int, dim: int) -> int:
        """Input size scaled by kernel work per row (``n · max(1, d/8)``)."""
        return int(n * max(1.0, dim / 8.0))

    def plan(self, n: int, dim: int = 1) -> ExecutionPlan:
        """The execution decision for an input of ``n`` rows of width ``dim``.

        Small inputs stay serial with just enough shards to keep the merge
        tree exercised; large inputs on a multi-core machine go to the
        process backend with one shard per usable CPU (or more, up to the
        per-shard row target, so shards stay cache-sized).
        """
        cpus = self.cpus if self.cpus is not None else usable_cpus()
        rows = self._effective_rows(max(n, 1), max(dim, 1))
        by_rows = max(1, math.ceil(rows / self.rows_per_shard))
        if rows < self.serial_cutoff or cpus <= 1:
            shards = min(4, by_rows, self.max_shards)
            reason = (
                f"single usable cpu (n={n})"
                if cpus <= 1
                else f"input below serial cutoff ({rows} < {self.serial_cutoff} effective rows)"
            )
            return ExecutionPlan("serial", shards, reason)
        shards = min(self.max_shards, max(cpus, min(by_rows, 2 * cpus)))
        reason = f"{rows} effective rows across {cpus} usable cpus"
        return ExecutionPlan("process", shards, reason)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionPlanner(serial_cutoff={self.serial_cutoff}, "
            f"rows_per_shard={self.rows_per_shard}, max_shards={self.max_shards})"
        )
