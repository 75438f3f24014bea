"""Shard planning: how a stream is partitioned and where the shards run.

:class:`ShardPlanner` turns a :class:`~repro.streaming.stream.DataStream`
(or any element sequence) into a list of shards — disjoint element lists
whose concatenation covers the input — and :func:`plan_execution`
decides, from the input size, the dimensionality, and the usable CPU
count, *which backend and how many shards* an ``"auto"`` run uses.

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
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

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


#: Effective rows below which an ``"auto"`` plan stays serial: at that
#: size a full per-shard summary takes milliseconds, less than a process
#: pool costs to start.
SERIAL_CUTOFF = 32_768
#: Target effective rows per planned shard.
ROWS_PER_SHARD = 16_384
#: Upper bound on a planned shard count.
MAX_SHARDS = 32


def plan_execution(n: int, dim: int) -> ExecutionPlan:
    """The ``"auto"`` decision for an input of ``n`` rows of width ``dim``.

    Forking a process pool and shipping shards only pays off once the
    per-shard summary work dominates the pool's start-up cost.  Wider rows
    mean more kernel work per row, so the effective size is
    ``n · max(1, d/8)``.  Small inputs, and any input on a single usable
    CPU, stay serial with just enough shards to keep the merge tree
    exercised; large inputs go to the process backend with one shard per
    usable CPU (or more, up to :data:`ROWS_PER_SHARD` effective rows per
    shard and twice the CPU count, so shards stay cache-sized), never
    more than :data:`MAX_SHARDS`.

    The backend never changes the answer, but the planned shard count
    depends on :func:`~repro.parallel.backends.usable_cpus`, so an
    ``"auto"`` shard count can answer differently on another machine; an
    explicit shard count answers the same everywhere.
    """
    cpus = usable_cpus()
    rows = int(max(n, 1) * max(1.0, dim / 8.0))
    by_rows = max(1, math.ceil(rows / ROWS_PER_SHARD))
    if rows < SERIAL_CUTOFF or cpus <= 1:
        shards = min(4, by_rows, MAX_SHARDS)
        reason = (
            f"single usable cpu (n={n})"
            if cpus <= 1
            else f"input below serial cutoff ({rows} < {SERIAL_CUTOFF} effective rows)"
        )
        return ExecutionPlan("serial", shards, reason)
    shards = min(MAX_SHARDS, max(cpus, min(by_rows, 2 * cpus)))
    reason = f"{rows} effective rows across {cpus} usable cpus"
    return ExecutionPlan("process", shards, reason)
