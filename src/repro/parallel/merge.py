"""Binary merge tree over per-shard coreset summaries.

Composable coresets merge by union: the union of per-shard summaries is
itself a coreset of the full data.  Unioning all shards at once would let
the driver-side pool grow linearly with the shard count, so the merge is
organised as a binary reduction tree instead: summaries are paired off
left-to-right, every pair is unioned and immediately re-summarised with
the same per-group GMM rule the shards used, and the survivors advance to
the next round.  Driver memory therefore stays ``O(k · m)`` per live
summary and the tree has ``ceil(log2(shards))`` rounds — the shape a
distributed aggregation (tree-reduce) would use, run here on the driver
because merged summaries are tiny.

The pairing is strictly positional (shard order, not completion order),
which is one half of the cross-backend determinism guarantee; the other
half is :meth:`Backend.map_shards` returning results in task order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro import obs
from repro.core.coreset import gmm_coreset
from repro.data.element import Element
from repro.metrics.base import Metric
from repro.utils.validation import require_positive_int


def _union(elements: Iterable[Element]) -> List[Element]:
    """The first occurrence of every uid, in order."""
    union: Dict[int, Element] = {}
    for element in elements:
        union.setdefault(element.uid, element)
    return list(union.values())


def merge_pair(
    left: Sequence[Element],
    right: Sequence[Element],
    metric: Metric,
    k: int,
    start_index: int = 0,
) -> List[Element]:
    """Union two summaries (by uid, left first) and re-summarise per group.

    Re-summarising keeps every merged summary at ``O(k)`` elements per
    group plus ``k`` group-blind picks, so the tree's working set does not
    grow with its depth.
    """
    return gmm_coreset(
        _union([*left, *right]), metric, k, per_group=True, start_index=start_index
    )


def merge_tree(
    summaries: Sequence[Sequence[Element]],
    metric: Metric,
    k: int,
    start_index: int = 0,
) -> Tuple[List[Element], int]:
    """Reduce per-shard summaries to one coreset; returns ``(coreset, rounds)``.

    Empty summaries are dropped up front; an odd summary at any round is
    carried to the next round unchanged.  A single (or no) summary needs no
    merging and is returned after deduplication by uid.  Every round calls
    :func:`merge_pair` on each positional pair.
    """
    k = require_positive_int(k, "k")
    level: List[Sequence[Element]] = [summary for summary in summaries if summary]
    if not level:
        return [], 0
    rounds = 0
    while len(level) > 1:
        with obs.span("merge.batch", level=rounds, summaries=len(level)):
            merged: List[Sequence[Element]] = [
                merge_pair(level[index], level[index + 1], metric, k, start_index)
                for index in range(0, len(level) - 1, 2)
            ]
            if len(level) % 2 == 1:
                merged.append(level[-1])
            level = merged
        rounds += 1
    return _union(level[0]), rounds
