"""Composable coresets for (fair) diversity maximization.

Indyk et al. (PODS 2014) showed that running the GMM greedy on each part of
an arbitrary partition of the data and unioning the outputs yields a
*composable coreset* for max-min diversity maximization: solving the problem
on the union of the per-part summaries gives a constant-factor approximation
of the optimum on the full data.  For the fair variant, keeping ``k``
elements *per group* from every part preserves at least ``k_i`` candidates
of each group, so a fair solution computed on the coreset remains feasible.

This module is a small, well-tested utility on top of the library's
substrates.  It is not part of the paper's algorithms, but it is the
standard distributed/batched counterpart a practitioner would reach for when
the stream is naturally partitioned (e.g. sharded logs), and it doubles as
an additional baseline in the ablation benchmarks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Union

import numpy as np

from repro.baselines.gmm import gmm_elements
from repro.core.postprocess import greedy_fair_fill
from repro.core.solution import FairSolution
from repro.data.store import ElementStore
from repro.fairness.constraints import FairnessConstraint
from repro.metrics.base import Metric
from repro.data.element import Element
from repro.utils.validation import require_non_empty, require_positive_int


def partition_elements(
    elements: Sequence[Element], num_parts: int
) -> List[List[Element]]:
    """Split ``elements`` into at most ``num_parts`` contiguous, near-equal parts.

    When the collection is smaller than ``num_parts`` the part count is
    capped at ``len(elements)`` (one element per part) instead of raising,
    so callers that pick a shard count for the *expected* data size degrade
    gracefully on tiny inputs.  Empty inputs yield no parts.
    """
    num_parts = require_positive_int(num_parts, "num_parts")
    num_parts = min(num_parts, len(elements))
    if num_parts == 0:
        return []
    parts: List[List[Element]] = [[] for _ in range(num_parts)]
    base, remainder = divmod(len(elements), num_parts)
    start = 0
    for index in range(num_parts):
        size = base + (1 if index < remainder else 0)
        parts[index] = list(elements[start : start + size])
        start += size
    return parts


def gmm_coreset(
    elements: Union[Sequence[Element], ElementStore],
    metric: Metric,
    k: int,
    per_group: bool = False,
    start_index: int = 0,
) -> List[Element]:
    """A GMM-based coreset of one data part.

    With ``per_group=False`` this is the classic Indyk et al. summary: the
    ``k`` GMM picks on the part.  With ``per_group=True`` it additionally
    keeps ``k`` GMM picks *within every group* present in the part, which is
    what fair downstream selection needs.

    Parameters
    ----------
    elements:
        The part to summarise — an element sequence or, for the columnar
        fast path, an :class:`~repro.data.store.ElementStore` (group
        restriction becomes a vectorized mask and the farthest-point greedy
        runs on store rows; only the selected elements are materialised,
        as zero-copy views).
    start_index:
        Seed position for the farthest-point greedy, reduced modulo the
        (group-restricted) pool size so any non-negative value is valid.
        The parallel driver derives it from its run seed, which makes the
        per-shard summaries reproducible for a fixed seed while still
        letting experiments vary the GMM seed element.
    """
    if not len(elements):
        return []
    summary: Dict[int, Element] = {}
    for element in gmm_elements(
        elements, metric, k, start_index=start_index % len(elements)
    ):
        summary.setdefault(element.uid, element)
    if per_group:
        if isinstance(elements, ElementStore):
            values, counts = np.unique(elements.groups, return_counts=True)
            group_sizes = {int(g): int(c) for g, c in zip(values, counts)}
        else:
            group_sizes = {}
            for element in elements:
                group_sizes[element.group] = group_sizes.get(element.group, 0) + 1
        for group in sorted(group_sizes):
            for element in gmm_elements(
                elements,
                metric,
                k,
                start_index=start_index % group_sizes[group],
                restrict_group=group,
            ):
                summary.setdefault(element.uid, element)
    return list(summary.values())


def composable_fair_coreset(
    parts: Iterable[Sequence[Element]], metric: Metric, k: int
) -> List[Element]:
    """Union of per-part, per-group GMM summaries — a fair composable coreset."""
    union: Dict[int, Element] = {}
    for part in parts:
        if not part:
            continue
        for element in gmm_coreset(part, metric, k, per_group=True):
            union.setdefault(element.uid, element)
    return list(union.values())


def coreset_fair_diversity(
    elements: Sequence[Element],
    metric: Metric,
    constraint: FairnessConstraint,
    num_parts: int = 4,
    refine_with_swap: bool = True,
) -> FairSolution:
    """Fair diversity maximization via the composable-coreset route.

    The data is split into ``num_parts`` parts, each part is summarised by a
    per-group GMM coreset of size ``k`` (where ``k`` is the constraint's
    total size), and a fair solution is extracted from the unioned coreset
    with the same greedy farthest-point rule the library's fallbacks use.

    Parameters
    ----------
    refine_with_swap:
        When ``True``, a final pass of same-group local-search swaps against
        the coreset is applied (cheap, because the coreset is small).
    """
    require_non_empty(elements, "elements")
    k = constraint.total_size
    parts = partition_elements(elements, num_parts)
    coreset = composable_fair_coreset(parts, metric, k)
    selection = greedy_fair_fill(coreset, constraint, metric)
    if refine_with_swap:
        from repro.core.local_search import local_search_improve

        return local_search_improve(selection, coreset, metric, constraint)
    return FairSolution(selection, metric, constraint)
