"""Per-shard summarizers: compress one shard into a small candidate pool.

A summarizer maps a shard (an element list) to a summary whose union
across shards is a *composable coreset* for fair diversity maximization:
solving the problem on the merged summaries gives a constant-factor
approximation of solving it on the full data (Indyk et al., PODS 2014),
and keeping ``k`` elements per group in every summary keeps every group
quota feasible after the merge.

Two summarizers ship with the library, both stateless value objects so
the process backend can pickle them into workers:

* :class:`GMMShardSummarizer` — the theory-backed default: ``k`` GMM
  picks on the shard plus ``k`` GMM picks within every group present
  (:func:`repro.core.coreset.gmm_coreset`), computed with the vectorized
  ``distances_to`` kernels when the metric has them;
* :class:`StreamShardSummarizer` — a bounded-memory one-pass alternative
  built on the streaming algorithms' chunk screen
  (:class:`repro.core.base.ChunkScreen`): the shard is consumed in chunks
  through a geometric ladder of distance thresholds, maintaining one
  group-blind and one per-group candidate per level, exactly like the
  stream phase of the paper's algorithms.  Its candidates, and so its
  summary, hold ``O(k · m · log(Δ)/ε)`` elements, independent of the
  shard size; the shard itself, like every shard, is held in memory.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.base import ChunkScreen, StreamChunk, stream_chunks
from repro.core.candidate import Candidate
from repro.core.coreset import gmm_coreset
from repro.core.guesses import GuessLadder
from repro.data.store import ElementStore
from repro.metrics.base import Metric, join_payloads
from repro.metrics.space import distance_range
from repro.data.element import Element
from repro.utils.errors import InvalidParameterError
from repro.utils.validation import require_in_open_interval, require_positive_int

#: What a summarizer accepts: an element sequence or a columnar store
#: (the zero-copy form shm-shipped shards arrive in).
ShardData = Union[Sequence[Element], ElementStore]


def _first_k_per_group(elements: Sequence[Element], k: int) -> List[Element]:
    """First ``k`` distinct elements of every group, in stream order.

    The degenerate-shard fallback: even without a usable distance ladder
    the summary must keep every group present in the shard represented
    (up to ``k`` members), or the merged coreset could lose a small
    protected group entirely.
    """
    taken: Dict[int, int] = {}
    seen_uids: Dict[int, bool] = {}
    summary: List[Element] = []
    for element in elements:
        if element.uid in seen_uids:
            continue
        seen_uids[element.uid] = True
        if taken.get(element.group, 0) < k:
            summary.append(element)
            taken[element.group] = taken.get(element.group, 0) + 1
    return summary


def _spread(
    leading: List[StreamChunk], chunk: StreamChunk, metric: Metric
) -> Optional[Tuple[float, float]]:
    """``(d_min, d_max)`` of ``chunk`` once the rows so far hold two distinct points.

    ``leading`` holds the chunks before ``chunk``, all one repeated point;
    ``None`` while ``chunk`` adds no other point.  The first chunk's
    bounds are its own; a later chunk's are those of its rows and the
    repeated point, once one of its rows lies at a positive distance from
    that point.
    """
    if not leading:
        if len(chunk) < 2:
            return None
        bounds = distance_range(chunk.vectors, metric)
    else:
        point = leading[0].vectors[:1]
        if not (metric.distances_to(point[0], chunk.vectors) > 0.0).any():
            return None
        bounds = distance_range(join_payloads([point, chunk.vectors]), metric)
    return None if np.isinf(bounds[0]) else bounds


class ShardSummarizer(ABC):
    """Strategy object that compresses one shard into a summary pool."""

    #: CLI-facing name (``"gmm"``, ``"stream"``).
    name: str = "summarizer"

    @abstractmethod
    def summarize(
        self,
        elements: ShardData,
        metric: Metric,
        k: int,
        start_index: int = 0,
    ) -> List[Element]:
        """Return the shard's summary (distinct elements, deterministic order).

        Parameters
        ----------
        elements:
            The shard, in stream order — an element sequence or a columnar
            :class:`~repro.data.store.ElementStore` (the summary is
            identical either way; the store form lets the GMM rule run
            directly on the columns).
        metric:
            Distance metric shared by every shard.
        k:
            Per-group (and group-blind) summary budget — normally the
            fairness constraint's total solution size.
        start_index:
            Deterministic seed position forwarded to GMM-style greedy
            starts; the driver derives it from its run seed.
        """


class GMMShardSummarizer(ShardSummarizer):
    """Per-group GMM coreset of the shard — the composable-coreset default."""

    name = "gmm"

    def summarize(
        self,
        elements: ShardData,
        metric: Metric,
        k: int,
        start_index: int = 0,
    ) -> List[Element]:
        """``k`` blind GMM picks plus ``k`` picks per group present in the shard.

        Store-form shards run straight on the columnar kernels
        (:func:`~repro.core.coreset.gmm_coreset` handles both forms with
        bitwise-identical selections and distance accounting).
        """
        return gmm_coreset(elements, metric, k, per_group=True, start_index=start_index)


class StreamShardSummarizer(ShardSummarizer):
    """One-pass chunked summarizer on the streaming algorithms' chunk screen.

    Parameters
    ----------
    chunk_size:
        Elements per ingestion chunk; each chunk is screened against every
        threshold level at once, one union screen for the group-blind
        levels and one per group.
    epsilon:
        Relative step of the threshold ladder in ``(0, 1)``.  The default
        of 0.5 (a factor-2 ladder) keeps the level count — and therefore
        the summary size — small; shard summaries feed a merge and a
        post-processing stage that re-optimise anyway, so a fine ladder
        buys little here.
    """

    name = "stream"

    def __init__(self, chunk_size: int = 1024, epsilon: float = 0.5) -> None:
        self.chunk_size = require_positive_int(chunk_size, "chunk_size")
        self.epsilon = require_in_open_interval(epsilon, 0.0, 1.0, "epsilon")

    def summarize(
        self,
        elements: ShardData,
        metric: Metric,
        k: int,
        start_index: int = 0,
    ) -> List[Element]:
        """Feed the shard chunk-wise through per-level blind and group candidates.

        Distance bounds are estimated on the first chunk that, with the
        rows before it, holds two distinct points (the first chunk, unless
        that is one repeated point), and widened by the same factor-4
        margin the streaming algorithms use; the one-point chunks before
        it are screened first, in order.  Only a shard of one repeated
        point has no usable ladder: it keeps the first ``k`` elements of
        every group.  ``start_index`` is unused (the one-pass rule has no
        seed choice) but kept so every summarizer shares one call
        signature.  Store-form shards are consumed as zero-copy row
        ranges; only accepted rows become (view) elements.
        """
        del start_index  # the one-pass threshold rule has no seed element
        chunks = stream_chunks(elements, self.chunk_size)
        leading: List[StreamChunk] = []  # one-point chunks before the ladder's
        for chunk in chunks:
            bounds = _spread(leading, chunk, metric)
            if bounds is not None:
                break
            leading.append(chunk)
        else:
            if isinstance(elements, ElementStore):
                elements = elements.elements()
            return _first_k_per_group(elements, k)
        d_min, d_max = bounds
        ladder = GuessLadder(d_min / 4.0, d_max * 4.0, self.epsilon)
        groups = np.unique(
            elements.groups
            if isinstance(elements, ElementStore)
            else [element.group for element in elements]
        ).tolist()
        blind = [Candidate(mu, k, metric) for mu in ladder]
        specific = [
            {group: Candidate(mu, k, metric, group=group) for group in groups}
            for mu in ladder
        ]
        screens = ChunkScreen(blind, specific)
        for piece in itertools.chain(leading, [chunk], chunks):
            screens.screen(metric, piece)

        summary: Dict[int, Element] = {}
        candidates = blind + [level[group] for group in groups for level in specific]
        for candidate in candidates:
            for element in candidate:
                summary.setdefault(element.uid, element)
        return list(summary.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamShardSummarizer(chunk_size={self.chunk_size}, epsilon={self.epsilon:g})"
        )


#: Name -> summarizer factory for the built-in summarizers.
SUMMARIZERS = {
    GMMShardSummarizer.name: GMMShardSummarizer,
    StreamShardSummarizer.name: StreamShardSummarizer,
}


def resolve_summarizer(spec) -> ShardSummarizer:
    """Normalise a summarizer specification to a :class:`ShardSummarizer`.

    Accepts an instance (returned unchanged), a built-in name, or ``None``
    (the GMM default); unknown names fail eagerly.
    """
    if spec is None:
        return GMMShardSummarizer()
    if isinstance(spec, ShardSummarizer):
        return spec
    if isinstance(spec, str):
        factory = SUMMARIZERS.get(spec)
        if factory is None:
            raise InvalidParameterError(
                f"unknown summarizer {spec!r}; available: {', '.join(SUMMARIZERS)}"
            )
        return factory()
    raise InvalidParameterError(
        f"summarizer must be a ShardSummarizer or one of {list(SUMMARIZERS)}, got {spec!r}"
    )
