"""Metric-space helpers that operate on collections of elements.

The streaming algorithms need (estimates of) ``d_min`` and ``d_max`` to seed
the guess ladder for OPT; the post-processing, the offline baselines and the
evaluation harness need distance matrices, ``div(S)`` and ``d(x, S)``.  Each
of these has its one implementation here, on the metric's batch kernels, so
the algorithms themselves stay free of bulk-distance code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.base import Metric, stack_vectors
from repro.data.element import Element
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import ensure_rng


def pairwise_distances(elements: Sequence[Element], metric: Metric) -> np.ndarray:
    """Symmetric distance matrix of ``elements``, entry ``(i, j)`` being ``d(x_i, x_j)``.

    One :meth:`~repro.metrics.base.Metric.pairwise` call over the stacked
    payloads (one gather when the elements are views of one
    :class:`~repro.data.store.ElementStore`), with a zero diagonal; a pool
    of fewer than two elements evaluates no distance.  Quadratic in
    ``len(elements)``: meant for post-processing pools, the offline
    baselines and small exact checks, not for full streams.
    """
    n = len(elements)
    if n < 2:
        return np.zeros((n, n))
    matrix = metric.pairwise(stack_vectors(elements))
    np.fill_diagonal(matrix, 0.0)
    return matrix


def diversity_of(elements: Sequence[Element], metric: Metric) -> float:
    """``div(S)``: the minimum pairwise distance within ``elements``.

    Returns ``inf`` for fewer than two elements (the empty minimum), which
    matches the convention used throughout the paper's analysis; otherwise
    the upper triangle of one ``pairwise`` call over the stacked payloads.
    """
    if len(elements) < 2:
        return float("inf")
    matrix = metric.pairwise(stack_vectors(elements))
    return float(matrix[np.triu_indices(len(elements), k=1)].min())


def distance_to_set(element: Element, subset: Sequence[Element], metric: Metric) -> float:
    """``d(x, S) = min_{y in S} d(x, y)``; ``inf`` for an empty ``S``.

    A one-member ``S`` costs one scalar ``distance``, a larger one one
    ``distances_to`` over its stacked payloads (one gather when the members
    are views of one :class:`~repro.data.store.ElementStore`).
    """
    if not subset:
        return float("inf")
    if len(subset) == 1:
        return float(metric.distance(element.vector, subset[0].vector))
    return float(metric.distances_to(element.vector, stack_vectors(subset)).min())


def exact_distance_bounds(elements: Sequence[Element], metric: Metric) -> Tuple[float, float]:
    """Exact ``(d_min, d_max)`` over all pairs of distinct elements.

    ``d_min`` ignores zero distances between duplicate points so that the
    guess ladder stays meaningful for datasets with repeated rows.
    One ``pairwise`` call evaluates every pair.
    """
    return payload_distance_bounds(stack_vectors(elements), metric)


def payload_distance_bounds(payloads: Sequence[Any], metric: Metric) -> Tuple[float, float]:
    """:func:`exact_distance_bounds` over a stack of raw payloads.

    The ingestion engine estimates its guess-ladder bounds on the warmup
    rows with this, so offered feature rows need no :class:`Element`.  It
    is :func:`distance_range`, except that a stack of one repeated point
    gets the bounds ``(1.0, 1.0)``.
    """
    d_min, d_max = distance_range(payloads, metric)
    if not np.isfinite(d_min):
        # All points identical: fall back to an arbitrary positive value so
        # downstream code does not divide by zero; any solution is optimal.
        return 1.0, max(d_max, 1.0)
    return d_min, d_max


def distance_range(payloads: Sequence[Any], metric: Metric) -> Tuple[float, float]:
    """``(smallest positive, largest)`` distance over all pairs of ``payloads``.

    The smallest positive distance is ``inf`` when the payloads hold one
    repeated point.  One ``pairwise`` call evaluates the whole stack.  A
    distance that is not finite raises :class:`InvalidParameterError`:
    finite features whose distances overflow (features near ``1e300``)
    would otherwise give an infinite ``d_max`` the caller never chose.
    """
    n = len(payloads)
    if n < 2:
        raise InvalidParameterError("need at least two elements to compute distance bounds")
    upper = metric.pairwise(payloads)[np.triu_indices(n, k=1)]
    finite = np.isfinite(upper)
    if not finite.all():
        raise _unbounded_distance(payloads, float(upper[~finite][0]))
    positive = upper[upper > 0.0]
    d_min = float(positive.min()) if positive.size else float("inf")
    return d_min, float(upper.max())


def _unbounded_distance(payloads: Sequence[Any], distance: float) -> InvalidParameterError:
    """The error for a stack of payloads two of which are ``distance`` apart."""
    message = f"distance bounds need finite distances, but two rows are {distance} apart"
    try:
        scale = float(np.max(np.abs(np.asarray(payloads, dtype=float))))
    except (TypeError, ValueError):  # non-numeric payloads: nothing to rescale
        return InvalidParameterError(message)
    if not np.isfinite(scale):
        return InvalidParameterError(f"{message}; features must be finite")
    return InvalidParameterError(
        f"{message}; the largest absolute feature value among the estimate's rows "
        f"is {scale:.6g}, so rescale the features"
    )


def estimate_distance_bounds(
    elements: Sequence[Element],
    metric: Metric,
    sample_size: int = 64,
    seed: Optional[int] = None,
) -> Tuple[float, float]:
    """Estimate ``(d_min, d_max)`` from a random sample of elements.

    The streaming algorithms only need ``d_min``/``d_max`` up to constant
    factors (errors translate into a slightly longer guess ladder), so a
    small sample suffices.  With ``sample_size`` at least the number of
    elements this reduces to the exact computation.
    """
    if len(elements) < 2:
        raise InvalidParameterError("need at least two elements to estimate distance bounds")
    rng = ensure_rng(seed)
    if len(elements) <= sample_size:
        sample: List[Element] = list(elements)
    else:
        indices = rng.choice(len(elements), size=sample_size, replace=False)
        sample = [elements[int(i)] for i in indices]
    d_min, d_max = exact_distance_bounds(sample, metric)
    # The sample maximum underestimates d_max and the sample minimum
    # overestimates d_min; widen both by a constant factor to be safe.  The
    # ladder length only grows logarithmically in this slack.
    return d_min / 4.0, d_max * 4.0


@dataclass
class MetricSpace:
    """A finite metric space: a list of elements plus a metric.

    This is the offline view of a dataset used by the baselines, the
    brute-force oracles, and the evaluation harness.  Streaming algorithms
    consume a :class:`repro.streaming.stream.DataStream` instead.
    """

    elements: List[Element]
    metric: Metric

    def __post_init__(self) -> None:
        self.elements = list(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterable[Element]:
        return iter(self.elements)

    def distance(self, x: Element, y: Element) -> float:
        """Distance between two elements of the space."""
        return self.metric.distance(x.vector, y.vector)

    def distance_to_set(self, x: Element, subset: Sequence[Element]) -> float:
        """``d(x, S)`` (:func:`distance_to_set`); ``inf`` for an empty ``S``."""
        return distance_to_set(x, subset, self.metric)

    def diversity(self, subset: Sequence[Element]) -> float:
        """``div(S)`` (:func:`diversity_of`); ``inf`` for fewer than two elements."""
        return diversity_of(subset, self.metric)

    def groups(self) -> List[int]:
        """Sorted list of distinct group labels present in the space."""
        return sorted({element.group for element in self.elements})

    def group_sizes(self) -> dict:
        """Mapping of group label to the number of elements in that group."""
        sizes: dict = {}
        for element in self.elements:
            sizes[element.group] = sizes.get(element.group, 0) + 1
        return sizes

    def subset_by_group(self, group: int) -> List[Element]:
        """All elements belonging to ``group`` in stream order."""
        return [element for element in self.elements if element.group == group]

    def distance_bounds(self, exact: bool = True, seed: Optional[int] = None) -> Tuple[float, float]:
        """``(d_min, d_max)`` for the space, exact or sampled."""
        if exact:
            return exact_distance_bounds(self.elements, self.metric)
        return estimate_distance_bounds(self.elements, self.metric, seed=seed)
