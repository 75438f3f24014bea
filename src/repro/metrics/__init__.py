"""Distance metrics and metric-space utilities.

Every algorithm in the library touches the data only through a
:class:`~repro.metrics.base.Metric`, so swapping the distance function (as
the paper does across its four datasets) never requires touching algorithm
code.
"""

from repro.metrics.base import Metric, CallableMetric, stack_vectors
from repro.metrics.vector import (
    EuclideanMetric,
    ManhattanMetric,
    ChebyshevMetric,
    MinkowskiMetric,
    AngularMetric,
    CosineDistanceMetric,
    HammingMetric,
    euclidean,
    manhattan,
    chebyshev,
    minkowski,
    angular,
    cosine,
    hamming,
)
from repro.metrics.cached import CountingMetric
from repro.metrics.matrix import PrecomputedMetric
from repro.metrics.space import (
    MetricSpace,
    pairwise_distances,
    estimate_distance_bounds,
)

__all__ = [
    "Metric",
    "CallableMetric",
    "EuclideanMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
    "MinkowskiMetric",
    "AngularMetric",
    "CosineDistanceMetric",
    "HammingMetric",
    "euclidean",
    "manhattan",
    "chebyshev",
    "minkowski",
    "angular",
    "cosine",
    "hamming",
    "CountingMetric",
    "PrecomputedMetric",
    "MetricSpace",
    "pairwise_distances",
    "estimate_distance_bounds",
    "stack_vectors",
]
