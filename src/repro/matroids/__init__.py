"""Matroid abstractions and the matroid-intersection machinery.

The fairness constraint is a partition matroid; SFDM2's post-processing
intersects it with a second partition matroid defined over distance-based
clusters.  This subpackage provides both matroids and Cunningham's
augmenting-path algorithm for maximum-cardinality matroid intersection
(Algorithm 4 in the paper), generic over independence oracles, plus the
counter-based form for exactly those two partition matroids that SFDM2
runs (:func:`partition_intersection`); the generic routine is its test
oracle.
"""

from repro.matroids.base import Matroid
from repro.matroids.uniform import UniformMatroid
from repro.matroids.partition import PartitionMatroid, matroid_from_constraint
from repro.matroids.cluster import ClusterMatroid
from repro.matroids.intersection import (
    AugmentationGraph,
    PartitionIntersection,
    matroid_intersection,
    greedy_common_independent,
    partition_intersection,
)

__all__ = [
    "Matroid",
    "UniformMatroid",
    "PartitionMatroid",
    "matroid_from_constraint",
    "ClusterMatroid",
    "AugmentationGraph",
    "matroid_intersection",
    "greedy_common_independent",
    "PartitionIntersection",
    "partition_intersection",
]
