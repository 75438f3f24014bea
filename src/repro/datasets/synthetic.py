"""Synthetic datasets used for the paper's scalability experiments.

The paper's synthetic workload is: ten 2-D Gaussian isotropic blobs with
random centres in ``[-10, 10]^2`` and identity covariance, points assigned
to groups uniformly at random, Euclidean distance, ``n`` from ``10^3`` to
``10^7`` and ``m`` from 2 to 20.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.store import ElementStore
from repro.datasets.spec import DatasetSpec
from repro.metrics.vector import EuclideanMetric
from repro.utils.rng import ensure_rng
from repro.utils.validation import require_positive_int


def synthetic_blobs(
    n: int,
    m: int = 2,
    num_blobs: int = 10,
    dimensions: int = 2,
    center_range: float = 10.0,
    cluster_std: float = 1.0,
    seed: Optional[int] = None,
) -> DatasetSpec:
    """Gaussian-blob dataset matching the paper's synthetic workload.

    Parameters
    ----------
    n:
        Total number of points.
    m:
        Number of sensitive groups; points are assigned to groups uniformly
        at random, independent of their position.
    num_blobs:
        Number of Gaussian components (10 in the paper).
    dimensions:
        Dimensionality of the points (2 in the paper).
    center_range:
        Blob centres are drawn uniformly from ``[-center_range, center_range]^d``.
    cluster_std:
        Standard deviation of each isotropic blob (1 in the paper).
    seed:
        RNG seed for reproducibility.
    """
    n = require_positive_int(n, "n")
    m = require_positive_int(m, "m")
    num_blobs = require_positive_int(num_blobs, "num_blobs")
    dimensions = require_positive_int(dimensions, "dimensions")
    rng = ensure_rng(seed)
    centers = rng.uniform(-center_range, center_range, size=(num_blobs, dimensions))
    assignments = rng.integers(0, num_blobs, size=n)
    points = centers[assignments] + rng.normal(0.0, cluster_std, size=(n, dimensions))
    groups = rng.integers(0, m, size=n)
    return DatasetSpec.from_store(
        name=f"synthetic-blobs(n={n},m={m})",
        store=ElementStore(points, groups),
        metric=EuclideanMetric(),
        notes=(
            f"{num_blobs} Gaussian blobs in [-{center_range},{center_range}]^{dimensions}, "
            f"std={cluster_std}, groups uniform at random"
        ),
    )


def uniform_points(
    n: int,
    m: int = 1,
    dimensions: int = 2,
    low: float = 0.0,
    high: float = 1.0,
    seed: Optional[int] = None,
) -> DatasetSpec:
    """Uniform random points in a box — used for the illustrative figures.

    Figure 1 (max-sum vs max-min) and Figure 2 (fair vs unconstrained) of
    the paper use points spread over the unit square; this generator
    reproduces that setting and doubles as a simple fixture for tests.
    """
    n = require_positive_int(n, "n")
    m = require_positive_int(m, "m")
    dimensions = require_positive_int(dimensions, "dimensions")
    rng = ensure_rng(seed)
    points = rng.uniform(low, high, size=(n, dimensions))
    groups = rng.integers(0, m, size=n)
    return DatasetSpec.from_store(
        name=f"uniform(n={n},m={m})",
        store=ElementStore(points, groups),
        metric=EuclideanMetric(),
        notes=f"uniform points in [{low},{high}]^{dimensions}, groups uniform at random",
    )
